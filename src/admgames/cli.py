"""Command-line frontend.

One subcommand per analysis; exit code 0 on success / holds / admissible /
realizable, 1 on fails / not-admissible / unrealizable / oracle mismatch,
2 on usage or file-format errors.  `--json` switches every report to a
stable machine-readable schema.  Rationals are always printed as p/q.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import os

from .admissibility import (
    check_strategy_admissible,
    construct_sco,
    construct_wco_candidate,
)
from .automata import parse_automaton
from .automata import automaton_to_dot, serialize_automaton
from .games import Game, GameFormatError, format_rational, parse_game
from .oracle import OracleBoundError, brute_value_table
from .outcomes import (
    UnsupportedMeasure,
    formula_text,
    label_edges,
    model_check_admissible,
    outcome_automaton,
    parse_spec,
    synthesize_assume_admissible,
)
from .transform import parse_strategy, serialize_strategy
from .values import compute_value_table


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GameFormatError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _load_game(args) -> Game:
    g = parse_game(_read(args.game))
    player = getattr(args, "player", None)
    if player is not None and not 1 <= player <= g.players:
        raise GameFormatError(f"--player {player} is out of range 1..{g.players}")
    return g


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _lasso_json(lasso):
    return {"prefix": list(lasso.prefix), "cycle": list(lasso.cycle)}


def _load_spec(path: str):
    # automaton references resolve relative to the spec file
    base = os.path.dirname(os.path.abspath(path))

    def loader(name: str):
        full = name if os.path.isabs(name) else os.path.join(base, name)
        return parse_automaton(_read(full))

    return parse_spec(_read(path), automaton_loader=loader)


def cmd_values(args) -> int:
    g = _load_game(args)
    table = compute_value_table(g)
    arena = table.arena
    tg = table.transformed
    rows = []
    for player in range(1, g.players + 1):
        for v in sorted(arena.owner):
            a, c, ac = table.at(player, v)
            rows.append(
                {
                    "player": player,
                    "vertex": v,
                    "origin": tg.origin(v),
                    "aval": format_rational(a),
                    "cval": format_rational(c),
                    "acval": format_rational(ac),
                }
            )
    lines = [
        f"player={r['player']} vertex={r['vertex']} "
        f"aval={r['aval']} cval={r['cval']} acval={r['acval']}"
        for r in rows
    ]
    _report(args, {"command": "values", "rows": rows}, lines)
    return 0


def cmd_check(args) -> int:
    g = _load_game(args)
    s = parse_strategy(_read(args.strategy))
    verdict = check_strategy_admissible(g, s)
    if verdict.admissible:
        _report(
            args,
            {"command": "check", "admissible": True, "player": s.player},
            [f"admissible player={s.player}"],
        )
        return 0
    payload = {
        "command": "check",
        "admissible": False,
        "player": s.player,
        "vertex": verdict.vertex,
        "memory": verdict.memory,
        "violated": verdict.violated,
        "aval": format_rational(verdict.aval),
        "acval": format_rational(verdict.acval),
        "strat_aval": format_rational(verdict.strat_min),
        "strat_cval": format_rational(verdict.strat_max),
        "witness": list(verdict.witness),
    }
    lines = [
        f"not-admissible player={s.player} vertex={verdict.vertex} "
        f"memory={verdict.memory} violated={verdict.violated} "
        f"aval={payload['aval']} acval={payload['acval']} "
        f"strat_aval={payload['strat_aval']} strat_cval={payload['strat_cval']}",
        "witness: " + " ".join(verdict.witness),
    ]
    _report(args, payload, lines)
    return 1


def cmd_sco(args) -> int:
    g = _load_game(args)
    s = construct_sco(g, args.player)
    text = serialize_strategy(s)
    _emit(text, args.output)
    if args.json:
        print(json.dumps({"command": "sco", "player": args.player,
                          "memory": s.memory, "written": args.output or "-"},
                         sort_keys=True))
    elif args.output:
        print(f"sco strategy for player {args.player} written to {args.output}")
    return 0


def cmd_wco(args) -> int:
    g = _load_game(args)
    s, verified = construct_wco_candidate(g, args.player)
    _emit(serialize_strategy(s), args.output)
    if args.json:
        print(json.dumps({"command": "wco", "player": args.player,
                          "memory": s.memory, "verified": verified,
                          "written": args.output or "-"}, sort_keys=True))
    else:
        print(f"wco candidate verified={'true' if verified else 'false'}")
    return 0


def cmd_outcomes(args) -> int:
    g = _load_game(args)
    table = compute_value_table(g)
    lg = label_edges(g, table)
    if g.measure.is_mean_payoff:
        _emit(formula_text(lg, args.player), args.output)
        if args.json:
            print(json.dumps({"command": "outcomes", "player": args.player,
                              "automaton": False,
                              "reason": "mean-payoff thresholds are not omega-regular"},
                             sort_keys=True))
        return 0
    aut = outcome_automaton(lg, args.player)
    text = automaton_to_dot(aut) if args.format == "dot" else serialize_automaton(aut)
    _emit(text, args.output)
    if args.json:
        print(json.dumps({"command": "outcomes", "player": args.player,
                          "automaton": True, "states": len(aut.priority),
                          "written": args.output or "-"}, sort_keys=True))
    return 0


def cmd_mc(args) -> int:
    g = _load_game(args)
    spec = _load_spec(args.spec)
    verdict = model_check_admissible(g, spec)
    if verdict.holds:
        _report(args, {"command": "mc", "holds": True}, ["holds"])
        return 0
    ce = verdict.counterexample
    _report(
        args,
        {"command": "mc", "holds": False, "counterexample": _lasso_json(ce)},
        [
            "fails",
            "counterexample prefix: " + " ".join(ce.prefix),
            "counterexample cycle: " + " ".join(ce.cycle),
        ],
    )
    return 1


def cmd_synth(args) -> int:
    g = _load_game(args)
    spec = _load_spec(args.spec)
    result = synthesize_assume_admissible(g, args.player, spec)
    if not result.realizable:
        _report(args, {"command": "synth", "realizable": False}, ["unrealizable"])
        return 1
    _emit(serialize_strategy(result.strategy), args.output)
    if args.json:
        print(json.dumps({"command": "synth", "realizable": True,
                          "player": args.player,
                          "memory": result.strategy.memory,
                          "written": args.output or "-"}, sort_keys=True))
    elif args.output:
        print(f"realizable; strategy written to {args.output}")
    return 0


def cmd_oracle(args) -> int:
    g = _load_game(args)
    table = compute_value_table(g)
    rows = []
    mismatches = 0
    for player in range(1, g.players + 1):
        brute = brute_value_table(g, player, bound=args.bound)
        for v in sorted(table.arena.owner):
            a, c, ac = table.at(player, v)
            ba, bc, bac = brute[v]
            row = {
                "player": player,
                "vertex": v,
                "aval": format_rational(a),
                "cval": format_rational(c),
                "acval": format_rational(ac),
                "brute_aval": format_rational(ba),
                "brute_cval": format_rational(bc),
                "brute_acval": format_rational(bac),
            }
            row["match"] = (
                row["aval"] == row["brute_aval"]
                and row["cval"] == row["brute_cval"]
                and row["acval"] == row["brute_acval"]
            )
            mismatches += 0 if row["match"] else 1
            rows.append(row)
    lines = []
    for r in rows:
        mark = "ok" if r["match"] else "MISMATCH"
        lines.append(
            f"player={r['player']} vertex={r['vertex']} "
            f"solver=({r['aval']},{r['cval']},{r['acval']}) "
            f"brute=({r['brute_aval']},{r['brute_cval']},{r['brute_acval']}) {mark}"
        )
    lines.append(f"mismatches: {mismatches}")
    _report(args, {"command": "oracle", "rows": rows, "mismatches": mismatches}, lines)
    return 0 if mismatches == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admgames",
        description="admissible-strategy analysis for quantitative games",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("values", help="print aval/cval/acval per player and vertex")
    p.add_argument("game")
    p.set_defaults(func=cmd_values)

    p = sub.add_parser("check", help="decide admissibility of a strategy file")
    p.add_argument("game")
    p.add_argument("strategy")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sco", help="construct an admissible strategy")
    p.add_argument("game")
    p.add_argument("--player", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sco)

    p = sub.add_parser("wco", help="construct a guarantee-preserving candidate")
    p.add_argument("game")
    p.add_argument("--player", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_wco)

    p = sub.add_parser("outcomes", help="emit the admissible-outcome automaton")
    p.add_argument("game")
    p.add_argument("--player", type=int, required=True)
    p.add_argument("--format", choices=["native", "dot"], default="native")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_outcomes)

    p = sub.add_parser("mc", help="model-check a spec under admissibility")
    p.add_argument("game")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("synth", help="assume-admissible synthesis")
    p.add_argument("game")
    p.add_argument("--player", type=int, required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("oracle", help="compare solver values against brute force")
    p.add_argument("game")
    p.add_argument("--bound", type=int, default=None,
                   help="vertex limit for the enumeration (default 8)")
    p.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state in it."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GameFormatError, UnsupportedMeasure, OracleBoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
