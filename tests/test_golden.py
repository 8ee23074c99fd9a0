"""Pinned outputs on the fixture games: the exact strategy files of sco, wco,
strategy_from_outcome and synth, the mc counterexamples, the outcome
automata (native and dot), the value rows, and the check verdict of every
fixture strategy (or the defects that make it unfit for the game).

Refactors of the product, layout and solver code must keep these byte for
byte.  The fixture games are also run under the other measures, so the
inf/sup rebuilds (and the mapping of their vertices back to the game) are
covered.  `python tests/test_golden.py` rewrites the stored file; do that
only for an intended change of output.
"""

import json
import random

from admgames import (
    check_strategy_admissible,
    compute_value_table,
    construct_sco,
    construct_wco_candidate,
    label_edges,
    model_check_admissible,
    outcome_automaton,
    parse_game,
    parse_spec,
    parse_strategy,
    synthesize_assume_admissible,
)
from admgames.admissibility import strategy_from_outcome
from admgames.automata import automaton_to_dot, serialize_automaton
from admgames.oracle import random_lasso
from admgames.transform import serialize_strategy, validate_strategy

from helpers import FIXTURES, fixture_text

GOLDEN = FIXTURES / "golden_outputs.json"
GAMES = ("fig1.game", "fig1_liminf.game", "fig2.game", "fig3.game")
SPECS = ("geq2.spec", "geq3.spec", "true.spec")
STRATEGIES = sorted(p.name for p in FIXTURES.glob("*.strat"))
LASSO_SEEDS = (0, 1, 2)


def _variants():
    for name in GAMES:
        lines = fixture_text(name).splitlines()
        for measure in ("as-is", "inf", "sup", "limsup"):
            if measure != "as-is":
                lines = [f"measure {measure}" if l.startswith("measure ") else l for l in lines]
            yield f"{name} {measure}", parse_game("\n".join(lines) + "\n")


def _values_text(table) -> str:
    tg = table.transformed
    return "".join(
        f"player={p} vertex={v} origin={tg.origin(v)} "
        f"aval={a} cval={c} acval={ac}\n"
        for p in range(1, table.source.players + 1)
        for v in sorted(table.arena.owner)
        for a, c, ac in [table.at(p, v)]
    )


def _check_text(verdict) -> str:
    if verdict.admissible:
        return "admissible\n"
    return (
        f"vertex={verdict.vertex} memory={verdict.memory} "
        f"violated={verdict.violated} aval={verdict.aval} acval={verdict.acval} "
        f"strat_aval={verdict.strat_min} strat_cval={verdict.strat_max}\n"
        f"witness: {' '.join(verdict.witness)}\n"
    )


def golden_outputs() -> dict:
    out = {}
    for key, g in _variants():
        table = compute_value_table(g)
        out[f"{key} values"] = _values_text(table)
        for name in STRATEGIES:
            s = parse_strategy(fixture_text(name))
            problems = validate_strategy(g, s)
            out[f"{key} check {name}"] = (
                f"rejected: {'; '.join(problems)}\n" if problems
                else _check_text(check_strategy_admissible(g, s))
            )
        for player in range(1, g.players + 1):
            out[f"{key} sco {player}"] = serialize_strategy(construct_sco(g, player))
            s, verified = construct_wco_candidate(g, player)
            out[f"{key} wco {player}"] = f"verified={verified}\n" + serialize_strategy(s)
            for seed in LASSO_SEEDS:
                # a lasso of the rebuilt arena, which is what the function follows
                lasso = random_lasso(table.arena, random.Random(seed))
                out[f"{key} follow {player} {seed}"] = (
                    f"prefix: {' '.join(lasso.prefix)}\ncycle: {' '.join(lasso.cycle)}\n"
                    + serialize_strategy(strategy_from_outcome(g, player, lasso, table))
                )
        if g.measure.is_mean_payoff:
            continue
        lg = label_edges(g, table)
        for player in range(1, g.players + 1):
            aut = outcome_automaton(lg, player)
            out[f"{key} outcomes {player} native"] = serialize_automaton(aut)
            out[f"{key} outcomes {player} dot"] = automaton_to_dot(aut)
        for spec_name in SPECS:
            spec = parse_spec(fixture_text(spec_name))
            verdict = model_check_admissible(g, spec)
            ce = verdict.counterexample
            out[f"{key} mc {spec_name}"] = "holds" if verdict.holds else (
                f"prefix: {' '.join(ce.prefix)}\ncycle: {' '.join(ce.cycle)}\n"
            )
            for player in range(1, g.players + 1):
                res = synthesize_assume_admissible(g, player, spec)
                out[f"{key} synth {player} {spec_name}"] = (
                    serialize_strategy(res.strategy) if res.realizable else "unrealizable"
                )
    return out


def test_outputs_match_the_pinned_text():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_outputs()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
