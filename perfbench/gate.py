"""Correctness gate: every operation's output is checked before it counts.

Unique answers (value rows and the check, mc and synth verdicts) are
compared with the stored reference when the seed has one.  Strategies,
witnesses and counterexamples are checked by meaning, not by bytes, so a
change that picks a different but valid witness still passes:

* an sco strategy must pass the admissibility checker;
* a wco strategy reported as verified must pass the checker;
* a not-admissible verdict must report aval/acval equal to the values of
  its witness history;
* an mc counterexample must violate the spec and, lifted to the rebuilt
  arena, satisfy every player's admissible-outcome condition;
* a realizable synth strategy must win its objective.

Answers that are neither stored nor provable by meaning (a `holds`, an
`unrealizable` or an admissible random strategy on a seed without a stored
reference) are counted as unverified.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction

from admgames import (
    Lasso,
    check_strategy_admissible,
    compute_value_table,
    eval_outcome_formula,
    eval_spec_on_lasso,
    label_edges,
    lift_lasso,
    parse_game,
    parse_spec,
    parse_strategy,
    value_at_history,
    verify_strategy_wins,
)
from admgames.games import format_rational
from admgames.transform import validate_strategy


@dataclass
class Outcome:
    """What one operation left behind: exit code, stdout and written file."""

    status: str  # "ok", "timeout" or "raised <exception>"
    rc: int | None
    stdout: str
    written: str | None = None  # text of the strategy file the op wrote


class GameCtx:
    """Library-side view of one game, built lazily and shared by its checks."""

    def __init__(self, text: str):
        self.game = parse_game(text)
        self._table = None
        self._labels = None

    @property
    def table(self):
        if self._table is None:
            self._table = compute_value_table(self.game)
        return self._table

    @property
    def labels(self):
        if self._labels is None:
            self._labels = label_edges(self.game, self.table)
        return self._labels


def rows_digest(rows) -> str:
    rows = sorted(rows, key=lambda r: (r["player"], r["vertex"]))
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def table_rows(table, players: int) -> list:
    rows = []
    for player in range(1, players + 1):
        for v in sorted(table.arena.owner):
            a, c, ac = table.at(player, v)
            rows.append({
                "player": player,
                "vertex": v,
                "origin": table.transformed.origin(v),
                "aval": format_rational(a),
                "cval": format_rational(c),
                "acval": format_rational(ac),
            })
    return rows


def payload_of(out: Outcome) -> dict:
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


_VERDICT_KEY = {"check": "admissible", "mc": "holds", "synth": "realizable"}


def unique_answer(command: str, payload: dict):
    """The part of a report that any correct program must reproduce exactly."""
    if command == "values":
        return rows_digest(payload["rows"])
    key = _VERDICT_KEY.get(command)
    return payload[key] if key else None


def _strategy(op, out: Outcome, workdir: str, g):
    text = out.written
    if text is None:
        with open(os.path.join(workdir, op.strategy), encoding="utf-8") as fh:
            text = fh.read()
    s = parse_strategy(text)
    problems = validate_strategy(g, s)
    if problems:
        raise ValueError("invalid strategy: " + "; ".join(problems[:3]))
    if s.player != op.player:
        raise ValueError(f"strategy is for player {s.player}, not {op.player}")
    return s


def _admissible(ctx: GameCtx, s) -> bool:
    return check_strategy_admissible(ctx.game, s, ctx.table).admissible


def check_op(op, out: Outcome, workdir: str, ctx: GameCtx, expected) -> tuple[list, bool]:
    """Problems found in one operation's output, and whether the answer was
    verified (by reference or by meaning)."""
    if out.status != "ok":
        return [out.status], False
    try:
        return _check(op, out, workdir, ctx, expected)
    except Exception as exc:  # a malformed output is a failed operation
        return [f"gate: {type(exc).__name__}: {exc}"], False


def _check(op, out, workdir, ctx, expected):
    payload = payload_of(out)
    problems = []
    if payload.get("command") != op.command:
        return [f"report is for {payload.get('command')!r}"], False
    g = ctx.game
    verdict = unique_answer(op.command, payload)
    want_rc = 0 if op.command in ("values", "sco", "wco") or verdict else 1
    if out.rc != want_rc:
        problems.append(f"exit code {out.rc}, expected {want_rc}")
    verified = expected is not None
    if expected is not None and verdict != expected:
        problems.append(f"answer {verdict!r} differs from reference {expected!r}")

    if op.command == "values" and expected is None:
        verified = True
        if verdict != rows_digest(table_rows(ctx.table, g.players)):
            problems.append("value rows differ from the library value table")
    elif op.command in ("sco", "wco"):
        s = _strategy(op, out, workdir, g)
        if payload["memory"] != s.memory:
            problems.append("reported memory differs from the strategy file")
        must_pass = op.command == "sco" or payload["verified"]
        verified = True
        if must_pass and not _admissible(ctx, s):
            problems.append(f"{op.command} strategy fails the admissibility checker")
    elif op.command == "check":
        if op.expect == "admissible":
            verified = True
            if not verdict:
                problems.append("sco strategy judged not admissible")
        if not verdict:
            verified = True
            problems += _check_rejection(op, payload, ctx)
    elif op.command == "mc" and not verdict:
        verified = True
        problems += _check_counterexample(op, payload, workdir, ctx)
    elif op.command == "synth" and verdict:
        verified = True
        s = _strategy(op, out, workdir, g)
        if payload["memory"] != s.memory:
            problems.append("reported memory differs from the strategy file")
        if not verify_strategy_wins(g, op.player, _spec(op, workdir), s):
            problems.append("synthesized strategy does not win its objective")
    return problems, verified


def _spec(op, workdir):
    with open(os.path.join(workdir, op.spec), encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _check_rejection(op, payload, ctx):
    g = ctx.game
    witness = payload["witness"]
    problems = []
    if not witness or witness[0] != g.init or witness[-1] != payload["vertex"]:
        problems.append("witness does not run from init to the reported vertex")
    a, _, ac = value_at_history(g, witness, op.player, ctx.table)
    if (payload["aval"], payload["acval"]) != (format_rational(a), format_rational(ac)):
        problems.append(
            f"reported aval/acval {payload['aval']}/{payload['acval']} differ from "
            f"the witness values {format_rational(a)}/{format_rational(ac)}"
        )
    lo, hi = payload["strat_aval"], payload["strat_cval"]
    want = "eq3" if Fraction(lo) < Fraction(payload["aval"]) else "eq4"
    if payload["violated"] != want or Fraction(hi) > Fraction(payload["aval"]):
        problems.append("violation kind does not match the reported values")
    return problems


def _check_counterexample(op, payload, workdir, ctx):
    ce = payload["counterexample"]
    lasso = Lasso(prefix=tuple(ce["prefix"]), cycle=tuple(ce["cycle"]))
    g = ctx.game
    lasso.check(g)
    problems = []
    if lasso.start != g.init:
        problems.append("counterexample does not start at init")
        return problems
    if eval_spec_on_lasso(g, _spec(op, workdir), lasso):
        problems.append("counterexample satisfies the spec")
    lifted = lift_lasso(ctx.table.transformed, lasso)
    for p in range(1, g.players + 1):
        if not eval_outcome_formula(ctx.labels, p, lifted):
            problems.append(f"counterexample is not admissible-compatible for player {p}")
    return problems
