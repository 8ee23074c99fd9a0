"""Harness self-test: the gate on answers known by hand, and on broken ones.

The paper fixtures go through the same `run_op` and `gate.check_op` as the
workloads, against the answers of the README's worked example:

* `values fig1.game` has the row `player=1 vertex=v1 aval=1 cval=2 acval=2`;
* `check fig2.game fig2_s2s6.strat` is `not-admissible` at s1, memory 0,
  with violated=eq3 aval=5 acval=10 strat_aval=3 strat_cval=4;
* `synth fig1_liminf.game --player 1 --spec geq2.spec` is realizable.

Then the gate must be live: a changed value row, a changed verdict, a
changed reported value and a synthesized strategy with one move flipped
must each be reported as failed.  Last, another seed must give other
games (that the same seed gives byte-identical inputs is checked by the
repeated set-ups of every run).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

FIG1_V1 = {"player": 1, "vertex": "v1", "aval": "1", "cval": "2", "acval": "2"}
FIG2_REJECTION = {
    "admissible": False, "vertex": "s1", "memory": 0, "violated": "eq3",
    "aval": "5", "acval": "10", "strat_aval": "3", "strat_cval": "4",
}


def _ctx(gate, name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return gate.GameCtx(fh.read())


def run(cli, gate, cases, workdir, run_op, batch) -> list[str]:
    """Problems found; empty when the gate accepts the right answers,
    rejects every broken one, and the seed after `batch`'s shares no game
    with it."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for name in os.listdir(FIXTURES):
        shutil.copy(os.path.join(FIXTURES, name), workdir)
    problems = []

    def op_run(op):
        _, out = run_op(cli, [os.path.join(workdir, a) if a.endswith(
            (".game", ".strat", ".spec")) else a for a in op.argv], 30)
        if op.command == "synth" and out.status == "ok":
            with open(os.path.join(workdir, op.strategy), encoding="utf-8") as fh:
                out.written = fh.read()
        return out

    def expect(label, found, ok):
        if ok and found:
            problems.append(f"self-test {label}: gate rejected a right answer: {found}")
        if not ok and not found:
            problems.append(f"self-test {label}: gate accepted a broken answer")

    Op = cases.Op
    # fig1 values
    fig1 = _ctx(gate, "fig1.game")
    op = Op("fig1.values", "values", "fig1", ("values", "fig1.game"))
    out = op_run(op)
    rows = gate.payload_of(out).get("rows", [])
    if not any(FIG1_V1.items() <= r.items() for r in rows):
        problems.append("self-test fig1: row player=1 vertex=v1 aval=1 cval=2 acval=2 missing")
    right = gate.unique_answer("values", gate.payload_of(out))
    expect("fig1 values", gate.check_op(op, out, workdir, fig1, right)[0], True)
    payload = gate.payload_of(out)
    payload["rows"][0]["acval"] = payload["rows"][0]["cval"] + "1"
    broken = dataclasses.replace(out, stdout=json.dumps(payload))
    expect("fig1 changed value row", gate.check_op(op, broken, workdir, fig1, right)[0], False)
    expect("fig1 changed value row, no reference",
           gate.check_op(op, broken, workdir, fig1, None)[0], False)

    # fig2 rejection
    fig2 = _ctx(gate, "fig2.game")
    op = Op("fig2.check", "check", "fig2", ("check", "fig2.game", "fig2_s2s6.strat"),
            player=1, strategy="fig2_s2s6.strat")
    out = op_run(op)
    payload = gate.payload_of(out)
    if {k: payload.get(k) for k in FIG2_REJECTION} != FIG2_REJECTION:
        problems.append(f"self-test fig2: verdict {payload} is not the worked example's")
    expect("fig2 check", gate.check_op(op, out, workdir, fig2, False)[0], True)
    for key, value in (("aval", "6"), ("acval", "5"), ("violated", "eq4")):
        broken = dataclasses.replace(out, stdout=json.dumps({**payload, key: value}))
        expect(f"fig2 changed {key}", gate.check_op(op, broken, workdir, fig2, None)[0], False)
    flipped = dataclasses.replace(out, rc=0, stdout=json.dumps(
        {"command": "check", "admissible": True, "player": 1}))
    expect("fig2 changed verdict", gate.check_op(op, flipped, workdir, fig2, False)[0], False)

    # fig1_liminf synthesis
    fig1l = _ctx(gate, "fig1_liminf.game")
    op = Op("fig1l.synth", "synth", "fig1l",
            ("synth", "fig1_liminf.game", "--player", "1", "--spec", "geq2.spec",
             "-o", "fix.synth.strat"),
            player=1, spec="geq2.spec", strategy="fix.synth.strat")
    out = op_run(op)
    if gate.payload_of(out).get("realizable") is not True:
        problems.append("self-test fig1_liminf: synth is not realizable")
    expect("fig1_liminf synth", gate.check_op(op, out, workdir, fig1l, True)[0], True)
    caught = False
    for line in (out.written or "").splitlines():
        if not line.startswith("move "):
            continue
        _, m, v, t = line.split()
        for alt in fig1l.game.succ[v]:
            if alt != t:
                text = out.written.replace(line, f"move {m} {v} {alt}")
                broken = dataclasses.replace(out, written=text)
                caught |= bool(gate.check_op(op, broken, workdir, fig1l, True)[0])
    if not caught:
        problems.append("self-test fig1_liminf: no one-move flip of the strategy was caught")

    # another seed, other games
    other = cases.make_batch(batch.workload, batch.seed + 1)
    same = [gid for gid, f in batch.games.items() if batch.files[f] == other.files[f]]
    if same:
        problems.append(f"self-test: seeds {batch.seed} and {batch.seed + 1} share games {same}")
    shutil.rmtree(workdir, ignore_errors=True)
    return problems
