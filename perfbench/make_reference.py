"""Regenerate `reference.json`: the stored unique answers of every workload.

    python3 perfbench/make_reference.py

Run from the repository root after changing the workload generator.  For
each workload and each seed in `SEEDS` it runs the operations whose answer
is unique (values rows and the check, mc and synth verdicts), checks the
outputs through the gate, and stores the answers with a digest of the
generated inputs.  Before that it validates the value tables against the
brute-force oracle (`oracle.brute_value_table`) on a small-arena slice of
every game family the workloads use: same measure, players and weights,
five vertices.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys

import run

sys.path.insert(0, run.SRC)

from admgames import cli  # noqa: E402
from admgames.games import PayoffKind, format_rational  # noqa: E402
from admgames.oracle import brute_value_table, random_game  # noqa: E402

import cases  # noqa: E402
import gate  # noqa: E402

SMALL = 5
SMALL_SEEDS = 6
SEEDS = range(16)
UNIQUE = {"values", "mc", "synth"}


def brute_slice(workdir: str) -> dict:
    """Compare CLI value rows with brute force on small games of each family."""
    families = sorted({(s.measure, s.players, s.weights)
                       for slots in cases.WORKLOADS.values() for s in slots})
    checked = {}
    os.makedirs(workdir, exist_ok=True)
    for measure, players, weights in families:
        for seed in range(SMALL_SEEDS):
            g = random_game(seed, SMALL, weight_range=weights, players=players,
                            measure=PayoffKind(measure))
            path = os.path.join(workdir, "small.game")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cases.game_text(g))
            _, out = run.run_op(cli, ["values", path], 120)
            rows = {(r["player"], r["vertex"]): (r["aval"], r["cval"], r["acval"])
                    for r in gate.payload_of(out)["rows"]}
            for p in range(1, players + 1):
                for tv, vals in brute_value_table(g, p).items():
                    if rows[(p, tv)] != tuple(format_rational(x) for x in vals):
                        raise SystemExit(f"{measure} seed {seed}: player {p} vertex {tv} "
                                         f"{rows[(p, tv)]} != brute {vals}")
        key = f"{measure}/{players}p/{weights[0]}..{weights[1]}"
        checked[key] = SMALL_SEEDS
        print(f"brute-force agreement: {key}, {SMALL_SEEDS} games of {SMALL} vertices",
              flush=True)
    return checked


def answers(workload: str, seed: int, workdir: str) -> dict:
    batch = cases.make_batch(workload, seed)
    batch.write(workdir)
    ctxs = {}
    out_answers = {}
    for op in batch.ops:
        if op.command not in UNIQUE and not (op.command == "check" and not op.expect):
            continue
        _, out = run.run_op(cli, batch.argv(op, workdir), 600)
        if op.command == "synth" and out.status == "ok" and out.rc == 0:
            with open(os.path.join(workdir, op.strategy), encoding="utf-8") as fh:
                out.written = fh.read()
        if op.game not in ctxs:
            ctxs[op.game] = gate.GameCtx(batch.files[batch.games[op.game]])
        problems, _ = gate.check_op(op, out, workdir, ctxs[op.game], None)
        if problems:
            raise SystemExit(f"{workload} seed {seed} {op.op_id}: {problems}")
        out_answers[op.op_id] = gate.unique_answer(op.command, gate.payload_of(out))
    return {"inputs": batch.digest(), "answers": out_answers}


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    workdir = os.path.join(run.HERE, "_work", f"reference-{os.getpid()}")
    try:
        ref = {"brute_force_slices": brute_slice(workdir), "seeds": {}}
        for workload in cases.WORKLOADS:
            per_seed = ref["seeds"][workload] = {}
            for seed in SEEDS:
                per_seed[str(seed)] = answers(workload, seed, workdir)
                print(f"{workload} seed {seed}: {len(per_seed[str(seed)]['answers'])} "
                      "answers", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write(ref)
    return 0


def write(ref: dict) -> None:
    """One line per seed, so a regenerated file diffs by seed."""
    blocks = []
    for workload, per_seed in sorted(ref["seeds"].items()):
        rows = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}"
                          for seed, entry in per_seed.items())
        blocks.append(f"  {json.dumps(workload)}: {{\n{rows}\n  }}")
    slices = json.dumps(ref["brute_force_slices"], sort_keys=True)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "brute_force_slices": {slices},\n "seeds": {{\n'
                 + ",\n".join(blocks) + "\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
