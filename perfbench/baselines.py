"""Traced reproduction of the single-run baselines quoted in ROADMAP item 1.

    python3 perfbench/baselines.py

Run from the repository root.  Each case is one in-process CLI call, timed
once untraced and once with the span recorder on; the three largest layers
by inclusive time are printed next to the ROADMAP figure.  The mean time
of the calibration loop (`calibration.py`) is printed first, so the raw
seconds can be set against the machine's speed at the time.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import sys

import calibration
import run

sys.path.insert(0, run.SRC)

from admgames import cli  # noqa: E402
from admgames.games import PayoffKind  # noqa: E402
from admgames.oracle import random_game  # noqa: E402

import cases  # noqa: E402
from spans import Recorder  # noqa: E402

# (label, ROADMAP figure, measure, size, seed, weights, command arguments)
CASES = [
    ("mp-inf values n=10 seed 1", "0.24 s", "mp-inf", 10, 1, (-5, 5), ["values"]),
    ("mp-inf values n=20 seed 1", "3.1 s", "mp-inf", 20, 1, (-5, 5), ["values"]),
    ("liminf values n=800 seed 3", "0.52 s", "liminf", 800, 3, (-5, 5), ["values"]),
    ("liminf sco n=800 seed 3", "4.7 s, 5 memory states", "liminf", 800, 3, (-5, 5),
     ["sco", "--player", "1", "-o", "out.strat"]),
    ("limsup synth n=64 seed 1, spec payoff(1) >= 1 || payoff(2) >= 1", "3.6 s",
     "limsup", 64, 1, (-3, 3),
     ["synth", "--player", "1", "--spec", "spec", "-o", "out.strat"]),
]


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    workdir = os.path.join(run.HERE, "_work", f"baselines-{os.getpid()}")
    os.makedirs(workdir)
    cal_ms = 1000 * statistics.mean(calibration.loop() for _ in range(10))
    print(f"calibration loop: {cal_ms:.1f} ms (reference {calibration.REF_MS:g} ms)")
    try:
        with open(os.path.join(workdir, "spec"), "w", encoding="utf-8") as fh:
            fh.write("payoff(1) >= 1 || payoff(2) >= 1\n")
        for label, roadmap, measure, size, seed, weights, argv in CASES:
            g = random_game(seed, size, weight_range=weights, measure=PayoffKind(measure))
            path = os.path.join(workdir, "g.game")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cases.game_text(g))
            argv = [argv[0], path] + [os.path.join(workdir, a) if a in ("spec", "out.strat")
                                      else a for a in argv[1:]]
            plain, out = run.run_op(cli, argv, 600)
            rec = Recorder()
            rec.install()
            try:
                traced, _ = run.run_op(cli, argv, 600)
            finally:
                rec.uninstall()
            m = rec.metrics()
            top = sorted(((v, k[:-2]) for k, v in m.items() if k.endswith(".s")
                          and not k.startswith(("games.", "values.compute", "outcomes.model",
                                                "outcomes.synth", "admissibility."))),
                         reverse=True)[:3]
            report = json.loads(out.stdout.strip().splitlines()[-1])
            summary = {k: v for k, v in report.items() if k not in ("rows", "written")}
            print(f"{label}: {plain:.2f} s untraced, {traced:.2f} s traced "
                  f"(ROADMAP: {roadmap}); {summary}")
            print("    largest layers: " + ", ".join(f"{k} {v:.2f} s" for v, k in top))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
