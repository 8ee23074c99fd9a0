"""Benchmark runner: one workload, one seed, a closed loop of CLI operations.

    python3 perfbench/run.py --workload mp-values --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from `src/` of the
checkout.  Set-up imports the program in a fresh interpreter, generates the
workload's games, specs and strategies from the seed and writes them to a
private work directory; it is repeated and its median reported as
`setup_s`.  Then one client sends the batch's operations one after
another, each an in-process `admgames.cli.run([...])` with `--json`, and
repeats the batch while the time budget lasts.  Each
operation runs under a wall-clock cap; a timeout or an exception is a
failed operation, never dropped.  Every output is checked by the gate in
`gate.py`, the gate itself is checked on the paper fixtures
(`selftest.py`), and the last line of standard output is one JSON object.

The machine's speed drifts while it is shared, so every pass also runs a
fixed calibration loop at about thirty points (`calibration.py`) and the
gated times are scaled to a reference speed of that loop; set-up's import
step is scaled by a fixed fresh-interpreter import instead.  The raw times
are printed next to the scaled ones.

With `--trace 1` the batch alternates untraced and traced passes.  The
traced passes time the program's public functions from outside
(`spans.py`); the per-layer metrics come from them and the command sums
from the untraced passes, and `trace.overhead_share` compares the two.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 7
CAL_POINTS = 30  # calibration loops per pass
# The end-to-end metrics of the final JSON line, scaled to the reference
# speed (BENCHMARK.json lists the same).  The other end-to-end figures are
# printed but not gated; NOTES.md says why.
GATED = ("setup_s", "wall_s")
RECURSION_LIMIT = sys.getrecursionlimit()


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that exceeded its cap."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(cli, argv, cap_s: float):
    """Run one CLI invocation in process; returns (seconds, Outcome)."""
    from gate import Outcome

    out, err = io.StringIO(), io.StringIO()
    # each operation starts as a fresh invocation would: no garbage left by
    # the previous one, default recursion limit
    sys.setrecursionlimit(RECURSION_LIMIT)
    gc.collect()
    rc, status = None, "ok"
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(["--json", *argv])
    except OpTimeout:
        status = f"timeout after {cap_s:g} s"
    except SystemExit as exc:
        status = f"exit {exc.code}: {err.getvalue().strip()[:200]}"
    except Exception as exc:  # any crash is a failed operation, reported
        status = f"raised {type(exc).__name__}: {exc}"
    finally:
        t1 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    if status == "ok" and rc == 2:
        status = f"error exit 2: {err.getvalue().strip()[:200]}"
    return t1 - t0, Outcome(status=status, rc=rc, stdout=out.getvalue())


def load_reference(workload: str, seed: int, digest: str):
    """Stored unique answers for this seed, or None; and a note on why."""
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    entry = ref["seeds"].get(workload, {}).get(str(seed))
    if entry is None:
        return None, "none stored for this seed"
    if entry["inputs"] != digest:
        return None, "stale: the generated inputs changed"
    return entry["answers"], "stored"


def set_up(workload: str, seed: int, workdir: str, cli):
    """Import in a fresh interpreter, generate and write inputs, warm up;
    returns (import seconds, seconds of the rest, batch)."""
    from calibration import child_seconds
    from cases import make_batch

    import_s = child_seconds([sys.executable, "-c", "import admgames.cli"],
                             env=dict(os.environ, PYTHONPATH=SRC))
    t1 = perf_counter()
    batch = make_batch(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    batch.write(workdir)
    _, warm = run_op(cli, ["values", os.path.join(HERE, "fixtures", "fig1.game")], 30)
    if warm.rc != 0:
        raise RuntimeError(f"warm-up failed: {warm.status}")
    return import_s, perf_counter() - t1, batch


def one_pass(cli, batch, workdir, cap_s, deadline):
    """Send every operation once, in order, with calibration loops spread
    between them; returns ([(seconds, Outcome)], [calibration seconds]).
    Operations left when the run's time cap is reached are not run and have
    no seconds."""
    from calibration import loop
    from gate import Outcome

    results, cals = [], []
    step = max(1, len(batch.ops) // CAL_POINTS)
    for n, op in enumerate(batch.ops):
        if n % step == 0:
            cals.append(loop())
        if perf_counter() > deadline:
            results.append((None, Outcome("not run: run time cap reached", None, "")))
            continue
        writes = op.command in ("sco", "wco", "synth")
        target = os.path.join(workdir, op.strategy) if writes else None
        if writes and os.path.exists(target):
            os.remove(target)
        secs, outcome = run_op(cli, batch.argv(op, workdir), cap_s)
        if writes and os.path.exists(target):
            with open(target, encoding="utf-8") as fh:
                outcome.written = fh.read()
        results.append((secs, outcome))
    return results, cals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "admgames")):
        print(f"error: no admgames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cases

    if args.workload not in cases.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(cases.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir) -> int:
    from admgames import cli

    import calibration
    import cases
    import gate
    import selftest
    from spans import Recorder

    problems = []

    setups = []
    digests = set()
    setup_scaled = []
    for _ in range(SETUP_REPS):
        spawn_s = calibration.spawn()
        # the in-process part lasts up to a second, over which the machine's
        # speed jumps between states; the median of eight loops around it
        # follows it better than one loop on each side
        cals = [calibration.loop() for _ in range(4)]
        import_s, rest_s, batch = set_up(args.workload, args.seed, workdir, cli)
        cals += [calibration.loop() for _ in range(4)]
        setups.append(import_s + rest_s)
        setup_scaled.append(import_s * calibration.REF_SPAWN_S / spawn_s
                            + rest_s * calibration.REF_MS / (1000 * statistics.median(cals)))
        digests.add(batch.digest())
    if len(digests) != 1:
        problems.append("same seed generated different inputs across set-ups")
    expected, ref_note = load_reference(args.workload, args.seed, batch.digest())

    # one operation may take at most --seconds and one pass twice that, so
    # even a run whose operations all hang ends well within three minutes
    cap_s = max(5.0, args.seconds)
    start = perf_counter()
    passes = []  # (traced, results, recorder or None, calibration seconds)
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        rec = Recorder() if traced else None
        if rec:
            rec.install()
        try:
            results, cals = one_pass(cli, batch, workdir, cap_s,
                                     perf_counter() + 2 * args.seconds)
        finally:
            if rec:
                rec.uninstall()
        passes.append((traced, results, rec, cals))
        if args.trace and len(passes) < 2:
            continue
        walls = [sum(s or 0.0 for s, _ in p[1]) for p in passes]
        if perf_counter() + statistics.median(walls) > start + args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # gate: full checks on the first pass; a later output is checked again
    # only if its bytes differ, and its unique answer must not change
    ctxs = {}
    fails = {}  # (op_id, pass index) -> problems
    unverified = set()
    for i, op in enumerate(batch.ops):
        if op.game not in ctxs:
            ctxs[op.game] = gate.GameCtx(batch.files[batch.games[op.game]])
        want = None if expected is None else expected.get(op.op_id)
        first = passes[0][1][i][1]
        for k, (_, results, _, _) in enumerate(passes):
            out = results[i][1]
            if k > 0 and (out.status, out.stdout, out.written) == (
                    first.status, first.stdout, first.written):
                if (op.op_id, 0) in fails:
                    fails[(op.op_id, k)] = ["same output as the failed first pass"]
                continue
            found, verified = gate.check_op(op, out, workdir, ctxs[op.game], want)
            # both outputs passed the gate, so both parse
            if not found and k > 0 and (op.op_id, 0) not in fails and (
                    gate.unique_answer(op.command, gate.payload_of(out))
                    != gate.unique_answer(op.command, gate.payload_of(first))):
                found = found + ["answer changed between passes"]
            if found:
                fails[(op.op_id, k)] = found
            elif not verified:
                unverified.add(op.op_id)
    problems += selftest.run(cli, gate, cases, os.path.join(workdir, "selftest"), run_op,
                             batch)

    # metrics
    n_ops = len(batch.ops)
    attempted = n_ops * len(passes)
    failed = len(fails)
    # each pass's times scaled by the reference over its calibration mean
    cal_ms = 1000 * statistics.mean(c for p in passes for c in p[3])
    scale = [calibration.REF_MS / (1000 * statistics.mean(p[3])) for p in passes]
    plain = [k for k, p in enumerate(passes) if not p[0]]
    commands = cases.COMMANDS[args.workload]
    runs = [passes[k][1] for k in plain]
    raw = _figures(batch, runs, [1.0] * len(plain), commands)
    ref = _figures(batch, runs, [scale[k] for k in plain], commands)
    samples = len(plain) * n_ops
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        **raw,
        "failed_share": (failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "calibration_ms": (cal_ms, "ms"),
    }
    ref["setup_s"] = (statistics.median(setup_scaled), "s")
    gated = {k: ref[k] for k in GATED}

    print(f"workload {args.workload}, seed {args.seed}: {n_ops} operations x "
          f"{len(passes)} passes ({sum(1 for p in passes if p[0])} traced), "
          f"one client, closed loop; {samples} untraced timings")
    print(f"reference answers: {ref_note}; answers neither stored nor provable by "
          f"meaning: {len(unverified)} (listed in the report file)")
    for i, op in enumerate(batch.ops):
        times = [passes[k][1][i][0] for k in plain if passes[k][1][i][0] is not None]
        if times:
            print(f"  op {op.op_id:<14} {op.command:<6} median "
                  f"{statistics.median(times):.4f} s  [{', '.join(f'{t:.4f}' for t in times)}]")
    for (op_id, k), found in sorted(fails.items()):
        print(f"  FAILED {op_id} pass {k}: {'; '.join(found[:3])}")
    for p in problems:
        print(f"  HARNESS PROBLEM: {p}")
    for name, (value, unit) in e2e.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in gated.items():
        print(f"metric {name} at reference speed = {value:.6g} {unit}")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "operations": n_ops, "passes": len(passes), "setup_runs_s": setups,
        "op_seconds": {op.op_id: [passes[k][1][i][0] for k in plain]
                       for i, op in enumerate(batch.ops)},
        "calibration_s": [p[3] for p in passes],
        "failures": {f"{o} pass {k}": f for (o, k), f in fails.items()},
        "unverified": sorted(unverified), "reference": ref_note, "harness_problems": problems,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "gated": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
    }
    if args.trace:
        metrics = _layer_metrics(passes, scale, raw)
        report["per_layer"] = metrics
        report["spans"] = [p[2].dump() for p in passes if p[0]]
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value:.6g} {unit}")
    else:
        metrics = gated
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    result = {
        "correct": not fails and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


CMD_ALL = ("values", "sco", "check", "wco", "mc", "synth")


def _figures(batch, runs, scales, commands):
    """Batch figures over the untraced passes, each time multiplied by its
    pass's scale: the batch time with every operation at its median, and the
    summed median time of each command."""
    times = [[None if secs is None else secs * f for secs, _ in r]
             for r, f in zip(runs, scales)]
    per_op = [statistics.median([t for t in col if t is not None] or [0.0])
              for col in zip(*times)]
    out = {"wall_s": (sum(per_op), "s")}
    for c in commands:
        out[f"{c}_s"] = (sum(t for t, op in zip(per_op, batch.ops) if op.command == c), "s")
    return out


def _layer_metrics(passes, scale, raw):
    from spans import SIZE_COUNTS, TRACED

    traced = [p[2].metrics() for p in passes if p[0]]
    out = {}
    for (mod, fn) in TRACED:
        name = f"{mod}.{fn}"
        out[f"{name}.s"] = (statistics.median(m[f"{name}.s"] for m in traced), "s")
        out[f"{name}.self_s"] = (statistics.median(m[f"{name}.self_s"] for m in traced), "s")
        out[f"{name}.calls"] = (traced[0][f"{name}.calls"], "count")
    for key in SIZE_COUNTS:
        out[key] = (traced[0][key], "count")
    for c in CMD_ALL:
        out[f"cli.{c}.s"] = raw.get(f"{c}_s", (0.0, "s"))
    # compare passes at the reference speed, so drift between them cancels
    walls = {t: statistics.median(sum(s or 0.0 for s, _ in p[1]) * f
                                  for p, f in zip(passes, scale) if p[0] == t)
             for t in (False, True)}
    out["trace.overhead_share"] = (walls[True] / walls[False] - 1, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
