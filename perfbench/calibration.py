"""Fixed work that measures how fast the machine runs right now.

The benchmark shares its machine with other work, and the speed of a core
drifts by tens of percent over minutes.  The same batch therefore takes
different times at different moments, which no statistic inside one run
can remove.  The benchmark runs `loop()` at about thirty points spread
over each pass and scales the pass's times by `REF_MS` over the loop's mean
time in that pass: a gated time is what the operation would have taken on
a machine where this loop takes exactly `REF_MS`.  The loop mixes the kinds
of work the program does (integer value-iteration sweeps, a breadth-first
search over tuple states with `Fraction` weights, dictionary updates) and
never calls the program, so it is identical on every commit compared.  It
starts from a collected heap, so garbage the program left behind is not
paid inside it.

The import step of set-up runs in a fresh interpreter, whose speed follows
process start-up and module loading rather than the loop: measured side by
side, the two correlated at 0.12.  That step is scaled by `spawn()`, a fresh
interpreter importing a fixed set of standard-library modules, to the
reference time `REF_SPAWN_S`.
"""

from __future__ import annotations

import gc
import random
import signal
import subprocess
import sys
from collections import deque
from fractions import Fraction
from time import perf_counter

REF_MS = 20.0  # the loop's time on an idle core of the development machine
REF_SPAWN_S = 0.1  # spawn()'s time there
_SPAWN_CODE = ("import argparse, collections, dataclasses, decimal, email.parser, fractions, "
               "hashlib, heapq, http.client, itertools, json, random, typing, unittest, "
               "xml.dom.minidom")

_N = 40
_rng = random.Random(0)
_EDGES = [[(_rng.randrange(_N), _rng.randint(-5, 5)) for _ in range(2)] for _ in range(_N)]


def _sweeps():
    nu = [0] * _N
    for _ in range(300):
        nu = [
            max(w + nu[j] for j, w in _EDGES[i]) if i % 2
            else min(w + nu[j] for j, w in _EDGES[i])
            for i in range(_N)
        ]
    return nu


def _search():
    start = (0, (None, None))
    seen = {start: 0}
    queue = deque([start])
    while queue:
        v, (lo, hi) = queue.popleft()
        for j, w in _EDGES[v]:
            q = Fraction(w, 3)
            nxt = (j, (w if lo is None else min(lo, w), q if hi is None else max(hi, q)))
            if nxt not in seen:
                seen[nxt] = len(seen)
                queue.append(nxt)
    for _ in range(3):
        by_repr = {repr(s): s for s in seen}
    return len(by_repr)


def _updates():
    counts = {}
    acc = 0
    for i in range(20000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
        acc += max(i & 7, (i * 3) & 5)
    f = Fraction(1, 3)
    for i in range(1500):
        f += Fraction(i, 7)
    return acc, f


def loop() -> float:
    """Run the calibration work once on a collected heap; returns its seconds."""
    gc.collect()
    t0 = perf_counter()
    _sweeps()
    _search()
    _updates()
    return perf_counter() - t0


def spawn() -> float:
    """Start a fresh interpreter that imports a fixed set of standard-library
    modules; returns its seconds."""
    return child_seconds([sys.executable, "-c", _SPAWN_CODE])


def child_seconds(argv, env=None, cap_s: float = 120.0) -> float:
    """Run a child process to its end; returns its wall seconds.

    The wait blocks instead of polling: `Popen.wait(timeout=...)` polls in
    steps of up to 50 ms, which rounds a 0.3 s child to the step.  The cap
    is a SIGALRM timer, so the caller's handler must raise; the child is
    then killed and reaped before the exception goes on."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        rc = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    secs = perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, argv)
    return secs
