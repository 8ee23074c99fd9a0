"""Span recorder that times the program's public functions from outside.

`Recorder.install()` rebinds each traced function, for the duration of a
traced pass, in its defining module and in every `admgames` module that
imported it by name (for example `values`, `admissibility` and `outcomes`
import from `solvers`), so calls are caught whichever module makes them.
`uninstall()` restores the originals.  Spans are kept in memory as
(name, start, end, parent) and size counts are added at the same call
boundaries; per-layer metrics are derived from both when the pass ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _avalues(table):
    return {"values.aval_levels": sum(len(v) for v in table.avalues.values())}


def _parity(args):
    pg = args[0]
    return {
        "solvers.parity_vertices": len(pg.owner),
        "solvers.parity_priorities": len(set(pg.priority.values())),
    }


# (module, function) -> sizer(result, args) giving size counts, or None.
TRACED = {
    ("games", "parse_game"): None,
    ("transform", "make_prefix_independent"):
        lambda r, a: {"transform.arena_vertices": len(r.game.owner)},
    ("transform", "product_with_strategy"):
        lambda r, a: {"transform.product_states": len(r.states)},
    ("values", "compute_value_table"): lambda r, a: _avalues(r),
    ("solvers", "zero_sum_value"): None,
    ("solvers", "one_player_values"): None,
    ("solvers", "one_player_max_value"): None,
    ("solvers", "cooperative_witness_lasso"): None,
    ("solvers", "worst_case_strategy"): None,
    ("solvers", "fixed_strategy_extremes"): None,
    ("solvers", "solve_parity"): lambda r, a: _parity(a),
    ("automata", "intersect"): lambda r, a: {"automata.intersect_states": len(r.priority)},
    ("outcomes", "label_edges"): None,
    ("outcomes", "outcome_automaton"):
        lambda r, a: {"outcomes.outcome_states": len(r.priority)},
    ("outcomes", "model_check_admissible"): None,
    ("outcomes", "synthesize_assume_admissible"):
        lambda r, a: {"outcomes.synth_memory": r.strategy.memory if r.realizable else 0},
    ("admissibility", "construct_sco"):
        lambda r, a: {"admissibility.sco_memory": r.memory},
    ("admissibility", "construct_wco_candidate"):
        lambda r, a: {"admissibility.wco_memory": r[0].memory},
    ("admissibility", "check_strategy_admissible"): None,
}

SIZE_COUNTS = (
    "transform.arena_vertices",
    "transform.product_states",
    "values.aval_levels",
    "solvers.parity_vertices",
    "solvers.parity_priorities",
    "automata.intersect_states",
    "outcomes.outcome_states",
    "outcomes.synth_memory",
    "admissibility.sco_memory",
    "admissibility.wco_memory",
)


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {k: 0 for k in SIZE_COUNTS}
        self._stack = []
        self._saved = []  # (module, attribute, original)

    def _wrap(self, name, fn, sizer):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if sizer is not None:
                for key, n in sizer(result, args).items():
                    counts[key] += n
            return result

        return traced

    def install(self):
        mods = [m for k, m in sys.modules.items() if k.startswith("admgames.") and m]
        for (modname, fname), sizer in TRACED.items():
            home = sys.modules[f"admgames.{modname}"]
            original = getattr(home, fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, sizer)
            for mod in mods:
                if getattr(mod, fname, None) is original:
                    self._saved.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def metrics(self) -> dict:
        """Inclusive seconds, self seconds and calls per traced function,
        plus the size counts.  A span nested inside a span of the same name
        adds to calls but not to inclusive time, so time is never counted
        twice."""
        out = {}
        for (modname, fname) in TRACED:
            name = f"{modname}.{fname}"
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.s"] += dur
        out.update(self.counts)
        return out

    def dump(self) -> list:
        return [tuple(s) for s in self.spans]
