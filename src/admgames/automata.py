"""Deterministic parity automata over the edges of an arena.

A run reads the edges of a play; each state has a max-parity priority, and
a run is accepted iff the highest priority visited infinitely often is
even.  Past the parser there is one form, the explored automaton: it is
explored along an arena from its initial vertex, with `solvers.explore`,
so its states are 0..n-1 in breadth-first order from the initial state 0,
and it keeps arrays of each state's arena vertex and priority and a table
of each state's successors, one per arena edge leaving its vertex, in the
arena's order.  The tuples the states were explored as are kept only as
names, which the text formats order the states by.  A named automaton is
the parsed file: it names its states freely, keeps its transitions in a
dict keyed by (state, edge), and is explored along an arena with `along`.
Both forms run lassos with `accepts_lasso`.

Negation shifts priorities by one.  Intersection explores a synchronous
product of explored automata, so its states are tuples of integers, and
converts the conjunction of parity conditions to a single one with an index
appearance record over the components' Streett pairs: granted pairs migrate
to the back of the record, and the emitted priority says how deep into the
record the deepest grant or unanswered request reached.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

from .games import Game, GameFormatError, Lasso, parse_int, run_until_repeat
from .solvers import explore

__all__ = [
    "EdgeAutomaton",
    "ExploredAutomaton",
    "negate",
    "intersect",
    "constant_automaton",
    "accepts_lasso",
    "parse_automaton",
    "serialize_automaton",
    "automaton_to_dot",
]


@dataclass
class EdgeAutomaton:
    """Deterministic, edge-labelled, max-parity automaton with named states,
    as read from a file."""

    initial: object
    delta: dict  # (state, (src, dst)) -> state
    priority: dict  # state -> int

    def step(self, state, edge):
        try:
            return self.delta[(state, edge)]
        except KeyError:
            raise GameFormatError(
                f"automaton has no transition from {state!r} on edge {edge}"
            ) from None

    def along(self, g: Game, origin) -> ExploredAutomaton:
        """The automaton explored along the arena `g`, reading each arena
        edge (v, v2) as the edge (origin(v), origin(v2)) it was written
        against; its states are named (arena vertex, state, priority)."""

        def succ(state):
            v, s, _ = state
            for v2 in g.successors(v):
                t = self.step(s, (origin(v), origin(v2)))
                yield v2, t, self.priority[t]

        return _explored((g.init, self.initial, self.priority[self.initial]), succ)


@dataclass
class ExploredAutomaton:
    """Edge automaton explored along an arena, on the states 0..n-1.

    State 0 is initial and the states are numbered breadth first from it.
    `vertex[s]` is the arena vertex a run is at in state s, `priority[s]`
    its priority, and `succ[s]` the state reached along each arena edge
    leaving `vertex[s]`, in the arena's successor order.  `names[s]` is the
    tuple state s was explored as.
    """

    vertex: list
    priority: list
    succ: list
    names: list
    initial: ClassVar[int] = 0

    def step(self, state, edge):
        u, v = edge
        if self.vertex[state] == u:
            for t in self.succ[state]:
                if self.vertex[t] == v:
                    return t
        raise GameFormatError(
            f"automaton has no transition from {self.names[state]!r} on edge {edge}"
        )

    def states(self):
        return range(len(self.priority))


def negate(aut: ExploredAutomaton) -> ExploredAutomaton:
    """Complement: accept exactly the runs the input rejects."""
    return replace(aut, priority=[p + 1 for p in aut.priority])


def constant_automaton(g: Game, accept: bool) -> ExploredAutomaton:
    """The automaton accepting every run (or none), explored along `g`."""
    p = 0 if accept else 1
    return _explored((g.init, p), lambda state: ((v2, p) for v2 in g.successors(state[0])))


def accepts_lasso(aut, lasso: Lasso) -> bool:
    """Run the ultimately periodic word; decide by the repeating segment."""
    state = aut.initial
    for e in lasso.prefix_edges():
        state = aut.step(state, e)
    cyc = lasso.cycle_edges()

    def step(key):  # (automaton state, index in cyc of the edge read next)
        s, pos = key
        return aut.step(s, cyc[pos]), (pos + 1) % len(cyc)

    _, loop = run_until_repeat((state, 0), step)
    top = max(aut.priority[s] for s, _ in loop)
    return top % 2 == 0


def intersect(g: Game, components: list) -> ExploredAutomaton:
    """Deterministic parity automaton for the conjunction of the components.

    Every component is explored along the arena `g`, and the product is
    explored along its edges from its initial vertex; a product state is
    (the components' states, the record, the emitted priority).  The next
    record and priority depend only on the record and the components'
    emitted priorities, so records are explored as interned numbers and
    each (record, emitted) step is computed once.
    """
    pairs = []  # (component index, odd priority)
    for ci, aut in enumerate(components):
        if aut.vertex[0] != g.init:
            raise ValueError("explored along another arena")
        for o in sorted(set(aut.priority)):
            if o % 2 == 1:
                pairs.append((ci, o))
    if len(components) == 1:
        return components[0]
    h, k = len(pairs), len(components)
    tables = [a.succ for a in components]
    prios = [a.priority for a in components]
    records = [tuple(range(h))]  # record id -> record
    record_id = {records[0]: 0}
    steps = {}  # (record id, emitted priorities) -> (next record id, priority)

    def step(rid, emitted):
        perm = records[rid]
        # positions are 1-based ranks in the current record
        gmin = bmin = None
        gset = set()
        for rank, pj in enumerate(perm, start=1):
            ci, o = pairs[pj]
            p = emitted[ci]
            if p > o:
                gset.add(pj)
                if gmin is None:
                    gmin = rank
            elif p == o:
                if bmin is None:
                    bmin = rank
        if gmin is None and bmin is None:
            pr = 0
        elif gmin is not None and (bmin is None or gmin <= bmin):
            pr = 2 * (h - gmin) + 4
        else:
            pr = 2 * (h - bmin) + 3
        perm2 = tuple(j for j in perm if j not in gset) + tuple(j for j in perm if j in gset)
        rid2 = record_id.setdefault(perm2, len(records))
        if rid2 == len(records):
            records.append(perm2)
        return rid2, pr

    def succ(state):  # state: (*component states, record id, priority)
        rid = state[k]
        for nxt in zip(*[t[cs] for t, cs in zip(tables, state[:k])]):
            key = (rid, tuple([p[cs] for p, cs in zip(prios, nxt)]))
            out = steps.get(key)
            if out is None:
                out = steps[key] = step(*key)
            yield nxt + out

    vertex = components[0].vertex
    states, table = explore((*(a.initial for a in components), 0, 0), succ)
    return ExploredAutomaton(
        vertex=[vertex[s[0]] for s in states],
        priority=[s[-1] for s in states],
        succ=table,
        names=[(s[:k], records[s[k]], s[-1]) for s in states],
    )


def _explored(init, succ) -> ExploredAutomaton:
    """Automaton on the states reachable from `init` along the arena's edges.

    A state is a tuple whose first element is its arena vertex and whose
    last is its priority: `succ(state)` lists one successor per arena edge
    leaving that vertex, in the arena's order.
    """
    names, table = explore(init, succ)
    return ExploredAutomaton(
        vertex=[s[0] for s in names],
        priority=[s[-1] for s in names],
        succ=table,
        names=names,
    )


# ---------------------------------------------------------------------------
# text formats


def _sorted_transitions(aut: ExploredAutomaton) -> list:
    """((state, edge), next state) pairs in order of their state's `repr`
    name, then edge."""
    vertex = aut.vertex
    key = [repr(name) for name in aut.names]
    edges = (((s, (vertex[s], vertex[t])), t) for s, outs in enumerate(aut.succ) for t in outs)
    return sorted(edges, key=lambda kv: (key[kv[0][0]], kv[0][1]))


def serialize_automaton(aut: ExploredAutomaton) -> str:
    """Native text format with states renamed q0, q1, ... in exploration order."""
    names = {}
    order = []

    def name(s):
        if s not in names:
            names[s] = f"q{len(names)}"
            order.append(s)
        return names[s]

    name(aut.initial)
    edges = _sorted_transitions(aut)
    for (s, _), t in edges:
        name(s)
        name(t)
    for s in aut.states():
        name(s)

    lines = [f"state {names[s]}" for s in order]
    lines.append(f"initial {names[aut.initial]}")
    for s in order:
        lines.append(f"priority {names[s]} {aut.priority[s]}")
    for (s, (u, v)), t in edges:
        lines.append(f"trans {names[s]} {u} {v} {names[t]}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> EdgeAutomaton:
    states = set()
    initial = None
    priority = {}
    delta = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "state" and len(args) == 1:
            states.add(args[0])
        elif kind == "initial" and len(args) == 1:
            if initial is not None:
                raise GameFormatError("duplicate initial", lineno)
            initial = args[0]
        elif kind == "priority" and len(args) == 2:
            if args[0] in priority:
                raise GameFormatError(f"duplicate priority for state {args[0]}", lineno)
            try:
                priority[args[0]] = parse_int(args[1])
            except ValueError:
                raise GameFormatError(f"bad priority {args[1]!r}", lineno) from None
            if priority[args[0]] < 0:
                raise GameFormatError(f"negative priority {args[1]!r}", lineno)
        elif kind == "trans" and len(args) == 4:
            s, u, v, t = args
            key = (s, (u, v))
            if key in delta:
                raise GameFormatError(
                    f"duplicate transition from {s} on ({u}, {v})", lineno
                )
            delta[key] = t
        else:
            raise GameFormatError(f"bad automaton directive {line!r}", lineno)
    if initial is None:
        raise GameFormatError("missing initial state")
    for s in states:
        priority.setdefault(s, 0)
    for (s, _), t in delta.items():
        for x in (s, t):
            if x not in priority:
                raise GameFormatError(f"transition references undeclared state {x}")
    if initial not in priority:
        raise GameFormatError(f"initial state {initial} not declared")
    return EdgeAutomaton(initial=initial, delta=delta, priority=priority)


def automaton_to_dot(aut: ExploredAutomaton) -> str:
    names = {}

    def name(s):
        if s not in names:
            names[s] = f"q{len(names)}"
        return names[s]

    lines = ["digraph automaton {", "  rankdir=LR;"]
    name(aut.initial)
    for s in sorted(aut.states(), key=lambda s: repr(aut.names[s])):
        shape = "doublecircle" if aut.priority[s] % 2 == 0 else "circle"
        lines.append(
            f'  {name(s)} [label="{name(s)}:{aut.priority[s]}", shape={shape}];'
        )
    lines.append(f"  __init [shape=point];")
    lines.append(f"  __init -> {names[aut.initial]};")
    for (s, (u, v)), t in _sorted_transitions(aut):
        lines.append(f'  {name(s)} -> {name(t)} [label="{u}->{v}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
