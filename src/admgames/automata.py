"""Deterministic parity automata over the edges of an arena.

A run reads the edges of a play; each state has a max-parity priority, and
a run is accepted iff the highest priority visited infinitely often is
even.  Automata come in two forms with the same reading interface (`step`,
`priority`, `transitions`).  A named automaton (read from a file, or built
over an arena's edge set) names its states freely and keeps its transitions
in a dict keyed by (state, edge).  An explored automaton is explored along
an arena from its initial vertex, with `solvers.explore`: its states are
0..n-1 in breadth-first order from the initial state 0, and it keeps arrays
of each state's arena vertex and priority and a table of each state's
successors, one per arena edge leaving its vertex, in the arena's order.
The tuples the states were explored as are kept only as names, which the
text formats order the states by.

Negation shifts priorities by one.  Intersection explores a synchronous
product of explored automata, so its states are tuples of integers, and
converts the conjunction of parity conditions to a single one with an index
appearance record over the components' Streett pairs: granted pairs migrate
to the back of the record, and the emitted priority says how deep into the
record the deepest grant or unanswered request reached.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    "reindex_edges",
]


@dataclass
class EdgeAutomaton:
    """Deterministic, edge-labelled, max-parity automaton with named states,
    as read from a file or built over an arena's edge set.

    `along(g)` gives the same automaton explored along the arena `g`, which
    is the form products and the parity solver work on.
    """

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

    def transitions(self):
        """((state, edge), next state) pairs."""
        return self.delta.items()

    def states(self):
        return self.priority.keys()

    def label(self, state):
        """The value the text formats order a state by: its name."""
        return state

    def negated(self) -> EdgeAutomaton:
        return replace(self, priority={s: p + 1 for s, p in self.priority.items()})

    def along(self, g: Game) -> ExploredAutomaton:
        """The same automaton explored along the arena `g`; its states are
        named (arena vertex, state, priority)."""

        def succ(state):
            v, s, _ = state
            for v2 in g.successors(v):
                t = self.step(s, (v, v2))
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
    initial: int = 0

    def step(self, state, edge):
        u, v = edge
        if self.vertex[state] == u:
            for t in self.succ[state]:
                if self.vertex[t] == v:
                    return t
        raise GameFormatError(
            f"automaton has no transition from {self.names[state]!r} on edge {edge}"
        )

    def transitions(self):
        """((state, edge), next state) pairs."""
        vertex = self.vertex
        return (
            ((s, (vertex[s], vertex[t])), t)
            for s, outs in enumerate(self.succ)
            for t in outs
        )

    def states(self):
        return range(len(self.priority))

    def label(self, state):
        """The value the text formats order a state by: its explored tuple."""
        return self.names[state]

    def negated(self) -> ExploredAutomaton:
        return replace(self, priority=[p + 1 for p in self.priority])

    def along(self, g: Game) -> ExploredAutomaton:
        """The automaton itself: it was explored along `g`."""
        assert self.vertex[0] == g.init, "explored along another arena"
        return self


def negate(aut):
    """Complement: accept exactly the runs the input rejects."""
    return aut.negated()


def constant_automaton(g: Game, accept: bool) -> EdgeAutomaton:
    state = "acc" if accept else "rej"
    return EdgeAutomaton(
        initial=state,
        delta={(state, e): state for e in g.weights},
        priority={state: 0 if accept else 1},
    )


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

    The product is explored along the arena's edges from its initial vertex,
    so every component must be complete over the arena paths that can occur.
    Named components are first explored along the arena; a product state is
    (the components' states, the record, the emitted priority).
    """
    pairs = []  # (component index, odd priority)
    for ci, aut in enumerate(components):
        for o in sorted({aut.priority[s] for s in aut.states()}):
            if o % 2 == 1:
                pairs.append((ci, o))
    components = [a.along(g) for a in components]
    if len(components) == 1:
        return components[0]
    h = len(pairs)
    tables = [a.succ for a in components]
    prios = [a.priority for a in components]

    def succ(state):
        comp_states, perm, _ = state
        for nxt_comp in zip(*[t[cs] for t, cs in zip(tables, comp_states)]):
            emitted = [p[cs] for p, cs in zip(prios, nxt_comp)]
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
            perm2 = tuple(j for j in perm if j not in gset) + tuple(
                j for j in perm if j in gset
            )
            yield nxt_comp, perm2, pr

    vertex = components[0].vertex
    init = (tuple(a.initial for a in components), tuple(range(h)), 0)
    return _explored(init, succ, lambda state: vertex[state[0][0]])


def _explored(init, succ, vertex_of=lambda state: state[0]) -> ExploredAutomaton:
    """Automaton on the states reachable from `init` along the arena's edges.

    A state is a tuple whose last element is its priority: `succ(state)`
    lists one successor per arena edge leaving its vertex `vertex_of(state)`,
    in the arena's order.
    """
    names, table = explore(init, succ)
    return ExploredAutomaton(
        vertex=[vertex_of(s) for s in names],
        priority=[s[-1] for s in names],
        succ=table,
        names=names,
    )


def reindex_edges(aut: EdgeAutomaton, edge_map: dict) -> EdgeAutomaton:
    """Rekey a named automaton's transitions: edge_map maps new edges to the
    edges the automaton was written against (used to run original-game
    automata on a rebuilt arena)."""
    delta = {}
    for new_edge, old_edge in edge_map.items():
        for s in aut.priority:
            key = (s, old_edge)
            if key in aut.delta:
                delta[(s, new_edge)] = aut.delta[key]
    return EdgeAutomaton(initial=aut.initial, delta=delta, priority=dict(aut.priority))


# ---------------------------------------------------------------------------
# text formats


def _sorted_transitions(aut) -> list:
    """Transitions in order of their state's `repr` label, then edge."""
    key = {s: repr(aut.label(s)) for s in aut.states()}
    return sorted(aut.transitions(), key=lambda kv: (key[kv[0][0]], kv[0][1]))


def serialize_automaton(aut) -> str:
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


def automaton_to_dot(aut) -> str:
    names = {}

    def name(s):
        if s not in names:
            names[s] = f"q{len(names)}"
        return names[s]

    lines = ["digraph automaton {", "  rankdir=LR;"]
    name(aut.initial)
    for s in sorted(aut.states(), key=lambda s: repr(aut.label(s))):
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
