"""Deterministic parity automata over the edges of an arena.

States carry whatever bookkeeping a construction needs (they are opaque
hashable values); transitions are keyed by arena edges, and each state has a
max-parity priority: a run is accepted iff the highest priority visited
infinitely often is even.

Negation shifts priorities by one.  Intersection builds a synchronous
product and converts the conjunction of parity conditions to a single one
with an index appearance record over the components' Streett pairs: granted
pairs migrate to the back of the record, and the emitted priority says how
deep into the record the deepest grant or unanswered request reached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .games import Game, GameFormatError, Lasso, parse_int, run_until_repeat
from .solvers import explore

__all__ = [
    "EdgeAutomaton",
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
    """Deterministic, edge-labelled, max-parity automaton."""

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


def negate(aut: EdgeAutomaton) -> EdgeAutomaton:
    """Complement: accept exactly the runs the input rejects."""
    return EdgeAutomaton(
        initial=aut.initial,
        delta=dict(aut.delta),
        priority={s: p + 1 for s, p in aut.priority.items()},
    )


def constant_automaton(g: Game, accept: bool) -> EdgeAutomaton:
    state = "acc" if accept else "rej"
    return EdgeAutomaton(
        initial=state,
        delta={(state, e): state for e in g.weights},
        priority={state: 0 if accept else 1},
    )


def accepts_lasso(aut: EdgeAutomaton, lasso: Lasso) -> bool:
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


def intersect(g: Game, components: list[EdgeAutomaton]) -> EdgeAutomaton:
    """Deterministic parity automaton for the conjunction of the components.

    The product is explored along the arena's edges from its initial vertex,
    so every component must be complete over the arena paths that can occur.
    """
    if len(components) == 1:
        return components[0]
    pairs = []  # (component index, odd priority)
    for ci, aut in enumerate(components):
        for o in sorted({p for p in aut.priority.values() if p % 2 == 1}):
            pairs.append((ci, o))
    h = len(pairs)

    def succ(state):
        v, comp_states, perm, _ = state
        for v2 in g.successors(v):
            e = (v, v2)
            nxt_comp = tuple(
                a.step(cs, e) for a, cs in zip(components, comp_states)
            )
            emitted = [a.priority[cs] for a, cs in zip(components, nxt_comp)]
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
            yield v2, nxt_comp, perm2, pr

    init = (g.init, tuple(a.initial for a in components), tuple(range(h)), 0)
    return _explored(init, succ)


def _explored(init, succ) -> EdgeAutomaton:
    """Automaton on the states reachable from `init` along the arena's edges.

    A state is (arena vertex, ..., priority): `succ(state)` lists one
    successor per arena edge leaving its vertex, in the arena's order.
    """
    graph = explore(init, succ)
    return EdgeAutomaton(
        initial=init,
        delta={(s, (s[0], t[0])): t for s, outs in graph.items() for t in outs},
        priority={s: s[-1] for s in graph},
    )


def reindex_edges(aut: EdgeAutomaton, edge_map: dict) -> EdgeAutomaton:
    """Rekey transitions: edge_map maps new edges to the edges the automaton
    was written against (used to run original-game automata on a rebuilt
    arena)."""
    delta = {}
    for new_edge, old_edge in edge_map.items():
        for s in aut.priority:
            key = (s, old_edge)
            if key in aut.delta:
                delta[(s, new_edge)] = aut.delta[key]
    return EdgeAutomaton(initial=aut.initial, delta=delta, priority=dict(aut.priority))


# ---------------------------------------------------------------------------
# text formats


def serialize_automaton(aut: EdgeAutomaton) -> str:
    """Native text format with states renamed q0, q1, ... in exploration order."""
    names = {}
    order = []

    def name(s):
        if s not in names:
            names[s] = f"q{len(names)}"
            order.append(s)
        return names[s]

    name(aut.initial)
    edges = sorted(aut.delta.items(), key=lambda kv: (repr(kv[0][0]), kv[0][1]))
    for (s, _), t in edges:
        name(s)
        name(t)
    for s in aut.priority:
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


def automaton_to_dot(aut: EdgeAutomaton) -> str:
    names = {}

    def name(s):
        if s not in names:
            names[s] = f"q{len(names)}"
        return names[s]

    lines = ["digraph automaton {", "  rankdir=LR;"]
    name(aut.initial)
    for s in sorted(aut.priority, key=repr):
        shape = "doublecircle" if aut.priority[s] % 2 == 0 else "circle"
        lines.append(
            f'  {name(s)} [label="{name(s)}:{aut.priority[s]}", shape={shape}];'
        )
    lines.append(f"  __init [shape=point];")
    lines.append(f"  __init -> {names[aut.initial]};")
    for (s, (u, v)), t in sorted(
        aut.delta.items(), key=lambda kv: (repr(kv[0][0]), kv[0][1])
    ):
        lines.append(f'  {name(s)} -> {name(t)} [label="{u}->{v}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
