"""Zero-sum and one-player value engines over finite arenas.

One coalition game pits a distinguished maximizing player against all other
players merged into a single minimizer.  For INF/SUP/LIMINF/LIMSUP the
per-vertex game value always belongs to the finite set of edge weights, so
values are computed by sweeping threshold games (safety, reachability,
Buchi and its co-Buchi dual) over that set from its cheap end: INF and
LIMINF upward, each game solved inside the winning region of the one below
it, and SUP and LIMSUP downward, each solved on the states no game above
it has won.  Every measure works on one dense integer copy of the
coalition game, `_DenseThreshold`: states numbered in `_key` order,
sharing the arena's successor and predecessor lists and its table of
weight vectors across its players, and each edge's
weight scaled to an integer by the lcm of the player's denominators, so an
edge is heavy for a threshold iff its scaled weight is at least the scaled
threshold.  All four threshold games rest on one attractor, `_dense_attr`,
the one Zielonka's algorithm uses too: reachability and Buchi use it
directly, and the safety region is the complement of the opponent's
attractor to the edges the player must avoid.  LIMINF is the coalition's
Buchi game on light moves, solved by the same `_buchi`: the player wins its
complement, with the attractor and trap moves the peeling records.
Mean-payoff values are rationals with denominator at most the vertex count
on the same scaled weights; they are found by a divide-and-conquer search
over these candidates that solves energy games (Brim et al.'s progress
measure, dense, with a shortcut for lost states) for "mean payoff >= lam"
and its dual "<= lam".  Each split's lam is a cycle mean of the moves the
games of the split before it found, when one lies in range, and otherwise
the least-denominator candidate in the middle of the range.
Worst-case-optimal strategies come from the value solve itself, never from
a second one: the threshold regions' moves for the extremum measures, the
energy games' moves for mean payoff.  Every LIMINF, LIMSUP and mean-payoff
table is certified before it is returned by one routine, `_certify`: with
the player's moves fixed, a minimizing coalition faces a one-player graph,
whose exact optimum must be the table at every vertex; mean payoff also
certifies the coalition's moves read off the dual energy games against a
maximizing player.

One-player optima (all players cooperating, or the coalition minimizing
against a fixed strategy) reduce to cycle analysis: strongly connected
components, per-component cycle metrics, and propagation over the
condensation.  `_one_player` does it on integer arrays, a successor table,
scaled weights and a membership array, with one Tarjan, `_dense_sccs`, and
a binary search over each component's weights for the threshold measures.
The cooperative witness lassos run on the same arrays, states and scaled
values: components from that Tarjan, paths from one breadth-first search
over sorted integer successor rows, `_shortest_path`, and each lasso's
payoff re-checked on the scaled weights.
`solve_parity` runs Zielonka's algorithm iteratively, with
an explicit stack, on a parity game's own states 0..n-1 (successor and
predecessor lists built once, subgames as a membership array), and checks
every solution before it returns it; the check's cycle test is `_peel`,
the SCC peel that also decides, for model checking and strategy
verification, whether a one-player graph has a run meeting several parity
conditions at once.  Synthesis hands the solver the integer graphs that
`explore` finds, in breadth-first order, so its ties break by exploration
order; `explore` is the one breadth-first explorer, numbering states
0..n-1 in discovery order, that every construction over a reachable state
space (rebuilds, products, automata, strategy modes) goes through.  Only
coalition arenas are renumbered, in `_key` order, for the threshold games.

INF (SUP) arenas are handled with LIMINF (LIMSUP) cycle semantics; callers
pass prefix-independence rebuilds for those measures, on which the two
coincide because weight sequences are monotone along every play.

`__all__` lists what the other modules use, plus the four names that
`perfbench/spans.py` traces by name: `worst_case_strategy`,
`cooperative_witness_lasso`, `one_player_values` and
`one_player_max_value`.  The attractor, the threshold games and the parity
check have no wrapper on named states; tests drive `_dense_attr`,
`_threshold` and `_check_parity` on the dense numbering directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf, lcm

from .games import Game, Lasso, PayoffKind, _payoff_of_weights

__all__ = [
    "ParityGame",
    "Region",
    "explore",
    "zero_sum_value",
    "one_player_max_value",
    "one_player_values",
    "solve_parity",
    "fixed_strategy_extremes",
    "worst_case_strategy",
    "cooperative_witness_lasso",
]


def _key(x):
    """Total deterministic ordering for heterogeneous state values."""
    return repr(x)


@dataclass(frozen=True)
class Region:
    """Winning vertex set plus a memoryless strategy on it for the winner."""

    vertices: frozenset
    strategy: dict


@dataclass(frozen=True)
class ParityGame:
    """Two-player game graph with vertex priorities, on the states 0..n-1.

    Player 0 wins a play iff the maximum priority seen infinitely often is
    even.  Games built by exploration number their states in breadth-first
    order from the initial state 0, and the solver breaks ties by that
    number.
    """

    owner: dict  # state -> 0 | 1, for every state 0..n-1
    priority: dict  # state -> int >= 0
    succ: dict  # state -> tuple of successor states


# ---------------------------------------------------------------------------
# basic graph machinery


def _numbered(roots, succ):
    """The states reachable from the distinct `roots`, numbered 0..n-1: the
    roots in order, then the others in breadth-first discovery order; and each
    state's successors in `succ`'s order, as a table of tuples of state
    numbers.  `succ` is called once per state, in number order, and each
    successor is hashed once, on lookup."""
    states = list(roots)
    index = {s: i for i, s in enumerate(states)}
    table = []
    for state in states:
        row = []
        for nxt in succ(state):
            i = index.setdefault(nxt, len(states))
            if i == len(states):
                states.append(nxt)
            row.append(i)
        table.append(tuple(row))
    return states, table


def explore(init, succ):
    """The states reachable from `init`, numbered 0..n-1 in breadth-first
    discovery order, and each state's successors in `succ`'s order, as a
    table of tuples of state numbers.

    Returns (states, table).  `succ` is called once per state, in number
    order, and each successor is hashed once, on lookup.
    """
    return _numbered([init], succ)


def _shortest_path(start, goal, rows):
    """Shortest path from `start` to a state that `goal` accepts, as a list
    of states, or None if there is none: a breadth-first search that takes
    each state's successors in the order of its row, so sorted rows give
    the canonical path."""
    if goal(start):
        return [start]
    parent = {start: None}
    queue = [start]
    for v in queue:
        for w in rows[v]:
            if w in parent:
                continue
            parent[w] = v
            if goal(w):
                path = [w]
                while v is not None:
                    path.append(v)
                    v = parent[v]
                path.reverse()
                return path
            queue.append(w)
    return None


def _shortest_cycle(u, rows):
    """Canonical shortest cycle through u, as a state list starting at u."""
    return _shortest_path(u, lambda v: u in rows[v], rows)


# ---------------------------------------------------------------------------
# attractors


def _predecessors(succ):
    """Predecessor lists of a dense successor table, in increasing order."""
    pred = [[] for _ in succ]
    for i, outs in enumerate(succ):
        for j in outs:
            pred[j].append(i)
    return pred


def _dense_attr(dg, player, targets, inside, strat, within=(), edges=None):
    """Attractor of `player` to the sorted `targets`, and across target edges
    if `edges` is given, in the subgame with membership array `inside`.

    `edges(v)` lists v's moves, in `succ` order, that are target edges.  Its
    seeds come from one pass over `within`, in increasing order: the
    targets and every state of the subgame that may have a target edge
    (the others may be left out, as they cannot seed).  A player state with
    target edges inside the subgame takes the lowest one, and an opponent
    state whose moves inside are all target edges is attracted.  Then the
    attractor grows breadth-first in seed order; an opponent state counts
    its moves inside the subgame, less its target edges, when first reached.
    Records the player's moves in `strat` and returns the attractor in the
    order it grew.
    """
    owner, succ, pred = dg.owner, dg.succ, dg.pred
    free = bytearray(inside)  # inside and not attracted yet
    for v in targets:
        free[v] = 0
    remaining = [0] * len(owner)  # 0: not counted yet
    crossed = {}  # opponent state -> its target-edge moves, counted at seeding
    if edges is None:
        queue = list(targets)
    else:
        queue = []
        for v in within:
            if not free[v]:
                queue.append(v)
                continue
            hits = [w for w in edges(v) if inside[w]]
            if not hits:
                continue
            if owner[v] == player:
                strat[v] = min(hits)
            else:
                left = sum(map(inside.__getitem__, succ[v])) - len(hits)
                if left:
                    remaining[v] = left
                    crossed[v] = set(hits)
                    continue
            free[v] = 0
            queue.append(v)
    for u in queue:
        for v in pred[u]:
            if not free[v]:
                continue
            if owner[v] == player:
                strat[v] = u
            else:
                if crossed and u in crossed.get(v, ()):
                    continue
                left = remaining[v] or sum(map(inside.__getitem__, succ[v]))
                left -= 1
                if left:
                    remaining[v] = left
                    continue
            free[v] = 0
            queue.append(v)
    return queue


# ---------------------------------------------------------------------------
# threshold games
#
# Every solver below works on a subgame given twice: `within`, its states in
# increasing order, and `inside`, their membership array; it returns its
# winning set the same two ways.


class _DenseGraph:
    """The dense graph of an arena, which the coalition games of all its
    players share.

    State i is the i-th vertex in `_key` order, so integer order is the
    order every tie-break uses, and `owner[i]` is its owner's player number.
    Successor lists keep the game's order and repeats; predecessor lists
    come out in increasing order.  `weights[i][k]` is the weight vector of
    state i's k-th move.
    """

    def __init__(self, g: Game):
        self.verts = verts = sorted(g.owner, key=_key)
        self.idx = idx = {v: i for i, v in enumerate(verts)}
        self.owner = [g.owner[v] for v in verts]
        self.succ = [[idx[w] for w in g.succ[v]] for v in verts]
        self.pred = _predecessors(self.succ)
        self.weights = [[g.weights[(v, w)] for w in g.succ[v]] for v in verts]


class _DenseThreshold:
    """The coalition game of max player `player` on the arena's dense graph
    `dense`, owner 1 being the max player.

    It shares the numbering, the successor and predecessor lists and the
    weight table of `dense`, and derives only the owner bits and weights of
    its player.
    `weight[i][k]` is the player's weight of state i's k-th move times
    `denom`, the lcm of the player's weight denominators, an int, and
    `lo[i]` and `hi[i]` are the least and greatest of them; `ints` are the
    distinct scaled weights in increasing order and `levels` the weights
    they stand for.  `weight_to[i][j]` is the scaled weight of the move from
    state i to state j, built on first use.  A move is heavy for the scaled
    threshold x iff its scaled weight is at least x, light otherwise.
    """

    def __init__(self, dense: _DenseGraph, player: int):
        self.verts, self.idx, self.succ, self.pred = dense.verts, dense.idx, dense.succ, dense.pred
        self.owner = [int(o == player) for o in dense.owner]
        p, table = player - 1, dense.weights
        self.denom = denom = lcm(*{ws[p].denominator for row in table for ws in row})
        self.weight = [
            [ws[p].numerator * (denom // ws[p].denominator) for ws in row] for row in table
        ]
        self.lo = [min(row) if row else inf for row in self.weight]
        self.hi = [max(row) if row else -inf for row in self.weight]
        self.ints = sorted(set().union(*self.weight))
        self.levels = [Fraction(x, denom) for x in self.ints]

    @cached_property
    def weight_to(self):
        return [dict(zip(row, ws)) for row, ws in zip(self.succ, self.weight)]

    def heavy(self, x):
        """The moves of scaled weight >= x: their target-edge lister, for
        `_dense_attr`, and the filter that keeps, in order, the states of a
        list that have one."""
        succ, weight, hi = self.succ, self.weight, self.hi
        return (
            lambda v: [w for w, c in zip(succ[v], weight[v]) if c >= x],
            lambda states: [v for v in states if hi[v] >= x],
        )

    def light(self, x):
        """The moves of scaled weight < x, as `heavy` gives the others."""
        succ, weight, lo = self.succ, self.weight, self.lo
        return (
            lambda v: [w for w, c in zip(succ[v], weight[v]) if c < x],
            lambda states: [v for v in states if lo[v] < x],
        )


def _buchi(dg, player, moves, within, inside, strat):
    """Winning set of `player`, and its membership array, for crossing
    edges of `moves` infinitely often; both players' winning moves go into
    `strat`.  `moves` is a pair (target-edge lister, filter of the states
    that have such an edge), as `_DenseThreshold.heavy` gives.

    Each round peels off the subgame a trap, the states outside the
    player's attractor to those edges, where the opponent can stay without
    crossing one, together with the opponent's attractor to it.  The
    opponent's moves are its attractor moves into each peeled trap and,
    inside the trap, the least successor in it along a move that is no such
    edge; the player's are those of the last attractor, which holds all
    that is left.  Every state of the subgame must keep a move inside it.
    """
    edges, can = moves
    owner, succ = dg.owner, dg.succ
    while within:
        mine = {}
        att = _dense_attr(dg, player, (), inside, mine, can(within), edges)
        if len(att) == len(within):
            strat.update(mine)
            return within, inside
        trap = bytearray(inside)
        for v in att:
            trap[v] = 0
        rest = [v for v in within if trap[v]]
        for v in rest:
            if owner[v] != player:
                crossing = edges(v)
                strat[v] = min(w for w in succ[v] if trap[w] and w not in crossing)
        inside = bytearray(inside)
        for v in _dense_attr(dg, 1 - player, rest, inside, strat):
            inside[v] = 0
        within = [v for v in within if inside[v]]
    return [], inside


def _threshold(dt: _DenseThreshold, measure: PayoffKind, x, within, inside):
    """The max player's winning set and moves in "payoff >= x / denom".

    SUP is reachability of a heavy move, INF safety against light moves and
    LIMSUP a Buchi condition on heavy moves.  LIMINF is the coalition's
    Buchi condition on light moves, whose complement the max player wins
    with the moves the same solve records for it.
    """
    owner, succ, weight = dt.owner, dt.succ, dt.weight
    strat = {}
    if measure is PayoffKind.SUP:
        win = bytearray(len(owner))
        edges, can = dt.heavy(x)
        for v in _dense_attr(dt, 1, (), inside, strat, can(within), edges):
            win[v] = 1
    elif measure is PayoffKind.INF:
        # the complement of the coalition's attractor to the light moves and
        # to the states with no move inside the subgame
        edges, can = dt.light(x)
        dead = [v for v in within if not any(map(inside.__getitem__, succ[v]))]
        win = bytearray(inside)
        for v in _dense_attr(dt, 0, dead, inside, {}, sorted({*can(within), *dead}), edges):
            win[v] = 0
        for v in within:
            if win[v] and owner[v]:
                strat[v] = min(w for w, c in zip(succ[v], weight[v]) if c >= x and win[w])
    elif measure is PayoffKind.LIMSUP:
        win = _buchi(dt, 1, dt.heavy(x), within, inside, strat)[1]
    else:
        lost = _buchi(dt, 0, dt.light(x), within, inside, strat)[1]
        win = bytearray(a > b for a, b in zip(inside, lost))
    return [v for v in within if win[v]], win, {v: w for v, w in strat.items() if owner[v]}


# ---------------------------------------------------------------------------
# zero-sum values


def zero_sum_value(dt: _DenseThreshold, measure: PayoffKind) -> tuple[dict, dict, list]:
    """Per-vertex value of `dt`'s max player against the merged coalition,
    one memoryless strategy of that player achieving every value at once,
    and each state's level.  The strategy is the certificate's sigma for
    mean payoff, otherwise each vertex's move in the highest threshold
    region it lies in, which is its own value.  A state's level, in `dt`'s
    numbering, is an int that orders states as their values do: the index
    of the value among the player's scaled weights, or for mean payoff the
    scaled value over the values' common denominator.

    The extremum values come from one sweep over the player's distinct
    scaled weights, from the end where the games stay small.  INF and
    LIMINF sweep upward: each game is solved inside the region of the one
    below it, and the sweep stops at the first empty region.  SUP and
    LIMSUP sweep downward: each game is solved on the states not valued
    yet, the complement of the regions above, which is a max-player trap
    where every state has its whole-arena value (also for SUP on an arena
    not rebuilt), and the states it wins take its value and moves; the
    sweep stops once every state is valued.  The moves come in state order.
    For LIMINF and LIMSUP, as for mean payoff, the strategy must then give
    exactly the value at every vertex against a minimizing coalition
    (`_certify`)."""
    if measure.is_mean_payoff:
        val = _mp_search(dt)
        moves = _mp_certify(dt, val)
        values = {v: x / dt.denom for v, x in zip(dt.verts, val)}
        common = lcm(*{x.denominator for x in val})
        ks = [x.numerator * (common // x.denominator) for x in val]
    else:
        n = len(dt.verts)
        within, inside = list(range(n)), bytearray(b"\x01") * n
        ks = [-1] * n
        moves = {}
        down = measure in (PayoffKind.SUP, PayoffKind.LIMSUP)
        for t in reversed(range(len(dt.ints))) if down else range(len(dt.ints)):
            win, inwin, region_moves = _threshold(dt, measure, dt.ints[t], within, inside)
            for v in win:
                ks[v] = t
            moves.update(region_moves)
            if down:
                # The states not valued yet are the complement of the max
                # player's regions above, a max-player trap, where every
                # state keeps the value it has in the whole arena; those won
                # here have this value and leave.
                inside = bytearray(a > b for a, b in zip(inside, inwin))
                within = [v for v in within if inside[v]]
                if not within:
                    break
            elif win:
                # The region is a coalition trap holding every play that
                # wins a higher threshold, so the next game is solved in it.
                within, inside = win, inwin
            else:
                break  # regions shrink as the threshold grows
        if -1 in ks:
            raise RuntimeError("every play reaches the minimum weight")
        values = {v: dt.levels[t] for v, t in zip(dt.verts, ks)}
    if set(moves) != {i for i, mine in enumerate(dt.owner) if mine}:
        raise RuntimeError("a move at every max vertex")
    if measure in (PayoffKind.LIMINF, PayoffKind.LIMSUP):
        _certify(dt, moves, measure, False, [dt.ints[t] for t in ks])
    verts = dt.verts
    return values, {verts[v]: verts[w] for v, w in sorted(moves.items())}, ks


def worst_case_strategy(g: Game, player: int) -> dict:
    """One memoryless strategy achieving aval(v) from every vertex at once."""
    # Kept by name for `perfbench/spans.py`, which looks it up with getattr
    # in traced runs; the package itself takes the moves from zero_sum_value.
    return zero_sum_value(_DenseThreshold(_DenseGraph(g), player), g.measure)[1]


# ---------------------------------------------------------------------------
# one-player optima (cooperative values, fixed-strategy extremes)


def _effective(measure: PayoffKind) -> PayoffKind:
    # INF/SUP callers pass prefix-independence rebuilds, where cycle
    # semantics are exact because weights are monotone along plays.
    if measure is PayoffKind.INF:
        return PayoffKind.LIMINF
    if measure is PayoffKind.SUP:
        return PayoffKind.LIMSUP
    if measure is PayoffKind.MP_SUP:
        return PayoffKind.MP_INF
    return measure


def _dense_sccs(succ, roots, inside):
    """Tarjan's strongly connected components (SIAM J. Comput. 1972) of the
    subgraph of a successor table on the states that `inside` marks, searched
    from `roots` in order, iteratively.  Components are emitted in reverse
    topological order, each as its states in the order they leave the stack.
    """
    index = [-1] * len(succ)
    low = index[:]
    onstack = bytearray(len(succ))
    stack = []
    comps = []
    counter = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = 1
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not inside[w]:
                    continue
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = 1
                    work.append((w, iter(succ[w])))
                    break
                if onstack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    comp = stack[at:]
                    del stack[at:]
                    for w in comp:
                        onstack[w] = 0
                    comp.reverse()
                    comps.append(comp)
    return comps


def _cyclic(k, edges):
    """Whether the edges (a, b) on the states 0..k-1 close a cycle: Kahn's
    peel of the states without incoming edges leaves some state behind."""
    indeg = [0] * k
    adj = [[] for _ in range(k)]
    for a, b in edges:
        adj[a].append(b)
        indeg[b] += 1
    peeled = [a for a in range(k) if not indeg[a]]
    for a in peeled:
        for b in adj[a]:
            indeg[b] -= 1
            if not indeg[b]:
                peeled.append(b)
    return len(peeled) < k


def _karp_min_mean(comp, edges):
    """Karp's minimum cycle mean (Discrete Math. 1978) inside one strongly
    connected component, from `edges` (u, v, w) between its states.

    Integer weights stay integers: means are compared as (sum, length)
    pairs by cross-multiplication, and only the result is a Fraction.
    """
    comp = sorted(comp)
    n = len(comp)
    idx = {v: i for i, v in enumerate(comp)}
    inc = [[] for _ in comp]  # incoming: (src index, weight)
    for (u, v, w) in edges:
        inc[idx[v]].append((idx[u], w))
    d = [[None] * n for _ in range(n + 1)]
    d[0][0] = 0  # root = comp[0]
    for k in range(1, n + 1):
        for v in range(n):
            best = None
            for (u, w) in inc[v]:
                if d[k - 1][u] is not None:
                    cand = d[k - 1][u] + w
                    if best is None or cand < best:
                        best = cand
            d[k][v] = best
    mu = None  # (sum, length) of the least mean so far
    for v in range(n):
        if d[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if d[k][v] is None:
                continue
            cand = (d[n][v] - d[k][v], n - k)
            if worst is None or cand[0] * worst[1] > worst[0] * cand[1]:
                worst = cand
        if worst is not None and (mu is None or worst[0] * mu[1] < mu[0] * worst[1]):
            mu = worst
    return None if mu is None else Fraction(*mu)


def _cycle_metric(k, edges, measure: PayoffKind, maximize: bool):
    """Best (or worst) cycle payoff among the edges (a, b, w) of one strongly
    connected component on the states 0..k-1, which has at least one edge.

    For a LIMINF maximum it is the largest weight whose "weight >= it"
    subgraph keeps a cycle.  Whether it does is monotone in the weight, and
    the least weight always does, so a binary search over the distinct
    weights finds it.  A LIMSUP minimum, like a mean-payoff maximum, is the
    opposite of the other optimum on the negated weights.
    """
    if measure is PayoffKind.MP_INF:
        if maximize:
            return -_karp_min_mean(range(k), [(a, b, -w) for a, b, w in edges])
        return _karp_min_mean(range(k), edges)
    if measure is PayoffKind.LIMSUP and not maximize:
        return -_cycle_metric(k, [(a, b, -w) for a, b, w in edges], PayoffKind.LIMINF, True)
    ws = sorted({w for _, _, w in edges})
    if measure is PayoffKind.LIMSUP or not maximize:
        # every edge of a component lies on a cycle
        return ws[-1] if maximize else ws[0]
    lo, hi = 0, len(ws) - 1  # the answer's index lies in lo..hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _cyclic(k, [(a, b) for a, b, w in edges if w >= ws[mid]]):
            lo = mid
        else:
            hi = mid - 1
    return ws[lo]


def _one_player(succ, weight, inside, measure: PayoffKind, maximize: bool) -> list:
    """Optimal payoff from every state of a one-player graph on scaled
    integer weights: the best (or worst) cycle metric it can reach.

    `succ[i]` lists state i's successors and `weight[i][k]` the scaled
    weight of its k-th move; only the states that the membership array
    `inside` marks, and the moves between them, take part.  Components come
    from `_dense_sccs` and are combined over the condensation, sinks first.
    Returns one entry per state: a scaled value (an int, or for mean payoff
    a Fraction of the scaled weights), or None for a state outside or one
    that reaches no cycle.
    """
    measure = _effective(measure)
    n = len(succ)
    comp_of = [-1] * n
    local = [0] * n  # a state's position in its component
    best = []
    for ci, comp in enumerate(_dense_sccs(succ, [i for i in range(n) if inside[i]], inside)):
        for a, u in enumerate(comp):
            comp_of[u] = ci
            local[u] = a
        internal = []
        value = None  # the best value of a later component
        for u in comp:
            for v, w in zip(succ[u], weight[u]):
                if not inside[v]:
                    continue
                cj = comp_of[v]
                if cj == ci:
                    internal.append((local[u], local[v], w))
                    continue
                x = best[cj]
                if x is not None and (value is None or (x > value if maximize else x < value)):
                    value = x
        if internal:
            x = _cycle_metric(len(comp), internal, measure, maximize)
            if value is None or (x > value if maximize else x < value):
                value = x
        best.append(value)
    return [None if c < 0 else best[c] for c in comp_of]


def _unscaled(values, denom) -> list:
    """Scaled one-player values as Fractions, None kept; one Fraction is
    made per distinct value."""
    made = {None: None}
    out = []
    for x in values:
        f = made.get(x, made)
        if f is made:
            f = made[x] = Fraction(x, denom)
        out.append(f)
    return out


def one_player_values(nodes, succ, wfun, measure: PayoffKind, maximize: bool) -> dict:
    """Optimal payoff from every node when a single controller picks all moves.

    For prefix-independent cycle measures this is the best (worst) reachable
    cycle metric; nodes that reach no cycle get None.  The nodes, and any
    successor outside them, are numbered and the weights scaled to integers
    for `_one_player`.
    """
    nodes = list(dict.fromkeys(sorted(nodes, key=_key)))
    order, table = _numbered(nodes, succ)
    raw = [[wfun(v, order[j]) for j in row] for v, row in zip(order, table)]
    denom = lcm(*(w.denominator for row in raw for w in row))
    weight = [[w.numerator * (denom // w.denominator) for w in row] for row in raw]
    values = _one_player(table, weight, bytearray(b"\x01") * len(order), measure, maximize)
    return dict(zip(nodes, _unscaled(values[: len(nodes)], denom)))


def one_player_max_value(g: Game, player: int) -> dict:
    """Cooperative optimum per vertex: all players maximize player's payoff."""
    dt = _DenseThreshold(_DenseGraph(g), player)
    values = _one_player(dt.succ, dt.weight, bytearray(b"\x01") * len(dt.verts), g.measure, True)
    return dict(zip(dt.verts, _unscaled(values, dt.denom)))


def fixed_strategy_extremes(prod, dt: _DenseThreshold) -> dict:
    """Adversary-minimized and -maximized payoff, by product state.

    Under a fixed strategy the product is a one-player arena of the
    coalition, so both extremes are plain cycle optimizations, run on the
    product's `table` and keyed by the states of `prod.states`.  `dt` is
    the strategy player's threshold game on `prod.arena`, whose rows give
    each product edge its scaled weight.
    """
    idx, states, rows = dt.idx, prod.states, dt.weight_to
    weight = [
        [rows[idx[s[0]]][idx[states[j][0]]] for j in outs] for s, outs in zip(states, prod.table)
    ]
    inside = bytearray(b"\x01") * len(states)
    measure = prod.arena.measure
    lo = _unscaled(_one_player(prod.table, weight, inside, measure, False), dt.denom)
    hi = _unscaled(_one_player(prod.table, weight, inside, measure, True), dt.denom)
    return dict(zip(states, zip(lo, hi)))


# ---------------------------------------------------------------------------
# mean-payoff values: energy progress measures, threshold search, certificate


_LOSS_CHECK = 4  # lifting steps per region state before the first loss check


def _energy(dt: _DenseThreshold, p: int, q: int, region, won, dual: bool = False):
    """Least energy progress measure for "mean payoff >= p/q" on `region`.

    Brim, Chaloupka, Doyen, Gentilini and Raskin, "Faster algorithms for
    mean-payoff games" (FMSD 2011): edge (i, j) carries the drop q*w - p,
    and f[i] is the least initial credit with which the player keeps the
    energy non-negative, or `inf` when no finite credit does.  With `dual`
    the coalition solves "mean payoff <= p/q": drops p - q*w, owners
    swapped.  A successor j outside `region` is a sink, won with f = 0 when
    `won(j)` and lost (f = inf) otherwise.  A credit above Brim et al.'s
    bound `cap`, the sum of the largest drops, is lost too, and `inf` is
    absorbing.

    The lifting runs dense, on arrays indexed by state and one row of
    (successor, drop) pairs per region state.  Lost states would climb to
    `cap` in small steps, so after `_LOSS_CHECK` lifting steps per region
    state (then twice as many, and so on) `_energy_losses` sets f = inf at
    once where the opponent provably wins; as those states' least measure
    is `inf`, lifting from below still reaches the same least measure.

    Returns (f, moves): f indexed by state, set on the region and its sinks;
    `moves[i]` is the least successor attaining f[i] at each winning region
    state the solving side owns, in increasing order of i.  The least
    measure is unique, so the worklist order affects neither f nor the moves.
    """
    n = len(dt.verts)
    sign = -1 if dual else 1
    owner, succ, weight, pred = dt.owner, dt.succ, dt.weight, dt.pred
    region = sorted(region)
    inside = bytearray(n)
    for i in region:
        inside[i] = 1
    mine = [o != dual for o in owner]
    f = [0] * n
    adj = [None] * n
    cap = 0
    for i in region:
        row = adj[i] = [(j, sign * (q * w - p)) for j, w in zip(succ[i], weight[i])]
        cap += max(0, -min(d for _, d in row))
        for j, _ in row:
            if not inside[j]:
                f[j] = 0 if won(j) else inf

    queue = deque(region)
    queued = bytearray(inside)
    lifts, budget = 0, _LOSS_CHECK * len(region)
    while queue:
        i = queue.popleft()
        queued[i] = 0
        # needs below 0 count as 0 and above cap as inf; both clippings
        # commute with min and max, and f[i] >= 0 already
        needs = [f[j] - d for j, d in adj[i]]
        t = min(needs) if mine[i] else max(needs)
        if t > cap:
            t = inf
        if t <= f[i]:
            continue
        f[i] = t
        lifted = [i]
        lifts += 1
        if lifts >= budget:
            budget *= 2
            lost = _energy_losses(region, inside, f, adj, mine)
            for k in lost:
                f[k] = inf
            lifted += lost
        for u in lifted:
            for k in pred[u]:
                if inside[k] and not queued[k] and f[k] < inf:
                    queued[k] = 1
                    queue.append(k)
    moves = {}
    for i in region:
        if mine[i] and f[i] < inf:
            moves[i] = min(j for j, d in adj[i] if max(0, f[j] - d) == f[i])
    return f, moves


def _energy_losses(region, inside, f, adj, mine) -> list:
    """The region states with f < inf that the opponent wins by the moves
    the measure `f` favours: at each of its states the successor of largest
    need f[j] - d, the least on ties.

    With those moves fixed, the solving side faces a one-player graph on
    the drops of `adj`, in which lost states (f = inf, inside or out) loop
    at -1 and won sinks at 0.  A state whose best reachable cycle mean there
    is negative loses against the fixed moves, so against every strategy:
    its least measure is `inf`.
    """
    n = len(f)
    rows = [()] * n
    ws = [()] * n
    member = bytearray(n)
    for i in region:
        member[i] = 1
        if f[i] == inf:
            rows[i], ws[i] = (i,), (-1,)
            continue
        if mine[i]:
            rows[i], ws[i] = [j for j, _ in adj[i]], [d for _, d in adj[i]]
        else:
            _, least, d = max((f[j] - d, -j, d) for j, d in adj[i])
            rows[i], ws[i] = (-least,), (d,)
        for j in rows[i]:
            if not inside[j] and not member[j]:
                member[j] = 1
                rows[j], ws[j] = (j,), (-1 if f[j] == inf else 0,)
    best = _one_player(rows, ws, member, PayoffKind.MP_INF, True)
    return [i for i in region if f[i] < inf and best[i] < 0]


def _farey(n: int) -> list:
    """Reduced fractions a/b in [0, 1] with b <= n, in increasing order."""
    a, b, c, d = 0, 1, 1, n
    out = [(a, b)]
    while c <= n:
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        out.append((a, b))
    return out


@lru_cache(maxsize=16)
def _farey_index(n: int) -> tuple:
    """`_farey(n)` as a tuple and the position of each fraction in it,
    built once per n; callers must not change the dict."""
    farey = tuple(_farey(n))
    return farey, {ab: r for r, ab in enumerate(farey)}


def _simplest(x: Fraction, y: Fraction) -> Fraction:
    """The rational with the least denominator in [x, y]."""
    fl = x.numerator // x.denominator
    if fl == x or fl + 1 <= y:
        return Fraction(fl if fl == x else fl + 1)
    return fl + 1 / _simplest(1 / (y - fl), 1 / (x - fl))


def _mp_outcomes(dt: _DenseThreshold, states, moves, val, maximize: bool):
    """Scaled payoff of each of `states` with the positional `moves` fixed
    against an optimal other side, as in `_certify`, or None when a move
    leaves `states` for a state with no value yet.  A state outside is a
    sink that loops at its value, so each payoff is a cycle mean on the
    scaled weights of length at most n: a candidate of `_mp_search`."""
    n = len(dt.verts)
    succ, weight, weight_to = dt.succ, dt.weight, dt.weight_to
    rows, ws, member = [()] * n, [()] * n, bytearray(n)
    for i in states:
        member[i] = 1
        j = moves.get(i)
        rows[i], ws[i] = (succ[i], weight[i]) if j is None else ((j,), (weight_to[i][j],))
    for i in states:
        for j in rows[i]:
            if not member[j]:
                if val[j] is None:
                    return None
                member[j] = 1
                rows[j], ws[j] = (j,), (val[j],)
    got = _one_player(rows, ws, member, PayoffKind.MP_INF, maximize)
    return [got[i] for i in states]


def _mp_search(dt: _DenseThreshold) -> list:
    """Value of every vertex on the scaled weights, by divide and conquer.

    The candidates are the rationals with denominator at most n between the
    least and the largest weight, in increasing order.  A vertex range of
    candidates is split at a candidate lam: the energy game "mean payoff >=
    lam" and its dual "<= lam", both solved on the range's vertices only,
    sort them into values below, equal to and above lam.  Every other
    vertex's range lies wholly above or below, and it is a won or a lost
    sink.  lam is the range's guess when it has one in range, else the
    candidate with the least denominator in the middle half of the range,
    whose small denominator keeps the lifting small.  The guesses come from
    the moves the energy games just found (strategy evaluation, as in
    Bjorklund and Vorobyov, DAM 2007), by `_mp_outcomes`: on the vertices
    above lam the player's moves against a minimizing coalition give the
    upper range's guess, the least payoff above lam, and on those below
    the coalition's moves against a maximizing player the lower range's,
    the greatest payoff below it.  The first range guesses the median
    payoff of each player vertex's first heaviest move.  A guess that
    values no vertex leaves its children to the midpoint rule, so the
    search is at most twice as deep as with that rule alone.  The upper
    range is searched first, so a range's sinks above it always have their
    values.  Guesses only choose thresholds, never values.  Correct energy
    games never leave a range empty; a vertex of an empty range keeps the
    value None, which `_mp_certify` rejects.
    """
    n = len(dt.verts)
    lo = dt.ints[0]
    farey, pos = _farey_index(n)
    width = len(farey) - 1

    def cand(k):
        base, r = divmod(k, width)
        a, b = farey[r]
        return Fraction((lo + base) * b + a, b)

    low = [0] * n  # least candidate index still possible at each vertex
    val = [None] * n
    first = {i: dt.succ[i][dt.weight[i].index(dt.hi[i])] for i in range(n) if dt.owner[i]}
    got = sorted(_mp_outcomes(dt, range(n), first, val, False) or ())
    tasks = [(range(n), 0, (dt.ints[-1] - lo) * width, got[len(got) // 2] if got else None)]
    while tasks:
        region, a, b, guess = tasks.pop()
        if a > b:
            continue
        guided = guess is not None and cand(a) <= guess <= cand(b)
        lam = guess if guided else _simplest(cand(a + (b - a) // 4), cand(b - (b - a) // 4))
        p, q = lam.numerator, lam.denominator
        k = (p // q - lo) * width + pos[(p % q, q)]
        above, sigma = _energy(dt, p, q, region, lambda j: low[j] > b)
        below, tau = _energy(dt, p, q, region, lambda j: low[j] < a, dual=True)
        up = [i for i in region if below[i] == inf]
        down = [i for i in region if above[i] == inf]
        equal = [i for i in region if above[i] < inf and below[i] < inf]
        for i in equal:
            val[i] = lam
            low[i] = k
        for i in up:
            low[i] = k + 1
        # a guess that valued nothing leaves the children to the midpoint
        ahead = equal or not guided
        if down:
            got = ahead and _mp_outcomes(dt, down, tau, val, True)
            tasks.append((down, a, k - 1, max((x for x in got or () if x < lam), default=None)))
        if up:
            got = ahead and _mp_outcomes(dt, up, sigma, val, False)
            tasks.append((up, k + 1, b, min((x for x in got or () if x > lam), default=None)))
    return val


def _mp_certify(dt: _DenseThreshold, val: list) -> dict:
    """Accept a value table only if positional strategies prove it exactly.

    Per value class lam, sigma takes the player's moves of the energy game
    "mean payoff >= lam" and tau the coalition's moves of the dual game
    "<= lam"; higher and lower classes are the sinks.  sigma evaluated
    against a minimizing coalition bounds every value from below, tau
    against a maximizing player from above, both exactly by Karp's cycle
    means.  A vertex that loses its own class game gets no move and is left
    to the opponent, which only weakens that bound.  Raises RuntimeError
    unless every vertex has a value and both bounds equal `val` everywhere;
    returns sigma, a worst-case optimal strategy by vertex index.
    """
    if None in val:
        raise RuntimeError(
            f"mp-inf certificate failed at vertex {dt.verts[val.index(None)]!r}: "
            "the search gives it no value"
        )
    classes: dict = {}
    for i, lam in enumerate(val):
        classes.setdefault(lam, []).append(i)
    sigma, tau = {}, {}
    for lam, region in classes.items():
        p, q = lam.numerator, lam.denominator
        sigma.update(_energy(dt, p, q, region, lambda j: val[j] > lam)[1])
        tau.update(_energy(dt, p, q, region, lambda j: val[j] < lam, dual=True)[1])

    _certify(dt, sigma, PayoffKind.MP_INF, False, val)
    _certify(dt, tau, PayoffKind.MP_INF, True, val)
    return sigma


def _certify(dt: _DenseThreshold, strat: dict, measure: PayoffKind, maximize: bool, val: list):
    """Raise RuntimeError unless `strat`, one side's positional moves by
    state, gives exactly the scaled value `val[i]` at every state i against
    an optimal other side: the coalition minimizing for sigma, the max
    player maximizing (`maximize`) for tau.  With the moves fixed the game
    is a one-player graph, solved exactly by `_one_player`."""
    succ, weight, weight_to = dt.succ[:], dt.weight[:], dt.weight_to
    for i, j in strat.items():
        succ[i], weight[i] = (j,), (weight_to[i][j],)
    got = _one_player(succ, weight, bytearray(b"\x01") * len(val), measure, maximize)
    for i, x in enumerate(val):
        if got[i] != x:
            raise RuntimeError(
                f"{measure.value} certificate failed at vertex {dt.verts[i]!r}: "
                f"{'tau' if maximize else 'sigma'} gives {got[i]}, the table gives {x} "
                "(scaled weights)"
            )


# ---------------------------------------------------------------------------
# parity games


class _DenseParity:
    """A parity game as lists indexed by its states, with predecessor
    lists, for the solver and its check."""

    def __init__(self, pg: ParityGame):
        states = range(len(pg.owner))
        self.owner = [pg.owner[v] for v in states]
        self.prio = [pg.priority[v] for v in states]
        self.succ = [pg.succ[v] for v in states]
        self.pred = _predecessors(self.succ)


def _zielonka(dp: _DenseParity):
    """Zielonka's algorithm with an explicit stack over the dense game.

    Returns (winner of each state, move of each state); a move is kept only
    where the state's owner wins it.  Every subgame is solved in place: the
    vertices an attractor removes are cleared from `inside` for the nested
    solve and put back after it, and a solve writes `win` and `strat` only
    for its own vertices, the last write standing.
    """
    n = len(dp.owner)
    owner, prio, succ = dp.owner, dp.prio, dp.succ
    inside = bytearray(b"\x01") * n
    win = bytearray(n)
    strat = [-1] * n
    # frames: (0, within) to solve; (1, within, rest, removed, top, p) after
    # the first nested solve; (2, removed) after the second one
    stack = [(0, list(range(n)))]
    while stack:
        frame = stack.pop()
        if frame[0] == 0:
            within = frame[1]
            if not within:
                continue
            d = max(map(prio.__getitem__, within))
            p = d % 2
            top = [v for v in within if prio[v] == d]
            a = _dense_attr(dp, p, top, inside, strat)
            for v in a:
                inside[v] = 0
            rest = [v for v in within if inside[v]]
            stack.append((1, within, rest, a, top, p))
            stack.append((0, rest))
        elif frame[0] == 1:
            _, within, rest, a, top, p = frame
            for v in a:
                inside[v] = 1
            lost = [v for v in rest if win[v] != p]
            if not lost:
                for v in within:
                    win[v] = p
                for v in top:
                    if owner[v] == p:
                        strat[v] = min(w for w in succ[v] if inside[w])
                continue
            b = _dense_attr(dp, 1 - p, lost, inside, strat)
            for v in b:
                inside[v] = 0
                win[v] = 1 - p
            stack.append((2, b))
            stack.append((0, [v for v in within if inside[v]]))
        else:
            for v in frame[1]:
                inside[v] = 1
    return win, [s if owner[v] == win[v] else -1 for v, s in enumerate(strat)]


def _check_parity(dp: _DenseParity, regions, strategies):
    """Raise RuntimeError unless the regions and strategies solve the game.

    `regions[i]` lists player i's winning states and `strategies[i]` maps
    them to moves, all as dense indices.  The regions must partition the
    game; each winner's strategy must move along an edge and stay in its
    region at every state of the region the winner owns; no loser state may
    have an edge out of the region; and in the graph the strategy leaves
    inside the region, every cycle's top priority must have the winner's
    parity.  The last is `_peel` with the single condition "the loser's
    parity on top": a component with a cycle fails if its top priority is
    the loser's, and otherwise is split again without its top-priority
    states; a failure names the least state of the top priority.
    """
    n = len(dp.owner)
    owner, prio, succ = dp.owner, dp.prio, dp.succ
    region_of = [-1] * n
    for i in (0, 1):
        for v in regions[i]:
            if region_of[v] != -1:
                raise RuntimeError(
                    f"parity solution check failed: state {v} is in both regions"
                )
            region_of[v] = i
    if -1 in region_of:
        v = region_of.index(-1)
        raise RuntimeError(f"parity solution check failed: state {v} is in no region")

    graph = [None] * n
    for i in (0, 1):
        moves = strategies[i]
        for v in regions[i]:
            if owner[v] == i:
                w = moves.get(v)
                if w is None or w not in succ[v] or region_of[w] != i:
                    raise RuntimeError(
                        f"parity solution check failed: player {i}'s move at "
                        f"state {v} does not stay in its region along an edge"
                    )
                graph[v] = (w,)
            else:
                if any(region_of[w] != i for w in succ[v]):
                    raise RuntimeError(
                        f"parity solution check failed: player {1 - i} can leave "
                        f"player {i}'s region at state {v}"
                    )
                graph[v] = succ[v]
        for v in moves:
            if region_of[v] != i or owner[v] != i:
                raise RuntimeError(
                    f"parity solution check failed: player {i} has a move at "
                    f"state {v}, which it does not own in its region"
                )

    for i in (1, 0):
        # a cycle of the loser's top priority is an accepting one, once the
        # priorities are shifted by one for player 0's region
        bad = _peel(graph, [prio if i else [p + 1 for p in prio]], sorted(regions[i]))
        if bad is not None:
            d = max(prio[u] for u in bad)
            at = min(u for u in bad if prio[u] == d)
            raise RuntimeError(
                f"parity solution check failed: player {d % 2} can close a cycle "
                f"of top priority {d} through state {at} in player {i}'s region"
            )


def _peel(succ, prios, nodes):
    """The first strongly connected component with a cycle, inside the
    states `nodes` of a successor table, on which every parity condition
    `prios[c]` (a priority per state) has an even maximum; None if there is
    none, that is, iff no run of the subgraph satisfies all the conditions.

    The Emerson-Lei peel (SCP 1987), as Chatterjee, Henzinger and Piterman
    decide generalized parity (FoSSaCS 2007) on one player's graph: a
    component with a cycle whose maximum is odd for some condition loses
    that condition's states of that priority, the first such condition's,
    and what is left is split again.  Work items are taken last in, first
    out, and each item's components in `_dense_sccs` order, so the answer
    is deterministic.  O(d * (n + m)) for d priorities in all.
    """
    member = bytearray(len(succ))
    work = [nodes]
    while work:
        nodes = work.pop()
        for v in nodes:
            member[v] = 1
        comps = _dense_sccs(succ, nodes, member)
        for v in nodes:
            member[v] = 0
        for comp in comps:
            v = comp[0]
            if len(comp) == 1 and v not in succ[v]:
                continue
            for prio in prios:
                d = max(prio[u] for u in comp)
                if d % 2:
                    rest = [u for u in comp if prio[u] != d]
                    if rest:
                        work.append(rest)
                    break
            else:
                return comp
    return None


def solve_parity(pg: ParityGame) -> tuple[Region, Region]:
    """Winning regions and positional strategies of players 0 and 1.

    Zielonka's algorithm (TCS 1998), iterative, on the game's own state
    numbering; every solution is checked before it is returned (see
    `_check_parity`), and a failed check raises RuntimeError.
    """
    dp = _DenseParity(pg)
    win, strat = _zielonka(dp)
    regions = ([], [])
    strategies = ({}, {})
    for v, i in enumerate(win):
        regions[i].append(v)
        if strat[v] >= 0:
            strategies[i][v] = strat[v]
    _check_parity(dp, regions, strategies)
    return tuple(Region(frozenset(regions[i]), strategies[i]) for i in (0, 1))


# ---------------------------------------------------------------------------
# cooperative witness lassos


class _WitnessLassos:
    """Cooperative witness lassos of one player on its `_DenseThreshold`
    `dt`, sharing work across starts.

    States are `dt`'s numbers, which follow `_key` order, values are scaled
    like `dt.weight`, and an allowed set is a membership array.  The sorted
    successor rows inside an allowed set are built once per set, and the
    part of the search that does not depend on the start once per (value,
    allowed set).  LIMINF keeps the cyclic set of the "weight >= value"
    subgraph and the cycle through each entry state.  LIMSUP takes the
    sorted in-component edges of weight `value` (a reach set is closed
    under successors, so its components are those of the allowed subgraph)
    and gives every state the first of them whose source it reaches, by one
    backward breadth-first sweep per edge in order; the way back along each
    edge is kept too.  Mean payoff keeps its Tarjan per start, as which
    component it settles on follows the order in which Tarjan emits the
    start's reach set; but each component's Karp mean and critical cycle
    are found once per allowed set, keyed by the component's least state.
    Every lasso's payoff under `measure` is checked against its value on
    the scaled weights.
    """

    def __init__(self, dt: _DenseThreshold, measure: PayoffKind):
        self.dt, self.measure = dt, measure
        self._search = {PayoffKind.LIMINF: self._liminf, PayoffKind.LIMSUP: self._limsup}.get(
            _effective(measure), self._mean_payoff
        )
        self._everything = bytearray(b"\x01") * len(dt.verts)
        self._rows = {}  # allowed array's bytes -> sorted successor rows in it
        # (value, allowed array's bytes) -> start-independent analysis; for
        # mean payoff (allowed array's bytes, component's least state) ->
        # (mean, critical cycle)
        self._shared = {}

    def lasso(self, start: int, value, inside: bytearray | None = None) -> Lasso:
        """Lasso from state `start` with scaled cooperative payoff `value`
        whose steps stay in the states `inside` marks (all if None)."""
        dt, weight = self.dt, self.dt.weight_to
        inside = self._everything if inside is None else inside
        key = bytes(inside)
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = [sorted(w for w in row if inside[w]) for row in dt.succ]
        path, cycle = self._search(start, (value, key), inside, rows)
        got = _payoff_of_weights(
            self.measure,
            [weight[u][v] for u, v in zip(path, path[1:])],
            [weight[u][v] for u, v in zip(cycle, cycle[1:] + cycle[:1])],
        )
        if got != value:
            raise RuntimeError(
                f"witness payoff {Fraction(got, dt.denom)} != {Fraction(value, dt.denom)}"
            )
        return Lasso(tuple(dt.verts[v] for v in path[:-1]), tuple(dt.verts[v] for v in cycle))

    def _liminf(self, start, key, inside, rows):
        if key not in self._shared:
            good = [
                [w for w, c in zip(row, ws) if c >= key[0] and inside[w]]
                for row, ws in zip(self.dt.succ, self.dt.weight)
            ]
            cyclic = bytearray(len(good))
            for comp in _dense_sccs(good, [v for v, x in enumerate(inside) if x], inside):
                if len(comp) > 1 or comp[0] in good[comp[0]]:
                    for v in comp:
                        cyclic[v] = 1
            inner = [sorted(w for w in row if cyclic[w]) for row in good]
            self._shared[key] = (cyclic, inner, {})
        cyclic, inner, cycles = self._shared[key]
        path = _shortest_path(start, cyclic.__getitem__, rows)
        if path is None:
            raise RuntimeError("cooperative value must be realizable")
        if path[-1] not in cycles:
            cycles[path[-1]] = _shortest_cycle(path[-1], inner)
        return path, cycles[path[-1]]

    def _limsup(self, start, key, inside, rows):
        if key not in self._shared:
            succ, weight = self.dt.succ, self.dt.weight
            nodes = [v for v, x in enumerate(inside) if x]
            comp_of = [None] * len(inside)
            for ci, comp in enumerate(_dense_sccs(succ, nodes, inside)):
                for v in comp:
                    comp_of[v] = (ci, len(comp))
            edges = sorted(
                (u, v) for u in nodes for v, c in zip(succ[u], weight[u])
                if comp_of[u] == comp_of[v] and (comp_of[u][1] > 1 or u == v) and c == key[0]
            )
            pred = _predecessors(rows)
            # A state marked by an earlier edge is not passed: whatever
            # reaches it reaches that edge's source too, and is marked by it.
            first = [None] * len(inside)
            for e in edges:
                if first[e[0]] is not None:
                    continue
                first[e[0]] = e
                todo = [e[0]]
                for v in todo:
                    for u in pred[v]:
                        if first[u] is None:
                            first[u] = e
                            todo.append(u)
            self._shared[key] = (first, {})
        first, cycles = self._shared[key]
        target = first[start]
        if target is None:
            raise RuntimeError("cooperative value must be realizable")
        entry, head = target
        if target not in cycles:
            back = [entry] if head == entry else _shortest_path(head, entry.__eq__, rows)
            cycles[target] = [entry] + back[:-1]
        return _shortest_path(start, entry.__eq__, rows), cycles[target]

    def _mean_payoff(self, start, key, inside, rows):
        for comp in _dense_sccs(self.dt.succ, sorted(explore(start, rows.__getitem__)[0]), inside):
            ckey = (key[1], min(comp))
            if ckey not in self._shared:
                self._shared[ckey] = self._component_mean(comp, inside)
            mean, cycle = self._shared[ckey]
            if mean == key[0]:
                return _shortest_path(start, cycle[0].__eq__, rows), cycle
        raise RuntimeError("cooperative value must be realizable")

    def _component_mean(self, comp, inside):
        """Largest cycle mean of one strongly connected component inside an
        allowed set, with a critical cycle, or (None, None) if it has no
        cycle."""
        succ, weight = self.dt.succ, self.dt.weight
        comp = sorted(comp)
        local = {u: a for a, u in enumerate(comp)}
        internal = [
            (local[u], local[v], c) for u in comp for v, c in zip(succ[u], weight[u])
            if v in local and inside[v] and (len(comp) > 1 or u == v)
        ]
        if not internal:
            return None, None
        mean = -_karp_min_mean(range(len(comp)), [(a, b, -c) for a, b, c in internal])
        return mean, [comp[a] for a in _critical_cycle(len(comp), internal, mean)]


def _critical_cycle(k, edges, mu: Fraction):
    """A cycle of mean exactly mu among the edges (a, b, w) of a strongly
    connected component on the states 0..k-1 whose largest cycle mean is mu.

    Bellman-Ford finds the longest distances from state 0 on the integer
    weights q*w - p, mu being p/q.  The first component of tight edges with
    a cycle, searched from the states in increasing order, gives the
    shortest cycle through its least state."""
    p, q = mu.numerator, mu.denominator
    adj = [[] for _ in range(k)]
    for a, b, w in edges:
        adj[a].append((b, q * w - p))
    dist = [None] * k
    dist[0] = 0
    for _ in range(k + 2):
        changed = False
        for a in range(k):
            if dist[a] is None:
                continue
            for b, d in adj[a]:
                if dist[b] is None or dist[a] + d > dist[b]:
                    dist[b] = dist[a] + d
                    changed = True
        if not changed:
            break
    else:
        raise RuntimeError("no positive cycles exist after shifting by the mean")
    tight = [[b for b, d in adj[a] if dist[b] == dist[a] + d] for a in range(k)]
    for comp in _dense_sccs(tight, range(k), bytearray(b"\x01") * k):
        if len(comp) > 1 or comp[0] in tight[comp[0]]:
            member = set(comp)
            rows = [sorted(b for b in row if b in member) for row in tight]
            return _shortest_cycle(min(comp), rows)
    raise RuntimeError("critical cycle must exist")


def cooperative_witness_lasso(g: Game, player: int, start, value: Fraction, allowed=None) -> Lasso:
    """Deterministic lasso from `start` with the given cooperative payoff.

    The whole lasso stays inside `allowed` (default: all vertices).  Prefers
    the shortest canonical prefix and cycle found by breadth-first search.
    Callers that need lassos from many starts share one `_WitnessLassos`.
    """
    dt = _DenseThreshold(_DenseGraph(g), player)
    inside = None if allowed is None else bytearray(v in allowed for v in dt.verts)
    return _WitnessLassos(dt, g.measure).lasso(dt.idx[start], value * dt.denom, inside)
