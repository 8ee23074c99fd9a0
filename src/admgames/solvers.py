"""Zero-sum and one-player value engines over finite arenas.

One coalition game pits a distinguished maximizing player against all other
players merged into a single minimizer.  For INF/SUP/LIMINF/LIMSUP the
per-vertex game value always belongs to the finite set of edge weights, so
values are computed by sweeping threshold games (safety, reachability,
Buchi, coBuchi) over that set, each solved inside the winning region of the
one below it, except for SUP.  Every measure works on one dense integer
copy of the coalition game, `_DenseThreshold`: states numbered in `_key`
order, sharing the arena's successor and predecessor lists and its table of
weight vectors across its players, and each edge's weight scaled to an
integer by the lcm of the player's denominators, so an edge is heavy for a
threshold iff its scaled weight is at least the scaled threshold.  All four threshold games rest on
one attractor, `_dense_attr`, the one Zielonka's algorithm uses too:
reachability and Buchi use it directly, and the safety region and each
stage of the coBuchi fixpoint are complements of the opponent's attractor
to the edges the player must avoid.  Mean-payoff values are rationals with
denominator at most the vertex count on the same scaled weights; they are
found by a divide-and-conquer search over these candidates that solves
energy games (Brim et al.'s progress measure) for "mean payoff >= lam" and
its dual "<= lam".  Every mean-payoff table is certified before it is
returned: positional strategies for both sides, read off the energy games
at each vertex's value, are evaluated exactly and must meet the table at
every vertex.  Worst-case-optimal strategies come from the value solve
itself, never from a second one: the threshold regions' moves for the
extremum measures, the certificate's player strategy for mean payoff.

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
every solution before it returns it.  Model checking, synthesis and
strategy verification hand it the integer graphs that `explore` finds, in
breadth-first order, so its ties break by exploration order; `explore` is
the one breadth-first explorer, numbering states 0..n-1 in discovery
order, that every construction over a reachable state space (rebuilds,
products, automata, strategy modes) goes through.  Only coalition arenas
are renumbered, in `_key` order, for the threshold games.

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
from math import inf, lcm

from .games import Game, Lasso, PayoffKind, _payoff_of_weights

__all__ = [
    "CoalitionGame",
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
class CoalitionGame:
    """An arena viewed as max player `player` against the merged coalition."""

    game: Game
    player: int

    def is_max(self, v) -> bool:
        return self.game.owner[v] == self.player


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


dense_arena = _DenseGraph  # the name `values` builds it by


class _DenseThreshold:
    """A coalition game on the dense graph of its arena, owner 1 being the
    max player.

    It shares the numbering, the successor and predecessor lists and the
    weight table of `arena`, the arena's `dense_arena` (built here if not
    given), and derives only the owner bits and weights of its player.
    `weight[i][k]` is the player's weight of state i's k-th move times
    `denom`, the lcm of the player's weight denominators, an int, and
    `lo[i]` and `hi[i]` are the least and greatest of them; `ints` are the
    distinct scaled weights in increasing order and `levels` the weights
    they stand for.  A move is heavy for the scaled threshold x iff its
    scaled weight is at least x, light otherwise.
    """

    def __init__(self, cg: CoalitionGame, arena: _DenseGraph | None = None):
        if arena is None:
            arena = dense_arena(cg.game)
        self.verts, self.idx, self.succ, self.pred = arena.verts, arena.idx, arena.succ, arena.pred
        self.owner = [int(o == cg.player) for o in arena.owner]
        p, table = cg.player - 1, arena.weights
        self.denom = denom = lcm(*{ws[p].denominator for row in table for ws in row})
        self.weight = [
            [ws[p].numerator * (denom // ws[p].denominator) for ws in row] for row in table
        ]
        self.lo = [min(row) if row else inf for row in self.weight]
        self.hi = [max(row) if row else -inf for row in self.weight]
        self.ints = sorted(set().union(*self.weight))
        self.levels = [Fraction(x, denom) for x in self.ints]

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


def _dead(dg, within, inside):
    """The states of `within` with no move inside the subgame."""
    succ = dg.succ
    return [v for v in within if not any(map(inside.__getitem__, succ[v]))]


def _avoid(dg, player, moves, within, inside, dead):
    """Membership array of the largest set inside the subgame where `player`
    can stay forever without crossing an edge of `moves`: the complement of
    the opponent's attractor to those edges and to `dead`, the subgame's
    states with no move inside it.  `moves` is a pair (target-edge lister,
    filter of the states that have such an edge), as
    `_DenseThreshold.heavy` gives.  The attractor seeds from `dead` and
    from the states of `within` the filter keeps, so `within` need only
    hold the states that may be attracted."""
    edges, can = moves
    scan = can(within)
    if dead:
        scan = sorted(set(scan).union(dead))
    keep = bytearray(inside)
    for v in _dense_attr(dg, 1 - player, dead, inside, {}, scan, edges):
        keep[v] = 0
    return keep


def _buchi(dg, player, moves, within, inside):
    """Winning set and positional strategy of `player` for crossing edges of
    `moves`, a pair as `_avoid` takes, infinitely often."""
    edges, can = moves
    while within:
        strat = {}
        att = _dense_attr(dg, player, (), inside, strat, can(within), edges)
        if len(att) == len(within):
            return within, inside, strat
        reached = bytearray(len(inside))
        for v in att:
            reached[v] = 1
        rest = [v for v in within if not reached[v]]
        inside = bytearray(inside)
        for v in _dense_attr(dg, 1 - player, rest, inside, {}):
            inside[v] = 0
        within = [v for v in within if inside[v]]
    return [], inside, {}


def _cobuchi(dt: _DenseThreshold, x, within, inside):
    """Winning set and strategy of the max player for eventually crossing
    only heavy moves, those of scaled weight at least x.

    Two-level fixpoint: the inner stage computes the largest set the player
    can hold using heavy moves or one-step drops into the already-won set,
    as the complement of the opponent's attractor to every other move;
    drops strictly decrease the inclusion level, so only finitely many
    light moves occur along any play following the recorded moves.  The
    won set only grows from stage to stage, so each stage's opponent
    attractor lies inside the previous one's and is sought only there.
    """
    owner, succ, weight = dt.owner, dt.succ, dt.weight
    light_edges, has_light = dt.light(x)
    dead = _dead(dt, within, inside)
    inwon = bytearray(len(owner))
    att = within  # the opponent's attractor of the last stage, in order
    strat = {}

    def edges(v):  # light moves that do not drop into the won set
        return [w for w, c in zip(succ[v], weight[v]) if c < x and not inwon[w]]

    while True:
        iny = _avoid(dt, 1, (edges, has_light), att, inside, dead)
        new = [v for v in att if iny[v]]
        if not new:
            break
        for v in new:
            if owner[v]:
                good = [w for w, c in zip(succ[v], weight[v]) if c >= x and iny[w]]
                strat[v] = min(good) if good else min(w for w in succ[v] if inwon[w])
        att = [v for v in att if not iny[v]]
        inwon = iny
    won = [v for v in within if inwon[v]]

    lost = _buchi(dt, 0, (light_edges, has_light), within, inside)[1]
    if won != [v for v in within if not lost[v]]:
        raise RuntimeError("coBuchi region must complement the Buchi dual")
    return won, inwon, strat


def _threshold(dt: _DenseThreshold, measure: PayoffKind, x, within, inside):
    """The max player's winning set and moves in "payoff >= x / denom".

    SUP is reachability of a heavy move, INF safety against light moves,
    LIMSUP a Buchi condition on heavy moves, LIMINF the dual coBuchi
    condition.
    """
    owner, succ, weight = dt.owner, dt.succ, dt.weight
    if measure is PayoffKind.SUP:
        strat = {}
        win = bytearray(len(owner))
        edges, can = dt.heavy(x)
        for v in _dense_attr(dt, 1, (), inside, strat, can(within), edges):
            win[v] = 1
        return [v for v in within if win[v]], win, strat
    if measure is PayoffKind.INF:
        keep = _avoid(dt, 1, dt.light(x), within, inside, _dead(dt, within, inside))
        safe = [v for v in within if keep[v]]
        strat = {
            v: min(w for w, c in zip(succ[v], weight[v]) if c >= x and keep[w])
            for v in safe
            if owner[v]
        }
        return safe, keep, strat
    if measure is PayoffKind.LIMSUP:
        return _buchi(dt, 1, dt.heavy(x), within, inside)
    return _cobuchi(dt, x, within, inside)


# ---------------------------------------------------------------------------
# zero-sum values


def zero_sum_value(
    cg: CoalitionGame,
    measure: PayoffKind,
    dt: _DenseThreshold | None = None,
) -> tuple[dict, dict]:
    """Per-vertex value of the max player against the merged coalition, and
    one memoryless strategy of that player achieving every value at once: the
    certificate's sigma for mean payoff, otherwise each vertex's move in the
    highest threshold region it lies in, which is its own value.

    Both run on one `_DenseThreshold`.  The extremum values come from one
    sweep over the player's distinct scaled weights: each game is solved
    inside the region of the one below it (except for SUP), and the sweep
    stops at the first empty region.  A caller that already holds the
    player's `_DenseThreshold` passes it as `dt`, so it is not built again."""
    if dt is None:
        dt = _DenseThreshold(cg)
    if measure.is_mean_payoff:
        val = _mp_search(dt)
        moves = _mp_certify(dt, val)
        values = {v: x / dt.denom for v, x in zip(dt.verts, val)}
    else:
        n = len(dt.verts)
        within, inside = list(range(n)), bytearray(b"\x01") * n
        level = [-1] * n
        moves = {}
        for t, x in enumerate(dt.ints):
            win, inwin, region_moves = _threshold(dt, measure, x, within, inside)
            if not win:
                break  # regions shrink as the threshold grows
            for v in win:
                level[v] = t
            moves.update(region_moves)
            # The region is a coalition trap holding every play that wins a
            # higher threshold, so the next game is solved inside it.  Not for
            # SUP: a play that wins takes a heavy edge, which may leave it.
            if measure is not PayoffKind.SUP:
                within, inside = win, inwin
        if -1 in level:
            raise RuntimeError("every play reaches the minimum weight")
        values = {v: dt.levels[t] for v, t in zip(dt.verts, level)}
    verts = dt.verts
    strat = {verts[v]: verts[w] for v, w in moves.items()}
    if set(strat) != set(filter(cg.is_max, cg.game.owner)):
        raise RuntimeError("a move at every max vertex")
    return values, strat


def worst_case_strategy(g: Game, player: int) -> dict:
    """One memoryless strategy achieving aval(v) from every vertex at once."""
    # Kept by name for `perfbench/spans.py`, which looks it up with getattr
    # in traced runs; the package itself takes the moves from zero_sum_value.
    return zero_sum_value(CoalitionGame(g, player), g.measure)[1]


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


def _scaled_weights(g: Game, player: int):
    """The lcm of the player's weight denominators, and each edge's weight
    times it, an int."""
    ws = g.player_weights(player)
    denom = lcm(*(w.denominator for w in ws.values()))
    return denom, {e: w.numerator * (denom // w.denominator) for e, w in ws.items()}


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
    dt = _DenseThreshold(CoalitionGame(g, player))
    values = _one_player(dt.succ, dt.weight, bytearray(b"\x01") * len(dt.verts), g.measure, True)
    return dict(zip(dt.verts, _unscaled(values, dt.denom)))


def fixed_strategy_extremes(prod, player: int) -> dict:
    """Adversary-minimized and -maximized payoff, by product state.

    Under a fixed strategy the product is a one-player arena of the
    coalition, so both extremes are plain cycle optimizations, run on the
    product's `table` and keyed by the states of `prod.states`.
    """
    arena = prod.arena
    denom, scaled = _scaled_weights(arena, player)
    states = prod.states
    weight = [
        [scaled[(s[0], states[j][0])] for j in outs] for s, outs in zip(states, prod.table)
    ]
    inside = bytearray(b"\x01") * len(states)
    lo = _unscaled(_one_player(prod.table, weight, inside, arena.measure, False), denom)
    hi = _unscaled(_one_player(prod.table, weight, inside, arena.measure, True), denom)
    return dict(zip(states, zip(lo, hi)))


# ---------------------------------------------------------------------------
# mean-payoff values: energy progress measures, threshold search, certificate


def _energy(dt: _DenseThreshold, p: int, q: int, region, won, dual: bool = False):
    """Least energy progress measure for "mean payoff >= p/q" on `region`.

    Brim, Chaloupka, Doyen, Gentilini and Raskin, "Faster algorithms for
    mean-payoff games" (FMSD 2011): edge (i, j) carries q*w - p, and f[i] is
    the least initial credit with which the player keeps the energy
    non-negative, or `inf` when no finite credit does.  With `dual` the
    coalition solves "mean payoff <= p/q": weights p - q*w, owners swapped.
    A successor j outside `region` is a sink, won with f = 0 when `won(j)`
    and lost (f = inf) otherwise.  A credit above Brim et al.'s bound `cap`,
    the sum of the largest drops, is lost too, and `inf` is absorbing.

    Returns (f, moves); `moves[i]` is the least successor attaining f[i] at
    each winning region vertex the solving side owns.  The least measure is
    unique, so the worklist order affects neither f nor the moves.
    """
    sign = -1 if dual else 1
    inside = set(region)
    owner, succ, weight = dt.owner, dt.succ, dt.weight
    mine = {i: owner[i] != dual for i in inside}
    adj = {i: [(j, sign * (q * w - p)) for j, w in zip(succ[i], weight[i])] for i in inside}
    cap = sum(max(0, -min(d for _, d in adj[i])) for i in inside)
    f = dict.fromkeys(inside, 0)
    for i in inside:
        for j, _ in adj[i]:
            if j not in inside:
                f[j] = 0 if won(j) else inf

    queue = deque(sorted(inside))
    queued = set(inside)
    while queue:
        i = queue.popleft()
        queued.discard(i)
        # needs below 0 count as 0 and above cap as inf; both clippings
        # commute with min and max, and f[i] >= 0 already
        needs = [f[j] - d for j, d in adj[i]]
        t = min(needs) if mine[i] else max(needs)
        if t > cap:
            t = inf
        if t > f[i]:
            f[i] = t
            for k in dt.pred[i]:
                if k in inside and k not in queued and f[k] < inf:
                    queued.add(k)
                    queue.append(k)
    moves = {
        i: min(j for j, d in adj[i] if max(0, f[j] - d) == f[i])
        for i in inside if mine[i] and f[i] < inf
    }
    return f, moves


def _farey(n: int) -> list:
    """Reduced fractions a/b in [0, 1] with b <= n, in increasing order."""
    a, b, c, d = 0, 1, 1, n
    out = [(a, b)]
    while c <= n:
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        out.append((a, b))
    return out


def _simplest(x: Fraction, y: Fraction) -> Fraction:
    """The rational with the least denominator in [x, y]."""
    fl = x.numerator // x.denominator
    if fl == x or fl + 1 <= y:
        return Fraction(fl if fl == x else fl + 1)
    return fl + 1 / _simplest(1 / (y - fl), 1 / (x - fl))


def _mp_search(dt: _DenseThreshold) -> list:
    """Value of every vertex on the scaled weights, by divide and conquer.

    The candidates are the rationals with denominator at most n between the
    least and the largest weight, in increasing order.  A vertex range of
    candidates is split at lam, the candidate with the least denominator in
    the middle half of the range: the energy game "mean payoff >= lam" and
    its dual "<= lam", both solved on the range's vertices only, sort them
    into values below, equal to and above lam.  A small denominator keeps
    the scaled weights, and so the lifting, small.  Every other vertex's
    range lies wholly above or below, and it is a won or a lost sink.
    """
    n = len(dt.verts)
    lo = dt.ints[0]
    farey = _farey(n)
    width = len(farey) - 1
    pos = {ab: r for r, ab in enumerate(farey)}

    def cand(k):
        base, r = divmod(k, width)
        a, b = farey[r]
        return Fraction((lo + base) * b + a, b)

    low = [0] * n  # least candidate index still possible at each vertex
    val = [None] * n
    tasks = [(range(n), 0, (dt.ints[-1] - lo) * width)]
    while tasks:
        region, a, b = tasks.pop()
        lam = _simplest(cand(a + (b - a) // 4), cand(b - (b - a) // 4))
        p, q = lam.numerator, lam.denominator
        k = (p // q - lo) * width + pos[(p % q, q)]
        above, _ = _energy(dt, p, q, region, lambda j: low[j] > b)
        below, _ = _energy(dt, p, q, region, lambda j: low[j] < a, dual=True)
        up = [i for i in region if below[i] == inf]
        down = [i for i in region if above[i] == inf]
        for i in region:
            if above[i] < inf and below[i] < inf:
                val[i] = lam
                low[i] = k
        for i in up:
            low[i] = k + 1
        if down:
            tasks.append((down, a, k - 1))
        if up:
            tasks.append((up, k + 1, b))
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
    unless both bounds equal `val` everywhere; returns sigma, a worst-case
    optimal strategy by vertex index.
    """
    classes: dict = {}
    for i, lam in enumerate(val):
        classes.setdefault(lam, []).append(i)
    sigma, tau = {}, {}
    for lam, region in classes.items():
        p, q = lam.numerator, lam.denominator
        sigma.update(_energy(dt, p, q, region, lambda j: val[j] > lam)[1])
        tau.update(_energy(dt, p, q, region, lambda j: val[j] < lam, dual=True)[1])

    succ, weight = dt.succ, dt.weight
    inside = bytearray(b"\x01") * len(val)
    for strat, maximize in ((sigma, False), (tau, True)):
        moves, ws = succ[:], weight[:]
        for i, j in strat.items():
            moves[i], ws[i] = (j,), (weight[i][succ[i].index(j)],)
        got = _one_player(moves, ws, inside, PayoffKind.MP_INF, maximize)
        for i, x in enumerate(val):
            if got[i] != x:
                side = "tau" if maximize else "sigma"
                raise RuntimeError(
                    f"mean-payoff certificate failed at vertex {dt.verts[i]!r}: "
                    f"{side} gives {got[i]}, the search gave {x} (scaled weights)"
                )
    return sigma


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
    parity.  The last is checked by SCC decomposition: a component with a
    cycle fails if its top priority is the loser's, and otherwise is split
    again without its top-priority states, O(d * (n + m)) in all.
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

    # each work item is a set of states marked in `member` while its
    # components are found; a component with a cycle is split again without
    # its top priority
    member = bytearray(n)
    work = [sorted(regions[i]) for i in (0, 1)]
    while work:
        nodes = work.pop()
        for v in nodes:
            member[v] = 1
        comps = _dense_sccs(graph, nodes, member)
        for v in nodes:
            member[v] = 0
        for comp in comps:
            v = comp[0]
            if len(comp) == 1 and v not in graph[v]:
                continue
            d = max(prio[u] for u in comp)
            if d % 2 != region_of[v]:
                at = min(u for u in comp if prio[u] == d)
                raise RuntimeError(
                    f"parity solution check failed: player {d % 2} can close a cycle "
                    f"of top priority {d} through state {at} in player "
                    f"{region_of[v]}'s region"
                )
            rest = [u for u in comp if prio[u] != d]
            if rest:
                work.append(rest)


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
    edge is kept too.  Mean payoff keeps its search per start: which
    component it settles on follows the order in which Tarjan emits the
    start's reach set.  Every lasso's payoff under `measure` is checked
    against its value on the scaled weights.
    """

    def __init__(self, dt: _DenseThreshold, measure: PayoffKind):
        self.dt, self.measure = dt, measure
        self._search = {PayoffKind.LIMINF: self._liminf, PayoffKind.LIMSUP: self._limsup}.get(
            _effective(measure), self._mean_payoff
        )
        self._weight = [dict(zip(row, ws)) for row, ws in zip(dt.succ, dt.weight)]
        self._everything = bytearray(b"\x01") * len(dt.verts)
        self._rows = {}  # allowed array's bytes -> sorted successor rows in it
        self._shared = {}  # (value, allowed array's bytes) -> start-independent analysis

    def lasso(self, start: int, value, inside: bytearray | None = None) -> Lasso:
        """Lasso from state `start` with scaled cooperative payoff `value`
        whose steps stay in the states `inside` marks (all if None)."""
        dt, weight = self.dt, self._weight
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
        succ, weight = self.dt.succ, self.dt.weight
        for comp in _dense_sccs(succ, sorted(explore(start, rows.__getitem__)[0]), inside):
            comp.sort()
            local = {u: a for a, u in enumerate(comp)}
            internal = [
                (local[u], local[v], c) for u in comp for v, c in zip(succ[u], weight[u])
                if v in local and inside[v] and (len(comp) > 1 or u == v)
            ]
            if not internal:
                continue
            mean = -_karp_min_mean(range(len(comp)), [(a, b, -c) for a, b, c in internal])
            if mean == key[0]:
                cycle = [comp[a] for a in _critical_cycle(len(comp), internal, mean)]
                return _shortest_path(start, cycle[0].__eq__, rows), cycle
        raise RuntimeError("cooperative value must be realizable")


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
    dt = _DenseThreshold(CoalitionGame(g, player))
    inside = None if allowed is None else bytearray(v in allowed for v in dt.verts)
    return _WitnessLassos(dt, g.measure).lasso(dt.idx[start], value * dt.denom, inside)
