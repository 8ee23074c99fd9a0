"""Zero-sum and one-player value engines over finite arenas.

One coalition game pits a distinguished maximizing player against all other
players merged into a single minimizer.  For INF/SUP/LIMINF/LIMSUP the
per-vertex game value always belongs to the finite set of edge weights, so
values are computed by sweeping threshold games (safety, reachability,
Buchi, coBuchi) over that set, each solved inside the winning region of the
one below it, except for SUP.  Every measure works on one dense integer
copy of the coalition game, `_DenseThreshold`: states numbered in `_key`
order, sharing the arena's successor and predecessor lists across its
players, and each edge's weight scaled to an integer by the lcm of the
player's denominators, so an edge is heavy for a threshold iff its scaled
weight is at least the scaled threshold.  All four threshold games rest on
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
condensation.  `solve_parity` runs Zielonka's algorithm iteratively, with
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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, inf, lcm

from .games import Game, Lasso, PayoffKind, payoff_of_lasso

__all__ = [
    "CoalitionGame",
    "ParityGame",
    "Region",
    "explore",
    "attractor",
    "solve_threshold",
    "zero_sum_value",
    "one_player_max_value",
    "one_player_values",
    "solve_parity",
    "check_parity_solution",
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

    def weight(self, u, v) -> Fraction:
        return self.game.weight(u, v, self.player)


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


def tarjan_sccs(nodes, succ):
    """Iterative Tarjan; components are emitted in reverse topological order."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def explore(init, succ):
    """The states reachable from `init`, numbered 0..n-1 in breadth-first
    discovery order, and each state's successors in `succ`'s order, as a
    table of tuples of state numbers.

    Returns (states, table).  `succ` is called once per state, in number
    order, and each successor is hashed once, on lookup.
    """
    states = [init]
    index = {init: 0}
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


def bfs_path(start, goal_pred, succ):
    """Canonical shortest path (successors explored in sorted order)."""
    if goal_pred(start):
        return [start]
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(succ(v), key=_key):
                if w in parent:
                    continue
                parent[w] = v
                if goal_pred(w):
                    path = [w]
                    cur = v
                    while cur is not None:
                        path.append(cur)
                        cur = parent[cur]
                    path.reverse()
                    return path
                nxt.append(w)
        frontier = nxt
    return None


def _shortest_cycle_through(u, succ):
    """Canonical shortest cycle through u, as a vertex list starting at u."""
    return bfs_path(u, lambda v: u in succ(v), succ)


# ---------------------------------------------------------------------------
# attractors


class _DenseGraph:
    """Integer view of a two-player game graph for the attractor.

    State i is the i-th state in `_key` order, so integer order is the order
    every tie-break uses, and `owner[i]` is 0 or 1.  Successor lists keep the
    game's order and repeats; predecessor lists come out in increasing order.
    """

    def __init__(self, states, owner, succ):
        self.verts = verts = sorted(states, key=_key)
        self.idx = idx = {v: i for i, v in enumerate(verts)}
        self.owner = [owner(v) for v in verts]
        self.succ = [[idx[w] for w in succ[v]] for v in verts]
        self.pred = _predecessors(self.succ)


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
    seeds come from one pass over the subgame's states `within`, in
    increasing order, along with the targets: a player state with target
    edges inside the subgame takes the lowest one, and an opponent state
    whose moves inside are all target edges is attracted.  Then the
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


def attractor(g: Game, player: int, targets=(), target_edges=()) -> Region:
    """Attractor of `player` to a vertex set and/or an edge set."""
    dg = _DenseGraph(g.owner, lambda v: int(g.owner[v] == player), g.succ)
    idx, succ, verts = dg.idx, dg.succ, dg.verts
    n = len(verts)
    edges = {(idx[u], idx[w]) for u, w in target_edges if u in idx and w in idx}
    strat = {}
    att = _dense_attr(
        dg, 1, sorted({idx[v] for v in targets if v in idx}), bytearray(b"\x01") * n,
        strat, range(n), lambda v: [w for w in succ[v] if (v, w) in edges],
    )
    return Region(
        frozenset(verts[v] for v in att), {verts[v]: verts[w] for v, w in strat.items()}
    )


# ---------------------------------------------------------------------------
# threshold games
#
# Every solver below works on a subgame given twice: `within`, its states in
# increasing order, and `inside`, their membership array; it returns its
# winning set the same two ways.


def dense_arena(g: Game) -> _DenseGraph:
    """The dense graph of an arena with owners kept as player numbers, which
    the coalition games of all its players share."""
    return _DenseGraph(g.owner, g.owner.__getitem__, g.succ)


class _DenseThreshold:
    """A coalition game on the dense graph of its arena, owner 1 being the
    max player.

    It shares the numbering and the successor and predecessor lists of
    `arena`, the arena's `dense_arena` (built here if not given), and
    derives only the owner bits and weights of its player.  `weight[i][k]`
    is the weight of state i's k-th move times `denom`, the lcm of the
    player's weight denominators; `ints` are the distinct scaled weights in
    increasing order and `levels` the weights they stand for.  A move is
    heavy for the scaled threshold x iff its scaled weight is at least x.
    """

    def __init__(self, cg: CoalitionGame, arena: _DenseGraph | None = None):
        g = cg.game
        if arena is None:
            arena = dense_arena(g)
        self.verts, self.idx, self.succ, self.pred = arena.verts, arena.idx, arena.succ, arena.pred
        self.owner = [int(o == cg.player) for o in arena.owner]
        ws = g.player_weights(cg.player)
        self.denom = denom = lcm(*(w.denominator for w in ws.values()))
        scaled = {e: w.numerator * (denom // w.denominator) for e, w in ws.items()}
        self.weight = [[scaled[(v, w)] for w in g.succ[v]] for v in self.verts]
        self.ints = sorted(set(scaled.values()))
        self.levels = [Fraction(x, denom) for x in self.ints]

    def heavy(self, x):
        """The target-edge lister, for `_dense_attr`, of the moves of scaled
        weight >= x."""
        succ, weight = self.succ, self.weight
        return lambda v: [w for w, c in zip(succ[v], weight[v]) if c >= x]

    def light(self, x):
        """The target-edge lister of the moves of scaled weight < x."""
        succ, weight = self.succ, self.weight
        return lambda v: [w for w, c in zip(succ[v], weight[v]) if c < x]


def _avoid(dg, player, edges, within, inside):
    """Largest set inside the subgame where `player` can stay forever without
    crossing an edge that `edges` lists: the complement of the opponent's
    attractor to those edges and to the states with no move inside the
    subgame."""
    succ = dg.succ
    dead = [v for v in within if not any(map(inside.__getitem__, succ[v]))]
    keep = bytearray(inside)
    for v in _dense_attr(dg, 1 - player, dead, inside, {}, within, edges):
        keep[v] = 0
    return [v for v in within if keep[v]], keep


def _buchi(dg, player, edges, within, inside):
    """Winning set and positional strategy of `player` for crossing edges that
    `edges` lists infinitely often."""
    while within:
        strat = {}
        att = _dense_attr(dg, player, (), inside, strat, within, edges)
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
    light moves occur along any play following the recorded moves.
    """
    owner, succ, weight = dt.owner, dt.succ, dt.weight
    won, inwon = [], bytearray(len(owner))
    strat = {}
    while True:
        y, iny = _avoid(
            dt, 1, lambda v: [w for w, c in zip(succ[v], weight[v]) if c < x and not inwon[w]],
            within, inside,
        )
        if y == won:
            break
        for v in y:
            if owner[v] and not inwon[v]:
                good = [w for w, c in zip(succ[v], weight[v]) if c >= x and iny[w]]
                strat[v] = min(good) if good else min(w for w in succ[v] if inwon[w])
        won, inwon = y, iny

    lost = _buchi(dt, 0, dt.light(x), within, inside)[1]
    assert won == [v for v in within if not lost[v]], (
        "coBuchi region must complement the Buchi dual"
    )
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
        for v in _dense_attr(dt, 1, (), inside, strat, within, dt.heavy(x)):
            win[v] = 1
        return [v for v in within if win[v]], win, strat
    if measure is PayoffKind.INF:
        safe, keep = _avoid(dt, 1, dt.light(x), within, inside)
        strat = {
            v: min(w for w, c in zip(succ[v], weight[v]) if c >= x and keep[w])
            for v in safe
            if owner[v]
        }
        return safe, keep, strat
    if measure is PayoffKind.LIMSUP:
        return _buchi(dt, 1, dt.heavy(x), within, inside)
    return _cobuchi(dt, x, within, inside)


def solve_threshold(cg: CoalitionGame, measure: PayoffKind, theta: Fraction) -> Region:
    """Exact winning region of "payoff >= theta" for the maximizing player.

    SUP is reachability of a heavy edge, INF safety against light edges,
    LIMSUP a Buchi condition on heavy edges, LIMINF the dual coBuchi
    condition.  Mean-payoff thresholds are not handled here.
    """
    if measure.is_mean_payoff:
        raise ValueError("mean-payoff thresholds are solved by zero_sum_value")
    return _threshold_region(cg, measure, theta, cg.game.owner)


def _threshold_region(cg: CoalitionGame, measure: PayoffKind, theta, within) -> Region:
    """`solve_threshold` on the subgame induced by `within`.

    Exact only if no coalition edge leaves `within` and every winning play
    of the whole arena stays inside it.
    """
    dt = _DenseThreshold(cg)
    inside = bytearray(len(dt.verts))
    for v in within:
        inside[dt.idx[v]] = 1
    states = [i for i, x in enumerate(inside) if x]
    win, _, strat = _threshold(dt, measure, ceil(theta * dt.denom), states, inside)
    verts = dt.verts
    return Region(
        frozenset(verts[v] for v in win), {verts[v]: verts[w] for v, w in strat.items()}
    )


# ---------------------------------------------------------------------------
# zero-sum values


def zero_sum_value(
    cg: CoalitionGame, measure: PayoffKind, arena: _DenseGraph | None = None
) -> tuple[dict, dict]:
    """Per-vertex value of the max player against the merged coalition, and
    one memoryless strategy of that player achieving every value at once: the
    certificate's sigma for mean payoff, otherwise each vertex's move in the
    highest threshold region it lies in, which is its own value.

    Both run on one `_DenseThreshold`.  The extremum values come from one
    sweep over the player's distinct scaled weights: each game is solved
    inside the region of the one below it (except for SUP), and the sweep
    stops at the first empty region.  Callers that solve every player's
    game on one arena pass its `dense_arena` as `arena`, so it is built
    once."""
    dt = _DenseThreshold(cg, arena)
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
        assert -1 not in level, "every play reaches the minimum weight"
        values = {v: dt.levels[t] for v, t in zip(dt.verts, level)}
    verts = dt.verts
    strat = {verts[v]: verts[w] for v, w in moves.items()}
    assert set(strat) == set(filter(cg.is_max, cg.game.owner)), "a move at every max vertex"
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


def _has_cycle(nodes, edges):
    nodeset = set(nodes)
    adj = {v: [] for v in nodeset}
    for (u, v) in edges:
        if u in nodeset and v in nodeset:
            adj[u].append(v)
    for comp in tarjan_sccs(sorted(nodeset), lambda v: adj[v]):
        if len(comp) > 1 or comp[0] in adj[comp[0]]:
            return True
    return False


def _karp_min_mean(comp, edges):
    """Karp's minimum cycle mean inside one strongly connected component."""
    comp = sorted(comp)
    n = len(comp)
    idx = {v: i for i, v in enumerate(comp)}
    inc = [[] for _ in comp]  # incoming: (src index, weight)
    for (u, v, w) in edges:
        inc[idx[v]].append((idx[u], w))
    d = [[None] * n for _ in range(n + 1)]
    d[0][0] = 0  # root = comp[0]; integer weights stay in int
    for k in range(1, n + 1):
        for v in range(n):
            best = None
            for (u, w) in inc[v]:
                if d[k - 1][u] is not None:
                    cand = d[k - 1][u] + w
                    if best is None or cand < best:
                        best = cand
            d[k][v] = best
    mu = None
    for v in range(n):
        if d[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if d[k][v] is None:
                continue
            cand = Fraction(d[n][v] - d[k][v], n - k)
            if worst is None or cand > worst:
                worst = cand
        if worst is not None and (mu is None or worst < mu):
            mu = worst
    return mu


def _scc_metric(comp, internal_edges, measure: PayoffKind, maximize: bool):
    """Best (or worst) cycle payoff inside one SCC, None if it has no cycle."""
    if not internal_edges:
        return None
    ws = sorted({w for (_, _, w) in internal_edges})
    if measure is PayoffKind.LIMINF:
        if maximize:
            for theta in reversed(ws):
                sub = [(u, v) for (u, v, w) in internal_edges if w >= theta]
                if _has_cycle(comp, sub):
                    return theta
            return None
        return min(ws)  # every internal edge of an SCC lies on a cycle
    if measure is PayoffKind.LIMSUP:
        if maximize:
            return max(ws)
        for theta in ws:
            sub = [(u, v) for (u, v, w) in internal_edges if w <= theta]
            if _has_cycle(comp, sub):
                return theta
        return None
    if maximize:
        neg = [(u, v, -w) for (u, v, w) in internal_edges]
        mu = _karp_min_mean(comp, neg)
        return None if mu is None else -mu
    return _karp_min_mean(comp, internal_edges)


def one_player_values(nodes, succ, wfun, measure: PayoffKind, maximize: bool) -> dict:
    """Optimal payoff from every node when a single controller picks all moves.

    For prefix-independent cycle measures this is the best (worst) reachable
    cycle metric; nodes that reach no cycle get None.
    """
    measure = _effective(measure)
    nodes = sorted(nodes, key=_key)
    comps = tarjan_sccs(nodes, succ)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci

    best = {}
    for ci, comp in enumerate(comps):
        cs = set(comp)
        internal = [
            (u, v, wfun(u, v)) for u in comp for v in succ(u)
            if v in cs and (len(comp) > 1 or u == v)
        ]
        value = _scc_metric(comp, internal, measure, maximize)
        for u in comp:
            for v in succ(u):
                cj = comp_of[v]
                if cj != ci and best[cj] is not None:
                    if value is None:
                        value = best[cj]
                    else:
                        value = max(value, best[cj]) if maximize else min(value, best[cj])
        best[ci] = value
    return {v: best[comp_of[v]] for v in nodes}


def one_player_max_value(g: Game, player: int) -> dict:
    """Cooperative optimum per vertex: all players maximize player's payoff."""
    w = g.player_weights(player)
    return one_player_values(
        g.owner, lambda v: g.succ[v], lambda u, v: w[(u, v)], g.measure, True
    )


def fixed_strategy_extremes(prod, player: int) -> dict:
    """Adversary-minimized and -maximized payoff per product state.

    Under a fixed strategy the product is a one-player arena of the
    coalition, so both extremes are plain cycle optimizations.
    """
    arena = prod.arena

    def wfun(s, t):
        return arena.weight(s[0], t[0], player)

    lo = one_player_values(prod.states, lambda s: prod.succ[s], wfun, arena.measure, False)
    hi = one_player_values(prod.states, lambda s: prod.succ[s], wfun, arena.measure, True)
    return {s: (lo[s], hi[s]) for s in prod.states}


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

    succ = dt.succ
    weight = {(i, j): w for i, js in enumerate(succ) for j, w in zip(js, dt.weight[i])}
    for strat, maximize in ((sigma, False), (tau, True)):
        got = one_player_values(
            range(len(val)),
            lambda i: (strat[i],) if i in strat else succ[i],
            lambda i, j: weight[(i, j)],
            PayoffKind.MP_INF,
            maximize,
        )
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

    # every vertex sits in one group; a component with a cycle is re-split
    # without its top priority under a fresh group number
    group = region_of[:]
    work = [(i, sorted(regions[i])) for i in (0, 1)]
    fresh = 2
    while work:
        g, nodes = work.pop()
        for comp in tarjan_sccs(nodes, lambda v: [w for w in graph[v] if group[w] == g]):
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
            for u in comp:
                group[u] = fresh if prio[u] != d else -1
            if rest:
                work.append((fresh, rest))
            fresh += 1


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


def check_parity_solution(pg: ParityGame, r0: Region, r1: Region) -> None:
    """`solve_parity`'s solution check on given regions and strategies."""
    _check_parity(
        _DenseParity(pg),
        tuple(list(r.vertices) for r in (r0, r1)),
        tuple(r.strategy for r in (r0, r1)),
    )


# ---------------------------------------------------------------------------
# cooperative witness lassos


class _WitnessLassos:
    """Cooperative witness lassos of one player, sharing work across starts.

    The successor lists inside an allowed set are built once per set, and
    the part of the search that does not depend on the start once per
    (value, allowed set).  LIMINF keeps the cyclic set of the "weight >=
    value" subgraph and the cycle through each entry vertex.  LIMSUP keeps
    the sorted in-component edges of weight `value` and the way back along
    each; a reach set is closed under successors, so its components are
    those of the allowed subgraph.  Mean payoff keeps its search per start:
    which component it settles on follows the order in which Tarjan emits
    the start's reach set.
    """

    def __init__(self, g: Game, player: int):
        self.g = g
        self.player = player
        self.w = g.player_weights(player)
        self.measure = _effective(g.measure)
        self._succ = {}  # allowed set (None: all) -> its sorted vertices, successors in it
        self._shared = {}  # (value, allowed set) -> start-independent analysis

    def lasso(self, start, value: Fraction, allowed=None) -> Lasso:
        """Lasso from `start` with cooperative payoff `value` inside `allowed`."""
        g = self.g
        allowed = None if allowed is None else frozenset(allowed)
        if allowed not in self._succ:
            inside = g.owner if allowed is None else allowed
            self._succ[allowed] = sorted(inside), {
                v: tuple(t for t in g.succ[v] if t in inside) for v in g.owner
            }
        nodes, succ = self._succ[allowed]
        key = (value, allowed)
        if self.measure is PayoffKind.LIMINF:
            path, cycle = self._liminf(start, key, nodes, succ)
        elif self.measure is PayoffKind.LIMSUP:
            path, cycle = self._limsup(start, key, nodes, succ)
        else:
            path, cycle = self._mean_payoff(start, value, succ)
        assert cycle and cycle[0] == path[-1]
        lasso = Lasso(prefix=tuple(path[:-1]), cycle=tuple(cycle))
        got = payoff_of_lasso(g.measure, g, self.player, lasso)
        assert got == value, f"witness payoff {got} != {value}"
        return lasso

    def _liminf(self, start, key, nodes, succ):
        shared = self._shared.get(key)
        if shared is None:
            w, value = self.w, key[0]
            good = {v: tuple(t for t in succ[v] if w[(v, t)] >= value) for v in nodes}
            cyclic = set()
            for comp in tarjan_sccs(nodes, good.__getitem__):
                if len(comp) > 1 or comp[0] in good[comp[0]]:
                    cyclic.update(comp)
            inner = {v: tuple(t for t in good[v] if t in cyclic) for v in cyclic}
            shared = self._shared[key] = (cyclic, inner, {})
        cyclic, inner, cycles = shared
        path = bfs_path(start, cyclic.__contains__, succ.__getitem__)
        assert path is not None, "cooperative value must be realizable"
        entry = path[-1]
        if entry not in cycles:
            cycles[entry] = _shortest_cycle_through(entry, inner.__getitem__)
        return path, cycles[entry]

    def _limsup(self, start, key, nodes, succ):
        shared = self._shared.get(key)
        if shared is None:
            w, value = self.w, key[0]
            comp_of = {}
            for ci, comp in enumerate(tarjan_sccs(nodes, succ.__getitem__)):
                for v in comp:
                    comp_of[v] = (ci, len(comp))
            edges = sorted(
                (u, v) for u in nodes for v in succ[u]
                if comp_of[u] == comp_of[v] and (comp_of[u][1] > 1 or u == v)
                and w[(u, v)] == value
            )
            shared = self._shared[key] = (edges, {})
        edges, cycles = shared
        reach = set(explore(start, succ.__getitem__)[0])
        target = next((e for e in edges if e[0] in reach), None)
        assert target is not None, "cooperative value must be realizable"
        entry = target[0]
        path = bfs_path(start, lambda v: v == entry, succ.__getitem__)
        if target not in cycles:
            if target[0] == target[1]:
                cycles[target] = [entry]
            else:
                back = bfs_path(target[1], lambda v: v == entry, succ.__getitem__)
                cycles[target] = [entry] + back[:-1]
        return path, cycles[target]

    def _mean_payoff(self, start, value, succ):
        w, sub_succ = self.w, succ.__getitem__
        for comp in tarjan_sccs(sorted(explore(start, sub_succ)[0]), sub_succ):
            cs = set(comp)
            internal = [
                (u, v, w[(u, v)]) for u in comp for v in succ[u]
                if v in cs and (len(comp) > 1 or u == v)
            ]
            if _scc_metric(comp, internal, PayoffKind.MP_INF, True) == value:
                cycle = _critical_cycle(comp, internal, value)
                return bfs_path(start, lambda v: v == cycle[0], sub_succ), cycle
        raise AssertionError("cooperative value must be realizable")


def cooperative_witness_lasso(
    g: Game, player: int, start, value: Fraction, allowed=None
) -> Lasso:
    """Deterministic lasso from `start` with the given cooperative payoff.

    The whole lasso stays inside `allowed` (default: all vertices).  Prefers
    the shortest canonical prefix and cycle found by breadth-first search.
    Callers that need lassos from many starts share one `_WitnessLassos`.
    """
    return _WitnessLassos(g, player).lasso(start, value, allowed)


def _critical_cycle(comp, internal_edges, mu: Fraction):
    """A cycle of mean exactly mu inside an SCC whose max cycle mean is mu."""
    comp = sorted(comp)
    root = comp[0]
    adj = {v: [] for v in comp}
    for (u, v, w) in internal_edges:
        adj[u].append((v, w - mu))
    dist = {v: None for v in comp}
    dist[root] = Fraction(0)
    changed = True
    for _ in range(len(comp) + 2):
        if not changed:
            break
        changed = False
        for u in comp:
            if dist[u] is None:
                continue
            for (v, dw) in adj[u]:
                cand = dist[u] + dw
                if dist[v] is None or cand > dist[v]:
                    dist[v] = cand
                    changed = True
    assert not changed, "no positive cycles exist after shifting by the mean"
    tight = {v: [] for v in comp}
    for u in comp:
        if dist[u] is None:
            continue
        for (v, dw) in adj[u]:
            if dist[v] == dist[u] + dw:
                tight[u].append(v)
    for c in tarjan_sccs(comp, lambda v: tight[v]):
        cs = set(c)
        if len(c) > 1 or c[0] in tight[c[0]]:
            entry = min(c)
            return _shortest_cycle_through(
                entry, lambda v: tuple(t for t in tight[v] if t in cs)
            )
    raise AssertionError("critical cycle must exist")
