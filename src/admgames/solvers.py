"""Zero-sum and one-player value engines over finite arenas.

One coalition game pits a distinguished maximizing player against all other
players merged into a single minimizer.  For INF/SUP/LIMINF/LIMSUP the
per-vertex game value always belongs to the finite set of edge weights, so
values are computed by sweeping threshold games (safety, reachability,
Buchi, coBuchi) over that set, each solved inside the winning region of
the one below it, except for SUP.  All four rest on one attractor:
reachability and Buchi use it directly, and the safety region and each
stage of the coBuchi fixpoint are complements of the opponent's attractor
to the edges the player must avoid.  Mean-payoff values are rationals with
denominator at most the vertex count on integer-scaled weights; they are
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
condensation.  `solve_parity` is a recursive attractor-based solver; model
checking, synthesis and strategy verification hand it parity games built
by one product explorer in `outcomes`.

INF (SUP) arenas are handled with LIMINF (LIMSUP) cycle semantics; callers
pass prefix-independence rebuilds for those measures, on which the two
coincide because weight sequences are monotone along every play.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm

from .games import Game, Lasso, PayoffKind, payoff_of_lasso

__all__ = [
    "CoalitionGame",
    "ParityGame",
    "Region",
    "attractor",
    "solve_threshold",
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

    def weight(self, u, v) -> Fraction:
        return self.game.weight(u, v, self.player)


@dataclass(frozen=True)
class Region:
    """Winning vertex set plus a memoryless strategy on it for the winner."""

    vertices: frozenset
    strategy: dict


@dataclass(frozen=True)
class ParityGame:
    """Two-player arena with vertex priorities.

    Player 0 wins a play iff the maximum priority seen infinitely often is
    even.
    """

    owner: dict  # vertex -> 0 | 1
    priority: dict  # vertex -> int >= 0
    succ: dict  # vertex -> tuple of successors
    init: object = None


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


def reachable_from(start, succ):
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for w in succ(v):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


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
    if u in succ(u):
        return [u]
    parent = {}
    frontier = []
    for w in sorted(succ(u), key=_key):
        if w not in parent:
            parent[w] = None
            frontier.append(w)
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(succ(v), key=_key):
                if w == u:
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return [u] + path
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# attractors


def _attr(is_mine, succ_map, targets, within, target_edges=frozenset()):
    """Least set `mine` can force into the targets or across a target edge.

    Returns (attractor set, strategy moves recorded for `mine` vertices added
    outside the vertex targets).  Deterministic: vertices seed in sorted
    order and propagate breadth-first.
    """
    within = set(within)
    moves = {v: [w for w in succ_map[v] if w in within] for v in within}
    preds: dict = {v: [] for v in within}
    for v in sorted(within, key=_key):
        for w in moves[v]:
            preds[w].append(v)

    att = set()
    strat = {}
    queue = deque()

    def activate(v, move=None):
        att.add(v)
        if move is not None and is_mine(v):
            strat[v] = move
        queue.append(v)

    target_set = set(targets) & within
    remaining = {}
    for v in sorted(within, key=_key):
        if v in target_set:
            activate(v)
            continue
        sat = [w for w in moves[v] if (v, w) in target_edges]
        if is_mine(v):
            if sat:
                activate(v, min(sat, key=_key))
        else:
            remaining[v] = len(moves[v]) - len(sat)
            if moves[v] and remaining[v] == 0:
                activate(v)

    while queue:
        u = queue.popleft()
        for v in preds[u]:
            if v in att:
                continue
            if (v, u) in target_edges:
                continue  # already counted at seed time
            if is_mine(v):
                activate(v, u)
            else:
                remaining[v] -= 1
                if remaining[v] == 0:
                    activate(v)
    return att, strat


def attractor(g: Game, player: int, targets=(), target_edges=()) -> Region:
    """Attractor of `player` to a vertex set and/or an edge set."""
    att, strat = _attr(
        lambda v: g.owner[v] == player, g.succ, set(targets), set(g.owner),
        set(target_edges),
    )
    return Region(vertices=frozenset(att), strategy=strat)


# ---------------------------------------------------------------------------
# threshold games


def _buchi(is_reacher, succ_map, target_edges, within):
    """Winning set and positional strategy for traversing target edges i.o."""
    V = set(within)
    while V:
        te = {(u, w) for (u, w) in target_edges if u in V and w in V}
        att, strat = _attr(is_reacher, succ_map, set(), V, te)
        rest = V - att
        if not rest:
            return V, strat
        esc, _ = _attr(lambda v: not is_reacher(v), succ_map, rest, V)
        V -= esc
    return set(), {}


def _avoid(is_mine, succ_map, bad_edges, within):
    """Largest set inside `within` where `mine` can stay forever without
    crossing a bad edge: the complement of the opponent's attractor to the
    bad edges and to the vertices with no successor inside `within`."""
    within = set(within)
    dead = {v for v in within if not any(w in within for w in succ_map[v])}
    att, _ = _attr(lambda v: not is_mine(v), succ_map, dead, within, bad_edges)
    return within - att


def _cobuchi(is_mine, succ_map, good_edges, within):
    """Winning set/strategy for eventually traversing only good edges.

    Two-level fixpoint: the inner stage computes the largest set the player
    can hold using good edges or one-step drops into the already-won set,
    as the complement of the opponent's attractor to every other edge;
    drops strictly decrease the inclusion level, so only finitely many
    non-good edges occur along any play following the recorded moves.
    """
    within = set(within)
    won: set = set()
    strat = {}
    while True:
        forbidden = {
            (v, u) for v in within for u in succ_map[v]
            if (v, u) not in good_edges and u not in won
        }
        y = _avoid(is_mine, succ_map, forbidden, within)
        if y == won:
            break
        for v in sorted(y - won, key=_key):
            if is_mine(v):
                good = [
                    u for u in sorted(succ_map[v], key=_key)
                    if u in y and (v, u) in good_edges
                ]
                drop = [u for u in sorted(succ_map[v], key=_key) if u in won]
                strat[v] = good[0] if good else drop[0]
        won = y

    bad = {
        (u, w) for u in within for w in succ_map[u] if w in within
    } - good_edges
    loser_win, _ = _buchi(lambda v: not is_mine(v), succ_map, bad, within)
    assert won == within - loser_win, "coBuchi region must complement the Buchi dual"
    return won, strat


def solve_threshold(cg: CoalitionGame, measure: PayoffKind, theta: Fraction) -> Region:
    """Exact winning region of "payoff >= theta" for the maximizing player.

    SUP is reachability of a heavy edge, INF safety against light edges,
    LIMSUP a Buchi condition on heavy edges, LIMINF the dual coBuchi
    condition.  Mean-payoff thresholds are not handled here.
    """
    if measure.is_mean_payoff:
        raise ValueError("mean-payoff thresholds are solved by zero_sum_value")
    return _threshold_region(cg, measure, theta, set(cg.game.owner))


def _threshold_region(cg: CoalitionGame, measure: PayoffKind, theta, within) -> Region:
    """`solve_threshold` on the subgame induced by `within`.

    Exact only if no coalition edge leaves `within` and every winning play
    of the whole arena stays inside it.
    """
    g = cg.game
    p = cg.player - 1
    heavy = {(v, w) for v in within for w in g.succ[v] if g.weights[(v, w)][p] >= theta}

    if measure is PayoffKind.SUP:
        att, strat = _attr(cg.is_max, g.succ, set(), within, heavy)
        return Region(frozenset(att), strat)
    if measure is PayoffKind.INF:
        light = {(v, w) for v in within for w in g.succ[v] if (v, w) not in heavy}
        safe = _avoid(cg.is_max, g.succ, light, within)
        strat = {
            v: min((w for w in g.succ[v] if w in safe and (v, w) in heavy), key=_key)
            for v in sorted(safe, key=_key)
            if cg.is_max(v)
        }
        return Region(frozenset(safe), strat)
    if measure is PayoffKind.LIMSUP:
        win, strat = _buchi(cg.is_max, g.succ, heavy, within)
        return Region(frozenset(win), strat)
    win, strat = _cobuchi(cg.is_max, g.succ, heavy, within)
    return Region(frozenset(win), strat)


# ---------------------------------------------------------------------------
# zero-sum values


def zero_sum_value(cg: CoalitionGame, measure: PayoffKind) -> tuple[dict, dict]:
    """Per-vertex value of the max player against the merged coalition, and
    one memoryless strategy of that player achieving every value at once: the
    certificate's sigma for mean payoff, otherwise each vertex's move in the
    highest threshold region it lies in, which is its own value."""
    if measure.is_mean_payoff:
        ar = _MpArena(cg)
        val = _mp_search(ar)
        sigma = _mp_certify(ar, val)
        values = {v: x / ar.denom for v, x in zip(ar.verts, val)}
        strat = {ar.verts[i]: ar.verts[j] for i, j in sigma.items()}
    else:
        weights = sorted({w[cg.player - 1] for w in cg.game.weights.values()})
        within = set(cg.game.owner)
        values, strat = {}, {}
        for theta in weights:
            region = _threshold_region(cg, measure, theta, within)
            for v in region.vertices:
                values[v] = theta
            strat.update(region.strategy)
            # The region is a coalition trap holding every play that wins a
            # higher threshold, so the next game is solved inside it.  Not for
            # SUP: a play that wins takes a heavy edge, which may leave it.
            if measure is not PayoffKind.SUP:
                within = region.vertices
        assert set(values) == set(cg.game.owner), "every play reaches the minimum weight"
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


class _MpArena:
    """Integer view of a coalition game for the mean-payoff solvers.

    Vertex i is the i-th vertex in sorted order.  Edge weights are the
    player's weights times `denom`, the least common denominator, so every
    game value is p / (q * denom) with integers p and 1 <= q <= n.
    """

    def __init__(self, cg: CoalitionGame):
        g = cg.game
        self.verts = sorted(g.owner)
        idx = {v: i for i, v in enumerate(self.verts)}
        ws = g.player_weights(cg.player)
        self.denom = lcm(*(w.denominator for w in ws.values()))
        self.maxer = [cg.is_max(v) for v in self.verts]
        self.succ = [
            [(idx[u], int(ws[(v, u)] * self.denom)) for u in g.succ[v]] for v in self.verts
        ]
        self.pred = [[] for _ in self.verts]
        for i, edges in enumerate(self.succ):
            for j, _ in edges:
                self.pred[j].append(i)


def _energy(ar: _MpArena, p: int, q: int, region, won, dual: bool = False):
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
    mine = {i: ar.maxer[i] != dual for i in inside}
    adj = {i: [(j, sign * (q * w - p)) for j, w in ar.succ[i]] for i in inside}
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
            for k in ar.pred[i]:
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


def _mp_search(ar: _MpArena) -> list:
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
    n = len(ar.verts)
    ws = [w for edges in ar.succ for _, w in edges]
    lo = min(ws)
    farey = _farey(n)
    width = len(farey) - 1
    pos = {ab: r for r, ab in enumerate(farey)}

    def cand(k):
        base, r = divmod(k, width)
        a, b = farey[r]
        return Fraction((lo + base) * b + a, b)

    low = [0] * n  # least candidate index still possible at each vertex
    val = [None] * n
    tasks = [(range(n), 0, (max(ws) - lo) * width)]
    while tasks:
        region, a, b = tasks.pop()
        lam = _simplest(cand(a + (b - a) // 4), cand(b - (b - a) // 4))
        p, q = lam.numerator, lam.denominator
        k = (p // q - lo) * width + pos[(p % q, q)]
        above, _ = _energy(ar, p, q, region, lambda j: low[j] > b)
        below, _ = _energy(ar, p, q, region, lambda j: low[j] < a, dual=True)
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


def _mp_certify(ar: _MpArena, val: list) -> dict:
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
        sigma.update(_energy(ar, p, q, region, lambda j: val[j] > lam)[1])
        tau.update(_energy(ar, p, q, region, lambda j: val[j] < lam, dual=True)[1])

    weight = {(i, j): w for i, edges in enumerate(ar.succ) for j, w in edges}
    for strat, maximize in ((sigma, False), (tau, True)):
        got = one_player_values(
            range(len(val)),
            lambda i: (strat[i],) if i in strat else [j for j, _ in ar.succ[i]],
            lambda i, j: weight[(i, j)],
            PayoffKind.MP_INF,
            maximize,
        )
        for i, x in enumerate(val):
            if got[i] != x:
                side = "tau" if maximize else "sigma"
                raise RuntimeError(
                    f"mean-payoff certificate failed at vertex {ar.verts[i]!r}: "
                    f"{side} gives {got[i]}, the search gave {x} (scaled weights)"
                )
    return sigma


# ---------------------------------------------------------------------------
# parity games


def solve_parity(pg: ParityGame) -> tuple[Region, Region]:
    """Recursive attractor-based solver; returns regions for players 0 and 1."""
    succ = pg.succ
    owner = pg.owner
    prio = pg.priority

    def attr(player, targets, within):
        return _attr(lambda v: owner[v] == player, succ, targets, within)

    def solve(within):
        if not within:
            return (set(), {}), (set(), {})
        d = max(prio[v] for v in within)
        p = 0 if d % 2 == 0 else 1
        top = {v for v in within if prio[v] == d}
        a, a_strat = attr(p, top, within)
        sub = solve(within - a)
        wq_sub, sq_sub = sub[1 - p]
        if not wq_sub:
            strat = dict(sub[p][1])
            strat.update(a_strat)
            for v in sorted(top, key=_key):
                if owner[v] == p and v not in strat:
                    strat[v] = min((w for w in succ[v] if w in within), key=_key)
            win = (set(within), strat)
            return (win, (set(), {})) if p == 0 else ((set(), {}), win)
        b, b_strat = attr(1 - p, wq_sub, within)
        sub2 = solve(within - b)
        q_strat = dict(sub2[1 - p][1])
        q_strat.update(b_strat)
        q_strat.update(sq_sub)
        q_win = (sub2[1 - p][0] | b, q_strat)
        p_win = sub2[p]
        return (p_win, q_win) if p == 0 else (q_win, p_win)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(pg.owner) + 1000))
    try:
        (w0, s0), (w1, s1) = solve(set(pg.owner))
    finally:
        sys.setrecursionlimit(old_limit)
    r0 = Region(frozenset(w0), {v: s0[v] for v in s0 if owner[v] == 0})
    r1 = Region(frozenset(w1), {v: s1[v] for v in s1 if owner[v] == 1})
    return r0, r1


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
        reach = reachable_from(start, succ.__getitem__)
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
        for comp in tarjan_sccs(sorted(reachable_from(start, sub_succ)), sub_succ):
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
