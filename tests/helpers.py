"""Shared test utilities: fixtures, play simulation, dominance probes."""

from __future__ import annotations

import random
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import ceil, lcm
from pathlib import Path

from admgames import Game, Lasso, MooreStrategy, PayoffKind, payoff_of_lasso
from admgames.solvers import (
    CoalitionGame,
    ParityGame,
    Region,
    _DenseThreshold,
    _effective,
    _key,
    _threshold,
    cooperative_witness_lasso,
    explore,
    solve_parity,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def load_game(name: str) -> Game:
    from admgames import parse_game

    return parse_game(fixture_text(name))


def load_strategy(name: str):
    from admgames import parse_strategy

    return parse_strategy(fixture_text(name))


def mp_value_iteration(cg: CoalitionGame) -> dict:
    """Reference mean-payoff game values by bounded-horizon value iteration.

    Zwick & Paterson (1996): on integer weights bounded by W, after
    K > 4n^2(n-1)W steps the K-step average is within 1/(2n(n-1)) of the
    game value, which pins down the unique rational with denominator at
    most n.  About n^3 W m steps in all, so keep n small.
    """
    g = cg.game
    verts = sorted(g.owner)
    n = len(verts)
    denom = lcm(*(w[cg.player - 1].denominator for w in g.weights.values()))
    intw = {e: int(w[cg.player - 1] * denom) for e, w in g.weights.items()}
    wmax = max(1, max(abs(w) for w in intw.values()))
    steps = 4 * n * n * max(1, n - 1) * wmax + 1

    idx = {v: i for i, v in enumerate(verts)}
    edges = [[(idx[u2], intw[(v, u2)]) for u2 in g.succ[v]] for v in verts]
    maxer = [cg.is_max(v) for v in verts]
    nu = [0] * n
    for _ in range(steps):
        nxt = [0] * n
        for i in range(n):
            vals = [w + nu[j] for (j, w) in edges[i]]
            nxt[i] = max(vals) if maxer[i] else min(vals)
        nu = nxt

    out = {}
    for v, i in idx.items():
        approx = Fraction(nu[i], steps)
        val = approx.limit_denominator(n)
        if n > 1:
            assert abs(val - approx) < Fraction(1, 2 * n * (n - 1))
        out[v] = val / denom
    return out


def dense_threshold_region(cg: CoalitionGame, measure: PayoffKind, theta, within=None) -> Region:
    """The max player's region and moves in "payoff >= theta" on the subgame
    `within` (default: the whole arena), by `solvers._threshold` on the
    player's `_DenseThreshold`, translated from state numbers to vertices.

    Exact only if no coalition edge leaves `within` and every winning play
    of the whole arena stays inside it.
    """
    dt = _DenseThreshold(cg)
    inside = bytearray(len(dt.verts))
    for v in cg.game.owner if within is None else within:
        inside[dt.idx[v]] = 1
    states = [i for i, x in enumerate(inside) if x]
    win, _, strat = _threshold(dt, measure, ceil(theta * dt.denom), states, inside)
    verts = dt.verts
    return Region(
        frozenset(verts[v] for v in win), {verts[v]: verts[w] for v, w in strat.items()}
    )


def threshold_region_sweep(cg: CoalitionGame, measure: PayoffKind, theta, within) -> Region:
    """Reference INF and LIMINF threshold regions by re-sweeping to a fixpoint.

    The safety and coBuchi games solved by passes over the vertices in
    sorted order until none changes, as `solvers._threshold` and
    `solvers._cobuchi` did before they used the attractor.
    """
    g = cg.game
    p = cg.player - 1
    key = repr
    heavy = {(v, w) for v in within for w in g.succ[v] if g.weights[(v, w)][p] >= theta}
    if measure is PayoffKind.INF:
        safe = set(within)
        changed = True
        while changed:
            changed = False
            for v in sorted(safe, key=key):
                if cg.is_max(v):
                    ok = any(w in safe and (v, w) in heavy for w in g.succ[v])
                else:
                    ok = all(w in safe and (v, w) in heavy for w in g.succ[v])
                if not ok:
                    safe.discard(v)
                    changed = True
        strat = {
            v: min((w for w in g.succ[v] if w in safe and (v, w) in heavy), key=key)
            for v in sorted(safe, key=key)
            if cg.is_max(v)
        }
        return Region(frozenset(safe), strat)

    assert measure is PayoffKind.LIMINF
    is_mine, succ_map, within = cg.is_max, g.succ, set(within)
    won: set = set()
    strat = {}
    while True:
        y = set(within)
        changed = True
        while changed:
            changed = False
            for v in sorted(y, key=key):
                ins = [u for u in succ_map[v] if u in within]
                if not ins:
                    ok = False
                elif is_mine(v):
                    ok = any(u in won or ((v, u) in heavy and u in y) for u in ins)
                else:
                    ok = all(u in won or ((v, u) in heavy and u in y) for u in ins)
                if not ok:
                    y.discard(v)
                    changed = True
        if y == won:
            break
        for v in sorted(y - won, key=key):
            if is_mine(v):
                good = [u for u in sorted(succ_map[v], key=key) if u in y and (v, u) in heavy]
                drop = [u for u in sorted(succ_map[v], key=key) if u in won]
                strat[v] = good[0] if good else drop[0]
        won = y
    return Region(frozenset(won), strat)


def worst_case_strategy_per_level(g: Game, player: int, aval: dict) -> dict:
    """Reference extremum worst-case strategy that re-solves every value level.

    The body `solvers.worst_case_strategy` had before the moves came out of
    the value sweep: each vertex takes the move of the whole-arena threshold
    game at its own value.
    """
    cg = CoalitionGame(g, player)
    per_level = {}
    for lam in sorted(set(aval.values())):
        region = dense_threshold_region(cg, g.measure, lam)
        per_level[lam] = (region.vertices, region.strategy)

    out = {}
    for v in sorted(g.owner):
        if g.owner[v] != player:
            continue
        win, strat = per_level[aval[v]]
        assert v in win, f"vertex {v} must win its own value threshold"
        out[v] = strat[v]
    return out


def reference_attr(is_mine, succ_map, targets, within, target_edges=frozenset()):
    """Reference attractor: least set `mine` can force into the targets or
    across a target edge, on hashed states.

    Returns (attractor set, strategy moves recorded for `mine` vertices added
    outside the vertex targets).  Every call rebuilds its move and
    predecessor lists; vertices seed in sorted order and propagate
    breadth-first.  The attractor the solvers used before they numbered
    states densely, kept to pin the seed order and the moves.
    """
    within = set(within)
    order = sorted(within, key=_key)
    moves = {v: [w for w in succ_map[v] if w in within] for v in within}
    preds: dict = {v: [] for v in within}
    for v in order:
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
    for v in order:
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


def _buchi(is_reacher, succ_map, target_edges, within):
    """Winning set and positional strategy for traversing target edges i.o."""
    V = set(within)
    while V:
        te = {(u, w) for (u, w) in target_edges if u in V and w in V}
        att, strat = reference_attr(is_reacher, succ_map, set(), V, te)
        rest = V - att
        if not rest:
            return V, strat
        esc, _ = reference_attr(lambda v: not is_reacher(v), succ_map, rest, V)
        V -= esc
    return set(), {}


def _avoid(is_mine, succ_map, bad_edges, within):
    """Largest set inside `within` where `mine` can stay forever without
    crossing a bad edge: the complement of the opponent's attractor to the
    bad edges and to the vertices with no successor inside `within`."""
    within = set(within)
    dead = {v for v in within if not any(w in within for w in succ_map[v])}
    att, _ = reference_attr(lambda v: not is_mine(v), succ_map, dead, within, bad_edges)
    return within - att


def _cobuchi(is_mine, succ_map, good_edges, within):
    """Winning set/strategy for eventually traversing only good edges, by
    the two-level fixpoint of `solvers._cobuchi`, with its Buchi-dual
    cross-check."""
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
                succs = sorted(succ_map[v], key=_key)
                good = [u for u in succs if u in y and (v, u) in good_edges]
                drop = [u for u in succs if u in won]
                strat[v] = good[0] if good else drop[0]
        won = y

    bad = {
        (u, w) for u in within for w in succ_map[u] if w in within
    } - good_edges
    loser_win, _ = _buchi(lambda v: not is_mine(v), succ_map, bad, within)
    assert won == within - loser_win, "coBuchi region must complement the Buchi dual"
    return won, strat


def reference_threshold_region(
    cg: CoalitionGame, measure: PayoffKind, theta, within
) -> Region:
    """Reference threshold region on the subgame `within`, on hashed states
    and `Fraction` weights: each threshold builds its heavy edge set anew."""
    g = cg.game
    p = cg.player - 1
    heavy = {(v, w) for v in within for w in g.succ[v] if g.weights[(v, w)][p] >= theta}

    if measure is PayoffKind.SUP:
        att, strat = reference_attr(cg.is_max, g.succ, set(), within, heavy)
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


def reference_zero_sum_value(cg: CoalitionGame, measure: PayoffKind) -> tuple[dict, dict]:
    """Reference extremum values and worst-case strategy: the nested sweep
    of `solvers.zero_sum_value` over `reference_threshold_region`."""
    weights = sorted({w[cg.player - 1] for w in cg.game.weights.values()})
    within = set(cg.game.owner)
    values, strat = {}, {}
    for theta in weights:
        region = reference_threshold_region(cg, measure, theta, within)
        for v in region.vertices:
            values[v] = theta
        strat.update(region.strategy)
        if measure is not PayoffKind.SUP:
            within = region.vertices
    return values, strat


@dataclass(frozen=True)
class NamedParityGame:
    """A parity game on states with any hashable names, as tests write them."""

    owner: dict  # state -> 0 | 1
    priority: dict  # state -> int >= 0
    succ: dict  # state -> tuple of successors


def numbered_parity_game(named: NamedParityGame) -> tuple[ParityGame, list]:
    """The game on the states 0..n-1, numbered in `repr` order of their
    names, and the names by number."""
    names = sorted(named.owner, key=_key)
    idx = {v: i for i, v in enumerate(names)}
    pg = ParityGame(
        owner={i: named.owner[v] for i, v in enumerate(names)},
        priority={i: named.priority[v] for i, v in enumerate(names)},
        succ={i: tuple(idx[w] for w in named.succ[v]) for i, v in enumerate(names)},
    )
    return pg, names


def solve_named_parity(named: NamedParityGame) -> tuple[Region, Region]:
    """`solve_parity` on the game numbered in `repr` order, with its regions
    and strategies named back."""
    pg, names = numbered_parity_game(named)
    return tuple(
        Region(
            frozenset(names[v] for v in r.vertices),
            {names[v]: names[w] for v, w in r.strategy.items()},
        )
        for r in solve_parity(pg)
    )


def reference_solve_parity(pg: NamedParityGame) -> tuple[Region, Region]:
    """Reference parity solver: recursive Zielonka over `reference_attr`.

    The solver `solve_parity` replaced, kept to pin its regions and
    strategies, which it gives on states named in any way: its ties break
    by `repr`, as `solve_parity`'s do on the game numbered in `repr` order.
    Every level rebuilds its attractor lists from the states themselves,
    and deep games raise the recursion limit for the call.
    """
    succ = pg.succ
    owner = pg.owner
    prio = pg.priority

    def attr(player, targets, within):
        return reference_attr(lambda v: owner[v] == player, succ, targets, within)

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


def reference_make_prefix_independent(g: Game):
    """Reference for `transform.make_prefix_independent` on INF/SUP games:
    explores records of `Fraction`s, folded with `min`/`max` on every move,
    and names each state from its own record."""
    from admgames.transform import TransformedGame, _rec_token

    fold = min if g.measure is PayoffKind.INF else max

    def fold1(rec, w):
        return w if rec is None else fold(rec, w)

    taken = set()

    def name(v, recs):
        base = v + "__" + "_".join(_rec_token(r) for r in recs)
        fresh = base
        bump = 2
        while fresh in taken:
            fresh = f"{base}__{bump}"
            bump += 1
        taken.add(fresh)
        return fresh

    def succ(state):
        v, recs = state
        for v2 in g.successors(v):
            yield v2, tuple(fold1(r, w) for r, w in zip(recs, g.weights[(v, v2)]))

    states, table = explore((g.init, (None,) * g.players), succ)
    names = [name(*state) for state in states]
    owner, weights, back, step = {}, {}, {}, {}
    for tv, state, outs in zip(names, states, table):
        owner[tv] = g.owner[state[0]]
        back[tv] = state
        for j in outs:
            weights[(tv, names[j])] = states[j][1]
            step[(tv, states[j][0])] = names[j]
    tg = Game(players=g.players, owner=owner, weights=weights, init=names[0], measure=g.measure)
    return TransformedGame(game=tg, back=back, step=step, identity=False)


def seeded_game_texts(measures=(PayoffKind.INF, PayoffKind.SUP)):
    """Game files of seeded arenas under each of `measures`, 1-3 players:
    integer weights (`-0` among them), and rational weights with mixed
    denominators, some tokens unreduced, so that value-equal weights are
    written differently."""
    from admgames.oracle import random_game

    for seed in range(24):
        rng = random.Random(seed)
        players = 1 + seed % 3
        measure = measures[seed // 6 % len(measures)]
        g = random_game(seed, 4 + seed % 5, (-3, 3), players, measure)
        rational = seed % 2 == 1

        def token(x):
            if not rational:
                return "-0" if x == 0 and rng.random() < 0.5 else str(x)
            k = rng.randint(1, 2)
            return f"{x * k}/{rng.randint(1, 6) * k}"

        lines = [f"players {players}", f"measure {measure.token}", f"init {g.init}"]
        lines += [f"vertex {v} {g.owner[v]}" for v in sorted(g.owner)]
        lines += [
            f"edge {u} {v} " + " ".join(token(int(x)) for x in w)
            for (u, v), w in sorted(g.weights.items())
        ]
        yield "\n".join(lines) + "\n"


def reachable_from(start, succ) -> set:
    """Depth-first reachability, kept apart from the explorer it checks."""
    seen = {start}
    todo = [start]
    while todo:
        for w in succ(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def shortest_cycle_through(u, succ):
    """Canonical shortest cycle through u, starting at u: a breadth-first
    search from u's successors in `repr` order, kept apart from the
    breadth-first searches it checks."""
    if u in succ(u):
        return [u]
    parent = {}
    frontier = []
    for w in sorted(succ(u), key=repr):
        if w not in parent:
            parent[w] = None
            frontier.append(w)
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(succ(v), key=repr):
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


def reference_tarjan_sccs(nodes, succ):
    """Reference for `solvers._dense_sccs`: iterative Tarjan over hashed
    states, with dicts and sets; components in reverse topological order."""
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


def _has_cycle(nodes, edges):
    nodeset = set(nodes)
    adj = {v: [] for v in nodeset}
    for (u, v) in edges:
        if u in nodeset and v in nodeset:
            adj[u].append(v)
    for comp in reference_tarjan_sccs(sorted(nodeset), lambda v: adj[v]):
        if len(comp) > 1 or comp[0] in adj[comp[0]]:
            return True
    return False


def _karp_min_mean(comp, edges):
    """Karp's minimum cycle mean inside one strongly connected component,
    comparing the candidate means as Fractions."""
    comp = sorted(comp)
    n = len(comp)
    idx = {v: i for i, v in enumerate(comp)}
    inc = [[] for _ in comp]  # incoming: (src index, weight)
    for (u, v, w) in edges:
        inc[idx[v]].append((idx[u], w))
    d = [[None] * n for _ in range(n + 1)]
    d[0][0] = 0
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
    """Best (or worst) cycle payoff inside one SCC, None if it has no cycle:
    every distinct weight is tried in turn, with a fresh cycle search."""
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


def reference_one_player_values(nodes, succ, wfun, measure: PayoffKind, maximize: bool) -> dict:
    """Reference for `solvers.one_player_values`: Tarjan over hashed names,
    `Fraction` weights, and a linear scan of the thresholds per component.

    Optimal payoff from every node when a single controller picks all moves,
    None where no cycle is reachable.
    """
    measure = _effective(measure)
    nodes = sorted(nodes, key=_key)
    comps = reference_tarjan_sccs(nodes, succ)
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


def _critical_cycle(comp, internal_edges, mu: Fraction):
    """A cycle of mean exactly mu inside an SCC whose max cycle mean is mu,
    by Bellman-Ford over hashed states with `Fraction` distances."""
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
    for c in reference_tarjan_sccs(comp, lambda v: tight[v]):
        cs = set(c)
        if len(c) > 1 or c[0] in tight[c[0]]:
            entry = min(c)
            inner = {v: tuple(t for t in tight[v] if t in cs) for v in comp}
            return bfs_path(entry, lambda v: entry in inner[v], inner.__getitem__)
    raise AssertionError("critical cycle must exist")


def witness_lasso_per_call(g: Game, player: int, start, value, allowed=None) -> Lasso:
    """Reference cooperative witness lasso that analyses the arena afresh.

    The one-shot search that `cooperative_witness_lasso` ran before its
    analysis was shared across start vertices: a new Tarjan decomposition
    (and for LIMINF a new cyclic set) on every call.
    """
    allowed = set(g.owner) if allowed is None else set(allowed)
    w = g.player_weights(player)

    def sub_succ(v):
        return tuple(t for t in g.succ[v] if t in allowed)

    measure = _effective(g.measure)
    if measure is PayoffKind.LIMINF:
        def good_succ(v):
            return tuple(t for t in sub_succ(v) if w[(v, t)] >= value)

        cyclic = set()
        for comp in reference_tarjan_sccs(sorted(allowed), good_succ):
            if len(comp) > 1 or comp[0] in good_succ(comp[0]):
                cyclic |= set(comp)
        path = bfs_path(start, lambda v: v in cyclic, sub_succ)
        assert path is not None, "cooperative value must be realizable"
        entry = path[-1]
        cycle = shortest_cycle_through(
            entry, lambda v: tuple(t for t in good_succ(v) if t in cyclic)
        )
    elif measure is PayoffKind.LIMSUP:
        reach = reachable_from(start, sub_succ)
        target = None
        for comp in reference_tarjan_sccs(sorted(allowed & reach), sub_succ):
            cs = set(comp)
            for u in sorted(cs & reach):
                for v in sorted(sub_succ(u)):
                    if v in cs and w[(u, v)] == value and (len(comp) > 1 or u == v):
                        if target is None or (u, v) < target:
                            target = (u, v)
        assert target is not None, "cooperative value must be realizable"
        entry = target[0]
        path = bfs_path(start, lambda v: v == entry, sub_succ)
        if target[0] == target[1]:
            cycle = [entry]
        else:
            back = bfs_path(target[1], lambda v: v == entry, sub_succ)
            cycle = [entry] + back[:-1]
    else:
        cycle = None
        for comp in reference_tarjan_sccs(sorted(reachable_from(start, sub_succ)), sub_succ):
            cs = set(comp)
            internal = [
                (u, v, w[(u, v)]) for u in comp for v in sub_succ(u)
                if v in cs and (len(comp) > 1 or u == v)
            ]
            metric = _scc_metric(comp, internal, PayoffKind.MP_INF, True)
            if metric == value:
                cycle = _critical_cycle(comp, internal, value)
                break
        assert cycle is not None, "cooperative value must be realizable"
        entry = cycle[0]
        path = bfs_path(start, lambda v: v == entry, sub_succ)

    assert cycle is not None and cycle[0] == entry
    lasso = Lasso(prefix=tuple(path[:-1]), cycle=tuple(cycle))
    assert payoff_of_lasso(g.measure, g, player, lasso) == value
    return lasso


def mode_layout(g: Game, player: int, origin, start, expand) -> MooreStrategy:
    """Reference for `transform.moore_layout` without the quotient: one
    memory state per mode reachable from `start`, numbered breadth first,
    and a move table filled with each vertex's first successor."""
    expanded = {}

    def succ(mode):
        _, outs = expanded[mode] = expand(mode)
        return [nxt for _, nxt in outs]

    ids = {mode: m for m, mode in enumerate(explore(start, succ)[0])}
    update, moves = {}, {}
    for mode, m in ids.items():
        move, outs = expanded[mode]
        if move is not None:
            moves[(m, origin(move[0]))] = origin(move[1])
        for tv2, nxt in outs:
            update[(m, origin(tv2))] = ids[nxt]
    for v in sorted(g.owner):
        if g.owner[v] == player:
            for m in range(len(ids)):
                moves.setdefault((m, v), g.successors(v)[0])
    return MooreStrategy(
        player=player,
        memory=len(ids),
        init_mem=0,
        update={k: m2 for k, m2 in update.items() if m2 != k[0]},
        moves=moves,
    )


def reference_pursue(table, player: int, lassos: dict, keep, init=None) -> MooreStrategy:
    """Reference for `admissibility._pursue` with one mode per lasso position.

    Mode ("lasso", a, pos) sits at position `pos` of `lassos[a]` (prefix,
    then cycle) and moves along it.  It keeps doing so while the play
    follows the lasso and `keep(a, next vertex)` holds; otherwise it
    restarts at the vertex entered: that vertex's own lasso if it has one,
    else mode ("wco", v, 0), which plays `table.wcs` from then on.  The play
    starts in mode `init`, by default the restart at the initial vertex.
    """
    from admgames.transform import moore_layout  # looked up per call: tests wrap it

    arena = table.arena
    wcs = table.wcs[player]
    laid = {a: (lasso.vertices(), len(lasso.prefix)) for a, lasso in lassos.items()}

    def restart(tv):
        return ("lasso", tv, 0) if tv in lassos else ("wco", tv, 0)

    def expand(mode):
        kind, a, pos = mode
        if kind == "wco":
            move = (a, wcs[a]) if arena.owner[a] == player else None
            return move, [(tv2, ("wco", tv2, 0)) for tv2 in arena.successors(a)]
        nodes, cycle_start = laid[a]
        nxt = pos + 1 if pos + 1 < len(nodes) else cycle_start
        tv, ahead = nodes[pos], nodes[nxt]
        move = (tv, ahead) if arena.owner[tv] == player else None
        return move, [
            (tv2, ("lasso", a, nxt) if tv2 == ahead and keep(a, tv2) else restart(tv2))
            for tv2 in arena.successors(tv)
        ]

    start = restart(arena.init) if init is None else init
    return moore_layout(table.source, player, table.transformed.origin, start, expand)


def expanded(g: Game, s: MooreStrategy) -> MooreStrategy:
    """`s` with its defaults written out: a `move` for every memory state
    at every vertex of the player that has a default, as files had them
    before the `default` line."""
    moves = {
        (m, v): s.move(m, v)
        for m in range(s.memory)
        for v in sorted(g.owner)
        if g.owner[v] == s.player and s.move(m, v) is not None
    }
    return MooreStrategy(
        player=s.player, memory=s.memory, init_mem=s.init_mem, update=dict(s.update), moves=moves
    )


def memoryless(player: int, moves: dict) -> MooreStrategy:
    return MooreStrategy(
        player=player,
        memory=1,
        init_mem=0,
        update={},
        moves={(0, v): t for v, t in moves.items()},
    )


def profiles(g: Game, verts):
    """All assignments of one successor to each of the given vertices."""
    verts = sorted(verts)
    for combo in iproduct(*(g.succ[v] for v in verts)):
        yield dict(zip(verts, combo))


def own_vertices(g: Game, player: int):
    return [v for v in g.owner if g.owner[v] == player]


def other_vertices(g: Game, player: int):
    return [v for v in g.owner if g.owner[v] != player]


def lasso_of_choice(g: Game, choice: dict) -> Lasso:
    """Play induced from init by a total memoryless successor choice."""
    seq = [g.init]
    seen = {g.init: 0}
    while True:
        v = choice[seq[-1]]
        if v in seen:
            k = seen[v]
            return Lasso(prefix=tuple(seq[:k]), cycle=tuple(seq[k:]))
        seen[v] = len(seq)
        seq.append(v)


def run_moore(g: Game, s: MooreStrategy, tau: dict) -> Lasso:
    """Play a Moore strategy against a memoryless adversary profile."""
    v, m = g.init, s.init_mem
    seq = [(v, m)]
    seen = {(v, m): 0}
    while True:
        v2 = s.move(m, v) if g.owner[v] == s.player else tau[v]
        m2 = s.next_memory(m, v2)
        key = (v2, m2)
        if key in seen:
            k = seen[key]
            verts = [x[0] for x in seq]
            return Lasso(prefix=tuple(verts[:k]), cycle=tuple(verts[k:]))
        seen[key] = len(seq)
        seq.append(key)
        v, m = v2, m2


def switch_dominator(g: Game, table, player: int, sigma_moves: dict, verdict):
    """Strategy that weakly dominates a rejected memoryless strategy.

    Follows sigma until the violation history has been traced, then switches:
    to uniform worst-case play when the rejection was a value drop, or to a
    guarantee-preserving cooperative pursuit when the payoff was pinned.
    Only supports prefix-independent arenas (identity rebuild).
    """
    arena = table.arena
    assert table.transformed.identity
    h = verdict.witness
    aval = {v: table.aval[(player, v)] for v in arena.owner}
    wco = table.wcs[player]

    if verdict.violated == "eq4":
        anchor = h[-1]
        allowed = {u for u in arena.owner if aval[u] >= aval[anchor]}
        lasso = cooperative_witness_lasso(
            arena, player, anchor, table.acval[(player, anchor)], allowed
        )
        nodes = lasso.prefix + lasso.cycle
        cstart = len(lasso.prefix)
        switch_entry = ("L", 0)
    else:
        nodes, cstart = None, None
        switch_entry = ("W", None)

    def nxt_pos(p):
        return p + 1 if p + 1 < len(nodes) else cstart

    ids = {}
    order = []

    def mid(mode):
        if mode not in ids:
            ids[mode] = len(order)
            order.append(mode)
        return ids[mode]

    start = switch_entry if len(h) == 1 else ("f", 0)
    update = {}
    moves_tbl = {}
    todo = [start]
    mid(start)
    seen = {start}
    while todo:
        mode = todo.pop()
        m = ids[mode]
        kind = mode[0]
        if kind in ("W", "free"):
            src = sigma_moves if kind == "free" else wco
            for v in sorted(arena.owner):
                if arena.owner[v] == player:
                    moves_tbl[(m, v)] = src[v]
            continue
        if kind == "f":
            k = mode[1]
            cur = h[k]
            if arena.owner[cur] == player:
                moves_tbl[(m, cur)] = sigma_moves[cur]
            for v2 in arena.successors(cur):
                if v2 == h[k + 1]:
                    nmode = switch_entry if k + 1 == len(h) - 1 else ("f", k + 1)
                else:
                    nmode = ("free", None)
                if nmode not in seen:
                    seen.add(nmode)
                    todo.append(nmode)
                update[(m, v2)] = mid(nmode)
        else:  # pursuing the cooperative lasso
            p = mode[1]
            cur = nodes[p]
            if arena.owner[cur] == player:
                moves_tbl[(m, cur)] = nodes[nxt_pos(p)]
            for v2 in arena.successors(cur):
                nmode = ("L", nxt_pos(p)) if v2 == nodes[nxt_pos(p)] else ("W", None)
                if nmode not in seen:
                    seen.add(nmode)
                    todo.append(nmode)
                update[(m, v2)] = mid(nmode)

    for v in sorted(arena.owner):
        if arena.owner[v] == player:
            for m in range(len(order)):
                moves_tbl.setdefault((m, v), arena.successors(v)[0])
    return MooreStrategy(
        player=player,
        memory=len(order),
        init_mem=ids[start],
        update={k: v for k, v in update.items() if v != k[0]},
        moves=moves_tbl,
    )


def weakly_dominates(g: Game, player: int, new: MooreStrategy, old_moves: dict, taus) -> bool:
    """old is memoryless; compare against every memoryless adversary profile."""
    some_better = False
    for tau in taus:
        p_old = payoff_of_lasso(
            g.measure, g, player, lasso_of_choice(g, {**old_moves, **tau})
        )
        p_new = payoff_of_lasso(g.measure, g, player, run_moore(g, new, tau))
        if p_new < p_old:
            return False
        if p_new > p_old:
            some_better = True
    return some_better
