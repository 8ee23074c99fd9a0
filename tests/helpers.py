"""Shared test utilities: fixtures, play simulation, dominance probes."""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import lcm
from pathlib import Path

from admgames import Game, Lasso, MooreStrategy, PayoffKind, payoff_of_lasso
from admgames.solvers import (
    CoalitionGame,
    ParityGame,
    Region,
    _critical_cycle,
    _effective,
    _key,
    _scc_metric,
    bfs_path,
    cooperative_witness_lasso,
    explore,
    solve_parity,
    solve_threshold,
    tarjan_sccs,
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


def threshold_region_sweep(cg: CoalitionGame, measure: PayoffKind, theta, within) -> Region:
    """Reference INF and LIMINF threshold regions by re-sweeping to a fixpoint.

    The safety and coBuchi games solved by passes over the vertices in
    sorted order until none changes, as `solvers._threshold_region` and
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
        region = solve_threshold(cg, g.measure, lam)
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
    `bfs_path`-based search it checks."""
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
        for comp in tarjan_sccs(sorted(allowed), good_succ):
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
        for comp in tarjan_sccs(sorted(allowed & reach), sub_succ):
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
        for comp in tarjan_sccs(sorted(reachable_from(start, sub_succ)), sub_succ):
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
        v2 = s.moves[(m, v)] if g.owner[v] == s.player else tau[v]
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
