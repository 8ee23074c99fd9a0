"""Brute-force value oracles and seeded random game generation.

Everything here is deliberately independent of the solver stack: values are
obtained by exhaustive enumeration of memoryless strategy profiles (valid
because all six measures admit memoryless optima on finite arenas for both
the protagonist and the merged coalition) and of simple-prefix/simple-cycle
lassos.  Paths and cycles are enumerated by plain depth-first search: each
simple cycle once, from its least vertex through larger vertices only, in
the spirit of Johnson (SIAM J. Comput. 1975).  Intended for small
instances; every entry point enforces a vertex bound.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .games import Game, Lasso, PayoffKind, payoff_of_lasso, run_until_repeat, validate

__all__ = [
    "OracleBoundError",
    "brute_zero_sum",
    "brute_cooperative",
    "brute_acval",
    "brute_value_table",
    "random_game",
    "random_lasso",
]

DEFAULT_BOUND = 8


class OracleBoundError(ValueError):
    pass


def _check_bound(g: Game, bound: int | None):
    bound = DEFAULT_BOUND if bound is None else bound
    if len(g.owner) > bound:
        raise OracleBoundError(f"oracle bound {bound} exceeded: {len(g.owner)} vertices")


def _profiles(g: Game, verts):
    """All assignments of one successor to each vertex in verts."""
    verts = sorted(verts)
    for combo in product(*(g.succ[v] for v in verts)):
        yield dict(zip(verts, combo))


def brute_zero_sum(g: Game, player: int, bound: int | None = None) -> dict:
    """max over own memoryless strategies of min over coalition profiles."""
    _check_bound(g, bound)
    mine = [v for v in g.owner if g.owner[v] == player]
    others = [v for v in g.owner if g.owner[v] != player]
    best: dict = {v: None for v in g.owner}
    for sigma in _profiles(g, mine):
        worst: dict = {v: None for v in g.owner}
        for tau in _profiles(g, others):
            choice = {**sigma, **tau}
            for v in g.owner:
                prefix, cycle = run_until_repeat(v, choice.__getitem__)
                pay = payoff_of_lasso(g.measure, g, player, Lasso(tuple(prefix), tuple(cycle)))
                if worst[v] is None or pay < worst[v]:
                    worst[v] = pay
        for v in g.owner:
            if best[v] is None or worst[v] > best[v]:
                best[v] = worst[v]
    return best


def _simple_paths(g: Game, path: tuple, nodes):
    """`path` and every simple path inside `nodes` that extends it."""
    yield path
    for w in g.succ[path[-1]]:
        if w in nodes and w not in path:
            yield from _simple_paths(g, path + (w,), nodes)


def _simple_cycles(g: Game, nodes):
    """Every simple cycle inside `nodes` once, starting at its least vertex."""
    for root in sorted(nodes):
        above = {v for v in nodes if v >= root}
        for path in _simple_paths(g, (root,), above):
            if g.has_edge(path[-1], root):
                yield path


def _lassos_from(g: Game, start, nodes):
    """Simple-prefix + simple-cycle lassos from start inside `nodes`."""
    prefixes: dict = {}
    for path in _simple_paths(g, (start,), nodes):
        prefixes.setdefault(path[-1], []).append(path[:-1])
    for cyc in _simple_cycles(g, prefixes.keys()):
        for i, entry in enumerate(cyc):
            rot = cyc[i:] + cyc[:i]
            for prefix in prefixes[entry]:
                yield Lasso(prefix=prefix, cycle=rot)


def _best_payoff(g: Game, player: int, start, nodes) -> Fraction | None:
    """Best lasso payoff from start inside `nodes`.

    A prefix-independent payoff reads only the cycle, so each simple cycle
    reachable from start is scored once.
    """
    if g.measure.prefix_independent:
        reach = {path[-1] for path in _simple_paths(g, (start,), nodes)}
        lassos = (Lasso(prefix=(), cycle=c) for c in _simple_cycles(g, reach))
    else:
        lassos = _lassos_from(g, start, nodes)
    return max((payoff_of_lasso(g.measure, g, player, l) for l in lassos), default=None)


def brute_cooperative(g: Game, player: int, bound: int | None = None) -> dict:
    """Best lasso payoff over exhaustive lasso enumeration, per vertex."""
    _check_bound(g, bound)
    return {v: _best_payoff(g, player, v, g.owner.keys()) for v in g.owner}


def brute_acval(
    g: Game, player: int, vertex, bound: int | None = None, aval: dict | None = None
) -> Fraction:
    """Cooperative optimum restricted to vertices of no-worse worst-case value.

    `aval` may supply precomputed worst-case values (useful when these were
    obtained by enumeration on a smaller game this one was derived from);
    by default they are brute-forced here.
    """
    if aval is None:
        _check_bound(g, bound)
        aval = brute_zero_sum(g, player, bound)
    nodes = {v for v in g.owner if aval[v] >= aval[vertex]}
    return _best_payoff(g, player, vertex, nodes)


def brute_value_table(g: Game, player: int, bound: int | None = None) -> dict:
    """Brute-force (aval, cval, acval) per rebuilt vertex.

    Zero-sum and cooperative values come from profile/lasso enumeration on
    the input game; for INF/SUP they are then folded with each rebuilt
    vertex's recorded extremum (folding a monotone cap commutes with the
    sup/inf in the value definitions).  The guarded cooperative value is a
    lasso enumeration inside the brute-force level set of the rebuilt arena.
    """
    from .transform import make_prefix_independent

    tg = make_prefix_independent(g)
    base_a = brute_zero_sum(g, player, bound)
    base_c = brute_cooperative(g, player, bound)
    fold = min if g.measure is PayoffKind.INF else max
    aval = {}
    cval = {}
    for tv, (ov, recs) in tg.back.items():
        rec = recs[player - 1] if recs else None
        aval[tv] = base_a[ov] if rec is None else fold(rec, base_a[ov])
        cval[tv] = base_c[ov] if rec is None else fold(rec, base_c[ov])
    acval = {
        tv: brute_acval(tg.game, player, tv, aval=aval) for tv in tg.game.owner
    }
    return {tv: (aval[tv], cval[tv], acval[tv]) for tv in tg.game.owner}


def random_game(
    seed: int,
    size: int,
    weight_range: tuple[int, int] = (-2, 2),
    players: int = 2,
    measure: PayoffKind = PayoffKind.LIMINF,
    max_out_degree: int = 3,
) -> Game:
    """Deterministic pseudo-random arena; every vertex gets >= 1 outgoing edge."""
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(size)]
    owner = {v: rng.randint(1, players) for v in names}
    lo, hi = weight_range
    weights = {}
    for v in names:
        degree = rng.randint(1, min(max_out_degree, size))
        targets = rng.sample(names, degree)
        for t in targets:
            weights[(v, t)] = tuple(
                Fraction(rng.randint(lo, hi)) for _ in range(players)
            )
    g = Game(
        players=players,
        owner=owner,
        weights=weights,
        init=names[0],
        measure=measure,
    )
    assert not validate(g)
    return g


def random_lasso(g: Game, rng: random.Random, max_len: int = 10) -> Lasso:
    """A random walk from init, closed into a lasso at some revisit."""
    seq = [g.init]
    while True:
        v = rng.choice(g.succ[seq[-1]])
        if v in seq and (len(seq) >= max_len or rng.random() < 0.4):
            k = seq.index(v)
            return Lasso(prefix=tuple(seq[:k]), cycle=tuple(seq[k:]))
        seq.append(v)
