"""Value engines: attractors, threshold games, zero-sum and one-player values,
parity solving, fixed-strategy extremes."""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import inf

import pytest

from admgames import (
    PayoffKind,
    check_strategy_admissible,
    construct_sco,
    parse_game,
    payoff_of_lasso,
    product_with_strategy,
)
from admgames import solvers
from admgames.oracle import brute_cooperative, brute_zero_sum, random_game
from admgames.solvers import (
    CoalitionGame,
    ParityGame,
    attractor,
    cooperative_witness_lasso,
    fixed_strategy_extremes,
    one_player_max_value,
    one_player_values,
    solve_parity,
    solve_threshold,
    worst_case_strategy,
    zero_sum_value,
)
from admgames.values import compute_value_table

from helpers import (
    load_game,
    load_strategy,
    memoryless,
    mp_value_iteration,
    threshold_region_sweep,
    witness_lasso_per_call,
    worst_case_strategy_per_level,
)

F = Fraction


def test_attractor_whole_arena():
    g = load_game("fig1.game")
    r = attractor(g, 1, targets=set(g.owner))
    assert r.vertices == frozenset(g.owner)


def test_attractor_excludes_escaping_adversary():
    # adversary-owned a can escape to the sink-loop c, away from target b
    text = (
        "players 2\nmeasure liminf\ninit a\n"
        "vertex a 2\nvertex b 1\nvertex c 2\n"
        "edge a b 0 0\nedge a c 0 0\nedge b b 0 0\nedge c c 0 0\n"
    )
    g = parse_game(text)
    r = attractor(g, 1, targets={"b"})
    assert "a" not in r.vertices
    assert r.vertices == frozenset({"b"})


def test_attractor_to_edge_fig1():
    g = load_game("fig1.game")
    r = attractor(g, 2, target_edges={("v2", "v4")})
    assert r.vertices == frozenset({"v2", "v4"})
    assert r.strategy["v2"] == "v4"


def test_threshold_fig1_liminf():
    g = load_game("fig1_liminf.game")
    cg = CoalitionGame(g, 1)
    assert solve_threshold(cg, g.measure, F(1)).vertices == frozenset(g.owner)
    assert solve_threshold(cg, g.measure, F(2)).vertices == frozenset()
    assert solve_threshold(cg, g.measure, F(-5)).vertices == frozenset(g.owner)


def test_threshold_monotone_regions():
    for seed in range(12):
        for measure in (
            PayoffKind.INF,
            PayoffKind.SUP,
            PayoffKind.LIMINF,
            PayoffKind.LIMSUP,
        ):
            g = random_game(seed, size=5, measure=measure)
            cg = CoalitionGame(g, 1)
            thetas = sorted({w[0] for w in g.weights.values()})
            prev = None
            for theta in thetas:
                region = solve_threshold(cg, measure, theta).vertices
                if prev is not None:
                    assert region <= prev
                prev = region


def test_threshold_rejects_mean_payoff():
    g = load_game("fig1.game")
    with pytest.raises(ValueError, match="mean-payoff"):
        solve_threshold(CoalitionGame(g, 1), g.measure, F(0))


def test_zero_sum_fig1_mean_payoff():
    g = load_game("fig1.game")
    v1 = zero_sum_value(CoalitionGame(g, 1), g.measure)[0]
    assert all(v1[v] == 1 for v in g.owner)
    v2 = zero_sum_value(CoalitionGame(g, 2), g.measure)[0]
    assert v2 == {"v1": 0, "v2": 2, "v3": 0, "v4": 2}


def test_zero_sum_single_loop_every_measure():
    for measure in PayoffKind:
        g = parse_game(
            f"players 1\nmeasure {measure.token}\ninit a\nvertex a 1\nedge a a 5/3\n"
        )
        vals = zero_sum_value(CoalitionGame(g, 1), measure)[0]
        assert vals["a"] == F(5, 3)


def test_zero_sum_mean_payoff_rational_weights():
    from admgames.oracle import brute_zero_sum

    text = (
        "players 2\nmeasure mp-inf\ninit a\n"
        "vertex a 1\nvertex b 2\nvertex c 1\n"
        "edge a b 1/2 0\nedge b a -1/3 0\nedge b c 1/4 0\n"
        "edge c c 2/3 0\nedge c a -1 0\n"
    )
    g = parse_game(text)
    vals = zero_sum_value(CoalitionGame(g, 1), g.measure)[0]
    assert vals == brute_zero_sum(g, 1)
    assert vals["c"] == F(2, 3)


def _mean_payoff_games():
    """Seeded mp-inf/mp-sup games, n <= 10, 2-3 players, some with rational weights."""
    for seed in range(24):
        measure = (PayoffKind.MP_INF, PayoffKind.MP_SUP)[seed % 2]
        players = 2 + seed % 3 // 2
        if seed < 16:
            yield random_game(seed, size=4 + seed % 7, weight_range=(-5, 5),
                              players=players, measure=measure)
            continue
        # rational weights: every weight divided by a seeded 1..4
        g = random_game(seed, size=4 + seed % 3, players=players, measure=measure)
        rng = random.Random(seed)
        weights = {e: tuple(x / rng.randint(1, 4) for x in w) for e, w in g.weights.items()}
        yield replace(g, weights=weights)


@cache
def _mean_payoff_tables():
    """(coalition game, reference values) for every player of those games."""
    return [
        (cg, mp_value_iteration(cg))
        for g in _mean_payoff_games()
        for cg in (CoalitionGame(g, p) for p in range(1, g.players + 1))
    ]


def test_zero_sum_mean_payoff_matches_value_iteration():
    for cg, aval in _mean_payoff_tables():
        assert zero_sum_value(cg, cg.game.measure)[0] == aval


def test_mp_threshold_win_set_is_the_value_upper_set():
    for cg, aval in _mean_payoff_tables():
        ar = solvers._MpArena(cg)
        n = len(ar.verts)
        levels = sorted(set(aval.values()))
        # every value, every midpoint between values, and both outsides
        lams = levels + [(x + y) / 2 for x, y in zip(levels, levels[1:])]
        lams += [levels[0] - F(1, 3), levels[-1] + F(1, 7)]
        for lam in lams:
            # the energy game on the whole arena, so no vertex is a sink
            f, moves = solvers._energy(
                ar, lam.numerator * ar.denom, lam.denominator, range(n), None
            )
            win = {ar.verts[i] for i in range(n) if f[i] < inf}
            assert win == {v for v in aval if aval[v] >= lam}, (cg.player, lam)
            assert {ar.verts[i] for i in moves} == {v for v in win if cg.is_max(v)}


@pytest.mark.parametrize("step", [1, -1])
def test_mean_payoff_certificate_rejects_a_shifted_value(monkeypatch, step):
    g = random_game(5, size=8, weight_range=(-5, 5), measure=PayoffKind.MP_INF)
    n = len(g.owner)
    search = solvers._mp_search

    def shifted(ar):
        val = search(ar)
        x = val[3]
        # the next candidate (denominator <= n) above or below x
        if step > 0:
            val[3] = min(F(x.numerator * b // x.denominator + 1, b) for b in range(1, n + 1))
        else:
            val[3] = max(F(-(-x.numerator * b // x.denominator) - 1, b) for b in range(1, n + 1))
        return val

    monkeypatch.setattr(solvers, "_mp_search", shifted)
    with pytest.raises(RuntimeError, match="certificate failed at vertex 'n3'"):
        zero_sum_value(CoalitionGame(g, 1), g.measure)[0]


def test_local_consistency_and_bounds():
    for measure in (PayoffKind.LIMINF, PayoffKind.LIMSUP, PayoffKind.MP_INF):
        for seed in range(15):
            g = random_game(seed, size=5, measure=measure)
            for player in (1, 2):
                cg = CoalitionGame(g, player)
                aval = zero_sum_value(cg, measure)[0]
                cval = one_player_max_value(g, player)
                for v in g.owner:
                    succ_vals = [aval[u] for u in g.successors(v)]
                    want = max(succ_vals) if cg.is_max(v) else min(succ_vals)
                    assert aval[v] == want, (measure, seed, player, v)
                    assert aval[v] <= cval[v]
                    assert cval[v] == max(cval[u] for u in g.successors(v))
                if measure.is_mean_payoff:
                    n = len(g.owner)
                    assert all(x.denominator <= n for x in aval.values())


def test_one_player_fig1_and_fig2():
    g = load_game("fig1.game")
    assert one_player_max_value(g, 1)["v1"] == 2
    g2 = load_game("fig2.game")
    assert one_player_max_value(g2, 1)["s1"] == 10


def test_one_player_zero_loop_graph():
    text = (
        "players 1\nmeasure mp-inf\ninit a\n"
        "vertex a 1\nvertex b 1\nedge a b -1\nedge b b 0\n"
    )
    g = parse_game(text)
    vals = one_player_max_value(g, 1)
    assert vals == {"a": 0, "b": 0}


def test_parity_all_even_and_odd_loop():
    pg = ParityGame(
        owner={"a": 0, "b": 1},
        priority={"a": 0, "b": 2},
        succ={"a": ("b",), "b": ("a",)},
    )
    r0, r1 = solve_parity(pg)
    assert r0.vertices == frozenset({"a", "b"}) and not r1.vertices

    pg2 = ParityGame(owner={"a": 0}, priority={"a": 1}, succ={"a": ("a",)})
    r0, r1 = solve_parity(pg2)
    assert r1.vertices == frozenset({"a"}) and not r0.vertices


def _random_parity_game(rng, n, priorities=4, degree=2):
    verts = [f"p{i}" for i in range(n)]
    return ParityGame(
        owner={v: rng.randint(0, 1) for v in verts},
        priority={v: rng.randint(0, priorities - 1) for v in verts},
        succ={
            v: tuple(sorted(rng.sample(verts, rng.randint(1, min(degree, n)))))
            for v in verts
        },
    )


def _brute_parity_regions(pg: ParityGame):
    verts = sorted(pg.owner)
    own0 = [v for v in verts if pg.owner[v] == 0]
    own1 = [v for v in verts if pg.owner[v] == 1]

    def plays(choice):
        out = {}
        for start in verts:
            seq = [start]
            seen = {start: 0}
            while True:
                v = choice[seq[-1]]
                if v in seen:
                    cyc = seq[seen[v]:]
                    out[start] = max(pg.priority[x] for x in cyc) % 2 == 0
                    break
                seen[v] = len(seq)
                seq.append(v)
        return out

    from itertools import product as iproduct

    def combos(vs):
        for c in iproduct(*(pg.succ[v] for v in vs)):
            yield dict(zip(vs, c))

    win0 = set()
    for s0 in combos(own0):
        ok = {v for v in verts}
        for s1 in combos(own1):
            res = plays({**s0, **s1})
            ok &= {v for v in verts if res[v]}
        win0 |= ok
    return win0


def test_parity_against_brute_force():
    rng = random.Random(3)
    for seed in range(200):
        pg = _random_parity_game(rng, rng.randint(2, 6))
        r0, r1 = solve_parity(pg)
        brute0 = _brute_parity_regions(pg)
        assert r0.vertices == frozenset(brute0), (seed, pg)
        assert r1.vertices == frozenset(pg.owner) - r0.vertices


def _parity_strategy_wins(pg, region, strategy, player):
    """Fix the winner's moves; every adversary memoryless reply must lose.

    With the winner's positional strategy fixed the rest is a one-player
    game, so memoryless adversaries are a complete refuter.
    """
    from itertools import product as iproduct

    others = [v for v in region if pg.owner[v] != player]
    for combo in iproduct(*(pg.succ[v] for v in others)):
        choice = dict(zip(others, combo))
        choice.update({v: strategy[v] for v in region if pg.owner[v] == player})
        for start in region:
            seq = [start]
            seen = {start: 0}
            while True:
                v = choice.get(seq[-1])
                if v is None:
                    return False  # play escaped the region: the winner lost it
                if v in seen:
                    top = max(pg.priority[x] for x in seq[seen[v]:])
                    if (top % 2 == 0) != (player == 0):
                        return False
                    break
                seen[v] = len(seq)
                seq.append(v)
    return True


def test_parity_strategies_win():
    rng = random.Random(8)
    for seed in range(60):
        pg = _random_parity_game(rng, rng.randint(2, 5))
        r0, r1 = solve_parity(pg)
        assert _parity_strategy_wins(pg, r0.vertices, r0.strategy, 0), seed
        assert _parity_strategy_wins(pg, r1.vertices, r1.strategy, 1), seed


def test_parity_strategy_moves_everywhere_the_winner_owns():
    # model checking and synthesis read the winner's move at every state of
    # its region they reach, with no fallback
    rng = random.Random(11)
    for seed in range(300):
        pg = _random_parity_game(rng, rng.randint(2, 30), priorities=6, degree=3)
        for player, region in enumerate(solve_parity(pg)):
            for v in region.vertices:
                if pg.owner[v] == player:
                    assert region.strategy[v] in pg.succ[v], (seed, v)
                    assert region.strategy[v] in region.vertices, (seed, v)


def test_parity_leaves_the_recursion_limit_as_it_found_it():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        solve_parity(_random_parity_game(random.Random(0), 10))
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)


def test_extremes_fig2_and_fig3():
    g = load_game("fig2.game")
    prod = product_with_strategy(g, load_strategy("fig2_s2s6.strat"))
    ext = fixed_strategy_extremes(prod, 1)
    assert ext[("s1", 0)] == (F(3), F(4))

    g3 = load_game("fig3.game")
    prod3 = product_with_strategy(g3, memoryless(1, {"s1": "s2"}))
    ext3 = fixed_strategy_extremes(prod3, 1)
    assert ext3[("s1", 0)] == (F(0), F(2))


def test_extremes_absorbing_state():
    g = parse_game(
        "players 2\nmeasure liminf\ninit a\nvertex a 1\nedge a a 7 7\n"
    )
    prod = product_with_strategy(g, memoryless(1, {"a": "a"}))
    assert fixed_strategy_extremes(prod, 1)[("a", 0)] == (F(7), F(7))


def test_worst_case_strategy_achieves_values():
    for measure in PayoffKind:
        for seed in range(10):
            g = random_game(seed, size=4, measure=measure)
            if not measure.prefix_independent:
                continue
            for player in (1, 2):
                aval = zero_sum_value(CoalitionGame(g, player), measure)[0]
                wco = worst_case_strategy(g, player)
                s = memoryless(player, wco)
                prod = product_with_strategy(g, s)
                ext = fixed_strategy_extremes(prod, player)
                for (v, m), (lo, _) in ext.items():
                    assert lo == aval[v], (measure, seed, player, v)


@pytest.mark.parametrize(
    "measure", [PayoffKind.INF, PayoffKind.SUP, PayoffKind.LIMINF, PayoffKind.LIMSUP]
)
def test_sweep_strategy_matches_per_level_reference(measure):
    # raw arenas, as in the sweep tests below; the per-level reference
    # solves each value's threshold game again on the whole arena
    for size in (5, 9, 14):
        for seed in range(40):
            g = random_game(seed, size=size, players=2 + seed % 2, measure=measure)
            for player in range(1, g.players + 1):
                aval, strat = zero_sum_value(CoalitionGame(g, player), measure)
                assert strat == worst_case_strategy_per_level(g, player, aval), (
                    size, seed, player,
                )


def test_mean_payoff_sigma_achieves_the_values():
    # a game where sigma, read off the value-class energy games, differs
    # from the moves of the whole-arena energy game at each value
    g = random_game(32, size=14, weight_range=(-5, 5), players=3, measure=PayoffKind.MP_INF)
    aval, sigma = zero_sum_value(CoalitionGame(g, 3), g.measure)
    ext = fixed_strategy_extremes(product_with_strategy(g, memoryless(3, sigma)), 3)
    for (v, _), (lo, _) in ext.items():
        assert lo == aval[v], v


def test_mean_payoff_sco_with_sigma_is_admissible():
    g = random_game(8, size=20, weight_range=(-5, 5), players=3, measure=PayoffKind.MP_INF)
    assert check_strategy_admissible(g, construct_sco(g, 1)).admissible


def test_cooperative_witness_lassos_hit_their_value():
    for measure in PayoffKind:
        for seed in range(10):
            g = random_game(seed, size=5, measure=measure)
            if not measure.prefix_independent:
                continue
            for player in (1, 2):
                cval = one_player_max_value(g, player)
                for v in g.owner:
                    lasso = cooperative_witness_lasso(g, player, v, cval[v])
                    assert lasso.start == v
                    assert payoff_of_lasso(measure, g, player, lasso) == cval[v]


def test_zero_sum_below_one_player():
    for measure in (PayoffKind.LIMINF, PayoffKind.MP_INF):
        for seed in range(10):
            g = random_game(seed, size=5, measure=measure)
            for player in (1, 2):
                aval = zero_sum_value(CoalitionGame(g, player), measure)[0]
                cval = one_player_max_value(g, player)
                assert all(aval[v] <= cval[v] for v in g.owner)


def _whole_arena_sweep(cg: CoalitionGame, measure: PayoffKind) -> dict:
    """Values by solving every threshold game on the whole arena."""
    vals = {}
    for theta in sorted({w[cg.player - 1] for w in cg.game.weights.values()}):
        for v in solve_threshold(cg, measure, theta).vertices:
            vals[v] = theta
    return vals


@pytest.mark.parametrize(
    "measure", [PayoffKind.INF, PayoffKind.SUP, PayoffKind.LIMINF, PayoffKind.LIMSUP]
)
def test_nested_threshold_sweep_matches_whole_arena_sweep(measure):
    # raw arenas, not rebuilt: there a play that wins SUP may take its heavy
    # edge out of the lower threshold's region
    for size in (5, 9, 14):
        for seed in range(40):
            g = random_game(seed, size=size, players=2 + seed % 2, measure=measure)
            for player in range(1, g.players + 1):
                cg = CoalitionGame(g, player)
                assert zero_sum_value(cg, measure)[0] == _whole_arena_sweep(cg, measure), (
                    size, seed, player,
                )


def _coalition_closed(g, player, rng):
    """A seeded vertex set that no coalition edge leaves; some of the
    player's vertices in it may have no successor in it."""
    within = set(rng.sample(sorted(g.owner), rng.randint(1, len(g.owner))))
    todo = list(within)
    while todo:
        v = todo.pop()
        if g.owner[v] != player:
            for w in g.succ[v]:
                if w not in within:
                    within.add(w)
                    todo.append(w)
    return within


@pytest.mark.parametrize("measure", [PayoffKind.INF, PayoffKind.LIMINF])
def test_safety_and_cobuchi_regions_match_the_sweep_reference(measure):
    # raw arenas; `within` is the whole arena, the region of each lower
    # threshold as in the nested sweep of zero_sum_value, and for INF a
    # seeded set closed under coalition moves (coBuchi needs every vertex
    # to keep a successor inside `within`, or its Buchi cross-check fails)
    for size in (5, 9, 14):
        for seed in range(40):
            g = random_game(seed, size=size, players=2 + seed % 2, measure=measure)
            rng = random.Random(seed)
            for player in range(1, g.players + 1):
                cg = CoalitionGame(g, player)
                nested = set(g.owner)
                others = [_coalition_closed(g, player, rng)] if measure is PayoffKind.INF else []
                for theta in sorted({w[player - 1] for w in g.weights.values()}):
                    for within in [set(g.owner), *others, nested]:  # nested last
                        want = threshold_region_sweep(cg, measure, theta, within)
                        got = solvers._threshold_region(cg, measure, theta, within)
                        assert got == want, (size, seed, player, theta, within)
                    nested = want.vertices


@pytest.mark.parametrize("measure", list(PayoffKind))
def test_shared_witness_lassos_match_per_call_reference(measure):
    for seed in range(6):
        g = random_game(
            seed, size=6 + seed % 3, weight_range=(-3, 3), players=2, measure=measure
        )
        table = compute_value_table(g)
        arena = table.arena
        for player in (1, 2):
            shared = solvers._WitnessLassos(arena, player)
            w = arena.player_weights(player)
            aval = {v: table.aval[(player, v)] for v in arena.owner}
            cases = [(v, table.cval[(player, v)], None) for v in sorted(arena.owner)]
            for level in table.avalues[player]:
                exact = frozenset(u for u in arena.owner if aval[u] == level)
                wide = frozenset(u for u in arena.owner if aval[u] >= level)
                for allowed in (exact, wide):
                    coop = one_player_values(
                        allowed,
                        lambda x, allowed=allowed: [t for t in arena.succ[x] if t in allowed],
                        lambda a, b: w[(a, b)],
                        arena.measure,
                        True,
                    )
                    cases += [(v, coop[v], allowed) for v in sorted(allowed) if coop[v] is not None]
            for v, value, allowed in cases:
                got = shared.lasso(v, value, allowed)
                want = witness_lasso_per_call(arena, player, v, value, allowed)
                assert got == want, (seed, player, v, value, allowed)


def test_karp_cycle_mean_on_integer_and_rational_weights():
    edges = [("a", "b", 1), ("b", "a", 2), ("b", "b", 3)]
    assert solvers._karp_min_mean(["a", "b"], edges) == F(3, 2)
    rational = [(u, v, F(w, 3)) for u, v, w in edges]
    assert solvers._karp_min_mean(["a", "b"], rational) == F(1, 2)


@pytest.mark.parametrize("rational", [False, True])
def test_cycle_means_match_brute_force(rational):
    for seed in range(12):
        g = random_game(seed, size=4 + seed % 3, weight_range=(-4, 4), measure=PayoffKind.MP_INF)
        if rational:
            rng = random.Random(seed)
            g = replace(g, weights={
                e: tuple(x / rng.randint(1, 4) for x in w) for e, w in g.weights.items()
            })
        for player in (1, 2):
            w = g.player_weights(player)
            low = one_player_values(
                g.owner, g.succ.__getitem__, lambda a, b: w[(a, b)], g.measure, False
            )
            # with the coalition owning every vertex, the zero-sum value is
            # the least reachable cycle mean
            lone = replace(g, owner={v: 3 - player for v in g.owner})
            assert low == brute_zero_sum(lone, player), (seed, player)
            assert one_player_max_value(g, player) == brute_cooperative(g, player)
