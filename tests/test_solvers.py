"""Value engines: attractors, threshold games, zero-sum and one-player values,
parity solving, fixed-strategy extremes."""

import importlib.util
import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import inf
from pathlib import Path

import pytest

from admgames import (
    Game,
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
    ParityGame,
    cooperative_witness_lasso,
    explore,
    fixed_strategy_extremes,
    one_player_max_value,
    one_player_values,
    solve_parity,
    worst_case_strategy,
    zero_sum_value,
)
from admgames.transform import make_prefix_independent
from admgames.values import compute_value_table

from helpers import (
    NamedParityGame,
    dense_threshold,
    dense_threshold_region,
    load_game,
    load_strategy,
    memoryless,
    mp_value_iteration,
    player_weights,
    reference_attr,
    reference_energy,
    reference_mp_search,
    reference_one_player_values,
    reference_tarjan_sccs,
    reference_solve_parity,
    reference_threshold_region,
    reference_zero_sum_value,
    scaled_weights,
    seeded_game_texts,
    shortest_cycle_through,
    solve_named_parity,
    threshold_region_sweep,
    witness_lasso_per_call,
    worst_case_strategy_per_level,
)

F = Fraction

CASES = Path(__file__).resolve().parents[1] / "perfbench" / "cases.py"


# a diamond a -> {c, b} -> d with a self-loop at c, then d -> e -> a
DIAMOND = {"a": ("c", "b"), "b": ("d",), "c": ("c", "d"), "d": ("e",), "e": ("a",)}


def test_explore_lists_states_breadth_first_with_successors_in_order():
    states, table = explore("a", DIAMOND.__getitem__)
    assert states == ["a", "c", "b", "d", "e"]
    assert {v: tuple(states[j] for j in outs) for v, outs in zip(states, table)} == DIAMOND
    assert explore("d", DIAMOND.__getitem__)[0] == ["d", "e", "a", "c", "b"]


def test_explore_raises_at_the_first_bad_state_breadth_first():
    calls = []

    def succ(v):
        calls.append(v)
        if v in ("b", "d"):  # a depth-first walk through c would meet d first
            raise ValueError(v)
        return iter(DIAMOND[v])

    with pytest.raises(ValueError, match="b"):
        explore("a", succ)
    assert calls == ["a", "c", "b"]


def _coalition(g, player):
    """The player's `_DenseThreshold`, owner 1 being the player, and the
    membership array of its whole arena."""
    dt = dense_threshold(g, player)
    return dt, bytearray(b"\x01") * len(dt.verts)


def _lister(dt, marked):
    """`_dense_attr`'s target-edge lister for the set `marked` of named edges."""
    verts, succ = dt.verts, dt.succ
    return lambda v: [w for w in succ[v] if (verts[v], verts[w]) in marked]


def test_attractor_whole_arena():
    dt, whole = _coalition(load_game("fig1.game"), 1)
    n = len(whole)
    strat = {}
    assert sorted(solvers._dense_attr(dt, 1, range(n), whole, strat)) == list(range(n))
    assert strat == {}


def test_attractor_excludes_escaping_adversary():
    # adversary-owned a can escape to the sink-loop c, away from target b
    text = (
        "players 2\nmeasure liminf\ninit a\n"
        "vertex a 2\nvertex b 1\nvertex c 2\n"
        "edge a b 0 0\nedge a c 0 0\nedge b b 0 0\nedge c c 0 0\n"
    )
    dt, whole = _coalition(parse_game(text), 1)
    b = dt.idx["b"]
    assert solvers._dense_attr(dt, 1, [b], whole, {}) == [b]


def test_attractor_to_edge_fig1():
    dt, whole = _coalition(load_game("fig1.game"), 2)
    idx = dt.idx
    strat = {}
    att = solvers._dense_attr(
        dt, 1, (), whole, strat, range(len(whole)), _lister(dt, {("v2", "v4")})
    )
    assert sorted(att) == sorted([idx["v2"], idx["v4"]])
    assert strat[idx["v2"]] == idx["v4"]


def _edge_game(edges, owners, succ=None):
    """A two-player game on named vertices with zero weights."""
    return Game(
        players=2, owner=owners, weights={e: (F(0), F(0)) for e in edges},
        init=min(owners), measure=PayoffKind.LIMINF, succ=succ,
    )


def test_attractor_seeds_an_opponent_vertex_whose_moves_are_all_target_edges():
    # a (player 2) can only cross a target edge; d (player 1) then moves to a
    g = _edge_game(
        [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c"), ("d", "a"), ("d", "d")],
        {"a": 2, "b": 1, "c": 1, "d": 1},
    )
    dt, whole = _coalition(g, 1)
    idx = dt.idx
    strat = {}
    att = solvers._dense_attr(
        dt, 1, (), whole, strat, range(len(whole)), _lister(dt, {("a", "b"), ("a", "c")})
    )
    assert att == [idx["a"], idx["d"]]
    assert strat == {idx["d"]: idx["a"]}


def test_attractor_takes_the_lower_key_target_edge():
    # the successors are listed against `_key` order, which the move follows
    g = _edge_game(
        [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")],
        {"a": 1, "b": 2, "c": 2},
        succ={"a": ("c", "b"), "b": ("b",), "c": ("c",)},
    )
    dt, whole = _coalition(g, 1)
    idx = dt.idx
    strat = {}
    att = solvers._dense_attr(
        dt, 1, (), whole, strat, range(len(whole)), _lister(dt, {("a", "b"), ("a", "c")})
    )
    assert att == [idx["a"]]
    assert strat == {idx["a"]: idx["b"]}


def test_dense_attractor_never_attracts_an_opponent_vertex_stuck_outside():
    # in the subgame {a, t, x}: a (opponent) has no move inside, only a
    # target edge to b outside; x (player) has a target edge to a
    g = _edge_game(
        [("a", "b"), ("b", "t"), ("t", "t"), ("x", "a"), ("x", "x")],
        {"a": 2, "b": 1, "t": 2, "x": 1},
    )
    dt, _ = _coalition(g, 1)
    idx, verts = dt.idx, dt.verts
    inside = bytearray(len(verts))
    within = sorted(idx[v] for v in ("a", "t", "x"))
    for v in within:
        inside[v] = 1
    strat = {}
    att = solvers._dense_attr(
        dt, 1, [idx["t"]], inside, strat, within, _lister(dt, {("a", "b"), ("x", "a")})
    )
    assert {verts[v] for v in att} == {"t", "x"}
    assert strat == {idx["x"]: idx["a"]}


def test_attractor_counts_a_target_edge_once():
    # a (player 2) has a target edge into the target t and a free move to
    # the trap z; reaching t backwards over that edge must not count twice
    g = _edge_game(
        [("a", "t"), ("a", "z"), ("t", "t"), ("z", "z")],
        {"a": 2, "t": 1, "z": 2},
    )
    dt, whole = _coalition(g, 1)
    t = dt.idx["t"]
    strat = {}
    att = solvers._dense_attr(
        dt, 1, [t], whole, strat, range(len(whole)), _lister(dt, {("a", "t")})
    )
    assert att == [t]
    assert strat == {}


def test_attractor_matches_the_hashed_reference():
    rng = random.Random(3)
    for seed in range(60):
        g = random_game(seed, size=4 + seed % 8, players=2 + seed % 2)
        verts = sorted(g.owner)
        edges = sorted(g.weights)
        for player in range(1, g.players + 1):
            targets = set(rng.sample(verts, rng.randint(0, 2)))
            marked = set(rng.sample(edges, rng.randint(0, min(4, len(edges)))))
            want, moves = reference_attr(
                lambda v: g.owner[v] == player, g.succ, targets, g.owner, marked
            )
            dt, whole = _coalition(g, player)
            idx = dt.idx
            strat = {}
            att = solvers._dense_attr(
                dt, 1, sorted(idx[v] for v in targets), whole, strat, range(len(whole)),
                _lister(dt, marked),
            )
            assert {dt.verts[v] for v in att} == want, (seed, player)
            assert list(strat.items()) == [(idx[v], idx[w]) for v, w in moves.items()], (
                seed, player,
            )


def test_threshold_fig1_liminf():
    g = load_game("fig1_liminf.game")
    assert dense_threshold_region(g, 1, g.measure, F(1)).vertices == frozenset(g.owner)
    assert dense_threshold_region(g, 1, g.measure, F(2)).vertices == frozenset()
    assert dense_threshold_region(g, 1, g.measure, F(-5)).vertices == frozenset(g.owner)


def test_threshold_monotone_regions():
    for seed in range(12):
        for measure in (
            PayoffKind.INF,
            PayoffKind.SUP,
            PayoffKind.LIMINF,
            PayoffKind.LIMSUP,
        ):
            g = random_game(seed, size=5, measure=measure)
            thetas = sorted({w[0] for w in g.weights.values()})
            prev = None
            for theta in thetas:
                region = dense_threshold_region(g, 1, measure, theta).vertices
                if prev is not None:
                    assert region <= prev
                prev = region


def test_zero_sum_fig1_mean_payoff():
    g = load_game("fig1.game")
    v1 = zero_sum_value(dense_threshold(g, 1), g.measure)[0]
    assert all(v1[v] == 1 for v in g.owner)
    v2 = zero_sum_value(dense_threshold(g, 2), g.measure)[0]
    assert v2 == {"v1": 0, "v2": 2, "v3": 0, "v4": 2}


def test_zero_sum_single_loop_every_measure():
    for measure in PayoffKind:
        g = parse_game(
            f"players 1\nmeasure {measure.token}\ninit a\nvertex a 1\nedge a a 5/3\n"
        )
        vals = zero_sum_value(dense_threshold(g, 1), measure)[0]
        assert vals["a"] == F(5, 3)


def test_zero_sum_levels_order_states_as_their_values():
    # on rebuilt arenas of all six measures, every player, a third with
    # halved weights so that mean-payoff values have mixed denominators
    tables = 0
    for measure in PayoffKind:
        for seed in range(8):
            g = random_game(seed, size=4 + seed % 5, players=2 + seed % 2, measure=measure)
            if seed % 3 == 1:
                g = replace(g, weights={e: tuple(x / 2 for x in w) for e, w in g.weights.items()})
            arena = make_prefix_independent(g).game
            for player in range(1, g.players + 1):
                dt = dense_threshold(arena, player)
                values, _, level = zero_sum_value(dt, measure)
                vals = [values[v] for v in dt.verts]
                assert len(level) == len(vals) and all(type(t) is int for t in level)
                for i, (a, x) in enumerate(zip(level, vals)):
                    for b, y in zip(level[i:], vals[i:]):
                        assert (a < b) == (x < y) and (b < a) == (y < x), (measure, seed)
                tables += 1
    assert tables > 100


def test_zero_sum_mean_payoff_rational_weights():
    from admgames.oracle import brute_zero_sum

    text = (
        "players 2\nmeasure mp-inf\ninit a\n"
        "vertex a 1\nvertex b 2\nvertex c 1\n"
        "edge a b 1/2 0\nedge b a -1/3 0\nedge b c 1/4 0\n"
        "edge c c 2/3 0\nedge c a -1 0\n"
    )
    g = parse_game(text)
    vals = zero_sum_value(dense_threshold(g, 1), g.measure)[0]
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
    """(game, player, reference values) for every player of those games."""
    return [
        (g, p, mp_value_iteration(g, p))
        for g in _mean_payoff_games()
        for p in range(1, g.players + 1)
    ]


def test_zero_sum_mean_payoff_matches_value_iteration():
    for g, player, aval in _mean_payoff_tables():
        assert zero_sum_value(dense_threshold(g, player), g.measure)[0] == aval


def test_mp_threshold_win_set_is_the_value_upper_set():
    for g, player, aval in _mean_payoff_tables():
        dt = dense_threshold(g, player)
        n = len(dt.verts)
        levels = sorted(set(aval.values()))
        # every value, every midpoint between values, and both outsides
        lams = levels + [(x + y) / 2 for x, y in zip(levels, levels[1:])]
        lams += [levels[0] - F(1, 3), levels[-1] + F(1, 7)]
        for lam in lams:
            # the energy game on the whole arena, so no vertex is a sink
            f, moves = solvers._energy(
                dt, lam.numerator * dt.denom, lam.denominator, range(n), None
            )
            win = {dt.verts[i] for i in range(n) if f[i] < inf}
            assert win == {v for v in aval if aval[v] >= lam}, (player, lam)
            assert {dt.verts[i] for i in moves} == {v for v in win if g.owner[v] == player}


def test_dense_energy_matches_the_hashed_reference(monkeypatch):
    # f and the moves of the dense solver with its loss shortcut against the
    # hashed worklist solver, on the whole arena and on seeded subregions
    # whose sinks are seeded won or lost, for both sides
    real = solvers._energy_losses
    fired = []

    def counted(*args):
        lost = real(*args)
        fired.append(len(lost))
        return lost

    monkeypatch.setattr(solvers, "_energy_losses", counted)
    games = list(_mean_payoff_games()) + [
        random_game(seed, size=30 + 10 * seed, weight_range=(-5, 5),
                    measure=(PayoffKind.MP_INF, PayoffKind.MP_SUP)[seed % 2])
        for seed in range(4)
    ]
    for gi, g in enumerate(games):
        for player in range(1, g.players + 1):
            dt = dense_threshold(g, player)
            n = len(dt.verts)
            levels = sorted(set(zero_sum_value(dense_threshold(g, player), g.measure)[0].values()))
            # every value, every midpoint between values, and both outsides
            lams = levels + [(x + y) / 2 for x, y in zip(levels, levels[1:])]
            lams += [levels[0] - F(1, 3), levels[-1] + F(1, 7)]
            rng = random.Random(gi * 10 + player)
            regions = [(range(n), None)]
            for _ in range(2):
                region = sorted(rng.sample(range(n), rng.randint(1, n)))
                won = frozenset(rng.sample(range(n), n // 2))
                regions.append((region, won.__contains__))
            for lam in lams:
                p, q = lam.numerator * dt.denom, lam.denominator
                for region, won in regions:
                    for dual in (False, True):
                        want_f, want_moves = reference_energy(dt, p, q, region, won, dual)
                        f, moves = solvers._energy(dt, p, q, region, won, dual)
                        case = (gi, player, lam, list(region), dual)
                        assert {i: f[i] for i in want_f} == want_f, case
                        assert moves == want_moves, case
    # the shortcut ran and found lost states, so it is not dead code
    assert any(fired)


def _larger_mean_payoff_games():
    """40 seeded mp-inf/mp-sup games, n 12-60, 2-3 players, a third of them
    with every weight divided by a seeded 1..4."""
    rng = random.Random(30)
    for seed in range(40):
        g = random_game(100 + seed, size=rng.randint(12, 60), weight_range=(-5, 5),
                        players=rng.randint(2, 3),
                        measure=(PayoffKind.MP_INF, PayoffKind.MP_SUP)[seed % 2])
        yield _rational(g, rng) if seed % 3 == 0 else g


def _mp_solves():
    """Every player's coalition game of the small and the larger games."""
    for g in [*_mean_payoff_games(), *_larger_mean_payoff_games()]:
        for player in range(1, g.players + 1):
            yield g, player


def test_guided_mp_search_matches_the_farey_reference(monkeypatch):
    # values, sigma and levels with the guided search and with the search
    # that splits every range at the midpoint rule
    want = [zero_sum_value(dense_threshold(g, p), g.measure) for g, p in _mp_solves()]
    monkeypatch.setattr(solvers, "_mp_search", reference_mp_search)
    got = [zero_sum_value(dense_threshold(g, p), g.measure) for g, p in _mp_solves()]
    assert len(got) > 100
    for case, (a, b) in enumerate(zip(got, want)):
        assert a == b, case


def test_mp_search_values_do_not_depend_on_the_guesses(monkeypatch):
    # guesses only choose thresholds: seeded random candidates, or none at
    # all, leave every value, move and level as the midpoint rule finds them
    rng = random.Random(31)

    def random_outcomes(dt, states, moves, val, maximize):
        if rng.random() < 0.25:
            return None
        n, lo, hi = len(dt.verts), dt.ints[0], dt.ints[-1]
        out = []
        for _ in states:
            q = rng.randint(1, n)
            out.append(F(rng.randint(lo * q, hi * q), q))
        return out

    monkeypatch.setattr(solvers, "_mp_outcomes", random_outcomes)
    for case, (g, p) in enumerate(_mp_solves()):
        dt = dense_threshold(g, p)
        assert solvers._mp_search(dt) == reference_mp_search(dt), case


def _mp_values_games():
    """The games of the `mp-values` benchmark batches at seeds 0-3."""
    spec = importlib.util.spec_from_file_location("perfbench_cases", CASES)
    cases = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(cases)
    for seed in range(4):
        batch = cases.make_batch("mp-values", seed)
        for name in batch.games.values():
            yield parse_game(batch.files[name])


def test_guided_mp_search_solves_fewer_energy_games(monkeypatch):
    # a count, not a timing: the guesses must keep cutting the energy games
    # the search solves, at most 60% of the midpoint rule's on these batches
    real, calls = solvers._energy, []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "_energy", counted)
    counts = {}
    for search in (solvers._mp_search, reference_mp_search):
        calls.clear()
        for g in _mp_values_games():
            for player in range(1, g.players + 1):
                search(dense_threshold(g, player))
        counts[search] = len(calls)
    guided, reference = counts.values()
    assert reference > 0 and guided <= 0.6 * reference, (guided, reference)


def test_simplest_is_the_least_denominator_rational_in_range():
    # brute force: the least denominator q with a multiple of 1/q in [x, y],
    # and its least such numerator; x itself bounds q by its denominator
    rng = random.Random(32)
    pairs = [(F(-3), F(-3)), (F(2), F(5, 2)), (F(-7, 3), F(-7, 3)), (F(-1, 2), F(1, 2))]
    for _ in range(400):
        x = F(rng.randint(-40, 40), rng.randint(1, 12))
        y = x + rng.choice([0, F(rng.randint(0, 30), rng.randint(1, 12))])
        pairs.append((x, y))
    for x, y in pairs:
        want = next(
            F(-(-x.numerator * q // x.denominator), q)
            for q in range(1, x.denominator + 1)
            if F(-(-x.numerator * q // x.denominator), q) <= y
        )
        assert solvers._simplest(x, y) == want, (x, y)


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
        zero_sum_value(dense_threshold(g, 1), g.measure)[0]


def test_farey_index_is_built_once_and_equals_the_fresh_sequence():
    for n in range(1, 41):
        farey, pos = solvers._farey_index(n)
        fresh = solvers._farey(n)
        assert list(farey) == fresh, n
        assert pos == {ab: r for r, ab in enumerate(fresh)}, n
        assert solvers._farey_index(n) == (farey, pos)
        assert solvers._farey_index(n)[1] is pos, n


def test_local_consistency_and_bounds():
    for measure in (PayoffKind.LIMINF, PayoffKind.LIMSUP, PayoffKind.MP_INF):
        for seed in range(15):
            g = random_game(seed, size=5, measure=measure)
            for player in (1, 2):
                aval = zero_sum_value(dense_threshold(g, player), measure)[0]
                cval = one_player_max_value(g, player)
                for v in g.owner:
                    succ_vals = [aval[u] for u in g.successors(v)]
                    want = max(succ_vals) if g.owner[v] == player else min(succ_vals)
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
    pg = ParityGame(owner={0: 0, 1: 1}, priority={0: 0, 1: 2}, succ={0: (1,), 1: (0,)})
    r0, r1 = solve_parity(pg)
    assert r0.vertices == frozenset({0, 1}) and not r1.vertices

    pg2 = ParityGame(owner={0: 0}, priority={0: 1}, succ={0: (0,)})
    r0, r1 = solve_parity(pg2)
    assert r1.vertices == frozenset({0}) and not r0.vertices


def _random_parity_game(rng, n, priorities=4, degree=2):
    verts = range(n)
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


def _named_parity_game(rng):
    """Random parity game over mixed tuple names with `Fraction` fields,
    inserted in shuffled order, so `repr` order is not insertion order."""
    n = rng.randint(2, 200)
    names = set()
    while len(names) < n:
        tag = rng.choice(("q", "r", ("s", rng.randint(0, 3))))
        names.add((tag, F(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(0, 40)))
    names = list(names)
    rng.shuffle(names)
    priorities = rng.randint(1, 8)
    return NamedParityGame(
        owner={v: rng.randint(0, 1) for v in names},
        priority={v: rng.randint(0, priorities - 1) for v in names},
        succ={v: tuple(rng.sample(names, rng.randint(1, min(3, n)))) for v in names},
    )


def test_parity_matches_reference_solver_on_named_games():
    rng = random.Random(2024)
    for seed in range(500):
        pg = _named_parity_game(rng)
        got, want = solve_named_parity(pg), reference_solve_parity(pg)
        for player in (0, 1):
            assert got[player].vertices == want[player].vertices, (seed, player)
            assert got[player].strategy == want[player].strategy, (seed, player)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_parity_deep_game_needs_no_recursion(monkeypatch):
    # a cycle of distinct priorities: Zielonka nests one subgame per vertex
    n = 300
    pg = NamedParityGame(
        owner={("c", i): i % 2 for i in range(n)},
        priority={("c", i): i for i in range(n)},
        succ={("c", i): (("c", i), ("c", (i + 1) % n)) for i in range(n)},
    )
    set_limit, old = sys.setrecursionlimit, sys.getrecursionlimit()

    def refuse(limit):
        raise AssertionError("solve_parity must not set the recursion limit")

    set_limit(_stack_depth() + 100)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        got = solve_named_parity(pg)
    finally:
        monkeypatch.undo()
        set_limit(old)
    assert got == reference_solve_parity(pg)


# a solved game for the tampering tests, on the states a, b, c, d = 0, 1, 2, 3:
# player 0 wins {a, b} by a -> b -> a (top priority 2); player 1 wins {c, d}
# by looping at d (priority 1), and c can only go to d
A, B, C, D = range(4)
TAMPER = ParityGame(
    owner={A: 0, B: 1, C: 0, D: 1},
    priority={A: 2, B: 0, C: 0, D: 1},
    succ={A: (B, C), B: (A,), C: (D,), D: (D,)},
)


def test_parity_check_accepts_the_solution():
    r0, r1 = solve_parity(TAMPER)
    assert r0.vertices == {A, B} and r0.strategy == {A: B}
    assert r1.vertices == {C, D} and r1.strategy == {D: D}
    solvers._check_parity(solvers._DenseParity(TAMPER), ([A, B], [C, D]), ({A: B}, {D: D}))


def test_parity_check_rejects_a_move_out_of_the_region():
    dp = solvers._DenseParity(TAMPER)
    with pytest.raises(RuntimeError, match="move at state 0 does not stay in its region"):
        solvers._check_parity(dp, ([A, B], [C, D]), ({A: C}, {D: D}))


def test_parity_check_rejects_a_loser_edge_out_of_the_region():
    # an edge b -> d lets player 1 leave player 0's region at b
    dp = solvers._DenseParity(replace(TAMPER, succ={**TAMPER.succ, B: (A, D)}))
    with pytest.raises(RuntimeError, match="player 1 can leave player 0's region at state 1"):
        solvers._check_parity(dp, ([A, B], [C, D]), ({A: B}, {D: D}))


def test_parity_check_rejects_overlapping_regions():
    dp = solvers._DenseParity(TAMPER)
    with pytest.raises(RuntimeError, match="state 1 is in both regions"):
        solvers._check_parity(dp, ([A, B], [B, C, D]), ({A: B}, {D: D}))


def test_parity_check_rejects_an_odd_cycle_under_an_even_top():
    # player 1 owns x = 0 (priority 2) and y = 1 (priority 1): the component
    # {x, y} has the even top 2, but player 1 wins by looping at y
    x, y = 0, 1
    game = ParityGame(
        owner={x: 1, y: 1},
        priority={x: 2, y: 1},
        succ={x: (y,), y: (x, y)},
    )
    r0, r1 = solve_parity(game)
    assert not r0.vertices and r1.vertices == {x, y}
    with pytest.raises(RuntimeError, match="cycle of top priority 1 through state 1"):
        solvers._check_parity(solvers._DenseParity(game), ([x, y], []), ({}, {}))


def _threshold_game(g, player):
    """The player's threshold game, whose rows `fixed_strategy_extremes` reads."""
    return dense_threshold(g, player)


def test_extremes_fig2_and_fig3():
    g = load_game("fig2.game")
    prod = product_with_strategy(g, load_strategy("fig2_s2s6.strat"))
    ext = fixed_strategy_extremes(prod, _threshold_game(g, 1))
    assert ext[("s1", 0)] == (F(3), F(4))

    g3 = load_game("fig3.game")
    prod3 = product_with_strategy(g3, memoryless(1, {"s1": "s2"}))
    ext3 = fixed_strategy_extremes(prod3, _threshold_game(g3, 1))
    assert ext3[("s1", 0)] == (F(0), F(2))


def test_extremes_absorbing_state():
    g = parse_game(
        "players 2\nmeasure liminf\ninit a\nvertex a 1\nedge a a 7 7\n"
    )
    prod = product_with_strategy(g, memoryless(1, {"a": "a"}))
    assert fixed_strategy_extremes(prod, _threshold_game(g, 1))[("a", 0)] == (F(7), F(7))


def test_worst_case_strategy_achieves_values():
    for measure in PayoffKind:
        for seed in range(10):
            g = random_game(seed, size=4, measure=measure)
            if not measure.prefix_independent:
                continue
            for player in (1, 2):
                aval = zero_sum_value(dense_threshold(g, player), measure)[0]
                wco = worst_case_strategy(g, player)
                s = memoryless(player, wco)
                prod = product_with_strategy(g, s)
                ext = fixed_strategy_extremes(prod, _threshold_game(g, player))
                for (v, m), (lo, _) in ext.items():
                    assert lo == aval[v], (measure, seed, player, v)


@pytest.mark.parametrize(
    "measure", [PayoffKind.INF, PayoffKind.SUP, PayoffKind.LIMINF, PayoffKind.LIMSUP]
)
def test_sweep_strategy_achieves_the_values_on_rebuilt_arenas(measure):
    # INF and SUP tables carry no run-time certificate: on the rebuilt
    # arena, the sweep's memoryless strategy against a minimizing coalition
    # must give exactly aval at every product state
    for size in range(5, 15):
        for seed in range(10):
            g = random_game(seed, size=size, players=2 + seed % 2, measure=measure)
            arena = make_prefix_independent(g).game
            for player in range(1, g.players + 1):
                aval, wcs, _ = zero_sum_value(dense_threshold(arena, player), measure)
                prod = product_with_strategy(arena, memoryless(player, wcs))
                ext = fixed_strategy_extremes(prod, _threshold_game(arena, player))
                for (v, _), (lo, _) in ext.items():
                    assert lo == aval[v], (size, seed, player, v)


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
                aval, strat, _ = zero_sum_value(dense_threshold(g, player), measure)
                assert strat == worst_case_strategy_per_level(g, player, aval), (
                    size, seed, player,
                )


def test_mean_payoff_sigma_achieves_the_values():
    # a game where sigma, read off the value-class energy games, differs
    # from the moves of the whole-arena energy game at each value
    g = random_game(32, size=14, weight_range=(-5, 5), players=3, measure=PayoffKind.MP_INF)
    aval, sigma, _ = zero_sum_value(dense_threshold(g, 3), g.measure)
    prod = product_with_strategy(g, memoryless(3, sigma))
    ext = fixed_strategy_extremes(prod, _threshold_game(g, 3))
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
                aval = zero_sum_value(dense_threshold(g, player), measure)[0]
                cval = one_player_max_value(g, player)
                assert all(aval[v] <= cval[v] for v in g.owner)


def _whole_arena_sweep(g, player: int, measure: PayoffKind) -> dict:
    """Values by solving every threshold game on the whole arena."""
    vals = {}
    for theta in sorted({w[player - 1] for w in g.weights.values()}):
        for v in dense_threshold_region(g, player, measure, theta).vertices:
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
                got = zero_sum_value(dense_threshold(g, player), measure)[0]
                assert got == _whole_arena_sweep(g, player, measure), (size, seed, player)


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
    # seeded set closed under coalition moves (LIMINF needs every vertex to
    # keep a successor inside `within`: the Buchi game it solves gives each
    # max vertex of a trap a move inside the trap)
    for size in (5, 9, 14):
        for seed in range(40):
            g = random_game(seed, size=size, players=2 + seed % 2, measure=measure)
            rng = random.Random(seed)
            for player in range(1, g.players + 1):
                nested = set(g.owner)
                others = [_coalition_closed(g, player, rng)] if measure is PayoffKind.INF else []
                for theta in sorted({w[player - 1] for w in g.weights.values()}):
                    for within in [set(g.owner), *others, nested]:  # nested last
                        want = threshold_region_sweep(g, player, measure, theta, within)
                        got = dense_threshold_region(g, player, measure, theta, within)
                        assert got == want, (size, seed, player, theta, within)
                    nested = want.vertices


def test_dense_threshold_sweep_matches_the_reference_sweep():
    # rebuilt arenas of every extremum measure, every player; a third carry
    # halved weights and a third weights over mixed denominators, so the
    # thresholds are numerators scaled by a common denominator.  Each single
    # threshold game is also solved at a theta below the least weight,
    # strictly between the two least and above the largest weight.
    measures = [PayoffKind.INF, PayoffKind.SUP, PayoffKind.LIMINF, PayoffKind.LIMSUP]
    fractional = 0
    for seed in range(520):
        g = random_game(
            seed, size=4 + seed % 7, weight_range=(-3, 3), players=2 + seed % 2,
            measure=measures[seed % 4],
        )
        if seed % 3:
            weights = {
                e: tuple(x / (2 if seed % 3 == 1 else 1 + i % 3) for x in w)
                for i, (e, w) in enumerate(g.weights.items())
            }
            g = replace(g, weights=weights)
            fractional += any(x.denominator > 1 for w in weights.values() for x in w)
        arena = make_prefix_independent(g).game
        for player in range(1, g.players + 1):
            values, strat, _ = zero_sum_value(dense_threshold(arena, player), g.measure)
            ref_values, ref_strat = reference_zero_sum_value(arena, player, g.measure)
            assert values == ref_values, (seed, player)
            assert list(strat.items()) == list(ref_strat.items()), (seed, player)
            ws = sorted({w[player - 1] for w in arena.weights.values()})
            between = [(ws[0] + ws[1]) / 2] if len(ws) > 1 else []
            for theta in [ws[0] - F(1, 3), *between, ws[-1] + F(1, 7)]:
                got = dense_threshold_region(arena, player, g.measure, theta)
                want = reference_threshold_region(
                    arena, player, g.measure, theta, set(arena.owner)
                )
                assert got == want, (seed, player, theta)
    assert fractional > 300


def test_shortest_cycle_through_matches_reference_search():
    # the graphs' states relabelled to integers in name order, which is the
    # order the solver's successor rows are sorted in
    def rows(graph):
        names = sorted(graph)
        return [sorted(names.index(w) for w in graph[v]) for v in names]

    assert solvers._shortest_cycle(0, rows(DIAMOND)) == [0, 1, 3, 4]  # a b d e
    assert solvers._shortest_cycle(2, rows(DIAMOND)) == [2]  # c
    rng = random.Random(5)
    for _ in range(40):
        names = [f"v{i}" for i in range(rng.randint(2, 9))]
        graph = {v: tuple(rng.sample(names, rng.randint(0, 3))) for v in names}
        for i, v in enumerate(names):
            got = solvers._shortest_cycle(i, rows(graph))
            want = shortest_cycle_through(v, graph.__getitem__)
            assert got == (None if want is None else [names.index(u) for u in want]), (graph, v)


@pytest.mark.parametrize("measure", list(PayoffKind))
def test_shared_witness_lassos_match_per_call_reference(measure):
    # the dense lassos of the value table's levels against the hashed
    # per-call search; a third of the seeds carry weights over mixed
    # denominators, so values and the payoff check run on scaled weights
    scaled_players = 0
    for seed in range(6):
        g = random_game(
            seed, size=6 + seed % 3, weight_range=(-3, 3), players=2, measure=measure
        )
        if seed % 3 == 2:
            g = replace(g, weights={
                e: tuple(x / (1 + i % 3) for x in w)
                for i, (e, w) in enumerate(g.weights.items())
            })
        table = compute_value_table(g)
        arena = table.arena
        for player in (1, 2):
            levels = table.levels[player]
            dt = levels.dt
            shared = solvers._WitnessLassos(dt, arena.measure)
            scaled_players += dt.denom > 1
            w = player_weights(arena, player)
            cases = [(v, table.cval[(player, v)], None) for v in sorted(arena.owner)]
            for r in range(levels.count):
                for exact in (True, False):
                    inside = levels.member(r, exact)
                    allowed = frozenset(v for v, x in zip(dt.verts, inside) if x)
                    coop = one_player_values(
                        allowed,
                        lambda x, allowed=allowed: [t for t in arena.succ[x] if t in allowed],
                        lambda a, b: w[(a, b)],
                        arena.measure,
                        True,
                    )
                    cases += [(v, coop[v], inside) for v in sorted(allowed) if coop[v] is not None]
            for v, value, inside in cases:
                scaled = value * dt.denom
                if scaled.denominator == 1:
                    scaled = scaled.numerator
                got = shared.lasso(dt.idx[v], scaled, inside)
                allowed = None if inside is None else {u for u, x in zip(dt.verts, inside) if x}
                want = witness_lasso_per_call(arena, player, v, value, allowed)
                assert got == want, (seed, player, v, value, allowed)
    assert scaled_players


@pytest.mark.parametrize("measure", [PayoffKind.MP_INF, PayoffKind.MP_SUP])
def test_shared_mean_payoff_lassos_match_per_call_reference_at_scale(measure):
    # larger arenas, where many starts reach the same components and share
    # their Karp means and critical cycles, against the per-call search
    for seed, size in ((1, 30), (2, 60), (3, 120)):
        g = random_game(seed, size=size, weight_range=(-5, 5), players=2, measure=measure)
        table = compute_value_table(g)
        arena = table.arena
        for player in (1, 2):
            levels = table.levels[player]
            dt = levels.dt
            shared = solvers._WitnessLassos(dt, arena.measure)
            cases = [(v, table.cval[(player, v)], None) for v in sorted(arena.owner)]
            for r in range(levels.count):
                inside = levels.member(r, False)
                cases += [
                    (v, table.acval[(player, v)], inside)
                    for v, i in sorted(dt.idx.items()) if levels.rank[i] == r
                ]
            # the shared lassos of every case, in order, and the per-call
            # reference on a seeded sample of them
            got = [shared.lasso(dt.idx[v], value * dt.denom, inside) for v, value, inside in cases]
            # fewer components were analysed than lassos built
            assert len(shared._shared) < len(cases), (seed, player)
            for k in sorted(random.Random(seed * 10 + player).sample(range(len(cases)), 16)):
                v, value, inside = cases[k]
                allowed = None if inside is None else {u for u, x in zip(dt.verts, inside) if x}
                want = witness_lasso_per_call(arena, player, v, value, allowed)
                assert got[k] == want, (seed, player, v, value, allowed)


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
            w = player_weights(g, player)
            low = one_player_values(
                g.owner, g.succ.__getitem__, lambda a, b: w[(a, b)], g.measure, False
            )
            # with the coalition owning every vertex, the zero-sum value is
            # the least reachable cycle mean
            lone = replace(g, owner={v: 3 - player for v in g.owner})
            assert low == brute_zero_sum(lone, player), (seed, player)
            assert one_player_max_value(g, player) == brute_cooperative(g, player)


def test_witness_payoff_check_raises(monkeypatch):
    # a lasso whose re-evaluated payoff misses its value is refused
    g = load_game("fig1.game")
    monkeypatch.setattr(solvers, "_payoff_of_weights", lambda *args: F(99))
    with pytest.raises(RuntimeError, match="witness payoff 99 != 2"):
        cooperative_witness_lasso(g, 1, "v1", F(2))


def test_sccs_match_the_hashed_reference_on_random_digraphs():
    # same components in the same order, members in the same order
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 10)
        succ = [rng.sample(range(n), rng.randint(0, min(3, n))) for _ in range(n)]
        inside = bytearray(rng.random() < 0.8 for _ in range(n))
        roots = [v for v in rng.sample(range(n), n) if inside[v]]
        want = reference_tarjan_sccs(roots, lambda v: [w for w in succ[v] if inside[w]])
        assert solvers._dense_sccs(succ, roots, inside) == want, (succ, inside, roots)


def _rational(g, rng):
    return replace(g, weights={
        e: tuple(x / rng.randint(1, 4) for x in w) for e, w in g.weights.items()
    })


@pytest.mark.parametrize("measure", list(PayoffKind))
def test_dense_one_player_values_match_the_reference(measure):
    # random members, the empty set and single vertices with and without a
    # self-loop, both directions, integer and rational weights
    singles = {True: 0, False: 0}
    for seed in range(16):
        rng = random.Random(seed)
        g = random_game(seed, size=5 + seed % 5, weight_range=(-4, 4), measure=measure)
        if seed % 2:
            g = _rational(g, rng)
        for player in (1, 2):
            dt = dense_threshold(g, player)
            w = player_weights(g, player)
            n = len(dt.verts)
            members = [set(), set(dt.verts), {dt.verts[rng.randrange(n)]}]
            members += [{v for v in dt.verts if rng.random() < 0.6} for _ in range(3)]
            for member in members:
                if len(member) == 1:
                    (v,) = member
                    singles[v in g.succ[v]] += 1
                inside = bytearray(v in member for v in dt.verts)
                for maximize in (False, True):
                    got = solvers._unscaled(
                        solvers._one_player(dt.succ, dt.weight, inside, measure, maximize),
                        dt.denom,
                    )
                    want = reference_one_player_values(
                        member,
                        lambda x, member=member: [t for t in g.succ[x] if t in member],
                        lambda a, b: w[(a, b)],
                        measure,
                        maximize,
                    )
                    assert dict(zip(dt.verts, got)) == {
                        v: want.get(v) for v in dt.verts
                    }, (seed, player, member, maximize)
                    adapter = one_player_values(
                        member,
                        lambda x, member=member: [t for t in g.succ[x] if t in member],
                        lambda a, b: w[(a, b)],
                        measure,
                        maximize,
                    )
                    assert adapter == want, (seed, player, member, maximize)
    assert singles[True] and singles[False]


@pytest.mark.parametrize("count", range(1, 7))
def test_one_player_threshold_search_finds_every_position(count):
    # one component: a self-loop at 0 of weight ws[t] and a cycle through
    # every state carrying each weight once, so the best LIMINF cycle keeps
    # ws[t], whichever position t has among the sorted weights; with the
    # weights negated the least LIMSUP cycle keeps -ws[t]
    ws = [10 * (i + 1) for i in range(count)]
    for t in range(count):
        ring = list(range(count))  # state i -> i + 1 carries ws[i]
        succ = [[(i + 1) % count] for i in ring]
        weight = [[ws[i]] for i in ring]
        if count == 1:
            succ, weight = [[0]], [[ws[t]]]
        else:
            succ[0].append(0)
            weight[0].append(ws[t])
        inside = bytearray(b"\x01") * count
        best = solvers._one_player(succ, weight, inside, PayoffKind.LIMINF, True)
        assert best == [ws[t]] * count, (count, t)
        negated = [[-x for x in row] for row in weight]
        least = solvers._one_player(succ, negated, inside, PayoffKind.LIMSUP, False)
        assert least == [-ws[t]] * count, (count, t)
        for measure, table, maximize in (
            (PayoffKind.LIMINF, weight, True), (PayoffKind.LIMSUP, negated, False)
        ):
            want = reference_one_player_values(
                range(count), succ.__getitem__,
                lambda a, b, table=table: table[a][succ[a].index(b)], measure, maximize,
            )
            got = solvers._one_player(succ, table, inside, measure, maximize)
            assert got == [want[i] for i in range(count)], (count, t, measure)


@pytest.mark.parametrize("measure", list(PayoffKind))
def test_fixed_strategy_extremes_match_the_reference(measure):
    # products of random memoryless strategies, integer and rational weights
    for seed in range(12):
        rng = random.Random(seed)
        g = random_game(seed, size=6 + seed % 4, weight_range=(-3, 3), measure=measure)
        if seed % 2:
            g = _rational(g, rng)
        for player in (1, 2):
            moves = {v: rng.choice(g.succ[v]) for v in sorted(g.owner) if g.owner[v] == player}
            prod = product_with_strategy(g, memoryless(player, moves))

            def wfun(s, t):
                return g.weight(s[0], t[0], player)

            succ = {
                s: [prod.states[j] for j in outs] for s, outs in zip(prod.states, prod.table)
            }
            lo, hi = (
                reference_one_player_values(
                    prod.states, succ.__getitem__, wfun, measure, maximize
                )
                for maximize in (False, True)
            )
            want = {s: (lo[s], hi[s]) for s in prod.states}
            got = fixed_strategy_extremes(prod, _threshold_game(g, player))
            assert got == want, (seed, player)


def _scaled_route(g, player, verts):
    """The threshold weights as the edge-keyed reference scaling gives them."""
    denom, scaled = scaled_weights(g, player)
    weight = [[scaled[(v, w)] for w in g.succ[v]] for v in verts]
    ints = sorted(set(scaled.values()))
    return {
        "weight": weight,
        "denom": denom,
        "ints": ints,
        "levels": [Fraction(x, denom) for x in ints],
        "lo": [min(row) for row in weight],
        "hi": [max(row) for row in weight],
    }


def test_dense_threshold_weights_match_the_scaled_weights():
    # the rebuilt inf/sup arenas and prefix-independent games, integer and
    # rational weights, on a shared dense arena and on one built alone
    texts = [*seeded_game_texts(), *seeded_game_texts(
        (PayoffKind.LIMINF, PayoffKind.LIMSUP, PayoffKind.MP_INF, PayoffKind.MP_SUP)
    )]
    for text in texts:
        arena = make_prefix_independent(parse_game(text)).game
        dense = solvers._DenseGraph(arena)
        for player in range(1, arena.players + 1):
            want = _scaled_route(arena, player, dense.verts)
            for dt in (solvers._DenseThreshold(dense, player), dense_threshold(arena, player)):
                got = {key: getattr(dt, key) for key in want}
                assert got == want, (text, player)
                assert all(type(x) is int for row in dt.weight for x in row)
