"""Brute-force oracle self-checks and random game generation."""

import random
from itertools import product

import pytest

from admgames import Lasso, PayoffKind, payoff_of_lasso, serialize_game, validate
from admgames.oracle import (
    OracleBoundError,
    _best_payoff,
    _lassos_from,
    _simple_cycles,
    brute_acval,
    brute_cooperative,
    brute_zero_sum,
    random_game,
)

from helpers import load_game


def test_random_game_deterministic():
    a = random_game(1, size=4)
    b = random_game(1, size=4)
    assert serialize_game(a) == serialize_game(b)
    assert serialize_game(a) != serialize_game(random_game(2, size=4))


def test_random_game_valid_and_bounded():
    for seed in range(20):
        g = random_game(seed, size=6, weight_range=(-2, 2))
        assert validate(g) == []
        assert len(g.owner) == 6
        for w in g.weights.values():
            assert all(-2 <= x <= 2 for x in w)


def test_brute_fig1_and_fig2_values():
    g = load_game("fig1.game")
    assert all(v == 1 for v in brute_zero_sum(g, 1).values())
    assert brute_cooperative(g, 1)["v1"] == 2
    g2 = load_game("fig2.game")
    assert brute_zero_sum(g2, 1, bound=12)["s1"] == 5
    assert brute_acval(g2, 1, "s1", bound=12) == 10


def test_brute_fig3_values():
    g = load_game("fig3.game")
    assert brute_cooperative(g, 1)["s1"] == 2
    assert brute_acval(g, 1, "s1") == 2


def test_brute_chain_to_absorbing_loop():
    from admgames import parse_game

    g = parse_game(
        "players 1\nmeasure liminf\ninit a\n"
        "vertex a 1\nvertex b 1\nvertex c 1\n"
        "edge a b 9\nedge b c 9\nedge c c 4\n"
    )
    assert brute_zero_sum(g, 1) == {"a": 4, "b": 4, "c": 4}


def test_brute_sandwich():
    for seed in range(10):
        g = random_game(seed, size=4, measure=PayoffKind.LIMSUP)
        for player in (1, 2):
            a = brute_zero_sum(g, player)
            c = brute_cooperative(g, player)
            for v in g.owner:
                ac = brute_acval(g, player, v, aval=a)
                assert a[v] <= ac <= c[v]


def test_bound_enforced():
    g = random_game(0, size=6)
    with pytest.raises(OracleBoundError):
        brute_zero_sum(g, 1, bound=4)


def _naive_paths(g, nodes):
    """Every simple path inside `nodes`, from all vertex tuples up to length |nodes|."""
    return [
        seq
        for k in range(1, len(nodes) + 1)
        for seq in product(sorted(nodes), repeat=k)
        if len(set(seq)) == k and all(g.has_edge(u, v) for u, v in zip(seq, seq[1:]))
    ]


def test_lasso_enumeration_matches_naive_vertex_sequences():
    rng = random.Random(0)
    self_loops = 0
    for seed in range(60):
        for measure in PayoffKind:
            g = random_game(seed, size=1 + seed % 4, measure=measure)
            self_loops += sum(u == v for u, v in g.weights)
            everything = _naive_paths(g, g.owner.keys())
            least_first = [c for c in everything if g.has_edge(c[-1], c[0]) and c[0] == min(c)]
            assert sorted(_simple_cycles(g, g.owner.keys())) == sorted(least_first)
            for start in sorted(g.owner):
                nodes = {v for v in g.owner if v == start or rng.random() < 0.75}
                paths = _naive_paths(g, nodes)
                cycles = [c for c in paths if g.has_edge(c[-1], c[0])]
                naive = {
                    Lasso(prefix=p[:-1], cycle=c)
                    for p in paths
                    if p[0] == start
                    for c in cycles
                    if c[0] == p[-1]
                }
                assert set(_lassos_from(g, start, nodes)) == naive, (seed, start, nodes)
                for player in (1, 2):
                    pays = [payoff_of_lasso(measure, g, player, lasso) for lasso in naive]
                    assert _best_payoff(g, player, start, nodes) == max(pays, default=None)
    assert self_loops
