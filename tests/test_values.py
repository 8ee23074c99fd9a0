"""Value table assembly and history-level values."""

from fractions import Fraction

import pytest

from admgames import PayoffKind, compute_value_table, parse_game, value_at_history
from admgames import values
from admgames.oracle import random_game

from helpers import load_game

F = Fraction


def test_fig1_mean_payoff_table():
    g = load_game("fig1.game")
    t = compute_value_table(g)
    for v in g.owner:
        assert t.at(1, v) == (F(1), F(2), F(2))
    assert t.at(2, "v1") == (F(0), F(2), F(2))
    assert t.at(2, "v2") == (F(2), F(2), F(2))
    assert t.at(2, "v3") == (F(0), F(2), F(2))
    assert t.avalues[1] == (F(1),)
    assert t.avalues[2] == (F(0), F(2))


def test_fig2_liminf_table():
    g = load_game("fig2.game")
    t = compute_value_table(g)
    assert t.at(1, "s1")[0] == 5
    assert t.at(1, "s2")[0] == 3
    assert t.at(1, "s1")[2] == 10


def test_acval_equals_aval_when_no_slack():
    for seed in range(10):
        g = random_game(seed, size=5, measure=PayoffKind.LIMSUP)
        t = compute_value_table(g)
        for player in (1, 2):
            for v in t.arena.owner:
                a, c, ac = t.at(player, v)
                assert a <= ac <= c
                if a == c:
                    assert ac == a


def test_avalues_are_exactly_the_distinct_entries():
    for seed in range(8):
        g = random_game(seed, size=5, measure=PayoffKind.LIMINF)
        t = compute_value_table(g)
        for player in (1, 2):
            want = sorted({t.aval[(player, v)] for v in t.arena.owner})
            assert list(t.avalues[player]) == want


def test_adversary_moves_never_drop_aval():
    for measure in (PayoffKind.LIMINF, PayoffKind.MP_INF, PayoffKind.INF):
        for seed in range(8):
            g = random_game(seed, size=5, measure=measure)
            t = compute_value_table(g)
            arena = t.arena
            for player in (1, 2):
                for (u, v) in arena.weights:
                    if arena.owner[u] != player:
                        assert t.aval[(player, v)] >= t.aval[(player, u)]


def test_value_at_history_fig2():
    g = load_game("fig2.game")
    t = compute_value_table(g)
    assert value_at_history(g, ("s1", "s2"), 1, t)[0] == 3
    assert value_at_history(g, ("s1",), 1, t) == t.at(1, "s1")


def test_value_at_history_inf_records_matter():
    text = (
        "players 1\nmeasure inf\ninit a\n"
        "vertex a 1\nvertex b 1\nvertex c 1\n"
        "edge a b 3\nedge b c 5\nedge c c 5\n"
    )
    g = parse_game(text)
    t = compute_value_table(g)
    # after seeing the weight-3 edge the best achievable infimum is pinned at 3
    assert value_at_history(g, ("a", "b"), 1, t) == (F(3), F(3), F(3))
    # while the fresh value at b itself would be 5
    tb_fresh = compute_value_table(parse_game(text.replace("init a", "init b")))
    assert tb_fresh.at(1, tb_fresh.arena.init)[0] == 5


def test_value_at_history_rejects_bad_history():
    g = load_game("fig1.game")
    with pytest.raises(ValueError, match="init"):
        value_at_history(g, ("v2", "v1"), 1)
    with pytest.raises(ValueError, match="non-edge"):
        value_at_history(g, ("v1", "v4"), 1)


def test_value_sandwich_check_raises(monkeypatch):
    # an aval above every cooperative value breaks aval <= acval <= cval
    real = values.zero_sum_value

    def raised(*args, **kwargs):
        aval, moves = real(*args, **kwargs)
        return {v: x + 100 for v, x in aval.items()}, moves

    monkeypatch.setattr(values, "zero_sum_value", raised)
    with pytest.raises(RuntimeError, match="value sandwich violated at player 1, vertex v1"):
        compute_value_table(load_game("fig1.game"))


def test_level_cycle_check_raises(monkeypatch):
    # a one-player solve that finds no cycle leaves a vertex without acval
    monkeypatch.setattr(values, "_one_player", lambda succ, *args: [None] * len(succ))
    with pytest.raises(RuntimeError, match="subgraph must keep a cycle reachable from v1"):
        compute_value_table(load_game("fig1.game"))
