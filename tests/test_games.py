"""Game model, file format, and lasso payoff tests."""

import random
from fractions import Fraction

import pytest

from admgames import (
    Game,
    GameFormatError,
    Lasso,
    PayoffKind,
    parse_game,
    payoff_of_lasso,
    serialize_game,
    validate,
)
from admgames.oracle import random_game, random_lasso

from helpers import fixture_text, load_game

F = Fraction


def test_parse_fig1():
    g = load_game("fig1.game")
    assert g.players == 2
    assert len(g.owner) == 4
    assert len(g.weights) == 6
    assert g.measure is PayoffKind.MP_INF
    assert g.owner["v1"] == 1 and g.owner["v2"] == 2
    assert g.weight("v2", "v4", 2) == 2


def test_missing_init_rejected():
    text = "players 1\nmeasure inf\nvertex a 1\nedge a a 0\n"
    with pytest.raises(GameFormatError, match="missing init"):
        parse_game(text)


def test_minimal_self_loop_game():
    g = parse_game("players 1\nmeasure liminf\ninit a\nvertex a 1\nedge a a 3\n")
    assert g.vertices == ("a",)
    assert g.successors("a") == ("a",)


def test_syntax_error_carries_line_number():
    with pytest.raises(GameFormatError, match="line 3"):
        parse_game("players 1\nmeasure inf\nvertex a\n")


def test_weight_arity_mismatch():
    text = "players 2\nmeasure inf\ninit a\nvertex a 1\nedge a a 0\n"
    with pytest.raises(GameFormatError, match="weights"):
        parse_game(text)


def test_duplicate_edge_rejected():
    text = (
        "players 1\nmeasure inf\ninit a\nvertex a 1\nedge a a 0\nedge a a 1\n"
    )
    with pytest.raises(GameFormatError, match="duplicate edge"):
        parse_game(text)


@pytest.mark.parametrize(
    "name", ["fig1.game", "fig1_liminf.game", "fig2.game", "fig3.game"]
)
def test_round_trip_fixtures(name):
    g = load_game(name)
    again = parse_game(serialize_game(g))
    assert again == g
    # canonical text is a fixpoint
    assert serialize_game(again) == serialize_game(g)


def test_round_trip_random_games():
    for seed in range(30):
        g = random_game(seed, size=3 + seed % 4, measure=PayoffKind.SUP)
        assert parse_game(serialize_game(g)) == g


def test_fig2_encoding_shape():
    g = load_game("fig2.game")
    leaves = [v for v in g.owner if v.startswith("t")]
    internal = [v for v in g.owner if v.startswith("s")]
    assert len(internal) == 6
    assert len(leaves) == 6
    for t in leaves:
        assert g.successors(t) == (t,)
        value = F(int(t[1:]))
        assert g.weight(t, t, 1) == value


def test_validate_reports_sink_and_owner():
    g = Game(
        players=2,
        owner={"a": 1, "b": 3},
        weights={("a", "b"): (F(0), F(0))},
        init="a",
        measure=PayoffKind.INF,
    )
    problems = validate(g)
    assert any("b has no outgoing edge" in p for p in problems)
    assert any("owner 3" in p for p in problems)


def test_validate_lists_every_problem_in_order():
    # several vertices without out-edges, an undeclared endpoint and an
    # undeclared init: one line each, owners first, sinks last in name order
    g = Game(
        players=2,
        owner={"d": 1, "a": 2, "c": 1, "b": 3},
        weights={("a", "x"): (F(0), F(0)), ("c", "a"): (F(1),), ("a", "b"): (F(0), F(0))},
        init="z",
        measure=PayoffKind.INF,
    )
    assert validate(g) == [
        "vertex b: owner 3 not in 1..2",
        "init vertex z is not declared",
        "edge (a, x): undeclared vertex x",
        "edge (c, a): 1 weights for 2 players",
        "vertex b has no outgoing edge",
        "vertex d has no outgoing edge",
    ]


def test_validate_fixtures_clean():
    for name in ["fig1.game", "fig2.game", "fig3.game"]:
        assert validate(load_game(name)) == []


def test_payoff_fig1_examples():
    g = load_game("fig1.game")
    mp = payoff_of_lasso(PayoffKind.MP_INF, g, 1, Lasso((), ("v2", "v4")))
    assert mp == 2
    li = payoff_of_lasso(PayoffKind.LIMINF, g, 2, Lasso(("v1",), ("v2", "v1")))
    assert li == 0


def test_payoff_self_loop_zero_everywhere():
    g = parse_game("players 1\nmeasure liminf\ninit a\nvertex a 1\nedge a a 0\n")
    loop = Lasso((), ("a",))
    for m in PayoffKind:
        assert payoff_of_lasso(m, g, 1, loop) == 0


def test_payoff_inconsistent_lasso_rejected():
    g = load_game("fig1.game")
    with pytest.raises(ValueError, match="non-edge"):
        payoff_of_lasso(PayoffKind.SUP, g, 1, Lasso((), ("v1", "v4")))


def test_cycle_rotation_invariance_and_measure_order():
    rng = random.Random(11)
    for seed in range(20):
        g = random_game(seed, size=5, measure=PayoffKind.LIMINF)
        for _ in range(50):
            lasso = random_lasso(g, rng)
            for player in (1, 2):
                vals = {
                    m: payoff_of_lasso(m, g, player, lasso) for m in PayoffKind
                }
                assert (
                    vals[PayoffKind.INF]
                    <= vals[PayoffKind.LIMINF]
                    <= vals[PayoffKind.MP_INF]
                    == vals[PayoffKind.MP_SUP]
                    <= vals[PayoffKind.LIMSUP]
                    <= vals[PayoffKind.SUP]
                )
                # rotating the cycle is invisible to prefix-independent measures
                c = lasso.cycle
                for k in range(1, len(c)):
                    rot = Lasso(
                        prefix=lasso.prefix + c[:k], cycle=c[k:] + c[:k]
                    )
                    for m in (
                        PayoffKind.LIMINF,
                        PayoffKind.LIMSUP,
                        PayoffKind.MP_INF,
                        PayoffKind.MP_SUP,
                    ):
                        assert payoff_of_lasso(m, g, player, rot) == vals[m]


def test_comments_and_blank_lines_ignored():
    g = parse_game(fixture_text("fig1.game"))
    assert g.players == 2
