"""Game model, file format, and lasso payoff tests."""

import random
from fractions import Fraction

import pytest

from admgames import (
    Game,
    GameFormatError,
    Lasso,
    PayoffKind,
    make_prefix_independent,
    parse_game,
    payoff_of_lasso,
    serialize_game,
    validate,
)
from admgames import games
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


def _play(lasso, n):
    """The first n vertices of the play a lasso stands for."""
    word = list(lasso.prefix)
    while len(word) < n:
        word += lasso.cycle
    return word[:n]


def test_lasso_normal_form():
    assert Lasso(("v1", "v2", "v4"), ("v2", "v4")).normal() == Lasso(("v1",), ("v2", "v4"))
    assert Lasso(("a", "b", "a"), ("b", "a") * 3).normal() == Lasso((), ("a", "b"))
    assert Lasso(("a",), ("a", "a")).normal() == Lasso((), ("a",))
    rng = random.Random(3)
    for _ in range(300):
        prefix = tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        cycle = tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        normal = Lasso(prefix, cycle).normal()
        assert normal.normal() == normal
        assert len(normal.cycle) <= len(cycle) and len(normal.prefix) <= len(prefix)
        # the same play, written with its cycle repeated or rotated into the
        # prefix, has the same normal form
        k = rng.randint(0, len(cycle))
        for other in (
            Lasso(prefix, cycle * 2),
            Lasso(prefix + cycle[:k], cycle[k:] + cycle[:k]),
        ):
            assert _play(other, 30) == _play(normal, 30)
            assert other.normal() == normal


def test_comments_and_blank_lines_ignored():
    g = parse_game(fixture_text("fig1.game"))
    assert g.players == 2


def _edges_game(*weights: str) -> str:
    """One-player game a -> b -> c -> c whose edges carry `weights`, in
    order, on lines 7, 8 and 9."""
    return (
        "players 1\nmeasure inf\ninit a\nvertex a 1\nvertex b 1\nvertex c 1\n"
        "edge a b {}\nedge b c {}\nedge c c {}\n".format(*weights)
    )


@pytest.mark.parametrize("first", [0, 1, 2])
def test_bad_weight_reported_at_its_first_line(first):
    # the same bad token again on every later line; no line caches a failure
    weights = ["1"] * first + ["1/0"] * (3 - first)
    with pytest.raises(GameFormatError) as exc:
        parse_game(_edges_game(*weights))
    assert str(exc.value) == f"line {7 + first}: bad rational '1/0'"


def test_each_distinct_weight_token_parsed_once(monkeypatch):
    calls = []
    parse_rational = games.parse_rational

    def counted(text):
        calls.append(text)
        return parse_rational(text)

    monkeypatch.setattr(games, "parse_rational", counted)
    g = parse_game(
        "players 2\nmeasure liminf\ninit a\nvertex a 1\nvertex b 2\n"
        "edge a b 1/2 -3\nedge b a 2/4 1/2\nedge a a -3 1/2\nedge b b 0 -0\n"
    )
    assert sorted(calls) == ["-0", "-3", "0", "1/2", "2/4"]
    assert g.weights[("a", "b")] == (F(1, 2), F(-3))


@pytest.mark.parametrize("tokens", [("1/2", "2/4"), ("0", "-0")])
def test_value_equal_tokens_give_one_weight_and_one_rebuilt_level(tokens):
    same = parse_game(_edges_game(tokens[0], tokens[0], tokens[0]))
    mixed = parse_game(_edges_game(tokens[0], tokens[1], tokens[1]))
    assert mixed.weights == same.weights
    assert len({w for w in mixed.weights.values()}) == 1
    rebuilt, want = make_prefix_independent(mixed), make_prefix_independent(same)
    assert rebuilt.back == want.back and rebuilt.game.weights == want.game.weights
    assert len({r for _, r in rebuilt.back.values()} - {(None,)}) == 1
