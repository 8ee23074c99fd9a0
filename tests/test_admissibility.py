"""Admissibility checking and admissible-strategy construction."""

import pytest

from admgames import (
    GameFormatError,
    MooreStrategy,
    PayoffKind,
    check_strategy_admissible,
    compute_value_table,
    construct_sco,
    construct_wco_candidate,
    parse_strategy,
    serialize_strategy,
)
from admgames.oracle import random_game

from helpers import (
    load_game,
    load_strategy,
    memoryless,
    other_vertices,
    own_vertices,
    profiles,
    switch_dominator,
    weakly_dominates,
)


def counting_strategy(k: int) -> MooreStrategy:
    """Move to the loop k times, then leave to the left terminal."""
    return MooreStrategy(
        player=1,
        memory=k + 1,
        init_mem=0,
        update={(m, "s2"): min(m + 1, k) for m in range(k + 1)},
        moves={(m, "s1"): ("s2" if m < k else "t1") for m in range(k + 1)},
    )


def test_fig2_rejection_with_exact_witness():
    g = load_game("fig2.game")
    v = check_strategy_admissible(g, load_strategy("fig2_s2s6.strat"))
    assert not v.admissible
    assert (v.vertex, v.memory) == ("s1", 0)
    assert v.violated == "eq3"
    assert (v.strat_max, v.aval, v.strat_min) == (4, 5, 3)
    assert v.strat_max <= v.aval and v.strat_min < v.aval
    assert v.witness == ("s1",)


def test_fig2_accepted_strategies():
    g = load_game("fig2.game")
    assert check_strategy_admissible(g, load_strategy("fig2_s2s5.strat")).admissible
    assert check_strategy_admissible(g, load_strategy("fig2_s3.strat")).admissible


def test_fig3_only_looping_is_admissible():
    g = load_game("fig3.game")
    t = compute_value_table(g)
    assert check_strategy_admissible(g, load_strategy("fig3_inf.strat"), t).admissible
    for k in range(6):
        v = check_strategy_admissible(g, counting_strategy(k), t)
        assert not v.admissible
        assert v.violated == "eq4"
        assert v.vertex == "s1" and v.memory == k
        assert (v.aval, v.acval) == (1, 2)
        assert v.strat_min == v.strat_max == v.aval


def test_fig1_player2_verdicts():
    g = load_game("fig1.game")
    v = check_strategy_admissible(g, load_strategy("fig1_p2_return.strat"))
    assert not v.admissible and v.violated == "eq3"
    assert (v.vertex, v.memory) == ("v2", 0)
    assert v.witness == ("v1", "v2")
    assert check_strategy_admissible(g, load_strategy("fig1_p2_stay.strat")).admissible


def test_checker_rejects_malformed_strategies():
    g = load_game("fig3.game")
    with pytest.raises(GameFormatError, match="player 5"):
        check_strategy_admissible(g, memoryless(5, {"s1": "s2"}))
    with pytest.raises(GameFormatError, match="not an edge"):
        check_strategy_admissible(g, memoryless(1, {"s1": "t2"}))
    with pytest.raises(GameFormatError, match="missing move"):
        check_strategy_admissible(g, memoryless(1, {}))


def test_verdicts_deterministic():
    g = load_game("fig1.game")
    s = load_strategy("fig1_p2_return.strat")
    a = check_strategy_admissible(g, s)
    b = check_strategy_admissible(g, s)
    assert a == b


def test_reported_inequalities_hold_exactly():
    for measure in (PayoffKind.LIMINF, PayoffKind.LIMSUP, PayoffKind.MP_INF):
        for seed in range(10):
            g = random_game(seed, size=4, measure=measure, max_out_degree=2)
            t = compute_value_table(g)
            for sg in profiles(g, own_vertices(g, 1)):
                v = check_strategy_admissible(g, memoryless(1, sg), t)
                if v.admissible:
                    continue
                if v.violated == "eq3":
                    assert v.strat_max <= v.aval and v.strat_min < v.aval
                else:
                    assert v.strat_min == v.strat_max == v.aval < v.acval


def test_sco_fixture_behaviour():
    g = load_game("fig3.game")
    s = construct_sco(g, 1)
    # cooperation can beat the guarantee at s1, so the strategy keeps looping
    assert s.move(s.init_mem, "s1") == "s2"
    assert check_strategy_admissible(g, s).admissible

    g1 = load_game("fig1.game")
    s1 = construct_sco(g1, 1)
    assert s1.move(s1.init_mem, "v1") == "v2"
    assert check_strategy_admissible(g1, s1).admissible


def test_sco_single_successor_game():
    gtext = (
        "players 1\nmeasure liminf\ninit a\n"
        "vertex a 1\nvertex b 1\nedge a b 1\nedge b a 1\n"
    )
    from admgames import parse_game

    g = parse_game(gtext)
    s = construct_sco(g, 1)
    assert s.move(s.init_mem, "a") == "b"
    assert check_strategy_admissible(g, s).admissible


def test_sco_admissible_across_measures():
    for measure in PayoffKind:
        for seed in range(12):
            g = random_game(
                seed,
                size=3 + seed % 3,
                measure=measure,
                max_out_degree=2 if not measure.prefix_independent else 3,
            )
            t = compute_value_table(g)
            for player in (1, 2):
                s = construct_sco(g, player, t)
                assert check_strategy_admissible(g, s, t).admissible, (measure, seed)


def test_wco_fig1_verified_fig3_not():
    g1 = load_game("fig1.game")
    s, ok = construct_wco_candidate(g1, 1)
    assert ok
    assert check_strategy_admissible(g1, s).admissible
    g3 = load_game("fig3.game")
    _, ok3 = construct_wco_candidate(g3, 1)
    assert not ok3  # no strategy keeps the guarantee and the full cooperation here


def test_wco_single_successor_game():
    from admgames import parse_game

    g = parse_game(
        "players 1\nmeasure limsup\ninit a\nvertex a 1\nedge a a 2\n"
    )
    s, ok = construct_wco_candidate(g, 1)
    assert ok


def test_wco_verified_implies_admissible():
    for seed in range(40):
        g = random_game(seed, size=5, measure=PayoffKind.LIMINF)
        t = compute_value_table(g)
        for player in (1, 2):
            s, ok = construct_wco_candidate(g, player, t)
            if ok:
                assert check_strategy_admissible(g, s, t).admissible, (seed, player)


def test_constructed_strategies_serialize():
    g = load_game("fig2.game")
    s = construct_sco(g, 1)
    assert parse_strategy(serialize_strategy(s)) == s


def test_checker_agrees_with_memoryless_dominance_probe():
    """On small prefix-independent games: accepted strategies admit no
    memoryless dominator, and every rejection yields a switch strategy that
    weakly dominates the rejected one against all memoryless adversaries."""
    for measure in (PayoffKind.LIMINF, PayoffKind.LIMSUP, PayoffKind.MP_INF):
        for seed in range(12):
            g = random_game(seed, size=3 + seed % 3, measure=measure, max_out_degree=2)
            t = compute_value_table(g)
            player = 1
            taus = list(profiles(g, other_vertices(g, player)))
            sigmas = list(profiles(g, own_vertices(g, player)))
            for sg in sigmas:
                verdict = check_strategy_admissible(g, memoryless(player, sg), t)
                if verdict.admissible:
                    for other in sigmas:
                        if other == sg:
                            continue
                        assert not weakly_dominates(
                            g, player, memoryless(player, other), sg, taus
                        ), (measure, seed, sg, other)
                else:
                    dom = switch_dominator(g, t, player, sg, verdict)
                    assert weakly_dominates(g, player, dom, sg, taus), (
                        measure,
                        seed,
                        sg,
                        verdict,
                    )
