"""Admissibility checking and admissible-strategy construction."""

import random

import pytest

from admgames import (
    GameFormatError,
    Lasso,
    MooreStrategy,
    PayoffKind,
    check_strategy_admissible,
    compute_value_table,
    construct_sco,
    construct_wco_candidate,
    parse_game,
    product_with_strategy,
    parse_strategy,
    payoff_of_lasso,
    serialize_strategy,
)
from admgames import admissibility, transform
from admgames.admissibility import strategy_from_outcome
from admgames.oracle import random_game, random_lasso

from helpers import (
    bfs_path,
    load_game,
    load_strategy,
    memoryless,
    other_vertices,
    own_vertices,
    profiles,
    reference_pursue,
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


def _random_moore(g, player: int, rng: random.Random) -> MooreStrategy:
    """A seeded Moore strategy of memory 1-3 that moves and updates anywhere."""
    k = rng.randint(1, 3)
    return MooreStrategy(
        player=player,
        memory=k,
        init_mem=rng.randrange(k),
        update={(m, v): rng.randrange(k) for m in range(k) for v in sorted(g.owner)},
        moves={
            (m, v): rng.choice(g.succ[v])
            for m in range(k) for v in sorted(g.owner) if g.owner[v] == player
        },
    )


def test_rejection_witness_is_a_shortest_history_to_the_violation():
    # the witness is a history of g from its initial vertex, consistent
    # with the strategy, that ends at the reported vertex and memory; on
    # prefix-independent measures the product is over g itself, and the
    # witness is a shortest path there
    rejected = checked = 0
    for measure in PayoffKind:
        for seed in range(16):
            g = random_game(seed, size=4 + seed % 4, measure=measure)
            table = compute_value_table(g)
            rng = random.Random(seed)
            for player in (1, 2):
                for _ in range(3):
                    s = _random_moore(g, player, rng)
                    verdict = check_strategy_admissible(g, s, table)
                    if verdict.admissible:
                        continue
                    rejected += 1
                    w = verdict.witness
                    case = (measure, seed, player, s)
                    assert w[0] == g.init, case
                    m = s.init_mem
                    for v, v2 in zip(w, w[1:]):
                        assert v2 in g.succ[v], case
                        if g.owner[v] == player:
                            assert v2 == s.move(m, v), case
                        m = s.next_memory(m, v2)
                    assert (w[-1], m) == (verdict.vertex, verdict.memory), case
                    if measure.prefix_independent:
                        prod = product_with_strategy(g, s)
                        index = {st: i for i, st in enumerate(prod.states)}
                        path = bfs_path(
                            prod.states[0],
                            (verdict.vertex, verdict.memory).__eq__,
                            lambda st: [prod.states[j] for j in prod.table[index[st]]],
                        )
                        assert len(w) == len(path), case
                        checked += 1
    assert rejected > 150 and checked > 100, (rejected, checked)


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


def test_pursuit_matches_the_per_position_reference():
    # one mode per normal form and keep class lays out the same minimal
    # strategy as one mode per lasso position.  Every start's lasso is
    # built, and is the one a second builder gives when called in reverse
    # order; its keep class is False for sco and the start's aval for wco.
    compared = 0
    for measure in PayoffKind:
        for seed in range(8):
            g = random_game(seed, size=5 + seed % 4, players=2 + seed % 2, measure=measure)
            table = compute_value_table(g)
            arena = table.arena
            for player in range(1, g.players + 1):
                aval = {v: table.aval[(player, v)] for v in arena.owner}
                sco_starts, sco_make = admissibility._sco_lassos(table, player)
                wco_starts, wco_make = admissibility._wco_lassos(table, player)
                assert set(sco_starts) == {v for v in aval if table.cval[(player, v)] > aval[v]}
                assert list(wco_starts) == list(arena.owner)
                sco, wco = {}, {}
                for lassos, starts, make, cls, build, value in (
                    (sco, sco_starts, sco_make, lambda v: False,
                     admissibility._sco_lassos, table.cval),
                    (wco, wco_starts, wco_make, aval.__getitem__,
                     admissibility._wco_lassos, table.acval),
                ):
                    again_starts, again_make = build(table, player)
                    backward = {v: again_make(v) for v in reversed(list(again_starts))}
                    for v in starts:
                        lassos[v], c = make(v)
                        assert (lassos[v], c) == backward[v], (measure, seed, v)
                        assert c == cls(v), (measure, seed, v)
                        assert lassos[v].start == v
                        got = payoff_of_lasso(arena.measure, arena, player, lassos[v])
                        assert got == value[(player, v)], (measure, seed, v)
                lasso = random_lasso(table.arena, random.Random(seed))
                pairs = [
                    (
                        construct_sco(g, player, table),
                        reference_pursue(table, player, sco, lambda a, tv: tv in sco),
                    ),
                    (
                        construct_wco_candidate(g, player, table)[0],
                        reference_pursue(
                            table, player, wco, lambda a, tv: aval[tv] == aval[a]
                        ),
                    ),
                    (
                        strategy_from_outcome(g, player, lasso, table),
                        reference_pursue(
                            table, player, {**sco, None: lasso},
                            lambda a, tv: a is None or tv in sco, ("lasso", None, 0),
                        ),
                    ),
                ]
                for s, ref in pairs:
                    assert serialize_strategy(s) == serialize_strategy(ref), (measure, seed)
                    compared += ref.memory > 1
    assert compared > 50  # many of the layouts have memory


# from x and from z the lassos join at y: y (c d)^w is one suffix.  At d
# worst-case play leaves for e, the lasso goes back to c.
_JOINING = parse_game(
    "players 2\nmeasure liminf\ninit x\n"
    "vertex x 2\nvertex z 1\nvertex y 1\nvertex c 1\nvertex d 1\nvertex e 1\n"
    "edge x y 0 0\nedge x z 0 0\nedge z y 0 0\nedge y c 0 0\n"
    "edge c d 1 0\nedge d c 0 0\nedge d e 5 0\nedge e e 5 0\n"
)
_JOINING_LASSOS = {
    "x": Lasso(prefix=("x", "y"), cycle=("c", "d")),
    "z": Lasso(prefix=("z", "y"), cycle=("c", "d")),
}


def _counting(expanded):
    """A `moore_layout` that records every mode it expands in `expanded`."""
    layout = transform.moore_layout

    def laying_out(g, player, origin, start, expand):
        def counted(mode):
            expanded.append(mode)
            return expand(mode)

        return layout(g, player, origin, start, counted)

    return laying_out


def test_lassos_that_share_a_suffix_expand_it_once(monkeypatch):
    table = compute_value_table(_JOINING)
    lassos = _JOINING_LASSOS
    expanded, per_position = [], []
    monkeypatch.setattr(admissibility, "moore_layout", _counting(expanded))
    monkeypatch.setattr(transform, "moore_layout", _counting(per_position))
    s = admissibility._pursue(table, 1, lassos, lambda a: (lassos[a], None), lambda c, tv: True)
    ref = reference_pursue(table, 1, lassos, lambda a, tv: True)
    assert serialize_strategy(s) == serialize_strategy(ref)
    assert len(per_position) == 8 + 1  # each lasso's four positions, e's worst case
    at = [lassos[a].vertices()[pos] for kind, a, pos in expanded if kind == "lasso"]
    assert sorted(at) == ["c", "d", "x", "y", "z"]  # y (c d)^w once


def test_lassos_that_share_a_suffix_but_not_a_class_stay_apart():
    # z's lasso gives up at c, x's does not: their y (c d)^w modes differ
    table = compute_value_table(_JOINING)
    lassos = _JOINING_LASSOS
    s = admissibility._pursue(
        table, 1, lassos, lambda a: (lassos[a], a == "x"), lambda kept, tv: kept or tv != "c"
    )
    ref = reference_pursue(table, 1, lassos, lambda a, tv: a == "x" or tv != "c")
    assert serialize_strategy(s) == serialize_strategy(ref)

    def move_after(history):
        m = s.init_mem
        for v in history[1:]:
            m = s.next_memory(m, v)
        return s.move(m, history[-1])

    assert (move_after("xycd"), move_after("xzycd")) == ("c", "e")


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
