"""Prefix-independence rebuild and strategy-product tests."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from admgames import (
    GameFormatError,
    MooreStrategy,
    PayoffKind,
    check_strategy_admissible,
    compute_value_table,
    construct_sco,
    construct_wco_candidate,
    lift_lasso,
    make_prefix_independent,
    parse_game,
    parse_spec,
    parse_strategy,
    payoff_of_lasso,
    product_with_strategy,
    serialize_strategy,
    synthesize_assume_admissible,
    verify_strategy_wins,
)
from admgames import admissibility, outcomes, transform
from admgames.admissibility import strategy_from_outcome
from admgames.oracle import random_game, random_lasso
from admgames.solvers import explore
from admgames.transform import moore_layout, validate_strategy

from helpers import (
    FIXTURES,
    expanded,
    load_game,
    load_strategy,
    memoryless,
    mode_layout,
    reference_make_prefix_independent,
    seeded_game_texts,
)

F = Fraction


def test_identity_for_prefix_independent_measures():
    g = load_game("fig1_liminf.game")
    tg = make_prefix_independent(g)
    assert tg.identity
    assert tg.game is g
    assert tg.origin("v2") == "v2"


def test_inf_records_minimum_along_path():
    text = (
        "players 1\nmeasure inf\ninit a\n"
        "vertex a 1\nvertex b 1\nvertex c 1\n"
        "edge a b 3\nedge b c 5\nedge c c 5\n"
    )
    tg = make_prefix_independent(parse_game(text))
    arena = tg.game
    tb = tg.step[(arena.init, "b")]
    assert tg.back[tb] == ("b", (F(3),))
    assert arena.weight(arena.init, tb, 1) == 3
    tc = tg.step[(tb, "c")]
    # the weight-5 edge is re-weighted to the recorded minimum 3
    assert arena.weight(tb, tc, 1) == 3
    assert tg.back[tc] == ("c", (F(3),))


def test_sup_single_self_loop():
    g = parse_game("players 1\nmeasure sup\ninit a\nvertex a 1\nedge a a 7\n")
    tg = make_prefix_independent(g)
    arena = tg.game
    # one fresh-record state plus one recorded state, loop weight 7
    assert len(arena.owner) == 2
    loop_state = tg.step[(arena.init, "a")]
    assert tg.step[(loop_state, "a")] == loop_state
    assert arena.weight(loop_state, loop_state, 1) == 7


def test_payoff_preservation_on_random_lassos():
    rng = random.Random(5)
    checked = 0
    for measure in (PayoffKind.INF, PayoffKind.SUP):
        for seed in range(10):
            g = random_game(seed, size=4 + seed % 3, measure=measure)
            tg = make_prefix_independent(g)
            for _ in range(50):
                lasso = random_lasso(g, rng)
                lifted = lift_lasso(tg, lasso)
                for player in (1, 2):
                    assert payoff_of_lasso(measure, g, player, lasso) == (
                        payoff_of_lasso(measure, tg.game, player, lifted)
                    )
                checked += 1
    assert checked == 1000


def test_transform_idempotent():
    for seed in range(10):
        for measure in (PayoffKind.INF, PayoffKind.SUP):
            g = random_game(seed, size=4, measure=measure)
            tg = make_prefix_independent(g)
            tg2 = make_prefix_independent(tg.game)
            arena, arena2 = tg.game, tg2.game
            # the second rebuild adds no states: records are already explicit
            assert len(arena2.owner) == len(arena.owner)
            proj = {tv2: tg2.origin(tv2) for tv2 in arena2.owner}
            assert sorted(proj.values()) == sorted(arena.owner)
            for (u2, v2), w2 in arena2.weights.items():
                assert arena.weights[(proj[u2], proj[v2])] == w2


def _same_rebuild(got, want):
    """Equal names, owners, weights, `back`, `step` and init, in the same
    insertion order."""
    assert list(got.game.owner.items()) == list(want.game.owner.items())
    assert list(got.game.weights.items()) == list(want.game.weights.items())
    assert list(got.back.items()) == list(want.back.items())
    assert list(got.step.items()) == list(want.step.items())
    assert got.game.init == want.game.init


def test_rank_rebuild_matches_the_fraction_record_rebuild():
    for text in seeded_game_texts():
        g = parse_game(text)
        _same_rebuild(make_prefix_independent(g), reference_make_prefix_independent(g))


def test_rebuild_keeps_the_name_collision_guard():
    # records (1/2, 3) and (1, 2/3) of vertex a both join to "1_2_3"
    g = parse_game(
        "players 2\nmeasure sup\ninit i\nvertex i 1\nvertex a 1\nvertex b 1\n"
        "edge i a 1/2 3\nedge i b 1 2/3\nedge b a 0 0\nedge a a 0 0\n"
    )
    tg = make_prefix_independent(g)
    _same_rebuild(tg, reference_make_prefix_independent(g))
    assert tg.back["a__1_2_3"] == ("a", (F(1, 2), F(3)))
    assert tg.back["a__1_2_3__2"] == ("a", (F(1), F(2, 3)))


def test_rebuild_explores_without_hashing_a_weight(monkeypatch):
    class Counted(Fraction):
        hashes = 0

        def __hash__(self):
            Counted.hashes += 1
            return super().__hash__()

    def explore_counted(init, succ):
        before = Counted.hashes
        found = explore(init, succ)
        assert Counted.hashes == before
        return found

    monkeypatch.setattr(transform, "explore", explore_counted)
    for text in seeded_game_texts():
        g = parse_game(text)
        g = replace(g, weights={
            e: tuple(Counted(x) for x in w) for e, w in g.weights.items()
        })
        _same_rebuild(make_prefix_independent(g), reference_make_prefix_independent(g))


def test_product_fig2_memoryless():
    g = load_game("fig2.game")
    s = load_strategy("fig2_s2s6.strat")
    prod = product_with_strategy(g, s)
    assert len(prod.states) == 6  # s1 s2 s4 s6 t3 t4, one memory state
    verts = sorted(v for (v, _) in prod.states)
    assert verts == ["s1", "s2", "s4", "s6", "t3", "t4"]
    assert prod.states[0] == (g.init, 0)
    # player-owned states have exactly the strategy's single move
    for (v, _), outs in zip(prod.states, prod.table, strict=True):
        if g.owner[v] == 1:
            assert len(outs) == 1
        else:
            assert len(outs) == len(g.successors(v))


def test_product_fig3_counting_strategy():
    g = load_game("fig3.game")
    s = MooreStrategy(
        player=1,
        memory=2,
        init_mem=0,
        update={(0, "s2"): 1, (1, "s2"): 1},
        moves={(0, "s1"): "s2", (1, "s1"): "t1"},
    )
    prod = product_with_strategy(g, s)
    # the second visit to s1 moves to the left terminal
    outs = prod.table[prod.states.index(("s1", 1))]
    assert [prod.states[j] for j in outs] == [("t1", 1)]
    assert ("t2", 1) in prod.states  # the adversary may still exit right


def test_product_single_successor_strategy_isomorphic():
    # when the strategy's move is the only successor everywhere, the product
    # mirrors the reachable part of the arena
    text = (
        "players 2\nmeasure liminf\ninit a\n"
        "vertex a 1\nvertex b 2\nvertex c 1\n"
        "edge a b 0 0\nedge b a 1 1\nedge b c 0 0\nedge c b 2 2\n"
    )
    g = parse_game(text)
    prod = product_with_strategy(g, memoryless(1, {"a": "b", "c": "b"}))
    assert {v for (v, _) in prod.states} == set(g.owner)
    for (v, _), outs in zip(prod.states, prod.table, strict=True):
        assert len(outs) == len(g.successors(v))


def test_product_rejects_non_edge_move():
    g = load_game("fig3.game")
    with pytest.raises(GameFormatError, match="not an edge"):
        product_with_strategy(g, memoryless(1, {"s1": "t2"}))


def test_product_rejects_wrong_player():
    g = load_game("fig3.game")
    with pytest.raises(GameFormatError, match="player 7"):
        product_with_strategy(g, memoryless(7, {"s1": "s2"}))


def test_strategy_round_trip():
    s = load_strategy("fig2_s2s5.strat")
    assert parse_strategy(serialize_strategy(s)) == s
    counting = MooreStrategy(
        player=1,
        memory=3,
        init_mem=0,
        update={(0, "s2"): 1, (1, "s2"): 2},
        moves={(m, "s1"): "s2" for m in range(3)},
    )
    assert parse_strategy(serialize_strategy(counting)) == counting


# ---------------------------------------------------------------------------
# sparse strategy files: one default move per vertex


def test_default_moves_apply_where_no_move_is_given():
    text = "strategy 1\nmemory 2\ninitmem 0\ndefault a b\nmove 1 a a\n"
    s = parse_strategy(text)
    assert (s.move(0, "a"), s.move(1, "a"), s.move(0, "b")) == ("b", "a", None)
    assert serialize_strategy(s) == text


def _constructed_strategies():
    """(label, game, strategy, spec) for the sco, wco and synth outputs on
    the fixture games and on small random games; the spec asks for the
    player's guarantee value, and is None under mean payoff."""
    games = [(name, load_game(name)) for name in
             ("fig1.game", "fig1_liminf.game", "fig2.game", "fig3.game")]
    games += [
        (f"{measure.value} {seed}", random_game(seed, size=5, measure=measure))
        for measure in (PayoffKind.INF, PayoffKind.LIMSUP, PayoffKind.MP_INF)
        for seed in range(3)
    ]
    for name, g in games:
        table = compute_value_table(g)
        for player in range(1, g.players + 1):
            spec = None
            if not g.measure.is_mean_payoff:
                spec = parse_spec(f"payoff({player}) >= {table.aval[(player, table.arena.init)]}")
            yield f"{name} sco {player}", g, construct_sco(g, player, table), spec
            yield f"{name} wco {player}", g, construct_wco_candidate(g, player, table)[0], spec
            if spec is not None:
                result = synthesize_assume_admissible(g, player, spec)
                if result.realizable:
                    yield f"{name} synth {player}", g, result.strategy, spec


def test_constructed_strategies_round_trip_through_their_files():
    sparse = 0
    for label, g, s, _ in _constructed_strategies():
        text = serialize_strategy(s)
        assert parse_strategy(text) == s, label
        if s.memory == 1:
            assert not s.default and "default " not in text, label
            continue
        first = {v: g.successors(v)[0] for v in g.owner if g.owner[v] == s.player}
        assert s.default == first, label
        assert all(t != first[v] for (_, v), t in s.moves.items()), label
        sparse += 1
    assert sparse > 10


def test_sparse_strategies_play_like_their_expanded_form():
    for label, g, s, spec in _constructed_strategies():
        full = parse_strategy(serialize_strategy(expanded(g, s)))
        assert not full.default and validate_strategy(g, full) == [], label
        assert check_strategy_admissible(g, full) == check_strategy_admissible(g, s), label
        if spec is not None:
            wins = verify_strategy_wins(g, s.player, spec, s)
            assert verify_strategy_wins(g, s.player, spec, full) == wins, label


# ---------------------------------------------------------------------------
# minimal Moore layout


def _capture_layouts(monkeypatch):
    """Record the arguments of every `moore_layout` call the constructors make."""
    calls = []

    def recording(*args):
        calls.append(args)
        return moore_layout(*args)

    monkeypatch.setattr(admissibility, "moore_layout", recording)
    monkeypatch.setattr(outcomes, "moore_layout", recording)
    return calls


def _same_moves_along_random_histories(g, quotient, modes, rng, runs=20, steps=30):
    """Both machines read random plays of `g` (the owner sometimes leaves
    the strategy too) and must pick the same move wherever the owner moves."""
    player = quotient.player
    for _ in range(runs):
        v, mq, mm = g.init, quotient.init_mem, modes.init_mem
        for _ in range(steps):
            if g.owner[v] == player:
                move = quotient.move(mq, v)
                assert move == modes.move(mm, v), (v, mq, mm)
                nxt = move if rng.random() < 0.8 else rng.choice(g.successors(v))
            else:
                nxt = rng.choice(g.successors(v))
            v, mq, mm = nxt, quotient.next_memory(mq, nxt), modes.next_memory(mm, nxt)


def test_quotient_plays_like_the_mode_layout(monkeypatch):
    calls = _capture_layouts(monkeypatch)
    spec = parse_spec("payoff(1) >= 1\n")
    rng = random.Random(11)
    realizable = 0
    for measure in PayoffKind:
        for seed in range(6):
            g = random_game(seed, size=5 + seed % 2, measure=measure)
            table = compute_value_table(g)
            for player in (1, 2):
                construct_sco(g, player, table)
                construct_wco_candidate(g, player, table)
                lasso = random_lasso(table.arena, random.Random(seed))
                strategy_from_outcome(g, player, lasso, table)
                if not measure.is_mean_payoff:
                    realizable += synthesize_assume_admissible(g, player, spec).realizable
    assert realizable > 0  # some synth strategies are among the layouts
    shrunk = 0
    for args in calls:
        quotient, modes = moore_layout(*args), mode_layout(*args)
        assert quotient.memory <= modes.memory
        shrunk += quotient.memory < modes.memory
        _same_moves_along_random_histories(args[0], quotient, modes, rng)
    assert shrunk > len(calls) // 4


def test_modes_with_the_same_behaviour_share_one_memory_state():
    g = parse_game(
        "players 2\nmeasure liminf\ninit a\n"
        "vertex a 1\nvertex b 2\n"
        "edge a b 0 0\nedge a a 1 1\nedge b a 0 0\n"
    )

    def expand(k):  # two modes that swap on every vertex and both loop at a
        return ("a", "a"), [("b", 1 - k), ("a", 1 - k)]

    assert mode_layout(g, 1, str, 0, expand).memory == 2
    s = moore_layout(g, 1, str, 0, expand)
    assert serialize_strategy(s) == "strategy 1\nmemory 1\ninitmem 0\nmove 0 a a\n"


def test_modes_that_differ_keep_their_memory_states():
    g = parse_game(
        "players 2\nmeasure liminf\ninit a\n"
        "vertex a 1\nvertex b 2\n"
        "edge a b 0 0\nedge a a 1 1\nedge b a 0 0\n"
    )

    # mode k loops at a until the third visit, then leaves for b for good
    def expand(k):
        move = ("a", "a") if k < 2 else ("a", "b")
        return move, [("a", min(k + 1, 2)), ("b", 2)]

    s = moore_layout(g, 1, str, 0, expand)
    assert s.memory == 3
    assert [s.move(m, "a") for m in range(3)] == ["a", "a", "b"]


_LAYOUT_SCRIPT = """
import sys
from admgames import compute_value_table, construct_sco, construct_wco_candidate, parse_game
from admgames.transform import serialize_strategy
for name, measure in (("fig1.game", "sup"), ("fig1_liminf.game", "as-is"), ("fig2.game", "inf")):
    lines = open(sys.argv[1] + "/" + name).read().splitlines()
    if measure != "as-is":
        lines = ["measure " + measure if l.startswith("measure ") else l for l in lines]
    g = parse_game("\\n".join(lines) + "\\n")
    table = compute_value_table(g)
    for player in range(1, g.players + 1):
        sys.stdout.write(serialize_strategy(construct_sco(g, player, table)))
        sys.stdout.write(serialize_strategy(construct_wco_candidate(g, player, table)[0]))
"""


def test_laying_out_the_same_modes_twice_gives_the_same_text():
    # in two interpreters with different hash seeds, so no set or hash
    # order can leak into the numbering
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _LAYOUT_SCRIPT, str(FIXTURES)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("strategy ") == 12
