"""Value table assembly and history-level values."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from admgames import (
    PayoffKind,
    check_strategy_admissible,
    cli,
    compute_value_table,
    construct_sco,
    construct_wco_candidate,
    parse_game,
    serialize_game,
    value_at_history,
)
from admgames import values
from admgames.admissibility import strategy_from_outcome
from admgames.oracle import random_game, random_lasso
from admgames.transform import MooreStrategy

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
        aval, moves, level = real(*args, **kwargs)
        return {v: x + 100 for v, x in aval.items()}, moves, level

    monkeypatch.setattr(values, "zero_sum_value", raised)
    with pytest.raises(RuntimeError, match="value sandwich violated at player 1, vertex v1"):
        compute_value_table(load_game("fig1.game")).at(1, "v1")


def test_level_cycle_check_raises(monkeypatch):
    # a one-player solve that finds no cycle leaves a vertex without acval
    monkeypatch.setattr(values, "_one_player", lambda succ, *args: [None] * len(succ))
    with pytest.raises(RuntimeError, match="subgraph must keep a cycle reachable from v1"):
        compute_value_table(load_game("fig1.game")).at(1, "v1")


def _count_solves(monkeypatch) -> list:
    """The coalition player of every `values._DenseThreshold` built from
    here on, one per `zero_sum_value` call."""
    solved = []
    real = values._DenseThreshold

    def counted(dense, player):
        solved.append(player)
        return real(dense, player)

    monkeypatch.setattr(values, "_DenseThreshold", counted)
    return solved


def test_commands_solve_only_the_players_they_read(tmp_path, monkeypatch, capsys):
    g = random_game(3, size=6, players=3, measure=PayoffKind.LIMINF)
    game, spec, strat = (str(tmp_path / name) for name in ("g.game", "s.spec", "s.strat"))
    (tmp_path / "g.game").write_text(serialize_game(g))
    (tmp_path / "s.spec").write_text("payoff(1) >= 0\n")
    assert cli.run(["sco", "--player", "2", game, "-o", strat]) == 0
    solved = _count_solves(monkeypatch)
    for argv, players in [
        (["sco", "--player", "2", game], [2]),
        (["wco", "--player", "2", game], [2]),
        (["check", game, strat], [2]),
        (["values", game], [1, 2, 3]),
        (["mc", game, "--spec", spec], [1, 2, 3]),
        (["synth", game, "--player", "2", "--spec", spec], [1, 2, 3]),
    ]:
        solved.clear()
        cli.run(argv)
        assert solved == players, argv
    capsys.readouterr()


@pytest.mark.parametrize("measure", list(PayoffKind))
def test_players_solve_alike_in_any_order(measure):
    # a one-player table holds its player's entries of the full table, and
    # only those, whichever player is solved first
    for seed in range(3):
        g = random_game(seed, size=5, players=3, measure=measure)
        full = compute_value_table(g)
        for player in (3, 2, 1):
            own = values._value_table(g, (player,))
            assert {p for p, _ in own.aval} == set(own.avalues) == set(own.wcs) == {player}
            for v in full.arena.owner:
                assert own.at(player, v) == full.at(player, v)
            assert own.avalues[player] == full.avalues[player]
            assert own.wcs[player] == full.wcs[player]
        assert compute_value_table(g) == full


def test_a_fresh_table_holds_every_entry():
    g = load_game("fig1.game")
    t = compute_value_table(g)
    pairs = {(p, v) for p in (1, 2) for v in t.arena.owner}
    assert set(t.aval) == set(t.cval) == set(t.acval) == pairs
    assert set(t.avalues) == set(t.wcs) == set(t.levels) == {1, 2}
    assert t.at(2, "v1") == (F(0), F(2), F(2))
    with pytest.raises(KeyError):
        t.acval[(2, "nowhere")]
    with pytest.raises(KeyError):
        t.levels[3]


def test_one_player_entry_points_reject_other_players(monkeypatch):
    g = load_game("fig1.game")
    lasso = random_lasso(g, random.Random(0))
    solved = _count_solves(monkeypatch)
    for player in (0, g.players + 1):
        own = MooreStrategy(player=player, memory=1, init_mem=0)
        for call in (
            lambda: construct_sco(g, player),
            lambda: construct_wco_candidate(g, player),
            lambda: strategy_from_outcome(g, player, lasso),
            lambda: check_strategy_admissible(g, own),
            lambda: value_at_history(g, ("v1",), player),
        ):
            with pytest.raises(ValueError, match=f"player {player} not in 1..2"):
                call()
    assert solved == []


def test_threads_sharing_a_table_solve_each_player_once(monkeypatch):
    g = random_game(5, size=12, players=3, measure=PayoffKind.MP_INF)
    sequential = compute_value_table(g)
    want = {(p, v): sequential.at(p, v) for p in (1, 2, 3) for v in sequential.arena.owner}
    solved = _count_solves(monkeypatch)
    table = compute_value_table(g)
    wrong = []
    start = threading.Barrier(12)

    def read(player):
        start.wait(timeout=60)
        wrong.extend(v for v in table.arena.owner if table.at(player, v) != want[(player, v)])

    threads = [threading.Thread(target=read, args=(1 + i % 3,)) for i in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [] and sorted(solved) == [1, 2, 3]
