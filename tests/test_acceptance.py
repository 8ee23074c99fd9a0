"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  All value comparisons are exact (Fraction equality, no
tolerances); the time limits are generous wall-clock bounds.
"""

import time
from fractions import Fraction

from admgames import (
    MooreStrategy,
    PayoffKind,
    accepts_lasso,
    check_strategy_admissible,
    compute_value_table,
    construct_sco,
    eval_outcome_formula,
    label_edges,
    outcome_automaton,
    parse_spec,
    synthesize_assume_admissible,
    verify_strategy_wins,
)
from admgames.oracle import brute_value_table, random_game, random_lasso

from helpers import (
    dense_threshold_region,
    lasso_of_choice,
    load_game,
    load_strategy,
    memoryless,
    other_vertices,
    own_vertices,
    profiles,
    run_moore,
)

F = Fraction


def _done(n: int, started: float, limit: float, what: str):
    # CPU time of this process, so other work on the machine does not count
    elapsed = time.process_time() - started
    assert elapsed < limit, f"criterion {n} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s) {what}")


def test_criterion_1_fig1_mean_payoff_values():
    t0 = time.process_time()
    g = load_game("fig1.game")
    table = compute_value_table(g)
    assert table.aval[(1, "v1")] == F(1)
    assert table.aval[(2, "v1")] == F(0)
    assert table.aval[(2, "v2")] == F(2)
    _done(1, t0, 1.0, "fig1 mean-payoff antagonistic values")


def test_criterion_2_fig1_admissibility():
    t0 = time.process_time()
    g = load_game("fig1.game")
    table = compute_value_table(g)
    rejected = check_strategy_admissible(g, load_strategy("fig1_p2_return.strat"), table)
    assert not rejected.admissible
    assert rejected.violated == "eq3"
    assert (rejected.vertex, rejected.memory) == ("v2", 0)
    accepted = check_strategy_admissible(g, load_strategy("fig1_p2_stay.strat"), table)
    assert accepted.admissible
    _done(2, t0, 1.0, "fig1 player-2 strategy verdicts")


def test_criterion_3_fig2_values_and_verdicts():
    t0 = time.process_time()
    g = load_game("fig2.game")
    table = compute_value_table(g)
    assert table.aval[(1, "s1")] == F(5)
    assert table.aval[(1, "s2")] == F(3)
    bad = check_strategy_admissible(g, load_strategy("fig2_s2s6.strat"), table)
    assert not bad.admissible and (bad.vertex, bad.memory) == ("s1", 0)
    assert check_strategy_admissible(g, load_strategy("fig2_s2s5.strat"), table).admissible
    assert check_strategy_admissible(g, load_strategy("fig2_s3.strat"), table).admissible
    _done(3, t0, 1.0, "fig2 antagonistic values and strategy verdicts")


def test_criterion_4_fig3_counting_strategies():
    t0 = time.process_time()
    g = load_game("fig3.game")
    table = compute_value_table(g)
    for k in range(6):
        s = MooreStrategy(
            player=1,
            memory=k + 1,
            init_mem=0,
            update={(m, "s2"): min(m + 1, k) for m in range(k + 1)},
            moves={(m, "s1"): ("s2" if m < k else "t1") for m in range(k + 1)},
        )
        v = check_strategy_admissible(g, s, table)
        assert not v.admissible and v.violated == "eq4"
        assert v.acval == F(2) and v.aval == F(1)
    forever = check_strategy_admissible(g, load_strategy("fig3_inf.strat"), table)
    assert forever.admissible
    _done(4, t0, 1.0, "fig3 leave-after-k rejected, loop-forever accepted")


def test_criterion_5_assume_admissible_synthesis():
    t0 = time.process_time()
    g = load_game("fig1_liminf.game")
    table = compute_value_table(g)
    spec2 = parse_spec("payoff(1) >= 2")
    result = synthesize_assume_admissible(g, 1, spec2)
    assert result.realizable
    assert check_strategy_admissible(g, result.strategy, table).admissible
    assert verify_strategy_wins(g, 1, spec2, result.strategy)
    lasso = run_moore(g, result.strategy, {"v2": "v1", "v3": "v1", "v4": "v2"})
    assert ("v1", "v2") in set(lasso.prefix_edges() + lasso.cycle_edges())
    assert not synthesize_assume_admissible(g, 1, parse_spec("payoff(1) >= 3")).realizable
    _done(5, t0, 5.0, "fig1-liminf synthesis: >=2 realizable, >=3 not")


def test_criterion_6_oracle_equivalence():
    t0 = time.process_time()
    for measure in PayoffKind:
        small = not measure.prefix_independent
        for seed in range(200):
            size = 3 + seed % 3 if small else 3 + seed % 4
            g = random_game(
                seed,
                size=size,
                weight_range=(-2, 2),
                players=2,
                measure=measure,
                max_out_degree=2 if small else 3,
            )
            table = compute_value_table(g)
            for player in (1, 2):
                brute = brute_value_table(g, player)
                for tv in table.arena.owner:
                    assert table.at(player, tv) == brute[tv], (measure, seed, tv)
    _done(6, t0, 60.0, "solver tables equal brute force, 200 games x 6 measures")


def test_criterion_7_sco_soundness():
    t0 = time.process_time()
    for measure in PayoffKind:
        small = not measure.prefix_independent
        for seed in range(100):
            g = random_game(
                seed,
                size=3 + seed % 3 if small else 3 + seed % 4,
                weight_range=(-2, 2),
                measure=measure,
                max_out_degree=2 if small else 3,
            )
            table = compute_value_table(g)
            for player in (1, 2):
                s = construct_sco(g, player, table)
                assert check_strategy_admissible(g, s, table).admissible, (
                    measure,
                    seed,
                    player,
                )
    _done(7, t0, 60.0, "constructed strategies admissible, 100 games x 6 measures")


def test_criterion_8_characterization_coherence():
    import random as _random

    t0 = time.process_time()
    rng = _random.Random(2024)
    for seed in range(50):
        g = random_game(
            seed, size=3 + seed % 3, weight_range=(-2, 2),
            measure=PayoffKind.LIMINF, max_out_degree=2,
        )
        table = compute_value_table(g)
        lg = label_edges(g, table)
        player = 1
        aut = outcome_automaton(lg, player)
        taus = list(profiles(g, other_vertices(g, player)))
        for sg in profiles(g, own_vertices(g, player)):
            if not check_strategy_admissible(g, memoryless(player, sg), table).admissible:
                continue
            for tau in taus:
                lasso = lasso_of_choice(g, {**sg, **tau})
                assert accepts_lasso(aut, lasso), (seed, sg, tau)
        for _ in range(1000):
            lasso = random_lasso(g, rng)
            assert accepts_lasso(aut, lasso) == eval_outcome_formula(lg, player, lasso)
    _done(8, t0, 120.0, "accepted strategies vs outcome automaton, 50 liminf games")


def test_criterion_9_structural_invariants():
    t0 = time.process_time()
    fixtures = [load_game(n) for n in ("fig1.game", "fig1_liminf.game",
                                       "fig2.game", "fig3.game")]
    randoms = [
        random_game(seed, size=4 + seed % 3, measure=measure)
        for measure in PayoffKind
        for seed in range(5)
    ]
    for g in fixtures + randoms:
        table = compute_value_table(g)
        arena = table.arena
        lg = label_edges(g, table)
        n = len(arena.owner)
        for player in range(1, g.players + 1):
            levels = table.avalues[player]
            for v in arena.owner:
                a, c, ac = table.at(player, v)
                assert a <= ac <= c
                succ_a = [table.aval[(player, u)] for u in arena.succ[v]]
                want = max(succ_a) if arena.owner[v] == player else min(succ_a)
                assert a == want
                assert c == max(table.cval[(player, u)] for u in arena.succ[v])
                if g.measure.is_mean_payoff:
                    assert a.denominator <= n
            for lab in lg.labels[player].values():
                flags = [lab.better_alternative(q) for q in sorted(levels)]
                for lo, hi in zip(flags, flags[1:]):
                    assert lo or not hi  # downward closed in the level
            if not g.measure.is_mean_payoff:
                prev = None
                for theta in sorted({w[player - 1] for w in arena.weights.values()}):
                    region = dense_threshold_region(arena, player, arena.measure, theta).vertices
                    if prev is not None:
                        assert region <= prev
                    prev = region
    _done(9, t0, 60.0, "sandwich, local consistency, denominators, monotonicity")
