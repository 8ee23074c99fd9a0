"""Edge labelling, the admissible-outcome condition, automata, model checking,
and assume-admissible synthesis."""

import random
import re
from fractions import Fraction

import pytest

from admgames import (
    GameFormatError,
    Lasso,
    PayoffKind,
    UnsupportedMeasure,
    accepts_lasso,
    check_strategy_admissible,
    compute_value_table,
    eval_outcome_formula,
    eval_spec_on_lasso,
    label_edges,
    lift_lasso,
    model_check_admissible,
    outcome_automaton,
    parse_automaton,
    parse_game,
    parse_spec,
    serialize_automaton,
    synthesize_assume_admissible,
    verify_strategy_wins,
)
from admgames.admissibility import strategy_from_outcome
from admgames.automata import EdgeAutomaton, automaton_to_dot
from admgames.oracle import random_game, random_lasso
from admgames.outcomes import EdgeLabels, _compile_spec

from helpers import (
    fixture_text,
    lasso_of_choice,
    load_game,
    memoryless,
    other_vertices,
    own_vertices,
    profiles,
    run_moore,
)

F = Fraction

REGULAR = (PayoffKind.LIMINF, PayoffKind.LIMSUP, PayoffKind.INF, PayoffKind.SUP)


def labeled(name):
    g = load_game(name)
    t = compute_value_table(g)
    return g, t, label_edges(g, t)


def test_label_edges_rejects_another_games_table():
    # a table of an equal game parsed twice is still another game's table
    g = load_game("fig1.game")
    with pytest.raises(ValueError, match="table must belong to the labelled game"):
        label_edges(g, compute_value_table(load_game("fig1.game")))


def test_fig1_labels():
    g, t, lg = labeled("fig1.game")
    labs = lg.labels[1]
    # at the opponents' v2 the alternative v4 is worth 2 > 1 to player 1
    assert labs[("v2", "v1")].better_alternative(F(1))
    assert labs[("v2", "v4")].alt_sup == 2  # the skipped alternative is v1
    # edges out of player 1's own vertex never carry an alternative
    assert labs[("v1", "v2")].alt_sup is None
    assert labs[("v1", "v2")].aval == 1


def test_label_edges_match_the_per_edge_definition():
    # alt_sup is the best cval among the source's other successors, at the
    # opponents' vertices only; the seeded games have ties, sources of out-
    # degree one and (under inf/sup) rebuilt arenas
    for measure in REGULAR:
        for seed in range(12):
            g = random_game(seed, size=6 + seed % 5, players=2 + seed % 2, measure=measure,
                            max_out_degree=2 + seed % 3)
            t = compute_value_table(g)
            arena = t.arena
            lg = label_edges(g, t)
            for player in range(1, g.players + 1):
                want = {}
                for (u, v) in arena.weights:
                    alts = [t.cval[(player, w)] for w in arena.succ[u] if w != v]
                    alt = max(alts) if alts and arena.owner[u] != player else None
                    want[(u, v)] = EdgeLabels(t.aval[(player, u)], t.acval[(player, u)], alt)
                assert list(lg.labels[player].items()) == list(want.items()), (measure, seed)


def test_fig2_label_levels():
    g, t, lg = labeled("fig2.game")
    assert lg.labels[1][("s1", "s2")].aval == 5
    assert lg.labels[1][("s2", "s4")].aval == 3


def test_alt_labels_downward_closed():
    for seed in range(10):
        g = random_game(seed, size=5, measure=PayoffKind.LIMINF)
        t = compute_value_table(g)
        lg = label_edges(g, t)
        for player in (1, 2):
            for lab in lg.labels[player].values():
                qs = sorted(t.avalues[player])
                flags = [lab.better_alternative(q) for q in qs]
                # once false at some level, false at every higher level
                for a, b in zip(flags, flags[1:]):
                    assert a or not b


def test_eval_fig1_liminf_examples():
    g, t, lg = labeled("fig1_liminf.game")
    assert not eval_outcome_formula(lg, 2, Lasso((), ("v1", "v2")))
    assert eval_outcome_formula(lg, 1, Lasso((), ("v1", "v2")))
    assert not eval_outcome_formula(lg, 1, Lasso((), ("v1", "v3")))
    assert eval_outcome_formula(lg, 2, Lasso(("v1",), ("v2", "v4")))


def test_eval_fig3_examples():
    g, t, lg = labeled("fig3.game")
    assert eval_outcome_formula(lg, 1, Lasso(("s1", "s2"), ("t2",)))
    assert not eval_outcome_formula(lg, 1, Lasso(("s1",), ("t1",)))
    assert eval_outcome_formula(lg, 1, Lasso((), ("s1", "s2")))


def test_eval_no_owned_vertices_is_universal():
    g = parse_game(
        "players 2\nmeasure liminf\ninit a\n"
        "vertex a 2\nvertex b 2\nedge a b -1 -1\nedge b a -2 -2\n"
    )
    t = compute_value_table(g)
    lg = label_edges(g, t)
    assert eval_outcome_formula(lg, 1, Lasso((), ("a", "b")))


def test_automaton_fig3_examples():
    g, t, lg = labeled("fig3.game")
    aut = outcome_automaton(lg, 1)
    assert accepts_lasso(aut, Lasso(("s1", "s2"), ("t2",)))
    assert not accepts_lasso(aut, Lasso(("s1",), ("t1",)))


def test_automaton_universal_without_owned_vertices():
    g = parse_game(
        "players 2\nmeasure limsup\ninit a\n"
        "vertex a 2\nvertex b 2\nedge a b -1 -1\nedge b a -2 -2\n"
    )
    t = compute_value_table(g)
    aut = outcome_automaton(label_edges(g, t), 1)
    assert accepts_lasso(aut, Lasso((), ("a", "b")))


def test_automaton_and_evaluator_agree_on_fixtures():
    rng = random.Random(41)
    for name in ("fig1_liminf.game", "fig2.game", "fig3.game"):
        g, t, lg = labeled(name)
        for player in (1, 2):
            aut = outcome_automaton(lg, player)
            for _ in range(1000):
                lasso = random_lasso(g, rng)
                assert accepts_lasso(aut, lasso) == eval_outcome_formula(
                    lg, player, lasso
                ), (name, player, lasso)


def test_automaton_and_evaluator_agree_on_random_games():
    rng = random.Random(99)
    for measure in REGULAR:
        for seed in range(10):
            g = random_game(seed, size=4 + seed % 3, measure=measure)
            t = compute_value_table(g)
            lg = label_edges(g, t)
            arena = t.arena
            for player in (1, 2):
                aut = outcome_automaton(lg, player)
                for _ in range(100):
                    lasso = random_lasso(arena, rng)
                    assert accepts_lasso(aut, lasso) == eval_outcome_formula(
                        lg, player, lasso
                    ), (measure, seed, player, lasso)


def test_automaton_round_trip_and_dot():
    g, t, lg = labeled("fig3.game")
    aut = outcome_automaton(lg, 1)
    text = serialize_automaton(aut)
    parsed = parse_automaton(text)
    # the reparsed automaton accepts the same lassos
    rng = random.Random(3)
    for _ in range(200):
        lasso = random_lasso(g, rng)
        assert accepts_lasso(aut, lasso) == accepts_lasso(parsed, lasso)
    dot = automaton_to_dot(aut)
    assert dot.startswith("digraph") and "->" in dot


def test_outcome_automaton_states_are_numbered_breadth_first():
    for seed in range(8):
        g = random_game(seed, size=4, measure=REGULAR[seed % 4])
        t = compute_value_table(g)
        lg = label_edges(g, t)
        for player in (1, 2):
            aut = outcome_automaton(lg, player)
            n = len(aut.names)
            assert list(aut.states()) == list(range(n)) and aut.initial == 0
            assert aut.vertex[0] == t.arena.init
            assert aut.vertex == [name[0] for name in aut.names]
            assert aut.priority == [name[-1] for name in aut.names]
            # numbered in the order a breadth-first search from 0 finds them
            order, seen = [0], {0}
            for s in order:
                for nxt in aut.succ[s]:
                    if nxt not in seen:
                        seen.add(nxt)
                        order.append(nxt)
            assert order == list(range(n)), (seed, player)
            # one successor per arena edge, in the arena's order
            for s in range(n):
                succ = [aut.vertex[nxt] for nxt in aut.succ[s]]
                assert succ == list(t.arena.successors(aut.vertex[s])), (seed, player, s)


def test_automaton_rejected_for_mean_payoff():
    g, t, lg = labeled("fig1.game")
    with pytest.raises(UnsupportedMeasure):
        outcome_automaton(lg, 1)


def test_spec_parsing_and_evaluation():
    g = load_game("fig1_liminf.game")
    spec = parse_spec("payoff(1) >= 2 && !(payoff(2) < 1) || false")
    good = Lasso(("v1",), ("v2", "v4"))
    assert eval_spec_on_lasso(g, spec, good)
    spec2 = parse_spec("payoff(1) >= 2 && payoff(2) < 1")
    assert not eval_spec_on_lasso(g, spec2, good)


def test_spec_rejects_garbage():
    from admgames import GameFormatError

    for bad in ["payoff(1) >>", "payoff >= 2", "(true", "payoff(1) >= 2 extra"]:
        with pytest.raises(GameFormatError):
            parse_spec(bad)


def _random_spec_text(rng, players):
    """A spec mixing atoms of all five comparisons, `true`, `false`, `!`,
    `&&`, `||` and one reference to the automaton file "a.aut"."""
    leaves = [
        f"payoff({rng.randint(1, players)}) {op} {rng.choice(['-1', '0', '1/2', '1', '2'])}"
        for op in ("<", "<=", ">", ">=", "=")
    ]
    leaves += ["true", "false", 'automaton "a.aut"']
    rng.shuffle(leaves)

    def build(items):
        if len(items) == 1:
            node = items[0]
        else:
            k = rng.randint(1, len(items) - 1)
            node = f"({build(items[:k])} {rng.choice(['&&', '||'])} {build(items[k:])})"
        return f"!{node}" if rng.random() < 0.3 else node

    return build(leaves)


def test_compiled_spec_accepts_what_the_spec_says():
    # the spec is compiled on the arena (the rebuild under inf/sup); a lasso
    # of the game is run there as its lift_lasso image
    for seed in range(40):
        rng = random.Random(seed)
        measure = REGULAR[seed % 4]
        g = random_game(seed, size=3 + seed % 3, players=1 + seed % 3, measure=measure)
        t = compute_value_table(g)
        lg = label_edges(g, t)
        states = ["r0", "r1"]
        named = EdgeAutomaton(
            initial="r0",
            delta={(s, e): rng.choice(states) for s in states for e in g.weights},
            priority={s: rng.randint(0, 3) for s in states},
        )
        text = _random_spec_text(rng, g.players)
        spec = parse_spec(text, automaton_loader=lambda name: named)
        compiled = _compile_spec(lg, spec)
        for _ in range(80):
            lasso = random_lasso(g, rng)
            want = eval_spec_on_lasso(g, spec, lasso)
            got = accepts_lasso(compiled, lift_lasso(t.transformed, lasso))
            assert got == want, (seed, text, lasso)


def test_mc_fig1_liminf():
    g = load_game("fig1_liminf.game")
    assert model_check_admissible(g, parse_spec("payoff(1) >= 1")).holds
    assert model_check_admissible(g, parse_spec("payoff(1) >= 2")).holds
    assert model_check_admissible(g, parse_spec("payoff(2) >= 2")).holds
    assert model_check_admissible(g, parse_spec("true")).holds
    # one above the global cooperative optimum always fails
    v = model_check_admissible(g, parse_spec("payoff(1) >= 3"))
    assert not v.holds
    ce = v.counterexample
    ce.check(g)
    t = compute_value_table(g)
    lg = label_edges(g, t)
    lifted = lift_lasso(t.transformed, ce)
    assert all(eval_outcome_formula(lg, p, lifted) for p in (1, 2))
    assert not eval_spec_on_lasso(g, parse_spec("payoff(1) >= 3"), ce)


def test_mc_counterexamples_reverify_on_random_games():
    for seed in range(12):
        g = random_game(seed, size=4, measure=PayoffKind.LIMINF)
        t = compute_value_table(g)
        lg = label_edges(g, t)
        cmax = max(t.cval[(1, v)] for v in t.arena.owner)
        spec = parse_spec(f"payoff(1) >= {cmax}")
        verdict = model_check_admissible(g, spec)
        if verdict.holds:
            continue
        ce = verdict.counterexample
        ce.check(g)
        assert ce.normal() == ce
        lifted = lift_lasso(t.transformed, ce)
        assert all(eval_outcome_formula(lg, p, lifted) for p in (1, 2))
        assert not eval_spec_on_lasso(g, spec, ce)


def test_mc_deterministic_counterexample():
    g = load_game("fig1_liminf.game")
    a = model_check_admissible(g, parse_spec("payoff(1) >= 3")).counterexample
    b = model_check_admissible(g, parse_spec("payoff(1) >= 3")).counterexample
    assert a == b


def test_mc_rejects_mean_payoff():
    g = load_game("fig1.game")
    with pytest.raises(UnsupportedMeasure):
        model_check_admissible(g, parse_spec("true"))
    with pytest.raises(UnsupportedMeasure):
        synthesize_assume_admissible(g, 1, parse_spec("true"))


def test_mc_user_automaton_component(tmp_path):
    # an automaton accepting exactly plays that eventually stay on the v2-v4 loop
    g = load_game("fig1_liminf.game")
    text = "\n".join(
        ["state ok", "state no", "initial no", "priority ok 2", "priority no 1"]
        + [
            f"trans {s} {u} {v} {'ok' if (u, v) in (('v2', 'v4'), ('v4', 'v2')) else 'no'}"
            for s in ("ok", "no")
            for (u, v) in g.weights
        ]
    )
    path = tmp_path / "loop.aut"
    path.write_text(text)
    spec = parse_spec(f'automaton "{path}"')
    assert model_check_admissible(g, spec).holds
    spec_neg = parse_spec(f'!automaton "{path}"')
    v = model_check_admissible(g, spec_neg)
    assert not v.holds


def test_synthesis_fig1_liminf():
    g = load_game("fig1_liminf.game")
    t = compute_value_table(g)
    spec = parse_spec("payoff(1) >= 2")
    r = synthesize_assume_admissible(g, 1, spec)
    assert r.realizable
    assert check_strategy_admissible(g, r.strategy, t).admissible
    assert verify_strategy_wins(g, 1, spec, r.strategy)
    # forced by the objective: the strategy eventually leaves the v1-v3 loop
    lasso = run_moore(g, r.strategy, {"v2": "v1", "v3": "v1", "v4": "v2"})
    assert ("v1", "v2") in set(lasso.prefix_edges() + lasso.cycle_edges())

    assert not synthesize_assume_admissible(g, 1, parse_spec("payoff(1) >= 3")).realizable

    rt = synthesize_assume_admissible(g, 1, parse_spec("true"))
    assert rt.realizable
    assert check_strategy_admissible(g, rt.strategy, t).admissible
    assert verify_strategy_wins(g, 1, parse_spec("true"), rt.strategy)


@pytest.mark.parametrize("moves, message", [
    ({"s1": "t9", "s4": "s6"}, "move (0, s1) -> t9 is not an edge"),
    ({"s4": "s6"}, "missing move for memory 0 at vertex s1"),
], ids=["non-edge", "missing-move"])
def test_verify_strategy_wins_rejects_invalid_strategies(moves, message):
    g = load_game("fig2.game")
    with pytest.raises(GameFormatError, match=re.escape(message)):
        verify_strategy_wins(g, 1, parse_spec("false"), memoryless(1, moves))


def test_verify_strategy_wins_rejects_another_players_strategy():
    g = load_game("fig2.game")
    s = memoryless(1, {"s1": "s3", "s4": "s6"})
    assert verify_strategy_wins(g, 1, parse_spec("payoff(1) >= 5"), s)
    with pytest.raises(GameFormatError, match="strategy of player 1, not of player 2"):
        verify_strategy_wins(g, 2, parse_spec("payoff(1) >= 5"), s)


@pytest.mark.parametrize("text, player", [
    ("payoff(0) <= 100", 0),
    ("payoff(3) > 0", 3),
], ids=["player-0", "player-3"])
def test_verify_strategy_wins_rejects_specs_of_unknown_players(text, player):
    # the same check as model checking and synthesis, on a strategy that
    # synthesis returns for `true`
    g = load_game("fig2.game")
    s = synthesize_assume_admissible(g, 1, parse_spec("true")).strategy
    message = f"spec refers to unknown player {player}"
    for check in (
        lambda spec: model_check_admissible(g, spec),
        lambda spec: synthesize_assume_admissible(g, 1, spec),
        lambda spec: verify_strategy_wins(g, 1, spec, s),
    ):
        with pytest.raises(GameFormatError, match=re.escape(message)):
            check(parse_spec(text))


def test_synthesis_random_games_reverify():
    for seed in range(8):
        g = random_game(seed, size=4, measure=PayoffKind.LIMSUP)
        t = compute_value_table(g)
        a1 = t.aval[(1, t.arena.init)]
        spec = parse_spec(f"payoff(1) >= {a1}")
        r = synthesize_assume_admissible(g, 1, spec)
        # the guarantee level is always enforceable alongside admissible play
        assert r.realizable, seed
        assert check_strategy_admissible(g, r.strategy, t).admissible, seed
        assert verify_strategy_wins(g, 1, spec, r.strategy), seed


def test_synthesized_plays_meet_objective_by_direct_evaluation():
    # independent of the automata: simulate against every memoryless
    # adversary profile and evaluate the objective on the resulting lasso
    for seed in range(6):
        g = random_game(seed, size=4, measure=PayoffKind.LIMINF, max_out_degree=2)
        t = compute_value_table(g)
        lg = label_edges(g, t)
        a1 = t.aval[(1, t.arena.init)]
        spec = parse_spec(f"payoff(1) >= {a1}")
        r = synthesize_assume_admissible(g, 1, spec)
        assert r.realizable, seed
        for tau in profiles(g, other_vertices(g, 1)):
            lasso = run_moore(g, r.strategy, tau)
            assert eval_outcome_formula(lg, 1, lasso), (seed, tau)
            if eval_outcome_formula(lg, 2, lasso):
                assert eval_spec_on_lasso(g, spec, lasso), (seed, tau)


def test_accepted_strategy_outcomes_satisfy_the_condition():
    for seed in range(8):
        g = random_game(seed, size=4, measure=PayoffKind.LIMINF, max_out_degree=2)
        t = compute_value_table(g)
        lg = label_edges(g, t)
        player = 1
        aut = outcome_automaton(lg, player)
        taus = list(profiles(g, other_vertices(g, player)))
        for sg in profiles(g, own_vertices(g, player)):
            if not check_strategy_admissible(g, memoryless(player, sg), t).admissible:
                continue
            for tau in taus:
                lasso = lasso_of_choice(g, {**sg, **tau})
                assert eval_outcome_formula(lg, player, lasso)
                assert accepts_lasso(aut, lasso)


def test_accepted_lassos_extend_to_admissible_strategies():
    rng = random.Random(17)
    for seed in range(8):
        g = random_game(seed, size=4, measure=PayoffKind.LIMINF)
        t = compute_value_table(g)
        lg = label_edges(g, t)
        sampled = 0
        for _ in range(60):
            lasso = random_lasso(g, rng)
            if not eval_outcome_formula(lg, 1, lasso):
                continue
            sampled += 1
            s = strategy_from_outcome(g, 1, lasso, t)
            assert check_strategy_admissible(g, s, t).admissible, (seed, lasso)
            # the strategy follows the lasso at its own vertices
            mem = s.init_mem
            nodes = lasso.prefix + lasso.cycle
            cstart = len(lasso.prefix)
            pos = 0
            for _ in range(3 * len(nodes)):
                v = nodes[pos]
                nxt = pos + 1 if pos + 1 < len(nodes) else cstart
                if g.owner[v] == 1:
                    assert s.move(mem, v) == nodes[nxt]
                mem = s.next_memory(mem, nodes[nxt])
                pos = nxt
            if sampled >= 10:
                break


def test_outcome_lasso_must_start_at_the_initial_vertex():
    g = load_game("fig1_liminf.game")
    t = compute_value_table(g)
    lasso = Lasso(prefix=(), cycle=("v2", "v4"))  # an arena lasso, from v2 instead of v1
    with pytest.raises(ValueError, match="not at the initial vertex v1"):
        strategy_from_outcome(g, 1, lasso, t)


def test_outcome_lasso_of_the_game_under_inf_names_lift_lasso():
    lines = fixture_text("fig1_liminf.game").splitlines()
    g = parse_game("\n".join(
        "measure inf" if line.startswith("measure ") else line for line in lines
    ) + "\n")
    t = compute_value_table(g)
    lasso = random_lasso(g, random.Random(0))  # a lasso of g, not of the rebuild
    with pytest.raises(ValueError, match="must be one of the rebuilt arena.*lift_lasso"):
        strategy_from_outcome(g, 1, lasso, t)
    s = strategy_from_outcome(g, 1, lift_lasso(t.transformed, lasso), t)
    assert check_strategy_admissible(g, s, t).admissible


def test_synthesis_unrealizable_spec_against_own_condition():
    # demanding more than the global cooperative optimum can never be done
    g = load_game("fig3.game")
    r = synthesize_assume_admissible(g, 1, parse_spec("payoff(1) >= 5"))
    assert not r.realizable


def test_mc_failures_found_by_independent_sampling():
    # any sampled play that is admissible-compatible for everyone yet breaks
    # the spec forces a "fails" verdict; checked with the direct evaluator
    rng = random.Random(31)
    for seed in range(10):
        g = random_game(seed, size=4, measure=PayoffKind.LIMINF)
        t = compute_value_table(g)
        lg = label_edges(g, t)
        weights = sorted({w[0] for w in g.weights.values()})
        for theta in weights:
            spec = parse_spec(f"payoff(1) >= {theta}")
            verdict = model_check_admissible(g, spec)
            refuted = False
            for _ in range(300):
                lasso = random_lasso(g, rng)
                if (
                    eval_outcome_formula(lg, 1, lasso)
                    and eval_outcome_formula(lg, 2, lasso)
                    and not eval_spec_on_lasso(g, spec, lasso)
                ):
                    refuted = True
                    break
            if refuted:
                assert not verdict.holds, (seed, theta)


def test_three_player_pipeline():
    from admgames import construct_sco
    from admgames.oracle import brute_value_table

    for seed in range(3):
        g = random_game(seed, size=5, players=3, measure=PayoffKind.LIMINF)
        t = compute_value_table(g)
        for p in (1, 2, 3):
            brute = brute_value_table(g, p)
            for tv in t.arena.owner:
                assert t.at(p, tv) == brute[tv]
            s = construct_sco(g, p, t)
            assert check_strategy_admissible(g, s, t).admissible
        assert model_check_admissible(g, parse_spec("true")).holds
        spec = parse_spec(f"payoff(1) >= {t.aval[(1, g.init)]}")
        r = synthesize_assume_admissible(g, 1, spec)
        assert r.realizable
        assert check_strategy_admissible(g, r.strategy, t).admissible
        assert verify_strategy_wins(g, 1, spec, r.strategy)


def test_inf_measure_synthesis_carries_records():
    for seed in range(3):
        g = random_game(seed, size=4, measure=PayoffKind.INF, max_out_degree=2)
        t = compute_value_table(g)
        spec = parse_spec(f"payoff(1) >= {t.aval[(1, t.arena.init)]}")
        r = synthesize_assume_admissible(g, 1, spec)
        assert r.realizable
        assert check_strategy_admissible(g, r.strategy, t).admissible
        assert verify_strategy_wins(g, 1, spec, r.strategy)


def test_unrealizable_means_no_memoryless_strategy_wins():
    for seed in range(6):
        g = random_game(seed, size=4, measure=PayoffKind.LIMSUP, max_out_degree=2)
        t = compute_value_table(g)
        hi = max(t.cval[(1, v)] for v in t.arena.owner)
        spec = parse_spec(f"payoff(1) = {hi}")
        r = synthesize_assume_admissible(g, 1, spec)
        if r.realizable:
            assert verify_strategy_wins(g, 1, spec, r.strategy)
            continue
        for sg in profiles(g, own_vertices(g, 1)):
            assert not verify_strategy_wins(g, 1, spec, memoryless(1, sg)), (seed, sg)


def test_peel_decides_the_iar_product_on_seeded_automata():
    # the flat product, peeled, is non-empty iff the intersected automaton,
    # solved as a one-player parity game, is won at its initial state; the
    # peel's component gives a lasso that every component accepts
    from admgames.automata import intersect, negate
    from admgames.outcomes import _atom_automaton, _flat_product, _lasso_through, _parity_game
    from admgames.solvers import _peel, _shortest_path, solve_parity

    rng = random.Random(26)
    answers = set()
    for seed in range(12):
        for measure in REGULAR:
            players = 2 + seed % 2
            g = random_game(seed, size=4, players=players, measure=measure)
            lg = label_edges(g, compute_value_table(g))
            arena = lg.arena
            weights = sorted({w for ws in g.weights.values() for w in ws})
            pool = [outcome_automaton(lg, p) for p in range(1, players + 1)]
            for _ in range(3):
                op = rng.choice(("<", "<=", ">", ">=", "="))
                pool.append(_atom_automaton(arena, rng.randint(1, players), op, rng.choice(weights)))
            for _ in range(3):
                parts = rng.sample(pool, rng.randint(2, 4))
                parts = [negate(a) if rng.random() < 0.5 else a for a in parts]
                states, table, prios = _flat_product(parts)
                comp = _peel(table, prios, range(len(states)))
                product = intersect(arena, parts)
                r0, _ = solve_parity(_parity_game(product, lambda v: 0))
                assert (comp is not None) == (product.initial in r0.vertices), (seed, measure)
                assert len(states) <= len(product.priority)
                answers.add(comp is not None)
                if comp is None:
                    continue
                loop = _lasso_through(comp, table, prios)
                path = _shortest_path(0, loop[0].__eq__, table)
                vertex = [parts[0].vertex[st[0]] for st in states]
                lasso = Lasso(tuple(vertex[s] for s in path[:-1]), tuple(vertex[s] for s in loop))
                assert all(accepts_lasso(a, lasso) for a in parts), (seed, measure)
    assert answers == {False, True}


def _mc_games():
    for seed in range(12):
        for players in (2, 3):
            g = random_game(seed, size=4, players=players, measure=REGULAR[seed % 4])
            weights = sorted({w for ws in g.weights.values() for w in ws})
            for theta in weights[len(weights) // 2:][:2]:
                yield g, parse_spec(f"payoff(1) >= {theta} || payoff({players}) > {theta}")


def test_mc_and_verify_match_the_iar_reference_on_random_games():
    from helpers import reference_model_check, reference_verify_strategy_wins

    verdicts, synthesized = set(), 0
    for g, spec in _mc_games():
        got = model_check_admissible(g, spec)
        assert got.holds == reference_model_check(g, spec).holds, (g.measure, spec)
        verdicts.add(got.holds)
        for player in range(1, g.players + 1):
            r = synthesize_assume_admissible(g, player, spec)
            if r.realizable:
                synthesized += 1
                want = reference_verify_strategy_wins(g, player, spec, r.strategy)
                assert verify_strategy_wins(g, player, spec, r.strategy) == want
    assert verdicts == {False, True} and synthesized > 0


def test_losing_memoryless_profiles_lose_by_the_iar_reference_too():
    # the profiles `test_unrealizable_means_no_memoryless_strategy_wins`
    # enumerates for its unrealizable specs
    from helpers import reference_verify_strategy_wins

    checked = 0
    for seed in range(6):
        g = random_game(seed, size=4, measure=PayoffKind.LIMSUP, max_out_degree=2)
        t = compute_value_table(g)
        hi = max(t.cval[(1, v)] for v in t.arena.owner)
        spec = parse_spec(f"payoff(1) = {hi}")
        if synthesize_assume_admissible(g, 1, spec).realizable:
            continue
        for sg in profiles(g, own_vertices(g, 1)):
            s = memoryless(1, sg)
            assert verify_strategy_wins(g, 1, spec, s) == reference_verify_strategy_wins(g, 1, spec, s)
            checked += 1
    assert checked > 0


def test_mc_and_verify_solve_no_parity_game(monkeypatch):
    from admgames import outcomes

    cases = []
    for name in ("fig1_liminf.game", "fig2.game", "fig3.game"):
        g = load_game(name)
        for spec_name in ("geq2.spec", "geq3.spec", "true.spec"):
            spec = parse_spec(fixture_text(spec_name))
            strategies = [
                (p, r.strategy)
                for p in range(1, g.players + 1)
                for r in [synthesize_assume_admissible(g, p, spec)]
                if r.realizable
            ]
            cases.append((g, spec, model_check_admissible(g, spec), strategies))

    def refuse(pg):
        raise AssertionError("solve_parity called")

    monkeypatch.setattr(outcomes, "solve_parity", refuse)
    assert any(not want.holds for _, _, want, _ in cases)
    assert any(strategies for *_, strategies in cases)
    for g, spec, want, strategies in cases:
        assert model_check_admissible(g, spec) == want
        for p, s in strategies:
            assert verify_strategy_wins(g, p, spec, s)
