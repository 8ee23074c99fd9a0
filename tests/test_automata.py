"""Parity edge-automata: negation, intersection, formats."""

import random

from admgames import PayoffKind, accepts_lasso, parse_automaton, serialize_automaton
from admgames.automata import EdgeAutomaton, constant_automaton, intersect, negate, reindex_edges
from admgames.oracle import random_game, random_lasso


def random_automaton(g, rng, nstates=3, maxpr=4):
    states = [f"r{i}" for i in range(nstates)]
    delta = {
        (s, e): rng.choice(states) for s in states for e in g.weights
    }
    priority = {s: rng.randint(0, maxpr) for s in states}
    return EdgeAutomaton(initial=states[0], delta=delta, priority=priority)


def test_negation_complements():
    rng = random.Random(1)
    g = random_game(4, size=4)
    aut = random_automaton(g, rng)
    for _ in range(300):
        lasso = random_lasso(g, rng)
        assert accepts_lasso(aut, lasso) != accepts_lasso(negate(aut), lasso)


def test_constants():
    rng = random.Random(2)
    g = random_game(5, size=4)
    yes, no = constant_automaton(g, True), constant_automaton(g, False)
    for _ in range(50):
        lasso = random_lasso(g, rng)
        assert accepts_lasso(yes, lasso)
        assert not accepts_lasso(no, lasso)


def test_intersection_is_conjunction():
    rng = random.Random(3)
    for seed in range(15):
        g = random_game(seed, size=3 + seed % 3)
        k = 2 + seed % 2
        comps = [random_automaton(g, rng) for _ in range(k)]
        both = intersect(g, comps)
        for _ in range(200):
            lasso = random_lasso(g, rng)
            want = all(accepts_lasso(a, lasso) for a in comps)
            assert accepts_lasso(both, lasso) == want, (seed, lasso)


def test_nested_products_are_conjunctions():
    # products of products, and a negated product, as components: all of
    # them explored automata with integer states
    rng = random.Random(7)
    for seed in range(10):
        g = random_game(seed, size=3 + seed % 3)
        base = [random_automaton(g, rng) for _ in range(5)]
        comps = [
            intersect(g, base[:2]),
            intersect(g, base[2:4]),
            negate(intersect(g, [base[4], base[0]])),
        ]
        nested = intersect(g, comps)
        for _ in range(150):
            lasso = random_lasso(g, rng)
            want = all(accepts_lasso(c, lasso) for c in comps)
            assert want == (
                all(accepts_lasso(a, lasso) for a in base[:4])
                and not accepts_lasso(base[4], lasso)
            ), (seed, lasso)
            assert accepts_lasso(nested, lasso) == want, (seed, lasso)


def test_union_via_negation():
    rng = random.Random(4)
    for seed in range(8):
        g = random_game(seed, size=4)
        a, b = random_automaton(g, rng), random_automaton(g, rng)
        union = negate(intersect(g, [negate(a), negate(b)]))
        for _ in range(150):
            lasso = random_lasso(g, rng)
            want = accepts_lasso(a, lasso) or accepts_lasso(b, lasso)
            assert accepts_lasso(union, lasso) == want


def test_serialize_parse_preserves_language():
    rng = random.Random(5)
    g = random_game(7, size=4)
    aut = intersect(g, [random_automaton(g, rng), random_automaton(g, rng)])
    again = parse_automaton(serialize_automaton(aut))
    for _ in range(200):
        lasso = random_lasso(g, rng)
        assert accepts_lasso(aut, lasso) == accepts_lasso(again, lasso)


def test_reindex_edges_runs_on_rebuilt_arena():
    from admgames import make_prefix_independent, lift_lasso

    rng = random.Random(6)
    g = random_game(9, size=4, measure=PayoffKind.INF)
    tg = make_prefix_independent(g)
    aut = random_automaton(g, rng)
    mapping = {(u, v): (tg.origin(u), tg.origin(v)) for (u, v) in tg.game.weights}
    lifted_aut = reindex_edges(aut, mapping)
    for _ in range(100):
        lasso = random_lasso(g, rng)
        assert accepts_lasso(aut, lasso) == accepts_lasso(
            lifted_aut, lift_lasso(tg, lasso)
        )
