"""Parity edge-automata: exploration along an arena, negation, intersection,
formats."""

import dataclasses
import random

import pytest

from admgames import PayoffKind, accepts_lasso, parse_automaton, serialize_automaton
from admgames.automata import EdgeAutomaton, constant_automaton, intersect, negate
from admgames.oracle import random_game, random_lasso


def same(v):
    return v


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
    named = random_automaton(g, rng)
    aut = named.along(g, same)
    for _ in range(300):
        lasso = random_lasso(g, rng)
        assert accepts_lasso(aut, lasso) == accepts_lasso(named, lasso)
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
        both = intersect(g, [a.along(g, same) for a in comps])
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
        explored = [a.along(g, same) for a in base]
        comps = [
            intersect(g, explored[:2]),
            intersect(g, explored[2:4]),
            negate(intersect(g, [explored[4], explored[0]])),
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
        union = negate(intersect(g, [negate(a.along(g, same)), negate(b.along(g, same))]))
        for _ in range(150):
            lasso = random_lasso(g, rng)
            want = accepts_lasso(a, lasso) or accepts_lasso(b, lasso)
            assert accepts_lasso(union, lasso) == want


def test_serialize_parse_preserves_language():
    rng = random.Random(5)
    g = random_game(7, size=4)
    aut = intersect(g, [random_automaton(g, rng).along(g, same) for _ in range(2)])
    again = parse_automaton(serialize_automaton(aut))
    for _ in range(200):
        lasso = random_lasso(g, rng)
        assert accepts_lasso(aut, lasso) == accepts_lasso(again, lasso)


def test_along_runs_on_rebuilt_arena():
    # an automaton written against the game's edges, explored along the
    # rebuilt arena, reads each arena edge as the game edge it came from
    from admgames import lift_lasso, make_prefix_independent

    rng = random.Random(6)
    g = random_game(9, size=4, measure=PayoffKind.INF)
    tg = make_prefix_independent(g)
    aut = random_automaton(g, rng)
    lifted_aut = aut.along(tg.game, tg.origin)
    assert lifted_aut.vertex[0] == tg.game.init
    for _ in range(100):
        lasso = random_lasso(g, rng)
        assert accepts_lasso(aut, lasso) == accepts_lasso(
            lifted_aut, lift_lasso(tg, lasso)
        )


def test_explored_automaton_refuses_another_arena():
    rng = random.Random(7)
    g = random_game(3, size=4)
    both = intersect(g, [random_automaton(g, rng).along(g, same) for _ in range(2)])
    assert intersect(g, [both]) is both
    moved = dataclasses.replace(g, init=next(v for v in sorted(g.owner) if v != g.init))
    other = constant_automaton(moved, True)
    for comps in ([both], [both, other], [other, both]):
        with pytest.raises(ValueError, match="explored along another arena"):
            intersect(moved, comps)
