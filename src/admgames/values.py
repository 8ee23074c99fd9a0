"""Per-player antagonistic, cooperative, and guarded-cooperative value tables.

For every player and every vertex of the (prefix-independence rebuilt) arena
the table holds three exact rationals:

* aval -- the worst-case value the player can guarantee alone,
* cval -- the best value reachable when everybody cooperates,
* acval -- the best cooperative value still compatible with guaranteeing the
  worst-case value: the cooperative optimum of the subgraph of vertices whose
  worst-case value is not below the current one.

Admissibility is decided per player, so a caller that reads one player
(`sco`, `wco`, `check`, `value_at_history`) builds a table of that player
alone; `compute_value_table` solves every player.

Histories of the original game are mapped through the rebuild, so callers
never handle rebuilt vertex names when asking for history values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .games import Game, check_history
from .solvers import _DenseGraph, _DenseThreshold, _one_player, _unscaled, zero_sum_value
from .transform import TransformedGame, make_prefix_independent

__all__ = ["ValueTable", "compute_value_table", "value_at_history"]


class _AvalLevels:
    """One player's coalition game on the arena's dense graph, `dt`, with
    each state's `rank` among the player's distinct aval values, so that
    the cooperative optima of the aval levels are one-player solves on
    membership arrays that compare ranks as ints.  `cval` and `acval` hold
    every state's scaled cooperative optimum on the whole arena and on the
    states of aval rank at least its own."""

    def __init__(self, dt: _DenseThreshold, rank: list, count: int, measure):
        self.dt, self.rank, self.count, self.measure = dt, rank, count, measure
        self._member = {}
        # the lowest level keeps every vertex and edge: cval itself
        self.cval = self.optimum(self.member(0, False))
        self.acval = self.per_level(False, lowest=self.cval)

    def member(self, r: int, exact: bool) -> bytearray:
        """The membership array of the states whose rank equals r (`exact`)
        or is at least r, built once."""
        if (r, exact) not in self._member:
            self._member[(r, exact)] = bytearray(x == r if exact else x >= r for x in self.rank)
        return self._member[(r, exact)]

    def optimum(self, inside: bytearray) -> list:
        """Scaled cooperative optimum of every state that `inside` marks."""
        return _one_player(self.dt.succ, self.dt.weight, inside, self.measure, True)

    def per_level(self, exact: bool, lowest: list | None = None) -> list:
        """Each state's scaled cooperative optimum among the states whose
        rank equals its own (`exact`) or is at least its own.  `lowest` is
        the optimum on rank 0's array when the caller has already solved it."""
        rank = self.rank
        out = [None] * len(rank)
        for r in range(self.count):
            vals = lowest if r == 0 and lowest is not None else self.optimum(self.member(r, exact))
            for i, x in enumerate(rank):
                if x == r:
                    out[i] = vals[i]
        return out


@dataclass(frozen=True)
class ValueTable:
    """aval/cval/acval per (player, rebuilt vertex), plus the aval level sets.

    `compute_value_table` fills it for every player of the game; the
    one-player entry points of `admissibility` and `value_at_history` fill
    it for their own player only and never hand it out."""

    source: Game
    transformed: TransformedGame
    aval: dict  # (player, vertex) -> Fraction
    cval: dict
    acval: dict
    avalues: dict  # player -> sorted tuple of distinct aval entries
    wcs: dict  # player -> {vertex: move}, one worst-case-optimal strategy
    levels: dict = field(compare=False, repr=False)  # player -> _AvalLevels

    @property
    def arena(self) -> Game:
        return self.transformed.game

    def at(self, player: int, vertex) -> tuple[Fraction, Fraction, Fraction]:
        key = (player, vertex)
        return self.aval[key], self.cval[key], self.acval[key]


def _solve_player(table: ValueTable, dense: _DenseGraph, player: int) -> None:
    """Solve `player` on the table's arena, whose dense graph is `dense`,
    and write the player's entries into the table's mappings."""
    arena = table.arena
    dt = _DenseThreshold(dense, player)
    pa, wcs, level = zero_sum_value(dt, arena.measure)
    # the values are ranked by their int levels; each level's value is
    # read off its first state
    first = {}
    for i, t in enumerate(level):
        first.setdefault(t, i)
    order = sorted(first)
    rank_of = {t: r for r, t in enumerate(order)}
    rank = [rank_of[t] for t in level]
    avalues = tuple(pa[dt.verts[first[t]]] for t in order)
    lv = _AvalLevels(dt, rank, len(rank_of), arena.measure)
    pc, coop = lv.cval, lv.acval
    # the checks compare scaled values: an extremum level is an int there
    floor = [x * dt.denom for x in avalues]
    floor = [x.numerator if x.denominator == 1 else x for x in floor]
    for i, v in enumerate(dt.verts):
        if coop[i] is None:
            raise RuntimeError(
                f"level-{pa[v]} subgraph must keep a cycle reachable from {v}"
            )
        if not floor[rank[i]] <= coop[i] <= pc[i]:
            raise RuntimeError(
                f"value sandwich violated at player {player}, vertex {v}: "
                f"{pa[v]} <= {Fraction(coop[i], dt.denom)} <= {Fraction(pc[i], dt.denom)}"
            )
    for v, c, ac in zip(dt.verts, _unscaled(pc, dt.denom), _unscaled(coop, dt.denom)):
        table.aval[(player, v)], table.cval[(player, v)], table.acval[(player, v)] = pa[v], c, ac
    table.avalues[player], table.wcs[player], table.levels[player] = avalues, wcs, lv


def _value_table(g: Game, players) -> ValueTable:
    """The value table of `g` holding the entries of `players` only.  A
    player that is not one of `g` raises `ValueError` before anything is
    solved."""
    for player in players:
        if not 1 <= player <= g.players:
            raise ValueError(f"player {player} not in 1..{g.players}")
    tg = make_prefix_independent(g)
    table = ValueTable(g, tg, {}, {}, {}, {}, {}, {})
    # the players' coalition games share one dense graph of the arena
    dense = _DenseGraph(tg.game)
    for player in players:
        _solve_player(table, dense, player)
    return table


def compute_value_table(g: Game) -> ValueTable:
    """The value table of every player of `g`, on the arena rebuilt for
    INF/SUP.

    Each player's values come from one `_DenseThreshold` of the arena:
    `zero_sum_value` solves aval on it, and the one-player solver gives cval
    on the whole arena and acval for each aval level on the states whose
    aval rank is at least the level's, all on the scaled integer weights.
    The table keeps the player's `_AvalLevels` for the sco and wco witness
    lassos.  The level-cycle and value-sandwich checks raise `RuntimeError`.
    """
    return _value_table(g, range(1, g.players + 1))


def value_at_history(
    g: Game, history, player: int, table: ValueTable | None = None
) -> tuple[Fraction, Fraction, Fraction]:
    """Values of a history: the table entries at the rebuilt vertex it
    reaches.  Passed no table, it solves `player` alone."""
    check_history(g, history)
    if table is None:
        table = _value_table(g, (player,))
    tv = table.transformed.walk(history)
    return table.at(player, tv)
