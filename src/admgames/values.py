"""Per-player antagonistic, cooperative, and guarded-cooperative value tables.

For every player and every vertex of the (prefix-independence rebuilt) arena
the table holds three exact rationals:

* aval -- the worst-case value the player can guarantee alone,
* cval -- the best value reachable when everybody cooperates,
* acval -- the best cooperative value still compatible with guaranteeing the
  worst-case value: the cooperative optimum of the subgraph of vertices whose
  worst-case value is not below the current one.

Admissibility is decided per player, so a table solves each player the first
time one of the player's entries is read, and a caller that reads one player
(`sco`, `wco`, `check`, `value_at_history`) never solves the others.  The
rebuild and the dense arena the players share are built eagerly.

Histories of the original game are mapped through the rebuild, so callers
never handle rebuilt vertex names when asking for history values.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .games import Game, check_history
from .solvers import (
    CoalitionGame,
    _DenseThreshold,
    _one_player,
    _unscaled,
    dense_arena,
    zero_sum_value,
)
from .transform import TransformedGame, make_prefix_independent

__all__ = ["ValueTable", "compute_value_table", "value_at_history"]


class _AvalLevels:
    """One player's coalition game on the dense arena, `dt`, with each
    state's `rank` among the player's distinct aval values, so that the
    cooperative optima of the aval levels are one-player solves on
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


class _ByPlayer(dict):
    """A mapping of the table, keyed by player or, with `pairs`, by
    (player, vertex).  Looking up a key of a player not yet solved solves
    that player first, through `solve`; iterating, `len` and `==` see only
    the players solved so far."""

    def __init__(self, solve, pairs: bool):
        super().__init__()
        self._solve, self._pairs = solve, pairs

    def _fill(self, key) -> None:
        if self._pairs:
            key = key[0] if type(key) is tuple and key else None
        self._solve(key)

    def __missing__(self, key):
        self._fill(key)
        if dict.__contains__(self, key):
            return dict.__getitem__(self, key)
        raise KeyError(key)

    def __contains__(self, key) -> bool:
        self._fill(key)
        return dict.__contains__(self, key)

    def get(self, key, default=None):
        self._fill(key)
        return dict.get(self, key, default)


class _PlayerSolves:
    """Solves each player of an arena once, on the dense graph the players
    share, and writes the results into the table's six mappings."""

    def __init__(self, arena: Game, players: int):
        self.arena = arena
        self.dense = dense_arena(arena)
        self.pending = set(range(1, players + 1))
        self.lock = threading.Lock()
        self.aval, self.cval, self.acval = (_ByPlayer(self.solve, True) for _ in range(3))
        self.avalues, self.wcs, self.levels = (_ByPlayer(self.solve, False) for _ in range(3))

    def solve(self, player) -> None:
        """Fill `player`'s entries unless they are there; anything that is
        not a player of the arena is ignored."""
        if player not in self.pending:
            return
        with self.lock:
            if player in self.pending:
                self._solve(player)
                self.pending.discard(player)

    def _solve(self, player: int) -> None:
        arena = self.arena
        cg = CoalitionGame(arena, player)
        dt = _DenseThreshold(cg, self.dense)
        pa, wcs = zero_sum_value(cg, arena.measure, dt=dt)
        avalues = tuple(sorted(set(pa.values())))
        rank_of = {x: r for r, x in enumerate(avalues)}
        rank = [rank_of[pa[v]] for v in dt.verts]
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
        # nothing is written until every check passed
        for v, c, ac in zip(dt.verts, _unscaled(pc, dt.denom), _unscaled(coop, dt.denom)):
            self.aval[(player, v)], self.cval[(player, v)], self.acval[(player, v)] = pa[v], c, ac
        self.avalues[player], self.wcs[player], self.levels[player] = avalues, wcs, lv


@dataclass(frozen=True)
class ValueTable:
    """aval/cval/acval per (player, rebuilt vertex), plus the aval level sets.

    Made by `compute_value_table`, a table solves each player on the first
    lookup of one of its keys; two tables are equal when every player's
    values are, so `==` solves every player of both first."""

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for table in (self, other):
            for player in range(1, table.source.players + 1):
                table.avalues.get(player)
        return all(getattr(self, f.name) == getattr(other, f.name) for f in fields(self) if f.compare)


def compute_value_table(g: Game) -> ValueTable:
    """The value table of `g`, on the arena rebuilt for INF/SUP.

    The rebuild and the dense arena are built here; each player is solved
    on the first lookup of one of its entries.  A player's values come from
    one `_DenseThreshold` of the arena: `zero_sum_value` solves aval on it,
    and the one-player solver gives cval on the whole arena and acval for
    each aval level on the states whose aval rank is at least the level's,
    all on the scaled integer weights.  The table keeps the player's
    `_AvalLevels` for the sco and wco witness lassos.  The level-cycle and
    value-sandwich checks run in the player's solve and raise
    `RuntimeError` from the lookup that started it.
    """
    tg = make_prefix_independent(g)
    solves = _PlayerSolves(tg.game, g.players)
    return ValueTable(
        source=g, transformed=tg, aval=solves.aval, cval=solves.cval, acval=solves.acval,
        avalues=solves.avalues, wcs=solves.wcs, levels=solves.levels,
    )


def value_at_history(
    g: Game, history, player: int, table: ValueTable | None = None
) -> tuple[Fraction, Fraction, Fraction]:
    """Values of a history: the table entries at the rebuilt vertex it reaches."""
    check_history(g, history)
    if table is None:
        table = compute_value_table(g)
    tv = table.transformed.walk(history)
    return table.at(player, tv)
