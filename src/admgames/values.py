"""Per-player antagonistic, cooperative, and guarded-cooperative value tables.

For every player and every vertex of the (prefix-independence rebuilt) arena
the table holds three exact rationals:

* aval -- the worst-case value the player can guarantee alone,
* cval -- the best value reachable when everybody cooperates,
* acval -- the best cooperative value still compatible with guaranteeing the
  worst-case value: the cooperative optimum of the subgraph of vertices whose
  worst-case value is not below the current one.

Histories of the original game are mapped through the rebuild, so callers
never handle rebuilt vertex names when asking for history values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .games import Game, check_history
from .solvers import (
    CoalitionGame,
    dense_arena,
    one_player_max_value,
    one_player_values,
    zero_sum_value,
)
from .transform import TransformedGame, make_prefix_independent

__all__ = ["ValueTable", "compute_value_table", "value_at_history"]


@dataclass(frozen=True)
class ValueTable:
    """aval/cval/acval per (player, rebuilt vertex), plus the aval level sets."""

    source: Game
    transformed: TransformedGame
    aval: dict  # (player, vertex) -> Fraction
    cval: dict
    acval: dict
    avalues: dict  # player -> sorted tuple of distinct aval entries
    wcs: dict  # player -> {vertex: move}, one worst-case-optimal strategy

    @property
    def arena(self) -> Game:
        return self.transformed.game

    def at(self, player: int, vertex) -> tuple[Fraction, Fraction, Fraction]:
        key = (player, vertex)
        return self.aval[key], self.cval[key], self.acval[key]


def _restricted_cooperative(g: Game, player: int, aval: dict, level: Fraction) -> dict:
    """Cooperative optimum inside the vertices whose aval is >= level.

    Adversary vertices keep all their edges in the restriction, and every
    vertex reachable from a level vertex keeps at least one edge, so the
    values below are defined wherever they are read.
    """
    nodes = {v for v in g.owner if aval[v] >= level}
    w = g.player_weights(player)

    def succ(v):
        return tuple(t for t in g.succ[v] if t in nodes)

    return one_player_values(nodes, succ, lambda u, v: w[(u, v)], g.measure, True)


def compute_value_table(g: Game) -> ValueTable:
    """Compute the full value table, rebuilding INF/SUP arenas first."""
    tg = make_prefix_independent(g)
    arena = tg.game
    aval = {}
    cval = {}
    acval = {}
    avalues = {}
    wcs = {}
    # the players' coalition games share one dense graph of the arena
    dense = dense_arena(arena)
    for player in range(1, g.players + 1):
        pa, wcs[player] = zero_sum_value(CoalitionGame(arena, player), arena.measure, dense)
        pc = one_player_max_value(arena, player)
        for v in arena.owner:
            aval[(player, v)] = pa[v]
            cval[(player, v)] = pc[v]
        levels = sorted(set(pa.values()))
        avalues[player] = tuple(levels)
        for level in levels:
            # the lowest level keeps every vertex and edge: cval itself
            coop = pc if level == levels[0] else _restricted_cooperative(arena, player, pa, level)
            for v in arena.owner:
                if pa[v] == level:
                    assert coop[v] is not None, (
                        f"level-{level} subgraph must keep a cycle reachable from {v}"
                    )
                    acval[(player, v)] = coop[v]
        for v in arena.owner:
            k = (player, v)
            assert aval[k] <= acval[k] <= cval[k], (
                f"value sandwich violated at player {player}, vertex {v}: "
                f"{aval[k]} <= {acval[k]} <= {cval[k]}"
            )
    return ValueTable(
        source=g, transformed=tg, aval=aval, cval=cval, acval=acval, avalues=avalues, wcs=wcs
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
