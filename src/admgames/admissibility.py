"""Deciding admissibility of finite-memory strategies and building admissible ones.

The checker runs the value-based characterization: a strategy is admissible
iff at every reachable history ending in one of the player's vertices,
either the strategy still admits a cooperative payoff strictly above the
history's worst-case value, or the strategy's payoff is pinned exactly at
that worst-case value and no strategy could combine the same guarantee with
a better cooperative option.  Under prefix-independent payoffs (after the
INF/SUP rebuild) the relevant values of a history depend only on the
reached (arena vertex, memory) pair, so checking the reachable states of
the strategy-arena product covers all histories.

All three constructors lay out one pursuit rule, `_pursue`, and differ only
in the lassos they pursue and in when they stop following one.
`construct_sco` pursues a fixed cooperative-optimal lasso wherever
cooperation can beat the guarantee and falls back to uniform
worst-case-optimal play where it cannot; it re-evaluates whenever another
player leaves the pursued lasso.  Such strategies are always admissible.
`construct_wco_candidate` instead pursues the best cooperative payoff that
keeps the worst-case guarantee intact at every step; games need not admit
such a strategy, so the result carries a verification flag.
`strategy_from_outcome` follows a given lasso and plays as `construct_sco`
once the play leaves it.  Which vertices have a lasso is decided up front,
and `_pursue` takes that set with a builder of the lasso from a vertex,
which it calls the first time the layout restarts there, so the lassos of
vertices the strategy never restarts at cost nothing.
Passed no value table, each entry point builds one of its own player alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from .games import Game
from .solvers import _shortest_path, _WitnessLassos, fixed_strategy_extremes
from .transform import MooreStrategy, _require_valid, moore_layout, product_with_strategy
from .values import ValueTable, _value_table

__all__ = [
    "AdmissibilityVerdict",
    "check_strategy_admissible",
    "construct_sco",
    "construct_wco_candidate",
    "strategy_from_outcome",
]

EQ_DROP = "eq3"  # worst case drops below the history value, cooperation cannot repay
EQ_PIN = "eq4"  # payoff pinned at the guarantee although a better option existed


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Checker outcome; on rejection carries the first violating product state."""

    admissible: bool
    player: int
    vertex: str | None = None
    memory: int | None = None
    witness: tuple[str, ...] = ()
    violated: str | None = None
    aval: Fraction | None = None
    acval: Fraction | None = None
    strat_min: Fraction | None = None
    strat_max: Fraction | None = None


def _product(s: MooreStrategy, table: ValueTable):
    """The product of the validated `s` with the table's rebuilt arena."""
    tg = table.transformed
    observe = {tv: tg.origin(tv) for tv in tg.game.owner}
    return product_with_strategy(tg.game, s, observe=observe)


def check_strategy_admissible(
    g: Game, s: MooreStrategy, table: ValueTable | None = None
) -> AdmissibilityVerdict:
    """Decide admissibility; on rejection report the first violation in BFS order."""
    _require_valid(g, s)
    if table is None:
        table = _value_table(g, (s.player,))
    prod = _product(s, table)
    extremes = fixed_strategy_extremes(prod, table.levels[s.player].dt)
    arena = prod.arena
    tg = table.transformed

    for i, (tv, mem) in enumerate(prod.states):  # breadth first from state 0
        if arena.owner[tv] != s.player:
            continue
        q = table.aval[(s.player, tv)]
        ac = table.acval[(s.player, tv)]
        lo, hi = extremes[(tv, mem)]
        if hi > q:
            continue
        if lo == hi == q == ac:
            continue
        violated = EQ_DROP if lo < q else EQ_PIN
        # states are numbered breadth first, so the search takes as each
        # state's parent the first state that lists it
        chain = _shortest_path(0, i.__eq__, prod.table)
        return AdmissibilityVerdict(
            admissible=False,
            player=s.player,
            vertex=tg.origin(tv),
            memory=mem,
            witness=tuple(tg.origin(prod.states[j][0]) for j in chain),
            violated=violated,
            aval=q,
            acval=ac,
            strat_min=lo,
            strat_max=hi,
        )
    return AdmissibilityVerdict(admissible=True, player=s.player)


# ---------------------------------------------------------------------------
# strategy construction


def _pursue(table: ValueTable, player: int, starts, make, keep, start=None) -> MooreStrategy:
    """Lay out the strategy that pursues lassos of the rebuilt arena.

    `starts` holds the vertices that have a lasso, and `make(v)` gives the
    pair (lasso from v, its keep class); it is called the first time the
    layout restarts at v.  A lasso mode moves along the rest of a lasso.
    It keeps doing so while the play follows the lasso and `keep(class,
    next vertex)` holds; otherwise it restarts at the vertex entered: that
    vertex's own lasso if it is in `starts`, else mode ("wco", v, 0), which
    plays `table.wcs` from then on.  The play starts on `start`, a (lasso,
    class) pair, or by default with the restart at the initial vertex.

    What a lasso mode does depends only on the rest of its lasso, an
    ultimately periodic word, and on its class, so modes that agree on both
    are one mode: it is keyed by the word's normal form (`Lasso.normal`)
    and the class, and is ("lasso", a, pos) for the first position `pos` of
    the lasso from a the layout reached with that key.  The key is computed
    once per lasso position reached.  The mode graph is a quotient of the one
    with a mode per position, so `moore_layout` gives the same minimal Moore
    strategy, without expanding the modes it would merge.
    """
    arena = table.arena
    wcs = table.wcs[player]
    shapes = {}  # lasso key -> its vertices, cycle start, class and normal form
    at = {}  # (lasso key, position) -> mode
    modes = {}  # normal form and class -> mode

    def shape(a):
        # the start is keyed None, never a restart: vertices are strings
        lasso, c = start if a is None else make(a)
        normal = lasso.normal()
        shapes[a] = found = (
            lasso.vertices(), len(lasso.prefix), c, len(normal.prefix), normal.cycle
        )
        return found

    def mode_at(a, pos):
        mode = at.get((a, pos))
        if mode is None:
            nodes, _, cls, k, root = shapes.get(a) or shape(a)
            if pos < k:
                key = (cls, nodes[pos:k], root)
            else:
                j = (pos - k) % len(root)
                key = (cls, (), root[j:] + root[:j])
            mode = at[(a, pos)] = modes.setdefault(key, ("lasso", a, pos))
        return mode

    def restart(tv):
        return mode_at(tv, 0) if tv in starts else ("wco", tv, 0)

    def expand(mode):
        kind, a, pos = mode
        if kind == "wco":
            move = (a, wcs[a]) if arena.owner[a] == player else None
            return move, [(tv2, ("wco", tv2, 0)) for tv2 in arena.successors(a)]
        nodes, cycle_start, c, _, _ = shapes[a]
        nxt = pos + 1 if pos + 1 < len(nodes) else cycle_start
        tv, ahead = nodes[pos], nodes[nxt]
        move = (tv, ahead) if arena.owner[tv] == player else None
        return move, [
            (tv2, mode_at(a, nxt) if tv2 == ahead and keep(c, tv2) else restart(tv2))
            for tv2 in arena.successors(tv)
        ]

    first = restart(arena.init) if start is None else mode_at(None, 0)
    return moore_layout(table.source, player, table.transformed.origin, first, expand)


def _sco_lassos(table: ValueTable, player: int):
    """The vertices where cval > aval, and the builder of a
    cooperative-optimal lasso from each, in the one keep class False."""
    levels = table.levels[player]
    dt = levels.dt
    witnesses = _WitnessLassos(dt, table.arena.measure)
    starts = {
        v: i for i, v in enumerate(dt.verts) if table.cval[(player, v)] > table.aval[(player, v)]
    }
    return starts, lambda v: (witnesses.lasso(starts[v], levels.cval[starts[v]]), False)


def _wco_lassos(table: ValueTable, player: int):
    """Every vertex, and the builder of a lasso from each of payoff acval
    that stays inside the vertices of the same aval (when one exists) or of
    no lower aval, in the keep class of its aval."""
    levels = table.levels[player]
    dt, rank, acval = levels.dt, levels.rank, levels.acval
    # the cooperative optimum inside the vertex's own level, solved on the
    # first read
    flat = cache(partial(levels.per_level, True))
    witnesses = _WitnessLassos(dt, table.arena.measure)

    def make(v):
        i = dt.idx[v]
        lasso = witnesses.lasso(i, acval[i], levels.member(rank[i], flat()[i] == acval[i]))
        return lasso, table.aval[(player, v)]

    return table.arena.owner, make


def _sco_pursuit(table: ValueTable, player: int, given=None) -> MooreStrategy:
    """Pursue the sco lassos, in one class kept while the next vertex has
    one; a `given` lasso starts the play, in a class of its own that is
    always kept: leaving it is the only way off."""
    starts, make = _sco_lassos(table, player)
    start = None if given is None else (given, True)
    return _pursue(table, player, starts, make, lambda kept, tv: kept or tv in starts, start)


def construct_sco(g: Game, player: int, table: ValueTable | None = None) -> MooreStrategy:
    """Strategy that is cooperative-optimal wherever cooperation can beat the
    worst case and worst-case-optimal elsewhere; always admissible."""
    if table is None:
        table = _value_table(g, (player,))
    return _sco_pursuit(table, player)


def construct_wco_candidate(
    g: Game, player: int, table: ValueTable | None = None
) -> tuple[MooreStrategy, bool]:
    """Best-effort worst-case cooperative-optimal strategy plus verification.

    It pursues, from every vertex, a lasso of payoff acval that stays inside
    the vertices of the same aval (when one exists) or of no lower aval, and
    re-plans whenever aval changes.  The flag is True iff at every reachable
    product state the strategy's guaranteed payoff equals the state's
    worst-case value and its best cooperative payoff equals the state's
    guarded cooperative optimum; some games admit no such strategy, in which
    case it is False.
    """
    if table is None:
        table = _value_table(g, (player,))
    aval = {v: table.aval[(player, v)] for v in table.arena.owner}
    s = _pursue(table, player, *_wco_lassos(table, player), lambda q, tv: aval[tv] == q)
    _require_valid(g, s)
    prod = _product(s, table)
    extremes = fixed_strategy_extremes(prod, table.levels[player].dt)
    verified = all(
        extremes[(tv, m)] == (table.aval[(player, tv)], table.acval[(player, tv)])
        for (tv, m) in prod.states
    )
    return s, verified


def strategy_from_outcome(g: Game, player: int, lasso, table: ValueTable | None = None):
    """Strategy compatible with a given lasso of the rebuilt arena that
    restarts admissible play on any deviation (used to witness outcome-level
    characterizations).  The lasso must start at the arena's initial vertex.
    Under INF/SUP the arena is the rebuild `table.arena`, not `g`; a lasso of
    `g` is mapped there with `transform.lift_lasso`.
    """
    if table is None:
        table = _value_table(g, (player,))
    try:
        lasso.check(table.arena)
    except ValueError as err:
        if table.transformed.identity:
            raise
        raise ValueError(
            f"{err}: under {g.measure.value} the lasso must be one of the rebuilt "
            "arena table.arena; lift_lasso maps a lasso of the game there"
        ) from None
    if lasso.start != table.arena.init:
        raise ValueError(
            f"lasso starts at {lasso.start}, not at the initial vertex {table.arena.init}"
        )
    return _sco_pursuit(table, player, lasso)
