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

`construct_sco` builds a strategy that pursues a fixed cooperative-optimal
lasso wherever cooperation can beat the guarantee and falls back to uniform
worst-case-optimal play where it cannot; it re-evaluates whenever another
player leaves the pursued lasso.  Such strategies are always admissible.
`construct_wco_candidate` instead pursues the best cooperative payoff that
keeps the worst-case guarantee intact at every step; games need not admit
such a strategy, so the result carries a verification flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .games import Game, GameFormatError
from .solvers import _WitnessLassos, fixed_strategy_extremes, one_player_values
from .transform import MooreStrategy, moore_layout, product_with_strategy, validate_strategy
from .values import ValueTable, compute_value_table

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


def _checked_product(g: Game, s: MooreStrategy, table: ValueTable):
    problems = validate_strategy(g, s)
    if problems:
        raise GameFormatError("; ".join(problems))
    tg = table.transformed
    observe = {tv: tg.origin(tv) for tv in tg.game.owner}
    return product_with_strategy(tg.game, s, observe=observe)


def check_strategy_admissible(
    g: Game, s: MooreStrategy, table: ValueTable | None = None
) -> AdmissibilityVerdict:
    """Decide admissibility; on rejection report the first violation in BFS order."""
    if table is None:
        table = compute_value_table(g)
    prod = _checked_product(g, s, table)
    extremes = fixed_strategy_extremes(prod, s.player)
    arena = prod.arena
    tg = table.transformed

    for state in prod.succ:  # breadth first from prod.init
        tv, mem = state
        if arena.owner[tv] != s.player:
            continue
        q = table.aval[(s.player, tv)]
        ac = table.acval[(s.player, tv)]
        lo, hi = extremes[state]
        if hi > q:
            continue
        if lo == hi == q == ac:
            continue
        violated = EQ_DROP if lo < q else EQ_PIN
        # the first state listing a successor is its breadth-first parent
        parent = {prod.init: None}
        for src, outs in prod.succ.items():
            for nxt in outs:
                parent.setdefault(nxt, src)
        chain = [state]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        chain.reverse()
        return AdmissibilityVerdict(
            admissible=False,
            player=s.player,
            vertex=tg.origin(tv),
            memory=mem,
            witness=tuple(tg.origin(x[0]) for x in chain),
            violated=violated,
            aval=q,
            acval=ac,
            strat_min=lo,
            strat_max=hi,
        )
    return AdmissibilityVerdict(admissible=True, player=s.player)


# ---------------------------------------------------------------------------
# strategy construction


def _advance(nodes, cycle_start, pos):
    """Position after `pos` on a lasso laid out as prefix + cycle."""
    return pos + 1 if pos + 1 < len(nodes) else cycle_start


class _ModeMachine:
    """Shared scaffolding: finite modes over the rebuilt arena.

    A mode always knows the arena vertex it sits on; subclasses define the
    initial mode of a vertex, the successor mode when the play enters an
    arena vertex, and the move taken at player-owned modes.
    """

    def __init__(self, table: ValueTable, player: int):
        self.table = table
        self.player = player
        self.arena = table.arena
        self.tg = table.transformed

    def aval(self, tv) -> Fraction:
        return self.table.aval[(self.player, tv)]

    def cval(self, tv) -> Fraction:
        return self.table.cval[(self.player, tv)]

    def acval(self, tv) -> Fraction:
        return self.table.acval[(self.player, tv)]

    def mode_vertex(self, mode):
        raise NotImplementedError

    def initial_mode(self, tv):
        raise NotImplementedError

    def next_mode(self, mode, tv2):
        raise NotImplementedError

    def mode_move(self, mode):
        raise NotImplementedError

    def to_strategy(self) -> MooreStrategy:
        """Explore reachable modes and lay them out as a Moore transducer."""
        arena = self.arena

        def expand(mode):
            tv = self.mode_vertex(mode)
            move = (tv, self.mode_move(mode)) if arena.owner[tv] == self.player else None
            return move, [(tv2, self.next_mode(mode, tv2)) for tv2 in arena.successors(tv)]

        return moore_layout(
            self.table.source, self.player, self.tg.origin, self.initial_mode(arena.init), expand
        )


class _ScoMachine(_ModeMachine):
    """Pursue a cooperative-optimal lasso; switch to worst-case play when
    cooperation has no edge over the guarantee."""

    def __init__(self, table: ValueTable, player: int):
        super().__init__(table, player)
        arena = self.arena
        witnesses = _WitnessLassos(arena, player)
        self.lassos = {}
        for v in arena.owner:
            if self.cval(v) > self.aval(v):
                lasso = witnesses.lasso(v, self.cval(v))
                nodes = lasso.prefix + lasso.cycle
                self.lassos[v] = (nodes, len(lasso.prefix))

    def mode_vertex(self, mode):
        kind, a, pos = mode
        if kind == "wco":
            return a
        return self.lassos[a][0][pos]

    def initial_mode(self, tv):
        if self.cval(tv) > self.aval(tv):
            return ("lasso", tv, 0)
        return ("wco", tv, 0)

    def next_mode(self, mode, tv2):
        kind, a, pos = mode
        if kind == "wco":
            return ("wco", tv2, 0)
        nodes, cstart = self.lassos[a]
        nxt = _advance(nodes, cstart, pos)
        if tv2 == nodes[nxt]:
            if self.cval(tv2) == self.aval(tv2):
                return ("wco", tv2, 0)
            return ("lasso", a, nxt)
        return self.initial_mode(tv2)

    def mode_move(self, mode):
        kind, a, pos = mode
        if kind == "wco":
            return self.table.wcs[self.player][a]
        nodes, cstart = self.lassos[a]
        return nodes[_advance(nodes, cstart, pos)]


def construct_sco(g: Game, player: int, table: ValueTable | None = None) -> MooreStrategy:
    """Strategy that is cooperative-optimal wherever cooperation can beat the
    worst case and worst-case-optimal elsewhere; always admissible."""
    if table is None:
        table = compute_value_table(g)
    return _ScoMachine(table, player).to_strategy()


class _WcoMachine(_ModeMachine):
    """Pursue the best cooperation compatible with keeping the guarantee."""

    def __init__(self, table: ValueTable, player: int):
        super().__init__(table, player)
        arena = self.arena
        aval = {v: self.aval(v) for v in arena.owner}
        w = arena.player_weights(player)
        per_level = {}
        for level in table.avalues[player]:
            exact = frozenset(u for u in arena.owner if aval[u] == level)
            wide = frozenset(u for u in arena.owner if aval[u] >= level)
            flat = one_player_values(
                exact,
                lambda x: tuple(t for t in arena.succ[x] if t in exact),
                lambda a, b: w[(a, b)],
                arena.measure,
                True,
            )
            per_level[level] = (exact, wide, flat)
        witnesses = _WitnessLassos(arena, player)
        self.lassos = {}
        for v in arena.owner:
            target = self.acval(v)
            exact, wide, flat = per_level[aval[v]]
            allowed = exact if flat.get(v) == target else wide
            lasso = witnesses.lasso(v, target, allowed)
            self.lassos[v] = (lasso.prefix + lasso.cycle, len(lasso.prefix))

    def mode_vertex(self, mode):
        a, pos = mode
        return self.lassos[a][0][pos]

    def initial_mode(self, tv):
        return (tv, 0)

    def next_mode(self, mode, tv2):
        a, pos = mode
        nodes, cstart = self.lassos[a]
        nxt = _advance(nodes, cstart, pos)
        if tv2 == nodes[nxt] and self.aval(tv2) == self.aval(a):
            return (a, nxt)
        return (tv2, 0)

    def mode_move(self, mode):
        a, pos = mode
        nodes, cstart = self.lassos[a]
        return nodes[_advance(nodes, cstart, pos)]


def construct_wco_candidate(
    g: Game, player: int, table: ValueTable | None = None
) -> tuple[MooreStrategy, bool]:
    """Best-effort worst-case cooperative-optimal strategy plus verification.

    The flag is True iff at every reachable product state the strategy's
    guaranteed payoff equals the state's worst-case value and its best
    cooperative payoff equals the state's guarded cooperative optimum; some
    games admit no such strategy, in which case it is False.
    """
    if table is None:
        table = compute_value_table(g)
    s = _WcoMachine(table, player).to_strategy()
    prod = _checked_product(g, s, table)
    extremes = fixed_strategy_extremes(prod, player)
    verified = all(
        extremes[(tv, m)] == (table.aval[(player, tv)], table.acval[(player, tv)])
        for (tv, m) in prod.states
    )
    return s, verified


class _FollowMachine(_ModeMachine):
    """Follow a fixed lasso; restart cooperative/worst-case play on deviation."""

    def __init__(self, table: ValueTable, player: int, nodes, cycle_start):
        super().__init__(table, player)
        self.sco = _ScoMachine(table, player)
        self.nodes = nodes
        self.cstart = cycle_start

    def mode_vertex(self, mode):
        kind, payload = mode
        if kind == "follow":
            return self.nodes[payload]
        return self.sco.mode_vertex(payload)

    def initial_mode(self, tv):
        assert tv == self.nodes[0]
        return ("follow", 0)

    def next_mode(self, mode, tv2):
        kind, payload = mode
        if kind == "follow":
            nxt = _advance(self.nodes, self.cstart, payload)
            if tv2 == self.nodes[nxt]:
                return ("follow", nxt)
            return ("sco", self.sco.initial_mode(tv2))
        return ("sco", self.sco.next_mode(payload, tv2))

    def mode_move(self, mode):
        kind, payload = mode
        if kind == "follow":
            return self.nodes[_advance(self.nodes, self.cstart, payload)]
        return self.sco.mode_move(payload)


def strategy_from_outcome(g: Game, player: int, lasso, table: ValueTable | None = None):
    """Strategy compatible with a given arena lasso that restarts admissible
    play on any deviation (used to witness outcome-level characterizations)."""
    if table is None:
        table = compute_value_table(g)
    lasso.check(table.arena)
    nodes = lasso.prefix + lasso.cycle
    return _FollowMachine(table, player, nodes, len(lasso.prefix)).to_strategy()
