"""Prefix-independence transform and strategy-game products.

INF and SUP payoffs depend on the whole play, including its finite prefix.
`make_prefix_independent` rebuilds such an arena so that every vertex also
records, per player, the extremum weight seen so far; edge weights are
folded into the running extremum.  On the rebuilt arena the weight sequence
of any play is monotone, so its INF (resp. SUP) value equals its eventual
stable weight and the measure becomes prefix-independent while every play
keeps its original payoff.  The other four measures pass through untouched.

`product_with_strategy` synchronizes a finite-state Moore strategy with an
arena: the strategy owner's choices are resolved by the transducer, all
other players keep their choices, and memory advances on every traversed
edge.  `moore_layout` turns the modes of a strategy construction into a
minimal Moore strategy; every constructed strategy goes through it.  All three
explore their states with `solvers.explore` and number them, where they
need numbers or names, in its breadth-first discovery order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .games import Game, GameFormatError, Lasso, PayoffKind, parse_int, run_until_repeat
from .solvers import explore

__all__ = [
    "TransformedGame",
    "MooreStrategy",
    "ProductGame",
    "make_prefix_independent",
    "product_with_strategy",
    "parse_strategy",
    "serialize_strategy",
    "validate_strategy",
    "lift_lasso",
]


def _rec_token(q: Fraction | None) -> str:
    if q is None:
        return "x"
    sign = "m" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q.numerator}" + ("" if q.denominator == 1 else f"_{q.denominator}")


@dataclass(frozen=True)
class TransformedGame:
    """Arena with prefix-independent payoff semantics plus its origin map.

    `back` maps each rebuilt vertex to (original vertex, per-player recorded
    extremum vector); `step[(tv, original successor)]` resolves one move of
    the original game inside the rebuilt arena.  For already
    prefix-independent measures the transform is the identity.
    """

    game: Game
    back: dict[str, tuple[str, tuple[Fraction | None, ...]]]
    step: dict[tuple[str, str], str]
    identity: bool

    def origin(self, tv: str) -> str:
        return self.back[tv][0]

    def walk(self, history) -> str:
        """Transformed vertex reached by running a history of the original game."""
        tv = self.game.init
        for v in history[1:]:
            tv = self.step[(tv, v)]
        return tv


def make_prefix_independent(g: Game) -> TransformedGame:
    """Record per-player extremum weights so INF/SUP become prefix-independent.

    Only the part reachable from the initial vertex is built.  Weight output
    on an edge is the extremum of the recorded value and the original weight,
    which also becomes the new record.
    """
    if g.measure.prefix_independent:
        back = {v: (v, ()) for v in g.owner}
        step = {(u, v): v for (u, v) in g.weights}
        return TransformedGame(game=g, back=back, step=step, identity=True)

    fold = min if g.measure is PayoffKind.INF else max

    def fold1(rec: Fraction | None, w: Fraction) -> Fraction:
        return w if rec is None else fold(rec, w)

    taken = set()

    def name(v: str, recs: tuple[Fraction | None, ...]) -> str:
        base = v + "__" + "_".join(_rec_token(r) for r in recs)
        fresh = base
        bump = 2
        while fresh in taken:  # defensive: token joins could collide
            fresh = f"{base}__{bump}"
            bump += 1
        taken.add(fresh)
        return fresh

    def succ(state):
        v, recs = state
        for v2 in g.successors(v):
            yield v2, tuple(fold1(r, w) for r, w in zip(recs, g.weights[(v, v2)]))

    init_state = (g.init, (None,) * g.players)
    states, table = explore(init_state, succ)
    names = [name(*state) for state in states]
    owner: dict[str, int] = {}
    weights: dict[tuple[str, str], tuple[Fraction, ...]] = {}
    back: dict[str, tuple[str, tuple[Fraction | None, ...]]] = {}
    step: dict[tuple[str, str], str] = {}
    for tv, state, outs in zip(names, states, table):
        owner[tv] = g.owner[state[0]]
        back[tv] = state
        for j in outs:
            tv2, state2 = names[j], states[j]
            weights[(tv, tv2)] = state2[1]
            step[(tv, state2[0])] = tv2

    tg = Game(
        players=g.players,
        owner=owner,
        weights=weights,
        init=names[0],
        measure=g.measure,
    )
    return TransformedGame(game=tg, back=back, step=step, identity=False)


def lift_lasso(tg: TransformedGame, lasso):
    """Image of an original-game lasso in the rebuilt arena.

    The cycle may unroll several times until the recorded extrema stabilize;
    the result is again ultimately periodic.
    """
    if tg.identity:
        return lasso
    start = lasso.prefix[0] if lasso.prefix else lasso.cycle[0]
    if start != tg.origin(tg.game.init):
        raise ValueError("lifted lassos must start at the initial vertex")
    trace = [tg.game.init]
    for v in (lasso.prefix + lasso.cycle)[1:]:
        trace.append(tg.step[(trace[-1], v)])
    cyc = lasso.cycle

    def step(key):  # (index in cyc of the vertex entered next, rebuilt vertex)
        pos, tv = key
        return (pos + 1) % len(cyc), tg.step[(tv, cyc[pos])]

    pre, loop = run_until_repeat((0, trace.pop()), step)
    return Lasso(
        prefix=tuple(trace) + tuple(tv for _, tv in pre),
        cycle=tuple(tv for _, tv in loop),
    )


@dataclass(frozen=True)
class MooreStrategy:
    """Finite-state transducer strategy for one player.

    Memory states are 0..memory-1.  The memory starts at `init_mem` on the
    initial vertex and advances by `update` on every vertex entered
    afterwards; entries missing from `update` leave the memory unchanged.
    At a vertex owned by the player, the move taken is `moves[(mem, vertex)]`.
    """

    player: int
    memory: int
    init_mem: int
    update: dict[tuple[int, str], int] = field(default_factory=dict)
    moves: dict[tuple[int, str], str] = field(default_factory=dict)

    def next_memory(self, mem: int, vertex: str) -> int:
        return self.update.get((mem, vertex), mem)


def moore_layout(g: Game, player: int, origin, start, expand) -> MooreStrategy:
    """Lay the modes reachable from `start` out as a Moore strategy on `g`.

    `expand(mode)` returns the move taken in the mode, an arena edge or None
    where the player does not move, and the (arena vertex, next mode) pairs
    the play continues with; it is called once per mode.  `origin` maps
    arena vertices to the vertices of `g` the strategy reads.

    The result is the minimal Moore machine of the modes: two modes share a
    memory state iff they take the same move at every vertex and, after
    entering any vertex, go on in modes that share one.  The classes come
    from signature refinement over the sparse mode data.  The first
    partition is by the mode's move, where a move to the vertex's first
    successor counts as no move.  Then a class is split by the classes its
    members' `update` entries lead to (an entry into the member's own
    class is the same as none), and split again whenever a member's class
    or a target's class has changed, until no class splits.  Memory states
    are the classes, numbered breadth first from the class of `start`,
    following each class's entries in sorted vertex order, not the modes'
    indices.  The move table is total: where a class never moves at one of
    the player's vertices, it takes that vertex's first successor.
    """
    expanded = []  # per mode, in number order: expand's answer

    def succ(mode):
        expanded.append(expand(mode))
        return [nxt for _, nxt in expanded[-1][1]]

    _, table = explore(start, succ)
    default = {v: g.successors(v)[0] for v in g.owner if g.owner[v] == player}
    row, outs = [], []  # per mode: its non-default move, its sorted entries
    for (move, pairs), targets in zip(expanded, table):
        if move is not None:
            move = (origin(move[0]), origin(move[1]))
            if default[move[0]] == move[1]:
                move = None
        row.append(move)
        entries = {origin(tv2): j for (tv2, _), j in zip(pairs, targets)}
        outs.append(sorted(entries.items()))

    by_row = {}
    cls = [by_row.setdefault(r, len(by_row)) for r in row]
    members = [[] for _ in by_row]
    for i, c in enumerate(cls):
        members[c].append(i)
    preds = [[] for _ in row]
    for i, entries in enumerate(outs):
        for _, t in entries:
            preds[t].append(i)
    # A class is split again only when its signatures may have changed: a
    # member's class or the class of one of its entries' targets moved.
    dirty = range(len(members))
    while dirty:
        moved, split = [], []
        for c in dirty:
            if len(members[c]) < 2:
                continue
            parts = {}
            for i in members[c]:
                key = tuple([(v, cls[t]) for v, t in outs[i] if cls[t] != c])
                parts.setdefault(key, []).append(i)
            if len(parts) > 1:
                members[c], *rest = parts.values()
                split.append(c)
                for part in rest:
                    split.append(len(members))
                    for i in part:
                        cls[i] = len(members)
                    members.append(part)
                    moved += part
        dirty = sorted({cls[p] for i in moved for p in preds[i]}.union(split))

    # breadth-first numbering from the start class, through its first member
    ids = {cls[0]: 0}
    order = [cls[0]]
    for c in order:
        for _, t in outs[members[c][0]]:
            if cls[t] not in ids:
                ids[cls[t]] = len(ids)
                order.append(cls[t])
    update, moves = {}, {}
    for c in order:
        m, i = ids[c], members[c][0]
        if row[i] is not None:
            moves[(m, row[i][0])] = row[i][1]
        for v, t in outs[i]:
            if cls[t] != c:
                update[(m, v)] = ids[cls[t]]
    for v in sorted(default):
        for m in range(len(ids)):
            moves.setdefault((m, v), default[v])
    return MooreStrategy(player=player, memory=len(ids), init_mem=0, update=update, moves=moves)



def validate_strategy(g: Game, s: MooreStrategy) -> list[str]:
    """Report strategy/table defects relative to a game."""
    problems = []
    if not 1 <= s.player <= g.players:
        problems.append(f"player {s.player} not in 1..{g.players}")
        return problems
    if not 0 <= s.init_mem < s.memory:
        problems.append(f"initial memory {s.init_mem} not in 0..{s.memory - 1}")
    for (m, v), m2 in sorted(s.update.items()):
        if not (0 <= m < s.memory and 0 <= m2 < s.memory):
            problems.append(f"update ({m}, {v}) -> {m2} out of memory range")
        if v not in g.owner:
            problems.append(f"update references unknown vertex {v}")
    owned = [v for v in sorted(g.owner) if g.owner[v] == s.player]
    for m in range(s.memory):
        for v in owned:
            t = s.moves.get((m, v))
            if t is None:
                problems.append(f"missing move for memory {m} at vertex {v}")
            elif not g.has_edge(v, t):
                problems.append(f"move ({m}, {v}) -> {t} is not an edge")
    for (m, v) in sorted(s.moves):
        if not 0 <= m < s.memory:
            problems.append(f"move ({m}, {v}) out of memory range")
        if v not in g.owner:
            problems.append(f"move references unknown vertex {v}")
        elif g.owner[v] != s.player:
            problems.append(f"move declared at vertex {v} not owned by player {s.player}")
    return problems


@dataclass(frozen=True)
class ProductGame:
    """Reachable synchronized product of an arena and one player's strategy.

    States are (arena vertex, memory).  At states whose vertex the strategy
    owner controls there is exactly one outgoing edge (the strategy's move);
    everywhere else all arena moves remain.  `succ` lists the states breadth
    first from `init`, as `solvers.explore` found them; `states` is sorted.
    """

    arena: Game
    player: int
    init: tuple[str, int]
    states: tuple[tuple[str, int], ...]
    succ: dict[tuple[str, int], tuple[tuple[str, int], ...]]


def product_with_strategy(
    g: Game, s: MooreStrategy, observe: dict[str, str] | None = None
) -> ProductGame:
    """Build the reachable strategy-arena product.

    `observe` optionally maps arena vertices to the vertex names the
    transducer actually reads (used when the arena is a prefix-independence
    rebuild of the game the strategy was written for).
    """
    problems = []
    if observe is None:
        problems = validate_strategy(g, s)
    if problems:
        raise GameFormatError("; ".join(problems))

    def obs(v: str) -> str:
        return observe[v] if observe is not None else v

    # Resolve a move given in observed names back to an arena successor.
    succ_by_obs: dict[tuple[str, str], str] = {}
    for (u, v) in g.weights:
        succ_by_obs[(u, obs(v))] = v

    def succ(state):
        v, m = state
        if g.owner[v] == s.player:
            target = s.moves.get((m, obs(v)))
            if target is None or (v, target) not in succ_by_obs:
                raise GameFormatError(
                    f"strategy move at memory {m}, vertex {obs(v)} "
                    f"({'missing' if target is None else target!r}) is not an edge"
                )
            nexts = [succ_by_obs[(v, target)]]
        else:
            nexts = g.successors(v)
        return [(v2, s.next_memory(m, obs(v2))) for v2 in nexts]

    init = (g.init, s.init_mem)
    states, table = explore(init, succ)
    graph = {state: tuple(map(states.__getitem__, outs)) for state, outs in zip(states, table)}
    return ProductGame(
        arena=g, player=s.player, init=init, states=tuple(sorted(states)), succ=graph
    )


def parse_strategy(text: str) -> MooreStrategy:
    """Parse the strategy file format (strategy/memory/initmem/update/move).

    `strategy` is required; `memory` (default 1), `initmem` (default 0) and
    each update or move entry may appear at most once.
    """
    header: dict[str, int] = {}  # strategy/memory/initmem -> value
    update: dict[tuple[int, str], int] = {}
    moves: dict[tuple[int, str], str] = {}

    def need_int(tok: str, lineno: int) -> int:
        try:
            return parse_int(tok)
        except ValueError:
            raise GameFormatError(f"expected integer, got {tok!r}", lineno) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind in ("strategy", "memory", "initmem") and len(args) == 1:
            if kind in header:
                raise GameFormatError(f"duplicate {kind}", lineno)
            header[kind] = need_int(args[0], lineno)
        elif kind in ("update", "move") and len(args) == 3:
            table = update if kind == "update" else moves
            key = (need_int(args[0], lineno), args[1])
            if key in table:
                raise GameFormatError(
                    f"duplicate {kind} for memory {key[0]} at vertex {key[1]}", lineno
                )
            table[key] = need_int(args[2], lineno) if kind == "update" else args[2]
        else:
            raise GameFormatError(f"bad strategy directive {line!r}", lineno)
    if "strategy" not in header:
        raise GameFormatError("missing strategy player")
    return MooreStrategy(
        player=header["strategy"],
        memory=header.get("memory", 1),
        init_mem=header.get("initmem", 0),
        update=update,
        moves=moves,
    )


def serialize_strategy(s: MooreStrategy) -> str:
    lines = [f"strategy {s.player}", f"memory {s.memory}", f"initmem {s.init_mem}"]
    for (m, v) in sorted(s.update):
        m2 = s.update[(m, v)]
        if m2 != m:
            lines.append(f"update {m} {v} {m2}")
    for (m, v) in sorted(s.moves):
        lines.append(f"move {m} {v} {s.moves[(m, v)]}")
    return "\n".join(lines) + "\n"
