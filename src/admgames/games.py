"""Game arenas, payoff measures, and the game file format.

A game is a finite multi-player turn-based arena: every vertex belongs to
exactly one player, every edge carries one rational weight per player, and a
single payoff measure (shared by all players) maps each infinite play to the
value each player tries to maximize.  All arithmetic is exact: weights and
every value derived from them are `fractions.Fraction`.

Ultimately periodic plays are represented as lassos (finite prefix plus a
repeated cycle); `payoff_of_lasso` evaluates any of the six measures on a
lasso exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

__all__ = [
    "PayoffKind",
    "Game",
    "Lasso",
    "run_until_repeat",
    "GameFormatError",
    "parse_int",
    "parse_rational",
    "format_rational",
    "parse_game",
    "serialize_game",
    "validate",
    "payoff_of_lasso",
    "check_history",
]

VERTEX_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"-?[0-9]+")


class PayoffKind(Enum):
    """The six supported payoff measures.

    INF/SUP aggregate the minimum/maximum weight ever seen; LIMINF/LIMSUP the
    minimum/maximum weight seen infinitely often; the two mean-payoff variants
    take liminf/limsup of the running average (they agree on ultimately
    periodic plays).
    """

    INF = "inf"
    SUP = "sup"
    LIMINF = "liminf"
    LIMSUP = "limsup"
    MP_INF = "mp-inf"
    MP_SUP = "mp-sup"

    @property
    def token(self) -> str:
        return self.value

    @property
    def prefix_independent(self) -> bool:
        """True for the measures that ignore any finite prefix of a play."""
        return self not in (PayoffKind.INF, PayoffKind.SUP)

    @property
    def is_mean_payoff(self) -> bool:
        return self in (PayoffKind.MP_INF, PayoffKind.MP_SUP)


_MEASURE_BY_TOKEN = {k.value: k for k in PayoffKind}


class GameFormatError(ValueError):
    """Raised on malformed game/strategy/spec files; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_int(text: str) -> int:
    """Parse a plain ASCII decimal integer, `-?[0-9]+`.

    Every integer field of the input formats goes through here: bare `int()`
    also takes a leading `+`, underscores, surrounding whitespace and
    non-ASCII digits.
    """
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse an integer or p/q literal, q a positive integer, into an exact
    rational."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            q = parse_int(den)
            if q <= 0:
                raise ValueError("denominator must be positive")
            return Fraction(parse_int(num), q)
        return Fraction(parse_int(text))
    except ValueError as exc:
        raise ValueError(f"bad rational {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Canonical p/q rendering (plain integer when the denominator is 1)."""
    return str(q)


@dataclass(frozen=True)
class Game:
    """A finite turn-based arena with vector-weighted edges.

    Players are numbered 1..players.  `owner` assigns each vertex to a
    player; `weights[(u, v)]` is the per-player weight vector of edge (u, v).
    Instances are treated as immutable and safe to share; all operations on
    them are pure.
    """

    players: int
    owner: dict[str, int]
    weights: dict[tuple[str, str], tuple[Fraction, ...]]
    init: str
    measure: PayoffKind
    succ: dict[str, tuple[str, ...]] = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.succ is None:
            adj: dict[str, list[str]] = {v: [] for v in self.owner}
            for (u, v) in self.weights:
                if u in adj:
                    adj[u].append(v)
            object.__setattr__(
                self, "succ", {v: tuple(sorted(ts)) for v, ts in adj.items()}
            )

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.owner))

    def successors(self, v: str) -> tuple[str, ...]:
        return self.succ[v]

    def weight(self, u: str, v: str, player: int) -> Fraction:
        return self.weights[(u, v)][player - 1]

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.weights


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic play: prefix then cycle repeated forever.

    The prefix may be empty, in which case the play starts at cycle[0].  The
    cycle must be nonempty and close back on its first vertex.
    """

    prefix: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")

    @property
    def start(self) -> str:
        return self.prefix[0] if self.prefix else self.cycle[0]

    def vertices(self) -> tuple[str, ...]:
        return self.prefix + self.cycle

    def prefix_edges(self) -> list[tuple[str, str]]:
        seq = self.prefix + (self.cycle[0],)
        return [(seq[i], seq[i + 1]) for i in range(len(self.prefix))]

    def cycle_edges(self) -> list[tuple[str, str]]:
        c = self.cycle
        return [(c[i], c[(i + 1) % len(c)]) for i in range(len(c))]

    def normal(self) -> "Lasso":
        """The same play in normal form: the cycle primitive (no repetition
        of a shorter word) and the prefix shortest, the cycle rotated back
        over every prefix vertex that ends a period early."""
        cycle = self.cycle
        root = next(cycle[:p] for p in range(1, len(cycle) + 1) if cycle[p:] + cycle[:p] == cycle)
        k = len(self.prefix)
        while k and self.prefix[k - 1] == root[-1]:
            k -= 1
            root = root[-1:] + root[:-1]
        return Lasso(self.prefix[:k], root)

    def check(self, g: Game) -> None:
        """Raise ValueError unless every step of the lasso is a game edge."""
        for (u, v) in self.prefix_edges() + self.cycle_edges():
            if not g.has_edge(u, v):
                raise ValueError(f"lasso uses non-edge ({u}, {v})")


def run_until_repeat(state, step) -> tuple[list, list]:
    """Apply `step` from `state` until a state repeats.

    Returns the states visited before the first repeated one and the cycle
    that starts at it, each state once, in visiting order.
    """
    seen: dict = {}
    seq = []
    while state not in seen:
        seen[state] = len(seq)
        seq.append(state)
        state = step(state)
    k = seen[state]
    return seq[:k], seq[k:]


def check_history(g: Game, h: Sequence[str]) -> None:
    """Raise ValueError unless h is a nonempty edge path starting at init."""
    if not h:
        raise ValueError("history must be nonempty")
    if h[0] != g.init:
        raise ValueError(f"history must start at init {g.init}, got {h[0]}")
    for u, v in zip(h, h[1:]):
        if not g.has_edge(u, v):
            raise ValueError(f"history uses non-edge ({u}, {v})")


def payoff_of_lasso(measure: PayoffKind, g: Game, player: int, lasso: Lasso) -> Fraction:
    """Exact payoff of the ultimately periodic play for one player.

    INF/SUP range over all lasso edges, LIMINF/LIMSUP over cycle edges only,
    and both mean-payoff variants equal the average cycle weight.
    """
    lasso.check(g)
    prefix = [] if measure.prefix_independent else lasso.prefix_edges()
    return _payoff_of_weights(
        measure,
        [g.weight(u, v, player) for (u, v) in prefix],
        [g.weight(u, v, player) for (u, v) in lasso.cycle_edges()],
    )


def _payoff_of_weights(measure: PayoffKind, prefix: list, cycle: list):
    """Payoff of a lasso from the weights along its prefix and its cycle,
    of any number type: INF/SUP range over both, LIMINF/LIMSUP over the
    cycle, and mean payoff is the cycle's average."""
    if measure.is_mean_payoff:
        return Fraction(sum(cycle), len(cycle))
    seen = cycle if measure.prefix_independent else prefix + cycle
    return min(seen) if measure in (PayoffKind.INF, PayoffKind.LIMINF) else max(seen)


def validate(g: Game) -> list[str]:
    """Return every arena invariant violation, with its location.

    An empty list means the game is well formed: total ownership with owners
    in range, declared init and edge endpoints, and at least one outgoing
    edge per vertex.
    """
    problems = []
    if g.players < 1:
        problems.append(f"player count must be >= 1, got {g.players}")
    found = []  # (vertex, problem), in dict order
    for v, p in g.owner.items():
        if not VERTEX_ID_RE.match(v):
            found.append((v, f"bad vertex id {v!r}"))
        if not 1 <= p <= g.players:
            found.append((v, f"vertex {v}: owner {p} not in 1..{g.players}"))
    # the problems are sorted by location, not the whole game; the sort is
    # stable, so one location's problems keep the order they were found in
    problems += [m for _, m in sorted(found, key=lambda f: f[0])]
    if g.init not in g.owner:
        problems.append(f"init vertex {g.init} is not declared")
    found = []  # ((u, v), problem), in dict order
    for (u, v), w in g.weights.items():
        for x in (u, v):
            if x not in g.owner:
                found.append(((u, v), f"edge ({u}, {v}): undeclared vertex {x}"))
        if len(w) != g.players:
            found.append(((u, v), f"edge ({u}, {v}): {len(w)} weights for {g.players} players"))
    problems += [m for _, m in sorted(found, key=lambda f: f[0])]
    sources = {u for (u, _) in g.weights}
    for v in sorted(v for v in g.owner if v not in sources):
        problems.append(f"vertex {v} has no outgoing edge")
    return problems


def parse_game(text: str) -> Game:
    """Parse the line-oriented game format into a validated Game.

    Directives (order free, except `players` must come before owners/weights
    are interpreted): players, measure, init, vertex, edge; each of the
    first three exactly once.  `#` starts a comment; blank lines are ignored.
    Each distinct weight token is converted once, by `parse_rational`, and
    its `Fraction` is shared by every edge that writes it.
    """
    players = None
    measure = None
    init = None
    owner: dict[str, int] = {}
    weights: dict[tuple[str, str], tuple[Fraction, ...]] = {}
    declared: set[str] = set()  # players/measure/init seen so far
    rationals: dict[str, Fraction] = {}  # weight token -> its value, once parsed

    def rational(token: str) -> Fraction:
        q = rationals.get(token)
        if q is None:
            q = rationals[token] = parse_rational(token)
        return q

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind in declared:
            raise GameFormatError(f"duplicate {kind}", lineno)
        if kind in ("players", "measure", "init"):
            declared.add(kind)
        if kind == "players":
            try:
                (players,) = map(parse_int, args)
            except ValueError:
                raise GameFormatError("players expects one positive integer", lineno) from None
            if players < 1:
                raise GameFormatError("players must be >= 1", lineno)
        elif kind == "measure":
            if len(args) != 1 or args[0] not in _MEASURE_BY_TOKEN:
                raise GameFormatError(
                    f"measure must be one of {sorted(_MEASURE_BY_TOKEN)}", lineno
                )
            measure = _MEASURE_BY_TOKEN[args[0]]
        elif kind == "init":
            if len(args) != 1:
                raise GameFormatError("init expects one vertex id", lineno)
            init = args[0]
        elif kind == "vertex":
            if len(args) != 2:
                raise GameFormatError("vertex expects <id> <owner>", lineno)
            vid, own = args
            if not VERTEX_ID_RE.match(vid):
                raise GameFormatError(f"bad vertex id {vid!r}", lineno)
            if vid in owner:
                raise GameFormatError(f"duplicate vertex {vid}", lineno)
            try:
                owner[vid] = parse_int(own)
            except ValueError:
                raise GameFormatError(f"bad owner {own!r}", lineno) from None
        elif kind == "edge":
            if players is None:
                raise GameFormatError("players must be declared before edges", lineno)
            if len(args) != 2 + players:
                raise GameFormatError(
                    f"edge expects <src> <dst> and {players} weights", lineno
                )
            src, dst = args[0], args[1]
            if (src, dst) in weights:
                raise GameFormatError(f"duplicate edge ({src}, {dst})", lineno)
            try:
                weights[(src, dst)] = tuple(map(rational, args[2:]))
            except ValueError as exc:
                raise GameFormatError(str(exc), lineno) from None
        else:
            raise GameFormatError(f"unknown directive {kind!r}", lineno)

    if players is None:
        raise GameFormatError("missing players")
    if measure is None:
        raise GameFormatError("missing measure")
    if init is None:
        raise GameFormatError("missing init")
    g = Game(players=players, owner=owner, weights=weights, init=init, measure=measure)
    problems = validate(g)
    if problems:
        raise GameFormatError("; ".join(problems))
    return g


def serialize_game(g: Game) -> str:
    """Canonical text form: vertices then edges, both sorted lexicographically."""
    lines = [
        f"players {g.players}",
        f"measure {g.measure.token}",
        f"init {g.init}",
    ]
    for v in sorted(g.owner):
        lines.append(f"vertex {v} {g.owner[v]}")
    for (u, v) in sorted(g.weights):
        ws = " ".join(format_rational(w) for w in g.weights[(u, v)])
        lines.append(f"edge {u} {v} {ws}")
    return "\n".join(lines) + "\n"
