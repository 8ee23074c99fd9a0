"""Outcomes compatible with admissible play: labels, automata, and solvers.

Every edge of the (rebuilt) arena is annotated, per player, with the
antagonistic level of its source, the source's guarded cooperative value,
and the best cooperative value among the *other* successors when the source
belongs to the opponents.  Over these labels, an ultimately periodic play is
compatible with some admissible strategy of player i iff at every position
owned by i, with level q, either the play's payoff exceeds q, or the
opponents later pass up an alternative worth more than q, or the payoff is
pinned at q while the level never changes again and no strategy could have
guaranteed q and still cooperated for more.

`outcome_automaton` recognizes exactly these plays with a deterministic
parity automaton; obligations collapse to a single tracked demand (the
strongest level still waiting for a payoff or passed-up-alternative
justification, with a flag for whether an exact pin is still possible).
Model checking under admissibility and assume-admissible synthesis are
parity-automaton products over the arena.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .automata import (
    EdgeAutomaton,
    ExploredAutomaton,
    _explored,
    accepts_lasso,
    constant_automaton,
    intersect,
    negate,
    parse_automaton,
    reindex_edges,
)
from .games import (
    Game,
    GameFormatError,
    Lasso,
    PayoffKind,
    parse_int,
    parse_rational,
    payoff_of_lasso,
    run_until_repeat,
)
from .solvers import ParityGame, explore, solve_parity
from .transform import MooreStrategy, moore_layout
from .values import ValueTable, compute_value_table

__all__ = [
    "UnsupportedMeasure",
    "EdgeLabels",
    "LabeledGame",
    "label_edges",
    "eval_outcome_formula",
    "outcome_automaton",
    "PayoffSpec",
    "parse_spec",
    "eval_spec_on_lasso",
    "McVerdict",
    "SynthResult",
    "model_check_admissible",
    "synthesize_assume_admissible",
    "verify_strategy_wins",
    "formula_text",
]


class UnsupportedMeasure(ValueError):
    """Raised when an operation needs omega-regular payoff thresholds."""


@dataclass(frozen=True)
class EdgeLabels:
    """Value labels of one edge for one player.

    aval/acval describe the source vertex; alt_sup is the best cooperative
    value among the source's other successors when the source is owned by
    the opponents (None otherwise / when there is no other successor).
    """

    aval: Fraction
    acval: Fraction
    alt_sup: Fraction | None

    def better_alternative(self, q: Fraction) -> bool:
        return self.alt_sup is not None and self.alt_sup > q


@dataclass(frozen=True)
class LabeledGame:
    table: ValueTable
    labels: dict  # player -> {edge -> EdgeLabels}

    @property
    def arena(self) -> Game:
        return self.table.arena


def label_edges(g: Game, table: ValueTable) -> LabeledGame:
    """Attach per-player value labels to every edge of the rebuilt arena."""
    assert table.source is g, "table must belong to the labelled game"
    arena = table.arena
    labels = {}
    for player in range(1, g.players + 1):
        per_edge = {}
        for (u, v) in arena.weights:
            alt = None
            if arena.owner[u] != player:
                alts = [
                    table.cval[(player, v2)] for v2 in arena.succ[u] if v2 != v
                ]
                alt = max(alts) if alts else None
            per_edge[(u, v)] = EdgeLabels(
                aval=table.aval[(player, u)],
                acval=table.acval[(player, u)],
                alt_sup=alt,
            )
        labels[player] = per_edge
    return LabeledGame(table=table, labels=labels)


# ---------------------------------------------------------------------------
# direct evaluation on lassos


def eval_outcome_formula(lg: LabeledGame, player: int, lasso: Lasso) -> bool:
    """Does this play of the arena belong to some admissible strategy's outcomes?

    Direct semantics over the ultimately periodic word: payoff atoms are
    position-independent, eventualities scan the rest of the prefix plus the
    whole cycle, and invariants additionally require all cycle positions.
    """
    arena = lg.arena
    lasso.check(arena)
    labels = lg.labels[player]
    payoff = payoff_of_lasso(arena.measure, arena, player, lasso)

    pre = lasso.prefix_edges()
    cyc = lasso.cycle_edges()
    np = len(pre)

    def positions_from(k):
        if k < np:
            return pre[k:] + cyc
        return cyc

    all_edges = pre + cyc
    for k, e in enumerate(all_edges):
        u = e[0]
        if arena.owner[u] != player:
            continue
        lab = labels[e]
        q = lab.aval
        rest = positions_from(k)
        phi1 = payoff > q or any(labels[e2].better_alternative(q) for e2 in rest)
        phi2 = (
            lab.acval == q
            and payoff == q
            and all(labels[e2].aval == q for e2 in rest)
        )
        if not (phi1 or phi2):
            return False
    return True


# ---------------------------------------------------------------------------
# the outcome automaton

# The tracked demand is None or (level, kind): kind 0 means an exact pin is
# still possible (payoff == level with the level never changing again would
# satisfy it), kind 1 means only payoff > level or a passed-up alternative
# can.  New obligations join by max; a passed-up alternative above the level
# discharges everything; a level change hardens a pin into kind 1.

_PIN, _HARD = 0, 1


def _demand_step(demand, lab: EdgeLabels, is_owned: bool):
    reset = False
    if demand is not None and demand[1] == _PIN and lab.aval != demand[0]:
        demand = (demand[0], _HARD)
    if demand is not None and lab.alt_sup is not None and lab.alt_sup > demand[0]:
        demand = None
        reset = True
    if is_owned:
        kind = _PIN if lab.acval == lab.aval else _HARD
        cand = (lab.aval, kind)
        demand = cand if demand is None else max(demand, cand)
    return demand, reset


def _step_priority(measure: PayoffKind, demand, reset: bool, weight: Fraction) -> int:
    if measure in (PayoffKind.LIMINF, PayoffKind.INF):
        if reset:
            return 2
        if demand is not None:
            q, kind = demand
            violated = weight < q if kind == _PIN else weight <= q
            if violated:
                return 1
        return 0
    if reset:
        return 4
    if demand is None:
        return 0
    q, kind = demand
    good = weight >= q if kind == _PIN else weight > q
    return 2 if good else 1


def outcome_automaton(lg: LabeledGame, player: int) -> ExploredAutomaton:
    """Deterministic parity automaton for the admissible-outcome condition,
    explored along the arena; its states are named (arena vertex, demand,
    priority)."""
    arena = lg.arena
    if arena.measure.is_mean_payoff:
        raise UnsupportedMeasure(
            "outcome automata need omega-regular payoff thresholds; "
            "mean-payoff games are not supported"
        )
    labels = lg.labels[player]

    def succ(state):
        v, demand, _ = state
        for v2 in arena.successors(v):
            nxt_demand, reset = _demand_step(
                demand, labels[(v, v2)], arena.owner[v] == player
            )
            pr = _step_priority(
                arena.measure, nxt_demand, reset, arena.weight(v, v2, player)
            )
            yield v2, nxt_demand, pr

    return _explored((arena.init, None, 0), succ)


# ---------------------------------------------------------------------------
# payoff specifications


@dataclass(frozen=True)
class PayoffSpec:
    """Parsed specification: a Boolean combination of payoff-threshold atoms
    and deterministic edge-automaton references."""

    node: tuple

    def __str__(self):
        return _spec_str(self.node)


_TOKEN_RE = re.compile(
    r"\s*(payoff|automaton|true|false|&&|\|\||!|\(|\)|<=|>=|=|<|>|\"[^\"]*\"|-?[0-9]+(?:/[0-9]+)?)"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise GameFormatError(f"bad spec syntax near {rest[:20]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


# Specs nested deeper than this are rejected: the parser and the passes over
# the syntax tree recurse once per level.
MAX_SPEC_DEPTH = 100


def _spec_depth(node) -> int:
    depth, todo = 0, [(node, 1)]
    while todo:
        node, d = todo.pop()
        depth = max(depth, d)
        todo.extend((child, d + 1) for child in node[1:] if isinstance(child, tuple))
    return depth


def parse_spec(text: str, automaton_loader=None) -> PayoffSpec:
    """Parse the spec grammar: atoms, automaton refs, &&, ||, !, parentheses.

    `automaton_loader` maps a quoted file name to an EdgeAutomaton; by
    default files are read relative to the working directory.  Specs nested
    deeper than MAX_SPEC_DEPTH are rejected.
    """
    too_deep = f"spec: nested deeper than {MAX_SPEC_DEPTH} levels"
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take(expected=None):
        t = peek()
        if t is None or (expected is not None and t != expected):
            raise GameFormatError(f"spec: expected {expected!r}, got {t!r}")
        pos[0] += 1
        return t

    def load(name):
        if automaton_loader is not None:
            return automaton_loader(name)
        with open(name, encoding="utf-8") as fh:
            return parse_automaton(fh.read())

    def parse_or(nest):
        node = parse_and(nest)
        while peek() == "||":
            take()
            node = ("or", node, parse_and(nest))
        return node

    def parse_and(nest):
        node = parse_unary(nest)
        while peek() == "&&":
            take()
            node = ("and", node, parse_unary(nest))
        return node

    def parse_unary(nest):
        t = peek()
        if t in ("!", "(") and nest >= MAX_SPEC_DEPTH:
            raise GameFormatError(too_deep)
        if t == "!":
            take()
            return ("not", parse_unary(nest + 1))
        if t == "(":
            take()
            node = parse_or(nest + 1)
            take(")")
            return node
        if t == "true":
            take()
            return ("const", True)
        if t == "false":
            take()
            return ("const", False)
        if t == "payoff":
            take()
            take("(")
            tok = take()
            try:
                player = parse_int(tok)
            except ValueError:
                raise GameFormatError(f"spec: bad player {tok!r}") from None
            take(")")
            op = take()
            if op not in ("<", "<=", ">", ">=", "="):
                raise GameFormatError(f"spec: bad comparison {op!r}")
            try:
                value = parse_rational(take())
            except ValueError as exc:
                raise GameFormatError(f"spec: {exc}") from None
            return ("atom", player, op, value)
        if t == "automaton":
            take()
            name = take()
            if not (name.startswith('"') and name.endswith('"')):
                raise GameFormatError("spec: automaton expects a quoted file name")
            return ("aut", load(name[1:-1]))
        raise GameFormatError(f"spec: unexpected token {t!r}")

    node = parse_or(0)
    if peek() is not None:
        raise GameFormatError(f"spec: trailing input at {peek()!r}")
    if _spec_depth(node) > MAX_SPEC_DEPTH:
        raise GameFormatError(too_deep)
    return PayoffSpec(node=node)


def _spec_str(node) -> str:
    kind = node[0]
    if kind == "const":
        return "true" if node[1] else "false"
    if kind == "atom":
        return f"payoff({node[1]}) {node[2]} {node[3]}"
    if kind == "aut":
        return "automaton <...>"
    if kind == "not":
        return f"!({_spec_str(node[1])})"
    op = "&&" if kind == "and" else "||"
    return f"({_spec_str(node[1])} {op} {_spec_str(node[2])})"


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
}


def _check_spec(g: Game, spec: PayoffSpec):
    def walk(node):
        if node[0] == "atom" and not 1 <= node[1] <= g.players:
            raise GameFormatError(f"spec refers to unknown player {node[1]}")
        for child in node[1:]:
            if isinstance(child, tuple):
                walk(child)

    walk(spec.node)


def eval_spec_on_lasso(g: Game, spec: PayoffSpec, lasso: Lasso) -> bool:
    """Evaluate a spec on an ultimately periodic play of the original game."""

    def ev(node):
        kind = node[0]
        if kind == "const":
            return node[1]
        if kind == "atom":
            _, player, op, value = node
            return _OPS[op](payoff_of_lasso(g.measure, g, player, lasso), value)
        if kind == "aut":
            return accepts_lasso(node[1], lasso)
        if kind == "not":
            return not ev(node[1])
        if kind == "and":
            return ev(node[1]) and ev(node[2])
        return ev(node[1]) or ev(node[2])

    return ev(spec.node)


def _atom_automaton(arena: Game, player: int, op: str, value: Fraction) -> EdgeAutomaton:
    """Single-threshold payoff automaton: priorities rank the weight regions
    so that the region of the play's payoff dominates in the limit."""
    measure = arena.measure
    regions = 3  # below value, equal, above
    member = {
        "<": (True, False, False),
        "<=": (True, True, False),
        ">": (False, False, True),
        ">=": (False, True, True),
        "=": (False, True, False),
    }[op]

    def region(w: Fraction) -> int:
        return 0 if w < value else (1 if w == value else 2)

    def pr(j: int) -> int:
        if measure in (PayoffKind.LIMINF, PayoffKind.INF):
            base = 2 * (regions - j)  # lowest region dominates
        else:
            base = 2 * (j + 1)  # highest region dominates
        return base + (0 if member[j] else 1)

    edge_priority = {e: pr(region(arena.weight(*e, player))) for e in arena.weights}
    init = ("payoff", None)
    priority = {init: 0}
    for p in edge_priority.values():
        priority[("payoff", p)] = p
    delta = {
        (s, e): ("payoff", p) for s in priority for e, p in edge_priority.items()
    }
    return EdgeAutomaton(initial=init, delta=delta, priority=priority)


def _compile_spec(lg: LabeledGame, spec: PayoffSpec):
    arena = lg.arena
    tg = lg.table.transformed
    edge_map = {
        (u, v): (tg.origin(u), tg.origin(v)) for (u, v) in arena.weights
    }

    def compile_node(node):
        kind = node[0]
        if kind == "const":
            return constant_automaton(arena, node[1])
        if kind == "atom":
            return _atom_automaton(arena, node[1], node[2], node[3])
        if kind == "aut":
            return reindex_edges(node[1], edge_map)
        if kind == "not":
            return negate(compile_node(node[1]))
        if kind == "and":
            return intersect(arena, [compile_node(node[1]), compile_node(node[2])])
        a = negate(compile_node(node[1]))
        b = negate(compile_node(node[2]))
        return negate(intersect(arena, [a, b]))

    return compile_node(spec.node)


# ---------------------------------------------------------------------------
# model checking under admissibility


@dataclass(frozen=True)
class McVerdict:
    holds: bool
    counterexample: Lasso | None = None


def _require_regular(g: Game, what: str):
    if g.measure.is_mean_payoff:
        raise UnsupportedMeasure(
            f"{what} needs omega-regular payoff thresholds; the mean-payoff "
            "route is out of scope"
        )


def _parity_game(aut: ExploredAutomaton, owner_of) -> ParityGame:
    """The explored automaton as a parity game on its own states; a state
    at arena vertex v belongs to owner_of(v)."""
    return ParityGame(
        owner=dict(enumerate(map(owner_of, aut.vertex))),
        priority=dict(enumerate(aut.priority)),
        succ=dict(enumerate(aut.succ)),
    )


def _automaton_lasso(aut: ExploredAutomaton, strategy: dict) -> Lasso:
    """Follow a positional choice through the automaton graph into a lasso."""
    pre, loop = run_until_repeat(aut.initial, strategy.__getitem__)
    vertex = aut.vertex
    return Lasso(prefix=tuple(vertex[s] for s in pre), cycle=tuple(vertex[s] for s in loop))


def _project_lasso(lg: LabeledGame, lasso: Lasso) -> Lasso:
    tg = lg.table.transformed
    return Lasso(
        prefix=tuple(tg.origin(v) for v in lasso.prefix),
        cycle=tuple(tg.origin(v) for v in lasso.cycle),
    )


def model_check_admissible(g: Game, spec: PayoffSpec) -> McVerdict:
    """Do all plays compatible with every player's admissible strategies
    satisfy the spec?  On failure returns a concrete counterexample lasso."""
    _require_regular(g, "model checking under admissibility")
    _check_spec(g, spec)
    table = compute_value_table(g)
    lg = label_edges(g, table)
    arena = lg.arena

    parts = [outcome_automaton(lg, p) for p in range(1, g.players + 1)]
    parts.append(negate(_compile_spec(lg, spec)))
    product = intersect(arena, parts)

    r0, _ = solve_parity(_parity_game(product, lambda v: 0))
    if product.initial not in r0.vertices:
        return McVerdict(holds=True)
    # solve_parity moves at every state of r0, and player 0 owns them all
    witness = _automaton_lasso(product, r0.strategy)
    return McVerdict(holds=False, counterexample=_project_lasso(lg, witness))


# ---------------------------------------------------------------------------
# assume-admissible synthesis


@dataclass(frozen=True)
class SynthResult:
    realizable: bool
    strategy: MooreStrategy | None = None


def _objective_automaton(lg: LabeledGame, player: int, spec: PayoffSpec) -> ExploredAutomaton:
    arena = lg.arena
    own = outcome_automaton(lg, player)
    others = [
        outcome_automaton(lg, j)
        for j in range(1, lg.table.source.players + 1)
        if j != player
    ]
    spec_aut = _compile_spec(lg, spec)
    if others:
        block = intersect(arena, others + [negate(spec_aut)])
        return intersect(arena, [own, negate(block)])
    return intersect(arena, [own, spec_aut])


def verify_strategy_wins(g: Game, player: int, spec: PayoffSpec, s: MooreStrategy) -> bool:
    """Check that every play under the strategy satisfies the synthesis
    objective, whatever the other players do."""
    _require_regular(g, "objective verification")
    table = compute_value_table(g)
    lg = label_edges(g, table)
    arena = lg.arena
    tg = table.transformed
    objective = _objective_automaton(lg, player, spec)
    vertex = objective.vertex

    def succ(state):
        q, mem = state
        v = vertex[q]
        nexts = objective.succ[q]
        if arena.owner[v] == player:
            target = s.moves[(mem, tg.origin(v))]
            nexts = [t for t in nexts if tg.origin(vertex[t]) == target]
        return [(t, s.next_memory(mem, tg.origin(vertex[t]))) for t in nexts]

    states, graph = explore((objective.initial, s.init_mem), succ)
    pg = ParityGame(
        owner=dict.fromkeys(range(len(states)), 1),
        priority={i: objective.priority[q] for i, (q, _) in enumerate(states)},
        succ=dict(enumerate(graph)),
    )
    r0, _ = solve_parity(pg)
    return 0 in r0.vertices


def synthesize_assume_admissible(g: Game, player: int, spec: PayoffSpec) -> SynthResult:
    """Find a strategy whose plays are admissible-compatible for `player` and
    satisfy the spec whenever all other players also play admissibly."""
    _require_regular(g, "assume-admissible synthesis")
    _check_spec(g, spec)
    table = compute_value_table(g)
    lg = label_edges(g, table)
    arena = lg.arena
    tg = table.transformed
    objective = _objective_automaton(lg, player, spec)

    r0, _ = solve_parity(
        _parity_game(objective, lambda v: 0 if arena.owner[v] == player else 1)
    )
    if objective.initial not in r0.vertices:
        return SynthResult(realizable=False)
    vertex = objective.vertex

    def expand(st):
        # the winning move at the player's states (solve_parity gives one at
        # every state of r0 the player owns), every move elsewhere
        v = vertex[st]
        if arena.owner[v] == player:
            t = r0.strategy[st]
            return (v, vertex[t]), [(vertex[t], t)]
        return None, [(vertex[t], t) for t in objective.succ[st]]

    strat = moore_layout(g, player, tg.origin, objective.initial, expand)
    return SynthResult(realizable=True, strategy=strat)


# ---------------------------------------------------------------------------
# textual rendering (mean-payoff fallback for the CLI)


def formula_text(lg: LabeledGame, player: int) -> str:
    """Readable description of the admissible-outcome condition and labels."""
    arena = lg.arena
    levels = ", ".join(str(q) for q in lg.table.avalues[player])
    lines = [
        f"player {player} admissible-outcome condition over edge labels",
        f"levels: {levels}",
        "condition: always, at every edge leaving a vertex owned by the player",
        "  with level q: payoff > q, or eventually an edge whose source is an",
        "  opponent vertex with another successor of cooperative value > q, or",
        "  (acval = q and payoff = q and the level stays q forever)",
        "labels (edge: level, acval, best-other-successor):",
    ]
    for (u, v) in sorted(arena.weights):
        lab = lg.labels[player][(u, v)]
        alt = "-" if lab.alt_sup is None else str(lab.alt_sup)
        lines.append(f"  {u} -> {v}: {lab.aval}, {lab.acval}, {alt}")
    return "\n".join(lines) + "\n"
