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
Model checking under admissibility, assume-admissible synthesis and its
check are parity-automaton products over the arena, with one set-up
(`_labelled`).  Model checking and the check are one-player questions:
each explores one flat product of its automata (`_flat_product`, tuples of
their states with no record) and decides it by one SCC peel,
`solvers._peel`, the decomposition that also checks every parity-game
solution.  So a `holds` verdict rests on the peel.  Synthesis is a
two-player game: its objective is intersected with index appearance
records into one automaton, which the one parity-game builder,
`_parity_game`, hands to `solve_parity`.  Every automaton in them is
explored along the arena: the outcome automata, and each leaf of a
compiled spec, whose file automata read each arena edge as the game edge
it was rebuilt from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .automata import (
    ExploredAutomaton,
    _explored,
    accepts_lasso,
    constant_automaton,
    intersect,
    negate,
    parse_automaton,
)
from .games import (
    Game,
    GameFormatError,
    Lasso,
    PayoffKind,
    parse_int,
    parse_rational,
    payoff_of_lasso,
)
from .solvers import (
    ParityGame,
    _peel,
    _shortest_cycle,
    _shortest_path,
    explore,
    solve_parity,
)
from .transform import MooreStrategy, _require_valid, moore_layout
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
    if table.source is not g:
        raise ValueError("table must belong to the labelled game")
    arena = table.arena
    aval, acval, cval = table.aval, table.acval, table.cval
    labels = {}
    for player in range(1, g.players + 1):
        per_edge = {}
        # source -> (its one best successor or None, the labels of its
        # other edges, the labels of the edge to that successor)
        at = {}
        for (u, v) in arena.weights:
            got = at.get(u)
            if got is None:
                q, ac, outs = aval[(player, u)], acval[(player, u)], arena.succ[u]
                if arena.owner[u] == player or len(outs) == 1:
                    got = (None, EdgeLabels(q, ac, None), None)
                else:
                    # the best alternative is the best cval unless the edge
                    # leads to the one successor that attains it
                    cv = [cval[(player, w)] for w in outs]
                    best = max(cv)
                    top = outs[cv.index(best)]
                    second = max((x for w, x in zip(outs, cv) if w != top), default=None)
                    if second == best:
                        got = (None, EdgeLabels(q, ac, best), None)
                    else:
                        got = (top, EdgeLabels(q, ac, best), EdgeLabels(q, ac, second))
                at[u] = got
            per_edge[(u, v)] = got[2] if v == got[0] else got[1]
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

    def take(expected=None, what=None):
        """The next token; `expected` or `what` describes the one wanted."""
        t = peek()
        if t is None:
            raise GameFormatError(
                f"spec: unexpected end of spec, expected {what or repr(expected)}"
            )
        if expected is not None and t != expected:
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
            tok = take(what="a player")
            try:
                player = parse_int(tok)
            except ValueError:
                raise GameFormatError(f"spec: bad player {tok!r}") from None
            take(")")
            op = take(what="a comparison")
            if op not in ("<", "<=", ">", ">=", "="):
                raise GameFormatError(f"spec: bad comparison {op!r}")
            tok = take(what="a threshold")
            try:
                value = parse_rational(tok)
            except ValueError as exc:
                raise GameFormatError(f"spec: {exc}") from None
            return ("atom", player, op, value)
        if t == "automaton":
            take()
            name = take(what="a quoted file name")
            if not (name.startswith('"') and name.endswith('"')):
                raise GameFormatError("spec: automaton expects a quoted file name")
            return ("aut", load(name[1:-1]))
        if t is None:
            raise GameFormatError("spec: unexpected end of spec, expected a term")
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


def _atom_automaton(arena: Game, player: int, op: str, value: Fraction) -> ExploredAutomaton:
    """Single-threshold payoff automaton, explored along the arena: a state
    is (arena vertex, the priority of the edge that entered it), and the
    priorities rank the weight regions so that the region of the play's
    payoff dominates in the limit."""
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

    def succ(state):  # every edge priority is at least 2, so 0 marks the start
        v = state[0]
        for v2 in arena.successors(v):
            yield v2, pr(region(arena.weight(v, v2, player)))

    return _explored((arena.init, 0), succ)


def _compile_spec(lg: LabeledGame, spec: PayoffSpec) -> ExploredAutomaton:
    """The spec as one automaton explored along the labelled arena; file
    automata read each arena edge as the game edge it was rebuilt from."""
    arena = lg.arena
    origin = lg.table.transformed.origin

    def compile_node(node):
        kind = node[0]
        if kind == "const":
            return constant_automaton(arena, node[1])
        if kind == "atom":
            return _atom_automaton(arena, node[1], node[2], node[3])
        if kind == "aut":
            return node[1].along(arena, origin)
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


def _labelled(g: Game, spec: PayoffSpec, what: str) -> LabeledGame:
    """Every automaton product's set-up: check the measure and the spec's
    players, then label the arena with the full value table."""
    _require_regular(g, what)
    _check_spec(g, spec)
    return label_edges(g, compute_value_table(g))


def _parity_game(aut: ExploredAutomaton, owner_of) -> ParityGame:
    """The explored automaton as a parity game on its own states; a state
    at arena vertex v belongs to owner_of(v)."""
    return ParityGame(
        owner=dict(enumerate(map(owner_of, aut.vertex))),
        priority=dict(enumerate(aut.priority)),
        succ=dict(enumerate(aut.succ)),
    )


def _flat_product(parts, init=(), step=None):
    """The synchronous product of explored automata, with no record.

    A product state is (*extra, the components' states), with the extra
    part `init` at state 0.  `step(state, nexts)`, if given, yields the
    successors of a state from the tuples `nexts` of the components'
    successors along each arena edge; by default the extra part stays empty
    and every edge is kept.  Returns the explored states and successor
    table and, per component, its priority at each state.
    """
    tables = [a.succ for a in parts]
    k = len(init)

    def succ(state):
        nexts = zip(*[t[q] for t, q in zip(tables, state[k:])])
        return nexts if step is None else step(state, nexts)

    states, table = explore((*init, *(a.initial for a in parts)), succ)
    prios = [
        [a.priority[st[c]] for st in states] for c, a in enumerate(parts, start=k)
    ]
    return states, table, prios


def _lasso_through(comp, table, prios) -> list:
    """A cycle inside the component `comp`, through one state of each
    component's top priority there: the least such state of each, visited
    in increasing order from the least one by shortest paths inside `comp`,
    as its states from the least one."""
    inside = set(comp)
    rows = {s: [t for t in table[s] if t in inside] for s in comp}
    tops = set()
    for prio in prios:
        top = max(prio[u] for u in comp)
        tops.add(min(u for u in comp if prio[u] == top))
    tops = sorted(tops)
    if len(tops) == 1:
        return _shortest_cycle(tops[0], rows)
    cycle = []
    for a, b in zip(tops, tops[1:] + tops[:1]):
        cycle += _shortest_path(a, b.__eq__, rows)[:-1]
    return cycle


def _project_lasso(lg: LabeledGame, lasso: Lasso) -> Lasso:
    tg = lg.table.transformed
    return Lasso(
        prefix=tuple(tg.origin(v) for v in lasso.prefix),
        cycle=tuple(tg.origin(v) for v in lasso.cycle),
    )


def model_check_admissible(g: Game, spec: PayoffSpec) -> McVerdict:
    """Do all plays compatible with every player's admissible strategies
    satisfy the spec?  On failure returns a concrete counterexample lasso,
    in normal form (`Lasso.normal`).

    One-player emptiness: the flat product of every player's outcome
    automaton and the negated spec has an accepting run iff `_peel` finds
    a component of it where every condition holds.  The counterexample is
    the shortest path from the initial state to the start of the cycle
    `_lasso_through` that component, then the cycle.
    """
    lg = _labelled(g, spec, "model checking under admissibility")
    parts = [outcome_automaton(lg, p) for p in range(1, g.players + 1)]
    parts.append(negate(_compile_spec(lg, spec)))
    states, table, prios = _flat_product(parts)

    comp = _peel(table, prios, range(len(states)))
    if comp is None:
        return McVerdict(holds=True)
    loop = _lasso_through(comp, table, prios)

    def vertices(path):
        return tuple(parts[0].vertex[states[s][0]] for s in path)

    witness = Lasso(
        prefix=vertices(_shortest_path(0, loop[0].__eq__, table)[:-1]), cycle=vertices(loop)
    )
    counterexample = _project_lasso(lg, witness).normal()
    for p in range(1, g.players + 1):
        if not eval_outcome_formula(lg, p, witness):
            raise RuntimeError(f"counterexample is no admissible outcome of player {p}")
    if eval_spec_on_lasso(g, spec, counterexample):
        raise RuntimeError("counterexample satisfies the spec")
    return McVerdict(holds=False, counterexample=counterexample)


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
    objective, whatever the other players do.  A strategy that is not one of
    `player` on `g` raises `GameFormatError`, before the set-up's checks.

    One flat product of the strategy's memory, the player's outcome
    automaton, the other players' and the negated spec, on the strategy's
    moves only: the strategy loses iff `_peel` finds a run that breaks the
    player's own condition, or one that meets every other player's and
    breaks the spec.
    """
    _require_valid(g, s)
    if s.player != player:
        raise GameFormatError(f"strategy of player {s.player}, not of player {player}")
    lg = _labelled(g, spec, "objective verification")
    arena = lg.arena
    origin = lg.table.transformed.origin
    parts = [outcome_automaton(lg, j) for j in range(1, g.players + 1)]
    parts.insert(0, parts.pop(player - 1))
    parts.append(negate(_compile_spec(lg, spec)))
    vertex = parts[0].vertex

    def step(state, nexts):
        mem, v = state[0], vertex[state[1]]
        if arena.owner[v] == player:
            target = s.move(mem, origin(v))
            nexts = [qs for qs in nexts if origin(vertex[qs[0]]) == target]
        for qs in nexts:
            yield (s.next_memory(mem, origin(vertex[qs[0]])), *qs)

    states, table, prios = _flat_product(parts, (s.init_mem,), step)
    nodes = range(len(states))
    return (
        _peel(table, [[p + 1 for p in prios[0]]], nodes) is None
        and _peel(table, prios[1:], nodes) is None
    )


def synthesize_assume_admissible(g: Game, player: int, spec: PayoffSpec) -> SynthResult:
    """Find a strategy whose plays are admissible-compatible for `player` and
    satisfy the spec whenever all other players also play admissibly."""
    lg = _labelled(g, spec, "assume-admissible synthesis")
    arena = lg.arena
    tg = lg.table.transformed
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
