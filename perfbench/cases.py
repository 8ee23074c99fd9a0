"""Seeded workload generation: games, specs, strategies and the operation list.

A workload is a fixed list of game slots.  Each slot fixes the measure, the
player count and the size of the input: vertices, edges (twice the
vertices, within a few percent), the weight range, which every player's weights span, and for
`inf`/`sup` a window for the size of the rebuilt arena.  The workload seed
draws `oracle.random_game` seeds until a game of that size comes up, and
also picks the analysed player, the spec and the random strategy.  The
costs measured here grow with these sizes (value iteration with vertices,
edges and the largest weight; the extremum layers with the rebuilt arena),
so fixing them keeps a batch's cost steady from one seed to the next and
run-to-run spread measures the program, not the luck of the draw.

Every input file is written by this module's own writer in the documented
text formats, so the bytes of an input depend only on the seed and on
`random_game`, never on the program's serializers.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from admgames.games import PayoffKind
from admgames.oracle import random_game


@dataclass(frozen=True)
class Slot:
    measure: str
    size: int
    players: int
    weights: tuple[int, int]
    rebuilt: tuple[int, int] | None = None  # accepted inf/sup rebuild sizes
    atoms: int = 0  # payoff atoms in the spec, for mc and synth


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `argv` names files relative to the work directory."""

    op_id: str
    command: str
    game: str  # game id, the key of Batch.games
    argv: tuple[str, ...]
    player: int = 0
    spec: str | None = None  # spec file name, for mc and synth
    strategy: str | None = None  # strategy file read (check) or written (sco, wco, synth)
    expect: str | None = None  # check: "admissible" when the strategy is an sco output


@dataclass
class Batch:
    workload: str
    seed: int
    files: dict[str, str]  # file name -> text
    games: dict[str, str]  # game id -> game file name
    ops: list[Op] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()

    def argv(self, op: Op, workdir: str) -> list[str]:
        """The operation's command line with its files under `workdir`."""
        return [os.path.join(workdir, a) if a in self.files or a == op.strategy else a
                for a in op.argv]

    def write(self, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        for name, text in self.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def _cycle(items, count):
    return [items[i % len(items)] for i in range(count)]


# Why each workload exists, and which layers it must leave idle, is recorded
# in BENCHMARK.json and NOTES.md; the slot lists below are the sizes chosen
# there.  Slots cycle through measures and sizes so every batch has the same
# mix whatever the seed.
WORKLOADS = {
    # Mean-payoff value iteration dominates; parity solver and automata idle.
    "mp-values": [
        Slot(m, n, 2, (-5, 5)) for (m, n) in (
            ("mp-inf", 10), ("mp-sup", 11), ("mp-inf", 12),
            ("mp-sup", 10), ("mp-inf", 11), ("mp-sup", 12),
        )
    ],
    # Threshold sweeps make values cheap; the inf/sup rebuild, witness lassos,
    # per-vertex one-player values and strategy products carry the cost.
    "extremum-arena": _cycle(
        [
            Slot("inf", 24, 2, (-5, 5), rebuilt=(140, 180)),
            Slot("sup", 24, 2, (-5, 5), rebuilt=(120, 160)),
            Slot("liminf", 120, 2, (-5, 5)),
            Slot("limsup", 120, 2, (-5, 5)),
        ],
        40,
    ),
    # Value tables take milliseconds; outcome automata, intersection, the
    # product search and the parity solver carry the cost.
    "regular-mc-synth": _cycle(
        [
            Slot(m, n, p, (-3, 3), rebuilt=window if m in ("inf", "sup") else None,
                 atoms=atoms)
            for (n, p, window, atoms) in (
                (12, 2, (30, 50), 1), (12, 2, (30, 50), 2), (16, 2, (40, 70), 1),
                (10, 3, (30, 50), 1), (6, 2, (15, 30), 3),
            )
            for m in ("inf", "sup", "liminf", "limsup")
        ],
        280,
    ),
}

COMMANDS = {
    "mp-values": ("values", "sco", "check", "wco"),
    "extremum-arena": ("values", "sco", "check", "wco"),
    "regular-mc-synth": ("mc", "synth"),
}

_OPS = ("<", "<=", ">", ">=", "=")


def game_text(g) -> str:
    """The game file format, vertices then edges in sorted order."""
    lines = [f"players {g.players}", f"measure {g.measure.value}", f"init {g.init}"]
    lines += [f"vertex {v} {g.owner[v]}" for v in sorted(g.owner)]
    for (u, v) in sorted(g.weights):
        lines.append(f"edge {u} {v} " + " ".join(str(w) for w in g.weights[(u, v)]))
    return "\n".join(lines) + "\n"


def random_spec(rng: random.Random, atoms: int, players: int, weights: tuple[int, int]) -> str:
    """A Boolean combination of `atoms` atoms `payoff(i) op q`."""

    def atom():
        q = Fraction(rng.randint(2 * weights[0], 2 * weights[1]), 2)
        text = f"payoff({rng.randint(1, players)}) {rng.choice(_OPS)} {q}"
        return f"!({text})" if rng.random() < 0.2 else text

    parts = [atom() for _ in range(atoms)]
    text = parts[0]
    for a in parts[1:]:
        text = f"({text}) {rng.choice(('&&', '||'))} {a}"
    return text + "\n"


def random_strategy_text(g, player: int, rng: random.Random) -> str:
    """A memoryless strategy choosing one seeded successor per owned vertex."""
    lines = [f"strategy {player}", "memory 1", "initmem 0"]
    for v in sorted(g.owner):
        if g.owner[v] == player:
            lines.append(f"move 0 {v} {rng.choice(sorted(g.succ[v]))}")
    return "\n".join(lines) + "\n"


def rebuilt_size(g) -> int:
    """Vertices of the inf/sup rebuild: the reachable pairs of a vertex and
    each player's running extremum of the weights seen so far."""
    fold = min if g.measure is PayoffKind.INF else max
    start = (g.init, (None,) * g.players)
    seen = {start}
    stack = [start]
    while stack:
        v, recs = stack.pop()
        for v2 in g.succ[v]:
            w = g.weights[(v, v2)]
            nxt = (v2, tuple(x if r is None else fold(r, x) for r, x in zip(recs, w)))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


def has_size(g, slot: Slot) -> bool:
    if abs(len(g.weights) - 2 * slot.size) > max(1, slot.size // 30):
        return False
    for i in range(slot.players):
        ws = [w[i] for w in g.weights.values()]
        if (min(ws), max(ws)) != slot.weights:
            return False
    return slot.rebuilt is None or slot.rebuilt[0] <= rebuilt_size(g) <= slot.rebuilt[1]


def draw_game(rng: random.Random, slot: Slot):
    while True:
        g = random_game(rng.randrange(2**31), slot.size, weight_range=slot.weights,
                        players=slot.players, measure=PayoffKind(slot.measure))
        if has_size(g, slot):
            return g


def make_batch(workload: str, seed: int) -> Batch:
    """All inputs and operations of one workload at one seed."""
    rng = random.Random(f"{workload}/{seed}")
    batch = Batch(workload=workload, seed=seed, files={}, games={})
    commands = COMMANDS[workload]
    for i, slot in enumerate(WORKLOADS[workload]):
        gid = f"g{i:02d}"
        g = draw_game(rng, slot)
        gfile = f"{gid}.game"
        batch.files[gfile] = game_text(g)
        batch.games[gid] = gfile
        player = rng.randint(1, slot.players)
        ops = batch.ops
        if "values" in commands:
            sco, wco = f"{gid}.sco.strat", f"{gid}.wco.strat"
            ops.append(Op(f"{gid}.values", "values", gid, ("values", gfile)))
            ops.append(Op(f"{gid}.sco", "sco", gid,
                          ("sco", gfile, "--player", str(player), "-o", sco),
                          player=player, strategy=sco))
            ops.append(Op(f"{gid}.check-sco", "check", gid, ("check", gfile, sco),
                          player=player, strategy=sco, expect="admissible"))
            ops.append(Op(f"{gid}.wco", "wco", gid,
                          ("wco", gfile, "--player", str(player), "-o", wco),
                          player=player, strategy=wco))
        if workload == "extremum-arena":
            rand = f"{gid}.rand.strat"
            batch.files[rand] = random_strategy_text(g, player, rng)
            ops.append(Op(f"{gid}.check-rand", "check", gid, ("check", gfile, rand),
                          player=player, strategy=rand))
        if "mc" in commands:
            spec = f"{gid}.spec"
            batch.files[spec] = random_spec(rng, slot.atoms, slot.players, slot.weights)
            syn = f"{gid}.synth.strat"
            ops.append(Op(f"{gid}.mc", "mc", gid, ("mc", gfile, "--spec", spec), spec=spec))
            ops.append(Op(f"{gid}.synth", "synth", gid,
                          ("synth", gfile, "--player", str(player), "--spec", spec, "-o", syn),
                          player=player, spec=spec, strategy=syn))
    return batch
