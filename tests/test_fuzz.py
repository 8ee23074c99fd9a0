"""Seeded mutation fuzzing of the four input formats through the CLI.

Mutants of the fixture games, strategies and specs, of a strategy with
`default` lines and of a small automaton file, go through `cli.run`.
Whatever the input, a run returns 0, 1 or 2 without raising, and on 2 it
writes exactly one stderr line, which starts with `error: `.  Mutations delete, duplicate or insert lines and
replace or drop tokens; the tokens come from a fixed list with no integer
above 10^4, so no mutant asks for a large arena or memory.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from admgames.cli import run

from helpers import FIXTURES, fixture_text

TOKENS = (
    # game, strategy, automaton and spec directives
    "players", "measure", "init", "vertex", "edge",
    "strategy", "memory", "initmem", "update", "default", "move",
    "state", "initial", "priority", "trans",
    "payoff", "automaton", "true", "false", "&&", "||", "!",
    "#", "-1", "0", "1/0", "99",
    # vertex names of the fixtures
    "v1", "v2", "v3", "v4", "s1", "s2", "s4", "t1", "t2",
)

# every edge of fig1_liminf.game keeps state ok; a run is accepted iff it
# stays on the v2-v4 loop from some point on
AUTOMATON = """state ok
state far
initial ok
priority ok 0
priority far 1
trans ok v1 v3 far
trans ok v3 v1 far
trans ok v1 v2 far
trans ok v2 v1 far
trans ok v2 v4 ok
trans ok v4 v2 ok
trans far v1 v3 far
trans far v3 v1 far
trans far v1 v2 far
trans far v2 v1 far
trans far v2 v4 ok
trans far v4 v2 ok
"""

GAMES = ("fig1.game", "fig1_liminf.game", "fig2.game", "fig3.game")
GAME_COMMANDS = (
    ["values"],
    ["sco", "--player", "1"],
    ["wco", "--player", "2"],
    ["outcomes", "--player", "1"],
    ["mc", "--spec", str(FIXTURES / "geq2.spec")],
    ["synth", "--player", "1", "--spec", str(FIXTURES / "true.spec")],
)
# the sco strategy of player 2 on fig1.game, which has default lines
SPARSE_STRATEGY = """strategy 2
memory 4
initmem 0
update 0 v2 1
update 0 v3 2
update 1 v1 0
update 1 v4 3
update 2 v1 0
update 3 v2 1
default v2 v1
default v3 v1
default v4 v2
move 1 v2 v4
"""
STRATEGIES = {  # name -> (game, text)
    name: (game, fixture_text(name)) for name, game in (
        ("fig1_p2_return.strat", "fig1.game"),
        ("fig1_p2_stay.strat", "fig1_liminf.game"),
        ("fig2_s2s5.strat", "fig2.game"),
        ("fig2_s2s6.strat", "fig2.game"),
        ("fig2_s3.strat", "fig2.game"),
        ("fig3_inf.strat", "fig3.game"),
    )
}
STRATEGIES["fig1_p2_sco"] = ("fig1.game", SPARSE_STRATEGY)
SPECS = {
    "geq2.spec": fixture_text("geq2.spec"),
    "geq3.spec": fixture_text("geq3.spec"),
    "true.spec": fixture_text("true.spec"),
    "aut.spec": 'automaton "fuzz.aut" && payoff(2) > 0\n',
}
MUTANTS_PER_KIND = 600


def mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 1, 2))):
        op = rng.randrange(6)
        if not lines or op == 0:  # insert a line of tokens
            line = " ".join(rng.choices(TOKENS, k=rng.randint(1, 4)))
            lines.insert(rng.randrange(len(lines) + 1), line)
            continue
        at = rng.randrange(len(lines))
        if op == 1:
            del lines[at]
        elif op == 2:  # duplicate a line, next to it or elsewhere
            lines.insert(rng.choice((at, rng.randrange(len(lines) + 1))), lines[at])
        else:
            words = lines[at].split() or [""]
            k = rng.randrange(len(words))
            if op == 5:
                del words[k]
            else:
                words[k] = rng.choice(TOKENS)
            lines[at] = " ".join(words)
    return "\n".join(lines) + "\n"


def mutants(tmp_path):
    """(label, argv) per mutant; each mutant's file is written before it is
    yielded, and one file per format is reused."""
    game = tmp_path / "fuzz.game"
    strat = tmp_path / "fuzz.strat"
    spec = tmp_path / "fuzz.spec"
    aut = tmp_path / "fuzz.aut"
    aut.write_text(AUTOMATON)
    liminf = str(FIXTURES / "fig1_liminf.game")
    for i in range(MUTANTS_PER_KIND):
        rng = random.Random(i)
        name = GAMES[i % len(GAMES)]
        game.write_text(mutate(fixture_text(name), rng))
        command = GAME_COMMANDS[i % len(GAME_COMMANDS)]
        yield f"game {i} {name}", [command[0], str(game), *command[1:]]

        name = sorted(STRATEGIES)[i % len(STRATEGIES)]
        game_name, text = STRATEGIES[name]
        strat.write_text(mutate(text, rng))
        yield f"strategy {i} {name}", ["check", str(FIXTURES / game_name), str(strat)]

        name = sorted(SPECS)[i % len(SPECS)]
        spec.write_text(mutate(SPECS[name], rng))
        command = ["mc"] if i % 2 else ["synth", "--player", "1"]
        yield f"spec {i} {name}", [*command, liminf, "--spec", str(spec)]

        aut.write_text(mutate(AUTOMATON, rng))
        spec.write_text(SPECS["aut.spec"])
        command = ["synth", "--player", "2"] if i % 2 else ["mc"]
        yield f"automaton {i}", [*command, liminf, "--spec", str(spec)]


def test_mutated_inputs_exit_0_1_or_2_with_one_error_line(tmp_path):
    codes = {}
    for label, argv in mutants(tmp_path):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = run(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{label}: {argv} raised {exc!r}")
        assert rc in (0, 1, 2), (label, rc)
        if rc == 2:
            text = err.getvalue()
            assert text.startswith("error: ") and text.count("\n") == 1, (label, text)
            assert text.endswith("\n"), (label, text)
        codes[rc] = codes.get(rc, 0) + 1
    assert sum(codes.values()) == 4 * MUTANTS_PER_KIND
    # the mutants reach past the parsers: every exit code occurs
    assert sorted(codes) == [0, 1, 2]
