"""Command-line interface: exit codes, reports, JSON schema, file round trips."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from admgames import check_strategy_admissible, parse_automaton, parse_strategy
from admgames.cli import run
from admgames.transform import validate_strategy

from helpers import FIXTURES, fixture_text, load_game


def fx(name: str) -> str:
    return str(FIXTURES / name)


def test_values_fig1(capsys):
    assert run(["values", fx("fig1.game")]) == 0
    out = capsys.readouterr().out
    assert "player=1 vertex=v1 aval=1 cval=2 acval=2" in out
    assert "player=2 vertex=v2 aval=2 cval=2 acval=2" in out


def test_values_json_schema(capsys):
    assert run(["--json", "values", fx("fig1.game")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "values"
    row = data["rows"][0]
    assert sorted(row) == ["acval", "aval", "cval", "origin", "player", "vertex"]
    assert row == {
        "player": 1, "vertex": "v1", "origin": "v1",
        "aval": "1", "cval": "2", "acval": "2",
    }


def test_check_exit_codes_and_report(capsys):
    assert run(["check", fx("fig2.game"), fx("fig2_s2s6.strat")]) == 1
    out = capsys.readouterr().out
    assert "not-admissible" in out and "violated=eq3" in out
    assert "vertex=s1" in out and "memory=0" in out
    assert "aval=5" in out and "acval=10" in out
    assert "strat_aval=3" in out and "strat_cval=4" in out

    assert run(["check", fx("fig2.game"), fx("fig2_s2s5.strat")]) == 0
    assert "admissible" in capsys.readouterr().out


def test_check_json_schema(capsys):
    assert run(["--json", "check", fx("fig2.game"), fx("fig2_s2s6.strat")]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "command": "check",
        "admissible": False,
        "player": 1,
        "vertex": "s1",
        "memory": 0,
        "violated": "eq3",
        "aval": "5",
        "acval": "10",
        "strat_aval": "3",
        "strat_cval": "4",
        "witness": ["s1"],
    }


def test_sco_round_trip(tmp_path, capsys):
    out = tmp_path / "s.strat"
    assert run(["sco", fx("fig3.game"), "--player", "1", "-o", str(out)]) == 0
    capsys.readouterr()
    s = parse_strategy(out.read_text())
    g = load_game("fig3.game")
    assert check_strategy_admissible(g, s).admissible
    assert run(["check", fx("fig3.game"), str(out)]) == 0


def test_wco_reports_verification(tmp_path, capsys):
    assert run(["wco", fx("fig3.game"), "--player", "1"]) == 0
    assert "verified=false" in capsys.readouterr().out
    assert run(["wco", fx("fig1.game"), "--player", "1"]) == 0
    assert "verified=true" in capsys.readouterr().out


FIG1_LIMINF_STRATEGY = "strategy 1\nmemory 1\ninitmem 0\nmove 0 v1 v2\n"
FIG1_LIMINF_AUTOMATON = (
    "state q0\nstate q1\nstate q2\nstate q3\nstate q4\nstate q5\nstate q6\nstate q7\n"
    "initial q0\n"
    "priority q0 0\npriority q1 1\npriority q2 1\npriority q3 1\n"
    "priority q4 2\npriority q5 2\npriority q6 0\npriority q7 0\n"
    "trans q1 v1 v2 q2\ntrans q1 v1 v3 q3\ntrans q0 v1 v2 q2\ntrans q0 v1 v3 q3\n"
    "trans q4 v1 v2 q2\ntrans q4 v1 v3 q3\ntrans q2 v2 v1 q4\ntrans q2 v2 v4 q5\n"
    "trans q6 v2 v1 q0\ntrans q6 v2 v4 q7\ntrans q3 v3 v1 q1\ntrans q7 v4 v2 q6\n"
    "trans q5 v4 v2 q6\n"
)
FIG1_LABELS = (
    "player 1 admissible-outcome condition over edge labels\n"
    "levels: 1\n"
    "condition: always, at every edge leaving a vertex owned by the player\n"
    "  with level q: payoff > q, or eventually an edge whose source is an\n"
    "  opponent vertex with another successor of cooperative value > q, or\n"
    "  (acval = q and payoff = q and the level stays q forever)\n"
    "labels (edge: level, acval, best-other-successor):\n"
    "  v1 -> v2: 1, 2, -\n  v1 -> v3: 1, 2, -\n  v2 -> v1: 1, 2, 2\n"
    "  v2 -> v4: 1, 2, 2\n  v3 -> v1: 1, 2, -\n  v4 -> v2: 1, 2, -\n"
)


@pytest.mark.parametrize(
    "game, argv, body, tail, written, payload",
    [
        ("fig1_liminf.game", ["sco"], FIG1_LIMINF_STRATEGY, "",
         "sco strategy for player 1 written to {out}\n",
         '{"command": "sco", "memory": 1, "player": 1, "written": "{out}"}\n'),
        ("fig1_liminf.game", ["wco"], FIG1_LIMINF_STRATEGY, "wco candidate verified=true\n",
         "wco candidate verified=true\n",
         '{"command": "wco", "memory": 1, "player": 1, "verified": true, "written": "{out}"}\n'),
        ("fig1_liminf.game", ["outcomes"], FIG1_LIMINF_AUTOMATON, "", "",
         '{"automaton": true, "command": "outcomes", "player": 1, "states": 8, '
         '"written": "{out}"}\n'),
        ("fig1.game", ["outcomes"], FIG1_LABELS, "", "",
         '{"automaton": false, "command": "outcomes", "player": 1, '
         '"reason": "mean-payoff thresholds are not omega-regular"}\n'),
        ("fig1_liminf.game", ["synth", "--spec", fx("geq2.spec")], FIG1_LIMINF_STRATEGY, "",
         "realizable; strategy written to {out}\n",
         '{"command": "synth", "memory": 1, "player": 1, "realizable": true, '
         '"written": "{out}"}\n'),
    ],
    ids=["sco", "wco", "outcomes", "outcomes-mean-payoff", "synth"],
)
def test_report_stdout_is_exact(tmp_path, capsys, game, argv, body, tail, written, payload):
    # text and --json, to stdout and with -o: the written file's text
    # (`body`) comes first on stdout, then the report
    out = str(tmp_path / "out.txt")
    base = [argv[0], fx(game), "--player", "1", *argv[1:]]
    for mode, dest, want in [
        ([], [], body + tail),
        ([], ["-o", out], written.replace("{out}", out)),
        (["--json"], [], body + payload.replace("{out}", "-")),
        (["--json"], ["-o", out], payload.replace("{out}", out)),
    ]:
        assert run([*mode, *base, *dest]) == 0
        assert capsys.readouterr().out == want, (mode, dest)
        if dest:
            assert Path(out).read_text(encoding="utf-8") == body
            os.remove(out)


def test_outcomes_native_and_dot(tmp_path, capsys):
    out = tmp_path / "a.aut"
    assert run(["outcomes", fx("fig3.game"), "--player", "1", "-o", str(out)]) == 0
    parse_automaton(out.read_text())  # re-parses cleanly
    assert run(["outcomes", fx("fig3.game"), "--player", "1", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_outcomes_mean_payoff_prints_labels(capsys):
    assert run(["outcomes", fx("fig1.game"), "--player", "1"]) == 0
    out = capsys.readouterr().out
    assert "admissible-outcome condition" in out
    assert "v2 -> v1" in out


def test_mc_exit_codes(capsys):
    assert run(["mc", fx("fig1_liminf.game"), "--spec", fx("geq2.spec")]) == 0
    capsys.readouterr()
    assert run(["mc", fx("fig1_liminf.game"), "--spec", fx("geq3.spec")]) == 1
    out = capsys.readouterr().out
    assert "fails" in out and "cycle:" in out


def test_mc_json_schema(capsys):
    assert run(["--json", "mc", fx("fig1_liminf.game"), "--spec", fx("geq3.spec")]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "command": "mc",
        "holds": False,
        "counterexample": {"prefix": ["v1", "v2", "v4"], "cycle": ["v2", "v4"]},
    }


def test_synth_round_trip(tmp_path, capsys):
    out = tmp_path / "win.strat"
    code = run(
        ["synth", fx("fig1_liminf.game"), "--player", "1",
         "--spec", fx("geq2.spec"), "-o", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    assert run(["check", fx("fig1_liminf.game"), str(out)]) == 0

    assert run(
        ["synth", fx("fig1_liminf.game"), "--player", "1", "--spec", fx("geq3.spec")]
    ) == 1


def test_oracle_matches(capsys):
    assert run(["oracle", fx("fig3.game")]) == 0
    assert "mismatches: 0" in capsys.readouterr().out


def test_mc_spec_with_relative_automaton_reference(tmp_path, capsys):
    g = load_game("fig1_liminf.game")
    trans = [
        f"trans ok {u} {v} ok" for (u, v) in g.weights
    ]
    (tmp_path / "all.aut").write_text(
        "state ok\ninitial ok\npriority ok 0\n" + "\n".join(trans) + "\n"
    )
    (tmp_path / "ref.spec").write_text('automaton "all.aut"\n')
    assert run(["mc", fx("fig1_liminf.game"), "--spec", str(tmp_path / "ref.spec")]) == 0


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("players 1\nvertex a 1\n")
    assert run(["values", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["values", str(tmp_path / "missing.game")]) == 2
    capsys.readouterr()
    # mean-payoff synthesis is explicitly unsupported
    assert run(["synth", fx("fig1.game"), "--player", "1", "--spec", fx("geq2.spec")]) == 2


@pytest.mark.parametrize("spec", [
    "payoff(true) >= 1",  # not a player number
    "!" * 5000 + "true",  # deeper than the parser may recurse
    " && ".join(["payoff(1) >= 1"] * 300),  # a syntax tree 300 levels deep
], ids=["bad-player", "deep-not", "long-chain"])
def test_malformed_spec_exit_2(tmp_path, capsys, spec):
    (tmp_path / "bad.spec").write_text(spec + "\n")
    assert run(["mc", fx("fig1_liminf.game"), "--spec", str(tmp_path / "bad.spec")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: spec: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec, expected", [
    ("payoff(1) >=", "a threshold"),
    ("payoff(1)", "a comparison"),
], ids=["no-threshold", "no-comparison"])
def test_spec_ending_early_names_what_is_missing(tmp_path, capsys, spec, expected):
    (tmp_path / "short.spec").write_text(spec + "\n")
    assert run(["mc", fx("fig1_liminf.game"), "--spec", str(tmp_path / "short.spec")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: spec: unexpected end of spec, expected {expected}\n"


@pytest.mark.parametrize("extra, message", [
    ("players 3", "line 16: duplicate players"),
    ("measure mp-sup", "line 16: duplicate measure"),
    ("init v2", "line 16: duplicate init"),
], ids=["players", "measure", "init"])
def test_repeated_game_directive_exit_2(tmp_path, capsys, extra, message):
    (tmp_path / "dup.game").write_text(fixture_text("fig1.game") + extra + "\n")
    assert run(["values", str(tmp_path / "dup.game")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("extra, message", [
    ("move 0 v2 v1", "line 7: duplicate move for memory 0 at vertex v2"),
    ("update 0 v2 0\nupdate 0 v2 0", "line 8: duplicate update for memory 0 at vertex v2"),
    ("strategy 2", "line 7: duplicate strategy"),
    ("memory 2", "line 7: duplicate memory"),
    ("initmem 0", "line 7: duplicate initmem"),
    ("default v3 v1\ndefault v3 v1", "line 8: duplicate default at vertex v3"),
], ids=["move", "update", "strategy", "memory", "initmem", "default"])
def test_repeated_strategy_directive_exit_2(tmp_path, capsys, extra, message):
    # the last duplicate used to win: with a trailing move to v1 the fixture
    # strategy was silently judged not admissible
    (tmp_path / "dup.strat").write_text(fixture_text("fig1_p2_stay.strat") + extra + "\n")
    assert run(["check", fx("fig1.game"), str(tmp_path / "dup.strat")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_move_outside_memory_and_arena_exit_2(tmp_path, capsys):
    # reported like the same defects of an update line
    (tmp_path / "bad.strat").write_text(fixture_text("fig1_p2_stay.strat") + "move 7 zz v1\n")
    assert run(["check", fx("fig1.game"), str(tmp_path / "bad.strat")]) == 2
    err = capsys.readouterr().err
    assert err == "error: move (7, zz) out of memory range; move references unknown vertex zz\n"


# player 2 owns v2, v3 and v4 on fig1.game
SPARSE = "strategy 2\nmemory 2\ninitmem 0\nupdate 0 v2 1\ndefault v2 v1\ndefault v3 v1\n"


@pytest.mark.parametrize("lines, problems", [
    ("default v4 v2\ndefault zz v1", ["default references unknown vertex zz"]),
    ("default v4 v2\ndefault v1 v2", ["default declared at vertex v1 not owned by player 2"]),
    ("default v4 v1", ["default at vertex v4 -> v1 is not an edge"]),
    ("move 0 v4 v2", ["missing move for memory 1 at vertex v4"]),
    ("", ["missing move for memory 0 at vertex v4", "missing move for memory 1 at vertex v4"]),
], ids=["unknown-vertex", "unowned-vertex", "non-edge", "missing-row", "missing-vertex"])
def test_bad_default_exit_2(tmp_path, capsys, lines, problems):
    text = SPARSE + lines + "\n"
    assert validate_strategy(load_game("fig1.game"), parse_strategy(text)) == problems
    (tmp_path / "bad.strat").write_text(text)
    assert run(["check", fx("fig1.game"), str(tmp_path / "bad.strat")]) == 2
    assert capsys.readouterr() == ("", f"error: {'; '.join(problems)}\n")


def test_sparse_file_checks_like_its_expanded_form(tmp_path, capsys):
    (tmp_path / "sparse.strat").write_text(SPARSE + "default v4 v2\nmove 1 v2 v4\n")
    (tmp_path / "full.strat").write_text(
        "strategy 2\nmemory 2\ninitmem 0\nupdate 0 v2 1\n"
        + "".join(f"move {m} v2 {'v4' if m else 'v1'}\nmove {m} v3 v1\nmove {m} v4 v2\n"
                  for m in range(2))
    )
    outputs = []
    for name in ("sparse.strat", "full.strat"):
        for js in ([], ["--json"]):
            rc = run([*js, "check", fx("fig1.game"), str(tmp_path / name)])
            outputs.append((rc, capsys.readouterr()))
    assert outputs[:2] == outputs[2:]


@pytest.mark.parametrize("memory", [10**6, 10**12], ids=["1e6", "1e12"])
def test_declared_memory_does_not_size_the_error(tmp_path, capsys, memory):
    # player 1 owns only v1 on fig1.game: every memory state misses one move
    (tmp_path / "big.strat").write_text(f"strategy 1\nmemory {memory}\n")
    start = time.perf_counter()
    assert run(["check", fx("fig1.game"), str(tmp_path / "big.strat")]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and len(err) < 2000
    listed = "; ".join(f"missing move for memory {m} at vertex v1" for m in range(20))
    assert err == f"error: {listed}; and {memory - 20} more missing moves\n"


def test_check_strategy_of_no_player_exit_2(tmp_path, capsys):
    # the strategy is validated before any value is solved for its player
    (tmp_path / "p7.strat").write_text("strategy 7\nmemory 1\ninitmem 0\n")
    assert run(["check", fx("fig1.game"), str(tmp_path / "p7.strat")]) == 2
    assert capsys.readouterr() == ("", "error: player 7 not in 1..2\n")


@pytest.mark.parametrize("extra, message", [
    ("initial ok", "line 4: duplicate initial"),
    ("priority ok 1", "line 4: duplicate priority for state ok"),
], ids=["initial", "priority"])
def test_repeated_automaton_directive_exit_2(tmp_path, capsys, extra, message):
    (tmp_path / "dup.aut").write_text("state ok\ninitial ok\npriority ok 0\n" + extra + "\n")
    (tmp_path / "ref.spec").write_text('automaton "dup.aut"\n')
    assert run(["mc", fx("fig1_liminf.game"), "--spec", str(tmp_path / "ref.spec")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1


@pytest.mark.parametrize("over", [False, True], ids=["zero", "players+1"])
@pytest.mark.parametrize("command", ["sco", "wco", "outcomes", "synth"])
def test_player_out_of_range_exit_2(capsys, command, over):
    player = load_game("fig2.game").players + 1 if over else 0
    argv = [command, fx("fig2.game"), "--player", str(player)]
    if command == "synth":
        argv += ["--spec", fx("geq2.spec")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --player ") and err.count("\n") == 1


def test_oracle_runs_without_networkx(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "networkx", None)  # any import of it raises ImportError
    assert run(["oracle", fx("fig3.game")]) == 0
    assert "mismatches: 0" in capsys.readouterr().out


def _inputs_with(tmp_path, kind, edit):
    """Write a game, strategy, spec and automaton that all parse, the text of
    `kind` passed through `edit` as bytes; return the command line that
    reads `kind` and the path of its file."""
    trans = "".join(f"trans ok {u} {v} ok\n" for (u, v) in load_game("fig1.game").weights)
    files = {
        "game": ("g.game", fixture_text("fig1_liminf.game")),
        "strategy": ("s.strat", fixture_text("fig1_p2_stay.strat")),
        "spec": ("s.spec", 'automaton "all.aut"\n'),
        "automaton": ("all.aut", "state ok\ninitial ok\npriority ok 0\n" + trans),
    }
    for name, (file, text) in files.items():
        data = text.encode()
        (tmp_path / file).write_bytes(edit(data) if name == kind else data)
    game, strat, spec = (str(tmp_path / files[k][0]) for k in ("game", "strategy", "spec"))
    argv = ["check", game, strat] if kind == "strategy" else ["mc", game, "--spec", spec]
    return argv, tmp_path / files[kind][0]


@pytest.mark.parametrize("kind", ["game", "strategy", "spec", "automaton"])
def test_non_utf8_file_exit_2(tmp_path, capsys, kind):
    argv, path = _inputs_with(tmp_path, kind, lambda data: data + b"# \xff\n")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert err.count("\n") == 1


@pytest.mark.parametrize("count", ["\u00b2", "\u0661", "+", "+1", "1 2"],
                         ids=["superscript-two", "arabic-indic-one", "sign", "signed-one", "two"])
def test_bad_player_count_exit_2(tmp_path, capsys, count):
    bad = tmp_path / "bad.game"
    bad.write_text(f"players {count}\nmeasure liminf\ninit a\nvertex a 1\nedge a a 1\n", "utf-8")
    assert run(["values", str(bad)]) == 2
    assert capsys.readouterr().err == "error: line 1: players expects one positive integer\n"


# bare int() also takes a sign, underscores and every Unicode digit
@pytest.mark.parametrize("kind, old, new, message", [
    ("game", "vertex v1 1", "vertex v1 +1", "line 5: bad owner '+1'"),
    ("game", "edge v1 v3 1 0", "edge v1 v3 0_1 0", "line 9: bad rational '0_1'"),
    ("game", "edge v1 v3 1 0", "edge v1 v3 \u0661/\u0662 0", "line 9: bad rational"),
    ("strategy", "memory 1", "memory +1", "line 2: expected integer, got '+1'"),
    ("automaton", "priority ok 0", "priority ok \u0661", "line 3: bad priority"),
    ("spec", "automaton", "payoff(\u0661) >= 2 && automaton", "bad spec syntax near '\u0661"),
    ("spec", "automaton", "payoff(1) >= \u0661 && automaton", "bad spec syntax near '\u0661"),
], ids=[
    "game-owner-sign", "game-weight-underscore", "game-weight-arabic-indic",
    "strategy-memory-sign", "automaton-priority", "spec-player", "spec-value",
])
def test_non_ascii_integer_exit_2(tmp_path, capsys, kind, old, new, message):
    argv, _ = _inputs_with(tmp_path, kind, lambda data: data.replace(old.encode(), new.encode(), 1))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


# a negative priority would quietly count as odd (-1 % 2 == 1), and a
# negative denominator would take the sign off the numerator
@pytest.mark.parametrize("kind, old, new, message", [
    ("automaton", "priority ok 0", "priority ok -1", "line 3: negative priority '-1'"),
    ("game", "edge v1 v3 1 0", "edge v1 v3 1/-2 0", "line 9: bad rational '1/-2'"),
], ids=["automaton-priority", "game-weight-denominator"])
def test_negative_priority_or_denominator_exit_2(tmp_path, capsys, kind, old, new, message):
    argv, _ = _inputs_with(tmp_path, kind, lambda data: data.replace(old.encode(), new.encode(), 1))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        run(["values"])  # missing game argument
    assert e.value.code == 2


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_cli_oracle_imports_only_stdlib():
    # compared with a snapshot: `site` may already have loaded third-party modules
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import admgames.cli\n"
        f"assert admgames.cli.run(['oracle', {fx('fig3.game')!r}]) == 0\n"
        "allowed = sys.stdlib_module_names | {'admgames'}\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] not in allowed))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), check=True
    )
    assert out.stdout.splitlines()[-1] == "[]"


def test_values_under_python_O_match_a_normal_run():
    argv = ["-m", "admgames.cli", "--json", "values", fx("fig1.game")]
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, *argv],
            capture_output=True, text=True, env=_src_env(), check=True,
        ).stdout
        for flags in ([], ["-O"])
    )
    assert optimized == plain
    assert json.loads(plain)["command"] == "values"


def test_two_runs_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process: the second run must see nothing
    # of the first one's arguments
    runs = [["--json", "values", fx("fig1.game")], ["values", fx("fig1.game")]]
    together = []
    for argv in runs:
        assert run(argv) == 0
        together.append(capsys.readouterr().out)
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "admgames.cli", *argv],
            capture_output=True, text=True, env=_src_env(), check=True,
        ).stdout
        for argv in runs
    ]
    assert together == fresh
    assert together[0] != together[1]


# Each script breaks one solver result, as the monkeypatching tests in
# test_values.py and test_solvers.py do, and makes the call its check guards.
_AVAL_PLUS_100 = (
    "real = values.zero_sum_value\n"
    "def raised(*args, **kwargs):\n"
    "    aval, moves = real(*args, **kwargs)\n"
    "    return {v: x + 100 for v, x in aval.items()}, moves\n"
    "values.zero_sum_value = raised\n"
)
_BROKEN_UNDER_O = {
    "value-sandwich": (
        _AVAL_PLUS_100
        + "call = lambda: values.compute_value_table(g).at(1, 'v1')\n",
        "value sandwich violated at player 1, vertex v1",
    ),
    "value-sandwich-sco": (
        _AVAL_PLUS_100
        + "call = lambda: cli.run(['sco', '--player', '1', path])\n",
        "value sandwich violated at player 1, vertex v1",
    ),
    "level-cycle": (
        "values._one_player = lambda succ, *args: [None] * len(succ)\n"
        "call = lambda: values.compute_value_table(g).at(1, 'v1')\n",
        "subgraph must keep a cycle reachable from v1",
    ),
    "witness-payoff": (
        "solvers._payoff_of_weights = lambda *args: Fraction(99)\n"
        "call = lambda: solvers.cooperative_witness_lasso(g, 1, 'v1', Fraction(2))\n",
        "witness payoff 99 != 2",
    ),
    "cobuchi-dual": (
        "solvers._buchi = lambda *args: ([], bytearray(len(args[4])), {})\n"
        "cg = solvers.CoalitionGame(g, 1)\n"
        "call = lambda: solvers.zero_sum_value(cg, solvers.PayoffKind.LIMINF)\n",
        "coBuchi region must complement the Buchi dual",
    ),
    "max-moves": (
        "real = solvers._threshold\n"
        "solvers._threshold = lambda *args: real(*args)[:2] + ({},)\n"
        "cg = solvers.CoalitionGame(g, 1)\n"
        "call = lambda: solvers.zero_sum_value(cg, solvers.PayoffKind.LIMINF)\n",
        "a move at every max vertex",
    ),
    "mc-counterexample": (
        # mc then searches for an admissible outcome that satisfies the spec
        "from admgames import outcomes\n"
        "outcomes.negate = lambda aut: aut\n"
        "g = parse_game(Path(path).read_text().replace('mp-inf', 'liminf'))\n"
        "spec = outcomes.parse_spec('payoff(1) >= 2')\n"
        "call = lambda: outcomes.model_check_admissible(g, spec)\n",
        "counterexample satisfies the spec",
    ),
}


@pytest.mark.parametrize("check", sorted(_BROKEN_UNDER_O))
def test_run_time_checks_raise_under_python_O(check):
    # `python -O` strips asserts, so a check that is a bare assert lets the
    # broken result through; each of these raises RuntimeError instead
    patch, message = _BROKEN_UNDER_O[check]
    code = (
        "from fractions import Fraction\n"
        "from pathlib import Path\n"
        "from admgames import cli, parse_game, solvers, values\n"
        f"path = {fx('fig1.game')!r}\n"
        "g = parse_game(Path(path).read_text())\n"
        + patch
        + "try:\n"
        "    call()\n"
        "except RuntimeError as err:\n"
        "    print('RuntimeError:', err)\n"
        "else:\n"
        "    print('no error')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=_src_env(), check=True,
    )
    assert out.stdout.startswith("RuntimeError:") and message in out.stdout, out.stdout
