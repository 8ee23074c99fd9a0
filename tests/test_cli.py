"""Command-line interface: exit codes, reports, JSON schema, file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from admgames import check_strategy_admissible, parse_automaton, parse_strategy
from admgames.cli import run

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
], ids=["move", "update", "strategy", "memory", "initmem"])
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


def test_cli_oracle_imports_only_stdlib():
    # compared with a snapshot: `site` may already have loaded third-party modules
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import admgames.cli\n"
        f"assert admgames.cli.run(['oracle', {fx('fig3.game')!r}]) == 0\n"
        "allowed = sys.stdlib_module_names | {'admgames'}\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] not in allowed))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.splitlines()[-1] == "[]"
