"""Command-line interface: exit codes, reports, JSON schema, file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from admgames import check_strategy_admissible, parse_automaton, parse_strategy
from admgames.cli import run

from helpers import FIXTURES, load_game


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


def test_oracle_without_networkx_exit_2(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "networkx", None)  # import raises ImportError
    assert run(["oracle", fx("fig3.game")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "networkx" in err and err.count("\n") == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        run(["values"])  # missing game argument
    assert e.value.code == 2


def test_cli_import_leaves_networkx_unloaded():
    # networkx serves only the brute-force oracle's lasso enumeration
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, admgames.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
