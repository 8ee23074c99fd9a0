"""The benchmark's span recorder names only functions the program has, and
each of its size counters reads what the program returns.

`perfbench/spans.py` rebinds each traced (module, function) by name; a name
the program no longer has breaks every traced benchmark run.  Its size
counters read fields of the traced functions' results and arguments, such
as a product's `states`, so a renamed field breaks them too.  This test
only reads `perfbench/`.
"""

import ast
import importlib.util
import inspect
import io
from contextlib import redirect_stdout
from pathlib import Path

import admgames
from admgames import solvers
from admgames.cli import run

from helpers import FIXTURES

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_resolves():
    spans = _spans()
    assert spans.TRACED
    missing = [
        f"{module}.{name}"
        for (module, name) in spans.TRACED
        if not callable(getattr(getattr(admgames, module, None), name, None))
    ]
    assert missing == []


def test_every_size_counter_counts(tmp_path):
    spans = _spans()
    game = str(FIXTURES / "fig1_liminf.game")
    commands = [
        ["values", game],
        ["sco", game, "--player", "1", "-o", str(tmp_path / "sco.strat")],
        ["check", game, str(FIXTURES / "fig1_p2_stay.strat")],
        ["wco", game, "--player", "2"],
        ["mc", game, "--spec", str(FIXTURES / "geq3.spec")],
        ["synth", game, "--player", "1", "--spec", str(FIXTURES / "geq2.spec")],
    ]
    recorder = spans.Recorder()
    recorder.install()
    try:
        with redirect_stdout(io.StringIO()):
            codes = [run(argv) for argv in commands]
    finally:
        recorder.uninstall()
    assert codes == [0, 0, 0, 0, 1, 0]
    metrics = recorder.metrics()
    assert {k: metrics[k] for k in spans.SIZE_COUNTS if metrics[k] <= 0} == {}


def test_every_exported_solver_function_is_used():
    # a function in `solvers.__all__` is there for another module of the
    # package, which imports it, or for the span recorder, which traces it
    # by name; an export that neither uses is dead API
    imported = set()
    for path in Path(admgames.__file__).parent.glob("*.py"):
        if path.name == "solvers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "solvers":
                imported.update(alias.name for alias in node.names)
    traced = {name for module, name in _spans().TRACED if module == "solvers"}
    dead = [
        name for name in solvers.__all__
        if inspect.isfunction(getattr(solvers, name)) and name not in imported | traced
    ]
    assert dead == []
