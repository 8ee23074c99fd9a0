"""The benchmark's span recorder names only functions the program has.

`perfbench/spans.py` rebinds each traced (module, function) by name; a name
the program no longer has breaks every traced benchmark run.  This test only
reads `perfbench/`.
"""

import importlib.util
from pathlib import Path

import admgames

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [
        f"{module}.{name}"
        for (module, name) in spans.TRACED
        if not callable(getattr(getattr(admgames, module, None), name, None))
    ]
    assert missing == []
