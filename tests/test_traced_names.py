"""Every function the benchmark's tracer wraps still exists.

`perfbench/tracing.py` rebinds each name in its `TRACED` table with
`getattr(shadiv.<module>, name)`, so a renamed or deleted function breaks
traced benchmark runs.  This test loads the table from that file.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, names in tracing.TRACED.items():
        home = importlib.import_module(f"shadiv.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"shadiv.{module}.{name}"
