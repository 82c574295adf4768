"""Every name the benchmark tracer wraps is still bound in ``ekl``.

``perfbench/tracer.py`` patches module attributes by name and reports a
missing one as ``trace.missing_names`` rather than failing, so a refactor
that drops an import (say ``ekl.gw.factorize``) would silently lose a
per-layer metric.  The name lists are read from that file, not copied.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = load_tracer()
    pairs = [(module, attr) for module, attr, _ in tracer.STAGES + tracer.HELPERS]
    assert ("ekl.gw", "hilbert_symbol") in pairs and ("ekl.cli", "render_class") in pairs
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
