"""Every function the benchmark's tracer wraps still exists in polybox.

perfbench/tracing.py names polybox functions and methods by string, so a
rename in src/ would otherwise surface only when a traced benchmark run
starts.  The tracer module is loaded read-only from its file; nothing is
installed or wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolves(modname: str, dotted: str) -> bool:
    owner = importlib.import_module(f"polybox.{modname}")
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    # the tracer replaces a method through the defining class's own dict
    if isinstance(owner, type):
        return attr in vars(owner)
    return callable(getattr(owner, attr, None))


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{dotted}" for mod, names in tracing.TRACED.items()
               for dotted in names if not _resolves(mod, dotted)]
    assert not missing
