"""The benchmark traces localgd functions by name; each one must still exist.

A refactor that removes or renames a traced function would otherwise leave
its per-layer metrics reading 0 instead of failing.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    from localgd import cli  # noqa: F401  (with it, every module the tracer looks in)

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        assert t.install() == []
    finally:
        t.uninstall()
