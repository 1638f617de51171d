"""The benchmark's tracer must find every layer it times in the package."""

import importlib.util
from pathlib import Path

import pinchlab.cli  # noqa: F401  (the tracer wraps names in loaded modules)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.untraced == []
    finally:
        tracer.uninstall()
