"""The tooling around the package still fits it."""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_trace_boundaries_resolve():
    """Every function the per-layer tracer wraps still exists, so a traced
    benchmark run does not break when one is renamed or deleted."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    layertrace.check_boundaries()
