"""The tooling around the package still fits it."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


def test_trace_boundaries_resolve():
    """Every function the per-layer tracer wraps still exists, so a traced
    benchmark run does not break when one is renamed or deleted."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    layertrace.check_boundaries()


def test_cli_import_loads_no_numpy():
    """The package has no runtime dependency: importing the CLI, as the
    installed script does, loads no numpy."""
    env = {**os.environ, "PYTHONPATH": "src"}
    code = "import sys, contactpairs.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=ROOT, env=env
    )
    assert out.stdout == "False\n"
