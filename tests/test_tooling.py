"""The tooling around the package still fits it."""

import contextlib
import hashlib
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
import traceback
import types
from pathlib import Path

import pytest

import contactpairs
from contactpairs import algebra, cli, connection
from contactpairs.fixtures import bundled_fixture_path

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
BENCH = ROOT / "scripts" / "bench.py"


def test_trace_boundaries_resolve():
    """Every function the per-layer tracer wraps still exists, so a traced
    benchmark run does not break when one is renamed or deleted."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    layertrace.check_boundaries()


def _bench(monkeypatch):
    """``scripts/bench.py`` as a module; the ``sys.path`` entries it prepends
    are dropped after the test."""
    spec = importlib.util.spec_from_file_location("bench_under_test", BENCH)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    monkeypatch.setattr(sys, "path", [*sys.path])
    spec.loader.exec_module(bench)
    return bench


@contextlib.contextmanager
def _fresh_package():
    """Inside the block ``contactpairs`` and the tracer import afresh, so the
    tracer a measurement installs wraps a copy of the package that the block
    drops; this test module's copy is back afterwards."""

    def ours(name):
        return name.split(".")[0] in ("contactpairs", "layertrace")

    saved = {name: module for name, module in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        yield
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_bench_measures_the_smallest_case_of_each_family(tmp_path, monkeypatch):
    """``scripts/bench.py`` measures the smallest case of each family twice,
    in-process on this tree.  The traced call's split has every layer of
    perfbench's tracer, with the exact solve among them and, on the dense
    case, one kernel basis per d alpha_i; its counts repeat between the
    measurements, and tracing leaves the report's digest as it was.  No
    family's case reduces a fraction, so ``reeb`` on ``twisted``, whose Reeb
    field Z1 has the entry −y/x, shows that the gcd is traced."""
    bench = _bench(monkeypatch)
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    layers = {f"{layer}_{what}" for layer in layertrace.SPANS for what in ("s", "calls")}
    cases = bench.build_cases(tmp_path)
    for family in bench.FAMILIES:
        smallest = min((c for c in cases if c["family"] == family), key=lambda c: c["dim"])
        runs = []
        for _ in range(2):
            with _fresh_package():
                runs.append(bench.measure(ROOT, {**smallest, "calls": 1}))
        first, again = runs
        assert isinstance(first["seconds"], float) and first["seconds"] > 0, family
        assert layers <= first["layers"].keys(), family
        assert first["layers"]["algebra.solve_calls"] > 0, family
        if family == "dense":
            assert first["layers"]["algebra.kernel_basis_calls"] == 2
        assert bench._counts(first) == bench._counts(again), family
        assert {"algebra.ratfun_new", "cli.verdicts_reported"} <= bench._counts(first).keys()
        assert first["traced_result"] == first["result"] == again["result"], family
    twisted = {"verb": "reeb", "path": str(ROOT / "tests" / "fixtures" / "twisted.json")}
    with _fresh_package():
        assert bench.measure(ROOT, {**twisted, "calls": 1})["layers"]["algebra.gcd_calls"] > 0


def test_bench_names_a_failed_child(tmp_path, monkeypatch):
    """A child that fails stops ``scripts/bench.py`` with the case, the tree
    and the end of the child's stderr, here the loader's error."""
    bench = _bench(monkeypatch)
    case = {**bench.build_cases(tmp_path)[0], "path": str(tmp_path / "missing.json")}
    with pytest.raises(SystemExit) as stopped:
        bench._measure_in_child("change", ROOT, case)
    message = str(stopped.value)
    assert f"{case['id']} (change)" in message
    assert "FixtureError" in message


def test_geodesy_inverts_no_metric(tmp_path, monkeypatch):
    """``theorems`` and ``polarize`` invert no matrix: no ``RfMatrix.inverse``
    call is made in a whole ``theorems`` run on chart rung (2,2) (its built
    and polarized metrics, their geodesy and RK4) and on Lie rung (3,3) (its
    identity metric), nor in ``polarize`` on ``local_model_1_1``."""
    spec = importlib.util.spec_from_file_location("workloads_under_test", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    inverse = algebra.RfMatrix.inverse
    callers = []

    def counted(self):
        callers.append([frame.name for frame in traceback.extract_stack()])
        return inverse(self)

    monkeypatch.setattr(algebra.RfMatrix, "inverse", counted)
    runs = []
    for make, h, k, key in (
        (workloads.chart_model, 2, 2, "built_geodesic"),
        (workloads.heisenberg_product, 3, 3, "geodesic"),
    ):
        doc = make(h, k, random.Random(1))
        path = tmp_path / f"{doc['id']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        runs.append(("theorems", path, key))
    runs.append(("polarize", bundled_fixture_path("local_model_1_1"), "polarized_spd"))
    for verb, path, key in runs:
        report = cli.run(verb, path)
        assert report.verdicts[key].ok, (verb, path.name)
    assert callers == []


def test_rk4_of_a_constant_field_runs_no_float_program_per_point(tmp_path, monkeypatch):
    """On chart rung (2,2) the Reeb fields are constant and meet no pole and
    no Γ(Z, Z) term on the built metric, so each RK4 call of ``theorems``
    evaluates each field component once, at the start point, and runs no
    other float program: neither a step loop nor a residual pass point by
    point.  Only the stencil of the one coordinate that moves is formed."""
    spec = importlib.util.spec_from_file_location("workloads_under_test", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    counts = {}

    def counting(name, inner):
        def counted(*args):
            counts[name] += 1
            return inner(*args)

        return counted

    monkeypatch.setattr(connection._FloatRatFun, "at", counting("at", connection._FloatRatFun.at))
    monkeypatch.setattr(connection, "_run", counting("run", connection._run))
    isnan = counting("isnan", math.isnan)
    monkeypatch.setattr(connection, "math", types.SimpleNamespace(**{**vars(math), "isnan": isnan}))
    residual = cli.numeric_geodesic_residual
    calls = []

    def recorded(g, field, *args, **kwargs):
        counts.update(at=0, run=0, isnan=0)
        value = residual(g, field, *args, **kwargs)
        calls.append((field.space.dim, counts["at"], counts["run"], counts["isnan"]))
        return value

    monkeypatch.setattr(cli, "numeric_geodesic_residual", recorded)
    doc = workloads.chart_model(2, 2, random.Random(1))
    path = tmp_path / f"{doc['id']}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = cli.run("theorems", path)
    assert report.verdicts["built_geodesy_rk4"].ok
    # at runs the numerator and the denominator program of a component, and
    # the NaN scan reads the 997 stencil values of the one moving coordinate
    assert calls == [(10, 10, 20, 997)] * 2


def test_every_exported_name_resolves():
    """Every name in ``contactpairs.__all__`` and in the ``__all__`` of each
    of its modules is an attribute of that module, so no export outlives
    what it names (``from contactpairs import *`` would raise)."""
    modules = [contactpairs] + [
        importlib.import_module(f"contactpairs.{info.name}")
        for info in pkgutil.iter_modules(contactpairs.__path__)
    ]
    assert len(modules) > 2
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_cli_import_loads_no_numpy():
    """The package has no runtime dependency: importing the CLI, as the
    installed script does, loads no numpy."""
    env = {**os.environ, "PYTHONPATH": "src"}
    code = "import sys, contactpairs.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=ROOT, env=env
    )
    assert out.stdout == "False\n"


# perfbench/workloads._verb_mix reads these two fixtures from tests/fixtures,
# outside the directory the benchmark declares as its own.  An edit to either
# changes the verb-mix workload, so it must be a change to the benchmark.
VERB_MIX_FIXTURES = {
    "flat2_mcp.json": "7b9bc8efb2507beeb76c6d8f53a200c8e25b69290c27f4fbe5045fbeaab82da0",
    "twisted.json": "4db85e9cc9baa39d6c6a4d361ecb0a81dd9643842978c6e29712c0e1006ee7ff",
}


def test_verb_mix_fixtures_outside_the_benchmark_are_unchanged():
    for name, digest in VERB_MIX_FIXTURES.items():
        data = (ROOT / "tests" / "fixtures" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_optional_test_imports_are_declared_test_extras():
    """Every module a test imports through ``pytest.importorskip`` is in the
    ``test`` extras, so an install from them runs the oracles instead of
    skipping them without a word."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extras = re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)
    declared = {name.lower() for name in re.findall(r"\"([A-Za-z0-9_.-]+)", extras)}
    skipped = {
        name.lower()
        for path in (ROOT / "tests").glob("*.py")
        for name in re.findall(r"importorskip\(\"([^\"]+)\"\)", path.read_text(encoding="utf-8"))
    }
    assert skipped and skipped <= declared, skipped - declared
