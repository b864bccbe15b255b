#!/usr/bin/env python3
"""How ``theorems`` scales with the dimension, parent checkout vs this one.

    python3 scripts/bench_scaling.py --parent ../parent --out BENCH_scaling.json

Run it from the root of this checkout; ``--parent`` is a checkout of the
commit to compare with.

The rungs are the generators of ``perfbench/workloads.py`` (seed 1) beyond
the benchmark's ladders: the chart standard local model of type (h, h),
h = 1 … 6 (dims 6 … 26), and the Heisenberg product h_{2h+1} × h_{2h+1}
with the identity metric, h = 1, 3, 5, 7, 9 (dims 6 … 38).

The script measures in ``REPEATS`` rounds.  In each round every rung runs in
one interpreter per tree, the parent's first in even rounds and this tree's
first in odd ones, so drift of a shared machine falls on both trees alike.
The interpreter imports ``contactpairs`` from its tree's ``src/`` and calls
``cli.run("theorems", fixture)`` ``CALLS`` times, keeping the median wall
time of a call (fixture load included) and, for the same call, the
``check.<name>_s`` split of its report.  A run that takes longer than
``CAP_S`` seconds is stopped and recorded as null, and that tree runs no
larger rung of the family afterwards.  Each run's exit code and the digest
of its report without timings are recorded; a rung whose result differs
between rounds stops the script.  The log-log slope of the median time
against the dimension is fitted by least squares over the dims from
``SLOPE_FROM_DIM`` up, for each tree over the dims it finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pair_axioms import _machine, _slope

ROOT = Path(__file__).resolve().parents[1]
CHART_TYPES = tuple((h, h) for h in range(1, 7))  # dims 6, 10, …, 26
LIE_TYPES = tuple((h, h) for h in (1, 3, 5, 7, 9))  # dims 6, 14, …, 38
SLOPE_FROM_DIM = 14
REPEATS = 3  # rounds, the trees alternating within each
CALLS = 3  # theorems calls per rung and interpreter
CAP_S = 300.0  # seconds after which a run is stopped


def _cases() -> list[tuple[str, dict]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    cases = []
    for family, make, types in (
        ("chart", workloads.chart_model, CHART_TYPES),
        ("lie", workloads.heisenberg_product, LIE_TYPES),
    ):
        cases += [(family, make(h, k, random.Random(1))) for h, k in types]
    return cases


def measure(tree: Path, fixture: Path, calls: int) -> dict:
    """The median of ``calls`` theorems calls with the package of ``tree``:
    wall seconds, the check split of the median call, and the result."""
    sys.path.insert(0, str(tree / "src"))
    from contactpairs.cli import run
    from contactpairs.report import render_report

    runs = []
    for _ in range(calls):
        started = time.perf_counter()
        report = run("theorems", fixture)
        seconds = time.perf_counter() - started
        checks = {
            name[len("check."):-len("_s")]: round(value, 6)
            for name, value in report.timings.items()
            if name.startswith("check.")
        }
        runs.append((seconds, checks))
    seconds, checks = sorted(runs, key=lambda r: r[0])[len(runs) // 2]
    text = render_report(report, include_timings=False)
    result = f"exit {report.exit_code()} sha256 {hashlib.sha256(text.encode()).hexdigest()}"
    return {"seconds": seconds, "checks": checks, "result": result}


def _measure_in_child(tree: Path, fixture: Path) -> dict | None:
    command = [sys.executable, __file__, "--measure", str(tree), str(fixture), str(CALLS)]
    try:
        out = subprocess.run(
            command, check=True, capture_output=True, text=True, timeout=CAP_S
        ).stdout
    except subprocess.TimeoutExpired:
        return None
    return json.loads(out.splitlines()[-1])


def _median_checks(runs: list[dict]) -> dict[str, float]:
    names = dict.fromkeys(name for r in runs for name in r["checks"])
    return {
        name: round(statistics.median(r["checks"].get(name, 0.0) for r in runs), 6)
        for name in names
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--measure", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        tree, fixture, calls = args.measure
        print(json.dumps(measure(Path(tree), Path(fixture), int(calls))))
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")
    trees = [("parent", args.parent.resolve()), ("change", ROOT)]
    cases = _cases()
    runs: dict[tuple[str, str], list] = {}
    capped = {(family, side): math.inf for family in ("chart", "lie") for side, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for _, doc in cases:
            path = Path(tmp) / f"{doc['id']}.json"
            path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
            paths.append(path)
        for k in range(REPEATS):
            for (family, doc), path in zip(cases, paths):
                for side, tree in trees if k % 2 == 0 else trees[::-1]:
                    seen = runs.setdefault((doc["id"], side), [])
                    if doc["dimension"] >= capped[(family, side)]:
                        continue
                    run = _measure_in_child(tree, path)
                    if run is None:
                        capped[(family, side)] = doc["dimension"]
                    elif seen and seen[0] and run["result"] != seen[0]["result"]:
                        raise SystemExit(f"{doc['id']} ({side}): results differ across rounds")
                    seen.append(run)
                    print(json.dumps({"case": doc["id"], "side": side, "round": k,
                                      "seconds": run and run["seconds"]}),
                          file=sys.stderr, flush=True)
    record = {
        "what": "seconds per in-process theorems call, fixture load included (median over "
        "rounds, trees alternating within each round), parent vs change, with the "
        "check.<name>_s split; null: stopped at the cap",
        "machine": _machine(),
        "repeats": REPEATS,
        "calls": CALLS,
        "cap_s": CAP_S,
        "slope_from_dim": SLOPE_FROM_DIM,
    }
    for family in ("chart", "lie"):
        rows = []
        for case_family, doc in cases:
            if case_family != family:
                continue
            row = {"case": doc["id"], "dim": doc["dimension"]}
            for side, _ in trees:
                all_runs = runs[(doc["id"], side)]
                done = [r for r in all_runs if r is not None]
                complete = done and len(done) == len(all_runs)
                row[f"{side}_s"] = (
                    round(statistics.median(r["seconds"] for r in done), 6) if complete else None
                )
                row[f"{side}_checks"] = _median_checks(done) if complete else None
            results = {
                side: next((r["result"] for r in runs[(doc["id"], side)] if r), None)
                for side, _ in trees
            }
            row["result"] = results["change"]
            row["same_result"] = (
                None if None in results.values() else results["parent"] == results["change"]
            )
            rows.append(row)
        record[family] = {"cases": rows}
        for side, _ in trees:
            slope = _slope([(r["dim"], r[f"{side}_s"]) for r in rows], SLOPE_FROM_DIM)
            record[family][f"slope_{side}"] = slope and round(slope, 2)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
