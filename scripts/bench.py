#!/usr/bin/env python3
"""Parent checkout vs this one: ``cli.run`` against the dimension, split by layer.

    python3 scripts/bench.py --parent ../parent --out BENCH_layers.json
    python3 scripts/bench.py --parent ../parent --out BENCH_layers.json \\
        --pairs 10 --first-seed 601

Run it from the root of this checkout; ``--parent`` is a checkout of the
commit to compare with.  The cases are three families: ``theorems`` on the
chart standard local model of type (h, h), h = 1 … 6 (dims 6 … 26), and on
the Heisenberg product h_{2h+1} × h_{2h+1} with the identity metric,
h = 1, 3, 5, 7, 9 (dims 6 … 38), and ``reeb`` on :func:`dense_model` of
type (h, h), h = 1 … 6, whose ``theorems`` does not finish (its polarization
stalls in gcds).

The script measures in ``REPEATS`` rounds.  In each round every case runs
in one interpreter per tree, the parent's first in even rounds and this
tree's first in odd ones, so drift of a shared machine falls on both trees
alike.  The interpreter imports ``contactpairs`` from its tree's ``src/``
and calls ``cli.run`` ``CALLS`` times, untraced, keeping the median wall
time of a call (fixture load included) and, for the same call, the
``check.<name>_s`` split of its report.  Then it installs its tree's
``perfbench/layertrace`` and makes one more call, whose ``summary()`` is the
layer split: the self seconds and the call count of every layer the
benchmark declares, and the ``RatFun`` and ``Poly.const`` construction
counts.  Tracing adds to every boundary call (``trace.overhead_ratio`` reads
about 1.3 on ``verb-mix``), so the traced call comes last and no timed call
pays for it.  A call's result is the exit code and the digest of the report
without timings, and the traced call must give the untraced one's.

A run that takes longer than ``CAP_S`` is stopped and recorded as null, and
that tree runs no larger case of the family afterwards.  A case whose result
or counts (every entry of the layer split but its seconds) differ between
rounds stops the script, so every count in the record repeats.  A child that
fails stops it too, with the end of the child's stderr.  The record keeps
each tree's seconds of every round, their median and their minimum (the
least disturbed round), and the medians of the check and layer splits.  The
log-log slope of the median time against the dimension is fitted by least
squares, for each tree over the dims from ``SLOPE_FROM_DIM`` up that it
finished.

With ``--pairs N`` the script then runs ``perfbench/run.py --trace 0`` N
times per workload in each tree, in alternating order, on seeds
``--first-seed`` onwards, and records every run's end-to-end metrics with
their medians and quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
REPEATS = 3  # rounds, the trees alternating within each
CALLS = 3  # untraced cli.run calls per case and interpreter
CAP_S = 300.0  # seconds after which a child is stopped
SLOPE_FROM_DIM = 14
FAMILIES = ("chart", "lie", "dense")
STDERR_LINES = 20  # of a failed child, in the message that stops the script
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import bench; bench._child(*sys.argv[2:])"
WHAT = (
    "seconds per in-process cli.run call (theorems; reeb on the dense family), fixture load "
    "included (median and minimum over rounds, every round kept, trees alternating within "
    "each round), parent vs change, with the check.<name>_s split and the layer split of one "
    "more, traced call; null: stopped at the cap"
)


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def _written(workdir: Path, family: str, doc: dict, **extra) -> dict:
    """The case of the fixture ``doc``, written to ``workdir``."""
    path = workdir / f"{doc['id']}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return {"family": family, "id": doc["id"], "dim": doc["dimension"], "path": str(path), **extra}


# --- the dense family: the chart model in linearly changed coordinates ---------------


def unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """U = L·R with L, R unit lower/upper triangular, entries in {−1, 0, 1}."""
    low = [[1 if i == j else rng.choice((-1, 0, 1)) if i > j else 0 for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else rng.choice((-1, 0, 1)) if i < j else 0 for j in range(n)]
          for i in range(n)]
    return [[sum(low[i][m] * up[m][j] for m in range(n)) for j in range(n)] for i in range(n)]


def _solve(u: list[list[int]], x: list[Fraction]) -> list[Fraction]:
    """w with U·w = x, by Gauss–Jordan elimination in Fractions."""
    n = len(u)
    rows = [[Fraction(v) for v in row] + [x[i]] for i, row in enumerate(u)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return [row[n] for row in rows]


def pull_back(doc: dict, u: list[list[int]]) -> dict:
    """The pair of a chart fixture in the coordinates w with x = U·w: every
    alpha_i pulled back, every sample point mapped to U⁻¹x, the other tensors
    dropped.  The coordinates keep their names."""
    names = doc["coordinates"]
    image = {
        name: "(" + " + ".join(f"({u[a][b]})*{names[b]}" for b in range(len(names)) if u[a][b])
        + ")"
        for a, name in enumerate(names)
    }

    def substitute(expr: str) -> str:
        return re.sub(r"[A-Za-z_]\w*", lambda m: image.get(m.group(), m.group()), expr)

    def alpha(form: dict) -> dict:
        out = {}
        for b, name in enumerate(names):
            terms = [f"({u[names.index(c)][b]})*({substitute(e)})"
                     for c, e in form.items() if u[names.index(c)][b]]
            if terms:
                out[name] = " + ".join(terms)
        return out

    points = [
        [str(w) for w in _solve(u, [Fraction(x) for x in point])]
        for point in doc["sample_points"]
    ]
    keep = ("backend", "dimension", "coordinates", "type")
    return {
        "id": f"{doc['id']}_dense",
        **{key: doc[key] for key in keep},
        "alpha1": alpha(doc["alpha1"]),
        "alpha2": alpha(doc["alpha2"]),
        "sample_points": points,
    }


def dense_model(h: int, k: int) -> dict:
    """The chart model of type (h, k) (seed 1), pulled back by x = U·w with
    ``unimodular`` U (seed 1 + dim), so det U = 1.  It is the same pair in
    other coordinates, but d alpha_i is dense."""
    doc = _workloads().chart_model(h, k, random.Random(1))
    return pull_back(doc, unimodular(doc["dimension"], random.Random(1 + doc["dimension"])))


# --- the cases and their measurement -----------------------------------------------


def build_cases(workdir: Path) -> list[dict]:
    """Every case of the three families, its fixture written to ``workdir``."""
    workloads = _workloads()
    out = []
    for family, make, verb, types in (
        ("chart", workloads.chart_model, "theorems", [(h, h) for h in range(1, 7)]),
        ("lie", workloads.heisenberg_product, "theorems", [(h, h) for h in (1, 3, 5, 7, 9)]),
        ("dense", lambda h, k, rng: dense_model(h, k), "reeb", [(h, h) for h in range(1, 7)]),
    ):
        out += [
            _written(workdir, family, make(h, k, random.Random(1)), verb=verb, calls=CALLS)
            for h, k in types
        ]
    return out


def measure(tree: Path, case: dict) -> dict:
    """The case's untraced cli.run calls with the package of ``tree``: the
    median call's wall seconds and check split, and its result; then one call
    traced by the tree's perfbench tracer: its layer split and result.  The
    tracer stays installed, so nothing is measured after it."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import layertrace
    from contactpairs.cli import run
    from contactpairs.report import render_report

    def result(report) -> str:
        text = render_report(report, include_timings=False)
        return f"exit {report.exit_code()} sha256 {hashlib.sha256(text.encode()).hexdigest()}"

    runs = []
    for _ in range(case["calls"]):
        started = time.perf_counter()
        report = run(case["verb"], case["path"])
        seconds = time.perf_counter() - started
        checks = {
            name[len("check."):-len("_s")]: round(value, 6)
            for name, value in report.timings.items()
            if name.startswith("check.")
        }
        runs.append((seconds, checks, report))
    seconds, checks, report = sorted(runs, key=lambda r: r[0])[len(runs) // 2]
    tracer = layertrace.install()
    traced = run(case["verb"], case["path"])
    layers = {
        name: round(value, 6) if name.endswith("_s") else value
        for name, value in tracer.summary().items()
    }
    return {"seconds": seconds, "checks": checks, "result": result(report),
            "layers": layers, "traced_result": result(traced)}


def _counts(run: dict) -> dict:
    """Every entry of a run's layer split but its seconds."""
    return {name: value for name, value in run["layers"].items() if not name.endswith("_s")}


# --- the harness ---------------------------------------------------------------------


def _child(tree: str, case: str) -> None:
    """The body of a child interpreter: one measurement, printed as JSON."""
    print(json.dumps(measure(Path(tree), json.loads(case))))


def _output(command: list[str], what: str, **kwargs) -> str | None:
    """The stdout of ``command``; None if it outlived its ``timeout``.  A
    command that fails stops the script with ``what`` and its stderr's end."""
    try:
        done = subprocess.run(command, capture_output=True, text=True, **kwargs)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-STDERR_LINES:])
        raise SystemExit(f"{what}: exit status {done.returncode}\n{tail}")
    return done.stdout


def _measure_in_child(side: str, tree: Path, case: dict) -> dict | None:
    command = [sys.executable, "-c", CHILD, str(ROOT / "scripts"), str(tree), json.dumps(case)]
    out = _output(command, f"{case['id']} ({side})", timeout=CAP_S)
    return None if out is None else json.loads(out.splitlines()[-1])


def _in_turn(k: int, trees: list[tuple[str, Path]]) -> list[tuple[str, Path]]:
    """The trees in the order of round ``k``: the parent first in even rounds."""
    return trees if k % 2 == 0 else trees[::-1]


def _check_repeats(case: dict, side: str, run: dict, seen: list[dict]) -> None:
    """Stop the script unless the traced call gave the untraced result and
    the run's result and counts are those of the tree's first round."""
    if run["traced_result"] != run["result"]:
        raise SystemExit(f"{case['id']} ({side}): the traced call gave another result")
    if not seen:
        return
    before = {"result": seen[0]["result"], **_counts(seen[0])}
    now = {"result": run["result"], **_counts(run)}
    differ = sorted(name for name in before | now if before.get(name) != now.get(name))
    if differ:
        raise SystemExit(f"{case['id']} ({side}): {', '.join(differ)} differ across rounds")


def _rounds(cases: list[dict], trees: list[tuple[str, Path]]) -> dict:
    """Every (case, tree)'s runs, round by round; None: stopped at the cap."""
    runs: dict[tuple[str, str], list] = {}
    capped: dict[tuple[str, str], int] = {}  # (family, side): the dim of the first stopped run
    for k in range(REPEATS):
        for case in cases:
            for side, tree in _in_turn(k, trees):
                seen = runs.setdefault((case["id"], side), [])
                if case["dim"] >= capped.get((case["family"], side), math.inf):
                    continue
                run = _measure_in_child(side, tree, case)
                if run is None:
                    capped[(case["family"], side)] = case["dim"]
                else:
                    _check_repeats(case, side, run, seen)
                seen.append(run)
                print(json.dumps({"case": case["id"], "side": side, "round": k,
                                  "seconds": run and run["seconds"]}),
                      file=sys.stderr, flush=True)
    return runs


def _medians(done: list[dict], key: str) -> dict:
    names = dict.fromkeys(name for r in done for name in r[key])
    return {
        name: round(statistics.median(r[key].get(name, 0.0) for r in done), 6) for name in names
    }


def _row(case: dict, runs: dict) -> dict:
    """A case's row: each tree's seconds of every round (null: stopped at the
    cap) and, unless a round was stopped, their median and minimum and the
    medians of the check and layer splits; the result, and whether both
    trees agree on it and on the counts."""
    row = {"case": case["id"], "dim": case["dim"]}
    results, counts = {}, {}
    for side in SIDES:
        all_runs = runs[(case["id"], side)]
        done = [run for run in all_runs if run is not None]
        complete = bool(done) and len(done) == len(all_runs)
        row[f"{side}_rounds_s"] = [run and round(run["seconds"], 6) for run in all_runs]
        row[f"{side}_s"] = (
            round(statistics.median(r["seconds"] for r in done), 6) if complete else None
        )
        row[f"{side}_min_s"] = round(min(r["seconds"] for r in done), 6) if complete else None
        row[f"{side}_checks"] = _medians(done, "checks") if complete else None
        row[f"{side}_layers"] = _medians(done, "layers") if complete else None
        results[side] = done[0]["result"] if done else None
        counts[side] = _counts(done[0]) if done else None
    row["result"] = results["change"]
    row["same_result"] = (
        None if None in results.values() else results["parent"] == results["change"]
    )
    row["same_counts"] = None if None in counts.values() else counts["parent"] == counts["change"]
    return row


def _slope(points: list[tuple[int, float]], from_dim: int) -> float | None:
    """The least-squares slope of log seconds against log dim, over the
    points from ``from_dim`` up that have a time."""
    points = [(d, s) for d, s in points if d >= from_dim and s is not None]
    if len(points) < 2:
        return None
    xs = [math.log(d) for d, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _family(cases: list[dict], runs: dict, family: str) -> dict:
    """The family's rows and, for each tree, the slope of its median times."""
    rows = [_row(case, runs) for case in cases if case["family"] == family]
    block = {"cases": rows}
    for side in SIDES:
        slope = _slope([(r["dim"], r[f"{side}_s"]) for r in rows], SLOPE_FROM_DIM)
        block[f"slope_{side}"] = slope and round(slope, 2)
    return block


def _machine() -> str:
    cpu = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{cpu}, {os.cpu_count()} cpus, Python {platform.python_version()}"


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _bench_run(side: str, tree: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "30", "--trace", "0"]
    out = _output(command, f"{workload} seed {seed} ({side})", cwd=tree)
    result = json.loads(out.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {**metrics, "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"]}


def _pairs(trees: list[tuple[str, Path]], count: int, first_seed: int) -> dict:
    out = {}
    for workload in ("chart-ladder", "lie-ladder", "verb-mix"):
        runs = []
        for k in range(count):
            seed = first_seed + k
            pair = {
                side: _bench_run(side, tree, workload, seed) for side, tree in _in_turn(k, trees)
            }
            runs.append({"seed": seed, **{side: pair[side] for side in SIDES}})
            print(json.dumps({"workload": workload, **runs[-1]}), file=sys.stderr, flush=True)
        summary = {}
        for metric in runs[0]["parent"]:
            if isinstance(runs[0]["parent"][metric], float):
                parent_values = [run["parent"][metric] for run in runs]
                change_values = [run["change"][metric] for run in runs]
                summary[metric] = {
                    "parent": _spread(parent_values),
                    "change": _spread(change_values),
                    "change_wins": sum(c < p for p, c in zip(parent_values, change_values)),
                }
        out[workload] = {"summary": summary, "runs": runs}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=601)
    args = parser.parse_args(argv)
    trees = [("parent", args.parent.resolve()), ("change", ROOT)]
    with tempfile.TemporaryDirectory() as tmp:
        cases = build_cases(Path(tmp))
        runs = _rounds(cases, trees)
    record = {"what": WHAT, "machine": _machine(), "repeats": REPEATS, "calls": CALLS,
              "cap_s": CAP_S, "slope_from_dim": SLOPE_FROM_DIM,
              **{family: _family(cases, runs, family) for family in FAMILIES}}
    if args.pairs:
        record["end_to_end_pairs"] = _pairs(trees, args.pairs, args.first_seed)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
