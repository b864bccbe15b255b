#!/usr/bin/env python3
"""Parent checkout vs this one, on one job: per-call costs, the pair axioms, or scaling.

    python3 scripts/bench.py calls --parent ../parent --out BENCH_christoffel.json
    python3 scripts/bench.py calls --parent ../parent --out BENCH_christoffel.json \\
        --pairs 10 --first-seed 601
    python3 scripts/bench.py pair-axioms --parent ../parent --out BENCH_pair_axioms.json
    python3 scripts/bench.py scaling --parent ../parent --out BENCH_scaling.json

Run it from the root of this checkout; ``--parent`` is a checkout of the
commit to compare with.  Every job measures in ``REPEATS`` rounds.  In each
round every case of the job runs in one interpreter per tree, the parent's
first in even rounds and this tree's first in odd ones, so drift of a shared
machine falls on both trees alike.  The interpreter imports ``contactpairs``
from its tree's ``src/`` and runs the job's ``measure`` on the case.  A run
that takes longer than the job's cap is stopped and recorded as null, and
that tree runs no larger case of the family afterwards.  What each run
returned is recorded with its time, and a case whose result differs between
rounds stops the script.  The log-log slope of the median time against the
dimension is fitted by least squares, for each tree over the dims it
finished.  The jobs:

``calls``
    Times every ``numeric_geodesic_residual`` and ``christoffel`` call made
    by ``cli.run`` on ``theorems`` on the
    chart-ladder rungs (1,1), (2,1), (2,2) and on the lie-ladder rung (3,3)
    (fixtures from ``perfbench/workloads.py``, seed 1), and on the
    ``geodesy`` and ``build-compatible`` items of ``verb-mix``, and keeps
    each call's minimum over the rounds, which drift of a shared machine
    only raises.  A call's result is the residual's ``repr`` for RK4, and
    for ``christoffel`` the count and a digest of its
    nonzero symbols (``ChristoffelData.nonzero()``).  Those are the symbols
    of the first kind, g(∇_a e_b, e_k), computed with no inverse; a tree
    whose ``christoffel`` still returns the second kind, Γ^c_ab by g⁻¹, gives
    another result there by design.
``pair-axioms``
    Times ``verify_contact_pair`` on a loaded pair (``PAIR_CALLS`` times on a
    freshly loaded pair each, the median kept; a dense case is called once
    per interpreter) and records its verdicts.  The dense family is
    :func:`dense_model` of type (h, h), h = 1 … 6 (dims 6 … 26); the ladder
    rungs are the chart-ladder and lie-ladder fixtures of
    ``perfbench/workloads.py`` (seed 1).  Slope over the dense dims from 10 up.
``scaling``
    Calls ``cli.run`` ``SCALING_CALLS`` times per interpreter, keeping the median
    wall time of a call (fixture load included) and, for the same call, the
    ``check.<name>_s`` split of its report; the result is the exit code and
    the digest of the report without timings.  The families are
    ``theorems`` on the chart standard local model of type (h, h),
    h = 1 … 6 (dims 6 … 26), and on the Heisenberg product
    h_{2h+1} × h_{2h+1} with the identity metric, h = 1, 3, 5, 7, 9
    (dims 6 … 38), and ``reeb`` on :func:`dense_model` of type (h, h),
    h = 1 … 6, whose ``theorems`` does not finish (its polarization stalls
    in gcds).  Slope over the dims from 14 up.

With ``--pairs N`` the script then runs ``perfbench/run.py --trace 0`` N
times per workload in each tree, in alternating order, on seeds
``--first-seed`` onwards, and records every run's end-to-end metrics with
their medians and quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
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
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
REPEATS = 3  # rounds, the trees alternating within each
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import bench; bench._child(*sys.argv[2:])"


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


# --- calls: per-call cost of RK4 and the Christoffel symbols --------------------------

TIMED = ("rk4", "christoffel")
RK4_VERBS = ("geodesy", "build-compatible")
CALLS_CAP_S = 300.0
LADDER_ITEMS = (
    ("chart-ladder", ("chart_model_1_1", "chart_model_2_1", "chart_model_2_2")),
    ("lie-ladder", ("heisenberg_3_3",)),
)


def _calls_cases(workdir: Path) -> list[dict]:
    workloads = _workloads()
    items = []
    for workload, ids in LADDER_ITEMS:
        ladder = workloads.build_items(workload, random.Random(1), ROOT, workdir)
        items += [(workload, item) for item in ladder if item.fixture_id in ids]
    mix = workloads.build_items("verb-mix", random.Random(1), ROOT, workdir)
    items += [("verb-mix", item) for item in mix if item.verb in RK4_VERBS]
    return [
        {"family": workload, "id": item.name, "path": str(item.path), "verb": item.verb,
         "dim": json.loads(item.path.read_text(encoding="utf-8"))["dimension"]}
        for workload, item in items
    ]


def _digest(entries) -> str:
    return hashlib.sha256(repr([str(e) for e in entries]).encode()).hexdigest()[:16]


def measure_calls(tree: Path, case: dict) -> list[dict]:
    """Time every timed call ``cli.run`` makes on the case, once, with the
    package of ``tree``; the package is left unpatched afterwards."""
    sys.path.insert(0, str(tree / "src"))
    from contactpairs import cli, connection

    made: list[tuple[str, float, str]] = []

    def timed(kind, inner, result_of):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = inner(*args, **kwargs)
            made.append((kind, time.perf_counter() - started, result_of(result)))
            return result

        return wrapper

    patches = (
        (cli, "numeric_geodesic_residual", "rk4", repr),
        (connection, "christoffel", "christoffel",
         lambda d: f"dim {d.space.dim} nonzero {len(d.nonzero())} "
                   f"{_digest(e for _, _, _, e in d.nonzero())}"),
    )
    originals = [getattr(owner, name) for owner, name, _, _ in patches]
    for (owner, name, kind, result_of), inner in zip(patches, originals):
        setattr(owner, name, timed(kind, inner, result_of))
    try:
        cli.run(case["verb"], case["path"])
    finally:
        for (owner, name, _, _), inner in zip(patches, originals):
            setattr(owner, name, inner)
    rows = []
    for kind, seconds, result in made:
        number = sum(row["kind"] == kind for row in rows) + 1
        rows.append({"kind": kind, "item": f"{case['id']}#{number}", "seconds": seconds,
                     "result": result})
    return rows


def _calls_record(cases: list[dict], runs: dict) -> dict:
    """Each call's minimum time over the rounds, by function, in case order.
    The k-th call of a function on a case is paired with the other tree's
    k-th; a call only one tree makes has null for the other's time."""
    record = {kind: {"calls": []} for kind in TIMED}
    for case in cases:
        fastest = {}
        for side in SIDES:
            done = [run for run in runs[(case["id"], side)] if run is not None]
            if not done or len(done) != len(runs[(case["id"], side)]):
                raise SystemExit(f"{case['id']} ({side}): stopped at the cap")
            fastest[side] = [
                {**calls[0], "seconds": min(c["seconds"] for c in calls)}
                for calls in zip(*done, strict=True)
            ]
        for kind in TIMED:
            before, after = ([c for c in fastest[side] if c["kind"] == kind] for side in SIDES)
            record[kind]["calls"] += [
                {
                    "item": (b or a)["item"],
                    "parent_s": b and round(b["seconds"], 6),
                    "change_s": a and round(a["seconds"], 6),
                    "speedup": round(b["seconds"] / a["seconds"], 2) if a and b else None,
                    "result": a and a["result"],
                    "same_result": a["result"] == b["result"] if a and b else None,
                }
                for b, a in itertools.zip_longest(before, after)
            ]
    for block in record.values():
        for side in SIDES:
            block[f"total_{side}_s"] = round(sum(c[f"{side}_s"] or 0.0 for c in block["calls"]), 3)
    return record


# --- pair-axioms: verify_contact_pair on dense 2-forms and on the ladder rungs -------

PAIR_CALLS = 5  # verify_contact_pair calls per ladder case and interpreter
PAIR_CAP_S = 120.0
PAIR_SLOPE_FROM_DIM = 10


def _pair_axioms_cases(workdir: Path) -> list[dict]:
    workloads = _workloads()
    cases = [_written(workdir, "dense", dense_model(h, h), calls=1) for h in range(1, 7)]
    for family, make, rungs in (
        ("chart-ladder", workloads.chart_model, workloads.CHART_RUNGS),
        ("lie-ladder", workloads.heisenberg_product, workloads.LIE_RUNGS),
    ):
        rng = random.Random(1)
        cases += [_written(workdir, family, make(h, k, rng), calls=PAIR_CALLS) for h, k in rungs]
    return cases


def measure_pair_axioms(tree: Path, case: dict) -> list[dict]:
    """Median seconds of the case's verify_contact_pair calls, each on a
    freshly loaded pair, with the package of ``tree``, and the verdicts."""
    sys.path.insert(0, str(tree / "src"))
    from contactpairs.fixtures import load_fixture
    from contactpairs.pair import verify_contact_pair

    seconds = []
    for _ in range(case["calls"]):
        pair = load_fixture(case["path"]).pair
        started = time.perf_counter()
        verdicts = verify_contact_pair(pair)
        seconds.append(time.perf_counter() - started)
    result = {
        name: f"{v.status.value}: {v.witness or v.detail}" for name, v in sorted(verdicts.items())
    }
    return [{"seconds": statistics.median(seconds), "result": result}]


def _pair_axioms_record(cases: list[dict], runs: dict) -> dict:
    record = {"calls": PAIR_CALLS, "cap_s": PAIR_CAP_S, "slope_from_dim": PAIR_SLOPE_FROM_DIM}
    for family in ("dense", "chart-ladder", "lie-ladder"):
        record[family] = _family(
            cases, runs, family, lambda side, done, complete: {f"{side}_runs": len(done)}
        )
    _add_slopes(record["dense"], PAIR_SLOPE_FROM_DIM)
    return record


# --- scaling: theorems (reeb on the dense family) against the dimension -------------

SCALING_CALLS = 3  # cli.run calls per case and interpreter
SCALING_CAP_S = 300.0
SCALING_SLOPE_FROM_DIM = 14
SCALING_FAMILIES = ("chart", "lie", "dense")


def _scaling_cases(workdir: Path) -> list[dict]:
    workloads = _workloads()
    cases = []
    for family, make, verb, types in (
        ("chart", workloads.chart_model, "theorems", [(h, h) for h in range(1, 7)]),
        ("lie", workloads.heisenberg_product, "theorems", [(h, h) for h in (1, 3, 5, 7, 9)]),
        ("dense", lambda h, k, rng: dense_model(h, k), "reeb", [(h, h) for h in range(1, 7)]),
    ):
        cases += [
            _written(workdir, family, make(h, k, random.Random(1)), verb=verb,
                     calls=SCALING_CALLS)
            for h, k in types
        ]
    return cases


def measure_scaling(tree: Path, case: dict) -> list[dict]:
    """The median of the case's cli.run calls with the package of ``tree``:
    wall seconds, the check split of the median call, and the result."""
    sys.path.insert(0, str(tree / "src"))
    from contactpairs.cli import run
    from contactpairs.report import render_report

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
        runs.append((seconds, checks))
    seconds, checks = sorted(runs, key=lambda r: r[0])[len(runs) // 2]
    text = render_report(report, include_timings=False)
    result = f"exit {report.exit_code()} sha256 {hashlib.sha256(text.encode()).hexdigest()}"
    return [{"seconds": seconds, "checks": checks, "result": result}]


def _median_checks(done: list[dict]) -> dict[str, float]:
    names = dict.fromkeys(name for r in done for name in r["checks"])
    return {
        name: round(statistics.median(r["checks"].get(name, 0.0) for r in done), 6)
        for name in names
    }


def _scaling_record(cases: list[dict], runs: dict) -> dict:
    record = {
        "calls": SCALING_CALLS, "cap_s": SCALING_CAP_S, "slope_from_dim": SCALING_SLOPE_FROM_DIM,
    }
    for family in SCALING_FAMILIES:
        record[family] = _family(
            cases, runs, family,
            lambda side, done, complete: {
                f"{side}_checks": _median_checks(done) if complete else None
            },
        )
        _add_slopes(record[family], SCALING_SLOPE_FROM_DIM)
    return record


# --- the harness ---------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    what: str
    cases: Callable[[Path], list[dict]]  # written to the given directory
    measure: Callable[[Path, dict], list[dict]]  # rows with "seconds" and "result"
    record: Callable[[list[dict], dict], dict]
    cap_s: float  # seconds after which a run is stopped


JOBS = {
    "calls": Job(
        "seconds per call (minimum over rounds, trees alternating within each round), "
        "parent vs change, by function",
        _calls_cases, measure_calls, _calls_record, CALLS_CAP_S,
    ),
    "pair-axioms": Job(
        "seconds per verify_contact_pair call on a loaded pair (median over rounds, "
        "trees alternating within each round), parent vs change; null: stopped at the cap",
        _pair_axioms_cases, measure_pair_axioms, _pair_axioms_record, PAIR_CAP_S,
    ),
    "scaling": Job(
        "seconds per in-process theorems call (reeb on the dense family), fixture load "
        "included (median over rounds, trees alternating within each round), parent vs "
        "change, with the check.<name>_s split; null: stopped at the cap",
        _scaling_cases, measure_scaling, _scaling_record, SCALING_CAP_S,
    ),
}


def _child(job: str, tree: str, case: str) -> None:
    """The body of a child interpreter: one measurement, printed as JSON."""
    print(json.dumps(JOBS[job].measure(Path(tree), json.loads(case))))


def _measure_in_child(job: str, tree: Path, case: dict) -> list[dict] | None:
    command = [sys.executable, "-c", CHILD, str(ROOT / "scripts"), job, str(tree),
               json.dumps(case)]
    try:
        out = subprocess.run(
            command, check=True, capture_output=True, text=True, timeout=JOBS[job].cap_s
        ).stdout
    except subprocess.TimeoutExpired:
        return None
    return json.loads(out.splitlines()[-1])


def _in_turn(k: int, trees: list[tuple[str, Path]]) -> list[tuple[str, Path]]:
    """The trees in the order of round ``k``: the parent first in even rounds."""
    return trees if k % 2 == 0 else trees[::-1]


def _rounds(job: str, cases: list[dict], trees: list[tuple[str, Path]]) -> dict:
    """Every (case, tree)'s runs, round by round; None: stopped at the cap."""
    runs: dict[tuple[str, str], list] = {}
    capped: dict[tuple[str, str], int] = {}  # (family, side): the dim of the first stopped run
    for k in range(REPEATS):
        for case in cases:
            for side, tree in _in_turn(k, trees):
                seen = runs.setdefault((case["id"], side), [])
                if case["dim"] >= capped.get((case["family"], side), math.inf):
                    continue
                run = _measure_in_child(job, tree, case)
                if run is None:
                    capped[(case["family"], side)] = case["dim"]
                elif seen and [r["result"] for r in run] != [r["result"] for r in seen[0]]:
                    raise SystemExit(f"{case['id']} ({side}): results differ across rounds")
                seen.append(run)
                print(json.dumps({"case": case["id"], "side": side, "round": k,
                                  "seconds": run and [r["seconds"] for r in run]}),
                      file=sys.stderr, flush=True)
    return runs


def _family(cases: list[dict], runs: dict, family: str, side_fields) -> dict:
    """The rows of a family whose cases measure one row each: the median time
    of each tree (null unless every round finished), ``side_fields`` of its
    finished runs, and the result."""
    rows = []
    for case in cases:
        if case["family"] != family:
            continue
        row = {"case": case["id"], "dim": case["dim"]}
        results = {}
        for side in SIDES:
            all_runs = runs[(case["id"], side)]
            done = [run[0] for run in all_runs if run is not None]
            complete = bool(done) and len(done) == len(all_runs)
            row[f"{side}_s"] = (
                round(statistics.median(r["seconds"] for r in done), 6) if complete else None
            )
            row.update(side_fields(side, done, complete))
            results[side] = done[0]["result"] if done else None
        row["result"] = results["change"]
        row["same_result"] = (
            None if None in results.values() else results["parent"] == results["change"]
        )
        rows.append(row)
    return {"cases": rows}


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


def _add_slopes(block: dict, from_dim: int) -> None:
    for side in SIDES:
        slope = _slope([(r["dim"], r[f"{side}_s"]) for r in block["cases"]], from_dim)
        block[f"slope_{side}"] = slope and round(slope, 2)


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


def _bench_run(tree: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "30", "--trace", "0"]
    out = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True).stdout
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
            pair = {side: _bench_run(tree, workload, seed) for side, tree in _in_turn(k, trees)}
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
    parser.add_argument("job", choices=JOBS)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=601)
    args = parser.parse_args(argv)
    job = JOBS[args.job]
    trees = [("parent", args.parent.resolve()), ("change", ROOT)]
    with tempfile.TemporaryDirectory() as tmp:
        cases = job.cases(Path(tmp))
        runs = _rounds(args.job, cases, trees)
    record = {"what": job.what, "machine": _machine(), "repeats": REPEATS,
              **job.record(cases, runs)}
    if args.pairs:
        record["end_to_end_pairs"] = _pairs(trees, args.pairs, args.first_seed)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
