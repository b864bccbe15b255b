#!/usr/bin/env python3
"""Cost of ``verify_contact_pair`` on dense 2-forms and on the ladder rungs,
parent checkout vs this one.

    python3 scripts/bench_pair_axioms.py --parent ../parent --out BENCH_pair_axioms.json

Run it from the root of this checkout; ``--parent`` is a checkout of the
commit to compare with.

The dense family is the chart model of type (h, h) of
``perfbench/workloads.py`` (seed 1), h = 1 … 6 (dims 6 … 26), pulled back by
the linear change of coordinates x = U·w, with U = L·R and L, R unit
lower/upper triangular with entries in {−1, 0, 1} (seed 1 + dim), so
det U = 1.  It is the same pair in other coordinates, but d alpha_i is
dense.  The ladder rungs are the chart-ladder and lie-ladder fixtures of
``perfbench/workloads.py`` (seed 1).

The script measures in ``REPEATS`` rounds.  In each round every case runs
in one interpreter per tree, the parent's first in even rounds and this
tree's first in odd ones, so drift of a shared machine falls on both trees
alike.  The interpreter imports ``contactpairs`` from its tree's ``src/``,
loads the fixture, and times ``verify_contact_pair`` on the loaded pair
(``CALLS`` times on a freshly loaded pair each, the median kept; a dense
case is called once per interpreter).  A dense run that takes longer than
``CAP_S`` seconds is stopped and recorded as null, and that tree runs no
dense case of that size or larger afterwards.  Each call's verdicts (status
and detail or witness) are recorded, and a case whose verdicts differ
between rounds stops the script.  The log-log slope of the
median time against the dimension is fitted by least squares over the dense
dims from 10 up, for each tree over the dims it finished.
"""

from __future__ import annotations

import argparse
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
DENSE_TYPES = tuple((h, h) for h in range(1, 7))  # dims 6, 10, …, 26
SLOPE_FROM_DIM = 10
REPEATS = 3  # rounds, the trees alternating within each
CALLS = 5  # verify_contact_pair calls per ladder case and interpreter
CAP_S = 120.0  # seconds after which a dense run is stopped


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


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
    """The chart model of type (h, k) pulled back by the family's U."""
    doc = _workloads().chart_model(h, k, random.Random(1))
    return pull_back(doc, unimodular(doc["dimension"], random.Random(1 + doc["dimension"])))


def _cases() -> list[tuple[str, dict]]:
    workloads = _workloads()
    cases = [("dense", dense_model(h, k)) for h, k in DENSE_TYPES]
    for kind, make, rungs in (
        ("chart-ladder", workloads.chart_model, workloads.CHART_RUNGS),
        ("lie-ladder", workloads.heisenberg_product, workloads.LIE_RUNGS),
    ):
        rng = random.Random(1)
        cases += [(kind, make(h, k, rng)) for h, k in rungs]
    return cases


def measure(tree: Path, fixture: Path, calls: int) -> dict:
    """Median seconds of ``calls`` verify_contact_pair calls, each on a freshly
    loaded pair, with the package of ``tree``, and the verdicts."""
    sys.path.insert(0, str(tree / "src"))
    from contactpairs.fixtures import load_fixture
    from contactpairs.pair import verify_contact_pair

    seconds = []
    for _ in range(calls):
        pair = load_fixture(fixture).pair
        started = time.perf_counter()
        verdicts = verify_contact_pair(pair)
        seconds.append(time.perf_counter() - started)
    result = {
        name: f"{v.status.value}: {v.witness or v.detail}" for name, v in sorted(verdicts.items())
    }
    return {"seconds": statistics.median(seconds), "result": result}


def _measure_in_child(tree: Path, fixture: Path, calls: int) -> dict | None:
    command = [sys.executable, __file__, "--measure", str(tree), str(fixture), str(calls)]
    try:
        out = subprocess.run(
            command, check=True, capture_output=True, text=True, timeout=CAP_S
        ).stdout
    except subprocess.TimeoutExpired:
        return None
    return json.loads(out.splitlines()[-1])


def _slope(points: list[tuple[int, float]], from_dim: int = SLOPE_FROM_DIM) -> float | None:
    """The least-squares slope of log seconds against log dim, over the
    points from ``from_dim`` up that have a time."""
    points = [(d, s) for d, s in points if d >= from_dim and s is not None]
    if len(points) < 2:
        return None
    xs = [math.log(d) for d, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _machine() -> str:
    cpu = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{cpu}, {os.cpu_count()} cpus, Python {platform.python_version()}"


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
    capped = {side: math.inf for side, _ in trees}  # the dim of the first stopped run
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for _, doc in cases:
            path = Path(tmp) / f"{doc['id']}.json"
            path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
            paths.append(path)
        for k in range(REPEATS):
            for (kind, doc), path in zip(cases, paths):
                for side, tree in trees if k % 2 == 0 else trees[::-1]:
                    seen = runs.setdefault((doc["id"], side), [])
                    if kind == "dense" and doc["dimension"] >= capped[side]:
                        continue
                    calls = 1 if kind == "dense" else CALLS
                    run = _measure_in_child(tree, path, calls)
                    if run is None:
                        capped[side] = doc["dimension"]
                    elif seen and run["result"] != seen[0]["result"]:
                        raise SystemExit(f"{doc['id']} ({side}): verdicts differ across rounds")
                    seen.append(run)
                    print(json.dumps({"case": doc["id"], "side": side, "round": k,
                                      "seconds": run and run["seconds"]}),
                          file=sys.stderr, flush=True)
    record = {
        "what": "seconds per verify_contact_pair call on a loaded pair (median over rounds, "
        "trees alternating within each round), parent vs change; null: stopped at the cap",
        "machine": _machine(),
        "repeats": REPEATS,
        "calls": CALLS,
        "cap_s": CAP_S,
        "slope_from_dim": SLOPE_FROM_DIM,
    }
    for kind in ("dense", "chart-ladder", "lie-ladder"):
        rows = []
        for case_kind, doc in cases:
            if case_kind != kind:
                continue
            row = {"case": doc["id"], "dim": doc["dimension"]}
            for side, _ in trees:
                done = [r for r in runs[(doc["id"], side)] if r is not None]
                complete = len(done) == len(runs[(doc["id"], side)]) and done
                row[f"{side}_s"] = (
                    round(statistics.median(r["seconds"] for r in done), 6) if complete else None
                )
                row[f"{side}_runs"] = len(done)
            parent_result = next((r["result"] for r in runs[(doc["id"], "parent")] if r), None)
            change_result = next(r["result"] for r in runs[(doc["id"], "change")] if r)
            row["result"] = change_result
            row["same_result"] = None if parent_result is None else parent_result == change_result
            rows.append(row)
        record[kind] = {"cases": rows}
        if kind == "dense":
            for side, _ in trees:
                slope = _slope([(r["dim"], r[f"{side}_s"]) for r in rows])
                record[kind][f"slope_{side}"] = slope and round(slope, 2)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
