#!/usr/bin/env python3
"""Per-call cost of the RK4 cross-check, the exact inverse and the Christoffel
symbols, parent checkout vs this one.

    python3 scripts/bench_rk4.py --parent ../parent --out BENCH_christoffel.json
    python3 scripts/bench_rk4.py --parent ../parent --out BENCH_christoffel.json \\
        --pairs 10 --first-seed 601

Run it from the root of this checkout; ``--parent`` is a checkout of the
commit to compare with.  The script measures in ``--repeats`` rounds.  Each
round starts one interpreter per tree, the parent's first in even rounds and
this tree's first in odd ones, so drift of a shared machine falls on both
trees alike.  Each interpreter imports ``contactpairs`` from its tree's
``src/`` and times, in one pass, every ``numeric_geodesic_residual``,
``RfMatrix.inverse`` and ``christoffel`` call made by ``cli.run`` on:

- ``theorems`` on the chart-ladder rungs (1,1), (2,1), (2,2) and on the
  lie-ladder rung (3,3) (fixtures from ``perfbench/workloads.py``, seed 1);
- the ``geodesy`` and ``build-compatible`` items of ``verb-mix``.

The per-call figure is the median over the rounds, and what each tree
returned is recorded with it: the residual's ``repr`` for RK4, a digest of
the entries (printed with sorted terms) for the inverse and the symbols.  A
call whose result differs between rounds stops the script.
A ``christoffel`` call includes the ``inverse`` call it makes.  With
``--pairs N`` the script then runs ``perfbench/run.py --trace 0`` N times per
workload in each tree, in alternating order, on seeds ``--first-seed``
onwards, and records every run's end-to-end metrics with their medians and
quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RK4_VERBS = ("geodesy", "build-compatible")
TIMED = ("rk4", "inverse", "christoffel")
LADDER_ITEMS = (
    ("chart-ladder", ("chart_model_1_1", "chart_model_2_1", "chart_model_2_2")),
    ("lie-ladder", ("heisenberg_3_3",)),
)


def _items(workdir: Path) -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    items = []
    for workload, ids in LADDER_ITEMS:
        ladder = workloads.build_items(workload, random.Random(1), ROOT, workdir)
        items += [item for item in ladder if item.fixture_id in ids]
    mix = workloads.build_items("verb-mix", random.Random(1), ROOT, workdir)
    return items + [item for item in mix if item.verb in RK4_VERBS]


def _digest(entries) -> str:
    return hashlib.sha256(repr([str(e) for e in entries]).encode()).hexdigest()[:16]


def measure(tree: Path) -> dict[str, list[dict]]:
    """Time every timed call of every item, once, with the package of ``tree``."""
    sys.path.insert(0, str(tree / "src"))
    from contactpairs import algebra, cli, connection

    calls: dict[str, list] = {kind: [] for kind in TIMED}

    def timed(kind, inner, result_of):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = inner(*args, **kwargs)
            calls[kind].append((time.perf_counter() - started, result_of(result)))
            return result

        return wrapper

    cli.numeric_geodesic_residual = timed("rk4", cli.numeric_geodesic_residual, repr)
    algebra.RfMatrix.inverse = timed(
        "inverse", algebra.RfMatrix.inverse,
        lambda m: f"{m.rows}x{m.cols} {_digest(e for row in m.entries for e in row)}",
    )
    connection.christoffel = timed(
        "christoffel", connection.christoffel,
        lambda d: f"dim {d.space.dim} {_digest(e for _, _, _, e in d.nonzero())}",
    )
    rows: dict[str, list[dict]] = {kind: [] for kind in TIMED}
    with tempfile.TemporaryDirectory() as tmp:
        for item in _items(Path(tmp)):
            for made in calls.values():
                made.clear()
            cli.run(item.verb, item.path)
            for kind, made in calls.items():
                rows[kind] += [
                    {"item": f"{item.name}#{k + 1}", "seconds": seconds, "result": result}
                    for k, (seconds, result) in enumerate(made)
                ]
    return rows


def _measure_in_child(tree: Path) -> dict[str, list[dict]]:
    command = [sys.executable, __file__, "--measure", str(tree)]
    out = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _across_rounds(rounds: list[dict[str, list[dict]]]) -> dict[str, list[dict]]:
    """Each call's median time over the rounds of one tree, with the result
    every round must agree on."""
    out: dict[str, list[dict]] = {}
    for kind in TIMED:
        out[kind] = []
        for calls in zip(*(r[kind] for r in rounds), strict=True):
            results = sorted({c["result"] for c in calls})
            if len(results) != 1:
                raise SystemExit(
                    f"{kind} {calls[0]['item']}: results differ across rounds: {results}"
                )
            out[kind].append({
                "item": calls[0]["item"],
                "seconds": statistics.median(c["seconds"] for c in calls),
                "result": results[0],
            })
    return out


def _bench_run(tree: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "30", "--trace", "0"]
    out = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {**metrics, "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"]}


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


def pairs(parent: Path, count: int, first_seed: int) -> dict:
    out = {}
    for workload in ("chart-ladder", "lie-ladder", "verb-mix"):
        runs = []
        for k in range(count):
            seed = first_seed + k
            order = [("parent", parent), ("change", ROOT)]
            pair = dict(
                (side, _bench_run(tree, workload, seed))
                for side, tree in (order if k % 2 == 0 else order[::-1])
            )
            runs.append({"seed": seed, **pair})
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
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=601)
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")
    trees = [("parent", args.parent.resolve()), ("change", ROOT)]
    rounds: dict[str, list] = {side: [] for side, _ in trees}
    for k in range(args.repeats):
        for side, tree in trees if k % 2 == 0 else trees[::-1]:
            rounds[side].append(_measure_in_child(tree))
    before, after = (_across_rounds(rounds[side]) for side, _ in trees)
    record = {
        "what": "seconds per call (median over rounds, trees alternating within each "
        "round), parent vs change, by function",
        "machine": _machine(),
        "repeats": args.repeats,
    }
    for kind in TIMED:
        calls = [
            {
                "item": b["item"],
                "parent_s": round(b["seconds"], 6),
                "change_s": round(a["seconds"], 6),
                "speedup": round(b["seconds"] / a["seconds"], 2),
                "result": a["result"],
                "same_result": a["result"] == b["result"],
            }
            for b, a in zip(before[kind], after[kind], strict=True)
        ]
        record[kind] = {
            "calls": calls,
            "total_parent_s": round(sum(c["parent_s"] for c in calls), 3),
            "total_change_s": round(sum(c["change_s"] for c in calls), 3),
        }
    if args.pairs:
        record["end_to_end_pairs"] = pairs(args.parent.resolve(), args.pairs, args.first_seed)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
