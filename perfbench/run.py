#!/usr/bin/env python3
"""Benchmark of the contactpairs verifier: real CLI calls, checked answers.

    python3 perfbench/run.py --workload chart-ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
One closed-loop client: after the parent has imported ``contactpairs`` it
forks one child per item, one at a time, and the child runs
``contactpairs.cli.main([verb, fixture, "--out", file])`` with stdout
discarded, as a CLI user would.  A pass runs every item of the workload once,
in an order drawn from the seed; passes repeat until ``--seconds`` is spent
(at least two, so every report is compared across passes).

Every item's exit code and verdicts are checked against a known answer (see
``workloads.py``), and the hash of its report without ``timings`` must not
change between passes, nor between runs of the same source on the same
fixture (recorded under ``.perfbench_run/``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``layertrace.py``).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 11
MIN_PASSES = 2
STATE_DIR = ".perfbench_run"

# Layers whose functions some workload never calls would read exactly 0 s on
# every run of that workload; they keep their call count and drop the time.
DROPPED_TIMES = {
    "algebra.gcd_s": "lie-ladder never calls poly_gcd",
    "metric.killing_s": "chart-ladder has no metric, so no Killing check",
    "metric.leaves_s": "chart-ladder has no metric, so no leaf check",
    "metric.build_compatible_s": "lie-ladder gives its metric, so builds none",
    "metric.polarization_s": "lie-ladder gives its metric, so polarizes none",
    "exterior.lie_derivative_s": "chart-ladder runs no Killing check, its only caller",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class ItemRun:
    item: workloads.Item
    seconds: float
    exit_code: int
    rss_mb: float
    report_hash: str
    mismatches: list
    known_defect: bool
    layers: dict | None
    error: str = ""


@dataclass
class Pass:
    traced: bool
    wall_s: float
    runs: list


# --- set-up -------------------------------------------------------------------------


def setup(workload: str, rng: random.Random, root: Path, workdir: Path):
    """Import the package, write the workload's fixtures and load each once.
    Returns (seconds, items, cli module)."""
    started = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("contactpairs.cli")
    load_fixture = importlib.import_module("contactpairs.fixtures").load_fixture
    items = workloads.build_items(workload, rng, root, workdir)
    for path in dict.fromkeys(item.path for item in items):
        load_fixture(path)
    return time.perf_counter() - started, items, cli


def _in_child(task) -> tuple[dict, int, float]:
    """Run ``task()`` in a forked child; return its JSON result, exit status
    and peak RSS in MB.  The child's stdout goes to /dev/null."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 0
        try:
            os.close(read_fd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            data = json.dumps(task())
        except BaseException:  # the child reports every failure and never returns
            data = json.dumps({"error": traceback.format_exc()})
            status = 70
        try:
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write(data)
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(pid, 0)
    try:
        result = json.loads(data)
    except json.JSONDecodeError:
        result = {"error": f"child ended with status {status} and no result"}
    return result, status, usage.ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, root: Path, workdir: Path):
    """Set up SETUP_REPEATS times: in fresh children forked before the parent
    imports anything of the program, then once in the parent, whose result is
    kept.  Returns (seconds samples, items, cli module, rng)."""
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        result, _, _ = _in_child(
            lambda: {"s": setup(workload, random.Random(seed), root, workdir)[0]}
        )
        if "error" in result:
            raise BenchError(f"set-up failed:\n{result['error']}")
        samples.append(result["s"])
    rng = random.Random(seed)
    seconds, items, cli = setup(workload, rng, root, workdir)
    samples.append(seconds)
    return samples, items, cli, rng


# --- items and passes ---------------------------------------------------------------


def report_hash(report: dict) -> str:
    stable = {key: value for key, value in report.items() if key != "timings"}
    text = json.dumps(stable, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_item(item: workloads.Item, cli, workdir: Path, spans_dir: Path | None) -> ItemRun:
    out = workdir / "report.json"

    def task():
        tracer = None
        if spans_dir is not None:
            import layertrace

            tracer = layertrace.install()
        started = time.perf_counter()
        code = cli.main([item.verb, str(item.path), "--out", str(out)])
        seconds = time.perf_counter() - started
        result = {"exit": code, "s": seconds}
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.dump(spans_dir / f"{item.fixture_id}.{item.verb}.json")
        return result

    result, _, rss_mb = _in_child(task)
    if "error" in result:
        return ItemRun(item, 0.0, -1, rss_mb, "", [], False, None, result["error"])
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
    except (OSError, json.JSONDecodeError) as exc:
        return ItemRun(item, result["s"], result["exit"], rss_mb, "", [], False, None,
                       f"no report: {exc}")
    mismatches, known_defect = workloads.check_answer(item, result["exit"], report)
    return ItemRun(
        item,
        result["s"],
        result["exit"],
        rss_mb,
        report_hash(report),
        mismatches,
        known_defect,
        result.get("layers"),
    )


def run_pass(items, rng, cli, workdir, spans_dir) -> Pass:
    order = list(items)
    rng.shuffle(order)
    started = time.perf_counter()
    runs = [run_item(item, cli, workdir, spans_dir) for item in order]
    return Pass(spans_dir is not None, time.perf_counter() - started, runs)


def run_passes(items, rng, cli, seconds, workdir, spans_dir) -> list[Pass]:
    """Untraced passes, or untraced and traced passes in turn when
    ``spans_dir`` is given, until the next pass would overrun ``seconds``."""
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        traced = spans_dir is not None and len(passes) % 2 == 1
        passes.append(run_pass(items, rng, cli, workdir, spans_dir if traced else None))
        if len(passes) < MIN_PASSES:
            continue
        next_traced = spans_dir is not None and len(passes) % 2 == 1
        estimate = statistics.median(p.wall_s for p in passes if p.traced == next_traced)
        if time.perf_counter() - started + estimate > seconds:
            return passes


# --- checks -------------------------------------------------------------------------


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    package = root / "src" / "contactpairs"
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stability_keys(items, root: Path) -> dict:
    source = source_digest(root)
    return {
        item.name: f"{source}:{hashlib.sha256(item.path.read_bytes()).hexdigest()[:16]}:"
        f"{item.verb}"
        for item in items
    }


def unstable_items(passes: list[Pass], keys: dict, state_file: Path) -> set:
    """Items whose report hash differs between passes or from an earlier run."""
    try:
        recorded = json.loads(state_file.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        recorded = {}
    seen: dict[str, str] = {}
    unstable = set()
    for p in passes:
        for r in p.runs:
            if not r.report_hash:
                continue
            first = seen.setdefault(r.item.name, recorded.get(keys[r.item.name], r.report_hash))
            if r.report_hash != first:
                unstable.add(r.item.name)
    for name, value in seen.items():
        recorded.setdefault(keys[name], value)
    state_file.parent.mkdir(parents=True, exist_ok=True)
    tmp = state_file.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, state_file)
    return unstable


def verdict_of_runs(passes: list[Pass], unstable: set):
    """(attempted, failed, correct, lines describing every failed item run)."""
    attempted = failed = 0
    correct = True
    lines = []
    for p in passes:
        for r in p.runs:
            attempted += 1
            problems = list(r.mismatches)
            if r.error:
                problems.append(r.error.strip().splitlines()[-1])
            if r.item.name in unstable:
                problems.append("report changed between passes or runs")
            if not problems:
                continue
            failed += 1
            known = r.known_defect and not r.error and r.item.name not in unstable
            correct = correct and known
            tag = "known defect" if known else "FAILED"
            lines.append(f"  {tag}: {r.item.name}: {'; '.join(problems)}")
    return attempted, failed, correct, sorted(set(lines))


# --- metrics ------------------------------------------------------------------------


def end_to_end(setup_samples, passes):
    times = [r.seconds for p in passes for r in p.runs]
    return {
        "setup_s": (statistics.median(setup_samples), f"median of {len(setup_samples)} set-ups"),
        "wall_s": (
            statistics.median(p.wall_s for p in passes),
            f"median of {len(passes)} passes: "
            + ", ".join(f"{p.wall_s:.2f}" for p in passes),
        ),
        "item_p50_s": (statistics.median(times), f"median of {len(times)} item runs"),
        "item_p90_s": (
            statistics.quantiles(times, n=10, method="inclusive")[8],
            f"90th percentile of {len(times)} item runs",
        ),
        "peak_rss_mb": (
            max(r.rss_mb for p in passes for r in p.runs),
            f"largest of {len(times)} children",
        ),
    }


def per_layer(passes, names):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    sums = []
    for p in traced:
        total: dict[str, float] = {}
        for r in p.runs:
            for key, value in (r.layers or {}).items():
                total[key] = total.get(key, 0) + value
        computed = total.get("cli.verdicts_computed", 0)
        total["cli.kept_verdict_ratio"] = (
            total.get("cli.verdicts_reported", 0) / computed if computed else 0.0
        )
        sums.append(total)
    values = {}
    note = f"median of {len(traced)} traced passes"
    for name in names:
        if name == "trace.overhead_ratio":
            ratio = statistics.median(p.wall_s for p in traced) / statistics.median(
                p.wall_s for p in untraced
            )
            values[name] = (ratio, f"over {len(untraced)} untraced passes")
        elif all(name in s for s in sums):
            values[name] = (statistics.median(s[name] for s in sums), note)
        else:
            raise BenchError(f"the traced run measures no {name}")
    spans = statistics.median(s.get("trace.spans", 0) for s in sums)
    return values, spans


# --- main ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units(root: Path, section: str) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def bench(args, root: Path, workdir: Path) -> int:
    units = declared_units(root, "per_layer" if args.trace else "end_to_end")
    setup_samples, items, cli, rng = measure_setup(args.workload, args.seed, root, workdir)
    spans_dir = None
    if args.trace:
        import layertrace

        layertrace.check_boundaries()
        spans_dir = root / STATE_DIR / "spans" / args.workload
        spans_dir.mkdir(parents=True, exist_ok=True)
    passes = run_passes(items, rng, cli, args.seconds, workdir, spans_dir)

    keys = stability_keys(items, root)
    unstable = unstable_items(passes, keys, root / STATE_DIR / "report_hashes.json")
    attempted, failed, correct, problems = verdict_of_runs(passes, unstable)

    print(
        f"workload {args.workload}, seed {args.seed}: {len(items)} items, "
        f"{len(passes)} passes, trace {args.trace}"
    )
    if args.trace:
        values, spans = per_layer(passes, units)
        for name, why in DROPPED_TIMES.items():
            print(f"  dropped {name}: {why}; the _calls count stays")
        print(f"  {spans:.0f} spans per traced pass")
    else:
        values = end_to_end(setup_samples, passes)
    if values.keys() != units.keys():
        raise BenchError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    for name, (value, note) in values.items():
        print(f"  {name} = {value:.6g} {units[name]} ({note})")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} item runs)")
    for line in problems:
        print(line)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()
        },
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # unwind on SIGTERM too, so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "contactpairs" / "cli.py").is_file():
        print("error: run from the root of a contactpairs checkout", file=sys.stderr)
        return 2
    workdir = root / STATE_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return bench(args, root, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
