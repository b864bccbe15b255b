#!/usr/bin/env python3
"""Byte-level parity of every verb's report, parent checkout vs this one.

    python3 scripts/report_parity.py --parent ../parent
    python3 scripts/report_parity.py --parent ../parent --out parity.json

Run it from the root of this checkout; ``--parent`` is a checkout of the
commit to compare with.  Each tree runs in its own interpreter, which
imports ``contactpairs`` from that tree's ``src/``, and records for every
verb, every fixture and both sample settings (none, and ``--samples 3
--seed 7``) the exit code and ``render_report(..., include_timings=False)``,
or the error text of a usage or fixture error, or the exception of a crash.

The fixtures, the same files for both trees, are the bundled ones,
``tests/fixtures`` (which holds copies of the two ``perfbench/fixtures``
reproductions), and the generated chart rungs (1,1), (2,1) and Lie rungs
(1,1), (2,2) of ``perfbench/workloads.py`` (each ladder from seed 1).  The
script prints the number of identical cases and the first differing line of
each other case, writes every differing case in full to ``--out``, and exits
1 when any case differs.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = ((0, 0), (3, 7))  # (--samples, --seed)
CHART_RUNGS = ((1, 1), (2, 1))
LIE_RUNGS = ((1, 1), (2, 2))


def _fixtures(workdir: Path) -> list[Path]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    paths = sorted((ROOT / "src" / "contactpairs" / "data").glob("*.json"))
    paths = [p for p in paths if p.name != "fixture.schema.json"]
    paths += sorted((ROOT / "tests" / "fixtures").glob("*.json"))
    for make, rungs in (
        (workloads.chart_model, CHART_RUNGS),
        (workloads.heisenberg_product, LIE_RUNGS),
    ):
        rng = random.Random(1)
        for h, k in rungs:
            doc = make(h, k, rng)
            path = workdir / f"{doc['id']}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            paths.append(path)
    return paths


def dump(tree: Path, fixtures: list[Path]) -> dict[str, str]:
    """Every case's outcome with the package of ``tree``."""
    sys.path.insert(0, str(tree / "src"))
    from contactpairs.cli import VERBS, VerbUsageError, run
    from contactpairs.fixtures import FixtureError
    from contactpairs.report import render_report

    out = {}
    for path in fixtures:
        for verb in VERBS:
            for samples, seed in SAMPLES:
                case = f"{verb} {path.name} --samples {samples} --seed {seed}"
                try:
                    report = run(verb, path, samples=samples, seed=seed)
                except (FixtureError, VerbUsageError) as exc:
                    out[case] = f"error: {exc}"
                except Exception as exc:  # a crash is an outcome to compare too
                    out[case] = f"crash: {type(exc).__name__}: {exc}"
                else:
                    text = render_report(report, include_timings=False)
                    out[case] = f"exit {report.exit_code()}\n{text}"
    return out


def _first_difference(a: str, b: str) -> str:
    for line_a, line_b in zip(a.splitlines(), b.splitlines()):
        if line_a != line_b:
            return f"parent: {line_a.strip()}\n    change: {line_b.strip()}"
    return "one outcome is a prefix of the other"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the commit to compare with")
    parser.add_argument("--out", type=Path, help="write the differing cases here as JSON")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--fixtures", type=Path, nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        print(json.dumps(dump(args.dump.resolve(), args.fixtures)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    with tempfile.TemporaryDirectory() as tmp:
        fixtures = [str(p) for p in _fixtures(Path(tmp))]
        children = {
            side: subprocess.Popen(
                [sys.executable, __file__, "--dump", str(tree), "--fixtures", *fixtures],
                stdout=subprocess.PIPE,
                text=True,
            )
            for side, tree in (("parent", args.parent), ("change", ROOT))
        }
        outcomes = {}
        for side, child in children.items():
            stdout, _ = child.communicate()
            if child.returncode:
                print(f"the {side} tree's run failed", file=sys.stderr)
                return 2
            outcomes[side] = json.loads(stdout.splitlines()[-1])

    parent, change = outcomes["parent"], outcomes["change"]
    differing = sorted(case for case in parent if parent[case] != change.get(case))
    print(f"{len(parent) - len(differing)} of {len(parent)} cases identical")
    for case in differing:
        print(f"{case}\n    {_first_difference(parent[case], change.get(case, ''))}")
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {case: {"parent": parent[case], "change": change.get(case)} for case in differing},
                indent=1,
            )
            + "\n",
            encoding="utf-8",
        )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
