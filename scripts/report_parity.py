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
reproductions), and the generated chart rungs (1,1), (2,1), (2,2) and Lie
rungs (1,1), (2,2), (3,3) of ``perfbench/workloads.py`` (each ladder from
seed 1), the benchmark's ladders up to their top rungs, and chart rungs
(1,1) and (2,2) with the (phi, g) of their per-block and of their joint
polarization as ``phi`` and ``metric`` (``polarized_model``, built with this
checkout's package), whose metrics are not constant.  On these every verb
runs.  The dense rungs (1,1) and (2,2) of ``scripts/bench.py``'s
``dense_model``, whose kernel frames carry non-constant denominators, run
only ``verify-pair`` and ``reeb``, since ``theorems`` and ``polarize`` do not
finish on them.  The
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
CHART_RUNGS = ((1, 1), (2, 1), (2, 2))
LIE_RUNGS = ((1, 1), (2, 2), (3, 3))
DENSE_RUNGS = ((1, 1), (2, 2))
DENSE_VERBS = ("verify-pair", "reeb")
POLARIZED_RUNGS = ("chart_model_1_1", "chart_model_2_2")


def polarized_model(doc: dict, decomposable: bool) -> dict:
    """The fixture ``doc`` with the (phi, g) that
    ``build_associated_by_polarization`` makes from its pair, per block
    (``decomposable``) or joint, as ``phi`` and ``metric``, and no
    ``aux_metric``."""
    from contactpairs.fixtures import load_fixture_dict
    from contactpairs.metric import build_associated_by_polarization
    from contactpairs.pair import verified_pair

    vp = verified_pair(load_fixture_dict(doc).pair)
    phi, g = build_associated_by_polarization(vp, decomposable=decomposable)
    out = {key: value for key, value in doc.items() if key != "aux_metric"}
    out["id"] = f"{doc['id']}_{'block' if decomposable else 'joint'}_polarized"
    for key, tensor in (("phi", phi), ("metric", g)):
        out[key] = [[e.format(vp.space.names) for e in row] for row in tensor.matrix.entries]
    return out


def _fixtures(workdir: Path) -> list[tuple[str, tuple[str, ...] | None]]:
    """Every fixture's path with the verbs to run on it, None for every verb."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "scripts"))
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import workloads

    def written(doc: dict) -> str:
        path = workdir / f"{doc['id']}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return str(path)

    paths = sorted((ROOT / "src" / "contactpairs" / "data").glob("*.json"))
    paths += sorted((ROOT / "tests" / "fixtures").glob("*.json"))
    docs = []
    for make, rungs in (
        (workloads.chart_model, CHART_RUNGS),
        (workloads.heisenberg_product, LIE_RUNGS),
    ):
        rng = random.Random(1)
        docs += [make(h, k, rng) for h, k in rungs]
    docs += [
        polarized_model(doc, decomposable)
        for doc in docs
        if doc["id"] in POLARIZED_RUNGS
        for decomposable in (True, False)
    ]
    fixtures = [(str(path), None) for path in paths]
    fixtures += [(written(doc), None) for doc in docs]
    fixtures += [(written(bench.dense_model(h, k)), DENSE_VERBS) for h, k in DENSE_RUNGS]
    return fixtures


def dump(tree: Path, fixtures: list[tuple[str, tuple[str, ...] | None]]) -> dict[str, str]:
    """Every case's outcome with the package of ``tree``."""
    sys.path.insert(0, str(tree / "src"))
    from contactpairs.cli import VERBS, VerbUsageError, run
    from contactpairs.fixtures import FixtureError
    from contactpairs.report import render_report

    out = {}
    for name, verbs in fixtures:
        path = Path(name)
        for verb in verbs or VERBS:
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
    parser.add_argument("--fixtures", type=json.loads, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        print(json.dumps(dump(args.dump.resolve(), args.fixtures)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    with tempfile.TemporaryDirectory() as tmp:
        fixtures = json.dumps(_fixtures(Path(tmp)))
        children = {
            side: subprocess.Popen(
                [sys.executable, __file__, "--dump", str(tree), "--fixtures", fixtures],
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
