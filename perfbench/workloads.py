"""The benchmark's workloads: the items they run and the answers they must give.

Stdlib only, so that the runner can import this module before it times the
import of ``contactpairs``.

An item is one CLI invocation ``contactpairs <verb> <fixture>``.  Every item
has a known answer taken from the mathematics of its fixture, not from the
program's output: the exit code, and the verdict names that must be Failed
or SampleVerified.  Every other verdict a report holds must be Verified;
verdicts absent from a report are not checked.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("chart-ladder", "lie-ladder", "verb-mix")

CHART_RUNGS = ((1, 1), (2, 1), (2, 2))  # dims 6, 8, 10
LIE_RUNGS = ((1, 1), (2, 2), (3, 3))  # dims 6, 10, 14
EXTRA_SAMPLE_POINTS = 2

# Every single verb but ``theorems``; ``report`` is ``theorems`` printed to
# stdout, so it is left out too.
SINGLE_VERBS = (
    "verify-pair",
    "reeb",
    "verify-structure",
    "decomposable",
    "compatible",
    "associated",
    "orthogonal",
    "build-compatible",
    "polarize",
    "geodesy",
    "killing",
    "leaves",
)
# The fixture fields a verb refuses to run without (exit 3).
VERB_NEEDS = {
    "verify-structure": ("phi",),
    "decomposable": ("phi",),
    "compatible": ("phi", "metric"),
    "associated": ("phi", "metric"),
    "orthogonal": ("metric",),
    "build-compatible": ("phi",),
    "geodesy": ("metric",),
    "killing": ("phi", "metric"),
    "leaves": ("phi", "metric"),
}
UNSUPPORTED = {
    ("twisted", "polarize"): "d alpha2 = y dx^dw + x dy^dw is not constant",
}


@dataclass(frozen=True)
class Answer:
    """What the mathematics says a fixture's verdicts are."""

    failed: frozenset = frozenset()
    sample_verified: frozenset = frozenset()
    why: str = ""


@dataclass(frozen=True)
class Item:
    fixture_id: str
    path: Path
    verb: str
    exit_code: int
    answer: Answer
    exit_why: str = ""

    @property
    def name(self) -> str:
        return f"{self.fixture_id}:{self.verb}"


@dataclass(frozen=True)
class KnownDefect:
    """A mismatch the program is known to produce, with its exact signature."""

    exit_code: int
    failed: frozenset
    why: str


ALL_VERIFIED = Answer(why="every identity holds identically; the metric is associated")

ANSWERS = {
    "local_model_1_1": Answer(
        why="standard type-(1,1) model with the block rotation phi; every statement holds"
    ),
    "r6_example": Answer(
        failed=frozenset({"decomposable", "associated"}),
        why="phi swaps the two blocks, so it moves the characteristic subbundles "
        "and g(X, phi Y) is not d alpha(X, Y)",
    ),
    "nilpotent_g6": Answer(
        why="decomposable phi and the identity metric, associated on the nilpotent frame"
    ),
    "flat2_mcp": Answer(why="type (0,0) on R^2 with the flat metric; everything holds"),
    "twisted": Answer(
        sample_verified=frozenset({"volume_form"}),
        why="alpha1 ^ alpha2 ^ d alpha2 = x dx^dz^dy^dw vanishes on x = 0",
    ),
    "repro_quartic_reeb": Answer(
        why="(alpha1, alpha2) is a closed orthonormal coframe of the flat metric g, so "
        "Z1, Z2 are parallel and the Reeb orbits are geodesics; RK4 must agree",
    ),
    "repro_x_dx": Answer(
        sample_verified=frozenset({"volume_form"}),
        why="x dx ^ dy vanishes on x = 0; the built metric has geodesic Reeb orbits, "
        "so RK4 must agree",
    ),
}

# Non-zero exit codes; every other item exits 0.
EXIT_CODES = {
    ("r6_example", "decomposable"): (1, "phi does not preserve TF1, TF2"),
    ("r6_example", "associated"): (1, "the metric is compatible but not associated"),
    ("r6_example", "killing"): (1, "the Killing check needs an associated metric"),
    ("r6_example", "leaves"): (1, "the leaf checks need associated g and decomposable phi"),
    ("twisted", "verify-pair"): (2, "the volume form vanishes on x = 0"),
    ("repro_x_dx", "verify-pair"): (2, "the volume form vanishes on x = 0"),
}

_RK4_DEFECT = (
    "ROADMAP item 1: the central-difference RK4 estimator reports a false Failed "
    "where the exact geodesy is Verified"
)
KNOWN_DEFECTS = {
    "repro_quartic_reeb:geodesy": KnownDefect(1, frozenset({"geodesy_rk4"}), _RK4_DEFECT),
    "repro_quartic_reeb:build-compatible": KnownDefect(
        1, frozenset({"built_geodesy_rk4"}), _RK4_DEFECT
    ),
    "repro_x_dx:build-compatible": KnownDefect(
        1, frozenset({"built_geodesy_rk4"}), _RK4_DEFECT
    ),
}


# --- ladder generators -----------------------------------------------------------


def _identity(n: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _blocks(h: int, k: int) -> list[tuple[list[str], list[str], str]]:
    """Names of the two blocks: (x_i, y_i, z1) and (u_i, v_i, z2)."""
    return [
        ([f"x{i}" for i in range(1, h + 1)], [f"y{i}" for i in range(1, h + 1)], "z1"),
        ([f"u{i}" for i in range(1, k + 1)], [f"v{i}" for i in range(1, k + 1)], "z2"),
    ]


def _sample_points(n: int, rng: random.Random) -> list[list[str]]:
    extra = [
        [f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}" for _ in range(n)]
        for _ in range(EXTRA_SAMPLE_POINTS)
    ]
    return [["0"] * n] + extra


def chart_model(h: int, k: int, rng: random.Random) -> dict:
    """Standard local model of type (h, k): alpha1 = dz1 + sum x_i dy_i, the
    same in (u, v, z2); phi(d/dx_i) = d/dy_i - x_i d/dz1, phi(d/dy_i) = -d/dx_i;
    the identity as aux_metric and no metric."""
    blocks = _blocks(h, k)
    names = [name for xs, ys, z in blocks for name in (*xs, *ys, z)]
    n = len(names)
    at = {name: i for i, name in enumerate(names)}
    phi = [["0"] * n for _ in range(n)]  # column j is phi of the j-th basis field
    alphas = []
    for xs, ys, z in blocks:
        for x, y in zip(xs, ys):
            phi[at[y]][at[x]] = "1"
            phi[at[z]][at[x]] = f"-{x}"
            phi[at[x]][at[y]] = "-1"
        alphas.append({z: "1", **{y: x for x, y in zip(xs, ys)}})
    return {
        "id": f"chart_model_{h}_{k}",
        "backend": "chart",
        "dimension": n,
        "coordinates": names,
        "type": [h, k],
        "alpha1": alphas[0],
        "alpha2": alphas[1],
        "phi": phi,
        "aux_metric": _identity(n),
        "sample_points": _sample_points(n, rng),
    }


def heisenberg_product(h: int, k: int, rng: random.Random) -> dict:
    """h_{2h+1} x h_{2k+1}: d z1 = sum x_i ^ y_i, d z2 = sum u_i ^ v_i;
    phi(e_x) = -e_y, phi(e_y) = e_x (the convention of nilpotent_g6); the
    identity metric."""
    blocks = _blocks(h, k)
    names = [name for xs, ys, z in blocks for name in (*xs, *ys, z)]
    n = len(names)
    at = {name: i for i, name in enumerate(names)}
    phi = [["0"] * n for _ in range(n)]
    equations = {}
    for xs, ys, z in blocks:
        equations[z] = [
            {"i": at[x] + 1, "j": at[y] + 1, "coeff": "1"} for x, y in zip(xs, ys)
        ]
        for x, y in zip(xs, ys):
            phi[at[y]][at[x]] = "-1"
            phi[at[x]][at[y]] = "1"
    return {
        "id": f"heisenberg_{h}_{k}",
        "backend": "lie",
        "dimension": n,
        "frame": names,
        "structure_equations": equations,
        "type": [h, k],
        "alpha1": {"z1": "1"},
        "alpha2": {"z2": "1"},
        "phi": phi,
        "metric": _identity(n),
        "sample_points": _sample_points(n, rng),
    }


# --- item lists ---------------------------------------------------------------------


def _ladder(make, rungs, rng: random.Random, workdir: Path) -> list[Item]:
    items = []
    for h, k in rungs:
        doc = make(h, k, rng)
        path = workdir / f"{doc['id']}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        items.append(Item(doc["id"], path, "theorems", 0, ALL_VERIFIED))
    return items


def _verb_mix(root: Path) -> list[Item]:
    fixtures = [
        root / "src" / "contactpairs" / "data" / "local_model_1_1.json",
        root / "src" / "contactpairs" / "data" / "r6_example.json",
        root / "src" / "contactpairs" / "data" / "nilpotent_g6.json",
        root / "tests" / "fixtures" / "flat2_mcp.json",
        root / "tests" / "fixtures" / "twisted.json",
        HERE / "fixtures" / "repro_quartic_reeb.json",
        HERE / "fixtures" / "repro_x_dx.json",
    ]
    items = []
    for path in fixtures:
        doc = json.loads(path.read_text(encoding="utf-8"))
        fid = doc["id"]
        for verb in SINGLE_VERBS:
            if (fid, verb) in UNSUPPORTED:
                continue
            if not all(key in doc for key in VERB_NEEDS.get(verb, ())):
                continue
            code, why = EXIT_CODES.get((fid, verb), (0, ""))
            items.append(Item(fid, path, verb, code, ANSWERS[fid], why))
    return items


def build_items(workload: str, rng: random.Random, root: Path, workdir: Path) -> list[Item]:
    """The workload's items; generated fixtures are written to ``workdir``."""
    if workload == "chart-ladder":
        return _ladder(chart_model, CHART_RUNGS, rng, workdir)
    if workload == "lie-ladder":
        return _ladder(heisenberg_product, LIE_RUNGS, rng, workdir)
    if workload == "verb-mix":
        return _verb_mix(root)
    raise ValueError(f"unknown workload {workload!r}")


def _mismatches(
    statuses: dict, exit_code: int, expected_exit: int, failed: frozenset, sampled: frozenset
) -> list[str]:
    out = []
    if exit_code != expected_exit:
        out.append(f"exit {exit_code}, expected {expected_exit}")
    for name, status in sorted(statuses.items()):
        if name in failed:
            expected = "Failed"
        elif name in sampled:
            expected = "SampleVerified"
        else:
            expected = "Verified"
        if status != expected:
            out.append(f"{name} is {status}, expected {expected}")
    return out


def check_answer(item: Item, exit_code: int, report: dict) -> tuple[list[str], bool]:
    """Compare a run with the item's known answer: (mismatches, whether they
    are a known defect, i.e. the run matches the defect's signature exactly)."""
    statuses = {name: v["status"] for name, v in report["verdicts"].items()}
    answer = item.answer
    mismatches = _mismatches(
        statuses, exit_code, item.exit_code, answer.failed, answer.sample_verified
    )
    defect = KNOWN_DEFECTS.get(item.name)
    known = bool(mismatches) and defect is not None and not _mismatches(
        statuses,
        exit_code,
        defect.exit_code,
        answer.failed | defect.failed,
        answer.sample_verified,
    ) and defect.failed <= {n for n, s in statuses.items() if s == "Failed"}
    return mismatches, known
