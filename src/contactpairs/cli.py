"""Command-line verbs over fixture files.

    contactpairs <verb> <fixture.json> [--out report.json] [--samples N] [--seed S]

Every verdict comes from one check of the registry ``CHECKS``.  A verb names
the checks it reports (``VERBS``); a run evaluates those checks and their
prerequisites only, and the report keeps what the named checks wrote plus
every failed prerequisite.  ``theorems`` runs every check that applies;
``report`` does the same and emits the JSON document to stdout.  Exit codes:
0 all Verified, 2 at least one SampleVerified and none Failed, 1 any Failed,
3 fixture, ``--out`` and usage errors.

Every identity of the fixture data is checked exactly; only the RK4
cross-check of the geodesy is numeric.  What ``build_compatible`` and
``build_associated_by_polarization`` prove about their metrics, what
``is_compatible`` proves of a compatible metric, and what
``verify_induced_almost_contact`` and ``verify_restricted_contact_metric``
prove on the leaves are reported with no check run; definiteness at the
sample points, the joint polarization's decomposability and orthogonality,
and the restricted volumes on the leaves are computed.
--samples appends N extra random rational sample points (seeded by --seed)
to the fixture's declared ones; they are validated like the declared ones.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

from .algebra import format_point
from .connection import numeric_geodesic_residual, reeb_geodesy
from .exterior import MetricField
from .fixtures import FixtureDoc, FixtureError, load_fixture, load_fixture_dict
from .metric import (
    ASSOCIATED_DETAILS,
    COMPATIBLE_COROLLARY_DETAILS,
    COMPATIBLE_DETAIL,
    ORTHOGONAL_DETAIL,
    MetricContactPair,
    MetricValidationError,
    PolarizationError,
    are_foliations_orthogonal,
    build_associated_by_polarization,
    build_compatible,
    decomposability_orthogonality_agreement,
    is_associated,
    is_compatible,
    killing_agreement,
    killing_check,
    verify_restricted_contact_metric,
)
from .pair import (
    FrameRankError,
    PairValidationError,
    ReebSolveError,
    verified_pair,
    verify_splittings,
)
from .report import Report, render_report
from .structure import (
    DECOMPOSABLE_DETAIL,
    ContactPairStructure,
    PreconditionError,
    verify_induced_almost_contact,
    verify_structure,
)
from .verdicts import Verdict, combine_verdicts

__all__ = ["CHECKS", "VERBS", "run", "main", "VerbUsageError"]

RK4_TOLERANCE = 1e-8
RK4_DT = 1e-3
RK4_T_END = 1.0


# The verdicts the constructions prove in their docstrings: what
# is_compatible, is_associated, is_decomposable and are_foliations_orthogonal
# return on the metrics built.  And the corollaries is_compatible proves.
_COMPATIBLE = Verdict.verified(COMPATIBLE_DETAIL)
_COROLLARIES = {
    f"compatible_{key}": Verdict.verified(detail)
    for key, detail in COMPATIBLE_COROLLARY_DETAILS.items()
}
_ASSOCIATED = combine_verdicts(map(Verdict.verified, ASSOCIATED_DETAILS.values()))
_DECOMPOSABLE = Verdict.verified(DECOMPOSABLE_DETAIL)
_ORTHOGONAL = Verdict.verified(ORTHOGONAL_DETAIL)


class VerbUsageError(ValueError):
    """The fixture lacks a field the requested verb needs."""


class _Context:
    """One run: the fixture, the report, and the intermediates the checks
    share, each computed at most once.  The pair memoises its axiom verdicts
    and ``d alpha_i``, the structure its decomposable verdict.  The structure
    and the metric contact pair are built with ``_of``, unchecked: every
    check that reads ``cps`` runs after ``structure`` has passed, and every
    one that reads ``mcp`` after ``associated`` has, so they pass exactly
    when the public constructors would accept.  Each metric's Christoffel
    symbols of the first kind travel inside its geodesy report to its RK4
    cross-check."""

    def __init__(self, doc: FixtureDoc, verb: str):
        self.doc = doc
        self.report = Report(doc.fixture_id, verb)

    @cached_property
    def vp(self):
        return verified_pair(self.doc.pair)

    @cached_property
    def structure_verdicts(self):
        return verify_structure(self.vp, self.doc.phi)

    @cached_property
    def cps(self):
        return ContactPairStructure._of(self.vp, self.doc.phi)

    @cached_property
    def associated(self):
        return is_associated(self.cps, self.doc.metric)

    @cached_property
    def mcp(self):
        return MetricContactPair._of(self.cps, self.doc.metric)

    @cached_property
    def orthogonal(self):
        return are_foliations_orthogonal(self.vp, self.doc.metric)

    @cached_property
    def aux(self):
        return self.doc.aux_metric or MetricField.euclidean(self.vp.space)


# --- the checks ----------------------------------------------------------------------
# Each writes its verdicts into ctx.report and returns None when the checks
# built on it may run, else the reason they may not.


def _pair(ctx: _Context) -> str | None:
    verdicts = ctx.doc.pair.axioms
    ctx.report.verdicts.update(verdicts)
    ctx.report.skipped.update(verdicts.skipped)
    return None if all(v.ok for v in verdicts.values()) else "contact pair conditions failed"


def _reeb(ctx: _Context) -> str | None:
    try:
        vp = ctx.vp
    except (ReebSolveError, FrameRankError, PairValidationError) as exc:
        ctx.report.verdicts["reeb_solve"] = Verdict.failed(str(exc))
        return str(exc)
    # reeb_fields, inside verified_pair, solved the first two identities
    # exactly (they are the rows of its system) and checked the third
    for key, detail in (
        ("reeb_normalization", "alpha_i(Z_j) = delta_ij"),
        ("reeb_contraction", "i_{Z_j} d alpha_i = 0"),
        ("reeb_commutation", "[Z1, Z2] = 0"),
    ):
        ctx.report.verdicts[key] = Verdict.verified(detail)
    names = vp.space.names
    ctx.report.outputs["reeb_fields"] = {
        f"Z{i}": [c.format(names) for c in vp.z(i).components] for i in (1, 2)
    }
    ctx.report.verdicts["splittings"] = verify_splittings(vp)
    return None


def _structure(ctx: _Context) -> str | None:
    verdicts = ctx.structure_verdicts
    ctx.report.verdicts.update({f"structure_{k}": v for k, v in verdicts.items()})
    failed = [f"structure_{k}" for k in ("phi_squared", "phi_reeb") if not verdicts[k].ok]
    if failed:
        return f"structure identities failed: {', '.join(failed)}"
    return None


def _decomposable(ctx: _Context) -> str | None:
    verdict = ctx.cps.decomposable
    ctx.report.verdicts["decomposable"] = verdict
    if not verdict.ok:
        ctx.report.skipped["induced_almost_contact"] = "requires decomposable phi"
        return "requires decomposable phi"
    for i in (1, 2):
        ctx.report.verdicts[f"induced_almost_contact_{i}"] = verify_induced_almost_contact(
            ctx.cps, i
        )
    return None


def _compatible(ctx: _Context) -> str | None:
    verdict = is_compatible(ctx.cps, ctx.doc.metric)
    ctx.report.verdicts["compatible"] = verdict
    if not verdict.ok:
        return "requires a compatible metric"
    ctx.report.verdicts.update(_COROLLARIES)
    return None


def _associated(ctx: _Context) -> str | None:
    ctx.report.verdicts["associated"] = ctx.associated.verdict
    ctx.report.verdicts["associated_skew"] = ctx.associated.verdicts["skew"]
    return None if ctx.associated.ok else "requires an associated metric"


def _orthogonal(ctx: _Context) -> None:
    ctx.report.verdicts["orthogonal"] = ctx.orthogonal


def _agreement(ctx: _Context) -> None:
    verdict = decomposability_orthogonality_agreement(ctx.cps.decomposable, ctx.orthogonal)
    ctx.report.verdicts["decomposable_orthogonal_agreement"] = verdict


def _killing(ctx: _Context) -> None:
    for i in (1, 2):
        ctx.report.verdicts[f"killing_{i}"] = killing_agreement(killing_check(ctx.mcp, i))


def _leaves(ctx: _Context) -> None:
    for i in (1, 2):
        for key, verdict in verify_restricted_contact_metric(ctx.mcp, i).items():
            ctx.report.verdicts[f"{key}_{i}"] = verdict


def _geodesy_of(ctx: _Context, g: MetricField, prefix: str) -> None:
    """Exact Reeb geodesy of ``g`` and, on a chart, the RK4 cross-check on the
    same Christoffel symbols of the first kind, raised only where a Reeb
    field meets them.  A Lie frame skips it: its fields and symbols are
    constant, so the check would only re-evaluate the constant ∇_Z Z."""
    report = ctx.report
    try:
        geo = reeb_geodesy(ctx.vp, g)
    except PreconditionError as exc:
        report.verdicts[f"{prefix}geodesic"] = Verdict.failed(str(exc))
        return
    report.verdicts[f"{prefix}geodesic"] = geo.verdicts["geodesic"]
    report.verdicts[f"{prefix}totally_geodesic"] = geo.verdicts["totally_geodesic"]
    if ctx.vp.space.is_lie:
        reason = "Lie frame: no coordinates to integrate the flow in"
        report.skipped[f"{prefix}geodesy_rk4"] = reason
        return
    start = ctx.vp.sample_points[0]
    try:
        residuals = [
            numeric_geodesic_residual(
                g, ctx.vp.z(i), start, t_end=RK4_T_END, dt=RK4_DT, data=geo.christoffel
            )
            for i in (1, 2)
        ]
    except ZeroDivisionError as exc:  # a pole on the trajectory, between sample points
        report.skipped[f"{prefix}geodesy_rk4"] = str(exc)
        return
    for i, residual in enumerate(residuals, 1):
        report.residuals[f"{prefix}geodesy_rk4_z{i}"] = residual
    worst = max(residuals)
    report.verdicts[f"{prefix}geodesy_rk4"] = (
        Verdict.verified(
            f"max residual {worst:.3e} < {RK4_TOLERANCE:.0e} "
            f"(RK4, dt={RK4_DT:g}, t in [0, {RK4_T_END:g}])"
        )
        if worst < RK4_TOLERANCE
        else Verdict.failed(f"max residual {worst:.3e}", f"exceeds the {RK4_TOLERANCE:.0e} budget")
    )


def _built(ctx: _Context) -> None:
    try:
        built = build_compatible(ctx.cps, ctx.aux)
    except MetricValidationError as exc:
        ctx.report.verdicts["built_compatible"] = Verdict.failed(str(exc))
        return
    ctx.report.verdicts["built_compatible"] = _COMPATIBLE
    names, n = ctx.vp.space.names, ctx.vp.dim
    ctx.report.outputs["built_metric"] = [
        [built.matrix.at(i, j).format(names) for j in range(n)] for i in range(n)
    ]
    _geodesy_of(ctx, built, "built_")


def _polarized(ctx: _Context) -> None:
    vp, report = ctx.vp, ctx.report
    for flag, prefix in ((False, "polarized"), (True, "polarized_decomposable")):
        try:
            phi, g = build_associated_by_polarization(vp, decomposable=flag)
        except PolarizationError as exc:
            report.verdicts[f"{prefix}_associated"] = Verdict.failed(str(exc))
            continue
        report.verdicts[f"{prefix}_associated"] = _ASSOCIATED
        report.verdicts[f"{prefix}_spd"] = _spd_at(g, vp.sample_points)
        if flag:
            decomposable, orthogonal = _DECOMPOSABLE, _ORTHOGONAL
            report.verdicts["polarized_decomposable_check"] = decomposable
            report.verdicts["polarized_decomposable_orthogonal"] = orthogonal
        else:  # the equivalence on a metric not built decomposable
            decomposable = ContactPairStructure._of(vp, phi).decomposable
            orthogonal = are_foliations_orthogonal(vp, g)
        report.verdicts[f"{prefix}_agreement"] = decomposability_orthogonality_agreement(
            decomposable, orthogonal
        )
        base = vp.sample_points[0]
        for name, tensor in (("phi", phi), ("metric", g)):
            try:
                values = tensor.eval_at(base)
            except ZeroDivisionError as exc:
                report.skipped[f"{prefix}_{name}_at_base"] = str(exc)
                continue
            report.outputs[f"{prefix}_{name}_at_base"] = [[str(x) for x in row] for row in values]


def _spd_at(g: MetricField, points: Sequence[Sequence]) -> Verdict:
    """Positive definiteness of ``g`` at each point in turn; Failed at the
    first point where it is not, or where an entry has a pole."""
    for point in points:
        try:
            if not g.is_positive_definite_at(point):
                return Verdict.failed(f"not positive definite at {format_point(point)}")
        except ZeroDivisionError as exc:
            return Verdict.failed(str(exc), "the metric has a pole at a sample point")
    return Verdict.verified("positive definite at all sample points")


# --- the registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One node of the check graph; its name in ``CHECKS`` keys its skip record.

    A check that cannot run is skipped.  Behind a ``gate`` that did not pass
    it leaves no record, since the gate's verdicts or skip say why.  Otherwise
    it records "fixture has no <field>" for a missing field it ``needs``, else
    its ``reason``, else the reason its first failed prerequisite gave; a
    prerequisite that was itself skipped gives none.
    """

    keys: tuple[str, ...]  # the report names it writes, each a name or a prefix
    run: Callable[[_Context], str | None]
    after: tuple[str, ...] = ()  # prerequisites: evaluated first, must pass
    needs: tuple[str, ...] = ()  # fixture fields; a verb naming the check requires them
    reason: str | None = None
    gate: bool = False
    gated_by: tuple[str, ...] = ()  # prerequisites only when the run has them anyway
    instead_of: str | None = None  # every-check runs include it only without this field
    refusal: str | None = None  # a verb naming it raises this instead of a skip record


# Check(keys, run, after, needs, ...), in dependency order: every prerequisite
# precedes the checks that name it.
CHECKS: dict[str, Check] = {
    "pair": Check(("volume_form", "dalpha1_power_zero", "dalpha2_power_zero"), _pair),
    "reeb": Check(("reeb_", "splittings"), _reeb, ("pair",), gate=True),
    "structure": Check(("structure_",), _structure, ("reeb",), ("phi",)),
    "decomposable": Check(
        ("decomposable", "induced_almost_contact"), _decomposable, ("structure",)
    ),
    "metric": Check((), lambda ctx: None, ("reeb",), ("metric",), gate=True),
    "compatible": Check(("compatible",), _compatible, ("structure", "metric"), ("phi",)),
    "associated": Check(("associated",), _associated, ("structure", "metric"), ("phi",)),
    "orthogonal": Check(("orthogonal",), _orthogonal, ("metric",)),
    "decomposable_orthogonal_agreement": Check(
        ("decomposable_orthogonal_agreement",), _agreement, ("structure", "associated"), ("phi",)
    ),
    "killing": Check(("killing_",), _killing, ("structure", "associated", "compatible"), ("phi",)),
    "leaves": Check(
        ("leaf_",),
        _leaves,
        ("associated", "compatible", "decomposable"),
        reason="requires an associated metric and decomposable phi",
    ),
    "geodesy": Check(
        ("geodesic", "totally_geodesic", "geodesy_rk4"),
        lambda ctx: _geodesy_of(ctx, ctx.doc.metric, ""),
        ("metric",),
        gated_by=("compatible",),
        reason="requires a compatible metric",
    ),
    "built_compatible": Check(
        ("built_",),
        _built,
        ("structure",),
        ("phi",),
        instead_of="metric",
        refusal="build-compatible needs a valid phi",
    ),
    "polarized": Check(("polarized",), _polarized, ("reeb",), instead_of="metric"),
}

# verb -> the checks it reports; None: every check that applies.
VERBS: dict[str, tuple[str, ...] | None] = {
    "verify-pair": ("pair",),
    "reeb": ("reeb",),
    "verify-structure": ("structure",),
    "decomposable": ("decomposable",),
    "compatible": ("compatible",),
    "associated": ("compatible", "associated"),
    "orthogonal": ("orthogonal",),
    "build-compatible": ("built_compatible",),
    "polarize": ("polarized",),
    "geodesy": ("geodesy",),
    "killing": ("killing",),
    "leaves": ("leaves",),
    "theorems": None,
    "report": None,
}


def _checks_to_run(doc: FixtureDoc, targets: tuple[str, ...] | None) -> list[str]:
    """The targets and their transitive prerequisites, in registry order."""
    if targets is None:
        return [n for n, c in CHECKS.items() if not (c.instead_of and getattr(doc, c.instead_of))]
    wanted = set(targets)
    for name in reversed(CHECKS):  # backwards, a check comes before its prerequisites
        if name in wanted:
            wanted.update(CHECKS[name].after)
    return [name for name in CHECKS if name in wanted]


def _evaluate(ctx: _Context, verb: str) -> None:
    """Run the verb's checks into ``ctx.report``, recording why a check that
    cannot run was skipped and, under ``timings``, how long each check that
    ran took (``check.<name>_s``)."""
    targets = VERBS[verb]
    names = _checks_to_run(ctx.doc, targets)
    if targets is not None:
        for name in names:
            for field in CHECKS[name].needs:
                if getattr(ctx.doc, field) is None:
                    raise VerbUsageError(f"verb {verb!r} needs a {field} entry in the fixture")
    passed: set[str] = set()
    failed: dict[str, str] = {}  # check -> the reason its dependents are skipped
    silenced: set[str] = set()  # checks behind a gate that did not pass
    for name in names:
        check = CHECKS[name]
        prereqs = check.after + tuple(p for p in check.gated_by if p in names)
        if any(p in silenced or (CHECKS[p].gate and p not in passed) for p in prereqs):
            silenced.add(name)
            continue
        missing = next((f for f in check.needs if getattr(ctx.doc, f) is None), None)
        if missing:
            ctx.report.skipped[name] = f"fixture has no {missing}"
            continue
        blocker = next((p for p in prereqs if p not in passed), None)
        if blocker is None:
            started = time.perf_counter()
            why = check.run(ctx)
            ctx.report.timings[f"check.{name}_s"] = time.perf_counter() - started
            if why is None:
                passed.add(name)
            else:
                failed[name] = why
            continue
        record = check.reason or failed.get(blocker)
        if record is None:
            continue  # the prerequisite's own skip record says why
        if targets is not None and name in targets and check.refusal:
            raise VerbUsageError(check.refusal)
        ctx.report.skipped[name] = record


def _filter_report(report: Report, verb: str) -> Report:
    """Keep what the verb's checks wrote under their names and keys, plus the
    failed verdicts of the prerequisites the run evaluated (a verb cannot exit
    0 when the checks it builds on are broken)."""
    targets = VERBS[verb]
    if targets is None:
        return report
    keys = (*targets, *(key for name in targets for key in CHECKS[name].keys))
    report.verdicts = {
        name: v for name, v in report.verdicts.items() if name.startswith(keys) or not v.ok
    }
    report.residuals = {n: x for n, x in report.residuals.items() if n.startswith(keys)}
    report.skipped = {n: why for n, why in report.skipped.items() if n.startswith(keys)}
    report.outputs = {n: x for n, x in report.outputs.items() if n.startswith(keys)}
    return report


def _with_samples(doc: FixtureDoc, count: int, seed: int) -> FixtureDoc:
    """The fixture reloaded with ``count`` seeded random rational sample
    points appended to the declared ones, so that they pass the same
    validation."""
    rng = random.Random(seed)
    extra = [
        [str(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(doc.space.dim)]
        for _ in range(count)
    ]
    return load_fixture_dict(dict(doc.raw, sample_points=[*doc.raw["sample_points"], *extra]))


def run(verb: str, fixture, samples: int = 0, seed: int = 0) -> Report:
    """Programmatic entry point: load a fixture, run a verb, return the Report."""
    if verb not in VERBS:
        raise VerbUsageError(f"unknown verb {verb!r}; choose from {', '.join(VERBS)}")
    doc = load_fixture(fixture)
    if samples:
        doc = _with_samples(doc, samples, seed)
    started = time.perf_counter()
    ctx = _Context(doc, verb)
    _evaluate(ctx, verb)
    report = _filter_report(ctx.report, verb)
    report.timings["total_s"] = time.perf_counter() - started
    return report


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, the code of every input error, instead of
    argparse's 2, which is the SampleVerified code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contactpairs",
        usage="%(prog)s <verb> <fixture.json> [--out report.json] [--samples N] [--seed S]",
        description="Verify contact pairs, contact pair structures, and their "
        "compatible/associated metrics on chart or Lie-frame fixtures.",
    )
    parser.add_argument("verb", choices=VERBS, metavar="verb", help=f"one of {', '.join(VERBS)}")
    parser.add_argument("fixture", type=Path, help="fixture JSON file")
    parser.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    parser.add_argument(
        "--samples", type=int, default=0, help="extra random sample points to append"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for --samples")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.samples < 0:
        parser.error(f"argument --samples: {args.samples} is negative")
    try:
        report = run(args.verb, args.fixture, samples=args.samples, seed=args.seed)
    except (FixtureError, VerbUsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    text = render_report(report)
    if args.out is not None:
        try:
            args.out.write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    if args.verb == "report":
        print(text)
    else:
        for line in report.summary_lines():
            print(line)
        print(f"overall: {report.status().value}")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
