"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from pathlib import Path

import pytest

from contactpairs.cli import run
from contactpairs.connection import christoffel, numeric_geodesic_residual, reeb_geodesy
from contactpairs.exterior import (
    MetricField,
    Space,
    bracket,
    ext_d,
    interior,
    lie_derivative,
    wedge,
)
from contactpairs.fixtures import bundled_fixture_path, load_fixture
from contactpairs.metric import (
    MetricContactPair,
    are_foliations_orthogonal,
    build_associated_by_polarization,
    build_compatible,
    decomposability_orthogonality_agreement,
    is_associated,
    is_compatible,
    verify_restricted_contact_metric,
)
from contactpairs.pair import Status, reeb_fields, verified_pair
from contactpairs.structure import ContactPairStructure, is_decomposable

from conftest import (
    chart_rung,
    compatible_corollaries,
    covariant_derivative,
    levi_civita_violation,
    random_form,
    random_poly,
    random_spd_matrix,
    random_vector_field,
    second_kind,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"
RK4_TOL = 1e-8


def _report(criterion: str, passed: bool, detail: str = ""):
    marker = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {marker}" + (f": {detail}" if detail else ""))
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def docs():
    return {
        name: load_fixture(bundled_fixture_path(name))
        for name in ("local_model_1_1", "r6_example", "nilpotent_g6")
    }


@pytest.fixture(scope="module")
def structures(docs):
    out = {}
    for name, doc in docs.items():
        vp = verified_pair(doc.pair)
        cps = ContactPairStructure(vp, doc.phi)
        out[name] = (cps, doc.metric)
    flat = load_fixture(FIXTURE_DIR / "flat2_mcp.json")
    out["flat2_mcp"] = (
        ContactPairStructure(verified_pair(flat.pair), flat.phi),
        flat.metric,
    )
    return out


def test_criterion_1_paper_fixture_suite(docs):
    started = time.perf_counter()
    reports = {
        name: run("theorems", bundled_fixture_path(name))
        for name in ("local_model_1_1", "r6_example", "nilpotent_g6")
    }
    elapsed = time.perf_counter() - started

    nil = reports["nilpotent_g6"]
    ok = nil.exit_code() == 0 and all(
        v.status is Status.VERIFIED for v in nil.verdicts.values()
    )

    local = reports["local_model_1_1"]
    ok = ok and local.exit_code() <= 2 and all(v.ok for v in local.verdicts.values())

    r6 = reports["r6_example"]
    failed = {k for k, v in r6.verdicts.items() if not v.ok}
    ok = ok and failed == {"associated", "decomposable"} and r6.exit_code() == 1
    ok = ok and all(
        v.status is Status.VERIFIED
        for k, v in r6.verdicts.items()
        if k not in failed
    )
    ok = ok and elapsed < 10.0
    _report(
        "1",
        ok,
        f"nilpotent exit {nil.exit_code()}, local model exit {local.exit_code()}, "
        f"r6 exit {r6.exit_code()} failing exactly {sorted(failed)}; {elapsed:.2f}s total",
    )


def test_criterion_2_reeb_exactness(docs):
    pairs = [doc.pair for doc in docs.values()]
    for extra in ("twisted.json", "flat2_mcp.json"):
        pairs.append(load_fixture(FIXTURE_DIR / extra).pair)
    checked = 0
    for pair in pairs:
        z1, z2 = reeb_fields(pair)
        for i in (1, 2):
            alpha, dalpha = pair.alpha(i), pair.dalpha(i)
            for j, z in ((1, z1), (2, z2)):
                expected = pair.space.one() if i == j else pair.space.zero()
                assert alpha(z) == expected
                assert dalpha.contract(z).is_zero()
        assert bracket(z1, z2).is_zero()
        checked += 1
    _report("2", True, f"alpha_i(Z_j) = delta_ij, i_Z dalpha = 0, [Z1,Z2] = 0 "
                       f"identically on {checked} fixtures")


def test_criterion_3_geodesy_theorem(structures):
    cases = []
    for name in ("r6_example", "nilpotent_g6", "flat2_mcp"):
        cps, g = structures[name]
        cases.append((name, cps, g))
    # a chart fixture with no bundled metric: use the compatible construction
    cps_local, _ = structures["local_model_1_1"]
    cases.append(
        ("local_model_1_1+built", cps_local,
         build_compatible(cps_local, MetricField.euclidean(cps_local.space)))
    )

    worst_rk4 = 0.0
    for name, cps, g in cases:
        assert is_compatible(cps, g).status is Status.VERIFIED, name
        report = reeb_geodesy(cps.vp, g)
        for key, verdict in report.verdicts.items():
            assert verdict.status is Status.VERIFIED, (name, key, verdict)
        for ij, field in report.derivatives.items():
            assert field.is_zero(), (name, ij)
        for ij, field in report.second_fundamental.items():
            assert field.is_zero(), (name, ij)
        data = christoffel(g)
        for i in (1, 2):
            residual = numeric_geodesic_residual(
                g, cps.vp.z(i), cps.vp.sample_points[0], t_end=1.0, dt=1e-3, data=data
            )
            assert residual < RK4_TOL, (name, i, residual)
            worst_rk4 = max(worst_rk4, residual)
    _report(
        "3",
        True,
        f"∇_Z Z = 0 and B = 0 symbolically on {len(cases)} compatible metrics; "
        f"worst RK4 residual {worst_rk4:.2e} < {RK4_TOL:.0e}",
    )


def test_criterion_4_equivalence_theorem(structures):
    # exact MCP fixtures
    for name in ("nilpotent_g6", "flat2_mcp"):
        cps, g = structures[name]
        verdict = decomposability_orthogonality_agreement(
            cps.decomposable, are_foliations_orthogonal(cps.vp, g)
        )
        assert verdict.status is Status.VERIFIED, (name, verdict)

    # both polarizations: per block both sides hold, jointly both fail
    pairs = [structures[name][0].vp for name in ("nilpotent_g6", "local_model_1_1")]
    pairs += [
        verified_pair(load_fixture(FIXTURE_DIR / "oblique_g6.json").pair),
        verified_pair(chart_rung(2, 2).pair),
    ]
    for vp in pairs:
        for flag in (False, True):
            phi, g = build_associated_by_polarization(vp, decomposable=flag)
            cps_new = ContactPairStructure(vp, phi)
            assert is_associated(cps_new, g).verdict.status is Status.VERIFIED, vp
            dec = is_decomposable(cps_new)
            orth = are_foliations_orthogonal(vp, g)
            expected = Status.VERIFIED if flag else Status.FAILED
            assert (dec.status, orth.status) == (expected, expected), (vp.space, flag)
            agreement = decomposability_orthogonality_agreement(dec, orth)
            assert agreement.status is Status.VERIFIED, (vp.space, flag, agreement)
    _report(
        "4",
        True,
        f"decomposability ⟺ orthogonality on 2 exact MCPs and on both polarizations "
        f"of {len(pairs)} pairs (per block both hold, jointly both fail)",
    )


def test_criterion_5_constructors(structures):
    rng = random.Random(20240915)
    built = 0
    for name in ("r6_example", "nilpotent_g6", "local_model_1_1"):
        cps, _ = structures[name]
        for _ in range(20):
            h_aux = MetricField(cps.space, random_spd_matrix(rng, 6, 6))
            g = build_compatible(cps, h_aux)
            assert is_compatible(cps, g).status is Status.VERIFIED, name
            for point in cps.sample_points:
                assert g.is_positive_definite_at(point), (name, point)
            built += 1

    polarized = 0
    for name in ("nilpotent_g6", "local_model_1_1"):
        cps, _ = structures[name]
        vp = cps.vp
        for flag in (False, True):
            phi, g = build_associated_by_polarization(vp, decomposable=flag)
            cps_new = ContactPairStructure(vp, phi)
            report = is_associated(cps_new, g)
            assert report.verdict.status is Status.VERIFIED, (name, flag, report.verdict)
            for point in vp.sample_points:
                assert g.is_positive_definite_at(point), (name, flag, point)
            if flag:
                assert is_decomposable(cps_new).ok, name
            polarized += 1
    _report(
        "5",
        True,
        f"build_compatible exact and positive definite on {built} random SPD auxiliaries; "
        f"polarization exactly associated on {polarized} runs",
    )


def test_criterion_6_leafwise_structures(structures):
    cps, g = structures["nilpotent_g6"]
    mcp = MetricContactPair(cps, g)
    results = {
        (i, key): verdict
        for i in (1, 2)
        for key, verdict in verify_restricted_contact_metric(mcp, i).items()
    }
    assert len(results) == 4
    for label, verdict in results.items():
        assert verdict.status is Status.VERIFIED, (label, verdict)
    _report("6", True, "restricted structures exact on both TF frames and both "
                       "ker d alpha frames of the nilpotent fixture")


def test_criterion_7_calculus_engine():
    rng = random.Random(20240916)

    for _ in range(100):  # d∘d = 0
        dim = rng.choice([2, 3, 4])
        space = Space.chart([f"c{i}" for i in range(dim)])
        form = random_form(rng, space, rng.randrange(dim))
        assert ext_d(ext_d(form)).is_zero()

    for _ in range(100):  # Cartan formula
        dim = rng.choice([2, 3])
        space = Space.chart([f"c{i}" for i in range(dim)])
        form = random_form(rng, space, rng.randrange(1, dim))
        field = random_vector_field(rng, space)
        assert lie_derivative(field, form) == interior(field, ext_d(form)) + ext_d(
            interior(field, form)
        )

    for _ in range(100):  # Leibniz rule
        space = Space.chart(["u", "v", "w"])
        p = rng.choice([0, 1])
        a = random_form(rng, space, p)
        b = random_form(rng, space, 1)
        signed = wedge(a, ext_d(b))
        rhs = wedge(ext_d(a), b) + (signed if p % 2 == 0 else -signed)
        assert ext_d(wedge(a, b)) == rhs

    for trial in range(100):  # torsion-freeness and metric compatibility, exact
        space = Space.chart(["u", "v"])
        p = random_poly(rng, 2, max_degree=1, max_terms=2)
        g = MetricField(
            space,
            [[(p * p) + 1, p], [p, (p * p) + 2]],
        )
        data = christoffel(g)
        assert levi_civita_violation(data) is None, trial
        x = random_vector_field(rng, space)
        y = random_vector_field(rng, space)
        gammas = second_kind(data)
        torsion = (
            covariant_derivative(gammas, x, y)
            - covariant_derivative(gammas, y, x)
            - bracket(x, y)
        )
        assert torsion.is_zero(), trial

    _report("7", True, "d∘d, Cartan, Leibniz, torsion/metric-compatibility: "
                       "100 exact randomized checks each")


def test_criterion_8_compatible_corollaries(structures):
    rng = random.Random(20240917)
    count = 0
    for name, (cps, g) in structures.items():
        metrics = []
        if g is not None and is_compatible(cps, g).ok:
            metrics.append(g)
        metrics.append(build_compatible(cps, MetricField.euclidean(cps.space)))
        metrics.append(
            build_compatible(cps, MetricField(cps.space, random_spd_matrix(rng, cps.space.dim, cps.space.dim)))
        )
        for metric in metrics:
            assert is_compatible(cps, metric).ok
            for key, verdict in compatible_corollaries(cps, metric).items():
                assert verdict.status is Status.VERIFIED, (name, key, verdict)
            count += 1
    _report(
        "8",
        True,
        f"g(Z_i, X) = alpha_i(X) and g(Z_i, Z_j) = delta_ij derived exactly for "
        f"{count} compatible metrics",
    )
