"""Compatible/associated metrics, the two constructions, orthogonality,
Killing fields, and leafwise restriction."""

import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactpairs.algebra import (
    InconsistentSystemError,
    RatFun,
    RfMatrix,
    pfaffian_minor,
    solve_linear_exact,
)
from contactpairs.exterior import EndoField, Form, MetricField, Space, VectorField
from contactpairs.fixtures import FixtureError, bundled_fixture_names
from contactpairs.metric import (
    MetricContactPair,
    MetricValidationError,
    PolarizationError,
    _darboux_frame,
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
from contactpairs.pair import ContactPair, Status, column_matrix, kernel_frame, verified_pair
from contactpairs.structure import ContactPairStructure, PreconditionError, is_decomposable
from contactpairs.verdicts import Verdict, combine_verdicts, residual_verdict

from conftest import (
    FLAT2_SAMPLES,
    LOCAL_MODEL_SAMPLES,
    NILPOTENT_SAMPLES,
    R6_SAMPLES,
    build_flat2_forms,
    build_flat2_space,
    build_local_model_forms,
    build_local_model_phi,
    build_local_model_space,
    build_nilpotent_forms,
    build_nilpotent_metric,
    build_nilpotent_phi,
    build_nilpotent_space,
    build_r6_forms,
    build_r6_metric,
    build_r6_phi,
    build_r6_space,
    compatible_corollaries,
    fixture_doc,
    random_spd_matrix,
)


@pytest.fixture(scope="module")
def r6():
    s = build_r6_space()
    a1, a2 = build_r6_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 1, 1, tuple(R6_SAMPLES)))
    cps = ContactPairStructure(vp, build_r6_phi(s))
    return cps, build_r6_metric(s)


@pytest.fixture(scope="module")
def nilpotent():
    s = build_nilpotent_space()
    a1, a2 = build_nilpotent_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 1, 1, tuple(NILPOTENT_SAMPLES)))
    cps = ContactPairStructure(vp, build_nilpotent_phi(s))
    return cps, build_nilpotent_metric(s)


@pytest.fixture(scope="module")
def local_model():
    s = build_local_model_space()
    a1, a2 = build_local_model_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 1, 1, tuple(LOCAL_MODEL_SAMPLES)))
    return ContactPairStructure(vp, build_local_model_phi(s))


@pytest.fixture(scope="module")
def flat2():
    s = build_flat2_space()
    a1, a2 = build_flat2_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 0, 0, tuple(FLAT2_SAMPLES)))
    cps = ContactPairStructure(vp, EndoField.zero_field(s))
    return cps, MetricField.euclidean(s)


# --- compatibility -----------------------------------------------------------------


def test_r6_reference_metric_is_compatible(r6):
    cps, g = r6
    assert is_compatible(cps, g).status is Status.VERIFIED


def test_euclidean_fails_compatibility_on_r6(r6):
    cps, _ = r6
    verdict = is_compatible(cps, MetricField.euclidean(cps.space))
    assert verdict.status is Status.FAILED
    # witness: the (y1, y1) entry, where the residual is x1^2 + x2^2
    assert "(1,1)" in verdict.witness


def test_associated_reeb_witness_pinned(r6):
    """On 2g, g(Z_i, ·) = alpha_i fails at the first nonzero entry of
    Z^T G - α in row order, named by its Reeb field and coordinate."""
    cps, g = r6
    report = is_associated(cps, MetricField(cps.space, g.matrix.scaled(2)))
    assert report.verdicts["reeb"].witness == "g(Z1, e_y1) - alpha1[1] = -x1"


def test_compatible_corollaries_hold(r6, nilpotent, flat2):
    """The residuals of the corollaries is_compatible proves vanish
    (``compatible_corollaries`` is the test-side reference)."""
    for cps, g in (r6, nilpotent, flat2):
        assert is_compatible(cps, g).ok
        for name, verdict in compatible_corollaries(cps, g).items():
            assert verdict.status is Status.VERIFIED, (name, verdict)


# --- associatedness ------------------------------------------------------------------


def test_nilpotent_metric_is_associated(nilpotent):
    cps, g = nilpotent
    report = is_associated(cps, g)
    assert report.verdict.status is Status.VERIFIED
    assert report.verdicts["pairing"].status is Status.VERIFIED
    assert report.verdicts["skew"].status is Status.VERIFIED


def test_r6_metric_is_compatible_but_not_associated(r6):
    cps, g = r6
    assert is_compatible(cps, g).ok
    report = is_associated(cps, g)
    assert report.verdict.status is Status.FAILED


def test_nilpotent_sign_sanity(nilpotent):
    """g(X1, phi X4) = 1 = (d w2 + d w3)(X1, X4) under the determinant pairing."""
    cps, g = nilpotent
    vp = cps.vp
    s = cps.space
    x1 = VectorField.basis(s, 0)
    x4 = VectorField.basis(s, 3)
    lhs = g.value(x1, cps.phi.apply(x4))
    rhs = (vp.pair.dalpha(1) + vp.pair.dalpha(2))(x1, x4)
    assert lhs == s.one()
    assert rhs == s.one()


def test_associated_implies_compatible(nilpotent, flat2):
    for cps, g in (nilpotent, flat2):
        assert is_associated(cps, g).ok
        assert is_compatible(cps, g).status is Status.VERIFIED


def test_mcp_constructor_enforces_associatedness(r6, nilpotent):
    cps, g = nilpotent
    MetricContactPair(cps, g)  # fine
    cps_bad, g_bad = r6
    with pytest.raises(MetricValidationError):
        MetricContactPair(cps_bad, g_bad)


def test_combine_verdicts():
    verified = Verdict.verified("a")
    sampled = Verdict.sample_verified(3, "b")
    failed = Verdict.failed("w", "c")
    assert combine_verdicts([verified, sampled]) == Verdict(
        Status.SAMPLE_VERIFIED, "a; b", points_checked=3
    )
    assert combine_verdicts([verified, sampled], detail="d").detail == "d"
    assert combine_verdicts([verified, failed, sampled]) == Verdict(
        Status.FAILED, "c", witness="w"
    )
    assert combine_verdicts([]) == Verdict(Status.VERIFIED)


def test_residual_verdict_labels_only_its_witness():
    """A residual matrix is scanned in row order: the first nonzero entry is
    the witness, printed in the coordinate names, and ``label`` is called for
    it alone, and not at all when every entry is zero."""
    space = Space.chart(["x", "y"])
    zero, x, y = space.zero(), space.coordinate(0), space.coordinate(1)
    pair = types.SimpleNamespace(space=space)
    calls = []

    def label(i, j):
        calls.append((i, j))
        return f"r[{i}][{j}]"

    residual = RfMatrix(2, [[zero, zero, zero], [zero, y, x], [x, zero, y]])
    assert residual_verdict(residual, pair, "d", label) == Verdict.failed("r[1][1] = y", "d")
    assert calls == [(1, 1)]
    assert residual_verdict(residual, pair).witness == "entry (1,1) = y"
    assert residual_verdict(RfMatrix.zeros(2, 3, 2), pair, "d", label) == Verdict.verified("d")
    assert calls == [(1, 1)]


# --- build_compatible -----------------------------------------------------------------


def test_build_compatible_from_euclidean_on_r6(r6):
    cps, _ = r6
    g = build_compatible(cps, MetricField.euclidean(cps.space))
    assert is_compatible(cps, g).status is Status.VERIFIED
    for point in cps.sample_points:
        assert g.is_positive_definite_at(point)


def test_build_compatible_idempotent_input_on_nilpotent(nilpotent):
    cps, g = nilpotent
    rebuilt = build_compatible(cps, g)
    assert is_compatible(cps, rebuilt).status is Status.VERIFIED


def test_build_compatible_randomized(local_model, rng):
    cps = local_model
    for _ in range(20):
        h_aux = MetricField(cps.space, random_spd_matrix(rng, 6, 6))
        g = build_compatible(cps, h_aux)
        assert is_compatible(cps, g).status is Status.VERIFIED
        assert g.is_positive_definite_at(cps.sample_points[0])


def test_build_compatible_rejects_degenerate_aux(r6):
    cps, _ = r6
    degenerate = MetricField(cps.space, RfMatrix.zeros(6, 6, 6))
    with pytest.raises(MetricValidationError, match="positive definite"):
        build_compatible(cps, degenerate)


# --- polarization ------------------------------------------------------------------------


def _omega(m, nvars):
    """The standard symplectic matrix: ω(e_p, f_p) = 1 on the pairs (2p, 2p + 1)."""
    return RfMatrix(nvars, [
        [(j == i + 1 and i % 2 == 0) - (i == j + 1 and j % 2 == 0) for j in range(m)]
        for i in range(m)
    ])


def test_darboux_frame_of_the_standard_form():
    omega = _omega(4, 1)
    assert _darboux_frame(omega) == RfMatrix.identity(4, 1)


def test_darboux_frame_rejects_a_degenerate_form():
    with pytest.raises(PolarizationError, match="degenerate"):
        _darboux_frame(RfMatrix.zeros(2, 2, 1))
    x = RatFun.variable(1, 0)
    rank_two = RfMatrix(1, [[0, x, 0], [-x, 0, 0], [0, 0, 0]])  # odd order: never full rank
    with pytest.raises(PolarizationError, match="degenerate"):
        _darboux_frame(rank_two)


def _entry(a, b, c):
    """a + bx, or (a + bx)/(x + c) for c != 0."""
    x = RatFun.variable(1, 0)
    return (a + b * x) / (x + c) if c else a + b * x


_entries = st.builds(_entry, st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([0, 1, 2]))


@pytest.mark.parametrize("m", [2, 4, 6, 8])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_darboux_frame_is_symplectic(m, data):
    """On a random nondegenerate skew S over Q(x), with entries (a + bx) or
    (a + bx)/(x + c), the frame D satisfies DᵀSD = Ω exactly."""
    upper = {(i, j): data.draw(_entries) for i in range(m) for j in range(i + 1, m)}
    s = RfMatrix(1, [
        [upper[i, j] if i < j else -upper[j, i] if j < i else 0 for j in range(m)]
        for i in range(m)
    ])
    # nondegenerate where its value at x = 1/3 is: a cheap sufficient test
    assume(not pfaffian_minor(RfMatrix(1, s.eval_at([Fraction(1, 3)])), m // 2)[0].is_zero())
    d = _darboux_frame(s)
    assert d.transpose() @ s @ d == _omega(m, 1)


POLARIZATION_CASES = ["nilpotent_g6", "local_model_1_1", "oblique_g6", "chart_2_2"]


@pytest.mark.parametrize("name", POLARIZATION_CASES)
def test_per_block_polarization_is_decomposable_and_orthogonal(name):
    """Every Darboux pair of the per-block frame lies in one TG block, so
    phi is decomposable and the characteristic foliations are orthogonal."""
    vp = verified_pair(fixture_doc(name).pair)
    phi, g = build_associated_by_polarization(vp, decomposable=True)
    cps = ContactPairStructure(vp, phi)
    assert is_associated(cps, g).verdict.status is Status.VERIFIED
    assert is_decomposable(cps).status is Status.VERIFIED
    assert are_foliations_orthogonal(vp, g).status is Status.VERIFIED
    agreement = decomposability_orthogonality_agreement(
        cps.decomposable, are_foliations_orthogonal(vp, g)
    )
    assert agreement.detail.endswith("(both hold)")


@pytest.mark.parametrize("name", POLARIZATION_CASES)
def test_joint_polarization_fails_both_sides_of_the_agreement(name):
    """The joint frame starts from TG1[0] + TG2[0], which mixes the blocks:
    phi is not decomposable and the foliations are not orthogonal, and the
    equivalence theorem holds on its "both fail" side."""
    vp = verified_pair(fixture_doc(name).pair)
    phi, g = build_associated_by_polarization(vp, decomposable=False)
    cps = ContactPairStructure(vp, phi)
    assert is_associated(cps, g).verdict.status is Status.VERIFIED
    assert is_decomposable(cps).status is Status.FAILED
    assert are_foliations_orthogonal(vp, g).status is Status.FAILED
    agreement = decomposability_orthogonality_agreement(
        cps.decomposable, are_foliations_orthogonal(vp, g)
    )
    assert agreement.status is Status.VERIFIED
    assert agreement.detail.endswith("(both fail)")


def test_both_polarizations_invert_the_adapted_basis_once(local_model, monkeypatch):
    """The inverse of the adapted basis [B | Z1 Z2] is written down, not
    computed: the rows [−ΩBᵀW ; A] invert it, so neither the joint nor the
    per-block polarization makes any ``RfMatrix.inverse`` call."""
    vp = verified_pair(local_model.vp.pair)
    inverted = []
    inverse = RfMatrix.inverse
    monkeypatch.setattr(RfMatrix, "inverse", lambda m: inverted.append(m) or inverse(m))
    for decomposable in (False, True):
        build_associated_by_polarization(vp, decomposable=decomposable)
    assert inverted == []


def test_polarization_recovers_nilpotent_reference(nilpotent):
    cps, g_ref = nilpotent
    vp = cps.vp
    phi, g = build_associated_by_polarization(vp, decomposable=True)
    assert phi.matrix == cps.phi.matrix
    assert g.matrix == g_ref.matrix
    cps_new = ContactPairStructure(vp, phi)
    report = is_associated(cps_new, g)
    assert report.ok
    assert is_decomposable(cps_new).ok


def test_polarization_local_model(local_model):
    cps = local_model
    vp = cps.vp
    phi, g = build_associated_by_polarization(vp, decomposable=False)
    cps_new = ContactPairStructure(vp, phi)
    report = is_associated(cps_new, g)
    assert report.verdict.status is Status.VERIFIED, report.verdict
    for point in vp.sample_points:
        assert g.is_positive_definite_at(point)


def test_polarization_decomposable_flag(local_model):
    cps = local_model
    vp = cps.vp
    phi, g = build_associated_by_polarization(vp, decomposable=True)
    cps_new = ContactPairStructure(vp, phi)
    assert is_decomposable(cps_new).status is Status.VERIFIED
    assert is_associated(cps_new, g).verdict.status is Status.VERIFIED


# --- orthogonality ---------------------------------------------------------------------


def test_r6_foliations_orthogonal_for_reference_metric(r6):
    cps, g = r6
    assert are_foliations_orthogonal(cps.vp, g).status is Status.VERIFIED


def test_nilpotent_foliations_orthogonal(nilpotent):
    cps, g = nilpotent
    assert are_foliations_orthogonal(cps.vp, g).status is Status.VERIFIED


def test_perturbed_metric_breaks_orthogonality(r6):
    cps, g = r6
    entries = [list(row) for row in g.matrix.entries]
    entries[0][2] = entries[2][0] = cps.space.one()  # dx1·dx2 cross term
    g_bad = MetricField(cps.space, entries)
    verdict = are_foliations_orthogonal(cps.vp, g_bad)
    assert verdict.status is Status.FAILED
    assert verdict.witness


def test_equivalence_on_exact_fixtures(nilpotent, flat2):
    for cps, g in (nilpotent, flat2):
        agreement = decomposability_orthogonality_agreement(
            cps.decomposable, are_foliations_orthogonal(cps.vp, g)
        )
        assert agreement.status is Status.VERIFIED


# --- Killing fields -----------------------------------------------------------------------


def test_killing_check_nilpotent(nilpotent):
    cps, g = nilpotent
    mcp = MetricContactPair(cps, g)
    for i in (1, 2):
        results = killing_check(mcp, i)
        assert results["lie_g_zero"].status is Status.VERIFIED
        assert results["lie_phi_zero"].status is Status.VERIFIED
        assert killing_agreement(results).status is Status.VERIFIED


def test_killing_check_requires_associated(r6):
    """The check takes a MetricContactPair, which refuses a metric that is
    not associated."""
    cps, g = r6
    with pytest.raises(MetricValidationError):
        killing_check(MetricContactPair(cps, g), 1)


def test_killing_check_flat2(flat2):
    cps, g = flat2
    mcp = MetricContactPair(cps, g)
    for i in (1, 2):
        results = killing_check(mcp, i)
        assert killing_agreement(results).status is Status.VERIFIED


def test_killing_agreement_detects_mismatch():
    """Plumbing check: a disagreement between the two vanishing verdicts is
    reported as a violation (unreachable for genuinely associated data)."""
    from contactpairs.verdicts import Verdict

    mismatched = {
        "lie_g_zero": Verdict.verified(),
        "lie_phi_zero": Verdict.failed("entry (0,0) = 1"),
    }
    verdict = killing_agreement(mismatched)
    assert verdict.status is Status.FAILED


def test_polarization_with_empty_blocks():
    """Type (0,0): both characteristic subbundles are zero, so polarization
    reduces to phi = 0 and the Reeb-dual metric."""
    from contactpairs.exterior import Space
    from contactpairs.pair import ContactPair, verified_pair
    from contactpairs.exterior import Form

    space = Space.lie_frame(["w1", "w2"], differentials={})
    alpha1 = Form(space, 1, {(0,): 1})
    alpha2 = Form(space, 1, {(1,): 1})
    vp = verified_pair(
        ContactPair(space, alpha1, alpha2, 0, 0, ((Fraction(0), Fraction(0)),))
    )
    phi, g = build_associated_by_polarization(vp, decomposable=True)
    assert phi.matrix.is_zero()
    assert g.matrix == RfMatrix.identity(2, 2)
    cps = ContactPairStructure(vp, phi)
    assert is_associated(cps, g).verdict.status is Status.VERIFIED


# --- leafwise restriction --------------------------------------------------------------------


def test_leaf_contact_metric_nilpotent(nilpotent):
    cps, g = nilpotent
    mcp = MetricContactPair(cps, g)
    for i, leaf in ((1, "TF2"), (2, "TF1")):
        verdict = verify_restricted_contact_metric(mcp, i)["leaf_contact_metric"]
        assert verdict.status is Status.VERIFIED, verdict
        assert verdict.detail.endswith(f"(alpha{i}, Z{i}, phi, g) on {leaf}")


def test_leaf_mcp_nilpotent(nilpotent):
    cps, g = nilpotent
    mcp = MetricContactPair(cps, g)
    v2 = verify_restricted_contact_metric(mcp, 2)["leaf_mcp"]
    assert v2.status is Status.VERIFIED
    assert "type (1, 0)" in v2.detail
    v1 = verify_restricted_contact_metric(mcp, 1)["leaf_mcp"]
    assert v1.status is Status.VERIFIED
    assert "type (0, 1)" in v1.detail


def test_leaf_restriction_requires_decomposable(r6, nilpotent):
    cps_r6, _ = r6
    cps_nil, g_nil = nilpotent
    mcp = MetricContactPair(cps_nil, g_nil)
    object.__setattr__(mcp, "cps", cps_r6)  # splice a non-decomposable phi
    with pytest.raises(PreconditionError):
        verify_restricted_contact_metric(mcp, 1)


def _solves(f: RfMatrix, columns: RfMatrix) -> bool:
    """F x = c has an exact solution for every column c."""
    try:
        for q in range(columns.cols):
            solve_linear_exact(f, columns.column(q))
    except InconsistentSystemError:
        return False
    return True


def test_leaf_invariance_membership_agrees_with_frame_solve():
    """The leaf checks take their frames from the leaf index and re-check
    nothing about them; this is the oracle for what they rely on.  On every
    verifiable fixture with decomposable phi, chart rung (1,1) and Lie rung
    (3,3), for i = 1, 2: Z_i lies in TF_j (j != i) and Z1, Z2 lie in
    kernel_frame(pair, i), whose size is the dimension 2h' + 2k' + 2 of the
    induced type (h', k'), and F x = phi F has an exact solution for both
    frames F.  Each membership is an exact solve, not the frames' own
    equations.  The frame (Z1, TG2[0]) is the control: phi maps it out of
    its span."""
    names = [n.removesuffix(".json") for n in bundled_fixture_names()]
    names += sorted(p.stem for p in (Path(__file__).parent / "fixtures").glob("*.json"))
    names += ["chart_1_1", "lie_3_3"]
    checked = []
    for name in names:
        try:
            doc = fixture_doc(name)
            if doc.phi is None:
                continue
            cps = ContactPairStructure(verified_pair(doc.pair), doc.phi)
        except (FixtureError, ValueError, RuntimeError):
            continue
        if not cps.decomposable.ok:
            continue
        vp, phi = cps.vp, cps.phi.matrix
        for i in (1, 2):
            induced = (0, vp.pair.k) if i == 1 else (vp.pair.h, 0)
            leaf, kernel = vp.tf(2 if i == 1 else 1), kernel_frame(vp.pair, i)
            assert kernel.size == 2 * sum(induced) + 2, (name, i)
            assert _solves(leaf.matrix, column_matrix(vp.space, [vp.z(i)])), (name, i)
            assert _solves(kernel.matrix, vp._reeb_matrix), (name, i)
            for frame in (leaf, kernel):
                assert _solves(frame.matrix, phi @ frame.matrix), (name, frame.label)
        if vp.tg(2).size:
            control = column_matrix(vp.space, [vp.z1, vp.tg(2).vectors[0]])
            assert not _solves(control, phi @ control), name
        checked.append(name)
    assert {"local_model_1_1", "nilpotent_g6", "chart_1_1", "lie_3_3"} <= set(checked), checked


def test_leaf_restriction_numeric_path(nilpotent):
    """The restriction machinery verifies the structures that the per-block
    polarization induces on the leaves."""
    cps, _ = nilpotent
    vp = cps.vp
    phi, g = build_associated_by_polarization(vp, decomposable=True)
    mcp = MetricContactPair(ContactPairStructure(vp, phi), g)
    for i in (1, 2):
        for key, verdict in verify_restricted_contact_metric(mcp, i).items():
            assert verdict.status is Status.VERIFIED, (i, key, verdict)


def test_leaf_identities_trivial_on_reeb(nilpotent):
    """u = Z_i collapses the identities to g(Z_i, Z_i) = 1 and phi^2 Z_i = 0."""
    cps, g = nilpotent
    vp = cps.vp
    for i in (1, 2):
        z = vp.z(i)
        assert g.value(z, z) == cps.space.one()
        assert cps.phi.apply(cps.phi.apply(z)).is_zero()


def test_leaf_tables_are_formed_once(nilpotent, monkeypatch):
    """The leaf checks of either index form only the tables of the
    restricted volume, alpha_l(F) and F^T W_l F, as products with the
    column matrix F of the kernel frame: no metric pairing, no application
    of phi to a vector and no evaluation of a form on frame vectors.  Each
    frame forms its column matrix once."""
    cps, g = nilpotent
    mcp = MetricContactPair(cps, g)
    calls = {"value": 0, "apply": 0, "__call__": 0}
    for cls, name in ((MetricField, "value"), (EndoField, "apply"), (Form, "__call__")):

        def counted(*args, _inner=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(cls, name, counted)
    for i in (1, 2):
        assert all(v.ok for v in verify_restricted_contact_metric(mcp, i).values())
        assert calls == {"value": 0, "apply": 0, "__call__": 0}
    for frame in (cps.vp.tf(1), cps.vp.tf(2)):
        assert isinstance(frame.matrix, RfMatrix) and frame.matrix is frame.matrix
