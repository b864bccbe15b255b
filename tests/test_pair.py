"""Contact pair conditions, Reeb solves, frames, and splittings."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactpairs.algebra import Poly, RatFun, RfMatrix, generic_rank, pfaffian_minor
from contactpairs.exterior import Form, FrameForm, Space, VectorField
from contactpairs.fixtures import (
    FixtureError,
    bundled_fixture_names,
    bundled_fixture_path,
    load_fixture,
)
from contactpairs.pair import (
    ContactPair,
    FrameRankError,
    PairValidationError,
    ReebSolveError,
    Status,
    characteristic_frame,
    column_matrix,
    g_frame,
    kernel_frame,
    one_form_row,
    pair_axioms,
    reeb_fields,
    verified_pair,
    verify_contact_pair,
    verify_splittings,
    volume_coefficient,
)
from contactpairs.verdicts import nonvanishing_verdict

from conftest import (
    chart_rung,
    dense_chart_rung,
    direct_frames,
    lie_rung,
    FLAT2_SAMPLES,
    LOCAL_MODEL_SAMPLES,
    NILPOTENT_SAMPLES,
    R6_SAMPLES,
    TWISTED_SAMPLES,
    build_flat2_forms,
    build_flat2_space,
    build_local_model_forms,
    build_local_model_space,
    build_nilpotent_forms,
    build_nilpotent_space,
    build_r6_forms,
    build_r6_space,
    build_twisted_forms,
    build_twisted_space,
)


def make_r6_pair():
    s = build_r6_space()
    a1, a2 = build_r6_forms(s)
    return ContactPair(s, a1, a2, 1, 1, tuple(R6_SAMPLES))


def make_nilpotent_pair():
    s = build_nilpotent_space()
    a1, a2 = build_nilpotent_forms(s)
    return ContactPair(s, a1, a2, 1, 1, tuple(NILPOTENT_SAMPLES))


def make_local_model_pair():
    s = build_local_model_space()
    a1, a2 = build_local_model_forms(s)
    return ContactPair(s, a1, a2, 1, 1, tuple(LOCAL_MODEL_SAMPLES))


def make_flat2_pair():
    s = build_flat2_space()
    a1, a2 = build_flat2_forms(s)
    return ContactPair(s, a1, a2, 0, 0, tuple(FLAT2_SAMPLES))


def make_twisted_pair():
    s = build_twisted_space()
    a1, a2 = build_twisted_forms(s)
    return ContactPair(s, a1, a2, 0, 1, tuple(TWISTED_SAMPLES))


def same_span(frame, fields):
    """Both frames span the same generic subbundle."""
    n = frame.space.dim
    cols = list(frame.vectors) + list(fields)
    combined = RfMatrix(n, [[v.components[i] for v in cols] for i in range(n)])
    return (
        frame.size == len(fields)
        and generic_rank(combined) == frame.size
    )


# --- defining conditions --------------------------------------------------------


def test_type_dimension_mismatch_rejected():
    s = build_flat2_space()
    a1, a2 = build_flat2_forms(s)
    with pytest.raises(PairValidationError):
        ContactPair(s, a1, a2, 1, 0, tuple(FLAT2_SAMPLES))


def test_sample_points_required():
    s = build_flat2_space()
    a1, a2 = build_flat2_forms(s)
    with pytest.raises(PairValidationError):
        ContactPair(s, a1, a2, 0, 0, ())


def test_local_model_all_verified():
    verdicts = verify_contact_pair(make_local_model_pair())
    assert all(v.status is Status.VERIFIED for v in verdicts.values())


def test_nilpotent_all_verified():
    verdicts = verify_contact_pair(make_nilpotent_pair())
    assert all(v.status is Status.VERIFIED for v in verdicts.values())


def test_r6_all_verified():
    verdicts = verify_contact_pair(make_r6_pair())
    assert all(v.status is Status.VERIFIED for v in verdicts.values())


def test_degenerate_pair_fails_volume():
    s = build_flat2_space()
    dx = Form(s, 1, {(0,): 1})
    pair = ContactPair(s, dx, dx, 0, 0, tuple(FLAT2_SAMPLES))
    verdicts = verify_contact_pair(pair)
    assert verdicts["volume_form"].status is Status.FAILED
    assert "0" in verdicts["volume_form"].witness


def test_twisted_pair_is_sample_verified():
    verdicts = verify_contact_pair(make_twisted_pair())
    assert verdicts["volume_form"].status is Status.SAMPLE_VERIFIED
    assert verdicts["volume_form"].points_checked == 2
    assert verdicts["dalpha1_power_zero"].status is Status.VERIFIED
    assert verdicts["dalpha2_power_zero"].status is Status.VERIFIED


def test_twisted_pair_fails_at_bad_sample():
    s = build_twisted_space()
    a1, a2 = build_twisted_forms(s)
    bad = ContactPair(s, a1, a2, 0, 1, ((Fraction(0),) * 4,))
    verdicts = verify_contact_pair(bad)
    assert verdicts["volume_form"].status is Status.FAILED


def test_power_witness_uses_the_coordinate_names():
    """d(xy dx) = -x dx^dy, so (d alpha1)^1 != 0 on a type (0, 0) pair, and
    the volume, whose Pfaffian formula needs both powers to vanish, is
    skipped with the failed condition named; verified_pair then rejects the
    pair on the failed power."""
    s = build_flat2_space()
    x, y = s.coordinate(0), s.coordinate(1)
    alpha1, alpha2 = Form(s, 1, {(0,): x * y}), Form(s, 1, {(1,): 1})
    pair = ContactPair(s, alpha1, alpha2, 0, 0, tuple(FLAT2_SAMPLES))
    verdicts = verify_contact_pair(pair)
    assert verdicts["dalpha1_power_zero"].witness == "(d alpha1)^1 has coefficient -x on (0, 1)"
    assert "volume_form" not in verdicts
    assert verdicts.skipped["volume_form"].startswith("(d alpha1)^1 = 0 does not hold")
    with pytest.raises(PairValidationError) as raised:
        verified_pair(pair)
    assert str(raised.value) == "dalpha1_power_zero: (d alpha1)^1 has coefficient -x on (0, 1)"


# --- Reeb fields ------------------------------------------------------------------


def test_reeb_flat2():
    z1, z2 = reeb_fields(make_flat2_pair())
    s = z1.space
    assert z1 == VectorField.basis(s, 0)
    assert z2 == VectorField.basis(s, 1)


def test_reeb_r6():
    z1, z2 = reeb_fields(make_r6_pair())
    s = z1.space
    assert z1 == VectorField.basis(s, 4)  # ∂z1
    assert z2 == VectorField.basis(s, 5)  # ∂z2


def test_reeb_nilpotent():
    z1, z2 = reeb_fields(make_nilpotent_pair())
    s = z1.space
    assert z1 == VectorField.basis(s, 1)  # X2
    assert z2 == VectorField.basis(s, 2)  # X3


def test_reeb_twisted_has_rational_components():
    z1, z2 = reeb_fields(make_twisted_pair())
    s = z1.space
    x = RatFun.variable(4, 0)
    y = RatFun.variable(4, 1)
    assert z1.components[0] == s.one()
    assert z1.components[1] == -(y / x)
    assert z2 == VectorField.basis(s, 2)


def test_reeb_inconsistent_system():
    s = build_flat2_space()
    dx = Form(s, 1, {(0,): 1})
    pair = ContactPair(s, dx, dx, 0, 0, tuple(FLAT2_SAMPLES))
    with pytest.raises(ReebSolveError) as info:
        reeb_fields(pair)
    assert str(info.value) == (
        "Reeb system for Z1 is inconsistent: row 1 reduces to 0 = -1; system has no solution"
    )


def test_reeb_inconsistent_for_z2_only():
    """alpha1 = da + c dd, alpha2 = db + b dc on R^4: i_Z d alpha2 = 0 forces
    Z^b = Z^c = 0 and i_Z d alpha1 = 0 forces Z^d = 0, so Z1 = ∂a is the
    unique solution of its system and alpha2(Z) = 1 has none."""
    from fractions import Fraction as F

    from contactpairs.exterior import Space

    space = Space.chart(["a", "b", "c", "d"])
    b, c = space.coordinate(1), space.coordinate(2)
    alpha1 = Form(space, 1, {(0,): 1, (3,): c})
    alpha2 = Form(space, 1, {(1,): 1, (2,): b})
    pair = ContactPair(space, alpha1, alpha2, 0, 1, ((F(0),) * 4,))
    with pytest.raises(ReebSolveError) as info:
        reeb_fields(pair)
    assert str(info.value) == (
        "Reeb system for Z2 is inconsistent: row 8 reduces to 0 = -1; system has no solution"
    )


def test_reeb_non_unique_solution():
    """Two closed independent one-forms on R^4 leave a two-dimensional
    kernel in the Reeb system; the solve must refuse to pick arbitrarily."""
    from fractions import Fraction as F

    from contactpairs.exterior import Space

    space = Space.chart(["a", "b", "c", "d"])
    alpha1 = Form(space, 1, {(0,): 1})
    alpha2 = Form(space, 1, {(1,): 1})
    pair = ContactPair(space, alpha1, alpha2, 0, 1, ((F(0),) * 4,))
    with pytest.raises(ReebSolveError) as info:
        reeb_fields(pair)
    assert str(info.value) == (
        "Reeb system for Z1 has a 2-dimensional kernel; the Reeb field is not unique"
    )


def test_reeb_kernel_is_reported_before_an_inconsistent_z2():
    """alpha1 = da, alpha2 = 0 on R^4: Z1's system is solvable with a
    3-dimensional kernel and Z2's has no solution.  Z1 is solved first, so
    its kernel is what the error names."""
    from fractions import Fraction as F

    from contactpairs.exterior import Space

    space = Space.chart(["a", "b", "c", "d"])
    pair = ContactPair(space, Form(space, 1, {(0,): 1}), Form(space, 1, {}), 0, 1, ((F(0),) * 4,))
    with pytest.raises(ReebSolveError) as info:
        reeb_fields(pair)
    assert str(info.value) == (
        "Reeb system for Z1 has a 3-dimensional kernel; the Reeb field is not unique"
    )


def test_frame_rank_mismatch_detected():
    """Declaring the wrong type makes the characteristic frame rank disagree
    with 2k+1 and must be reported as degenerate input."""
    from fractions import Fraction as F

    s = build_twisted_space()
    a1, a2 = build_twisted_forms(s)
    mislabelled = ContactPair(s, a1, a2, 1, 0, tuple(TWISTED_SAMPLES))
    with pytest.raises(FrameRankError, match="TF1 has rank 3, expected 1"):
        characteristic_frame(mislabelled, 1)


def test_frame_rank_is_checked_per_index():
    """On x, y, z, w with type (1, 0), alpha1 = dz + x dy has the frames of
    its index, but d alpha2 = dz ∧ dx for alpha2 = dw + z dx has rank 2, not
    2k = 0.  Index 1's frames are returned; index 2's error names each
    frame whose rank is wrong."""
    s = build_twisted_space()
    x, z = s.coordinate(0), s.coordinate(2)
    pair = ContactPair(
        s, Form(s, 1, {(2,): 1, (1,): x}), Form(s, 1, {(3,): 1, (0,): z}), 1, 0,
        tuple(TWISTED_SAMPLES),
    )
    assert (kernel_frame(pair, 1).size, characteristic_frame(pair, 1).size) == (2, 1)
    assert g_frame(pair, 1).size == 0
    with pytest.raises(FrameRankError) as info:
        g_frame(pair, 2)
    assert str(info.value) == (
        "ker d alpha2 has rank 2, expected 4; TF2 has rank 1, expected 3; "
        "TG2 has rank 0, expected 2; input is degenerate"
    )


# --- frames -----------------------------------------------------------------------


def test_r6_characteristic_frames():
    pair = make_r6_pair()
    s = pair.space
    tf2 = characteristic_frame(pair, 2)
    assert same_span(tf2, [VectorField.basis(s, 0), VectorField.basis(s, 1), VectorField.basis(s, 4)])
    tf1 = characteristic_frame(pair, 1)
    assert same_span(tf1, [VectorField.basis(s, 2), VectorField.basis(s, 3), VectorField.basis(s, 5)])


def test_r6_g_frames():
    pair = make_r6_pair()
    s = pair.space
    x1 = s.coordinate(0)
    tg2 = g_frame(pair, 2)
    corrected = VectorField(s, [0, 1, 0, 0, x1, 0])  # ∂y1 + x1 ∂z1
    assert same_span(tg2, [VectorField.basis(s, 0), corrected])


def test_nilpotent_frames():
    pair = make_nilpotent_pair()
    s = pair.space
    tf1 = characteristic_frame(pair, 1)
    assert same_span(tf1, [VectorField.basis(s, i) for i in (0, 2, 3)])  # X1, X3, X4
    tg2 = g_frame(pair, 2)
    assert same_span(tg2, [VectorField.basis(s, 4), VectorField.basis(s, 5)])  # X5, X6
    ker2 = kernel_frame(pair, 2)
    assert same_span(ker2, [VectorField.basis(s, i) for i in (1, 2, 4, 5)])


def test_flat2_frames():
    pair = make_flat2_pair()
    s = pair.space
    tf1 = characteristic_frame(pair, 1)
    assert same_span(tf1, [VectorField.basis(s, 1)])  # ∂y
    assert g_frame(pair, 1).size == 0
    assert g_frame(pair, 2).size == 0


def test_twisted_frames():
    pair = make_twisted_pair()
    s = pair.space
    tf2 = characteristic_frame(pair, 2)
    x = s.coordinate(0)
    y = s.coordinate(1)
    assert same_span(tf2, [VectorField(s, [x, -y, 0, 0])])
    tg1 = g_frame(pair, 1)
    xy = x * y
    assert same_span(
        tg1,
        [VectorField.basis(s, 1), VectorField(s, [0, 0, -xy, 1])],
    )


# --- verified pairs and splittings --------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [make_r6_pair, make_nilpotent_pair, make_local_model_pair, make_flat2_pair, make_twisted_pair],
)
def test_verified_pair_and_splittings(factory):
    vp = verified_pair(factory())
    verdict = verify_splittings(vp)
    assert verdict.status is Status.VERIFIED, verdict

    # rank bookkeeping from the pair type
    n = vp.dim
    assert vp.tf1.size + vp.tf2.size == n
    assert vp.tg1.size + vp.tg2.size + 2 == n

    # each Reeb field lies in the other characteristic distribution
    for tf, z in ((vp.tf1, vp.z2), (vp.tf2, vp.z1)):
        assert generic_rank(column_matrix(vp.space, [*tf.vectors, z])) == tf.size


def test_axiom_verdicts_are_computed_once():
    """verified_pair reads the pair's own memoised verdicts."""
    pair = make_local_model_pair()
    verified_pair(pair)
    assert pair.axioms is pair.axioms
    assert pair.axioms == verify_contact_pair(pair)


def _verifiable_fixtures():
    docs = [load_fixture(bundled_fixture_path(name)) for name in bundled_fixture_names()]
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        try:
            docs.append(load_fixture(path))
        except FixtureError:
            continue
    out = []
    for doc in docs:
        try:
            out.append((doc, verified_pair(doc.pair)))
        except (PairValidationError, ReebSolveError, FrameRankError):
            continue
    return out


def test_splittings_hold_on_every_verifiable_fixture():
    """The splittings verify_splittings reads off the construction, by rank
    on every verifiable bundled and test fixture: rank(TF1 ∪ TF2) = n, and
    rank([TG_i | Z_j]) = rank([TF_i | TG_i | Z_j]) = size(TF_i), so TG_i and
    Z_j are independent and span TF_i."""
    checked = 0
    for doc, vp in _verifiable_fixtures():
        space, n = vp.space, vp.dim
        assert generic_rank(column_matrix(space, vp.tf1.vectors + vp.tf2.vectors)) == n
        for i, j in ((1, 2), (2, 1)):
            tf, tg, z = vp.tf(i), vp.tg(i), vp.z(j)
            split = generic_rank(column_matrix(space, [*tg.vectors, z]))
            spanned = generic_rank(column_matrix(space, [*tf.vectors, *tg.vectors, z]))
            assert split == spanned == tf.size, (doc.fixture_id, i)
        verdict = verify_splittings(vp)
        assert verdict.status is Status.VERIFIED
        assert verdict.detail == f"rank(TF1) + rank(TF2) = {vp.tf1.size} + {vp.tf2.size} = {n}"
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize(
    "factory",
    [make_r6_pair, make_nilpotent_pair, make_local_model_pair, make_flat2_pair, make_twisted_pair],
)
def test_reeb_identities_exact(factory):
    pair = factory()
    z1, z2 = reeb_fields(pair)
    for i in (1, 2):
        alpha = pair.alpha(i)
        dalpha = pair.dalpha(i)
        for j, z in ((1, z1), (2, z2)):
            expected = pair.space.one() if i == j else pair.space.zero()
            assert alpha(z) == expected
            assert dalpha.contract(z).is_zero()
    from contactpairs.exterior import bracket

    assert bracket(z1, z2).is_zero()


def test_verified_pair_rejects_degenerate():
    s = build_flat2_space()
    dx = Form(s, 1, {(0,): 1})
    with pytest.raises(PairValidationError):
        verified_pair(ContactPair(s, dx, dx, 0, 0, tuple(FLAT2_SAMPLES)))


def test_dalpha_is_computed_once_on_first_use():
    pair = make_r6_pair()
    assert "_dalphas" not in vars(pair)  # constructing the pair differentiates nothing
    assert pair.dalpha(1) is pair.dalpha(1)
    assert pair.dalpha(2) == pair.alpha2.d()


# --- the pair axioms by Pfaffians, against the exterior products ---------------------


def _skew_table(n, pairs):
    """W = Σ (u vᵀ − v uᵀ) over the (u, v) in ``pairs``: rank at most 2·len(pairs)."""
    table = [[RatFun.zero(n) for _ in range(n)] for _ in range(n)]
    for u, v in pairs:
        for a in range(n):
            for b in range(n):
                table[a][b] = table[a][b] + u[a] * v[b] - v[a] * u[b]
    return RfMatrix(n, table)


@st.composite
def axiom_cases(draw):
    """Rows a1, a2 and tables W1, W2 of a type (h, k) on dim n ≤ 8.  Each
    W_i is a sum of deg_i or deg_i + 1 random rank-2 terms, so a power
    condition fails whenever deg_i + 1 terms are independent.  Entries are
    constants, or polynomials of degree ≤ 1 in x1, x2, some over 1 + x1² when
    n ≤ 4 (from n = 6 the exterior products take seconds on those).  They are
    drawn from a seeded ``Random`` (hypothesis's own integers lean to 0,
    which makes almost every volume vanish)."""
    rng = draw(st.randoms(use_true_random=False))
    h = rng.randint(0, 3)
    k = rng.randint(0, 3 - h)
    n = 2 * h + 2 * k + 2
    x1, x2 = Poly.variable(n, 0), Poly.variable(n, 1)
    slope = 1 if rng.random() < 0.7 else 0
    dens = [Poly.const(n, 1)] * 3 + ([x1 * x1 + 1] if n <= 4 and rng.random() < 0.5 else [])

    def vector():
        return [
            RatFun(
                Poly.const(n, rng.randint(-2, 2)) + x1 * (slope * rng.randint(-1, 1))
                + x2 * (slope * rng.randint(-1, 1)),
                rng.choice(dens),
            )
            for _ in range(n)
        ]

    tables = tuple(
        _skew_table(n, [(vector(), vector()) for _ in range(degree + (rng.random() < 0.4))])
        for degree in (h, k)
    )
    return (vector(), vector()), tables, (h, k)


AXIOM_POINTS = ((Fraction(1, 2), Fraction(-2)), (Fraction(3), Fraction(1, 3)))


@settings(max_examples=20, deadline=None)
@given(axiom_cases())
def test_pair_axioms_match_the_exterior_products(case):
    """Every power verdict, witness coefficient and volume coefficient equals
    the one read off Form.wedge_power, on the same index set, including pairs
    where a power condition fails (no volume verdict).  FrameForm is the
    reference of the leaf test below."""
    rows, tables, (h, k) = case
    n = len(rows[0])
    space = Space.chart([f"x{b + 1}" for b in range(n)])
    points = [p + (Fraction(0),) * (n - 2) for p in AXIOM_POINTS]
    axioms = pair_axioms(rows, tables, (h, k), points, space.names)
    omegas = [
        Form(space, 2, {(a, b): w.at(a, b) for a in range(n) for b in range(a + 1, n)})
        for w in tables
    ]
    powers = [omega.wedge_power(degree) for omega, degree in zip(omegas, (h, k))]
    for i, degree in ((1, h), (2, k)):
        excess = powers[i - 1].wedge(omegas[i - 1])
        verdict = axioms[f"dalpha{i}_power_zero"]
        if excess.is_zero():
            assert verdict.status is Status.VERIFIED
            continue
        _, index = pfaffian_minor(tables[i - 1], degree + 1)
        coeff = excess.coefficient(index)
        assert not coeff.is_zero()
        assert verdict.status is Status.FAILED
        assert verdict.witness == (
            f"(d alpha{i})^{degree + 1} has coefficient {coeff.format(space.names)} on {index}"
        )
    if not all(axioms[f"dalpha{i}_power_zero"].ok for i in (1, 2)):
        assert "volume_form" not in axioms
        assert "does not hold" in axioms.skipped["volume_form"]
        return
    alphas = [Form(space, 1, {(b,): row[b] for b in range(n)}) for row in rows]
    top = alphas[0].wedge(powers[0]).wedge(alphas[1].wedge(powers[1]))
    expected = top.coefficient(tuple(range(n)))
    assert volume_coefficient(rows, tables, (h, k)) == expected
    label = "volume coefficient"
    assert axioms["volume_form"] == nonvanishing_verdict(
        expected, points, label, constant_detail=f"constant {label} {expected.num}"
    )
    assert not axioms.skipped


@pytest.mark.parametrize(
    "rung", [None, (1, 1), (2, 2), (2, 1)], ids=["fixtures", "chart-1-1", "chart-2-2", "chart-2-1"]
)
def test_leaf_axioms_match_frame_form_expansion(rung):
    """The pair induced on the leaves of ker d alpha_i, decided on the
    restricted tables, has the restricted volume coefficient FrameForm
    expands, and both restricted powers vanish: on every verifiable fixture,
    and on each chart rung.  The leaf checks compute only that volume; this
    is the oracle of the powers they prove."""
    if rung is None:
        pairs = [vp.pair for _, vp in _verifiable_fixtures()]
    else:
        pairs = [chart_rung(*rung).pair]
    for pair in pairs:
        rows = (one_form_row(pair.alpha1), one_form_row(pair.alpha2))
        for i in (1, 2):
            f = kernel_frame(pair, i).matrix
            degrees = (pair.h, 0) if i == 2 else (0, pair.k)
            alphas = RfMatrix(pair.dim, rows) @ f
            leaf_rows = (alphas.row(0), alphas.row(1))
            leaf_tables = tuple(f.transpose() @ pair.dalpha_table(l) @ f for l in (1, 2))
            axioms = pair_axioms(leaf_rows, leaf_tables, degrees, pair.sample_points, pair.space.names)
            assert axioms["dalpha1_power_zero"].status is Status.VERIFIED
            assert axioms["dalpha2_power_zero"].status is Status.VERIFIED
            b1, b2 = (FrameForm.one_form(r) for r in leaf_rows)
            w1, w2 = (FrameForm.two_form(t.entries) for t in leaf_tables)
            top = b1.wedge(w1.wedge_power(degrees[0])).wedge(b2.wedge(w2.wedge_power(degrees[1])))
            assert volume_coefficient(leaf_rows, leaf_tables, degrees) == top.top_coefficient()


@pytest.mark.parametrize(
    "family, h, k",
    [pytest.param("fixtures", 0, 0, id="fixtures")]
    + [
        pytest.param(family, h, k, id=f"{family}_{h}_{k}")
        for family, h, k in [("chart", 1, 1), ("chart", 2, 1), ("chart", 2, 2)]
        + [(family, h, h) for family in ("lie", "dense") for h in (1, 2, 3)]
    ],
)
def test_frame_nest_equals_the_direct_eliminations(family, h, k):
    """ker d alpha_i, TF_i and TG_i, with TF_i and TG_i taken as one-row
    kernels inside the one elimination of ker d alpha_i, are the kernel
    bases of their own rows (:func:`conftest.direct_frames`) vector for
    vector, in order and sign: on every verifiable fixture and on the chart,
    Lie and dense rungs.  Dense (2,2) TF_2 and (3,3) TG_1 need the nest's
    sign rule."""
    if family == "fixtures":
        pairs = [vp.pair for _, vp in _verifiable_fixtures()]
    else:
        rung = {"chart": chart_rung, "lie": lie_rung, "dense": dense_chart_rung}[family]
        pairs = [rung(h, k).pair]
    for pair in pairs:
        for i in (1, 2):
            nest = (kernel_frame(pair, i), characteristic_frame(pair, i), g_frame(pair, i))
            assert [[v.components for v in f.vectors] for f in nest] == list(
                direct_frames(pair, i)
            ), (pair.space.names, i)


@pytest.mark.parametrize("h, k", [(2, 2), (3, 3)])
def test_pair_verdicts_are_coordinate_invariant(h, k):
    """The chart rung pulled back by a unimodular x = U·w (dense d alpha_i)
    has the same three verdicts and the same volume detail: det U = 1.  At
    dim 14 the exterior-product route took seconds here; the Pfaffians take
    a fraction of one."""
    rung, dense = chart_rung(h, k).pair, dense_chart_rung(h, k).pair
    table = dense.dalpha_table(1)
    assert sum(not e.is_zero() for row in table.entries for e in row) > table.rows**2 // 2
    before, after = verify_contact_pair(rung), verify_contact_pair(dense)
    assert list(after) == ["volume_form", "dalpha1_power_zero", "dalpha2_power_zero"]
    assert {n: (v.status, v.detail, v.witness) for n, v in after.items()} == {
        n: (v.status, v.detail, v.witness) for n, v in before.items()
    }
