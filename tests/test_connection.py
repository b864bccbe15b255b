"""Levi-Civita connection, Reeb geodesy, and the RK4 cross-check."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactpairs.algebra import Poly, RatFun
from contactpairs.cli import run
from contactpairs.connection import (
    ChristoffelData,
    DegenerateMetricError,
    _FloatRatFun,
    _gamma_along,
    _rk4_trajectory,
    christoffel,
    numeric_geodesic_residual,
    reeb_geodesy,
)
from contactpairs.exterior import (
    MetricField,
    Space,
    VectorField,
    bracket,
    directional_derivative,
)
from contactpairs.fixtures import load_fixture
from contactpairs.metric import build_compatible
from contactpairs.pair import ContactPair, Status, verified_pair
from contactpairs.structure import ContactPairStructure, PreconditionError

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
    build_nilpotent_space,
    build_r6_forms,
    build_r6_metric,
    build_r6_space,
    chart_rung,
    covariant_derivative,
    levi_civita_violation,
    random_poly,
    random_spd_matrix,
    random_vector_field,
    second_kind,
)


@pytest.fixture(scope="module")
def r6():
    s = build_r6_space()
    a1, a2 = build_r6_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 1, 1, tuple(R6_SAMPLES)))
    return vp, build_r6_metric(s)


@pytest.fixture(scope="module")
def nilpotent():
    s = build_nilpotent_space()
    a1, a2 = build_nilpotent_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 1, 1, tuple(NILPOTENT_SAMPLES)))
    return vp, MetricField.euclidean(s)


# --- Christoffel symbols ---------------------------------------------------------


def test_euclidean_symbols_vanish():
    s = Space.chart(["x", "y", "z"])
    data = christoffel(MetricField.euclidean(s))
    assert not data.nonzero()


def test_degenerate_metric_rejected():
    """reeb_geodesy tests g at the first sample point before it uses it; the
    RK4 cross-check finds no solution when it raises L(Z, Z)."""
    s = build_flat2_space()
    a1, a2 = build_flat2_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 0, 0, tuple(FLAT2_SAMPLES)))
    x = s.coordinate(0)
    g = MetricField(s, [[x, x], [x, x]])
    with pytest.raises(DegenerateMetricError, match=r"^metric is singular at \(0, 0\)$"):
        reeb_geodesy(vp, g)
    with pytest.raises(DegenerateMetricError):
        numeric_geodesic_residual(g, VectorField.basis(s, 0), [1, 2])


NIL_BRACKETS = {
    (0, 3): {2: Fraction(-1)},
    (0, 4): {3: Fraction(-1)},
    (0, 5): {4: Fraction(-1)},
    (4, 5): {1: Fraction(-1)},
}


def koszul_oracle(a, b, k):
    """2 g(∇_a X_b, X_k) for the nilpotent frame with the identity metric,
    computed from the bracket table alone."""

    def c(i, j, m):
        if i == j:
            return Fraction(0)
        if i < j:
            return NIL_BRACKETS.get((i, j), {}).get(m, Fraction(0))
        return -NIL_BRACKETS.get((j, i), {}).get(m, Fraction(0))

    return c(a, b, k) - c(b, k, a) + c(k, a, b)


def test_nilpotent_koszul_matches_oracle(nilpotent):
    vp, g = nilpotent
    data = christoffel(g)
    for a in range(6):
        for b in range(6):
            for k in range(6):
                expected = koszul_oracle(a, b, k) / 2
                assert data.gamma(a, b, k).constant_value() == expected, (a, b, k)


def test_christoffel_validates_on_a_non_identity_lie_metric(rng):
    """The Koszul formula with both the bracket terms and a full constant
    metric satisfies torsion-freeness and metric compatibility."""
    s = build_nilpotent_space()
    data = christoffel(MetricField(s, random_spd_matrix(rng, s.dim, s.dim)))
    assert levi_civita_violation(data) is None
    assert len(data.nonzero()) == 88
    assert all(gamma.is_constant() for *_, gamma in data.nonzero())


def test_christoffel_validates_on_a_chart_metric_with_a_denominator():
    s = Space.chart(["x", "y", "z"])
    x, y = s.coordinate(0), s.coordinate(1)
    one, zero = s.one(), s.zero()
    g = MetricField(s, [[1 / (1 + x * x), zero, zero], [zero, 1 + x * x, y], [zero, y, 1 + y * y]])
    data = christoffel(g)
    assert levi_civita_violation(data) is None
    assert any(not symbol.is_polynomial() for *_, symbol in data.nonzero())
    assert data.gamma(0, 0, 0) == -x / ((1 + x * x) * (1 + x * x))  # ∂_x g_xx / 2
    assert second_kind(data)[0][0][0] == -x / (1 + x * x)  # ∂_x log sqrt(g_xx)


def test_nilpotent_reeb_derivatives_vanish(nilpotent):
    vp, g = nilpotent
    gammas = second_kind(christoffel(g))
    x2 = VectorField.basis(vp.space, 1)
    x3 = VectorField.basis(vp.space, 2)
    assert covariant_derivative(gammas, x2, x3).is_zero()
    assert covariant_derivative(gammas, x2, x2).is_zero()


def test_r6_reeb_derivative_vanishes(r6):
    vp, g = r6
    gammas = second_kind(christoffel(g))
    assert covariant_derivative(gammas, vp.z1, vp.z2).is_zero()


def test_torsion_free_randomized(rng):
    s = Space.chart(["u", "v"])
    u = s.coordinate(0)
    g = MetricField(s, [[u * u + 1, u], [u, s.one() + s.one()]])
    gammas = second_kind(christoffel(g))
    for _ in range(20):
        x = random_vector_field(rng, s)
        y = random_vector_field(rng, s)
        torsion = (
            covariant_derivative(gammas, x, y)
            - covariant_derivative(gammas, y, x)
            - bracket(x, y)
        )
        assert torsion.is_zero()


def test_random_chart_metrics_validate(rng):
    """The symbols of random nondegenerate metrics satisfy metric
    compatibility and torsion-freeness exactly."""
    for _ in range(10):
        s = Space.chart(["u", "v"])
        p = random_poly(rng, 2, max_degree=1, max_terms=2)
        g = MetricField(
            s,
            [[RatFun(p * p) + 1, RatFun(p)], [RatFun(p), s.one() + s.one()]],
        )
        assert levi_civita_violation(christoffel(g)) is None


def _perturbed(data: ChristoffelData, changes) -> ChristoffelData:
    symbols = dict(data.symbols)
    for key, delta in changes:
        symbols[key] = symbols.get(key, data.space.zero()) + delta
    nonzero = {key: symbols[key] for key in sorted(symbols) if not symbols[key].is_zero()}
    return ChristoffelData(data.space, data.metric, nonzero)


def test_validate_connection_rejects_a_perturbed_symbol(r6):
    """L_12,0 += 1 breaks e_1 g_02 = L_10,2 + L_12,0 and nothing before it."""
    _, g = r6
    bad = _perturbed(christoffel(g), [((1, 2, 0), g.space.one())])
    assert levi_civita_violation(bad) == "metric compatibility violated at (a,b,c)=(1,0,2)"


def test_validate_connection_rejects_torsion(r6):
    """L_ab,k += T_abk with T antisymmetric in (b, k) keeps the connection
    metric but breaks L_01,2 = L_10,2 + g([e_0,e_1], e_2)."""
    _, g = r6
    one = g.space.one()
    bad = _perturbed(christoffel(g), [((0, 1, 2), one), ((0, 2, 1), -one)])
    assert levi_civita_violation(bad) == "torsion-freeness violated at (a,b,k)=(0,1,2)"


# --- geodesy ------------------------------------------------------------------------


def test_reeb_geodesy_r6(r6):
    vp, g = r6
    report = reeb_geodesy(vp, g)
    assert report.ok
    for key, verdict in report.verdicts.items():
        assert verdict.status is Status.VERIFIED, (key, verdict)
    for pair_ij, field in report.derivatives.items():
        assert field.is_zero(), pair_ij
    for pair_ij, field in report.second_fundamental.items():
        assert field.is_zero(), pair_ij


def test_reeb_geodesy_nilpotent(nilpotent):
    vp, g = nilpotent
    report = reeb_geodesy(vp, g)
    assert report.ok


def test_reeb_geodesy_flat2():
    s = build_flat2_space()
    a1, a2 = build_flat2_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 0, 0, tuple(FLAT2_SAMPLES)))
    report = reeb_geodesy(vp, MetricField.euclidean(s))
    assert report.ok


def test_reeb_geodesy_on_built_compatible_local_model():
    s = build_local_model_space()
    a1, a2 = build_local_model_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 1, 1, tuple(LOCAL_MODEL_SAMPLES)))
    cps = ContactPairStructure(vp, build_local_model_phi(s))
    g = build_compatible(cps, MetricField.euclidean(s))
    report = reeb_geodesy(vp, g)
    assert report.ok
    assert all(v.status is Status.VERIFIED for v in report.verdicts.values())


def test_reeb_geodesy_failed_witnesses_name_vector_components(r6):
    """g(Z_i, Z_j) = delta_ij holds but g_x1z1 = z1/4 bends the flow of Z1:
    the lowered (∇_Z1 Z1)♭ = dx1/4 is raised to name vector components, the
    witnesses the connection of the second kind gave, and the RK4 residual
    of Z1 reads Γ(Z1, Z1) raised from L_z1z1,· alone."""
    vp, g = r6
    s = vp.space
    rows = [list(row) for row in g.matrix.entries]
    rows[0][4] = rows[4][0] = s.coordinate(4) / 4
    bent = MetricField(s, rows)
    report = reeb_geodesy(vp, bent)
    witnesses = {key: (v.status, v.witness) for key, v in report.verdicts.items()}
    assert witnesses == {
        "geodesic": (Status.FAILED, "(∇_Z1 Z1)[x1] = (-4)/(x1^2*z1^2 + z1^2 - 16)"),
        "totally_geodesic": (Status.FAILED, "B(Z1, Z1)[x1] = (-4)/(x1^2*z1^2 + z1^2 - 16)"),
    }
    nabla = report.derivatives[1, 1]
    assert nabla == covariant_derivative(second_kind(christoffel(bent)), vp.z1, vp.z1)
    assert [c.format(s.names) for c in nabla.components] == [
        "(-4)/(x1^2*z1^2 + z1^2 - 16)", "(x1*z1)/(x1^2*z1^2 + z1^2 - 16)", "0", "0",
        "(x1^2*z1 + z1)/(x1^2*z1^2 + z1^2 - 16)", "0",
    ]
    assert report.second_fundamental[1, 1] == nabla  # g(∇_Z1 Z1, Z_l) = 0
    assert all(report.derivatives[ij].is_zero() for ij in ((1, 2), (2, 1), (2, 2)))
    residuals = [repr(numeric_geodesic_residual(bent, z, R6_SAMPLES[0])) for z in (vp.z1, vp.z2)]
    assert residuals == ["0.2665956455866824", ROUNDOFF]


def test_reeb_geodesy_gram_precondition(r6):
    vp, g = r6
    doubled = MetricField(vp.space, g.matrix.scaled(2))
    with pytest.raises(PreconditionError):
        reeb_geodesy(vp, doubled)


# --- chart vs Lie-frame agreement ------------------------------------------------------


def test_backends_agree_on_abelian_example():
    names = ["t1", "t2"]
    metric_rows = [[2, 1], [1, 3]]
    lie = Space.lie_frame(names, differentials={})
    chart = Space.chart(names)
    gammas_lie = second_kind(christoffel(MetricField(lie, metric_rows)))
    gammas_chart = second_kind(christoffel(MetricField(chart, metric_rows)))
    for a in range(2):
        za_lie = VectorField.basis(lie, a)
        za_chart = VectorField.basis(chart, a)
        for b in range(2):
            lhs = covariant_derivative(gammas_lie, za_lie, VectorField.basis(lie, b))
            rhs = covariant_derivative(gammas_chart, za_chart, VectorField.basis(chart, b))
            assert lhs.is_zero() and rhs.is_zero()


# --- numeric cross-check -----------------------------------------------------------------


def test_numeric_residual_flat_line():
    s = Space.chart(["x", "y"])
    g = MetricField.euclidean(s)
    z = VectorField.basis(s, 0)
    # central differencing amplifies roundoff by 1/dt^2, so "machine
    # precision" here means ~1e-16 / 1e-6
    residual = numeric_geodesic_residual(g, z, [0, 0], t_end=1.0, dt=1e-3)
    assert residual < 1e-9


def test_numeric_residual_r6_reeb(r6):
    vp, g = r6
    data = christoffel(g)
    residual = numeric_geodesic_residual(
        g, vp.z1, [0] * 6, t_end=1.0, dt=1e-3, data=data
    )
    assert residual < 1e-8


def test_numeric_residual_compiles_field_and_gamma_zz_once_per_call(monkeypatch):
    """One call compiles the n components of its field and each term of
    Γ(Z, Z), once, and no Christoffel symbol on its own."""
    doc = load_fixture(REPROS / "repro_x_dx.json")
    vp = verified_pair(doc.pair)
    g = build_compatible(ContactPairStructure(vp, doc.phi), MetricField.euclidean(vp.space))
    data = christoffel(g)
    compiled = []
    inner = _FloatRatFun.compile.__func__
    monkeypatch.setattr(
        _FloatRatFun,
        "compile",
        classmethod(
            lambda cls, num, den, names: compiled.append((num, den)) or inner(cls, num, den, names)
        ),
    )
    for i in (1, 2):
        compiled.clear()
        z = vp.z(i)
        start = vp.sample_points[0]
        residual = numeric_geodesic_residual(g, z, start, t_end=0.1, dt=1e-3, data=data)
        assert residual < 1e-8
        gamma_zz = [term for terms in _gamma_along(data, z) for term in terms]
        assert compiled == [*((c.num, c.den) for c in z.components), *gamma_zz]
    # Z1 = (1/x) ∂x meets L_xx,·, which raises to Γ^x_xx alone; Z2 = ∂y meets none
    assert [len(terms) for terms in _gamma_along(data, vp.z(1))] == [1, 0]
    assert [len(terms) for terms in _gamma_along(data, vp.z(2))] == [0, 0]


def _gamma_zz_case(name):
    """Christoffel data and fields: the Reeb fields of r6_example with its
    metric, or of repro_x_dx or chart rung (2,1) with the metric
    build_compatible makes, or a field whose components are all nonzero on a
    curved metric, so that Γ^c_ab Z^a Z^b with a ≠ b occurs."""
    if name == "curved":
        x, y, z = (_XYZ.coordinate(j) for j in range(3))
        _, data = _ORACLE_METRICS[1]
        return data, [VectorField(_XYZ, [1 + x * y, x, y * z - 2])]
    if name == "r6_example":
        doc = load_fixture(DATA / "r6_example.json")
        vp = verified_pair(doc.pair)
        return christoffel(doc.metric), [vp.z1, vp.z2]
    doc = load_fixture(REPROS / "repro_x_dx.json") if name == "repro_x_dx" else chart_rung(2, 1)
    vp = verified_pair(doc.pair)
    aux = doc.aux_metric or MetricField.euclidean(vp.space)  # as the CLI builds it
    g = build_compatible(ContactPairStructure(vp, doc.phi), aux)
    return christoffel(g), [vp.z1, vp.z2]


@pytest.mark.parametrize("name", ["r6_example", "repro_x_dx", "chart_rung_2_1", "curved"])
def test_gamma_along_is_nabla_z_z_without_its_derivative_term(name):
    """The contraction the RK4 residual evaluates is the Γ part of the exact
    ∇_Z Z that reeb_geodesy proves zero: Γ(Z, Z)^c = (∇_Z Z)^c − Z(Z^c)."""
    data, fields = _gamma_zz_case(name)
    assert data.nonzero()
    n = data.space.dim
    gammas = second_kind(data)
    for z in fields:
        nabla = covariant_derivative(gammas, z, z)
        expected = [
            nabla.components[c] - directional_derivative(z, zc)
            for c, zc in enumerate(z.components)
        ]
        gamma_zz = [
            sum((RatFun(num, den) for num, den in terms), RatFun.zero(n))
            for terms in _gamma_along(data, z)
        ]
        assert gamma_zz == expected


def test_numeric_residual_negative_control(r6):
    """A non-geodesic flow on the curved compatible metric must show a residual
    far above the RK4 error budget (regression bound from a recorded run)."""
    vp, g = r6
    s = vp.space
    wrong = VectorField(s, [s.one(), s.coordinate(0), 0, 0, 0, 0])
    residual = numeric_geodesic_residual(g, wrong, [0] * 6, t_end=1.0, dt=1e-3)
    assert residual > 1e-3
    # the exact float of the five-point stencil plus the exact Γ(Z, Z)
    assert repr(residual) == "1.9960040000380093"


def test_numeric_residual_nilpotent(nilpotent):
    vp, g = nilpotent
    for z in (vp.z1, vp.z2):
        residual = numeric_geodesic_residual(g, z, [0] * 6, t_end=1.0, dt=1e-3)
        assert residual < 1e-8


def test_numeric_residual_rejects_bad_step():
    s = Space.chart(["x", "y"])
    with pytest.raises(ValueError):
        numeric_geodesic_residual(
            MetricField.euclidean(s), VectorField.basis(s, 0), [0, 0], dt=0.0
        )


def test_reeb_geodesy_carries_its_christoffel_symbols(r6):
    vp, g = r6
    assert reeb_geodesy(vp, g).christoffel.symbols == christoffel(g).symbols


# Exact reprs of the five-point stencil plus the exact Γ(Z, Z) at the CLI
# start sample_points[0].  A flow whose exact residual is 0 reads the
# stencil's rounding floor, ROUNDOFF; the two reproductions, whose old
# three-point residuals 2.0e-06 and 1.2e-06 failed the 1e-8 gate, read a few
# times that.  The CLI skips the cross-check on Lie frames, so nilpotent_g6
# calls it as the CLI did before.
ROUNDOFF = "6.938893903907228e-11"
DATA = Path(__file__).resolve().parents[1] / "src" / "contactpairs" / "data"
REPROS = Path(__file__).resolve().parent / "fixtures"
Z12 = ("geodesy_rk4_z1", "geodesy_rk4_z2")
BUILT_Z12 = ("built_geodesy_rk4_z1", "built_geodesy_rk4_z2")


@pytest.mark.parametrize(
    "path, verb, keys, pinned",
    [
        (DATA / "local_model_1_1.json", "build-compatible", BUILT_Z12, (ROUNDOFF, ROUNDOFF)),
        (DATA / "r6_example.json", "geodesy", Z12, (ROUNDOFF, ROUNDOFF)),
        (DATA / "nilpotent_g6.json", "geodesy", Z12, (ROUNDOFF, ROUNDOFF)),
        (REPROS / "repro_quartic_reeb.json", "geodesy", Z12, (ROUNDOFF, "1.326352361274985e-10")),
        (
            REPROS / "repro_x_dx.json",
            "build-compatible",
            BUILT_Z12,
            ("2.679584887310682e-10", ROUNDOFF),
        ),
    ],
    ids=["local_model_1_1", "r6_example", "nilpotent_g6", "repro_quartic_reeb", "repro_x_dx"],
)
def test_numeric_residual_pinned(path, verb, keys, pinned):
    doc = load_fixture(path)
    if doc.space.is_lie:
        vp = verified_pair(doc.pair)
        data = christoffel(doc.metric)
        residuals = {
            key: numeric_geodesic_residual(doc.metric, vp.z(i), vp.sample_points[0], data=data)
            for i, key in enumerate(keys, 1)
        }
    else:
        residuals = run(verb, path).residuals
    assert tuple(repr(residuals[key]) for key in keys) == pinned


def test_numeric_residual_blow_up_is_inf():
    """The flow of x³ ∂x from x = 1 blows up at t = 1/2; past it the powers
    overflow to inf, and so does the residual."""
    s = Space.chart(["x", "y"])
    x = s.coordinate(0)
    field = VectorField(s, [x * x * x, s.zero()])
    residual = numeric_geodesic_residual(MetricField.euclidean(s), field, [1, 0])
    assert residual == float("inf")


def _flow_pole_cases():
    s = Space.chart(["x", "y"])
    x, y = s.coordinate(0), s.coordinate(1)
    g = MetricField(s, [[s.one(), s.zero()], [s.zero(), 1 / y]])
    # the denominator of L_yy,y = -1/(2y²) vanishes on y = 0, where the flow of ∂x stays
    yield g, VectorField.basis(s, 0), christoffel(g), "y^2", "(0.001, 0.0)"
    # the field's own pole is hit by the second RK4 stage of the first step
    field = VectorField(s, [s.one(), 1 / (2000 * x - 1)])
    yield MetricField.euclidean(s), field, None, "x - 1/2000", "(0.0005, -0.0005)"


@pytest.mark.parametrize(
    "g, field, data, den, where", list(_flow_pole_cases()), ids=["christoffel", "field"]
)
def test_numeric_residual_pole_names_denominator_and_point(g, field, data, den, where):
    message = f"denominator {den} vanishes at {where}"
    with pytest.raises(ZeroDivisionError) as info:
        numeric_geodesic_residual(g, field, [0, 0], data=data)
    assert str(info.value) == message


_positive_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=Fraction(1, 20), max_value=20),
    min_size=1,
    max_size=4,
).map(lambda terms: Poly(2, terms))
_positive_points = st.lists(
    st.tuples(*[st.fractions(min_value=Fraction(1, 10), max_value=10)] * 2),
    min_size=1,
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(_positive_polys, _positive_polys, _positive_points)
def test_numeric_residual_compiled_program_matches_exact_eval(num, den, points):
    exact = RatFun(num, den)
    r = _FloatRatFun.compile(exact.num, exact.den, ("x", "y"))
    for point in points:
        values = [float(v) for v in point]
        assert r.at(values) == pytest.approx(float(exact.eval(point)), rel=1e-12)


# --- bit identity with the numpy step loop -------------------------------------------


def _reference_trajectory(components, start, steps, dt):
    """The RK4 step loop as it was written on numpy arrays, one array
    expression per stage."""

    def velocity(x):
        point = x.tolist()
        return np.array([c.at(point) for c in components])

    trajectory = np.empty((steps + 1, len(components)))
    trajectory[0] = np.array([float(v) for v in start], dtype=float)
    x = trajectory[0]
    for s in range(steps):
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * dt * k1)
        k3 = velocity(x + 0.5 * dt * k2)
        k4 = velocity(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trajectory[s + 1] = x
    return trajectory


def _reference_residual(g, field, start, t_end, dt, data):
    """The RK4 cross-check on the numpy step loop: every Christoffel symbol
    evaluated at every interior point, raising at a pole, then the five-point
    stencil on whole arrays plus Γ(Z, Z) point by point."""
    names = field.space.names
    components = [_FloatRatFun.compile(c.num, c.den, names) for c in field.components]
    trajectory = _reference_trajectory(components, start, int(round(t_end / dt)), dt)
    gammas = [_FloatRatFun.compile(r.num, r.den, names) for *_, r in data.nonzero()]
    for point in trajectory[1:-1].tolist():
        for f in gammas:
            f.at(point)
    x = trajectory[2:-2]
    near = (trajectory[3:-1] - x) + (trajectory[1:-3] - x)
    far = (trajectory[4:] - x) + (trajectory[:-4] - x)
    acceleration = (16.0 * near - far) / (12.0 * dt * dt)
    gamma_zz = [
        [_FloatRatFun.compile(num, den, names) for num, den in terms]
        for terms in _gamma_along(data, field)
    ]
    rows = []
    for row, point in zip(acceleration.tolist(), x.tolist()):
        for c, terms in enumerate(gamma_zz):
            for f in terms:
                row[c] += f.at(point)
        row = [abs(v) for v in row]
        if not any(map(math.isnan, row)):
            rows.append(max(row))
    return max([0.0, *rows])


_XYZ = Space.chart(["x", "y", "z"])


def _oracle_metrics():
    x, y = _XYZ.coordinate(0), _XYZ.coordinate(1)
    one, zero = _XYZ.one(), _XYZ.zero()
    curved = [[1 + x * x, zero, zero], [zero, one, zero], [zero, zero, 1 / (1 + y * y)]]
    warped = [[one, zero, zero], [zero, 2 + x * y, zero], [zero, zero, one]]
    for rows in (None, curved, warped):
        g = MetricField.euclidean(_XYZ) if rows is None else MetricField(_XYZ, rows)
        yield g, christoffel(g)


_ORACLE_METRICS = list(_oracle_metrics())
_small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), _small, min_size=1, max_size=3
).map(lambda terms: RatFun(Poly(3, terms)))
# c + a x² + b y² + z⁴ with c > 0, a, b ≥ 0: positive everywhere
_positive_dens = st.tuples(
    st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=4),
    *[st.fractions(min_value=0, max_value=2, max_denominator=4)] * 2,
).map(lambda c: Poly(3, {(0, 0, 0): c[0], (2, 0, 0): c[1], (0, 2, 0): c[2], (0, 0, 4): 1}))
_components = st.one_of(
    st.just(_XYZ.zero()),
    _small.map(lambda c: RatFun(Poly.const(3, c))),
    _polys,
    st.tuples(_polys, _positive_dens).map(lambda nd: nd[0] / RatFun(nd[1])),
)


@pytest.mark.parametrize(
    "t_end, dt",
    [(0.0, 1e-3), (4e-4, 1e-3), (1e-3, 1e-3), (2e-3, 1e-3), (0.25, 1 / 64), (1.0, 1e-3)],
    ids=["0 steps", "0 steps rounded", "1 step", "2 steps", "16 steps", "1000 steps"],
)
@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(range(len(_ORACLE_METRICS))),
    st.lists(_components, min_size=3, max_size=3),
    st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=4), min_size=3, max_size=3),
)
def test_numeric_residual_matches_numpy_step_loop(t_end, dt, metric, components, start):
    g, data = _ORACLE_METRICS[metric]
    field = VectorField(_XYZ, components)
    compiled = [_FloatRatFun.compile(c.num, c.den, _XYZ.names) for c in components]
    steps = int(round(t_end / dt))
    with np.errstate(all="ignore"):  # a flow may blow up to inf and NaN
        trajectory = _reference_trajectory(compiled, start, steps, dt)
        expected = _reference_residual(g, field, start, t_end, dt, data)
        residual = numeric_geodesic_residual(g, field, start, t_end, dt, data)
    columns = _rk4_trajectory(compiled, start, steps, dt)
    assert np.array(columns).T.tobytes() == trajectory.tobytes()
    assert repr(residual) == repr(expected)


def test_numeric_residual_pole_on_a_stage_point_matches_numpy_step_loop():
    """Two constant components and one that reads x: the second stage of the
    first step hits the pole, and the message prints the whole stage point."""
    x = _XYZ.coordinate(0)
    field = VectorField(_XYZ, [_XYZ.one(), 1 / (2000 * x - 1), 2 * _XYZ.one()])
    g, data = _ORACLE_METRICS[0]
    messages = []
    for residual in (_reference_residual, numeric_geodesic_residual):
        with pytest.raises(ZeroDivisionError) as info:
            residual(g, field, [0, 0, 0], 1.0, 1e-3, data)
        messages.append(str(info.value))
    assert messages == ["denominator x - 1/2000 vanishes at (0.0005, -0.0005, 0.001)"] * 2


# --- the column kernel against the step loop -------------------------------------------


def _fixed_columns(field, start, t_end, dt):
    names = field.space.names
    compiled = [_FloatRatFun.compile(c.num, c.den, names) for c in field.components]
    columns = _rk4_trajectory(compiled, start, int(round(t_end / dt)), dt)
    return sum(len(set(col)) == 1 for col in columns)


def test_column_kernel_on_chart_rung_2_2_matches_the_step_loop():
    """The Reeb fields of chart rung (2,2) are constant and move one
    coordinate each: 9 of its 10 columns stay fixed, and the residual on the
    built metric is the step loop's to the last digit."""
    doc = chart_rung(2, 2)
    vp = verified_pair(doc.pair)
    g = build_compatible(ContactPairStructure(vp, doc.phi), doc.aux_metric)
    data = christoffel(g)
    start = vp.sample_points[0]
    residuals = []
    for z in (vp.z1, vp.z2):
        assert _fixed_columns(z, start, 1.0, 1e-3) == 9
        residual = numeric_geodesic_residual(g, z, start, 1.0, 1e-3, data)
        assert repr(residual) == repr(_reference_residual(g, z, start, 1.0, 1e-3, data))
        residuals.append(repr(residual))
    assert residuals == [ROUNDOFF, ROUNDOFF]


@pytest.mark.parametrize("metric", [0, 1], ids=["euclidean", "curved"])
def test_column_kernel_on_a_constant_field_matches_the_step_loop(metric):
    """A constant field with a zero and two nonzero increments: running sums
    against the step loop, bit for bit, with no Γ(Z, Z) and no pole
    (euclidean) and with both (curved)."""
    g, data = _ORACLE_METRICS[metric]
    one = _XYZ.one()
    field = VectorField(_XYZ, [Fraction(3, 7) * one, _XYZ.zero(), -2 * one])
    start = [Fraction(1, 3), -1, Fraction(1, 2)]
    compiled = [_FloatRatFun.compile(c.num, c.den, _XYZ.names) for c in field.components]
    columns = _rk4_trajectory(compiled, start, 1000, 1e-3)
    expected = _reference_trajectory(compiled, start, 1000, 1e-3)
    assert np.array(columns).T.tobytes() == expected.tobytes()
    assert _fixed_columns(field, start, 1.0, 1e-3) == 1
    residual = numeric_geodesic_residual(g, field, start, 1.0, 1e-3, data)
    assert repr(residual) == repr(_reference_residual(g, field, start, 1.0, 1e-3, data))
    assert (residual < 1e-8) == (metric == 0)


def test_column_kernel_blow_up_beside_fixed_columns_matches_the_step_loop():
    """x³ ∂x + ∂z from x = 1 blows up at t = 1/2 while y stays put: the x
    column reaches inf, its stencil NaN, and those rows do not count."""
    x = _XYZ.coordinate(0)
    field = VectorField(_XYZ, [x * x * x, _XYZ.zero(), _XYZ.one()])
    g, data = _ORACLE_METRICS[0]
    start = [1, 0, 0]
    names = _XYZ.names
    compiled = [_FloatRatFun.compile(c.num, c.den, names) for c in field.components]
    column = _rk4_trajectory(compiled, start, 1000, 1e-3)[0]
    assert math.inf in column  # and inf - inf is a NaN of the stencil
    with np.errstate(all="ignore"):
        expected = _reference_residual(g, field, start, 1.0, 1e-3, data)
    residual = numeric_geodesic_residual(g, field, start, 1.0, 1e-3, data)
    assert repr(residual) == repr(expected) == "inf"


def _two_poles(second):
    """diag(1/(1 − 2x), ``second``, 1): L_xx,x has the denominator
    (x − 1/2)², first in ``data.nonzero()`` order, and ∂x of ``second``
    brings a later one."""
    x = _XYZ.coordinate(0)
    one, zero = _XYZ.one(), _XYZ.zero()
    rows = [[1 / (1 - 2 * x), zero, zero], [zero, second, zero], [zero, zero, one]]
    return MetricField(_XYZ, rows)


@pytest.mark.parametrize(
    "second, den, where",
    [
        (1 / (1 - 4 * _XYZ.coordinate(0)), "x^2 - 1/2*x + 1/16", "(0.25, 0.25, 0.0)"),
        (1 / ((1 - 2 * _XYZ.coordinate(0)) ** 2), "x^2 - x + 1/4", "(0.5, 0.5, 0.0)"),
    ],
    ids=["earlier point", "same point"],
)
def test_column_kernel_names_the_first_pole_in_point_then_denominator_order(second, den, where):
    """∂x + ∂y on a metric with Γ(Z, Z) terms and two pole denominators: the
    one hit at the earlier trajectory point is named, and at one point the
    first in ``data.nonzero()`` order, as the step loop names it."""
    g = _two_poles(second)
    data = christoffel(g)
    one = _XYZ.one()
    field = VectorField(_XYZ, [one, one, _XYZ.zero()])
    assert any(_gamma_along(data, field))
    messages = []
    for residual in (_reference_residual, numeric_geodesic_residual):
        with pytest.raises(ZeroDivisionError) as info:
            residual(g, field, [0, 0, 0], 1.0, 1 / 64, data)
        messages.append(str(info.value))
    assert messages == [f"denominator {den} vanishes at {where}"] * 2
