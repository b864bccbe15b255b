"""Exterior calculus: wedge, d, interior product, brackets, Lie derivatives."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactpairs import exterior
from contactpairs.algebra import Poly, RatFun
from contactpairs.exterior import (
    EndoField,
    Form,
    FrameForm,
    MetricField,
    Space,
    VectorField,
    bracket,
    directional_derivative,
    lie_derivative,
)

from conftest import (
    build_nilpotent_space,
    build_r6_forms,
    build_r6_space,
    random_form,
    random_ratfun,
    random_vector_field,
)


def covector(space, i):
    return Form.covector(space, i)


def basis(space, i):
    return VectorField.basis(space, i)


# --- wedge -------------------------------------------------------------------


def test_wedge_basic():
    s = Space.chart(["x", "y"])
    dx, dy = covector(s, 0), covector(s, 1)
    w = dx.wedge(dy)
    assert w.coefficient((0, 1)) == RatFun.one(2)
    assert dy.wedge(dx).coefficient((0, 1)) == -RatFun.one(2)


def test_wedge_repeated_factor_vanishes():
    s = Space.chart(["x1", "y1", "x2", "y2"])
    a = covector(s, 0).wedge(covector(s, 1))  # dx1^dy1
    b = covector(s, 0).wedge(covector(s, 3))  # dx1^dy2
    assert a.wedge(b).is_zero()


def test_wedge_overflows_dimension_to_zero():
    s = Space.chart(["x", "y"])
    vol = covector(s, 0).wedge(covector(s, 1))
    cube = vol.wedge(vol)
    assert cube.is_zero() and cube.degree == 4


def test_r6_volume_coefficient_is_one():
    s = build_r6_space()
    a1, a2 = build_r6_forms(s)
    vol = a1.wedge(a1.d()).wedge(a2.wedge(a2.d()))
    assert vol.degree == 6
    assert vol.coefficient(tuple(range(6))) == s.one()


def test_wedge_against_shuffle_oracle(rng):
    """(a^b)(v...) must match the alternating-sum expansion over permutations."""
    s = Space.chart(["x", "y", "z"])
    for _ in range(25):
        a = random_form(rng, s, 1)
        b = random_form(rng, s, 2)
        fields = [random_vector_field(rng, s) for _ in range(3)]
        lhs = a.wedge(b)(*fields)
        total = RatFun.zero(3)
        for perm in permutations(range(3)):
            sign = _perm_sign(perm)
            value = a(fields[perm[0]]) * b(fields[perm[1]], fields[perm[2]])
            total = total + (value if sign > 0 else -value)
        # each (1,2)-shuffle appears 1!·2! times in the full permutation sum
        assert lhs * 2 == total


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_graded_anticommutativity_randomized(rng):
    s = Space.chart(["a", "b", "c", "d"])
    for _ in range(30):
        p = rng.choice([1, 2])
        q = rng.choice([1, 2])
        a = random_form(rng, s, p)
        b = random_form(rng, s, q)
        lhs = a.wedge(b)
        rhs = b.wedge(a)
        if (p * q) % 2:
            rhs = -rhs
        assert lhs == rhs


# --- pairing by contraction ---------------------------------------------------------
# The reference is the det-of-minors definition computed in plain Fractions at a
# random rational point, sharing no code with RatFun canonical form.

_small = st.integers(-3, 3).map(Fraction)
_points = st.fractions(-3, 3, max_denominator=4)


def _terms(nvars):
    """A polynomial as raw {exponents: coefficient} terms."""
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), _small, max_size=3)


def _eval_terms(terms, point):
    total = Fraction(0)
    for exps, c in terms.items():
        for x, e in zip(point, exps):
            c *= x**e
        total += c
    return total


def _leibniz_det(rows):
    total = Fraction(0)
    for perm in permutations(range(len(rows))):
        term = Fraction(_perm_sign(perm))
        for a, b in enumerate(perm):
            term *= rows[a][b]
        total += term
    return total


def _det_of_minors(coeffs, fields):
    """sum_I c_I det(v_b[i_a]) from Fraction values."""
    return sum(
        (c * _leibniz_det([[f[i] for f in fields] for i in idx]) for idx, c in coeffs.items()),
        Fraction(0),
    )


@st.composite
def _pairing_case(draw, nvars, value):
    p = draw(st.integers(1, 3))
    indices = list(combinations(range(nvars), p))
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=3, unique=True))
    coeffs = {idx: draw(value) for idx in chosen}
    fields = [[draw(value) for _ in range(nvars)] for _ in range(p)]
    return coeffs, fields


@settings(max_examples=80, deadline=None)
@given(_pairing_case(4, _terms(4)), st.tuples(*[_points] * 4))
def test_pairing_is_the_det_of_minors_on_a_chart(case, point):
    coeffs, fields = case
    s = Space.chart(["a", "b", "c", "d"])
    form = Form(s, len(fields), {idx: Poly(4, t) for idx, t in coeffs.items()})
    vectors = [VectorField(s, [Poly(4, t) for t in comps]) for comps in fields]
    expected = _det_of_minors(
        {idx: _eval_terms(t, point) for idx, t in coeffs.items()},
        [[_eval_terms(t, point) for t in comps] for comps in fields],
    )
    assert form(*vectors).eval(point) == expected


@settings(max_examples=60, deadline=None)
@given(_pairing_case(6, _small))
def test_pairing_is_the_det_of_minors_on_nilpotent_g6(case):
    coeffs, fields = case
    s = build_nilpotent_space()
    value = Form(s, len(fields), coeffs)(*(VectorField(s, f) for f in fields))
    assert value.is_constant()
    assert value.constant_value() == _det_of_minors(coeffs, fields)


# --- exterior derivative -------------------------------------------------------


def test_d_of_contact_form():
    s = build_r6_space()
    a1, _ = build_r6_forms(s)
    da1 = a1.d()
    # d(dz1 - x1 dy1) = -dx1 ^ dy1
    assert da1 == Form(s, 2, {(0, 1): -1})


def test_d_of_constant_is_zero():
    s = Space.chart(["x", "y"])
    assert Form.function(s, 7).d().is_zero()


def test_lie_frame_differential_matches_structure_equation():
    s = build_nilpotent_space()
    dw2 = covector(s, 1).d()
    assert dw2 == Form(s, 2, {(4, 5): 1})
    assert covector(s, 0).d().is_zero()
    assert covector(s, 5).d().is_zero()


def test_d_squared_zero_randomized(rng):
    for _ in range(30):
        dim = rng.choice([2, 3, 4])
        s = Space.chart([f"c{i}" for i in range(dim)])
        p = rng.randrange(dim)
        a = random_form(rng, s, p)
        assert a.d().d().is_zero()


def test_jacobi_violation_rejected():
    # d w1 = w1^w3 and d w3 = w1^w2 give d(d w3) = -w1^w2^w3 != 0
    with pytest.raises(ValueError, match="Jacobi"):
        Space.lie_frame(
            ["w1", "w2", "w3"],
            differentials={0: [(0, 2, Fraction(1))], 2: [(0, 1, Fraction(1))]},
        )


def test_lie_frame_rejects_non_constant_coefficients():
    s = build_nilpotent_space()
    with pytest.raises(ValueError, match="constant"):
        Form(s, 1, {(0,): RatFun.variable(6, 0)})


def test_structure_constants_and_differentials_agree():
    """The covector differentials define the brackets by
    c^k_{ij} = -dw_k(X_i, X_j), and d of a covector gives them back."""
    s = build_nilpotent_space()
    for i, j, k in ((4, 5, 1), (0, 3, 2), (0, 4, 3), (0, 5, 4)):  # [X5, X6] = -X2, ...
        assert bracket(basis(s, i), basis(s, j)) == -basis(s, k)
    assert dict(s.nonzero_brackets())[(5, 4)] == {1: Fraction(1)}
    assert s.covector_differential(1) == Form(s, 2, {(4, 5): 1})


# --- interior product -----------------------------------------------------------


def test_interior_basic():
    s = Space.chart(["x1", "y1"])
    a = covector(s, 0).wedge(covector(s, 1))
    assert a.contract(basis(s, 0)) == covector(s, 1)


def test_interior_of_reeb_field_kills_differential():
    s = build_r6_space()
    a1, _ = build_r6_forms(s)
    z1 = basis(s, 4)  # ∂z1
    assert a1.d().contract(z1).is_zero()


def test_interior_pairs_with_coefficients():
    s = build_r6_space()
    a1, _ = build_r6_forms(s)
    got = a1.contract(basis(s, 1))  # ∂y1
    assert got.degree == 0
    assert got.coefficient(()) == -s.coordinate(0)


def test_interior_rejects_degree_zero():
    s = Space.chart(["x", "y"])
    with pytest.raises(ValueError):
        Form.function(s, 1).contract(basis(s, 0))


# --- brackets --------------------------------------------------------------------


def test_chart_bracket():
    s = Space.chart(["x", "y"])
    x_field = VectorField(s, [1, 0])
    xy_field = VectorField(s, [0, s.coordinate(0)])
    assert bracket(x_field, xy_field) == basis(s, 1)


def test_nilpotent_bracket():
    s = build_nilpotent_space()
    x5, x6 = basis(s, 4), basis(s, 5)
    assert bracket(x5, x6) == -basis(s, 1)  # [X5, X6] = -X2
    assert bracket(basis(s, 1), basis(s, 2)).is_zero()  # Reeb fields commute


def test_bracket_antisymmetry_randomized(rng):
    s = Space.chart(["a", "b", "c"])
    for _ in range(20):
        x = random_vector_field(rng, s)
        y = random_vector_field(rng, s)
        assert bracket(x, y) == -bracket(y, x)


# --- one frame calculus on both backends -------------------------------------------
# A chart is a frame with vanishing structure constants and a Lie frame one with
# constant coefficients; the frame identities must hold on both.

FRAME_BACKENDS = {
    "nilpotent_g6": build_nilpotent_space,
    "chart4": lambda: Space.chart(["a", "b", "c", "d"]),
}


def _random_field(rng, space):
    if space.is_lie:
        return VectorField(space, [rng.randint(-3, 3) for _ in range(space.dim)])
    return random_vector_field(rng, space)


def _random_one_form(rng, space):
    if space.is_lie:
        return Form(space, 1, {(i,): rng.randint(-3, 3) for i in range(space.dim)})
    return random_form(rng, space, 1, max_terms=space.dim)


@pytest.mark.parametrize("backend", sorted(FRAME_BACKENDS))
def test_d_of_one_form_is_the_frame_formula(rng, backend):
    """d alpha(X, Y) = X(alpha(Y)) - Y(alpha(X)) - alpha([X, Y])."""
    s = FRAME_BACKENDS[backend]()
    for _ in range(30):
        alpha = _random_one_form(rng, s)
        x, y = _random_field(rng, s), _random_field(rng, s)
        expected = (
            directional_derivative(x, alpha(y))
            - directional_derivative(y, alpha(x))
            - alpha(bracket(x, y))
        )
        assert alpha.d()(x, y) == expected


@pytest.mark.parametrize("backend", sorted(FRAME_BACKENDS))
def test_bracket_satisfies_jacobi(rng, backend):
    s = FRAME_BACKENDS[backend]()
    for _ in range(30):
        x, y, w = (_random_field(rng, s) for _ in range(3))
        total = bracket(x, bracket(y, w)) + bracket(y, bracket(w, x)) + bracket(w, bracket(x, y))
        assert total.is_zero()


def test_chart_covectors_are_closed():
    s = Space.chart(["x", "y", "z"])
    for k in range(s.dim):
        assert s.covector_differential(k) == Form(s, 2)


# --- Lie derivatives ---------------------------------------------------------------


def test_lie_derivative_of_form():
    s = Space.chart(["x", "y"])
    x_field = basis(s, 0)
    a = Form(s, 1, {(1,): s.coordinate(0)})  # x dy
    assert lie_derivative(x_field, a) == covector(s, 1)


def test_lie_derivative_of_contact_form_along_reeb():
    s = build_r6_space()
    a1, a2 = build_r6_forms(s)
    z1 = basis(s, 4)
    assert lie_derivative(z1, a1).is_zero()
    assert lie_derivative(z1, a2).is_zero()


def test_cartan_formula_randomized(rng):
    for _ in range(25):
        dim = rng.choice([2, 3])
        s = Space.chart([f"c{i}" for i in range(dim)])
        p = rng.randrange(1, dim)
        a = random_form(rng, s, p)
        x = random_vector_field(rng, s)
        got = lie_derivative(x, a)
        expected = a.d().contract(x) + a.contract(x).d()
        assert got == expected


def test_leibniz_randomized(rng):
    for _ in range(25):
        s = Space.chart(["u", "v", "w"])
        p = rng.choice([0, 1])
        a = random_form(rng, s, p)
        b = random_form(rng, s, 1)
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b)
        signed = a.wedge(b.d())
        rhs = rhs + (signed if p % 2 == 0 else -signed)
        assert lhs == rhs


def test_two_form_identity_randomized(rng):
    """(d a)(X, Y) = X·a(Y) - Y·a(X) - a([X, Y]) for 1-forms."""
    from contactpairs.exterior import directional_derivative

    for _ in range(25):
        s = Space.chart(["u", "v", "w"])
        a = random_form(rng, s, 1)
        x = random_vector_field(rng, s)
        y = random_vector_field(rng, s)
        lhs = a.d()(x, y)
        rhs = (
            directional_derivative(x, a(y))
            - directional_derivative(y, a(x))
            - a(bracket(x, y))
        )
        assert lhs == rhs


def _random_tensors(rng, space):
    """A random (1,1)-tensor and a random symmetric (0,2)-tensor."""
    n = space.dim

    def entry():
        if space.is_lie:
            return rng.randint(-3, 3)
        return random_ratfun(rng, n, max_degree=1, max_terms=2)

    phi = EndoField(space, [[entry() for _ in range(n)] for _ in range(n)])
    rows = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            rows[a][b] = rows[b][a] = entry()
    return phi, MetricField(space, rows)


@pytest.mark.parametrize("backend", sorted(FRAME_BACKENDS))
def test_lie_derivative_of_tensors_on_non_basis_fields(rng, backend):
    """(L_X g)(Y, W) = X(g(Y, W)) - g([X, Y], W) - g(Y, [X, W]) and
    (L_X phi)(Y) = [X, phi Y] - phi [X, Y]."""
    s = FRAME_BACKENDS[backend]()
    for _ in range(6):
        phi, g = _random_tensors(rng, s)
        x, y, w = (_random_field(rng, s) for _ in range(3))
        assert lie_derivative(x, g).value(y, w) == (
            directional_derivative(x, g.value(y, w))
            - g.value(bracket(x, y), w)
            - g.value(y, bracket(x, w))
        )
        assert lie_derivative(x, phi).apply(y) == bracket(x, phi.apply(y)) - phi.apply(
            bracket(x, y)
        )


@pytest.mark.parametrize("backend", sorted(FRAME_BACKENDS))
def test_lie_derivative_of_tensors_forms_the_bracket_matrix_once(rng, backend, monkeypatch):
    """L_X phi and L_X g read one bracket matrix B_X and call no bracket."""
    s = FRAME_BACKENDS[backend]()
    phi, g = _random_tensors(rng, s)
    x = _random_field(rng, s)
    calls = {"bracket": 0, "_bracket_matrix": 0}

    def counted(name):
        original = getattr(exterior, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(exterior, name, counted(name))
    for tensor in (phi, g):
        calls.update(bracket=0, _bracket_matrix=0)
        lie_derivative(x, tensor)
        assert calls == {"bracket": 0, "_bracket_matrix": 1}


@pytest.mark.parametrize("backend", sorted(FRAME_BACKENDS))
def test_bracket_is_the_frame_formula(rng, backend):
    """[X,Y]^k = X(Y^k) - Y(X^k) + sum_{i,j} X^i Y^j c^k_{ij}, summed term by
    term from the structure constants of each index pair."""
    s = FRAME_BACKENDS[backend]()
    for _ in range(6):
        x, y = _random_field(rng, s), _random_field(rng, s)
        expected = []
        for k in range(s.dim):
            value = directional_derivative(x, y.components[k]) - directional_derivative(
                y, x.components[k]
            )
            for i in range(s.dim):
                for j in range(s.dim):
                    c = s.bracket_coeffs(i, j).get(k, 0)
                    value = value + x.components[i] * y.components[j] * c
            expected.append(value)
        assert bracket(x, y) == VectorField(s, expected)


def test_lie_derivative_of_constant_tensors_on_nilpotent():
    s = build_nilpotent_space()
    z1 = basis(s, 1)  # X2 is central among the frame brackets
    phi_cols = [[0] * 6 for _ in range(6)]
    phi_cols[3][0] = -1
    phi_cols[0][3] = 1
    phi_cols[5][4] = -1
    phi_cols[4][5] = 1
    phi = EndoField(s, phi_cols)
    g = MetricField.euclidean(s)
    assert lie_derivative(z1, phi).is_zero()
    assert lie_derivative(z1, g).matrix.is_zero()


# --- evaluation ----------------------------------------------------------------


def test_eval_at_form():
    s = build_r6_space()
    a1, _ = build_r6_forms(s)
    point = [2, 0, 0, 0, 0, 0]
    values = a1.eval_at(point)
    assert values[(1,)] == Fraction(-2)
    assert values[(4,)] == Fraction(1)
    # pairing with ∂y1 at the point
    assert a1(VectorField.basis(s, 1)).eval(point) == Fraction(-2)


def test_eval_at_reports_offending_entry():
    s = Space.chart(["x", "y"])
    f = Form(s, 1, {(0,): RatFun.one(2) / RatFun.variable(2, 0)})
    with pytest.raises(ZeroDivisionError, match="coefficient"):
        f.eval_at([0, 1])


@pytest.mark.parametrize(
    "point, den, first",
    [([0, 1], "y - 1", 0), ([0, 2], "x^2", 1)],
    ids=["both vanish", "one vanishes"],
)
def test_pole_is_named_in_the_chart_coordinates(point, den, first):
    """A pole of a form, vector, endomorphism or metric entry names the first
    vanishing denominator, in row order for a matrix, written in the chart's
    coordinates."""
    s = Space.chart(["x", "y"])
    x, y = s.coordinate(0), s.coordinate(1)
    entries = [[1 / (y - 1), s.zero()], [s.zero(), 1 / (x * x)]]
    pole = f"denominator {den} vanishes at ({point[0]}, {point[1]})"
    cases = [
        (MetricField(s, entries), f"metric entry: {pole}"),
        (EndoField(s, entries), f"endomorphism entry: {pole}"),
        (VectorField(s, [entries[0][0], entries[1][1]]), f"component {s.names[first]}: {pole}"),
        (Form(s, 1, {(0,): entries[0][0], (1,): entries[1][1]}), f"coefficient {(first,)}: {pole}"),
    ]
    for tensor, message in cases:
        with pytest.raises(ZeroDivisionError) as info:
            tensor.eval_at(point)
        assert str(info.value) == message, type(tensor).__name__


def test_eval_constant_form_anywhere():
    s = build_nilpotent_space()
    w = Form(s, 2, {(4, 5): Fraction(3, 2)})
    assert w.eval_at([0] * 6) == {(4, 5): Fraction(3, 2)}


def test_metric_positive_definite_check():
    s = Space.chart(["x", "y"])
    g = MetricField(s, [[1, 0], [0, RatFun.variable(2, 0)]])
    assert g.is_positive_definite_at([1, 0])
    assert not g.is_positive_definite_at([-1, 0])
    assert not g.is_positive_definite_at([0, 0])


def _ldl_positive_definite(a):
    """Reference: the root-free Cholesky a = L·D·Lᵀ in Fractions, with no
    zero skip; positive definite iff every d_j > 0."""
    n = len(a)
    low = [[Fraction(0)] * n for _ in range(n)]
    d = []
    for j in range(n):
        d.append(a[j][j] - sum(low[j][m] ** 2 * d[m] for m in range(j)))
        if d[j] <= 0:
            return False
        for i in range(j + 1, n):
            low[i][j] = (a[i][j] - sum(low[i][m] * low[j][m] * d[m] for m in range(j))) / d[j]
    return True


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["gram", "shifted", "symmetric"]))
def test_positive_definite_matches_reference_cholesky(rng, kind):
    """Sylvester's criterion with its zero skips agrees with a plain LDLᵀ on
    sparse random rational symmetric matrices: Gram matrices BᵀB (positive
    definite, or only semidefinite when B has fewer rows than columns), Gram
    matrices shifted by a small multiple of the identity, and arbitrary ones."""
    n = rng.randint(1, 6)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0)

    if kind == "symmetric":
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = entry()
    else:
        b = [[entry() for _ in range(n)] for _ in range(rng.randint(max(n - 1, 1), n + 1))]
        a = [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]
        if kind == "shifted":
            shift = Fraction(rng.randint(-2, 2), 4)
            a = [[x + shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    g = MetricField(Space.chart([f"x{i}" for i in range(n)]), a)
    assert g.is_positive_definite_at([0] * n) == _ldl_positive_definite(a)


# --- frame-indexed alternating tensors ------------------------------------------


def test_frame_form_wedge_and_top_coefficient():
    one = RatFun.one(6)
    beta1 = FrameForm.one_form([one, RatFun.zero(6), RatFun.zero(6), RatFun.zero(6)])
    beta2 = FrameForm.one_form([RatFun.zero(6), one, RatFun.zero(6), RatFun.zero(6)])
    pairing = [[RatFun.zero(6)] * 4 for _ in range(4)]
    pairing[2][3] = one
    pairing[3][2] = -one
    d = FrameForm.two_form(pairing)
    top = beta1.wedge(beta2).wedge(d)
    assert top.top_coefficient() == one
    assert d.wedge_power(2).is_zero()


def test_frame_form_wedge_power_rejects_negative_exponent():
    d = FrameForm.two_form([[RatFun.zero(2), RatFun.one(2)], [-RatFun.one(2), RatFun.zero(2)]])
    assert d.wedge_power(1).top_coefficient() == RatFun.one(2)
    with pytest.raises(ValueError):
        d.wedge_power(-1)
