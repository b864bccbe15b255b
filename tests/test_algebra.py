"""Exact-arithmetic core: polynomials, rational functions, linear algebra."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactpairs
from contactpairs import algebra
from contactpairs.algebra import (
    ExactDivisionError,
    InconsistentSystemError,
    Poly,
    RatFun,
    RfMatrix,
    SingularMatrixError,
    divexact,
    generic_rank,
    kernel_basis,
    poly_gcd,
    solve_linear_exact,
    _dot,
    _one,
    format_point,
    format_poly,
)
from contactpairs.exterior import EndoField, Space

from conftest import dense_rref


def P(nvars, terms):
    return Poly(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


def rf(num, den=None):
    return RatFun(num, den)


X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)


# --- polynomial basics -------------------------------------------------------


def test_zero_coefficients_are_dropped():
    p = P(2, {(1, 0): 1, (0, 1): 0})
    assert p == X
    assert (X - X).is_zero()


def test_poly_eval_and_diff():
    p = X * X * Y + 2 * Y + 3
    assert p.eval([Fraction(2), Fraction(-1)]) == 4 * -1 + -2 + 3
    assert p.diff(0) == 2 * X * Y
    assert p.diff(1) == X * X + 2


def test_leading_term_is_grlex():
    p = X**2 + X * Y**2 + Y
    exps, coeff = p.leading()
    assert exps == (1, 2) and coeff == 1  # degree 3 beats degree 2


def test_format_round_idempotent():
    p = X**2 * Y - Fraction(1, 2) * Y + 3
    assert str(p) == "x1^2*x2 - 1/2*x2 + 3"


coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exponents, coeffs, max_size=4).map(lambda t: Poly(2, t))


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
    else:
        for p in (a, b):
            if not p.is_zero():
                divexact(p * Poly.const(2, _den_scale(p)), g)  # must not raise


def _den_scale(p):
    scale = 1
    for c in p.terms.values():
        scale = scale * c.denominator // __import__("math").gcd(scale, c.denominator)
    return scale


def test_gcd_known_values():
    assert poly_gcd(X**2 - 1, X**2 + 2 * X + 1) == X + 1
    assert poly_gcd(X * Y, Y * Y) == Y
    assert poly_gcd(2 * X, Poly.const(2, 4)) == Poly.const(2, 2)
    assert poly_gcd(Poly.zero(2), 3 * X) == 3 * X


def test_gcd_three_variable_stress():
    """Common factors must always cancel: gcd(a*g, b*g) is divisible by g,
    symmetric up to normalization, and RatFun((a*g)/(b*g)) == RatFun(a/b)."""
    rng = random.Random(424242)

    def rand_poly(nvars=3, terms=3, degree=2):
        out = {}
        for _ in range(rng.randint(1, terms)):
            exps = [0] * nvars
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(nvars)] += 1
            out[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Poly(nvars, out)

    from contactpairs.algebra import divexact

    checked = 0
    for _ in range(150):
        a, b, g = rand_poly(), rand_poly(), rand_poly()
        if a.is_zero() or b.is_zero() or g.is_zero():
            continue
        common = poly_gcd(a * g, b * g)
        divexact(common, poly_gcd(g, g))  # g (primitive) divides the gcd
        assert poly_gcd(a * g, b * g) == poly_gcd(b * g, a * g)
        assert RatFun(a * g, b * g) == RatFun(a, b)
        checked += 1
    assert checked > 100


def test_divexact_rejects_non_divisor():
    with pytest.raises(ExactDivisionError):
        divexact(X + 1, Y)


# --- rational functions ------------------------------------------------------


def test_ratfun_cancellation():
    a = rf(X * X - Y * Y, X - Y)  # (x-y)(x+y)/(x-y)
    assert a == rf(X + Y)
    assert a.is_polynomial()


def test_ratfun_monic_denominator():
    a = rf(X, 2 * Y + 2)
    assert a.den == Y + 1
    assert a.num == Fraction(1, 2) * X


def test_ratfun_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        rf(X, Poly.zero(2))
    with pytest.raises(ZeroDivisionError):
        rf(X) / rf(Poly.zero(2))


def test_ratfun_eval_reports_pole():
    a = rf(Poly.const(2, 1), X)
    with pytest.raises(ZeroDivisionError):
        a.eval([0, 5])
    assert a.eval([2, 0]) == Fraction(1, 2)


def test_ratfun_diff_quotient_rule():
    f = rf(X, Y)
    assert f.diff(1) == rf(-X, Y * Y)
    assert f.diff(0) == rf(Poly.const(2, 1), Y)


ratfuns = st.tuples(polys, polys).map(
    lambda t: RatFun(t[0], t[1]) if not t[1].is_zero() else RatFun(t[0])
)


@settings(max_examples=100, deadline=None)
@given(ratfuns, ratfuns, ratfuns)
def test_ratfun_field_laws(a, b, c):
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    if not c.is_zero():
        assert (a * c) / c == a


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ratfun_cancellation_is_canonical(p, q, r):
    if q.is_zero() or r.is_zero():
        return
    assert RatFun(p * r, q * r) == RatFun(p, q)


# --- trusted construction and the dot kernel ------------------------------------


def _stores_only_valid_terms(p):
    return all(
        isinstance(c, Fraction) and c != 0 and len(e) == p.nvars and min(e, default=0) >= 0
        for e, c in p.terms.items()
    )


def test_const_zero_is_the_zero_polynomial():
    for n in (0, 1, 3):
        for zero in (0, Fraction(0), "0"):
            p = Poly.const(n, zero)
            assert p == Poly.zero(n) and hash(p) == hash(Poly.zero(n))
            assert p.terms == {} and Poly.zero(n).terms == {}


def test_public_constructor_still_validates():
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(2, {(1, -1): 1})
    with pytest.raises(ValueError, match="has length 3, expected 2"):
        Poly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="has length 1, expected 2"):
        Poly(2, {(1,): 1})


def test_polynomial_ratfuns_share_one_denominator():
    for n in (1, 2, 4):
        one = _one(n)
        assert one == Poly.const(n, 1)
        assert RatFun.one(n).den is one
        assert RatFun.const(n, 5).den is one and RatFun.zero(n).den is one
        assert RatFun(Poly.variable(n, 0), Poly.const(n, 3)).den is one
        p = Poly.variable(n, 0)
        assert RatFun(p).num is p and RatFun(p).den is one
    # after cancellation to a polynomial, and in products and sums of polynomials
    assert rf(X * X - Y * Y, X - Y).den is _one(2)
    assert (rf(X) * rf(Y) + rf(X)).den is _one(2)


@settings(max_examples=60, deadline=None)
@given(polys, polys, coeffs)
def test_trusted_results_store_no_zero_coefficient(p, q, c):
    results = [p._scaled(c), -p, p.diff(0), p.diff(1), p * q, p + q, p - p]
    if not q.is_zero():
        results += [divexact(p * q, q), divexact(p, Poly.const(2, 3))]
    for r in results:
        assert _stores_only_valid_terms(r), r
    if not q.is_zero():
        assert divexact(p * q, q) == p


def test_no_code_mutates_poly_terms_in_place():
    """Polynomials share their term dicts (the constant-1 denominator is one
    object per variable count), so ``.terms`` is written only where a Poly
    is made."""
    mutators = {"pop", "popitem", "update", "setdefault", "clear", "__setitem__", "__delitem__"}
    offenders = []
    for path in sorted(Path(contactpairs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        makers = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "_of")
            and path.name == "algebra.py"
            for node in ast.walk(fn)
        }

        def is_terms(node):
            return isinstance(node, ast.Attribute) and node.attr == "terms"

        for node in ast.walk(tree):
            bad = (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del)) and is_terms(node.value)
            ) or (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in mutators and is_terms(node.func.value)
            ) or (
                isinstance(node, ast.AugAssign)
                and (is_terms(node.target) or isinstance(node.target, ast.Subscript)
                     and is_terms(node.target.value))
            ) or (
                is_terms(node) and isinstance(node.ctx, ast.Store) and id(node) not in makers
            )
            if bad:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# entries over a small pool of denominators: equal draws share one, the
# constant 1 included, and zero numerators give zero entries
dot_entries = st.tuples(
    st.dictionaries(st.sampled_from([(0, 0), (1, 0), (0, 1)]), coeffs, max_size=2),
    st.sampled_from([{(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}, {(1, 0): 1, (0, 0): 1}]),
).map(lambda t: rf(P(2, t[0]), P(2, t[1])))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(dot_entries, dot_entries), max_size=5))
def test_dot_is_the_left_fold(pairs):
    fold = RatFun.zero(2)
    for x, y in pairs:
        fold = fold + x * y
    assert _dot(2, pairs) == fold


# zero, constant, polynomial and rational entries, so that a sum mixes the
# products over denominator 1 with the products grouped by denominator
mixed_entries = st.one_of(
    st.just(RatFun.zero(2)),
    coeffs.map(lambda c: RatFun.const(2, c)),
    polys.map(RatFun),
    dot_entries,
)


def _grouped_by_denominator(pairs):
    """Σ x·y with every product keyed by its denominator product, 1·1
    included: the reference for the group and term order of ``_dot``, which
    the float compile of ``connection`` reads."""
    groups = {}
    for x, y in pairs:
        if x.num.terms and y.num.terms:
            algebra._add_product(groups.setdefault(x.den * y.den, {}), x.num.terms, y.num.terms)
    num = den = None
    for d, terms in groups.items():
        if terms:
            n = Poly._of(2, terms)
            num, den = (n, d) if num is None else (num * d + n * den, den * d)
    return RatFun.zero(2) if num is None else RatFun(num, den)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(mixed_entries, mixed_entries), max_size=6))
def test_dot_on_mixed_pairs_is_the_left_fold(pairs):
    fold = RatFun.zero(2)
    for x, y in pairs:
        fold = fold + x * y
    result = _dot(2, pairs)
    assert result == fold
    reference = _grouped_by_denominator(pairs)
    assert list(result.num.terms) == list(reference.num.terms)
    assert list(result.den.terms) == list(reference.den.terms)
    if all(x.is_polynomial() and y.is_polynomial() for x, y in pairs):
        assert result.den is _one(2)


small_fractions = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(mixed_entries, min_size=2, max_size=2), min_size=2, max_size=2),
    st.tuples(small_fractions, small_fractions),
)
def test_eval_at_is_the_entrywise_eval(rows, point):
    """``RfMatrix.eval_at`` gives what ``RatFun.eval`` gives entry by entry,
    and a pole still raises through ``_matrix_at`` naming the first vanishing
    denominator in row order."""
    matrix = RfMatrix(2, rows)
    endo = EndoField(Space.chart(["x", "y"]), matrix)
    try:
        expected = [[e.eval(point) for e in row] for row in rows]
    except ZeroDivisionError:
        den = next(e.den for row in rows for e in row if e.den.eval(point) == 0)
        with pytest.raises(ZeroDivisionError) as info:
            endo.eval_at(point)
        assert str(info.value) == (
            f"endomorphism entry: denominator {format_poly(den, ('x', 'y'))} "
            f"vanishes at {format_point(point)}"
        )
        return
    assert matrix.eval_at(point) == expected
    assert endo.eval_at(point) == expected


def test_dot_of_a_vanishing_sum_takes_no_gcd(monkeypatch):
    a, b, c = rf(X, Y + 1), rf(Y, X), rf(X + Y, X * Y + 1)
    pairs = [(a, b), (c, a), (-a, b), (rf(Poly.const(2, 1)), rf(X)), (-c, a), (rf(-X), rf(Y, Y))]
    calls = []
    gcd = algebra.poly_gcd
    monkeypatch.setattr(algebra, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    assert _dot(2, pairs).is_zero()
    assert calls == []
    assert _dot(2, pairs[:2]) == a * b + c * a and calls


# --- linear algebra ----------------------------------------------------------


def test_solve_identity():
    a = RfMatrix.identity(2, 2)
    sol = solve_linear_exact(a, [1, 0])
    assert sol.particular == (RatFun.one(2), RatFun.zero(2))
    assert sol.kernel == ()


def test_solve_underdetermined_kernel():
    a = RfMatrix(2, [[1, RatFun.variable(2, 0)]])
    sol = solve_linear_exact(a, [0])
    assert len(sol.kernel) == 1
    v = sol.kernel[0]
    # substitute back: 1*v0 + x*v1 = 0 identically
    assert (v[0] + RatFun.variable(2, 0) * v[1]).is_zero()


def test_solve_inconsistent():
    a = RfMatrix(1, [[1], [1]])
    with pytest.raises(InconsistentSystemError):
        solve_linear_exact(a, [0, 1])


def test_solve_six_dim_reeb_system():
    """Full-rank 6x6 cut of the Reeb equations for the product-of-contact-
    structures chart (coordinates x1, y1, x2, y2, z1, z2): the solution is
    the z1 basis direction."""
    nvars = 6
    x1 = RatFun.variable(nvars, 0)
    x2 = RatFun.variable(nvars, 2)
    zero = RatFun.zero(nvars)
    one = RatFun.one(nvars)
    rows = [
        [zero, -x1, zero, zero, one, zero],   # alpha1(Z) = 1
        [zero, zero, zero, -x2, zero, one],   # alpha2(Z) = 0
        [zero, one, zero, zero, zero, zero],  # (i_Z d alpha1)[x1] = 0
        [-one, zero, zero, zero, zero, zero],  # (i_Z d alpha1)[y1] = 0
        [zero, zero, zero, one, zero, zero],  # (i_Z d alpha2)[x2] = 0
        [zero, zero, -one, zero, zero, zero],  # (i_Z d alpha2)[y2] = 0
    ]
    sol = solve_linear_exact(RfMatrix(nvars, rows), [1, 0, 0, 0, 0, 0])
    assert sol.kernel == ()
    expected = [zero, zero, zero, zero, one, zero]
    assert list(sol.particular) == expected


def test_kernel_basis_matches_spec_examples():
    zero = RfMatrix.zeros(2, 2, 1)
    basis = kernel_basis(zero)
    assert len(basis) == 2

    a = RfMatrix(2, [[1, RatFun.variable(2, 0)]])
    basis = kernel_basis(a)
    assert len(basis) == 1
    assert basis[0] == [-X, Poly.const(2, 1)]

    full = RfMatrix(1, [[1, 2], [0, 1]])
    assert kernel_basis(full) == []

    # no rows: every column is free; no columns: nothing to span
    units = [[Poly.const(2, int(a == b)) for b in range(3)] for a in range(3)]
    assert kernel_basis(RfMatrix.zeros(0, 3, 2)) == units
    assert kernel_basis(RfMatrix.zeros(2, 0, 2)) == []


def test_kernel_vectors_are_primitive_polynomials():
    # row [x, x^2] has kernel direction (-x, 1); cleared and reduced
    a = RfMatrix(2, [[RatFun.variable(2, 0), RatFun(X * X)]])
    (v,) = kernel_basis(a)
    assert v == [-X, Poly.const(2, 1)]


def test_generic_rank():
    assert generic_rank(RfMatrix.identity(3, 1)) == 3
    assert generic_rank(RfMatrix(1, [[RatFun.variable(1, 0)]])) == 1
    assert generic_rank(RfMatrix.zeros(2, 3, 1)) == 0
    # rank is generic: x vanishes at 0 but is invertible as a function
    m = RfMatrix(1, [[RatFun.variable(1, 0), 1], [0, 1]])
    assert generic_rank(m) == 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=2, max_size=4
    ),
    st.integers(0, 10_000),
)
def test_rank_plus_nullity(rows, seed):
    rng = random.Random(seed)
    nvars = 2
    # sprinkle in a variable entry to exercise the function field
    mat = [[Poly.const(nvars, c) for c in row] for row in rows]
    i = rng.randrange(len(mat))
    j = rng.randrange(3)
    mat[i][j] = mat[i][j] + Poly.variable(nvars, rng.randrange(nvars))
    a = RfMatrix(nvars, mat)
    assert generic_rank(a) + len(kernel_basis(a)) == a.cols


# Entries over Q(x, y): zero half the time, otherwise constants (which tie
# on pivot weight 0), polynomials and rational functions.
_RREF_POOL = [
    RatFun.one(2), RatFun.const(2, -1), RatFun.const(2, 2), RatFun.const(2, Fraction(1, 2)),
    RatFun(X), RatFun(Y), RatFun(X + 1), RatFun(X * Y - 1), RatFun(Y * Y),
    RatFun(Poly.const(2, 1), X), RatFun(X + 1, Y), RatFun(Y, X - 1), RatFun(X, X + Y),
]
rref_entries = st.one_of(st.just(RatFun.zero(2)), st.sampled_from(_RREF_POOL))


@st.composite
def rref_systems(draw):
    """Rows of [A | B] with A m×n and 0–2 right-hand-side columns B, with
    optionally a zero row, a zero column of A, and a last row that is a
    combination of the first two (rank deficiency)."""
    m, n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 2))
    rows = [[draw(rref_entries) for _ in range(n + k)] for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        c = draw(st.sampled_from(_RREF_POOL))
        rows[-1] = [a * c + b for a, b in zip(rows[0], rows[1])]
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [RatFun.zero(2)] * (n + k)
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = RatFun.zero(2)
    return rows, n


@settings(max_examples=120, deadline=None)
@given(rref_systems())
def test_sparse_rref_matches_the_dense_reference(system):
    """The sparse elimination takes the pivots of the dense one it replaced
    (kept in conftest) and reduces every entry to the same value, with its
    terms in the same order, and stores no zero."""
    rows, n = system
    width = len(rows[0])
    rhs = [row[n:] for row in rows] if width > n else None
    want_rows, want_rhs, want_pivots = dense_rref([row[:n] for row in rows], rhs, 2)
    sparse = [{j: e for j, e in enumerate(row) if not e.is_zero()} for row in rows]
    reduced, pivots = algebra._rref(sparse, n, 2)
    assert pivots == want_pivots
    assert all(not e.is_zero() for row in reduced for e in row.values())
    dense = [[row.get(j, RatFun.zero(2)) for j in range(width)] for row in reduced]
    assert [list(map(repr, row[:n])) for row in dense] == [list(map(repr, r)) for r in want_rows]
    if rhs is not None:
        assert [list(map(repr, row[n:])) for row in dense] == [
            list(map(repr, r)) for r in want_rhs
        ]


def test_solve_several_right_hand_sides_in_one_elimination():
    """Each right-hand side gets the particular solution of its own solve,
    and the first inconsistent one is named by its index."""
    x = RatFun.variable(2, 0)
    a = RfMatrix(2, [[1, x, 0], [0, x, 1], [1, 0, -1]])
    first, second = [x, 1, x - 1], [0, 1, -1]
    sol = solve_linear_exact(a, first, second)
    assert sol.particulars == (
        solve_linear_exact(a, first).particular, solve_linear_exact(a, second).particular
    )
    assert sol.particular == sol.particulars[0]
    assert sol.kernel == solve_linear_exact(a, first).kernel
    with pytest.raises(InconsistentSystemError) as info:
        solve_linear_exact(a, first, [0, 0, 1])
    assert info.value.column == 1 and info.value.nullity == 1
    assert str(info.value) == "row 2 reduces to 0 = 1; system has no solution"


def test_solution_substitutes_back():
    x = RatFun.variable(2, 0)
    a = RfMatrix(2, [[1, x, 0], [0, x, 1]])
    b = [x, 1]
    sol = solve_linear_exact(a, b)
    for i in range(a.rows):
        lhs = sum(
            (a.at(i, j) * sol.particular[j] for j in range(a.cols)),
            RatFun.zero(2),
        )
        assert lhs == a._coerce_entry(b[i])
    for v in sol.kernel:
        for i in range(a.rows):
            lhs = sum((a.at(i, j) * v[j] for j in range(a.cols)), RatFun.zero(2))
            assert lhs.is_zero()


def test_det_and_inverse():
    x = RatFun.variable(1, 0)
    m = RfMatrix(1, [[1, x], [0, 1]])
    assert m.det() == RatFun.one(1)
    inv = m.inverse()
    assert (m @ inv) == RfMatrix.identity(2, 1)

    sing = RfMatrix(1, [[x, x], [1, 1]])
    assert sing.det().is_zero()


def test_det_with_denominators():
    x = RatFun.variable(1, 0)
    m = RfMatrix(1, [[1 / x, 0], [0, x]])
    assert m.det() == RatFun.one(1)


def test_inverse_of_singular_matrix_raises():
    x = RatFun.variable(2, 0)
    y = RatFun.variable(2, 1)
    for m in (
        RfMatrix(2, [[x, x], [1, 1]]),
        RfMatrix.zeros(3, 3, 2),
        # the second row is x^2 times the first
        RfMatrix(2, [[1 / x, y, 1], [x, x * x * y, x * x], [0, 1, y]]),
    ):
        assert m.det().is_zero()
        with pytest.raises(SingularMatrixError, match="singular over the function field"):
            m.inverse()


# entries p/q with p affine and q one of a few small denominators; off the
# diagonal, some are zero, as in a metric
matrix_entries = st.tuples(
    st.dictionaries(st.sampled_from([(0, 0), (1, 0), (0, 1)]), coeffs, min_size=1, max_size=2),
    st.sampled_from([{(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}, {(1, 0): 1, (0, 0): 1}]),
).map(lambda t: rf(P(2, t[0]), P(2, t[1])))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(2, 4))
    off_diagonal = st.one_of(st.just(RatFun.zero(2)), matrix_entries)
    return RfMatrix(
        2, [[draw(matrix_entries if i == j else off_diagonal) for j in range(n)] for i in range(n)]
    )


def _cleared(entries):
    """Polynomials p_k and a polynomial d with entries[k] = p_k / d."""
    d = Poly.const(2, 1)
    for e in entries:
        d = divexact(d * e.den, poly_gcd(d, e.den))
    return [divexact(e.num * d, e.den) for e in entries], d


@settings(max_examples=25, deadline=None)
@given(square_matrices())
def test_inverse_is_exact(m):
    """M M^-1 = I, checked as r_i · c_j = d_i e_j δ_ij on the polynomial rows
    r_i = d_i M[i, :] and columns c_j = e_j M^-1[:, j]: polynomial products,
    where RatFun sums would take a gcd per addition."""
    if m.det().is_zero():
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    inverse = m.inverse()
    rows = [_cleared(m.row(i)) for i in range(m.rows)]
    columns = [_cleared(inverse.column(j)) for j in range(m.rows)]
    for i, (r, d) in enumerate(rows):
        for j, (c, e) in enumerate(columns):
            product = Poly.zero(2)
            for a, b in zip(r, c):
                product = product + a * b
            assert product == (d * e if i == j else Poly.zero(2))


def test_inverse_matches_sympy_on_built_metric():
    """The type-(1,1) standard local model (the chart-ladder rung (1,1)) and
    the metric build_compatible makes from its identity aux_metric."""
    sympy = pytest.importorskip("sympy")
    from contactpairs.fixtures import bundled_fixture_path, load_fixture
    from contactpairs.metric import build_compatible
    from contactpairs.pair import verified_pair
    from contactpairs.structure import ContactPairStructure

    doc = load_fixture(bundled_fixture_path("local_model_1_1"))
    vp = verified_pair(doc.pair)
    g = build_compatible(ContactPairStructure(vp, doc.phi), doc.aux_metric).matrix
    names = vp.space.names
    symbols = dict(zip(names, sympy.symbols(names)))

    def to_sympy(r):
        return sympy.sympify(r.format(names), locals=symbols)

    ours = g.inverse()
    theirs = sympy.Matrix([[to_sympy(e) for e in row] for row in g.entries]).inv()
    assert not g.is_zero() and not all(e.is_constant() for row in g.entries for e in row)
    for i in range(g.rows):
        for j in range(g.cols):
            assert sympy.cancel(to_sympy(ours.at(i, j)) - theirs[i, j]) == 0, (i, j)


def _poly_to_sympy(sympy, p):
    x, y = sympy.symbols("x y")
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * x**a * y**b for (a, b), c in p.terms.items()),
        sympy.Integer(0),
    )


def _sympy_field_matrix(sympy, rows):
    """Rows of Poly/RatFun over (x, y) as a sympy DomainMatrix over Q(x, y)."""
    from sympy.polys.matrices import DomainMatrix

    def to_sympy(e):
        if isinstance(e, Poly):
            return _poly_to_sympy(sympy, e)
        return _poly_to_sympy(sympy, e.num) / _poly_to_sympy(sympy, e.den)

    return DomainMatrix.from_Matrix(
        sympy.Matrix([[to_sympy(e) for e in row] for row in rows])
    ).to_field()


def _random_qxy_matrices(seed, count):
    """Random matrices up to 4 x 4 over Q(x, y) whose entries have
    denominators, some made rank-deficient by a row that is a
    Q(x, y)-combination of two others; yields (matrix, deficient)."""
    rng = random.Random(seed)
    dens = [Poly.const(2, 1), X, Y + 1, X - Y]
    coefficients = [rf(X), rf(Poly.const(2, 1), Y + 1), rf(X + 2, X - Y)]

    def entry():
        if rng.random() < 0.25:
            return RatFun.zero(2)
        num = Poly(2, {
            (rng.randint(0, 1), rng.randint(0, 1)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(1, 2))
        })
        return rf(num, rng.choice(dens))

    for _ in range(count):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[entry() for _ in range(cols)] for _ in range(rows)]
        deficient = rows >= 3 and rng.random() < 0.6
        if deficient:
            a, b = rng.sample(coefficients, 2)
            mat[-1] = [a * u + b * v for u, v in zip(mat[0], mat[1])]
        yield mat, deficient


def test_det_matches_sympy():
    """RfMatrix.det, the Pfaffian of [[0, A], [-A^T, 0]], against sympy's
    determinant over Q(x, y) on random 2 x 2 to 4 x 4 matrices whose entries
    have denominators."""
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=10, deadline=None)
    @given(square_matrices())
    def check(m):
        ours = m.det()
        theirs = _sympy_field_matrix(sympy, m.entries)
        theirs = theirs.domain.to_sympy(theirs.det())
        ours = _poly_to_sympy(sympy, ours.num) / _poly_to_sympy(sympy, ours.den)
        assert sympy.cancel(ours - theirs) == 0, m.entries

    check()


def test_generic_rank_matches_sympy():
    """generic_rank against sympy's exact rank over Q(x, y) on random
    matrices, some of them rank-deficient."""
    sympy = pytest.importorskip("sympy")
    deficient = 0
    for mat, planted in _random_qxy_matrices(5, 12):
        deficient += planted
        ours = generic_rank(RfMatrix(2, mat))
        assert ours == _sympy_field_matrix(sympy, mat).rank(), mat
    assert deficient


def test_kernel_basis_matches_sympy():
    """kernel_basis against sympy's nullspace over Q(x, y): the same
    dimension, and our vectors independent and inside sympy's span."""
    sympy = pytest.importorskip("sympy")
    deficient = 0
    for mat, planted in _random_qxy_matrices(6, 10):
        deficient += planted
        ours = kernel_basis(RfMatrix(2, mat))
        theirs = _sympy_field_matrix(sympy, mat).nullspace()
        assert len(ours) == theirs.shape[0], mat
        if ours:
            assert _sympy_field_matrix(sympy, ours).rank() == len(ours), mat
            stacked = theirs.vstack(_sympy_field_matrix(sympy, ours))
            assert stacked.rank() == len(ours), mat
    assert deficient


def test_poly_gcd_matches_sympy():
    """poly_gcd against sympy.gcd, up to a nonzero rational constant, on
    random 2- and 3-variable polynomials with a planted common factor."""
    sympy = pytest.importorskip("sympy")

    rng = random.Random(13)

    def random_poly(nvars, terms, degree):
        return Poly(nvars, {
            tuple(rng.randint(0, degree) for _ in range(nvars)):
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            for _ in range(terms)
        })

    planted = 0
    for _ in range(16):
        nvars = rng.choice([2, 3])
        syms = sympy.symbols(f"x0:{nvars}")

        def to_sympy(p):
            return sum(
                (sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*(s**e for s, e in zip(syms, exps)))
                 for exps, c in p.terms.items()),
                sympy.Integer(0),
            )

        common = random_poly(nvars, rng.randint(1, 3), 2)
        a = common * random_poly(nvars, rng.randint(1, 3), 2)
        b = common * random_poly(nvars, rng.randint(1, 3), 2)
        planted += not common.is_constant()
        theirs = sympy.gcd(to_sympy(a), to_sympy(b))
        ratio = sympy.cancel(to_sympy(poly_gcd(a, b)) / theirs)
        assert ratio.is_Rational and ratio != 0, (a, b, ratio)
    assert planted
