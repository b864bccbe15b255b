"""The sparse exact kernels against the dense loops they replaced.

``RfMatrix`` products, sums and transposes and ``christoffel`` touch only
structural nonzeros.  Each is checked here against the dense formula it
replaced, kept in this file as the reference: every index, every entry, a
left fold of ``RatFun`` ``+`` and ``*`` for the matrix kernels, and the full
n³ Koszul loop for the connection.  The Christoffel symbols of the first
kind must agree term for term, in the order of their numerator's terms too,
since the RK4 cross-check compiles their denominators to float programs in
that order.  The identities of the Levi-Civita connection, metric
compatibility and torsion-freeness, are the oracle of the symbols: they
hold on every case, and a planted symbol breaks them.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from contactpairs.algebra import Poly, RatFun, RfMatrix, _dot
from contactpairs.connection import ChristoffelData, christoffel
from contactpairs.exterior import MetricField
from contactpairs.fixtures import FixtureError, load_fixture
from contactpairs.metric import build_compatible
from contactpairs.pair import verified_pair
from contactpairs.structure import ContactPairStructure

from conftest import (
    build_nilpotent_space,
    build_r6_metric,
    build_r6_space,
    chart_rung,
    frame_derivative,
    levi_civita_violation,
    lie_rung,
    random_spd_matrix,
)

ROOT = Path(__file__).resolve().parents[1]

# --- matrices ------------------------------------------------------------------------


def _fold(pairs, nvars):
    total = RatFun.zero(nvars)
    for x, y in pairs:
        total = total + x * y
    return total


def _dense_matmul(a, b):
    columns = list(zip(*b.entries)) if b.rows else [()] * b.cols
    return tuple(tuple(_fold(zip(row, col), a.nvars) for col in columns) for row in a.entries)


def _dense_apply(m, vector):
    return tuple(_fold(zip(row, vector), m.nvars) for row in m.entries)


def _dense_elementwise(a, b, op):
    return tuple(tuple(op(x, y) for x, y in zip(r, s)) for r, s in zip(a.entries, b.entries))


def _dense_transpose(m):
    return tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))


# Few distinct values and their negatives, so that products and sums cancel.
def _pool(nvars):
    x, y = Poly.variable(nvars, 0), Poly.variable(nvars, 1)
    base = [RatFun(x), RatFun(y + 1, x)]
    return base + [-v for v in base]


def _sparse_matrix(rng, rows, cols, nvars=2, density=0.5):
    """A random matrix over Q(x, y) with one zero row and one zero column
    (when it has any) and about ``density`` of its other entries nonzero."""
    pool = _pool(nvars)
    zero_row, zero_col = rng.randrange(rows + 1), rng.randrange(cols + 1)
    return RfMatrix(nvars, [
        [
            rng.choice(pool) if i != zero_row and j != zero_col and rng.random() < density
            else RatFun.zero(nvars)
            for j in range(cols)
        ]
        for i in range(rows)
    ])


def test_matrix_kernels_match_the_dense_reference():
    rng = random.Random(2008)
    cancelled = 0
    for _ in range(60):
        n, m, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, a2, b = _sparse_matrix(rng, n, m), _sparse_matrix(rng, n, m), _sparse_matrix(rng, m, p)
        vector = _sparse_matrix(rng, 1, m).entries[0]
        product = a @ b
        assert (product.rows, product.cols) == (n, p)
        assert product.entries == _dense_matmul(a, b)
        assert a.apply(vector) == _dense_apply(a, vector)
        assert (a + a2).entries == _dense_elementwise(a, a2, lambda x, y: x + y)
        assert (a - a2).entries == _dense_elementwise(a, a2, lambda x, y: x - y)
        assert (a - a).is_zero() and (a + (-a)).is_zero()
        assert a.transpose().entries == _dense_transpose(a)
        assert (a.transpose().rows, a.transpose().cols) == (m, n)
        for i, row in enumerate(a.entries):
            for j in range(p):
                support = [k for k in range(m) if not row[k].is_zero() and not b.at(k, j).is_zero()]
                if not support:  # nothing to sum: the shared zero, no _dot
                    assert product.at(i, j) is RatFun.zero(2)
                elif product.at(i, j).is_zero():
                    cancelled += 1
    assert cancelled  # some products summed to zero over a nonempty support


def test_difference_keeps_the_shared_zero():
    """a - b is the entrywise difference, and an entry that is zero in both
    operands is the shared zero, not a fresh negation of it."""
    rng = random.Random(29)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a, b = _sparse_matrix(rng, n, m), _sparse_matrix(rng, n, m)
        diff = a - b
        assert diff.entries == _dense_elementwise(a, b, lambda x, y: x - y)
        for i in range(n):
            for j in range(m):
                if a.at(i, j).is_zero() and b.at(i, j).is_zero():
                    assert diff.at(i, j) is RatFun.zero(2)


def test_matrix_kernels_on_empty_shapes():
    a = RfMatrix(2, [[], []])
    b = RfMatrix(2, [])
    assert (a @ RfMatrix(2, [])).entries == ((), ())
    assert (b @ b).entries == ()
    assert a.transpose().rows == 0 and b.transpose().rows == 0
    assert (a + a).entries == ((), ())
    zero = RfMatrix.zeros(2, 3, 2)
    assert (zero @ zero.transpose()).entries == ((RatFun.zero(2),) * 2,) * 2


def test_matrix_kernels_reject_other_variable_sets():
    a, b = RfMatrix.identity(2, 2), RfMatrix.identity(2, 3)
    for op in (lambda: a @ b, lambda: a + b, lambda: a - b):
        with pytest.raises(ValueError):
            op()


# --- the connection ------------------------------------------------------------------


def _old_bracket_coeffs(space, i, j):
    """[X_i, X_j] by a scan of every structure constant."""
    if i == j:
        return {}
    sign = -1 if i > j else 1
    lo, hi = min(i, j), max(i, j)
    return {k: sign * c for (a, b, k), c in space._sc.items() if (a, b) == (lo, hi) and c}


def _column(space, coeffs):
    return [space.scalar(coeffs[m]) if m in coeffs else space.zero() for m in range(space.dim)]


def _dense_symbols(g):
    """The n³ Koszul loop: every symbol of the first kind a sum of six terms."""
    space, n = g.space, g.space.dim
    half, minus_half = space.scalar(Fraction(1, 2)), space.scalar(Fraction(-1, 2))
    de = [
        [[frame_derivative(g.matrix.at(b, k), a) for k in range(n)] for b in range(n)]
        for a in range(n)
    ]
    gb = [
        [
            [_dot(n, zip(row, _column(space, _old_bracket_coeffs(space, a, b))))
             for row in g.matrix.entries]
            for b in range(n)
        ]
        for a in range(n)
    ]
    return tuple(
        tuple(
            tuple(
                _dot(n, (
                    (de[a][b][k], half), (de[b][a][k], half), (de[k][a][b], minus_half),
                    (gb[a][b][k], half), (gb[b][k][a], minus_half), (gb[k][a][b], half),
                ))
                for k in range(n)
            )
            for b in range(n)
        )
        for a in range(n)
    )


def _fixture_metrics():
    """Every bundled or test fixture that loads with a metric."""
    paths = sorted((ROOT / "src" / "contactpairs" / "data").glob("*.json"))
    paths += sorted((ROOT / "tests" / "fixtures").glob("*.json"))
    out = []
    for path in paths:
        try:
            if load_fixture(path).metric is not None:
                out.append(path)
        except FixtureError:  # the malformed fixtures the loader tests use
            pass
    return out


def _metric(case):
    kind, *args = case
    if kind == "fixture":
        return load_fixture(args[0]).metric
    if kind == "lie":
        return lie_rung(*args).metric
    doc = chart_rung(*args)  # the metric build_compatible makes from the aux_metric
    return build_compatible(ContactPairStructure(verified_pair(doc.pair), doc.phi), doc.aux_metric)


CASES = [
    *(("fixture", path) for path in _fixture_metrics()),
    *(("chart", h, k) for h, k in ((1, 1), (2, 1), (2, 2))),
    *(("lie", h, h) for h in (1, 2, 3)),
]


def _case_id(case):
    return case[1].stem if case[0] == "fixture" else f"{case[0]}_{case[1]}_{case[2]}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_christoffel_symbols_match_the_dense_koszul_loop(case):
    g = _metric(case)
    data = christoffel(g)
    reference = _dense_symbols(g)
    assert data.symbols == reference
    n = g.space.dim
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ours, theirs = data.symbols[a][b][c], reference[a][b][c]
                assert list(ours.num.terms.items()) == list(theirs.num.terms.items()), (a, b, c)
                assert list(ours.den.terms.items()) == list(theirs.den.terms.items()), (a, b, c)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_christoffel_symbols_satisfy_the_levi_civita_identities(case):
    assert levi_civita_violation(christoffel(_metric(case))) is None


def _planted(data, changes):
    symbols = [[list(row) for row in plane] for plane in data.symbols]
    for (a, b, k), delta in changes:
        symbols[a][b][k] = symbols[a][b][k] + delta
    return ChristoffelData(
        data.space, data.metric, tuple(tuple(tuple(row) for row in plane) for plane in symbols)
    )


PLANTED = {
    "r6": lambda: build_r6_metric(build_r6_space()),
    "nilpotent_spd": lambda: MetricField(
        build_nilpotent_space(), random_spd_matrix(random.Random(7), 6, 6)
    ),
    "chart_2_1": lambda: _metric(("chart", 2, 1)),
    "lie_2_2": lambda: _metric(("lie", 2, 2)),
}


@pytest.mark.parametrize("name", PLANTED)
def test_a_planted_symbol_fails_validation_as_the_dense_loop_does(name):
    """The dense identity loop rejects one wrong symbol, on a structural zero
    or on a nonzero symbol, at the one compatibility triple it enters; the
    zero connection; and one torsion that keeps the connection metric."""
    g = PLANTED[name]()
    data = christoffel(g)
    space, n = g.space, g.space.dim
    assert levi_civita_violation(data) is None
    rng = random.Random(name)
    nonzero = [(a, b, k) for a, b, k, _ in data.nonzero()]
    plants = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(4)] + rng.sample(nonzero, 2)
    for a, b, k in plants:
        for delta in (space.one(), -data.gamma(a, b, k)):
            if delta.is_zero():
                continue
            bad = _planted(data, [((a, b, k), delta)])
            assert levi_civita_violation(bad) == (
                f"metric compatibility violated at (a,b,c)=({a},{min(b, k)},{max(b, k)})"
            )

    # the zero connection: its residuals are the metric derivatives alone on
    # a chart and the brackets alone on a Lie frame
    zero_plane = tuple((space.zero(),) * n for _ in range(n))
    assert levi_civita_violation(ChristoffelData(space, g, (zero_plane,) * n)) is not None

    # L_ab,k += T_abk with T antisymmetric in (b, k) keeps the connection
    # metric but breaks L_ab,k = L_ba,k + g([e_a,e_b], e_k)
    a, b, k = rng.sample(range(n), 3)
    bad = _planted(data, [((a, b, k), space.one()), ((a, k, b), -space.one())])
    assert levi_civita_violation(bad).startswith("torsion-freeness violated")
