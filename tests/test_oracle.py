"""Schwartz–Zippel cross-checks of the exact algebra.

A symbolic result and the same quantity computed with plain ``Fraction``
arithmetic from the inputs' values must agree at random rational points.
The oracle evaluates numerators and denominators term by term and does its
own Gauss–Jordan elimination and differentiation (by interpolation), so it
shares no gcd, canonical form or sum kernel with the code under test.  A
wrong nonzero rational function of low degree vanishes at a random point
with small probability, so a few seeded points are enough.

The Christoffel symbols of the small chart rungs, of the first kind and
raised to the second by the test-side g⁻¹, are also compared with sympy's,
symbol by symbol, when sympy is installed.

The polarized structures are re-checked against the identities that define
an associated metric, and the per-block one also against decomposability
and orthogonality, on their values at fresh random points, with the
oracle's own products and its own determinants for positive definiteness.
The metric ``build_compatible`` makes is re-checked against compatibility
and its corollaries GZ = Aᵀ and ZᵀGZ = I the same way, and so is every
fixture metric that is compatible.  On the leaf cases the identities the
leaf checks prove are re-evaluated on the frames' values.  The command line
reports these verdicts from the proofs, so these checks are what catches a
broken construction or proof.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from contactpairs.algebra import Poly, RatFun, RfMatrix
from contactpairs.connection import christoffel
from contactpairs.exterior import MetricField
from contactpairs.fixtures import (
    FixtureError,
    bundled_fixture_names,
    bundled_fixture_path,
    load_fixture,
)
from contactpairs.metric import build_associated_by_polarization, build_compatible, is_compatible
from contactpairs.pair import kernel_frame, verified_pair
from contactpairs.structure import ContactPairStructure

from conftest import LEAF_CASES, chart_rung, fixture_doc, polarized_doc, second_kind


def _points(rng, nvars, count):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nvars)]
        for _ in range(count)
    ]


def _value(r, point):
    """r at ``point`` from its stored terms."""
    def poly(p):
        total = Fraction(0)
        for exps, coeff in p.terms.items():
            term = coeff
            for x, k in zip(point, exps):
                term *= x**k
            total += term
        return total

    return poly(r.num) / poly(r.den)


def _values(m, point):
    return [[_value(e, point) for e in row] for row in m.entries]


def _product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _difference(a, b):
    return [[x - y for x, y in zip(row_a, row_b)] for row_a, row_b in zip(a, b)]


def _is_zero(a):
    return not any(map(any, a))


def _reeb_corollaries_hold(g_at, a_at, z_at):
    """GZ = Aᵀ and ZᵀGZ = I, the corollaries of compatibility."""
    gz = _product(g_at, z_at)
    return gz == _transpose(a_at) and _product(_transpose(z_at), gz) == [[1, 0], [0, 1]]


def _inverse(a):
    n = len(a)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _det(a):
    """det a by Gaussian elimination over the rationals."""
    rows, det = [list(row) for row in a], Fraction(1)
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p], det = rows[p], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def _partial(r, point, a, degree):
    """∂_a r at ``point`` for a polynomial r of total degree <= ``degree``:
    the derivative at t = 0 of the interpolant through r(point + t e_a),
    t = 0, ..., degree."""
    nodes = range(degree + 1)
    values = [_value(r, [x + t if i == a else x for i, x in enumerate(point)]) for t in nodes]
    total = Fraction(0)
    for i in nodes:
        # d/dt at 0 of the Lagrange basis polynomial of node i
        weight = Fraction(0)
        for m in nodes:
            if m == i:
                continue
            term = Fraction(1, i - m)
            for j in nodes:
                if j not in (i, m):
                    term *= Fraction(-j, i - j)
            weight += term
        total += weight * values[i]
    return total


@pytest.fixture(scope="module")
def built_metric():
    """The metric ``build_compatible`` makes on the type-(1,1) standard
    local model (the chart-ladder rung (1,1)) from its identity aux_metric."""
    doc = load_fixture(bundled_fixture_path("local_model_1_1"))
    vp = verified_pair(doc.pair)
    g = build_compatible(ContactPairStructure(vp, doc.phi), doc.aux_metric)
    return g, doc.phi.matrix


def _random_matrix(rng, rows, cols, nvars):
    dens = [Poly.const(nvars, 1), Poly.variable(nvars, 0), Poly.variable(nvars, 1) + 2]

    def entry():
        if rng.random() < 0.3:
            return RatFun.zero(nvars)
        num = Poly(nvars, {
            tuple(rng.randint(0, 1) for _ in range(nvars)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        })
        return RatFun(num, rng.choice(dens))

    return RfMatrix(nvars, [[entry() for _ in range(cols)] for _ in range(rows)])


def test_matrix_products_match_the_oracle(built_metric):
    g, phi = built_metric
    n = g.space.dim
    g_inv = g.matrix.inverse()
    rng = random.Random(2008)
    products = [
        (g.matrix, g_inv), (g_inv, phi), (phi.transpose(), g.matrix @ phi),
        (_random_matrix(rng, 3, 4, n), _random_matrix(rng, 4, 2, n)),
        (_random_matrix(rng, 2, 5, n), _random_matrix(rng, 5, 3, n)),
    ]
    assert not all(e.is_polynomial() for row in g_inv.entries for e in row)
    for point in _points(rng, n, 4):
        for a, b in products:
            assert _values(a @ b, point) == _product(_values(a, point), _values(b, point))
        assert _values(g_inv, point) == _inverse(_values(g.matrix, point))


def test_christoffel_symbols_match_the_oracle(built_metric):
    """L_ab,k = (∂_a g_bk + ∂_b g_ak − ∂_k g_ab) / 2 and Γ^c_ab = Σ_k g^ck L_ab,k
    at each point, with g⁻¹ inverted and ∂g interpolated from values of g."""
    g, _ = built_metric
    n = g.space.dim
    entries = [e for row in g.matrix.entries for e in row]
    assert all(e.is_polynomial() for e in entries) and any(e.num.total_degree() > 0 for e in entries)
    degree = max(e.num.total_degree() for e in entries)
    data = christoffel(g)
    gammas = second_kind(data)
    assert data.nonzero()
    for point in _points(random.Random(1980), n, 3):
        g_inv = _inverse(_values(g.matrix, point))
        dg = [
            [[_partial(g.matrix.at(b, k), point, a, degree) for k in range(n)] for b in range(n)]
            for a in range(n)
        ]
        for a in range(n):
            for b in range(n):
                lowered = [(dg[a][b][k] + dg[b][a][k] - dg[k][a][b]) / 2 for k in range(n)]
                assert [_value(data.gamma(a, b, k), point) for k in range(n)] == lowered, (a, b)
                for c in range(n):
                    expected = sum((g_inv[c][k] * lowered[k] for k in range(n)), Fraction(0))
                    assert _value(gammas[a][b][c], point) == expected, (a, b, c)


@pytest.mark.parametrize("h, k", [(1, 1), (2, 1)])
def test_christoffel_symbols_match_sympy(h, k):
    """L_ab,m = (∂_a g_bm + ∂_b g_am − ∂_m g_ab) / 2 and Γ^c_ab = Σ_m g^cm L_ab,m
    in sympy, on the metric build_compatible makes on chart rung (h, k) from
    its identity aux_metric, with sympy's own inverse and derivatives."""
    sympy = pytest.importorskip("sympy")
    doc = chart_rung(h, k)
    vp = verified_pair(doc.pair)
    g = build_compatible(ContactPairStructure(vp, doc.phi), doc.aux_metric)
    data = christoffel(g)
    gammas = second_kind(data)
    xs = sympy.symbols(vp.space.names)
    n = len(xs)

    def poly(p):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
            for exps, c in p.terms.items()
        ))

    def to_sympy(r):
        return poly(r.num) / poly(r.den)

    metric = sympy.Matrix([[to_sympy(e) for e in row] for row in g.matrix.entries])
    inverse = metric.inv().applyfunc(sympy.cancel)
    assert not all(e.is_constant() for row in g.matrix.entries for e in row)
    assert len(data.nonzero()) > n
    for a in range(n):
        for b in range(n):
            lowered = [
                (sympy.diff(metric[b, m], xs[a]) + sympy.diff(metric[a, m], xs[b])
                 - sympy.diff(metric[a, b], xs[m])) / 2
                for m in range(n)
            ]
            for m in range(n):
                assert sympy.cancel(to_sympy(data.gamma(a, b, m)) - lowered[m]) == 0, (a, b, m)
            for c in range(n):
                theirs = sum(inverse[c, m] * lowered[m] for m in range(n))
                assert sympy.cancel(to_sympy(gammas[a][b][c]) - theirs) == 0, (a, b, c)


@pytest.mark.parametrize(
    "name",
    [
        "local_model_1_1",
        "nilpotent_g6",
        "r6_example",
        "chart_1_1",
        "chart_2_2",
        "lie_3_3",
        "twisted",
        "bent_model_1_1",
    ],
)
def test_polarized_structures_match_the_oracle(name):
    """At 3 fresh random points, both polarizations satisfy GΦ = W (the
    table of d alpha1 + d alpha2), Φ² = −I + ZA, ΦZ = 0 and GZ = Aᵀ, with A
    the rows alpha1, alpha2 and Z the columns Z1, Z2, and every leading
    principal minor of G is positive.  The per-block one also satisfies
    TF1ᵀ G TF2 = 0 (orthogonal foliations) and, for i = 1, 2,
    alpha_i(Φ TF_i) = 0 and W_iᵀ Φ TF_i = 0 (decomposable Φ), with W_i the
    table of d alpha_i.  The construction reads no metric, so the identity
    metric of Lie rung (3,3) plays no part.  On ``twisted`` and
    ``bent_model_1_1`` d alpha_i has non-constant coefficients, and on
    ``twisted`` g has the denominators x and x², which vanish at none of the
    points the seed draws."""
    vp = verified_pair(fixture_doc(name).pair)
    n = vp.dim
    tables = [vp.pair.dalpha_table(i) for i in (1, 2)]
    w = tables[0] + tables[1]
    rng = random.Random(2026)
    for flag in (False, True):
        phi, g = build_associated_by_polarization(vp, decomposable=flag)
        for point in _points(rng, phi.matrix.nvars, 3):
            phi_at, g_at, w_at, a_at, z_at = (
                _values(m, point)
                for m in (phi.matrix, g.matrix, w, vp._alpha_matrix, vp._reeb_matrix)
            )
            za = _product(z_at, a_at)
            assert _product(g_at, phi_at) == w_at, (name, flag, point)
            assert _product(phi_at, phi_at) == [
                [za[i][j] - (i == j) for j in range(n)] for i in range(n)
            ], (name, flag, point)
            assert _product(g_at, z_at) == _transpose(a_at), (name, flag, point)
            assert _product(phi_at, z_at) == [[0, 0] for _ in range(n)], (name, flag, point)
            assert all(_det([row[:k] for row in g_at[:k]]) > 0 for k in range(1, n + 1))
            if not flag:
                continue
            tf = [_values(vp.tf(i).matrix, point) for i in (1, 2)]
            assert not any(map(any, _product(_transpose(tf[0]), _product(g_at, tf[1])))), point
            for i in (1, 2):
                images = _product(phi_at, tf[i - 1])
                assert not any(_product(a_at, images)[i - 1]), (name, i, point)
                w_i = _transpose(_values(tables[i - 1], point))
                assert not any(map(any, _product(w_i, images))), (name, i, point)


@pytest.mark.parametrize(
    "name", ["local_model_1_1", "nilpotent_g6", "r6_example", "chart_1_1", "chart_2_2", "lie_3_3"]
)
def test_built_compatible_metric_matches_the_oracle(name):
    """At 3 fresh random points, the metric build_compatible makes from the
    fixture's phi and aux_metric (the identity when it has none) satisfies
    ΦᵀGΦ = G − AᵀA, with A the rows alpha1, alpha2."""
    doc = fixture_doc(name)
    vp = verified_pair(doc.pair)
    g = build_compatible(
        ContactPairStructure(vp, doc.phi), doc.aux_metric or MetricField.euclidean(vp.space)
    )
    rng = random.Random(2026)
    for point in _points(rng, g.matrix.nvars, 3):
        phi_at, g_at, a_at = (
            _values(m, point) for m in (doc.phi.matrix, g.matrix, vp._alpha_matrix)
        )
        aa = _product(_transpose(a_at), a_at)
        assert _product(_transpose(phi_at), _product(g_at, phi_at)) == [
            [x - y for x, y in zip(row, aa_row)] for row, aa_row in zip(g_at, aa)
        ], (name, point)
        assert _reeb_corollaries_hold(g_at, a_at, _values(vp._reeb_matrix, point)), (name, point)


def test_compatible_fixture_metrics_match_the_oracle():
    """At 3 fresh random points, every fixture metric that is_compatible
    finds compatible satisfies GZ = Aᵀ and ZᵀGZ = I, with A the rows
    alpha1, alpha2 and Z the columns Z1, Z2: the bundled fixtures, those of
    ``tests/fixtures``, Lie rung (3,3) and the per-block polarized metrics of
    the leaf cases."""
    names = [n.removesuffix(".json") for n in bundled_fixture_names()]
    names += sorted(p.stem for p in (Path(__file__).parent / "fixtures").glob("*.json"))
    docs = {}
    for name in [*names, "lie_3_3"]:
        try:
            docs[name] = fixture_doc(name)
        except FixtureError:
            continue
    for name in ("local_model_1_1", "chart_1_1", "chart_2_2"):
        docs[f"{name}-polarized"] = polarized_doc(name)
    rng = random.Random(2026)
    checked = []
    for name, doc in docs.items():
        if doc.phi is None or doc.metric is None:
            continue
        try:
            cps = ContactPairStructure(verified_pair(doc.pair), doc.phi)
        except (ValueError, RuntimeError):
            continue
        if not is_compatible(cps, doc.metric).ok:
            continue
        vp = cps.vp
        for point in _points(rng, vp._reeb_matrix.nvars, 3):
            g_at, a_at, z_at = (
                _values(m, point) for m in (doc.metric.matrix, vp._alpha_matrix, vp._reeb_matrix)
            )
            assert _reeb_corollaries_hold(g_at, a_at, z_at), (name, point)
        checked.append(name)
    expected = {"nilpotent_g6", "r6_example", "flat2_mcp", "lie_3_3", "chart_2_2-polarized"}
    assert expected <= set(checked), checked


@pytest.mark.parametrize("name, polarized", LEAF_CASES)
def test_leaf_identities_match_the_oracle(name, polarized):
    """At 3 fresh random points, for i = 1, 2 and j != i, with A the rows
    alpha1, alpha2, Z the columns Z1, Z2, W_l the table of d alpha_l and
    W = W_1 + W_2: on the TF_j frame F, Φ²F + F − Z_i α_i F = 0,
    FᵀGΦF = FᵀW_iF and (ZᵀG − A)F = 0; on the frame F of ker d alpha_i,
    FᵀW_iF = 0, Fᵀ(GΦ − W)F = 0 and (ZᵀG − A)F = 0.  These are the
    identities the leaf checks prove instead of computing."""
    doc = polarized_doc(name) if polarized else fixture_doc(name)
    vp = verified_pair(doc.pair)
    frames = {i: (vp.tf(3 - i).matrix, kernel_frame(vp.pair, i).matrix) for i in (1, 2)}
    rng = random.Random(2026)
    for point in _points(rng, vp._reeb_matrix.nvars, 3):
        phi_at, g_at, a_at, z_at, *w_at = (
            _values(m, point)
            for m in (
                doc.phi.matrix,
                doc.metric.matrix,
                vp._alpha_matrix,
                vp._reeb_matrix,
                vp.pair.dalpha_table(1),
                vp.pair.dalpha_table(2),
            )
        )
        g_phi = _product(g_at, phi_at)
        pairing = _difference(_difference(g_phi, w_at[0]), w_at[1])  # GΦ − W
        duality = _difference(_product(_transpose(z_at), g_at), a_at)  # ZᵀG − A
        for i in (1, 2):
            leaf, kernel = (_values(f, point) for f in frames[i])
            z_i, alpha_i = [[row[i - 1]] for row in z_at], [a_at[i - 1]]
            square = _product(phi_at, _product(phi_at, leaf))
            za = _product(z_i, _product(alpha_i, leaf))
            minus_leaf = [[-x for x in row] for row in leaf]
            assert _difference(square, za) == minus_leaf, (name, i, point)
            leaf_t, kernel_t = _transpose(leaf), _transpose(kernel)
            assert _product(leaf_t, _product(g_phi, leaf)) == _product(
                leaf_t, _product(w_at[i - 1], leaf)
            ), (name, i, point)
            assert _is_zero(_product(kernel_t, _product(w_at[i - 1], kernel))), (name, i, point)
            assert _is_zero(_product(kernel_t, _product(pairing, kernel))), (name, i, point)
            for frame in (leaf, kernel):
                assert _is_zero(_product(duality, frame)), (name, i, point)
