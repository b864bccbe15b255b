"""Shared builders: the three reference geometries, random-input helpers,
the textbook forms of the Levi-Civita connection, the residual checks of
the identities the package proves instead of computing, the dense
elimination the sparse one replaced, and the direct frame eliminations the
nested frames replaced."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from contactpairs.algebra import Poly, RatFun, RfMatrix, _dot, kernel_basis
from contactpairs.exterior import (
    EndoField,
    Form,
    MetricField,
    Space,
    VectorField,
    directional_derivative,
)
from contactpairs.fixtures import bundled_fixture_path, load_fixture, load_fixture_dict
from contactpairs.pair import (
    _reeb_gram,
    column_matrix,
    kernel_frame,
    one_form_row,
    pair_axioms,
    volume_coefficient,
)
from contactpairs.verdicts import combine_verdicts, nonvanishing_verdict, residual_verdict

ROOT = Path(__file__).resolve().parents[1]


def _module(name, path):
    """The module of the file ``path``, loaded once under ``name``."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def chart_rung(h, k):
    """The chart-ladder rung of type (h, k), the standard local model with
    the identity aux_metric, as the benchmark generates it from seed 1."""
    workloads = _module("workloads", ROOT / "perfbench" / "workloads.py")
    return load_fixture_dict(workloads.chart_model(h, k, random.Random(1)))


def lie_rung(h, k):
    """The lie-ladder rung h_{2h+1} × h_{2k+1} with the identity metric, as
    the benchmark generates it from seed 1."""
    workloads = _module("workloads", ROOT / "perfbench" / "workloads.py")
    return load_fixture_dict(workloads.heisenberg_product(h, k, random.Random(1)))


def fixture_doc(name):
    """The fixture ``name``: a ladder rung "chart_h_k" or "lie_h_k", one of
    ``tests/fixtures`` or a bundled one."""
    family, _, rung = name.partition("_")
    if family in ("chart", "lie") and rung:
        h, k = map(int, rung.split("_"))
        return (chart_rung if family == "chart" else lie_rung)(h, k)
    local = ROOT / "tests" / "fixtures" / f"{name}.json"
    return load_fixture(local if local.exists() else bundled_fixture_path(name))


def polarized_doc(name):
    """The fixture ``name`` (:func:`fixture_doc`) with the (phi, g) of its
    per-block polarization as ``phi`` and ``metric``, as
    ``scripts/report_parity.py`` writes it."""
    parity = _module("report_parity", ROOT / "scripts" / "report_parity.py")
    return load_fixture_dict(parity.polarized_model(fixture_doc(name).raw, decomposable=True))


# The cases of the leaf identities: three fixtures whose own metric is
# associated, with decomposable phi, and the per-block polarized (phi, g)
# (:func:`polarized_doc`) of three chart fixtures.
LEAF_CASES = [
    pytest.param(name, polarized, id=f"{name}-polarized" if polarized else name)
    for name, polarized in (
        ("nilpotent_g6", False),
        ("flat2_mcp", False),
        ("lie_3_3", False),
        ("local_model_1_1", True),
        ("chart_1_1", True),
        ("chart_2_2", True),
    )
]


def dense_chart_rung(h, k):
    """The pair of :func:`chart_rung` pulled back by a unimodular x = U·w,
    the dense family of ``scripts/bench.py``."""
    bench = _module("bench", ROOT / "scripts" / "bench.py")
    return load_fixture_dict(bench.dense_model(h, k))


# --- the connection from its symbols of the first kind ------------------------
# The package holds the Levi-Civita connection by L_ab,k = g(∇_a e_b, e_k)
# alone; these are the textbook forms the tests check it against.


def second_kind(data):
    """Γ^c_ab = Σ_k g^ck L_ab,k, by the inverse of g: gammas[a][b][c]."""
    n = data.space.dim
    g_inv = data.metric.matrix.inverse()
    return tuple(
        tuple(g_inv.apply([data.gamma(a, b, k) for k in range(n)]) for b in range(n))
        for a in range(n)
    )


def covariant_derivative(gammas, x, y):
    """(∇_X Y)^c = X(Y^c) + Σ_{a,b} X^a Y^b Γ^c_ab, on the symbols of the
    second kind ``gammas`` (:func:`second_kind`)."""
    space, n = x.space, x.space.dim
    xy = [
        (a, b, xa * yb)
        for a, xa in enumerate(x.components) if not xa.is_zero()
        for b, yb in enumerate(y.components) if not yb.is_zero()
    ]
    return VectorField(space, [
        _dot(n, (
            (directional_derivative(x, y.components[c]), space.one()),
            *((weight, gammas[a][b][c]) for a, b, weight in xy),
        ))
        for c in range(n)
    ])


def frame_derivative(f, a):
    """e_a f for a metric entry: zero for a constant, ∂_a f on a chart."""
    return RatFun.zero(f.nvars) if f.is_constant() else f.diff(a)


def levi_civita_violation(data):
    """The first identity of the Levi-Civita connection that the symbols of
    the first kind break, by a loop over every index, or None: metric
    compatibility e_a g_bc = L_ab,c + L_ac,b at every (a, b ≤ c), then
    torsion-freeness L_ab,k − L_ba,k = g([e_a,e_b], e_k) at every (a < b, k)."""
    space, n = data.space, data.space.dim
    g = data.metric.matrix
    one, minus_one = space.one(), space.scalar(-1)
    for a in range(n):
        for b in range(n):
            for c in range(b, n):
                residual = _dot(n, (
                    (frame_derivative(g.at(b, c), a), one),
                    (data.gamma(a, b, c), minus_one), (data.gamma(a, c, b), minus_one),
                ))
                if not residual.is_zero():
                    return f"metric compatibility violated at (a,b,c)=({a},{b},{c})"
    for a in range(n):
        for b in range(a + 1, n):
            bracket = space.bracket_coeffs(a, b)
            for k in range(n):
                torsion = _dot(n, (
                    (data.gamma(a, b, k), one), (data.gamma(b, a, k), minus_one),
                    *((space.scalar(-c), g.at(m, k)) for m, c in bracket.items()),
                ))
                if not torsion.is_zero():
                    return f"torsion-freeness violated at (a,b,k)=({a},{b},{k})"
    return None


# --- the retired residual checks -----------------------------------------------
# The package reports these verdicts from the proofs in the docstrings of
# is_compatible, verify_induced_almost_contact and
# verify_restricted_contact_metric; these are the residual checks it ran
# before, which the tests compare the reported verdicts with.


def compatible_corollaries(cps, g):
    """g(Z_i, ·) = alpha_i and g(Z_i, Z_j) = delta_ij, by their residuals."""
    vp = cps.vp
    duality = vp._reeb_matrix.transpose() @ g.matrix - vp._alpha_matrix
    gram = _reeb_gram(vp, g) - RfMatrix.identity(2, vp.dim)
    return {
        "reeb_duality": residual_verdict(
            duality,
            vp,
            "g(Z_i, X) = alpha_i(X)",
            lambda i, b: f"g(Z{i + 1}, e_{vp.space.names[b]}) - alpha{i + 1}[{b}]",
        ),
        "reeb_orthonormality": residual_verdict(
            gram,
            vp,
            "g(Z_i, Z_j) = delta_ij",
            lambda i, j: f"g(Z{i + 1}, Z{j + 1}) - {int(i == j)}",
        ),
    }


def _leaf_square_residual(cps, f, i):
    """phi^2 F + F - Z_i (alpha_i F) for the column matrix F of a frame."""
    vp = cps.vp
    z_i = column_matrix(vp.space, [vp.z(i)])
    alpha_i = RfMatrix(vp.dim, [vp._alpha_matrix.row(i - 1)])
    return cps.phi.matrix @ (cps.phi.matrix @ f) + f - z_i @ (alpha_i @ f)


def induced_almost_contact(cps, i):
    """phi^2 v = -v + alpha_i(v) Z_i on the TF_j frame (j != i), one
    residual row per frame vector."""
    vp = cps.vp
    leaf = vp.tf(2 if i == 1 else 1)
    square = _leaf_square_residual(cps, leaf.matrix, i)
    return residual_verdict(
        square.transpose(),
        vp,
        f"almost contact structure induced by (alpha{i}, Z{i}, phi) on {leaf.label}",
        lambda p, a: (
            f"(phi^2 - (-Id + alpha{i}⊗Z{i}))({leaf.label}[{p}])[{vp.space.names[a]}]"
        ),
    )


def leaf_contact_metric(mcp, i):
    """On the TF_j frame F (j != i): F^T G phi F = F^T W_i F, row i of
    (Z^T G - A) F vanishes and phi^2 F + F - Z_i alpha_i F = 0, one residual
    row per frame vector F[p]: row p of the first, entry p of the second
    and column p of the third."""
    vp, frame = mcp.vp, mcp.vp.tf(2 if i == 1 else 1)
    label, f, m = frame.label, frame.matrix, frame.size
    f_t = f.transpose()
    pairing = f_t @ mcp.g.matrix @ (mcp.phi.matrix @ f) - f_t @ vp.pair.dalpha_table(i) @ f
    duality = (vp._reeb_matrix.transpose() @ mcp.g.matrix - vp._alpha_matrix) @ f
    square = _leaf_square_residual(mcp.cps, f, i)
    rows = RfMatrix(vp.dim, [
        (*pairing.row(p), duality.at(i - 1, p), *square.column(p)) for p in range(m)
    ])

    def entry(p, q):
        if q < m:
            return f"g({label}[{p}], phi {label}[{q}]) - d alpha{i}"
        if q == m:
            return f"g({label}[{p}], Z{i}) - alpha{i}"
        return f"(phi^2 + Id - alpha{i}⊗Z{i})({label}[{p}])[{q - m - 1}]"

    return residual_verdict(
        rows,
        vp,
        f"contact metric structure induced by (alpha{i}, Z{i}, phi, g) on {label}",
        entry,
    )


def leaf_mcp(mcp, i):
    """On the frame F of ker d alpha_i: the pair axioms of alpha_l(F) and
    F^T W_l F for the induced type, the volume under its restricted label,
    and F^T (G phi - W_1 - W_2) F = 0 = (Z^T G - A) F."""
    vp, frame = mcp.vp, kernel_frame(mcp.vp.pair, i)
    label, f = frame.label, frame.matrix
    f_t = f.transpose()
    tables = tuple(f_t @ vp.pair.dalpha_table(l) @ f for l in (1, 2))
    degrees = (vp.pair.h, 0) if i == 2 else (0, vp.pair.k)
    alphas = vp._alpha_matrix @ f
    rows = (alphas.row(0), alphas.row(1))
    axioms = pair_axioms(rows, tables, degrees, vp.sample_points, vp.space.names)
    verdicts = [axioms["dalpha1_power_zero"], axioms["dalpha2_power_zero"]]
    if "volume_form" in axioms:
        volume = volume_coefficient(rows, tables, degrees)
        volume_label = f"restricted volume coefficient on {label}"
        verdicts.insert(0, nonvanishing_verdict(volume, vp.sample_points, volume_label))
    associated = f_t @ mcp.g.matrix @ (mcp.phi.matrix @ f) - (tables[0] + tables[1])
    duality = (vp._reeb_matrix.transpose() @ mcp.g.matrix - vp._alpha_matrix) @ f
    detail = "restricted metric is associated to the restricted pair"
    verdicts += [
        residual_verdict(
            associated, vp, detail, lambda p, q: f"(G phi - d alpha)|{label} ({p},{q})"
        ),
        residual_verdict(
            duality, vp, detail, lambda l, p: f"g({label}[{p}], Z{l + 1}) - alpha{l + 1}"
        ),
    ]
    return combine_verdicts(
        verdicts, detail=f"metric contact pair of type {degrees} induced on {label}"
    )


# --- the retired dense elimination ----------------------------------------------
# algebra._rref works on sparse rows; this is the dense elimination it
# replaced, kept as it was, which the tests compare it with.


def dense_rref(
    rows: list[list[RatFun]], rhs: list[list[RatFun]] | None, nvars: int
) -> tuple[list[list[RatFun]], list[list[RatFun]] | None, list[tuple[int, int]]]:
    """Reduced row echelon form of ``[rows | rhs]`` over the function field,
    with pivots in the columns of ``rows`` only; ``rhs`` holds one row of
    right-hand sides per row, or is None.  Pivots are chosen by lowest
    combined num/den degree, ties broken by column then row index.  Exact-zero
    entries of the pivot row are skipped in the row operations, and each
    updated entry ``row[j] - factor·b`` is one ``_dot``, one canonicalisation."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if rhs is not None:
        rows = [row + extra for row, extra in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    used_cols: set[int] = set()
    one = RatFun.one(nvars)
    r = 0
    while r < m:
        best = None
        for j in range(n):
            if j in used_cols:
                continue
            for i in range(r, m):
                e = rows[i][j]
                if not e.is_zero():
                    key = (e.degree_size(), j, i)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        rows[pi], rows[r] = rows[r], rows[pi]
        inv = rows[r][pj].inverse()
        pivot_row = rows[r] = [e if e.is_zero() else e * inv for e in rows[r]]
        nonzero = [(j, b) for j, b in enumerate(pivot_row) if not b.is_zero()]
        for i in range(m):
            if i == r:
                continue
            factor = rows[i][pj]
            if factor.is_zero():
                continue
            minus = -factor
            row = rows[i]
            for j, b in nonzero:
                row[j] = _dot(nvars, ((row[j], one), (minus, b)))
        pivots.append((r, pj))
        used_cols.add(pj)
        r += 1
    if rhs is None:
        return rows, None, pivots
    return [row[:n] for row in rows], [row[n:] for row in rows], pivots


# --- the direct frame eliminations ---------------------------------------------
# The package eliminates ker d alpha_i once and takes TF_i and TG_i as one-row
# kernels inside it; these are the eliminations of each frame's own rows it
# replaced, which the tests compare the nest with.


def direct_frames(pair, i):
    """The cleared kernel bases of i_· d alpha_i, of [alpha_i; i_· d alpha_i]
    and of [i_· d alpha_i; alpha1; alpha2]: ker d alpha_i, TF_i and TG_i,
    each as ``RatFun`` tuples."""
    contractions = list(pair.dalpha_table(i).transpose().entries)
    alphas = [one_form_row(pair.alpha1), one_form_row(pair.alpha2)]
    systems = (contractions, [alphas[i - 1], *contractions], [*contractions, *alphas])
    return tuple(
        [tuple(map(RatFun, v)) for v in kernel_basis(RfMatrix(pair.dim, rows))]
        for rows in systems
    )


# --- product-of-two-contact-manifolds chart on R^6 ---------------------------
# coordinates (x1, y1, x2, y2, z1, z2), one-forms dz_i - x_i dy_i


def build_r6_space():
    return Space.chart(["x1", "y1", "x2", "y2", "z1", "z2"])


def build_r6_forms(space):
    x1 = space.coordinate(0)
    x2 = space.coordinate(2)
    alpha1 = Form(space, 1, {(4,): 1, (1,): -x1})
    alpha2 = Form(space, 1, {(5,): 1, (3,): -x2})
    return alpha1, alpha2


def build_r6_phi(space):
    x1 = space.coordinate(0)
    x2 = space.coordinate(2)
    zero = space.zero()
    one = space.one()
    cols = {
        0: {2: one},                    # ∂x1 -> ∂x2
        1: {3: one, 5: x2},             # ∂y1 -> ∂y2 + x2 ∂z2
        2: {0: -one},                   # ∂x2 -> -∂x1
        3: {1: -one, 4: -x1},           # ∂y2 -> -∂y1 - x1 ∂z1
    }
    mat = [[zero for _ in range(6)] for _ in range(6)]
    for col, entries in cols.items():
        for row, value in entries.items():
            mat[row][col] = value
    return EndoField(space, mat)


def build_r6_metric(space):
    """sum_i (dx_i^2 + dy_i^2 + alpha_i^2); compatible but not associated."""
    x1 = space.coordinate(0)
    x2 = space.coordinate(2)
    zero = space.zero()
    one = space.one()
    g = [[zero for _ in range(6)] for _ in range(6)]
    for i in range(6):
        g[i][i] = one
    g[1][1] = one + x1 * x1
    g[3][3] = one + x2 * x2
    g[1][4] = g[4][1] = -x1
    g[3][5] = g[5][3] = -x2
    return MetricField(space, g)


R6_SAMPLES = [
    tuple(Fraction(0) for _ in range(6)),
    (Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(1, 3), Fraction(2), Fraction(-2)),
]


# --- six-dimensional nilpotent Lie frame --------------------------------------
# d w1 = d w6 = 0, d w2 = w5^w6, d w3 = w1^w4, d w4 = w1^w5, d w5 = w1^w6


def build_nilpotent_space():
    return Space.lie_frame(
        ["w1", "w2", "w3", "w4", "w5", "w6"],
        differentials={
            1: [(4, 5, Fraction(1))],
            2: [(0, 3, Fraction(1))],
            3: [(0, 4, Fraction(1))],
            4: [(0, 5, Fraction(1))],
        },
    )


def build_nilpotent_forms(space):
    alpha1 = Form(space, 1, {(1,): 1})  # w2
    alpha2 = Form(space, 1, {(2,): 1})  # w3
    return alpha1, alpha2


def build_nilpotent_phi(space):
    zero = space.zero()
    one = space.one()
    mat = [[zero for _ in range(6)] for _ in range(6)]
    mat[3][0] = -one  # X1 -> -X4
    mat[0][3] = one   # X4 -> X1
    mat[5][4] = -one  # X5 -> -X6
    mat[4][5] = one   # X6 -> X5
    return EndoField(space, mat)


def build_nilpotent_metric(space):
    return MetricField.euclidean(space)


NILPOTENT_SAMPLES = [tuple(Fraction(0) for _ in range(6))]


# --- standard local model of type (1,1) --------------------------------------
# coordinates (x1, x2, x3, y1, y2, y3), alpha1 = dx3 + x1 dx2, alpha2 = dy3 + y1 dy2


def build_local_model_space():
    return Space.chart(["x1", "x2", "x3", "y1", "y2", "y3"])


def build_local_model_forms(space):
    x1 = space.coordinate(0)
    y1 = space.coordinate(3)
    alpha1 = Form(space, 1, {(2,): 1, (1,): x1})
    alpha2 = Form(space, 1, {(5,): 1, (4,): y1})
    return alpha1, alpha2


def build_local_model_phi(space):
    x1 = space.coordinate(0)
    y1 = space.coordinate(3)
    zero = space.zero()
    one = space.one()
    mat = [[zero for _ in range(6)] for _ in range(6)]
    # block rotation on span{∂x1, ∂x2 - x1 ∂x3} extended by zero on the Reeb fields
    mat[1][0] = one
    mat[2][0] = -x1
    mat[0][1] = -one
    mat[4][3] = one
    mat[5][3] = -y1
    mat[3][4] = -one
    return EndoField(space, mat)


LOCAL_MODEL_SAMPLES = [
    tuple(Fraction(0) for _ in range(6)),
    (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(-1)),
]


# --- flat type (0,0) pair on R^2 ----------------------------------------------


def build_flat2_space():
    return Space.chart(["x", "y"])


def build_flat2_forms(space):
    return Form(space, 1, {(0,): 1}), Form(space, 1, {(1,): 1})


FLAT2_SAMPLES = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(-2))]


# --- twisted type (0,1) pair on R^4 with rational Reeb field -------------------
# alpha1 = dx, alpha2 = dz + x*y*dw; volume coefficient -x vanishes on {x = 0}


def build_twisted_space():
    return Space.chart(["x", "y", "z", "w"])


def build_twisted_forms(space):
    x = space.coordinate(0)
    y = space.coordinate(1)
    alpha1 = Form(space, 1, {(0,): 1})
    alpha2 = Form(space, 1, {(2,): 1, (3,): x * y})
    return alpha1, alpha2


TWISTED_SAMPLES = [
    (Fraction(1), Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)),
]


# --- random-input helpers ------------------------------------------------------


def random_poly(rng, nvars, max_degree=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
    return Poly(nvars, terms)


def random_ratfun(rng, nvars, **kw):
    return RatFun(random_poly(rng, nvars, **kw))


def random_form(rng, space, degree, max_terms=2):
    from itertools import combinations

    indices = list(combinations(range(space.dim), degree))
    coeffs = {}
    for idx in rng.sample(indices, min(max_terms, len(indices))):
        coeffs[idx] = random_ratfun(rng, space.dim)
    return Form(space, degree, coeffs)


def random_vector_field(rng, space):
    return VectorField(space, [random_ratfun(rng, space.dim) for _ in range(space.dim)])


def random_spd_matrix(rng, n, nvars):
    """Constant symmetric positive definite matrix with rational entries."""
    lower = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    g = [[sum(lower[k][i] * lower[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        g[i][i] += 1
    return RfMatrix(nvars, g)


# --- pytest fixtures -----------------------------------------------------------


@pytest.fixture
def rng():
    return random.Random(20240913)


@pytest.fixture
def r6_space():
    return build_r6_space()


@pytest.fixture
def nilpotent_space():
    return build_nilpotent_space()


@pytest.fixture
def local_model_space():
    return build_local_model_space()
