"""Levi-Civita connection of a frame, the Reeb geodesy checks, and a
fixed-step RK4 cross-check of the geodesic equation.

The connection coefficients of a frame e_1, ..., e_n (a chart or a Lie
frame, see :mod:`contactpairs.exterior`) come from the Koszul formula

    2 g(∇_{e_a} e_b, e_k) = e_a g_bk + e_b g_ak - e_k g_ab
                            + g([e_a,e_b], e_k) - g([e_b,e_k], e_a)
                            + g([e_k,e_a], e_b),

contracted once with the exact inverse of the metric (one Gauss–Jordan
pass over the function field), so theorem checks stay exact.  On a chart
the bracket terms vanish and this is the coordinate formula; on a Lie frame
the derivative terms vanish and it is the constant Koszul formula.

Every sum here, the halved Koszul sum of each lowered symbol, the
contraction with g⁻¹ and the covariant derivative, is one
``algebra._dot``: one canonicalisation per result.  The validation of
metric compatibility, e_a g_bc − Σ_d Γ^d_ab g_dc − Σ_d Γ^d_ac g_db = 0, is
one ``_dot`` per (a, b ≤ c) as well, and torsion-freeness one per (a < b, c),
so a connection that passes costs no gcd there: each identically zero
residual has a zero numerator over its common denominator.

The RK4 cross-check is the numeric part.  It compiles each RatFun it
evaluates (field components, nonzero Christoffel symbols) once to a pair of
float programs.  It steps the flow on plain Python floats, with no numpy in
the step loop: a field component that reads no coordinate has the same value
at every stage, so its increment is computed once per call.  Only the
residual pass uses numpy, evaluating the speed and every Γ on the whole
trajectory at once, each distinct denominator once.  Both give the same
floats, bit for bit, as a point-by-point loop on numpy arrays, because every
point goes through the same IEEE operations in the same order: powers come
from the scalar libm ``pow``, products and sums are elementwise, and there
are no BLAS or pairwise reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import Poly, RatFun, SingularMatrixError, _dot, format_point
from .exterior import MetricField, Space, VectorField, directional_derivative
from .pair import VerifiedPair, _reeb_gram, column_matrix
from .structure import PreconditionError
from .verdicts import Verdict, residual_verdict

__all__ = [
    "ChristoffelData",
    "GeodesyReport",
    "DegenerateMetricError",
    "christoffel",
    "covariant_derivative",
    "reeb_geodesy",
    "numeric_geodesic_residual",
]


class DegenerateMetricError(ArithmeticError):
    """The metric is singular over the function field."""


@dataclass(frozen=True)
class ChristoffelData:
    """Connection coefficients: symbols[a][b][c] is the coefficient of basis
    direction c in ∇_{e_a} e_b."""

    space: Space
    metric: MetricField
    symbols: tuple[tuple[tuple[RatFun, ...], ...], ...]

    def gamma(self, a: int, b: int, c: int) -> RatFun:
        return self.symbols[a][b][c]

    def nonzero(self) -> list[tuple[int, int, int, RatFun]]:
        n = self.space.dim
        return [
            (a, b, c, self.symbols[a][b][c])
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if not self.symbols[a][b][c].is_zero()
        ]


def christoffel(g: MetricField, validate: bool = True) -> ChristoffelData:
    """Levi-Civita connection coefficients of ``g`` (exact).

    Raises :class:`DegenerateMetricError` when the metric matrix is singular
    over the function field.  With ``validate`` the defining properties
    (symmetry/torsion-freeness and metric compatibility) are re-checked
    exactly before returning."""
    space = g.space
    n = space.dim
    try:
        g_inv = g.matrix.inverse()
    except SingularMatrixError as exc:
        raise DegenerateMetricError("metric is degenerate over the function field") from exc

    half, minus_half = space.scalar(Fraction(1, 2)), space.scalar(Fraction(-1, 2))
    # de[a][b][k] = e_a g_bk and gb[a][b][k] = g([e_a, e_b], e_k); G is
    # symmetric, so gb[a][b] is G times the coefficient column of [e_a, e_b]
    de = [
        [[_frame_derivative(g.matrix.at(b, k), a) for k in range(n)] for b in range(n)]
        for a in range(n)
    ]
    gb = [
        [g.matrix.apply(_column(space, space.bracket_coeffs(a, b))) for b in range(n)]
        for a in range(n)
    ]

    symbols = []
    for a in range(n):
        row = []
        for b in range(n):
            # g(∇_a e_b, e_k), the Koszul formula halved
            lowered = [
                _dot(n, (
                    (de[a][b][k], half), (de[b][a][k], half), (de[k][a][b], minus_half),
                    (gb[a][b][k], half), (gb[b][k][a], minus_half), (gb[k][a][b], half),
                ))
                for k in range(n)
            ]
            row.append(tuple(_dot(n, zip(g_inv.row(c), lowered)) for c in range(n)))
        symbols.append(tuple(row))

    data = ChristoffelData(space, g, tuple(symbols))
    if validate:
        _validate_connection(data)
    return data


def _column(space: Space, coeffs: dict[int, Fraction]) -> list[RatFun]:
    """The coefficient column of a bracket, as scalars."""
    zero = space.zero()
    return [space.scalar(coeffs[m]) if m in coeffs else zero for m in range(space.dim)]


def _frame_derivative(f: RatFun, a: int) -> RatFun:
    """e_a f; a constant, such as every scalar of a Lie frame, is not
    differentiated."""
    return RatFun.zero(f.nvars) if f.is_constant() else f.diff(a)


def _validate_connection(data: ChristoffelData) -> None:
    space = data.space
    n = space.dim
    g = data.metric.matrix
    one, minus_one = space.one(), space.scalar(-1)
    minus_g = [[-e for e in row] for row in g.entries]
    # gammas[a][b] = the nonzero (d, Γ^d_ab)
    gammas = [[[] for _ in range(n)] for _ in range(n)]
    for a, b, d, gamma in data.nonzero():
        gammas[a][b].append((d, gamma))
    for a in range(n):
        for b in range(n):
            # the residual is symmetric in (b, c), so its first failure has b <= c
            for c in range(b, n):
                # metric compatibility: e_a g(e_b, e_c) = g(∇_a e_b, e_c) + g(e_b, ∇_a e_c),
                # with g(∇_a e_b, e_c) = sum_d Γ^d_ab g_dc, as one zero test
                residual = _dot(n, (
                    (_frame_derivative(g.at(b, c), a), one),
                    *((gamma, minus_g[d][c]) for d, gamma in gammas[a][b]),
                    *((gamma, minus_g[d][b]) for d, gamma in gammas[a][c]),
                ))
                if not residual.is_zero():
                    raise AssertionError(
                        f"metric compatibility violated at (a,b,c)=({a},{b},{c})"
                    )
    for a in range(n):
        for b in range(a + 1, n):
            structure = _column(space, space.bracket_coeffs(a, b))
            for c in range(n):
                # Γ^c_ab - Γ^c_ba - c^c_ab, as one zero test
                torsion = _dot(n, (
                    (data.gamma(a, b, c), one), (data.gamma(b, a, c), minus_one),
                    (structure[c], minus_one),
                ))
                if not torsion.is_zero():
                    raise AssertionError(
                        f"torsion-freeness violated at (a,b,c)=({a},{b},{c})"
                    )


def covariant_derivative(
    data: ChristoffelData, x: VectorField, y: VectorField
) -> VectorField:
    """(∇_X Y)^c = X(Y^c) + sum_{a,b} X^a Y^b Γ^c_{ab}."""
    space = data.space
    if x.space != space or y.space != space:
        raise ValueError("fields live on a different space")
    n = space.dim
    one = space.one()
    xy = [
        (a, b, xa * yb)
        for a, xa in enumerate(x.components) if not xa.is_zero()
        for b, yb in enumerate(y.components) if not yb.is_zero()
    ]
    comps = [
        _dot(n, (
            (directional_derivative(x, y.components[c]), one),
            *((weight, data.gamma(a, b, c)) for a, b, weight in xy),
        ))
        for c in range(n)
    ]
    return VectorField(space, comps)


@dataclass(frozen=True)
class GeodesyReport:
    """Covariant derivatives of the Reeb fields along each other, their
    second-fundamental-form residuals with respect to span{Z1, Z2}, the
    corresponding verdicts, and the validated connection they came from."""

    derivatives: dict[tuple[int, int], VectorField]
    second_fundamental: dict[tuple[int, int], VectorField]
    verdicts: dict[str, Verdict]
    christoffel: ChristoffelData

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())


def reeb_geodesy(vp: VerifiedPair, g: MetricField) -> GeodesyReport:
    """For a compatible metric: ∇_{Z_i} Z_j = 0 for all i, j, and the
    second fundamental form of the Reeb orbits vanishes.

    The Gram matrix g(Z_i, Z_j) = delta_ij is asserted first (it is a theorem
    for compatible metrics, and the tangential projection below relies on
    it); a violation raises :class:`PreconditionError` because it means the
    compatibility hypothesis does not hold."""
    space = vp.space
    gram = _reeb_gram(vp, g)
    for i in (1, 2):
        for j in (1, 2):
            value = gram.at(i - 1, j - 1)
            if value != (space.one() if i == j else space.zero()):
                raise PreconditionError(
                    f"g(Z{i}, Z{j}) = {value.format(space.names)}; "
                    "the metric is not compatible with the pair"
                )

    data = christoffel(g)
    derivatives = {
        (i, j): covariant_derivative(data, vp.z(i), vp.z(j)) for i in (1, 2) for j in (1, 2)
    }
    geodesic = residual_verdict(
        [
            (f"(∇_Z{i} Z{j})[{space.names[a]}]", c)
            for (i, j), nabla in derivatives.items()
            for a, c in enumerate(nabla.components)
        ],
        vp,
        detail="∇_{Z_i} Z_j = 0 for i, j = 1, 2",
    )

    # B = N - Z (Z^T G N): the columns of N are the ∇_{Z_i} Z_j, and Z^T G N
    # holds their tangential coefficients g(∇_{Z_i} Z_j, Z_l)
    nablas = column_matrix(space, list(derivatives.values()))
    reeb = vp._reeb_matrix
    b_matrix = nablas - reeb @ (reeb.transpose() @ g.matrix @ nablas)
    second = {
        ij: VectorField(space, b_matrix.column(col)) for col, ij in enumerate(derivatives)
    }
    totally_geodesic = residual_verdict(
        [
            (f"B(Z{i}, Z{j})[{space.names[a]}]", c)
            for (i, j), b_form in second.items()
            for a, c in enumerate(b_form.components)
        ],
        vp,
        detail="the Reeb orbits are totally geodesic",
    )

    return GeodesyReport(
        derivatives,
        second,
        {"geodesic": geodesic, "totally_geodesic": totally_geodesic},
        data,
    )


# --- numeric cross-check -----------------------------------------------------------

# A float program: one (float coefficient, ((var, power), ...)) per term of a
# Poly, in the order of ``Poly.terms``, with the zero powers left out.
_Program = tuple[tuple[float, tuple[tuple[int, int], ...]], ...]


def _compile(p: Poly) -> _Program:
    return tuple(
        (float(coeff), tuple((j, k) for j, k in enumerate(exps) if k))
        for exps, coeff in p.terms.items()
    )


def _pow(x: float, k: int) -> float:
    """``x ** k`` as libm ``pow`` gives it, an overflow to ±inf included
    (where the float ``**`` raises :class:`OverflowError`)."""
    try:
        return x**k
    except OverflowError:
        return -math.inf if x < 0 and k % 2 else math.inf


def _pole(r: RatFun, point: Sequence[float]) -> ZeroDivisionError:
    return ZeroDivisionError(f"denominator {r.den} vanishes at {format_point(point)}")


class _Powers(dict):
    """``x_j ** k`` on every point of a batch, keyed by ``(j, k)`` and made on
    first use with the scalar libm ``pow``, element by element: ``np.power``
    may dispatch to a vector pow that differs in the last bit."""

    def __init__(self, points: np.ndarray):
        super().__init__()
        self.columns = points.T.tolist()

    def __missing__(self, key: tuple[int, int]) -> np.ndarray:
        j, k = key
        column = self.columns[j]
        try:
            values = [x**k for x in column]
        except OverflowError:
            values = [_pow(x, k) for x in column]
        value = self[key] = np.array(values)
        return value


@dataclass(frozen=True)
class _FloatRatFun:
    """A RatFun compiled to two float programs, evaluated at one point or on
    a whole batch of points with the same IEEE operations per point."""

    source: RatFun
    num: _Program
    den: _Program

    @classmethod
    def compile(cls, r: RatFun) -> "_FloatRatFun":
        return cls(r, _compile(r.num), _compile(r.den))

    @property
    def reads_coordinates(self) -> bool:
        return any(factors for _, factors in (*self.num, *self.den))

    def at(self, point: list[float]) -> float:
        den = _run(self.den, point)
        if den == 0.0:
            raise _pole(self.source, point)
        return _run(self.num, point) / den


def _run(program: _Program, point: list[float]) -> float:
    total = 0.0
    for coeff, factors in program:
        value = coeff
        for j, k in factors:
            value *= _pow(point[j], k)
        total += value
    return total


def _run_batch(program: _Program, powers: _Powers, m: int) -> np.ndarray:
    total = np.zeros(m)
    for coeff, factors in program:
        value = np.full(m, coeff)
        for factor in factors:
            value *= powers[factor]
        total += value
    return total


def _eval_batch(functions: Sequence[_FloatRatFun], points: np.ndarray) -> list[np.ndarray]:
    """Every function on every point (rows of ``points``), each distinct
    denominator program run once.  A vanishing denominator raises for the
    first point, and at that point for the first function, as a
    point-by-point loop would."""
    m = len(points)
    powers = _Powers(points)
    dens: dict[_Program, np.ndarray] = {}
    for f in functions:
        if f.den not in dens:
            dens[f.den] = _run_batch(f.den, powers, m)
    zeros = {program: np.flatnonzero(den == 0.0) for program, den in dens.items()}
    poles = [(zeros[f.den][0], i) for i, f in enumerate(functions) if zeros[f.den].size]
    if poles:
        s, i = min(poles)
        raise _pole(functions[i].source, points[s])
    return [_run_batch(f.num, powers, m) / dens[f.den] for f in functions]


def _field_at(
    moving: list[tuple[int, _FloatRatFun]], k: list[float], point: list[float]
) -> list[float]:
    """``k`` with its coordinate-reading components evaluated at ``point``."""
    k = k.copy()
    for j, c in moving:
        k[j] = c.at(point)
    return k


def _rk4_trajectory(
    components: list[_FloatRatFun], start: Sequence, steps: int, dt: float
) -> np.ndarray:
    """The start point and ``steps`` classical RK4 steps of the flow of the
    compiled field, one point per row.  The steps run on plain floats, each
    coordinate through x + (0.5·dt)·k for a stage point and
    x + (dt/6)·(((k1 + 2·k2) + 2·k3) + k4) for the next point, the IEEE
    operations of the same expressions on numpy arrays."""
    moving = [(j, c) for j, c in enumerate(components) if c.reads_coordinates]
    half, sixth = 0.5 * dt, dt / 6.0
    trajectory = np.empty((steps + 1, len(components)))
    trajectory[0] = [float(v) for v in start]
    x = trajectory[0].tolist()
    if steps:
        # The field at the start point, raising as the first stage would.  A
        # component that reads no coordinate keeps this value at every stage,
        # so its increment is the same in every step.
        k = [c.at(x) for c in components]
        increment = [sixth * (((kj + 2.0 * kj) + 2.0 * kj) + kj) for kj in k]
    for s in range(steps):
        if moving:
            k1 = _field_at(moving, k, x)
            k2 = _field_at(moving, k, [xj + half * kj for xj, kj in zip(x, k1)])
            k3 = _field_at(moving, k, [xj + half * kj for xj, kj in zip(x, k2)])
            k4 = _field_at(moving, k, [xj + dt * kj for xj, kj in zip(x, k3)])
            for j, _ in moving:
                increment[j] = sixth * (((k1[j] + 2.0 * k2[j]) + 2.0 * k3[j]) + k4[j])
        x = [xj + d for xj, d in zip(x, increment)]
        trajectory[s + 1] = x
    return trajectory


def numeric_geodesic_residual(
    g: MetricField,
    field: VectorField,
    start: Sequence,
    t_end: float = 1.0,
    dt: float = 1e-3,
    data: ChristoffelData | None = None,
) -> float:
    """Integrate the flow of ``field`` with classical fixed-step RK4 and
    return the max-norm residual of the geodesic equation along the curve,

        gamma''^c + sum_{a,b} Γ^c_{ab} gamma'^a gamma'^b,

    with the acceleration estimated by central differences of the computed
    trajectory and Γ evaluated at each interior point.

    The field components and the nonzero Christoffel symbols are compiled
    once per call to float programs.  The RK4 steps run one after the other
    on plain floats (no numpy), and a component that reads no coordinate is
    evaluated once.  Only the residual pass uses numpy: it evaluates the speed
    and every Γ on all interior points at once, as arrays, each distinct
    denominator once.  The result is the same float a point-by-point
    evaluation on numpy arrays gives, because each point sees the same IEEE
    operations in the same order: a stage point is x + (0.5·dt)·k, a step
    adds (dt/6)·(((k1 + 2·k2) + 2·k3) + k4); a term starts from its
    coefficient and is multiplied by ``x_j ** k`` for increasing ``j`` (scalar
    libm ``pow``), the terms are summed left to right from 0.0, then
    ``num / den`` after the ``den == 0.0`` test; the Γ terms are added to the
    acceleration in ``data.nonzero()`` order, and nothing is reduced pairwise
    or through BLAS.  A vanishing denominator raises
    :class:`ZeroDivisionError` naming it and the first point where it
    vanishes, a stage point printed in full."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if data is None:
        data = christoffel(g, validate=False)
    components = [_FloatRatFun.compile(c) for c in field.components]
    trajectory = _rk4_trajectory(components, start, int(round(t_end / dt)), dt)

    points = trajectory[1:-1]
    # the acceleration, to which the Γ terms are added
    residual = (trajectory[2:] - 2.0 * points + trajectory[:-2]) / (dt * dt)
    nonzero_gamma = data.nonzero()
    speed = _eval_batch(components, points)
    gammas = _eval_batch([_FloatRatFun.compile(r) for *_, r in nonzero_gamma], points)
    for (a, b, c, _), gamma in zip(nonzero_gamma, gammas):
        residual[:, c] += gamma * speed[a] * speed[b]
    # a row holding a NaN has a NaN maximum and never raises the running max
    row_max = np.max(np.abs(residual), axis=1)
    return max([0.0, *row_max[~np.isnan(row_max)].tolist()])
