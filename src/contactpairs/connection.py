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

The assembly touches only structural nonzeros.  The Koszul sums come from
two sources: the nonzero derivatives e_a g_pq of the non-constant metric
entries, and the nonzero values g([e_i, e_j], e_k) of the brackets of the
indexed structure constants.  Each such term enters three lowered symbols
with weight ±½, at its place in the formula above, and each lowered symbol
is one ``algebra._dot`` over its terms.  Each lowered g(∇_a e_b, e_k) is
then contracted with the nonzero entries of column k of g⁻¹, one ``_dot``
per symbol, and a symbol that gets no term is the shared zero.  On the
Heisenberg product h_7 × h_7 (dim 14) 36 of the 2744 symbols are nonzero.

The validation makes the same exact zero tests as a loop over every index:
metric compatibility, e_a g_bc − Σ_d Γ^d_ab g_dc − Σ_d Γ^d_ac g_db = 0, at
(a, b ≤ c), then torsion-freeness, Γ^c_ab − Γ^c_ba − c^c_ab = 0, at
(a < b, c), each one ``_dot``.  It tests only the triples that carry a term
(a derivative, a product Γ·g with both factors nonzero, a nonzero symbol or
a structure constant), in the loop's order, so the first failure and its
message are the loop's; the residual of any other triple is identically
zero.  A connection that passes costs no gcd there: each identically zero
residual has a zero numerator over its common denominator.

The RK4 cross-check is the numeric part, on plain Python floats.  It steps
the flow of a Reeb field Z, each quotient it evaluates compiled to a pair of
float programs once per call; a field component that reads no coordinate
has the same value at every stage, so its increment is computed once per
call.  The geodesic equation along the flow only needs Γ(Z, Z), the Γ terms
of the exact ∇_Z Z, so those are contracted exactly once per call, and the
residual pass evaluates them point by point beside a fourth-order
five-point stencil for the acceleration.  The contraction is left as one
quotient per distinct denominator, not reduced: the cross-check does no gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import Poly, RatFun, SingularMatrixError, _dot, _support, format_point
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

    def nonzero(self) -> tuple[tuple[int, int, int, RatFun], ...]:
        """Every (a, b, c, Γ^c_ab) with a nonzero symbol, found once."""
        return self._nonzero

    @cached_property
    def _nonzero(self) -> tuple[tuple[int, int, int, RatFun], ...]:
        n = self.space.dim
        return tuple(
            (a, b, c, self.symbols[a][b][c])
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if not self.symbols[a][b][c].is_zero()
        )


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

    # lowered[a, b][k][slot] is the slot-th term of the Koszul formula for
    # g(∇_a e_b, e_k), in the order e_a g_bk, e_b g_ak, e_k g_ab,
    # g([e_a,e_b],e_k), g([e_b,e_k],e_a), g([e_k,e_a],e_b); each derivative
    # D = e_a g_pq and each bracket value B = g([e_i,e_j],e_k) fills one slot
    # of three symbols
    lowered: dict[tuple[int, int], dict[int, list]] = {}

    def enter(a: int, b: int, k: int, slot: int, value: RatFun) -> None:
        lowered.setdefault((a, b), {}).setdefault(k, [None] * 6)[slot] = value

    for p, row in enumerate(g.matrix.entries):
        for q, entry in enumerate(row):
            if entry.is_constant():  # every entry on a Lie frame
                continue
            for a in range(n):
                d = entry.diff(a)
                if not d.is_zero():
                    enter(a, p, q, 0, d)
                    enter(p, a, q, 1, d)
                    enter(p, q, a, 2, d)
    for (i, j), coeffs in space.nonzero_brackets():
        for k, b in _support(g.matrix.apply(_column(space, coeffs))):
            enter(i, j, k, 3, b)
            enter(k, i, j, 4, b)
            enter(j, k, i, 5, b)

    half, minus_half = space.scalar(Fraction(1, 2)), space.scalar(Fraction(-1, 2))
    weights = (half, half, minus_half, half, minus_half, half)
    g_inv_columns = [_support(g_inv.column(k)) for k in range(n)]
    zero = space.zero()
    symbols = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (a, b), terms in lowered.items():
        # Γ^c_ab = Σ_k g^ck g(∇_a e_b, e_k), over the nonzero g^ck of column k
        contraction: dict[int, list[tuple[RatFun, RatFun]]] = {}
        for k in sorted(terms):
            value = _dot(n, (
                (term, weight) for term, weight in zip(terms[k], weights) if term is not None
            ))
            if value.is_zero():
                continue
            for c, inv in g_inv_columns[k]:
                contraction.setdefault(c, []).append((inv, value))
        for c, pairs in contraction.items():
            symbols[a][b][c] = _dot(n, pairs)

    data = ChristoffelData(
        space, g, tuple(tuple(tuple(row) for row in plane) for plane in symbols)
    )
    if validate:
        _validate_connection(data)
    return data


def _column(space: Space, coeffs: Mapping[int, Fraction]) -> list[RatFun]:
    """The coefficient column of a bracket, as scalars."""
    zero = space.zero()
    return [space.scalar(coeffs[m]) if m in coeffs else zero for m in range(space.dim)]


def _validate_connection(data: ChristoffelData) -> None:
    """Metric compatibility at every (a, b ≤ c), then torsion-freeness at
    every (a < b, c), each as one exact zero test, in that order.  Only the
    triples whose residual carries a term are tested: the residual of any
    other is identically zero."""
    space = data.space
    n = space.dim
    g = data.metric.matrix
    one, minus_one = space.one(), space.scalar(-1)
    # minus_g[d] = {c: -g_dc} over the nonzero g_dc
    minus_g = [{c: -e for c, e in _support(row)} for row in g.entries]
    # gammas[a][b] = the nonzero (d, Γ^d_ab)
    gammas = [[[] for _ in range(n)] for _ in range(n)]
    for a, b, d, gamma in data.nonzero():
        gammas[a][b].append((d, gamma))

    # metric compatibility: e_a g(e_b, e_c) = g(∇_a e_b, e_c) + g(e_b, ∇_a e_c),
    # with g(∇_a e_b, e_c) = sum_d Γ^d_ab g_dc; the residual is symmetric in
    # (b, c), so its first failure has b <= c
    derivatives = {
        (a, b, c): d
        for b, row in enumerate(g.entries)
        for c in range(b, n)
        if not row[c].is_constant()
        for a in range(n)
        if not (d := row[c].diff(a)).is_zero()
    }
    triples = set(derivatives)
    for a, b, d, _ in data.nonzero():
        triples.update((a, min(b, c), max(b, c)) for c in minus_g[d])
    for a, b, c in sorted(triples):
        residual = _dot(n, (
            (derivatives.get((a, b, c), space.zero()), one),
            *((gamma, minus_g[d][c]) for d, gamma in gammas[a][b] if c in minus_g[d]),
            *((gamma, minus_g[d][b]) for d, gamma in gammas[a][c] if b in minus_g[d]),
        ))
        if not residual.is_zero():
            raise AssertionError(f"metric compatibility violated at (a,b,c)=({a},{b},{c})")

    # Γ^c_ab - Γ^c_ba - c^c_ab
    triples = {(min(a, b), max(a, b), c) for a, b, c, _ in data.nonzero() if a != b}
    triples.update((i, j, k) for (i, j), coeffs in space.nonzero_brackets() if i < j for k in coeffs)
    for a, b, c in sorted(triples):
        structure = space.bracket_coeffs(a, b)
        torsion = _dot(n, (
            (data.gamma(a, b, c), one), (data.gamma(b, a, c), minus_one),
            (space.scalar(structure[c]) if c in structure else space.zero(), minus_one),
        ))
        if not torsion.is_zero():
            raise AssertionError(f"torsion-freeness violated at (a,b,c)=({a},{b},{c})")


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


def _pole(den: Poly, point: Sequence[float]) -> ZeroDivisionError:
    return ZeroDivisionError(f"denominator {den} vanishes at {format_point(point)}")


@dataclass(frozen=True)
class _FloatRatFun:
    """A quotient num/den of polynomials compiled to two float programs,
    evaluated at one point."""

    pole: Poly  # the denominator, named when it vanishes
    num: _Program
    den: _Program

    @classmethod
    def compile(cls, num: Poly, den: Poly) -> "_FloatRatFun":
        return cls(den, _compile(num), _compile(den))

    @property
    def reads_coordinates(self) -> bool:
        return any(factors for _, factors in (*self.num, *self.den))

    def at(self, point: list[float]) -> float:
        den = _run(self.den, point)
        if den == 0.0:
            raise _pole(self.pole, point)
        return _run(self.num, point) / den


def _run(program: _Program, point: list[float]) -> float:
    total = 0.0
    for coeff, factors in program:
        value = coeff
        for j, k in factors:
            value *= _pow(point[j], k)
        total += value
    return total


def _gamma_along(data: ChristoffelData, z: VectorField) -> list[list[tuple[Poly, Poly]]]:
    """Γ(Z, Z)^c = sum_{a,b} Γ^c_ab Z^a Z^b exactly, the Γ terms of ∇_Z Z: for
    each c, one (numerator, denominator) pair per distinct denominator
    Γ^c_ab.den · Z^a.den · Z^b.den of its terms, in ``data.nonzero()`` order.
    The pairs are not brought over one denominator and reduced: that gcd is
    of high degree on a rational field, and a float evaluation needs none."""
    comps = z.components
    groups: list[dict[Poly, Poly]] = [{} for _ in comps]
    for a, b, c, gamma in data.nonzero():
        za, zb = comps[a], comps[b]
        if za.is_zero() or zb.is_zero():
            continue
        den = gamma.den * za.den * zb.den
        num = gamma.num * za.num * zb.num
        group = groups[c]
        group[den] = group[den] + num if den in group else num
    return [[(num, den) for den, num in group.items()] for group in groups]


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
) -> list[list[float]]:
    """The start point and ``steps`` classical RK4 steps of the flow of the
    compiled field, one list of coordinates per point.  Each coordinate goes
    through x + (0.5·dt)·k for a stage point and
    x + (dt/6)·(((k1 + 2·k2) + 2·k3) + k4) for the next point."""
    moving = [(j, c) for j, c in enumerate(components) if c.reads_coordinates]
    half, sixth = 0.5 * dt, dt / 6.0
    x = [float(v) for v in start]
    trajectory = [x]
    if steps:
        # The field at the start point, raising as the first stage would.  A
        # component that reads no coordinate keeps this value at every stage,
        # so its increment is the same in every step.
        k = [c.at(x) for c in components]
        increment = [sixth * (((kj + 2.0 * kj) + 2.0 * kj) + kj) for kj in k]
    for _ in range(steps):
        if moving:
            k1 = _field_at(moving, k, x)
            k2 = _field_at(moving, k, [xj + half * kj for xj, kj in zip(x, k1)])
            k3 = _field_at(moving, k, [xj + half * kj for xj, kj in zip(x, k2)])
            k4 = _field_at(moving, k, [xj + dt * kj for xj, kj in zip(x, k3)])
            for j, _ in moving:
                increment[j] = sixth * (((k1[j] + 2.0 * k2[j]) + 2.0 * k3[j]) + k4[j])
        x = [xj + d for xj, d in zip(x, increment)]
        trajectory.append(x)
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

        gamma''^c + Γ(Z, Z)^c,   Γ(Z, Z)^c = sum_{a,b} Γ^c_{ab} Z^a Z^b,

    at the trajectory points x[2], ..., x[steps - 2].  The acceleration is
    the fourth-order five-point stencil

        (16·((x[s+1] - x[s]) + (x[s-1] - x[s])) - ((x[s+2] - x[s]) + (x[s-2] - x[s])))
        / (12·dt²),

    whose truncation error is dt⁴/90·|gamma⁽⁶⁾|, O(dt⁴); its rounding floor
    is of order 2⁻⁵³/dt².  Γ(Z, Z) is contracted exactly once per call
    (:func:`_gamma_along`) and evaluated point by point on plain floats, its
    terms added to the acceleration in ``data.nonzero()`` order.

    A vanishing denominator raises :class:`ZeroDivisionError` naming it and
    the first point where it vanishes, a stage point printed in full: the
    field's on the RK4 stages, then, at each interior point x[1], ...,
    x[steps - 1] in turn, each distinct non-constant denominator of the
    nonzero Christoffel symbols in ``data.nonzero()`` order.  A residual row
    holding a NaN, as past a blow-up, does not count."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if data is None:
        data = christoffel(g, validate=False)
    components = [_FloatRatFun.compile(c.num, c.den) for c in field.components]
    trajectory = _rk4_trajectory(components, start, int(round(t_end / dt)), dt)

    poles = [
        (den, _compile(den))
        for den in dict.fromkeys(gamma.den for *_, gamma in data.nonzero())
        if not den.is_constant()
    ]
    gamma_zz = [
        (c, [_FloatRatFun.compile(num, den) for num, den in terms])
        for c, terms in enumerate(_gamma_along(data, field))
        if terms
    ]
    scale = 12.0 * dt * dt
    last = len(trajectory) - 1
    worst = 0.0
    for s in range(1, last):
        x = trajectory[s]
        for den, program in poles:
            if _run(program, x) == 0.0:
                raise _pole(den, x)
        if not 2 <= s <= last - 2:
            continue
        row = [
            (16.0 * ((after - xc) + (before - xc)) - ((after2 - xc) + (before2 - xc))) / scale
            for before2, before, xc, after, after2 in zip(*trajectory[s - 2 : s + 3])
        ]
        for c, terms in gamma_zz:
            for f in terms:
                row[c] += f.at(x)
        if not any(map(math.isnan, row)):
            worst = max(worst, *map(abs, row))
    return worst
