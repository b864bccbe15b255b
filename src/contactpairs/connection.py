"""Levi-Civita connection of a frame, the Reeb geodesy checks, and a
fixed-step RK4 cross-check of the geodesic equation.

The connection of a frame e_1, ..., e_n (a chart or a Lie frame, see
:mod:`contactpairs.exterior`) is held by its Christoffel symbols of the first
kind L_{ab,k} = g(∇_{e_a} e_b, e_k), the Koszul formula

    2 g(∇_{e_a} e_b, e_k) = e_a g_bk + e_b g_ak - e_k g_ab
                            + g([e_a,e_b], e_k) - g([e_b,e_k], e_a)
                            + g([e_k,e_a], e_b),

exact over the function field.  On a chart the bracket terms vanish and this
is the coordinate formula; on a Lie frame the derivative terms vanish and it
is the constant Koszul formula.  No symbol needs g⁻¹.

The assembly touches only structural nonzeros.  The Koszul sums come from
two sources: the nonzero derivatives e_a g_pq of the non-constant metric
entries, and the nonzero values g([e_i, e_j], e_k) of the brackets of the
indexed structure constants.  Each such term enters three symbols with
weight ±½, at its place in the formula above, and each symbol is one
``algebra._dot`` over its terms; a symbol that gets no term is the shared
zero.  Torsion-freeness and metric compatibility are this formula's own
algebra, so they are not re-checked on every run: the tests hold them as
the oracle of the kernel.

The geodesy theorems are zero tests, so they are decided on covectors:
(∇_X Y)♭_k = g(X(Y), e_k) + Σ X^a Y^b L_{ab,k} vanishes exactly when
∇_X Y does, since g is nondegenerate.  Only a nonzero covector is raised to
the vector it is g-dual to, by one exact solve, so that a witness names
vector components.

The RK4 cross-check is the numeric part, on plain Python floats.  It steps
the flow of a Reeb field Z, each quotient it evaluates compiled to a pair of
float programs once per call; a field component that reads no coordinate
has the same value at every stage, so its increment is computed once per
call.  The geodesic equation along the flow only needs Γ(Z, Z), the Γ terms
of the exact ∇_Z Z, so those are raised and contracted exactly once per
call, and the residual pass evaluates them point by point beside a
fourth-order five-point stencil for the acceleration.  The contraction is
left as one quotient per distinct denominator, not reduced: the cross-check
does no gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (
    InconsistentSystemError,
    Poly,
    RatFun,
    RfMatrix,
    _dot,
    _support,
    format_point,
    format_poly,
    solve_linear_exact,
)
from .exterior import MetricField, Space, VectorField, directional_derivative
from .pair import VerifiedPair, _reeb_gram
from .structure import PreconditionError
from .verdicts import Verdict, residual_verdict

__all__ = [
    "ChristoffelData",
    "GeodesyReport",
    "DegenerateMetricError",
    "christoffel",
    "reeb_geodesy",
    "numeric_geodesic_residual",
]


class DegenerateMetricError(ArithmeticError):
    """The metric is singular."""


@dataclass(frozen=True)
class ChristoffelData:
    """Christoffel symbols of the first kind: symbols[a][b][k] is
    g(∇_{e_a} e_b, e_k)."""

    space: Space
    metric: MetricField
    symbols: tuple[tuple[tuple[RatFun, ...], ...], ...]

    def gamma(self, a: int, b: int, k: int) -> RatFun:
        return self.symbols[a][b][k]

    def nonzero(self) -> tuple[tuple[int, int, int, RatFun], ...]:
        """Every (a, b, k, L_{ab,k}) with a nonzero symbol, found once."""
        return self._nonzero

    @cached_property
    def _nonzero(self) -> tuple[tuple[int, int, int, RatFun], ...]:
        n = self.space.dim
        return tuple(
            (a, b, k, self.symbols[a][b][k])
            for a in range(n)
            for b in range(n)
            for k in range(n)
            if not self.symbols[a][b][k].is_zero()
        )

    def raised(self, a: int, b: int) -> tuple[RatFun, ...]:
        """Γ^·_ab, the vector g⁻¹ L_{ab,·}, by one exact solve, memoised."""
        if (a, b) not in self._raised:
            self._raised[a, b] = _raised(self.metric, self.symbols[a][b])
        return self._raised[a, b]

    @cached_property
    def _raised(self) -> dict[tuple[int, int], tuple[RatFun, ...]]:
        return {}


def christoffel(g: MetricField) -> ChristoffelData:
    """The Christoffel symbols of the first kind of ``g``, exact."""
    space = g.space
    n = space.dim
    # terms[a, b][k][slot] is the slot-th term of the Koszul formula for
    # g(∇_a e_b, e_k), in the order e_a g_bk, e_b g_ak, e_k g_ab,
    # g([e_a,e_b],e_k), g([e_b,e_k],e_a), g([e_k,e_a],e_b); each derivative
    # D = e_a g_pq and each bracket value B = g([e_i,e_j],e_k) fills one slot
    # of three symbols
    terms: dict[tuple[int, int], dict[int, list]] = {}

    def enter(a: int, b: int, k: int, slot: int, value: RatFun) -> None:
        terms.setdefault((a, b), {}).setdefault(k, [None] * 6)[slot] = value

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
    zero = space.zero()
    symbols = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (a, b), slots in terms.items():
        for k, values in slots.items():
            symbols[a][b][k] = _dot(n, (
                (term, weight) for term, weight in zip(values, weights) if term is not None
            ))
    return ChristoffelData(space, g, tuple(tuple(tuple(row) for row in plane) for plane in symbols))


def _column(space: Space, coeffs: Mapping[int, Fraction]) -> list[RatFun]:
    """The coefficient column of a bracket, as scalars."""
    zero = space.zero()
    return [space.scalar(coeffs[m]) if m in coeffs else zero for m in range(space.dim)]


def _require_nonsingular_at(g: MetricField, point: Sequence) -> None:
    """Raise :class:`DegenerateMetricError` unless ``g`` is invertible at
    ``point``, by Gaussian elimination on its values."""
    rows = g.eval_at(point)
    n = len(rows)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            raise DegenerateMetricError(f"metric is singular at {format_point(point)}")
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for row in rows[c + 1 :]:
            if row[c]:
                factor = row[c] / pivot[c]
                row[c:] = [x - factor * y for x, y in zip(row[c:], pivot[c:])]


def _raised(g: MetricField, covector: Sequence[RatFun]) -> tuple[RatFun, ...]:
    """The v with g·v = ``covector``: the zero covector itself, else one exact
    solve."""
    if all(c.is_zero() for c in covector):
        return tuple(covector)
    degenerate = DegenerateMetricError("metric is degenerate over the function field")
    try:
        solution = solve_linear_exact(g.matrix, covector)
    except InconsistentSystemError as exc:
        raise degenerate from exc
    if solution.kernel:
        raise degenerate
    return solution.particular


def _lowered_nabla(data: ChristoffelData, x: VectorField, y: VectorField) -> tuple[RatFun, ...]:
    """(∇_X Y)♭_k = g(X(Y), e_k) + Σ_{a,b} X^a Y^b L_{ab,k}, one ``_dot`` per k."""
    dy = [directional_derivative(x, c) for c in y.components]
    terms = [list(zip(row, dy)) for row in data.metric.matrix.entries]
    weights: dict[tuple[int, int], RatFun] = {}
    for a, b, k, symbol in data.nonzero():
        xa, yb = x.components[a], y.components[b]
        if xa.is_zero() or yb.is_zero():
            continue
        if (a, b) not in weights:
            weights[a, b] = xa * yb
        terms[k].append((weights[a, b], symbol))
    return tuple(_dot(data.space.dim, pairs) for pairs in terms)


@dataclass(frozen=True)
class GeodesyReport:
    """Covariant derivatives of the Reeb fields along each other, their
    second-fundamental-form residuals with respect to span{Z1, Z2}, the
    corresponding verdicts, and the Christoffel symbols of the first kind
    they came from."""

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

    Raises :class:`DegenerateMetricError` when ``g`` is singular at the first
    sample point.  The Gram matrix g(Z_i, Z_j) = delta_ij is asserted next
    (it is a theorem for compatible metrics, and the tangential projection
    below relies on it); a violation raises :class:`PreconditionError`
    because it means the compatibility hypothesis does not hold.

    Both verdicts are decided on covectors, the lowered N♭ = (∇_{Z_i} Z_j)♭
    and G·B = N♭ − (G Z)(Zᵀ N♭); a nonzero one is raised by one exact solve,
    so that the witness names vector components."""
    space = vp.space
    _require_nonsingular_at(g, vp.sample_points[0])
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
    lowered = {
        (i, j): _lowered_nabla(data, vp.z(i), vp.z(j)) for i in (1, 2) for j in (1, 2)
    }
    # G·B = N♭ − (G Z)(Zᵀ N♭): the columns of N♭ are the lowered ∇_{Z_i} Z_j,
    # and Zᵀ N♭ holds their tangential coefficients g(∇_{Z_i} Z_j, Z_l)
    flats = RfMatrix(space.dim, list(zip(*lowered.values())))
    reeb = vp._reeb_matrix
    second_flats = flats - (g.matrix @ reeb) @ (reeb.transpose() @ flats)
    derivatives = {ij: VectorField(space, _raised(g, flat)) for ij, flat in lowered.items()}
    second = {
        ij: VectorField(space, _raised(g, second_flats.column(col)))
        for col, ij in enumerate(lowered)
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


def _pole(den: Poly, names: Sequence[str], point: Sequence[float]) -> ZeroDivisionError:
    return ZeroDivisionError(
        f"denominator {format_poly(den, names)} vanishes at {format_point(point)}"
    )


@dataclass(frozen=True)
class _FloatRatFun:
    """A quotient num/den of polynomials in the coordinates ``names``
    compiled to two float programs, evaluated at one point."""

    pole: Poly  # the denominator, printed with ``names`` when it vanishes
    names: Sequence[str]
    num: _Program
    den: _Program

    @classmethod
    def compile(cls, num: Poly, den: Poly, names: Sequence[str]) -> "_FloatRatFun":
        return cls(den, names, _compile(num), _compile(den))

    @property
    def reads_coordinates(self) -> bool:
        return any(factors for _, factors in (*self.num, *self.den))

    def at(self, point: list[float]) -> float:
        den = _run(self.den, point)
        if den == 0.0:
            raise _pole(self.pole, self.names, point)
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
    """Γ(Z, Z)^c = sum_{a,b} Γ^c_ab Z^a Z^b exactly, the Γ terms of ∇_Z Z,
    with Γ^·_ab raised (:meth:`ChristoffelData.raised`) where Z^a, Z^b and
    L_{ab,·} are nonzero: for each c, one (numerator, denominator) pair per
    distinct denominator Γ^c_ab.den · Z^a.den · Z^b.den of its terms, in
    (a, b, c) order.  The pairs are not brought over one denominator and
    reduced: that gcd is of high degree on a rational field, and a float
    evaluation needs none."""
    comps = z.components
    pairs = dict.fromkeys(
        (a, b) for a, b, *_ in data.nonzero() if not (comps[a].is_zero() or comps[b].is_zero())
    )
    groups: list[dict[Poly, Poly]] = [{} for _ in comps]
    for a, b in pairs:
        za, zb = comps[a], comps[b]
        for c, gamma in _support(data.raised(a, b)):
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
    terms added to the acceleration in (a, b, c) order.  ``data`` holds the
    Christoffel symbols of the first kind of ``g``, computed when not given.

    A vanishing denominator raises :class:`ZeroDivisionError` naming it, in
    the field's coordinates, and the first point where it vanishes, a stage
    point printed in full: the field's on the RK4 stages, then, at each
    interior point x[1], ..., x[steps - 1] in turn, each distinct
    non-constant denominator of the nonzero Christoffel symbols in
    ``data.nonzero()`` order.  A residual row
    holding a NaN, as past a blow-up, does not count."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if data is None:
        data = christoffel(g)
    names = field.space.names
    components = [_FloatRatFun.compile(c.num, c.den, names) for c in field.components]
    trajectory = _rk4_trajectory(components, start, int(round(t_end / dt)), dt)

    poles = [
        (den, _compile(den))
        for den in dict.fromkeys(symbol.den for *_, symbol in data.nonzero())
        if not den.is_constant()
    ]
    gamma_zz = [
        (c, [_FloatRatFun.compile(num, den, names) for num, den in terms])
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
                raise _pole(den, names, x)
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
