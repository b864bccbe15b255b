"""Graded exterior calculus over exact scalars.

A space is a frame e_1, ..., e_n with dual covectors w_1, ..., w_n and
structure constants [e_i, e_j] = sum_k c^k_{ij} e_k.  A coordinate chart is
the frame e_a = ∂_a, whose structure constants vanish; a Lie frame is a
left-invariant frame, whose scalars are constants.  Forms, vector fields,
endomorphism fields and metrics all carry
:class:`~contactpairs.algebra.RatFun` coefficients; on Lie-frame spaces the
coefficients must be constants and mixing is a constructor error.  The
package's own Reeb fields and frame vectors skip that check through the
trusted ``VectorField._of``: solved from constant entries, they are constant.

Every differential operation is one frame formula for both kinds of space,

    e_a f = ∂_a f,    d w_k = -sum_{i<j} c^k_{ij} w_i ∧ w_j,
    d(c w_I) = dc ∧ w_I + c d(w_I),
    [X, Y]^k = X(Y^k) - Y(X^k) + sum_{i,j} X^i Y^j c^k_{ij},

and skips the terms the input shows to be zero: a constant is never
differentiated (so a Lie frame never differentiates) and a chart has no
structure constants to sum.

Pairing convention, fixed once for the whole package:

    (dx_{i1} ∧ ... ∧ dx_{ip})(v_1, ..., v_p) = det(v_b[i_a])

with no 1/p! normalization anywhere, evaluated by contraction:
ω(v_1, ..., v_p) = i_{v_p} ... i_{v_1} ω, the determinant expanded along
the first vector.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .algebra import Poly, RatFun, RfMatrix, _as_fraction, _dot, format_point, format_poly

Index = tuple[int, ...]

_NO_BRACKET: Mapping[int, Fraction] = MappingProxyType({})

__all__ = [
    "Space",
    "Form",
    "VectorField",
    "EndoField",
    "MetricField",
    "FrameForm",
    "wedge",
    "ext_d",
    "interior",
    "bracket",
    "lie_derivative",
    "eval_at",
    "directional_derivative",
]


def _merge_indices(a: Index, b: Index) -> tuple[int, Index]:
    """Merge strictly increasing index tuples; sign 0 on a repeated index."""
    i = j = 0
    sign = 1
    out: list[int] = []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, ()
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
            if (len(a) - i) % 2:
                sign = -sign
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def _add_into(coeffs: dict[Index, RatFun], key: Index, term: RatFun, zero: RatFun) -> None:
    """``coeffs[key] += term``, keeping only the nonzero coefficients."""
    s = coeffs.get(key, zero) + term
    if s.is_zero():
        coeffs.pop(key, None)
    else:
        coeffs[key] = s


def _wedge_coeffs(
    a: Mapping[Index, RatFun], b: Mapping[Index, RatFun], zero: RatFun
) -> dict[Index, RatFun]:
    """Coefficients of the wedge product of two alternating tensors, each
    given by its nonzero coefficients on strictly increasing index tuples."""
    coeffs: dict[Index, RatFun] = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            sign, key = _merge_indices(ia, ib)
            if sign:
                _add_into(coeffs, key, ca * cb if sign > 0 else -(ca * cb), zero)
    return coeffs


def _wedge_power(tensor, unit, power: int):
    """``unit`` wedged ``power`` times with ``tensor``."""
    if power < 0:
        raise ValueError("negative wedge power")
    result = unit
    for _ in range(power):
        result = result.wedge(tensor)
    return result


class Space:
    """A coordinate chart or a constant-coefficient Lie frame.

    Lie frames are specified either by structure constants c^k_{ij} of the
    brackets [X_i, X_j] = sum_k c^k_{ij} X_k, or by the differentials of the
    frame covectors (lists of (i, j, coeff) with i < j, meaning
    d w_k = sum coeff · w_i ∧ w_j); the two are related by c^k_{ij} = -coeff.
    Construction validates d∘d = 0 on every covector, which is the Jacobi
    identity.
    """

    __slots__ = ("kind", "names", "_sc", "_brackets", "_dforms")

    CHART = "chart"
    LIE = "lie"

    def __init__(self, kind: str, names: Sequence[str], sc=None):
        self.kind = kind
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate/covector names must be distinct")
        self._sc = sc or {}
        # (i, j) -> the nonzero c^k_{ij} of [X_i, X_j], both orders, indexed once
        brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j, k), c in self._sc.items():
            if not c:
                continue
            brackets.setdefault((i, j), {})[k] = c
            brackets.setdefault((j, i), {})[k] = -c
        self._brackets = {ij: MappingProxyType(coeffs) for ij, coeffs in brackets.items()}
        self._dforms: dict[int, "Form"] = {}

    @classmethod
    def chart(cls, names: Sequence[str]) -> "Space":
        return cls(cls.CHART, names)

    @classmethod
    def lie_frame(
        cls,
        names: Sequence[str],
        structure_constants: Mapping[tuple[int, int, int], Fraction] | None = None,
        differentials: Mapping[int, Iterable[tuple[int, int, Fraction]]] | None = None,
    ) -> "Space":
        if (structure_constants is None) == (differentials is None):
            raise ValueError("give exactly one of structure_constants or differentials")
        n = len(names)
        sc: dict[tuple[int, int, int], Fraction] = {}
        if structure_constants is not None:
            for (i, j, k), c in structure_constants.items():
                cls._check_frame_index(n, i, j, k)
                c = _as_fraction(c)
                if c:
                    sc[(i, j, k)] = c
        else:
            for k, pairs in differentials.items():
                for i, j, coeff in pairs:
                    cls._check_frame_index(n, i, j, k)
                    c = _as_fraction(coeff)
                    if c:
                        sc[(i, j, k)] = sc.get((i, j, k), Fraction(0)) - c
        space = cls(cls.LIE, names, sc)
        space._validate_jacobi()
        return space

    @staticmethod
    def _check_frame_index(n: int, i: int, j: int, k: int) -> None:
        if not (0 <= i < j < n):
            raise ValueError(f"frame indices must satisfy 0 <= i < j < {n}, got ({i}, {j})")
        if not 0 <= k < n:
            raise ValueError(f"frame index {k} out of range")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def is_chart(self) -> bool:
        return self.kind == self.CHART

    @property
    def is_lie(self) -> bool:
        return self.kind == self.LIE

    # scalar constructors -----------------------------------------------------

    def scalar(self, value) -> RatFun:
        if isinstance(value, RatFun):
            if value.nvars != self.dim:
                raise ValueError("scalar over wrong variable set")
            return value
        if isinstance(value, Poly):
            return RatFun(value)
        return RatFun.const(self.dim, value)

    def zero(self) -> RatFun:
        return RatFun.zero(self.dim)

    def one(self) -> RatFun:
        return RatFun.one(self.dim)

    def coordinate(self, index: int) -> RatFun:
        if not self.is_chart:
            raise ValueError("coordinate functions only exist on charts")
        return RatFun.variable(self.dim, index)

    def name_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown coordinate/covector name {name!r}") from None

    # Lie structure ------------------------------------------------------------

    def bracket_coeffs(self, i: int, j: int) -> Mapping[int, Fraction]:
        """Coefficients of [X_i, X_j] in the frame (antisymmetric in i, j),
        read-only."""
        return self._brackets.get((i, j), _NO_BRACKET)

    def nonzero_brackets(self) -> Iterable[tuple[tuple[int, int], Mapping[int, Fraction]]]:
        """Each ordered pair (i, j) with [X_i, X_j] ≠ 0 and its coefficients."""
        return self._brackets.items()

    def covector_differential(self, k: int) -> "Form":
        """d of the k-th frame covector: -sum_{i<j} c^k_{ij} w_i ∧ w_j (the
        zero 2-form on a chart)."""
        if k not in self._dforms:
            coeffs = {
                (i, j): self.scalar(-c)
                for (i, j, kk), c in self._sc.items()
                if kk == k
            }
            self._dforms[k] = Form(self, 2, coeffs)
        return self._dforms[k]

    def _validate_jacobi(self) -> None:
        for k in range(self.dim):
            dd = self.covector_differential(k).d()
            if not dd.is_zero():
                raise ValueError(
                    f"structure constants violate the Jacobi identity: "
                    f"d(d {self.names[k]}) = {dd} is nonzero"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        return self.kind == other.kind and self.names == other.names and self._sc == other._sc

    def __hash__(self) -> int:
        return hash((self.kind, self.names, frozenset(self._sc.items())))

    def __repr__(self) -> str:
        return f"Space({self.kind}, {self.names})"


def _check_same_space(a, b) -> None:
    if a.space != b.space:
        raise ValueError("objects live on different spaces")


def _pole(den: Poly, names: Sequence[str], point: Sequence) -> ZeroDivisionError:
    """The error of the denominator ``den`` vanishing at ``point``, naming it
    in the coordinates ``names``."""
    return ZeroDivisionError(
        f"denominator {format_poly(den, names)} vanishes at {format_point(point)}"
    )


class Form:
    """Exterior form of fixed degree with RatFun coefficients on strictly
    increasing index tuples.  Degrees above the space dimension are allowed
    only for the zero form (a wedge product can overflow the dimension)."""

    __slots__ = ("space", "degree", "coeffs")

    def __init__(self, space: Space, degree: int, coeffs: Mapping[Index, object] | None = None):
        self.space = space
        self.degree = int(degree)
        if self.degree < 0:
            raise ValueError("negative form degree")
        clean: dict[Index, RatFun] = {}
        if coeffs:
            for idx, value in coeffs.items():
                key = tuple(int(i) for i in idx)
                if len(key) != self.degree:
                    raise ValueError(f"index tuple {key} has wrong length for degree {self.degree}")
                if any(not 0 <= i < space.dim for i in key):
                    raise ValueError(f"index out of range in {key}")
                if any(key[t] >= key[t + 1] for t in range(len(key) - 1)):
                    raise ValueError(f"indices must be strictly increasing, got {key}")
                c = space.scalar(value)
                if space.is_lie and not c.is_constant():
                    raise ValueError(
                        "Lie-frame forms must have constant coefficients, got "
                        f"{c} on {key}"
                    )
                if not c.is_zero():
                    clean[key] = c
        if self.degree > space.dim and clean:
            raise ValueError(f"nonzero form of degree {self.degree} on dim {space.dim}")
        self.coeffs = clean

    @classmethod
    def covector(cls, space: Space, index: int) -> "Form":
        return cls(space, 1, {(index,): 1})

    @classmethod
    def function(cls, space: Space, value) -> "Form":
        return cls(space, 0, {(): value})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, idx: Index) -> RatFun:
        return self.coeffs.get(tuple(idx), self.space.zero())

    def __add__(self, other: "Form") -> "Form":
        _check_same_space(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        coeffs = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            _add_into(coeffs, idx, c, self.space.zero())
        return Form(self.space, self.degree, coeffs)

    def __neg__(self) -> "Form":
        return Form(self.space, self.degree, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, factor) -> "Form":
        f = self.space.scalar(factor)
        return Form(self.space, self.degree, {i: c * f for i, c in self.coeffs.items()})

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        _check_same_space(self, other)
        degree = self.degree + other.degree
        coeffs = {}
        if degree <= self.space.dim:
            coeffs = _wedge_coeffs(self.coeffs, other.coeffs, self.space.zero())
        return Form(self.space, degree, coeffs)

    def wedge_power(self, power: int) -> "Form":
        return _wedge_power(self, Form.function(self.space, 1), power)

    def d(self) -> "Form":
        """Exterior derivative, d(c w_I) = dc ∧ w_I + c d(w_I) with
        dc = sum_a (e_a c) w_a and d(w_I) = sum_t (-1)^t d(w_{i_t}) ∧ w_{I - i_t}."""
        space = self.space
        zero = space.zero()
        coeffs: dict[Index, RatFun] = {}
        for idx, c in self.coeffs.items():
            if not c.is_constant():
                for a in range(space.dim):
                    sign, key = _merge_indices((a,), idx)
                    if sign and not (dc := c.diff(a)).is_zero():
                        _add_into(coeffs, key, dc if sign > 0 else -dc, zero)
            for t, k in enumerate(idx):
                rest = {idx[:t] + idx[t + 1 :]: c if t % 2 == 0 else -c}
                dw = space.covector_differential(k).coeffs
                for key, term in _wedge_coeffs(dw, rest, zero).items():
                    _add_into(coeffs, key, term, zero)
        return Form(space, self.degree + 1, coeffs)

    def contract(self, field: "VectorField") -> "Form":
        """Interior product i_X; drops the degree by one."""
        _check_same_space(self, field)
        if self.degree == 0:
            raise ValueError("interior product of a degree-0 form")
        coeffs: dict[Index, RatFun] = {}
        for idx, c in self.coeffs.items():
            for t, i in enumerate(idx):
                comp = field.components[i]
                if comp.is_zero():
                    continue
                term = c * comp if t % 2 == 0 else -(c * comp)
                _add_into(coeffs, idx[:t] + idx[t + 1 :], term, self.space.zero())
        return Form(self.space, self.degree - 1, coeffs)

    def __call__(self, *fields: "VectorField") -> RatFun:
        """ω(v_1, ..., v_p) = i_{v_p} ... i_{v_1} ω."""
        if len(fields) != self.degree:
            raise ValueError(f"degree-{self.degree} form applied to {len(fields)} fields")
        form = self
        for f in fields:
            form = form.contract(f)
        return form.coefficient(())

    def eval_at(self, point: Sequence) -> dict[Index, Fraction]:
        out = {}
        for idx, c in self.coeffs.items():
            try:
                out[idx] = c.eval(point)
            except ZeroDivisionError:
                error = _pole(c.den, self.space.names, point)
                raise ZeroDivisionError(f"coefficient {idx}: {error}") from None
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.space == other.space
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.space, self.degree, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"Form<deg {self.degree}>(0)"
        names = self.space.names
        parts = []
        for idx in sorted(self.coeffs):
            basis = "^".join(f"d{names[i]}" if self.space.is_chart else names[i] for i in idx)
            parts.append(f"({self.coeffs[idx].format(names)}) {basis}".strip())
        return f"Form<deg {self.degree}>(" + " + ".join(parts) + ")"


class VectorField:
    """Tangent field with one RatFun component per coordinate/frame direction."""

    __slots__ = ("space", "components")

    def __init__(self, space: Space, components: Sequence):
        self.space = space
        comps = tuple(space.scalar(c) for c in components)
        if len(comps) != space.dim:
            raise ValueError(f"expected {space.dim} components, got {len(comps)}")
        if space.is_lie and any(not c.is_constant() for c in comps):
            raise ValueError("Lie-frame vector fields must have constant components")
        self.components = comps

    @classmethod
    def _of(cls, space: Space, components: tuple[RatFun, ...]) -> "VectorField":
        """A field over ``components`` as given, unchecked: ``space.dim``
        canonical ``RatFun``s over ``space.dim`` variables, constant on a Lie
        frame."""
        out = object.__new__(cls)
        out.space = space
        out.components = components
        return out

    @classmethod
    def basis(cls, space: Space, index: int) -> "VectorField":
        one, zero = space.one(), space.zero()
        return cls(space, [one if i == index else zero for i in range(space.dim)])

    @classmethod
    def zero_field(cls, space: Space) -> "VectorField":
        return cls(space, [space.zero()] * space.dim)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        _check_same_space(self, other)
        return VectorField(
            self.space, [a + b for a, b in zip(self.components, other.components)]
        )

    def __neg__(self) -> "VectorField":
        return VectorField(self.space, [-c for c in self.components])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __mul__(self, factor) -> "VectorField":
        f = self.space.scalar(factor)
        return VectorField(self.space, [c * f for c in self.components])

    __rmul__ = __mul__

    def eval_at(self, point: Sequence) -> list[Fraction]:
        out = []
        for i, c in enumerate(self.components):
            try:
                out.append(c.eval(point))
            except ZeroDivisionError:
                error = _pole(c.den, self.space.names, point)
                raise ZeroDivisionError(f"component {self.space.names[i]}: {error}") from None
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.space == other.space and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.space, self.components))

    def __repr__(self) -> str:
        names = self.space.names
        parts = [
            f"({c.format(names)}) ∂{names[i]}" if self.space.is_chart else f"({c.format(names)}) {names[i]}*"
            for i, c in enumerate(self.components)
            if not c.is_zero()
        ]
        return "VectorField(" + (" + ".join(parts) if parts else "0") + ")"


class EndoField:
    """(1,1)-tensor field: column a of ``matrix`` is the image of basis field a."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: Space, matrix):
        self.space = space
        if not isinstance(matrix, RfMatrix):
            matrix = RfMatrix(space.dim, matrix)
        if matrix.rows != space.dim or matrix.cols != space.dim:
            raise ValueError("endomorphism matrix must be n x n")
        if space.is_lie and any(
            not e.is_constant() for row in matrix.entries for e in row
        ):
            raise ValueError("Lie-frame endomorphisms must have constant entries")
        self.matrix = matrix

    @classmethod
    def zero_field(cls, space: Space) -> "EndoField":
        return cls(space, RfMatrix.zeros(space.dim, space.dim, space.dim))

    def apply(self, field: VectorField) -> VectorField:
        _check_same_space(self, field)
        return VectorField(self.space, self.matrix.apply(field.components))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def eval_at(self, point: Sequence) -> list[list[Fraction]]:
        return _matrix_at(self, point, "endomorphism entry")

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndoField):
            return NotImplemented
        return self.space == other.space and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"EndoField({self.space!r})"


def _matrix_at(tensor, point: Sequence, what: str) -> list[list[Fraction]]:
    """The values of the matrix of ``tensor`` (an :class:`EndoField` or a
    :class:`MetricField`) at ``point``.  A pole raises
    :class:`ZeroDivisionError` naming the first vanishing denominator in row
    order, in the coordinates of the space."""
    try:
        return tensor.matrix.eval_at(point)
    except ZeroDivisionError:
        den = next(e.den for row in tensor.matrix.entries for e in row if e.den.eval(point) == 0)
        raise ZeroDivisionError(f"{what}: {_pole(den, tensor.space.names, point)}") from None


class MetricField:
    """Symmetric (0,2)-tensor field; positive definiteness is checked pointwise
    where a consumer declares sample points."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: Space, matrix):
        self.space = space
        if not isinstance(matrix, RfMatrix):
            matrix = RfMatrix(space.dim, matrix)
        if matrix.rows != space.dim or matrix.cols != space.dim:
            raise ValueError("metric matrix must be n x n")
        if not matrix.is_symmetric():
            raise ValueError("metric matrix must be symmetric")
        if space.is_lie and any(
            not e.is_constant() for row in matrix.entries for e in row
        ):
            raise ValueError("Lie-frame metrics must have constant entries")
        self.matrix = matrix

    @classmethod
    def euclidean(cls, space: Space) -> "MetricField":
        return cls(space, RfMatrix.identity(space.dim, space.dim))

    def value(self, a: VectorField, b: VectorField) -> RatFun:
        _check_same_space(self, a)
        _check_same_space(self, b)
        return _dot(self.space.dim, zip(a.components, self.matrix.apply(b.components)))

    def eval_at(self, point: Sequence) -> list[list[Fraction]]:
        return _matrix_at(self, point, "metric entry")

    def is_positive_definite_at(self, point: Sequence) -> bool:
        """Sylvester's criterion with exact rational arithmetic.  A row with a
        zero entry below the pivot needs no update, and the update of a row
        skips the zero entries of the pivot row."""
        mat = [row[:] for row in self.eval_at(point)]
        n = self.space.dim
        # positive definite iff every pivot of symmetric elimination is > 0
        for k in range(n):
            pivot_row = mat[k]
            if pivot_row[k] <= 0:
                return False
            nonzero = [(j, x) for j in range(k + 1, n) if (x := pivot_row[j])]
            for i in range(k + 1, n):
                row = mat[i]
                if not row[k]:
                    continue
                factor = row[k] / pivot_row[k]
                for j, x in nonzero:
                    row[j] -= factor * x
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricField):
            return NotImplemented
        return self.space == other.space and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"MetricField({self.space!r})"


TensorLike = Union[Form, VectorField, EndoField, MetricField]


# --- the exported operations -------------------------------------------------


def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


def ext_d(a: Form) -> Form:
    return a.d()


def interior(field: VectorField, a: Form) -> Form:
    return a.contract(field)


def _bracket_matrix(field: VectorField) -> RfMatrix:
    """B_X, whose column b is [X, e_b]: B[k][b] = -e_b X^k + sum_i X^i c^k_{ib},
    summed from the derivatives of the non-constant components of X and the
    nonzero structure constants; every other entry is the shared zero."""
    space, n = field.space, field.space.dim
    minus_one = space.scalar(-1)
    terms: dict[tuple[int, int], list[tuple[RatFun, RatFun]]] = {}
    for k, xk in enumerate(field.components):
        if not xk.is_constant():
            for b in range(n):
                if not (dxk := xk.diff(b)).is_zero():
                    terms.setdefault((k, b), []).append((dxk, minus_one))
    for (i, b), coeffs in space.nonzero_brackets():  # _dot drops a zero X^i
        for k, c in coeffs.items():
            terms.setdefault((k, b), []).append((field.components[i], space.scalar(c)))
    rows = [[space.zero()] * n for _ in range(n)]
    for (k, b), pairs in terms.items():
        rows[k][b] = _dot(n, pairs)
    return RfMatrix._of(n, tuple(map(tuple, rows)), n)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket, [X, Y] = X(Y) + B_X·Y over the bracket matrix B_X, which is
    [X,Y]^k = X(Y^k) - Y(X^k) + sum_{i,j} X^i Y^j c^k_{ij}."""
    _check_same_space(x, y)
    applied = _bracket_matrix(x).apply(y.components)
    return VectorField(x.space, [
        bk if yk.is_constant() else bk + directional_derivative(x, yk)
        for bk, yk in zip(applied, y.components)
    ])


def directional_derivative(field: VectorField, f: RatFun) -> RatFun:
    """X·f = sum_a X^a e_a f; zero for a constant f, the only kind of scalar
    on a Lie frame."""
    space = field.space
    if f.is_constant():
        return space.zero()
    if space.is_lie:
        raise ValueError("non-constant scalar on a Lie frame")
    return _dot(space.dim, (
        (comp, f.diff(a)) for a, comp in enumerate(field.components) if not comp.is_zero()
    ))


def lie_derivative(field: VectorField, tensor: TensorLike) -> TensorLike:
    """Lie derivative along ``field``: Cartan's formula for forms and the
    bracket for vector fields.  For a (1,1)-tensor Φ and a metric G it is one
    matrix formula over the bracket matrix B, whose column b is [X, e_b]:

        L_X Φ = X(Φ) + BΦ - ΦB,    L_X G = X(G) - BᵀG - GB,

    with X(·) applied to the non-constant entries; B is formed once."""
    space = field.space
    if isinstance(tensor, Form):
        _check_same_space(field, tensor)
        if tensor.degree == 0:
            value = directional_derivative(field, tensor.coefficient(()))
            return Form(space, 0, {(): value})
        return tensor.d().contract(field) + tensor.contract(field).d()
    if isinstance(tensor, VectorField):
        return bracket(field, tensor)
    if isinstance(tensor, (EndoField, MetricField)):
        _check_same_space(field, tensor)
        b_matrix = _bracket_matrix(field)
        left = b_matrix if isinstance(tensor, EndoField) else -b_matrix.transpose()
        m = tensor.matrix
        derivative = RfMatrix._of(space.dim, tuple(
            tuple(directional_derivative(field, e) for e in row) for row in m.entries
        ), space.dim)
        return type(tensor)(space, derivative + left @ m - m @ b_matrix)
    raise TypeError(f"cannot take a Lie derivative of {type(tensor).__name__}")


def eval_at(tensor: TensorLike, point: Sequence):
    """Exact rational evaluation of every coefficient at a point."""
    if isinstance(tensor, (Form, VectorField, EndoField, MetricField)):
        if len(point) != tensor.space.dim:
            raise ValueError(f"point has length {len(point)}, expected {tensor.space.dim}")
        return tensor.eval_at(point)
    raise TypeError(f"cannot evaluate {type(tensor).__name__}")


class FrameForm:
    """Alternating tensor indexed by the vectors of a frame (not by the
    ambient basis); coefficients stay in the ambient scalar ring.  Its wedge
    expansion of forms restricted to a subbundle frame is the reference
    against which the tests check the Pfaffians of
    :func:`contactpairs.pair.pair_axioms` on the restricted tables of a leaf."""

    __slots__ = ("size", "degree", "coeffs", "nvars")

    def __init__(self, size: int, degree: int, coeffs: Mapping[Index, RatFun], nvars: int):
        self.size = size
        self.degree = degree
        self.nvars = nvars
        clean = {}
        for idx, c in coeffs.items():
            key = tuple(idx)
            if len(key) != degree or any(not 0 <= i < size for i in key):
                raise ValueError(f"bad frame index {key}")
            if any(key[t] >= key[t + 1] for t in range(len(key) - 1)):
                raise ValueError(f"frame indices must increase, got {key}")
            if not c.is_zero():
                clean[key] = c
        if degree > size and clean:
            raise ValueError("nonzero frame form above top degree")
        self.coeffs = clean

    @classmethod
    def one_form(cls, values: Sequence[RatFun]) -> "FrameForm":
        nvars = values[0].nvars if values else 0
        return cls(len(values), 1, {(i,): v for i, v in enumerate(values)}, nvars)

    @classmethod
    def two_form(cls, pairing: Sequence[Sequence[RatFun]]) -> "FrameForm":
        """From the full antisymmetric value table pairing[p][q]."""
        m = len(pairing)
        nvars = pairing[0][0].nvars if m else 0
        coeffs = {
            (p, q): pairing[p][q] for p in range(m) for q in range(p + 1, m)
        }
        return cls(m, 2, coeffs, nvars)

    @classmethod
    def unit(cls, size: int, nvars: int) -> "FrameForm":
        return cls(size, 0, {(): RatFun.one(nvars)}, nvars)

    def is_zero(self) -> bool:
        return not self.coeffs

    def wedge(self, other: "FrameForm") -> "FrameForm":
        if self.size != other.size:
            raise ValueError("frame size mismatch")
        degree = self.degree + other.degree
        coeffs = {}
        if degree <= self.size:
            coeffs = _wedge_coeffs(self.coeffs, other.coeffs, RatFun.zero(self.nvars))
        return FrameForm(self.size, degree, coeffs, self.nvars)

    def wedge_power(self, power: int) -> "FrameForm":
        return _wedge_power(self, FrameForm.unit(self.size, self.nvars), power)

    def top_coefficient(self) -> RatFun:
        if self.degree != self.size:
            raise ValueError("not a top-degree frame form")
        return self.coeffs.get(tuple(range(self.size)), RatFun.zero(self.nvars))
