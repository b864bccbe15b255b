"""Exact scalar arithmetic and exact linear algebra.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), sparse
multivariate polynomials over them, and canonical rational functions.  The
linear solvers work over the rational-function field and never touch floats,
so "equals zero" always means identically zero.

The monomial order is graded lexicographic (grlex) everywhere; rational
functions are kept in canonical form (numerator and denominator coprime,
denominator monic under grlex).  All values are immutable after construction
and all operations are pure, so everything here is safe to share between
threads.

Trusted construction.  The public ``Poly(nvars, terms)`` validates its input:
exponent tuples of the right length with no negative entry, coefficients
coerced to ``Fraction``, zeros dropped.  Results the module builds itself
are valid by construction and go through the private ``Poly._of`` instead,
which stores the dict it is given: ``Poly.const``, ``Poly.zero``, the
arithmetic, ``diff``, scaling, the univariate views of the gcd and the
quotient of ``divexact``.  Since nothing mutates ``Poly.terms`` after
construction, one constant-1 polynomial per variable count is shared as the
denominator of every polynomial ``RatFun``, one zero ``RatFun`` per count is
shared too, and ``RatFun(num)`` with no denominator stores ``num`` as it is,
with no copy and no gcd.  ``RfMatrix`` does the same: its public constructor
coerces and checks every entry, and the results of its arithmetic go
through ``RfMatrix._of``.

One canonicalisation per sum.  A sum of products Σ x·y (a matrix product,
a contraction, a Christoffel symbol, a row update of the elimination) goes
through ``_dot``: each product is an uncanonicalised numerator/denominator
pair, the numerators are added as polynomials grouped by denominator, and
one ``RatFun(num, den)`` is built at the end.  So a sum costs at most one
gcd, and a sum that is identically zero has a zero numerator and costs
none, which makes an identity check a gcd-free zero test.  Every result is
the same as the left fold of ``+`` and ``*`` would give, because the
canonical form of a rational function is unique.  Most entries are
polynomials, so a product whose two denominators are both the shared
constant 1 (an identity test) takes a fast path: its terms go into one term
dict with no denominator product, no ``Poly`` hash and no canonicalisation,
and a sum of such products alone is returned as a polynomial ``RatFun``.
That dict sits in the same group dict as the others, under a sentinel key,
so the groups and their terms are inserted in the order they always were;
the float compile of ``connection`` reads terms in dict order, and the RK4
residuals it prints to 17 digits depend on that order.  Point evaluation
has the same fast path: ``RfMatrix.eval_at`` reads the point as
``Fraction``s once, a zero entry as one shared 0 and a constant entry as its
coefficient, and evaluates only the rest.  Matrix kernels touch only
structural nonzeros: an entry of a product is one ``_dot`` over the indices
where both factors are nonzero, or the shared zero when there is none, a
sum keeps the other entry wherever one is zero, and the elimination keeps
each row as a dict of its nonzeros.

Two elimination kernels: ``_rref`` gives the rank (its pivot count), solves
(several right-hand sides in one pass), kernels and inverses over the
function field, on sparse rows whose pivot search reads each entry's weight,
computed once when the entry is made; ``pfaffian_minor`` eliminates skew
matrices fraction-free on 2×2 pivot blocks and gives a nonzero principal
Pfaffian minor of a requested order, or the proof that the rank is too small
for one, and ``RfMatrix.det`` is the Pfaffian of [[0, A], [−Aᵀ, 0]].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Rational = Fraction

_ZERO = Fraction(0)  # shared: a Fraction is immutable

Exponents = tuple[int, ...]

__all__ = [
    "Rational",
    "Poly",
    "RatFun",
    "RfMatrix",
    "LinearSolution",
    "solve_linear_exact",
    "kernel_basis",
    "generic_rank",
    "pfaffian_minor",
    "poly_gcd",
    "ExactDivisionError",
    "InconsistentSystemError",
    "SingularMatrixError",
    "format_point",
]


class ExactDivisionError(ArithmeticError):
    """A polynomial division that was expected to be exact left a remainder."""


class InconsistentSystemError(ValueError):
    """A·x = b has no solution over the rational-function field.

    ``column`` is the index of the right-hand side b among those solved
    together, and ``nullity`` the dimension of the kernel of A."""

    def __init__(self, message: str, column: int = 0, nullity: int = 0):
        super().__init__(message)
        self.column = column
        self.nullity = nullity


class SingularMatrixError(ArithmeticError):
    """Exact inverse requested for a matrix with identically-zero determinant."""


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


def _read_point(point: Sequence, nvars: int) -> list[Fraction]:
    """``point`` as ``Fraction``s, checked to have one coordinate per variable."""
    if len(point) != nvars:
        raise ValueError(f"point has length {len(point)}, expected {nvars}")
    return [_as_fraction(x) for x in point]


def format_point(point: Sequence) -> str:
    """A point as messages print it: ``(1/2, 0, -3)``, floats by ``str``."""
    return "(" + ", ".join(str(x) for x in point) + ")"


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps an exponent tuple (one entry per variable) to a nonzero
    coefficient; the zero polynomial stores no terms.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        self.nvars = int(nvars)
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                key = tuple(int(e) for e in exps)
                if len(key) != self.nvars:
                    raise ValueError(
                        f"exponent tuple {key} has length {len(key)}, expected {self.nvars}"
                    )
                if any(e < 0 for e in key):
                    raise ValueError(f"negative exponent in {key}")
                c = _as_fraction(coeff)
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def _of(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "Poly":
        """A polynomial over ``terms`` as given, unchecked: every key is an
        exponent tuple of length ``nvars`` with no negative entry, every
        value a nonzero ``Fraction``, and the dict is never mutated again."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._of(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        c = _as_fraction(value)
        return cls._of(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms[(0,) * self.nvars]

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[Exponents, Fraction]:
        """Leading (exponents, coefficient) under grlex; undefined for zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def _scaled(self, factor: Fraction) -> "Poly":
        if not factor:
            return Poly._of(self.nvars, {})
        if factor == 1:
            return self
        return Poly._of(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomials live over different variable sets")
            return other
        return Poly.const(self.nvars, other)

    @staticmethod
    def _compatible(other) -> bool:
        return isinstance(other, (Poly, int, Fraction))

    def __add__(self, other) -> "Poly":
        if not self._compatible(other):
            return NotImplemented
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, _ZERO) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly._of(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if not self._compatible(other):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        if not self._compatible(other):
            return NotImplemented
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if not self._compatible(other):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return self._scaled(_as_fraction(other))
        other = self._coerce(other)
        if other.is_constant():
            return self._scaled(other.constant_value())
        if self.is_constant():
            return other._scaled(self.constant_value())
        terms: dict[Exponents, Fraction] = {}
        _add_product(terms, self.terms, other.terms)
        return Poly._of(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if power < 0:
            raise ValueError("negative powers require RatFun")
        result = Poly.const(self.nvars, 1)
        base = self
        k = power
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def diff(self, var: int) -> "Poly":
        # e -> e - unit(var) is injective, so no two terms meet
        terms = {
            e[:var] + (e[var] - 1,) + e[var + 1:]: c * e[var]
            for e, c in self.terms.items()
            if e[var]
        }
        return Poly._of(self.nvars, terms)

    def eval(self, point: Sequence) -> Fraction:
        if len(self.terms) < 2 and not any(next(iter(self.terms), ())):
            if len(point) != self.nvars:
                raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
            return next(iter(self.terms.values()), _ZERO)  # a constant reads no point
        return self._value(_read_point(point, self.nvars))

    def _value(self, pt: Sequence[Fraction]) -> Fraction:
        """The value at ``pt``, a point already read as ``Fraction``s."""
        total = _ZERO
        for e, c in self.terms.items():
            for x, k in zip(pt, e):
                if k:
                    c *= x**k
            total += c
        return total

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.terms!r})"

    def __str__(self) -> str:
        return format_poly(self, tuple(f"x{i+1}" for i in range(self.nvars)))


def _add_product(
    acc: dict[Exponents, Fraction],
    a: Mapping[Exponents, Fraction],
    b: Mapping[Exponents, Fraction],
) -> None:
    """``acc += a·b`` on term dicts, dropping the coefficients that cancel."""
    add = operator.add
    const_a = len(a) == 1 and not any(next(iter(a)))
    const_b = len(b) == 1 and not any(next(iter(b)))
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = ea if const_b else eb if const_a else tuple(map(add, ea, eb))
            old = acc.get(key)
            if old is None:
                acc[key] = ca * cb
            else:
                s = old + ca * cb
                if s:
                    acc[key] = s
                else:
                    del acc[key]


def format_poly(p: Poly, names: Sequence[str]) -> str:
    """Render a polynomial so that it re-parses under the fixture grammar."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exps in sorted(p.terms, key=_grlex_key, reverse=True):
        coeff = p.terms[exps]
        factors = [
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(names, exps)
            if k
        ]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# polynomial gcd (primitive PRS over the integers, one variable at a time)
# ---------------------------------------------------------------------------


def _integer_content(p: Poly) -> int:
    g = 0
    for c in p.terms.values():
        g = math.gcd(g, abs(c.numerator))
    return g


def _den_cleared(p: Poly) -> Poly:
    """Scale by the lcm of coefficient denominators; result has integer coefficients."""
    lcm = 1
    for c in p.terms.values():
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return p._scaled(Fraction(lcm)) if lcm != 1 else p


def _positive_lc(p: Poly) -> Poly:
    if p.is_zero():
        return p
    return p if p.leading()[1] > 0 else -p


def _main_var(a: Poly, b: Poly) -> int | None:
    for var in range(a.nvars - 1, -1, -1):
        for poly in (a, b):
            if any(e[var] for e in poly.terms):
                return var
    return None


def _degree_in(p: Poly, var: int) -> int:
    if p.is_zero():
        return -1
    return max(e[var] for e in p.terms)


def _coeffs_in(p: Poly, var: int) -> dict[int, Poly]:
    """View p as univariate in ``var``: degree -> coefficient polynomial."""
    out: dict[int, dict[Exponents, Fraction]] = {}
    for e, c in p.terms.items():
        d = e[var]
        out.setdefault(d, {})[e[:var] + (0,) + e[var + 1:]] = c
    return {d: Poly._of(p.nvars, terms) for d, terms in out.items()}


def _lead_in(p: Poly, var: int) -> Poly:
    d = _degree_in(p, var)
    terms = {e[:var] + (0,) + e[var + 1:]: c for e, c in p.terms.items() if e[var] == d}
    return Poly._of(p.nvars, terms)


def _shift_in(p: Poly, var: int, k: int) -> Poly:
    """Multiply by var**k."""
    if k == 0 or p.is_zero():
        return p
    return Poly._of(
        p.nvars, {e[:var] + (e[var] + k,) + e[var + 1:]: c for e, c in p.terms.items()}
    )


def _pseudo_rem(f: Poly, s: Poly, var: int) -> Poly:
    """Pseudo-remainder of f by s in ``var`` (scale factors are irrelevant
    because callers immediately strip content)."""
    ds = _degree_in(s, var)
    lcs = _lead_in(s, var)
    r = f
    while not r.is_zero() and _degree_in(r, var) >= ds:
        dr = _degree_in(r, var)
        lcr = _lead_in(r, var)
        r = lcs * r - _shift_in(lcr * s, var, dr - ds)
    return r


def _content_split(p: Poly, var: int) -> tuple[Poly, Poly]:
    """(content, primitive part) of a nonzero p viewed as univariate in
    ``var``, both sign-normalized."""
    coeffs = iter(_coeffs_in(p, var).values())
    content = next(coeffs)
    for c in coeffs:
        if content.is_constant() and content.constant_value() == 1:
            break
        content = _gcd_int(content, c)
    if content.is_constant() and content.constant_value() == 1:
        return content, _positive_lc(p)
    return _positive_lc(content), _positive_lc(divexact(p, content))


def _gcd_int(a: Poly, b: Poly) -> Poly:
    """Gcd of integer-coefficient polynomials (content included, sign-normalized)."""
    if a.is_zero():
        return _positive_lc(b)
    if b.is_zero():
        return _positive_lc(a)
    if a.is_constant():
        return Poly.const(a.nvars, math.gcd(abs(a.constant_value().numerator), _integer_content(b)))
    if b.is_constant():
        return Poly.const(a.nvars, math.gcd(abs(b.constant_value().numerator), _integer_content(a)))
    var = _main_var(a, b)
    if var is None:  # unreachable: non-constant polys mention some variable
        raise AssertionError("no main variable for non-constant polynomials")
    cont_a, f = _content_split(a, var)
    cont_b, s = _content_split(b, var)
    cont = _gcd_int(cont_a, cont_b)
    if _degree_in(f, var) < _degree_in(s, var):
        f, s = s, f
    while not s.is_zero() and _degree_in(s, var) > 0:
        r = _pseudo_rem(f, s, var)
        f, s = s, (_content_split(r, var)[1] if not r.is_zero() else r)
    if s.is_zero():
        g_pp = f
    else:
        g_pp = Poly.const(a.nvars, 1)
    return _positive_lc(cont * g_pp)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Polynomial gcd, sign-normalized.

    For integer-coefficient inputs this is the full gcd over the integers
    (numeric content included); rational coefficients are cleared first, so
    over the rationals the result is a gcd up to a unit, which is all the
    canonical form of :class:`RatFun` needs.
    """
    if a.nvars != b.nvars:
        raise ValueError("polynomials live over different variable sets")
    if a.is_zero():
        return _positive_lc(_den_cleared(b))
    if b.is_zero():
        return _positive_lc(_den_cleared(a))
    return _gcd_int(_den_cleared(a), _den_cleared(b))


def divexact(a: Poly, b: Poly) -> Poly:
    """Exact polynomial division; raises :class:`ExactDivisionError` otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if b.is_constant():
        return a._scaled(1 / b.constant_value())
    quotient: dict[Exponents, Fraction] = {}
    r = a
    b_exps, b_coeff = b.leading()
    while not r.is_zero():
        r_exps, r_coeff = r.leading()
        q_exps = tuple(map(operator.sub, r_exps, b_exps))
        if any(e < 0 for e in q_exps):
            raise ExactDivisionError(f"{b} does not divide {a}")
        # the leading monomials of r fall strictly, so each quotient term is new
        q = quotient[q_exps] = r_coeff / b_coeff
        r = r + Poly._of(
            a.nvars, {tuple(map(operator.add, e, q_exps)): -q * c for e, c in b.terms.items()}
        )
    return Poly._of(a.nvars, quotient)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


# Shared immutable constants, one per variable count: the constant-1
# polynomial (the denominator of every polynomial RatFun) and the zero RatFun.
_ONES: dict[int, Poly] = {}
_ZEROS: dict[int, "RatFun"] = {}


def _one(nvars: int) -> Poly:
    """The constant 1 over ``nvars`` variables, one shared value per count."""
    one = _ONES.get(nvars)
    if one is None:
        one = _ONES.setdefault(nvars, Poly._of(nvars, {(0,) * nvars: Fraction(1)}))
    return one


class RatFun:
    """Rational function in canonical form.

    Canonical means: gcd(num, den) is constant, the denominator is monic under
    grlex, and the zero function is stored as 0/1.  Equality is therefore
    structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:  # a polynomial is canonical over 1
            self.num = num
            self.den = _one(num.nvars)
            return
        if num.nvars != den.nvars:
            raise ValueError("numerator and denominator over different variable sets")
        if den.is_zero():
            raise ZeroDivisionError("identically-zero denominator")
        if not num.is_zero() and not den.is_constant():
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = divexact(num, g)
                den = divexact(den, g)
        if num.is_zero():
            den = _one(num.nvars)
        elif den.is_constant():
            num = num._scaled(1 / den.constant_value())
            den = _one(num.nvars)
        else:
            lc = den.leading()[1]
            if lc != 1:
                num = num._scaled(1 / lc)
                den = den._scaled(1 / lc)
        self.num = num
        self.den = den

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @classmethod
    def const(cls, nvars: int, value) -> "RatFun":
        return cls(Poly.const(nvars, value))

    @classmethod
    def zero(cls, nvars: int) -> "RatFun":
        zero = _ZEROS.get(nvars)
        if zero is None:
            zero = _ZEROS.setdefault(nvars, cls(Poly.zero(nvars)))
        return zero

    @classmethod
    def one(cls, nvars: int) -> "RatFun":
        return cls(_one(nvars))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "RatFun":
        return cls(Poly.variable(nvars, index))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def degree_size(self) -> int:
        """Pivot-selection weight: combined numerator/denominator degree."""
        return max(self.num.total_degree(), 0) + max(self.den.total_degree(), 0)

    def _coerce(self, other) -> "RatFun":
        if isinstance(other, RatFun):
            if other.nvars != self.nvars:
                raise ValueError("rational functions over different variable sets")
            return other
        if isinstance(other, Poly):
            return RatFun(other)
        return RatFun.const(self.nvars, other)

    @staticmethod
    def _compatible(other) -> bool:
        return isinstance(other, (RatFun, Poly, int, Fraction))

    def __add__(self, other) -> "RatFun":
        if not self._compatible(other):
            return NotImplemented
        other = self._coerce(other)
        if self.den.is_constant() and other.den.is_constant():
            return RatFun(self.num + other.num)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        out = RatFun.__new__(RatFun)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other) -> "RatFun":
        if not self._compatible(other):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFun":
        if not self._compatible(other):
            return NotImplemented
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RatFun":
        if not self._compatible(other):
            return NotImplemented
        other = self._coerce(other)
        if self.den.is_constant() and other.den.is_constant():
            return RatFun(self.num * other.num)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        if not self._compatible(other):
            return NotImplemented
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFun":
        if not self._compatible(other):
            return NotImplemented
        return self._coerce(other) / self

    def __pow__(self, power: int) -> "RatFun":
        if power < 0:
            return RatFun(self.den, self.num) ** (-power)
        return RatFun(self.num**power, self.den**power)

    def inverse(self) -> "RatFun":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFun(self.den, self.num)

    def diff(self, var: int) -> "RatFun":
        if self.den.is_constant():
            return RatFun(self.num.diff(var), self.den)
        return RatFun(
            self.num.diff(var) * self.den - self.num * self.den.diff(var),
            self.den * self.den,
        )

    def eval(self, point: Sequence) -> Fraction:
        if self.den.is_constant():  # canonical: the denominator is 1
            return self.num.eval(point)
        return self._value(_read_point(point, self.nvars), point)

    def _value(self, pt: Sequence[Fraction], point: Sequence) -> Fraction:
        """``eval`` at ``pt``, the ``point`` read as ``Fraction``s."""
        if self.den.is_constant():
            return self.num._value(pt)
        d = self.den._value(pt)
        if d == 0:
            raise ZeroDivisionError(f"denominator {self.den} vanishes at {format_point(point)}")
        return self.num._value(pt) / d

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = self._coerce(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFun({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        return self.format(tuple(f"x{i+1}" for i in range(self.nvars)))

    def format(self, names: Sequence[str]) -> str:
        if self.den.is_constant():
            return format_poly(self.num, names)
        return f"({format_poly(self.num, names)})/({format_poly(self.den, names)})"


_OVER_ONE = object()  # the key of the products over denominator 1 in ``_dot``


def _dot(nvars: int, pairs: Iterable[tuple[RatFun, RatFun]]) -> RatFun:
    """Σ x·y over ``pairs``, canonicalised once.

    Each product is an uncanonicalised numerator/denominator pair; the
    numerators are summed as polynomials, one sum per distinct denominator,
    the sums are brought over the product of their denominators, and one
    ``RatFun`` is built from the result.  A product of two polynomials
    (both denominators the shared ``_one``) goes straight into the group
    keyed ``_OVER_ONE``, with no denominator product and no ``Poly`` hash,
    and a sum of such products alone is a polynomial ``RatFun``.  A sum
    that vanishes identically has a zero numerator and costs no gcd."""
    one = _one(nvars)
    groups: dict[object, dict[Exponents, Fraction]] = {}
    for x, y in pairs:
        a, b = x.num.terms, y.num.terms
        if not (a and b):
            continue
        if x.den is one and y.den is one:
            key = _OVER_ONE
        else:
            key = x.den * y.den
        acc = groups.get(key)
        if acc is None:
            acc = groups[key] = {}
        _add_product(acc, a, b)
    num = den = None
    for d, terms in groups.items():
        if not terms:
            continue
        n = Poly._of(nvars, terms)
        if d is _OVER_ONE:
            d = one
        if num is None:
            num, den = n, d
        else:
            num, den = num * d + n * den, den * d
    if num is None:
        return RatFun.zero(nvars)
    if den is one:
        return RatFun(num)
    return RatFun(num, den)


# ---------------------------------------------------------------------------
# matrices over the rational-function field
# ---------------------------------------------------------------------------


class RfMatrix:
    """Dense matrix with RatFun entries (immutable).

    The public constructor coerces and checks its entries; the results of
    the arithmetic go through the trusted ``RfMatrix._of``.  A product or a
    sum touches only the structural nonzeros: each entry of ``@`` and
    ``apply`` is one ``_dot`` over the indices where both factors are
    nonzero (the shared zero when there is none), and ``+``/``-`` return
    the other operand, or its negation, where one entry is zero, and an
    operand's own zero where both are."""

    __slots__ = ("nvars", "rows", "cols", "entries")

    def __init__(self, nvars: int, entries: Sequence[Sequence]):
        self.nvars = int(nvars)
        coerced: list[tuple[RatFun, ...]] = []
        width = None
        for row in entries:
            r = tuple(self._coerce_entry(x) for x in row)
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise ValueError("ragged matrix rows")
            coerced.append(r)
        self.rows = len(coerced)
        self.cols = width if width is not None else 0
        self.entries = tuple(coerced)

    @classmethod
    def _of(cls, nvars: int, entries: tuple[tuple[RatFun, ...], ...], cols: int) -> "RfMatrix":
        """A matrix over ``entries`` as given, unchecked: rows of ``cols``
        canonical ``RatFun``s over ``nvars`` variables each."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.rows = len(entries)
        out.cols = cols
        out.entries = entries
        return out

    def _coerce_entry(self, x) -> RatFun:
        if isinstance(x, RatFun):
            if x.nvars != self.nvars:
                raise ValueError("entry over wrong variable set")
            return x
        if isinstance(x, Poly):
            return RatFun(x)
        return RatFun.const(self.nvars, x)

    @classmethod
    def identity(cls, n: int, nvars: int) -> "RfMatrix":
        zero, one = RatFun.zero(nvars), RatFun.one(nvars)
        return cls._of(nvars, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ), n)

    @classmethod
    def zeros(cls, rows: int, cols: int, nvars: int) -> "RfMatrix":
        return cls._of(nvars, ((RatFun.zero(nvars),) * cols,) * rows, cols)

    def at(self, i: int, j: int) -> RatFun:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[RatFun, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[RatFun, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> "RfMatrix":
        return RfMatrix._of(
            self.nvars, tuple(self.column(j) for j in range(self.cols)), self.rows
        )

    def _check_shape(self, other: "RfMatrix", what: str) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in matrix {what}")
        if self.nvars != other.nvars:
            raise ValueError("matrices over different variable sets")

    def __matmul__(self, other: "RfMatrix") -> "RfMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.nvars != other.nvars:
            raise ValueError("matrices over different variable sets")
        nvars, zero = self.nvars, RatFun.zero(self.nvars)
        other_rows = [_support(row) for row in other.entries]
        out = []
        for row in self.entries:
            # pairs[j] = the (A_ik, B_kj) with both nonzero, k ascending
            pairs: dict[int, list[tuple[RatFun, RatFun]]] = {}
            for k, x in _support(row):
                for j, y in other_rows[k]:
                    pairs.setdefault(j, []).append((x, y))
            out.append(tuple(
                _dot(nvars, pairs[j]) if j in pairs else zero for j in range(other.cols)
            ))
        return RfMatrix._of(nvars, tuple(out), other.cols)

    def __add__(self, other: "RfMatrix") -> "RfMatrix":
        self._check_shape(other, "addition")
        return RfMatrix._of(self.nvars, tuple(
            tuple(y if x.is_zero() else x if y.is_zero() else x + y for x, y in zip(r, s))
            for r, s in zip(self.entries, other.entries)
        ), self.cols)

    def __sub__(self, other: "RfMatrix") -> "RfMatrix":
        self._check_shape(other, "subtraction")
        return RfMatrix._of(self.nvars, tuple(
            tuple(x if y.is_zero() else -y if x.is_zero() else x - y for x, y in zip(r, s))
            for r, s in zip(self.entries, other.entries)
        ), self.cols)

    def __neg__(self) -> "RfMatrix":
        return RfMatrix._of(self.nvars, tuple(
            tuple(e if e.is_zero() else -e for e in row) for row in self.entries
        ), self.cols)

    def scaled(self, factor) -> "RfMatrix":
        f = self._coerce_entry(factor)
        return RfMatrix._of(self.nvars, tuple(
            tuple(e if e.is_zero() else e * f for e in row) for row in self.entries
        ), self.cols)

    def apply(self, vector: Sequence[RatFun]) -> tuple[RatFun, ...]:
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        support = _support([self._coerce_entry(v) for v in vector])
        zero = RatFun.zero(self.nvars)
        out = []
        for row in self.entries:
            pairs = [(row[k], y) for k, y in support if row[k].num.terms]
            out.append(_dot(self.nvars, pairs) if pairs else zero)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_symmetric(self) -> bool:
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def eval_at(self, point: Sequence) -> list[list[Fraction]]:
        """The value of each entry at ``point``, as ``RatFun.eval`` gives it.
        A zero entry reads as one shared 0 and a constant entry as its
        coefficient; the point is read as ``Fraction``s once, for the rest."""
        pt = _read_point(point, self.nvars)
        one, origin = _one(self.nvars), (0,) * self.nvars
        out = []
        for row in self.entries:
            values = []
            for e in row:
                terms = e.num.terms
                if not terms:
                    values.append(_ZERO)
                elif e.den is one and len(terms) == 1 and origin in terms:
                    values.append(terms[origin])
                else:
                    values.append(e._value(pt, point))
            out.append(values)
        return out

    def det(self) -> RatFun:
        """det A = (−1)^{n(n−1)/2}·Pf([[0, A], [−Aᵀ, 0]]), by
        :func:`pfaffian_minor`."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        zeros = (RatFun.zero(self.nvars),) * n
        skew = [zeros + row for row in self.entries]
        skew += [row + zeros for row in (-self).transpose().entries]
        pfaffian, _ = pfaffian_minor(RfMatrix._of(self.nvars, tuple(skew), 2 * n), n)
        return -pfaffian if n * (n - 1) // 2 % 2 else pfaffian

    def inverse(self) -> "RfMatrix":
        """Exact inverse by one Gauss–Jordan pass over ``[A | I]``.

        Raises :class:`SingularMatrixError` when the matrix is singular over
        the function field."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        one = RatFun.one(self.nvars)
        rows = _sparse_rows(self)
        for i, row in enumerate(rows):
            row[n + i] = one
        reduced, pivots = _rref(rows, n, self.nvars)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular over the function field")
        # row r of the reduced [A | I] is the row of A^-1 for its pivot column
        zero = RatFun.zero(self.nvars)
        inverse = [None] * n
        for r, c in pivots:
            row = reduced[r]
            inverse[c] = tuple(row.get(j, zero) for j in range(n, 2 * n))
        return RfMatrix._of(self.nvars, tuple(inverse), n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RfMatrix):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.entries))

    def __repr__(self) -> str:
        return f"RfMatrix({self.rows}x{self.cols}, nvars={self.nvars})"


def _support(vector: Sequence[RatFun]) -> list[tuple[int, RatFun]]:
    """The (index, entry) of each nonzero entry of ``vector``, in order."""
    return [(k, e) for k, e in enumerate(vector) if e.num.terms]


def _over_common_denominator(vector: Sequence[RatFun], nvars: int) -> tuple[list[Poly], Poly]:
    """The polynomials lcm·v_b and the lcm of the denominators of ``vector``."""
    lcm = _one(nvars)
    for e in vector:
        if e.den.is_constant():
            continue
        lcm = divexact(lcm * e.den, poly_gcd(lcm, e.den))
    if lcm.is_constant():  # every denominator is 1
        return [e.num for e in vector], lcm
    cofactors: dict[Poly, Poly] = {}  # den -> lcm/den, one exact division per distinct den
    out = []
    for e in vector:
        if e.is_zero():
            out.append(Poly.zero(nvars))
            continue
        q = cofactors.get(e.den)
        if q is None:
            q = cofactors[e.den] = divexact(lcm, e.den)
        out.append(e.num * q)
    return out, lcm


@dataclass(frozen=True)
class LinearSolution:
    """One particular solution per right-hand side, and a kernel basis."""

    particulars: tuple[tuple[RatFun, ...], ...]
    kernel: tuple[tuple[RatFun, ...], ...]

    @property
    def particular(self) -> tuple[RatFun, ...]:
        """The particular solution of the first right-hand side."""
        return self.particulars[0]


def _rref(
    rows: list[dict[int, RatFun]], n: int, nvars: int
) -> tuple[list[dict[int, RatFun]], list[tuple[int, int]]]:
    """Reduced row echelon form over the function field, on sparse rows.

    Each row is a ``{column: entry}`` dict of its nonzeros and is reduced in
    place; columns ``>= n`` are right-hand sides and take no pivot.  Pivots
    are chosen by lowest combined num/den degree (``degree_size``, computed
    once per entry when the entry is made), ties broken by column then row
    index; the search scans only the nonzeros of the remaining rows, since
    every pivot column is zero there.  The pivot row is scaled by the
    inverse pivot, and each updated entry ``row[j] - factor·b`` of another
    row is one ``_dot``, one canonicalisation; an entry that cancels leaves
    the dict.  Returns the rows and the (row, column) of each pivot."""
    m = len(rows)
    weights = [{j: e.degree_size() for j, e in row.items() if j < n} for row in rows]
    pivots: list[tuple[int, int]] = []
    one = RatFun.one(nvars)
    zero = RatFun.zero(nvars)
    for r in range(m):
        best = None
        for i in range(r, m):
            for j, w in weights[i].items():
                if best is None or (w, j, i) < best:
                    best = (w, j, i)
        if best is None:
            break
        _, pj, pi = best
        rows[pi], rows[r] = rows[r], rows[pi]
        weights[pi], weights[r] = weights[r], weights[pi]
        pivot_row = rows[r]
        inv = pivot_row.pop(pj).inverse()
        if inv != one:
            pivot_row = {j: e * inv for j, e in pivot_row.items()}
        nonzero = list(pivot_row.items())
        pivot_row[pj] = one
        rows[r] = pivot_row
        for i, row in enumerate(rows):
            if i == r or pj not in row:
                continue
            minus = -row.pop(pj)
            weight, searched = weights[i], i > r  # rows above r are not searched again
            weight.pop(pj, None)
            for j, b in nonzero:
                e = _dot(nvars, ((row.get(j, zero), one), (minus, b)))
                if e.num.terms:
                    row[j] = e
                    if searched and j < n:
                        weight[j] = e.degree_size()
                else:  # only an entry the row had can cancel
                    del row[j]
                    weight.pop(j, None)
        pivots.append((r, pj))
    return rows, pivots


def _sparse_rows(matrix: RfMatrix) -> list[dict[int, RatFun]]:
    """The rows of ``matrix`` as ``{column: entry}`` dicts of their nonzeros."""
    return [dict(_support(row)) for row in matrix.entries]


def _kernel_from_rref(
    rows: list[dict[int, RatFun]], pivots: list[tuple[int, int]], n: int, nvars: int
) -> list[tuple[RatFun, ...]]:
    """One kernel vector per free column f: 1 at f, −row[f] at the pivot
    column of each row, and zero elsewhere."""
    pivot_cols = {c for _, c in pivots}
    zero, one = RatFun.zero(nvars), RatFun.one(nvars)
    kernel = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = [zero] * n
        v[free] = one
        for r, c in pivots:
            e = rows[r].get(free)
            if e is not None:
                v[c] = -e
        kernel.append(tuple(v))
    return kernel


def generic_rank(matrix: RfMatrix) -> int:
    """Rank over the rational-function field: the pivot count of its RREF."""
    return len(_rref(_sparse_rows(matrix), matrix.cols, matrix.nvars)[1])


def pfaffian_minor(matrix: RfMatrix, pairs: int) -> tuple[RatFun, tuple[int, ...]]:
    """A nonzero principal Pfaffian minor of order 2·``pairs`` of the skew
    matrix, with its sorted index set I, or (0, ()) when the rank is below
    2·``pairs``.

    Fraction-free skew elimination on 2×2 pivot blocks.  Row and column i are
    first scaled by the lcm d_i of row i's denominators, which multiplies
    Pf(M[I, I]) by the product of the d_i over I.  Each step takes the
    remaining index pair (p, q), p < q, whose entry has the lowest degree
    (ties by index) and updates every other entry to
    (M_pq·M_ij + M_ip·M_qj − M_iq·M_pj) / (the previous pivot), an exact
    division: the entry is then, up to sign, the Pfaffian of the eliminated
    indices with i and j, so no gcd is taken (Galbiati–Maffioli, *Discrete
    Appl. Math.* 51, 1994).  The Schur complement of a principal submatrix is
    the principal submatrix of the Schur complement, so the last pivot,
    signed by the order in which the pairs were taken, is Pf(M[I, I]); a
    remaining block that is zero has rank 0, so rank M is twice the number of
    steps taken."""
    nvars = matrix.nvars
    n = matrix.rows
    cleared = [_over_common_denominator(row, nvars) for row in matrix.entries]
    scales = [d for _, d in cleared]
    if all(d.is_constant() for d in scales):  # every denominator is 1
        m = [row for row, _ in cleared]
    else:
        m = [[x * d for x, d in zip(row, scales)] for row, _ in cleared]
    rest = list(range(n))
    taken: list[tuple[int, int]] = []
    prev = _one(nvars)
    for _ in range(pairs):
        best = None
        for s, p in enumerate(rest):
            row = m[p]
            for q in rest[s + 1:]:
                e = row[q]
                if e.terms:
                    key = (e.total_degree(), p, q)
                    if best is None or key < best:
                        best = key
        if best is None:
            return RatFun.zero(nvars), ()
        _, p, q = best
        taken.append((p, q))
        rest.remove(p)
        rest.remove(q)
        pivot = m[p][q]
        same = pivot == prev
        touched = {i for i in rest if m[i][p].terms or m[i][q].terms}
        for s, i in enumerate(rest):
            row = m[i]
            for j in rest[s + 1:]:
                if same and not (i in touched and j in touched):
                    continue  # a row or column that misses the pivot block is scaled by 1
                acc: dict[Exponents, Fraction] = {}
                _add_product(acc, pivot.terms, row[j].terms)
                _add_product(acc, row[p].terms, m[q][j].terms)
                _add_product(acc, row[q].terms, m[j][p].terms)
                row[j] = divexact(Poly._of(nvars, acc), prev)
                m[j][i] = -row[j]
        prev = pivot
    order = sorted(i for pair in taken for i in pair)
    index = tuple(order)
    sign = 1
    for p, q in taken:
        if (order.index(p) + order.index(q)) % 2 == 0:
            sign = -sign
        order.remove(p)
        order.remove(q)
    scale = _one(nvars)
    for i in index:
        scale = scale * scales[i]
    return RatFun(prev._scaled(Fraction(sign)), scale), index


def solve_linear_exact(matrix: RfMatrix, *rhs: Sequence) -> LinearSolution:
    """Solve A·x = b exactly over the rational-function field, for each
    right-hand side b of ``rhs``, in one elimination of [A | b ...].

    Returns one particular solution per right-hand side together with a
    kernel basis of A; raises :class:`InconsistentSystemError` for the first
    right-hand side that has no solution.
    """
    nvars, n = matrix.nvars, matrix.cols
    rows = _sparse_rows(matrix)
    for c, b in enumerate(rhs):
        if len(b) != matrix.rows:
            raise ValueError(f"rhs length {len(b)} does not match {matrix.rows} rows")
        for row, x in zip(rows, b):
            x = matrix._coerce_entry(x)
            if x.num.terms:
                row[n + c] = x
    rows, pivots = _rref(rows, n, nvars)
    rank = len(pivots)
    zero = RatFun.zero(nvars)
    particulars = []
    for c in range(n, n + len(rhs)):
        for i in range(rank, matrix.rows):
            if c in rows[i]:
                raise InconsistentSystemError(
                    f"row {i} reduces to 0 = {rows[i][c]}; system has no solution",
                    column=c - n,
                    nullity=n - rank,
                )
        particular = [zero] * n
        for r, p in pivots:
            particular[p] = rows[r].get(c, zero)
        particulars.append(tuple(particular))
    kernel = _kernel_from_rref(rows, pivots, n, nvars)
    return LinearSolution(tuple(particulars), tuple(kernel))


def clear_denominators(vector: Sequence[RatFun]) -> list[Poly]:
    """Scale a RatFun vector to a primitive polynomial vector."""
    if not vector:
        return []
    polys, _ = _over_common_denominator(vector, vector[0].nvars)
    # one common integer scale for the whole vector, then strip the shared content
    den_lcm = 1
    for p in polys:
        for c in p.terms.values():
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    if den_lcm != 1:
        polys = [p._scaled(Fraction(den_lcm)) for p in polys]
    content: Poly | None = None
    for p in polys:
        if p.is_zero():
            continue
        content = p if content is None else _gcd_int(content, p)
        if content.is_constant() and content.constant_value() == 1:
            content = None
            break
    if content is not None and not (content.is_constant() and content.constant_value() == 1):
        polys = [divexact(p, content) if not p.is_zero() else p for p in polys]
    return polys


def kernel_basis(matrix: RfMatrix) -> list[list[Poly]]:
    """Null-space basis with denominators cleared to primitive polynomial vectors."""
    rows, pivots = _rref(_sparse_rows(matrix), matrix.cols, matrix.nvars)
    kernel = _kernel_from_rref(rows, pivots, matrix.cols, matrix.nvars)
    return [clear_denominators(v) for v in kernel]
