"""Contact pairs: defining conditions, Reeb fields, distribution frames,
and the tangent-bundle splittings they induce.

A pair of one-forms (alpha1, alpha2) of type (h, k) on an n-manifold with
n = 2h + 2k + 2 must satisfy: alpha1 ∧ (d alpha1)^h ∧ alpha2 ∧ (d alpha2)^k
is a volume form, and (d alpha1)^{h+1} = 0 = (d alpha2)^{k+1}.  The Reeb
fields are the unique pair (Z1, Z2) with alpha_i(Z_j) = delta_ij and
i_{Z_j} d alpha_i = 0; they commute.

The three conditions are decided on value tables, by Pfaffians
(:func:`pair_axioms`), with no exterior product expanded.  For a skew table W
with 2-form omega, the coefficient of omega^p on an index set I is
p!·Pf(W[I, I]), so omega^p = 0 exactly when rank W < 2p.  When both powers
vanish, (omega1 + omega2 + alpha1∧alpha2)^{h+k+1} has the single term
(h+k+1)!/(h!k!) omega1^h∧omega2^k∧alpha1∧alpha2, so the volume coefficient
is h!k!·Pf(W1 + W2 + a1 a2ᵀ − a2 a1ᵀ), which is −h!k! times the Pfaffian of
the bordered table [[W1 + W2, a1, a2], [−a1ᵀ, 0, −1], [−a2ᵀ, 1, 0]].  The
bordered form keeps the W block as it is: each minor the elimination forms
takes at most one entry from each border row, so on a constant 2-form its
degree stays at most 2, where every entry of W1 + W2 + a1 a2ᵀ − a2 a1ᵀ is
already quadratic and its minors grow with their order.  The leaf checks
take the volume coefficient of the pair induced on the leaves of a frame
from the restricted tables; its power conditions follow from the pair's own.

A frame is its vectors; ker d alpha_i ⊃ TF_i ⊃ TG_i are one nest, built on
the pair by one elimination and two one-row kernels when a frame of index i
is first read.  Once :func:`verified_pair` returns, every nest has the ranks
of the type (:func:`_frame_nest`), so the splittings need no frame
(:func:`verify_splittings`), no frame tests membership and none takes a rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .algebra import (
    InconsistentSystemError,
    RatFun,
    RfMatrix,
    _dot,
    clear_denominators,
    kernel_basis,
    pfaffian_minor,
    solve_linear_exact,
)
from .exterior import Form, MetricField, Space, VectorField, bracket
from .verdicts import Status, Verdict, nonvanishing_verdict

__all__ = [
    "ContactPair",
    "VerifiedPair",
    "DistributionFrame",
    "Verdict",
    "Status",
    "AxiomVerdicts",
    "PairValidationError",
    "ReebSolveError",
    "FrameRankError",
    "pair_axioms",
    "volume_coefficient",
    "verify_contact_pair",
    "reeb_fields",
    "characteristic_frame",
    "g_frame",
    "kernel_frame",
    "verified_pair",
    "verify_splittings",
]


class PairValidationError(ValueError):
    """The defining conditions of a contact pair do not hold."""


class ReebSolveError(RuntimeError):
    """The Reeb system is inconsistent or has a non-unique solution."""


class FrameRankError(RuntimeError):
    """A distribution frame does not have the rank the pair type dictates."""


def _position(i: int) -> int:
    """Position 0 or 1 of index 1 or 2, the index rule of every accessor."""
    if i not in (1, 2):
        raise ValueError(f"index must be 1 or 2, got {i!r}")
    return i - 1


def _other(i: int) -> int:
    """The other index j != i."""
    return 2 - _position(i)


def one_form_row(form: Form) -> tuple[RatFun, ...]:
    """Coefficient row a_b = alpha(e_b)."""
    return tuple(form.coefficient((b,)) for b in range(form.space.dim))


def two_form_matrix(form: Form) -> RfMatrix:
    """Antisymmetric value table M[a][b] = omega(e_a, e_b), built unchecked
    from the form's canonical coefficients and their negations."""
    space = form.space
    n = space.dim
    zero = space.zero()
    mat = [[zero for _ in range(n)] for _ in range(n)]
    for (a, b), c in form.coeffs.items():
        mat[a][b] = c
        mat[b][a] = -c
    return RfMatrix._of(n, tuple(map(tuple, mat)), n)


def column_matrix(space: Space, vectors: Sequence[VectorField]) -> RfMatrix:
    """The dim x len(vectors) matrix whose columns are the given fields,
    built unchecked from their canonical components."""
    return RfMatrix._of(
        space.dim,
        tuple(tuple(v.components[a] for v in vectors) for a in range(space.dim)),
        len(vectors),
    )


@dataclass(frozen=True)
class ContactPair:
    """Candidate contact pair of type (h, k) with mandatory sample points."""

    space: Space
    alpha1: Form
    alpha2: Form
    h: int
    k: int
    sample_points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = self.space.dim
        if 2 * self.h + 2 * self.k + 2 != n:
            raise PairValidationError(
                f"type ({self.h}, {self.k}) requires dimension {2*self.h + 2*self.k + 2}, "
                f"space has {n}"
            )
        for name, form in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if form.space != self.space:
                raise PairValidationError(f"{name} lives on a different space")
            if form.degree != 1:
                raise PairValidationError(f"{name} must be a 1-form, got degree {form.degree}")
        if not self.sample_points:
            raise PairValidationError("at least one sample point is required")
        object.__setattr__(
            self,
            "sample_points",
            tuple(tuple(Fraction(x) for x in p) for p in self.sample_points),
        )
        for p in self.sample_points:
            if len(p) != n:
                raise PairValidationError(f"sample point {p} has length {len(p)}, expected {n}")

    @property
    def dim(self) -> int:
        return self.space.dim

    def alpha(self, i: int) -> Form:
        return (self.alpha1, self.alpha2)[_position(i)]

    def dalpha(self, i: int) -> Form:
        """d alpha_i; both differentials are computed once, on first use."""
        return self._dalphas[_position(i)]

    @cached_property
    def _dalphas(self) -> tuple[Form, Form]:
        return self.alpha1.d(), self.alpha2.d()

    @cached_property
    def axioms(self) -> AxiomVerdicts:
        """:func:`verify_contact_pair` of the pair, computed once."""
        return verify_contact_pair(self)

    def dalpha_table(self, i: int) -> RfMatrix:
        """The value table W_i[a][b] = d alpha_i(e_a, e_b); both tables are
        formed once, on first use."""
        return self._dalpha_tables[_position(i)]

    @cached_property
    def _dalpha_tables(self) -> tuple[RfMatrix, RfMatrix]:
        return two_form_matrix(self.dalpha(1)), two_form_matrix(self.dalpha(2))

    @cached_property
    def dalpha_sum_table(self) -> RfMatrix:
        """W = W_1 + W_2, the table of d alpha1 + d alpha2, formed once."""
        return self.dalpha_table(1) + self.dalpha_table(2)


def volume_coefficient(
    rows: tuple[Sequence[RatFun], Sequence[RatFun]],
    tables: tuple[RfMatrix, RfMatrix],
    degrees: tuple[int, int],
) -> RatFun:
    """The top coefficient of alpha1 ∧ (d alpha1)^h ∧ alpha2 ∧ (d alpha2)^k,
    as −h!k! times the Pfaffian of the bordered table
    [[W1 + W2, a1, a2], [−a1ᵀ, 0, −1], [−a2ᵀ, 1, 0]].  Valid only when
    (d alpha1)^{h+1} = 0 = (d alpha2)^{k+1}."""
    a1, a2 = rows
    w = tables[0] + tables[1]
    n = w.rows
    bordered = RfMatrix(
        w.nvars,
        [[*w.row(b), a1[b], a2[b]] for b in range(n)]
        + [[*(-x for x in a1), 0, -1], [*(-x for x in a2), 1, 0]],
    )
    pfaffian, _ = pfaffian_minor(bordered, n // 2 + 1)
    h, k = degrees
    return pfaffian * -(math.factorial(h) * math.factorial(k))


class AxiomVerdicts(dict):
    """The pair-axiom verdicts by name (``volume_form``,
    ``dalpha1_power_zero``, ``dalpha2_power_zero``); ``skipped`` maps a
    condition that got no verdict to the reason."""

    def __init__(self, verdicts=(), skipped=None):
        super().__init__(verdicts)
        self.skipped: dict[str, str] = dict(skipped or {})


def pair_axioms(
    rows: tuple[Sequence[RatFun], Sequence[RatFun]],
    tables: tuple[RfMatrix, RfMatrix],
    degrees: tuple[int, int],
    sample_points: Sequence[Sequence],
    names: Sequence[str],
) -> AxiomVerdicts:
    """The three conditions of a pair of type ``degrees`` = (h, k), from the
    rows a_i of alpha_i and the tables W_i of d alpha_i.  ``names`` print the
    witnesses.

    Power condition i (p = h + 1 or k + 1) is exact: Verified when W_i has
    rank below 2p, else Failed with the coefficient p!·Pf(W_i[I, I]) of
    (d alpha_i)^p on the index set I that :func:`pfaffian_minor` found.  The
    :func:`volume_coefficient` is graded by :func:`nonvanishing_verdict`; its
    formula holds only under both power conditions, so when one fails the
    volume is skipped, with the reason."""
    powers = {}
    failed = []
    for i, (table, degree) in enumerate(zip(tables, degrees), 1):
        power = degree + 1
        condition = f"(d alpha{i})^{power}"
        pfaffian, index = pfaffian_minor(table, power)
        if pfaffian.is_zero():
            powers[f"dalpha{i}_power_zero"] = Verdict.verified(f"{condition} = 0")
        else:
            coeff = pfaffian * math.factorial(power)
            powers[f"dalpha{i}_power_zero"] = Verdict.failed(
                f"{condition} has coefficient {coeff.format(names)} on {index}"
            )
            failed.append(f"{condition} = 0 does not hold")
    if failed:
        reason = (
            f"{' and '.join(failed)}; the volume coefficient is a "
            "Pfaffian only when both power conditions hold"
        )
        return AxiomVerdicts(powers, {"volume_form": reason})

    coeff = volume_coefficient(rows, tables, degrees)
    volume = nonvanishing_verdict(
        coeff,
        sample_points,
        "volume coefficient",
        constant_detail=f"constant volume coefficient {coeff.num}",
    )
    return AxiomVerdicts({"volume_form": volume, **powers})


def verify_contact_pair(pair: ContactPair) -> AxiomVerdicts:
    """Check the three defining conditions (:func:`pair_axioms`).

    The two vanishing conditions are exact.  The volume condition is graded:
    a nonzero constant top coefficient is Verified, a non-constant coefficient
    that survives all sample points is only SampleVerified (global positivity
    of a non-constant polynomial is not decidable here), anything else Failed.
    """
    return pair_axioms(
        (one_form_row(pair.alpha1), one_form_row(pair.alpha2)),
        (pair.dalpha_table(1), pair.dalpha_table(2)),
        (pair.h, pair.k),
        pair.sample_points,
        pair.space.names,
    )


def _reeb_system(pair: ContactPair) -> RfMatrix:
    """The rows alpha1, alpha2 and the contraction rows of d alpha1 and
    d alpha2, the rows of W_iᵀ as (i_Z d alpha_i)(e_b) = sum_a W_i[a][b] Z^a,
    read from the canonical coefficients as they are (constant on a Lie frame)."""
    rows = [one_form_row(pair.alpha1), one_form_row(pair.alpha2)]
    for i in (1, 2):
        rows.extend(pair.dalpha_table(i).transpose().entries)
    return RfMatrix._of(pair.dim, tuple(rows), pair.dim)


def reeb_fields(pair: ContactPair) -> tuple[VectorField, VectorField]:
    """Solve the Reeb equations exactly and check that the fields commute.

    Raises :class:`ReebSolveError` when the linear system is inconsistent or
    has a non-trivial kernel over the function field, or when [Z1, Z2] is
    nonzero (which signals the pair conditions fail away from the sample
    set).  The normalization alpha_i(Z_j) = delta_ij and the contractions
    i_{Z_j} d alpha_i = 0 are the rows of the system, so the unique exact
    solution satisfies them identically.  Z1 and Z2 are the two right-hand
    sides of one elimination; the errors come in the order of solving for
    Z1 and then Z2 (Z1 inconsistent, then the kernel, then Z2 inconsistent).
    The fields are built unchecked: the solution of a system over the
    canonical entries of a Lie frame is constant, since the field
    operations keep constants constant.
    """
    system = _reeb_system(pair)
    rhs = [[0] * (2 * pair.dim + 2) for _ in (1, 2)]
    rhs[0][0] = rhs[1][1] = 1
    try:
        sol = solve_linear_exact(system, *rhs)
        nullity = len(sol.kernel)
    except InconsistentSystemError as exc:
        if not exc.column or not exc.nullity:
            raise ReebSolveError(
                f"Reeb system for Z{exc.column + 1} is inconsistent: {exc}"
            ) from exc
        nullity = exc.nullity  # Z1 solves but is not unique, which comes first
    if nullity:
        raise ReebSolveError(
            f"Reeb system for Z1 has a {nullity}-dimensional kernel; "
            "the Reeb field is not unique"
        )
    z1, z2 = (VectorField._of(pair.space, x) for x in sol.particulars)
    commutator = bracket(z1, z2)
    if not commutator.is_zero():
        raise ReebSolveError(f"[Z1, Z2] = {commutator} is nonzero")
    return z1, z2


@dataclass(frozen=True)
class DistributionFrame:
    """Polynomial vector fields spanning a distribution generically.  The
    package's frames are RREF kernel bases, independent by construction, so
    the class checks only that each vector lives on its space."""

    space: Space
    vectors: tuple[VectorField, ...]
    label: str = "custom"

    def __post_init__(self):
        for v in self.vectors:
            if v.space != self.space:
                raise ValueError("frame vector on a different space")

    @property
    def size(self) -> int:
        return len(self.vectors)

    @cached_property
    def matrix(self) -> RfMatrix:
        """The n x size matrix F whose columns are the frame vectors, formed
        once; every table of the frame is a product with it."""
        return column_matrix(self.space, self.vectors)


def _row_kernel(
    row: Sequence[RatFun], basis: Sequence[tuple[RatFun, ...]], nvars: int
) -> list[tuple[RatFun, ...]]:
    """The vectors of span(``basis``) that ``row`` annihilates.  ``basis`` is
    a cleared RREF kernel basis: k_t is primitive, zero at the free columns
    but its own, f_t, and has a positive leading coefficient there.  With
    r_t = row·k_t and p the least (degree_size(r_t), t) of the nonzero r_t,
    r_p taken positive-leading, each t != p gives k_t if r_t = 0, else the
    cleared r_p·k_t − r_t·k_p: the same form for the free columns but f_p."""
    values = [_dot(nvars, zip(row, k)) for k in basis]
    nonzero = [t for t, r in enumerate(values) if r.num.terms]
    if not nonzero:
        return list(basis)
    p = min(nonzero, key=lambda t: (values[t].degree_size(), t))
    if values[p].num.leading()[1] < 0:
        values = [-r for r in values]
    rp, kp = values.pop(p), basis[p]
    kernel = [k for t, k in enumerate(basis) if t != p]
    for t, r in enumerate(values):
        if r.num.terms:
            minus = -r
            v = [_dot(nvars, ((rp, a), (minus, b))) for a, b in zip(kernel[t], kp)]
            kernel[t] = tuple(map(RatFun, clear_denominators(v)))
    return kernel


def _frame_nest(pair: ContactPair, i: int) -> tuple[DistributionFrame, ...]:
    """ker d alpha_i ⊃ TF_i ⊃ TG_i: the kernel basis of the contraction rows of
    d alpha_i, then the kernels of the rows alpha_i and alpha_j inside it,
    built unchecked on first read (on a Lie frame every vector is constant)
    and kept in the pair's ``__dict__`` as a cached property would be.

    Once the axioms pass and the Reeb system solves (:func:`verified_pair`),
    no nest can have a wrong rank (h_1 = h, h_2 = k):

    - (d alpha_i)^{h_i+1} = 0 gives rank W_i ≤ 2h_i.
    - A volume coefficient that is not identically zero gives
      (d alpha_i)^{h_i} ≠ 0, so ker d alpha_i has rank exactly n − 2h_i.
    - Z_i ∈ ker d alpha_i with alpha_i(Z_i) = 1, so TF_i has rank 2h_j + 1.
    - Z_j ∈ TF_i with alpha_j(Z_j) = 1, so TG_i has rank 2h_j.

    The rank check guards a pair that was never verified: it raises
    :class:`FrameRankError` naming each wrong rank."""
    nests = pair.__dict__.setdefault("_frame_nests", {})
    if i in nests:
        return nests[i]
    n, (own, other) = pair.dim, ((pair.h, pair.k), (pair.k, pair.h))[_position(i)]
    k = [tuple(map(RatFun, v)) for v in kernel_basis(pair.dalpha_table(i).transpose())]
    tf = _row_kernel(one_form_row(pair.alpha(i)), k, n)
    tg = _row_kernel(one_form_row(pair.alpha(_other(i))), tf, n)
    wrong = [f"{name} has rank {len(vs)}, expected {rank}" for name, vs, rank in (
        (f"ker d alpha{i}", k, n - 2 * own), (f"TF{i}", tf, 2 * other + 1),
        (f"TG{i}", tg, 2 * other)) if len(vs) != rank]
    if wrong:
        raise FrameRankError("; ".join(wrong) + "; input is degenerate")
    nests[i] = tuple(
        DistributionFrame(pair.space, tuple(VectorField._of(pair.space, v) for v in vs), label)
        for vs, label in ((k, f"KerDAlpha{i}"), (tf, f"TF{i}"), (tg, f"TG{i}"))
    )
    return nests[i]


def characteristic_frame(pair: ContactPair, which: int) -> DistributionFrame:
    """Frame of ker alpha_i ∩ ker d alpha_i (tangent to the characteristic
    foliation of alpha_i), of rank 2k+1 for which=1 and 2h+1 for which=2."""
    return _frame_nest(pair, which)[1]


def g_frame(pair: ContactPair, i: int) -> DistributionFrame:
    """Frame of ker d alpha_i ∩ ker alpha1 ∩ ker alpha2 (rank 2k for i=1, 2h for i=2)."""
    return _frame_nest(pair, i)[2]


def kernel_frame(pair: ContactPair, i: int) -> DistributionFrame:
    """Frame of ker d alpha_i (the characteristic foliation of d alpha_i)."""
    return _frame_nest(pair, i)[0]


@dataclass(frozen=True)
class VerifiedPair:
    """A contact pair and its solved Reeb fields.  :meth:`tf` and :meth:`tg`
    read the pair's frame nests, each built by the first check reading it."""

    pair: ContactPair
    z1: VectorField
    z2: VectorField

    @property
    def space(self) -> Space:
        return self.pair.space

    @property
    def dim(self) -> int:
        return self.pair.dim

    @property
    def sample_points(self):
        return self.pair.sample_points

    def z(self, i: int) -> VectorField:
        return (self.z1, self.z2)[_position(i)]

    def tf(self, i: int) -> DistributionFrame:
        return characteristic_frame(self.pair, i)

    def tg(self, i: int) -> DistributionFrame:
        return g_frame(self.pair, i)

    @cached_property
    def _reeb_matrix(self) -> RfMatrix:
        """The n x 2 matrix Z with columns Z1, Z2."""
        return column_matrix(self.space, (self.z1, self.z2))

    @cached_property
    def _alpha_matrix(self) -> RfMatrix:
        """The 2 x n matrix A with rows alpha1, alpha2."""
        return RfMatrix._of(
            self.dim, (one_form_row(self.pair.alpha1), one_form_row(self.pair.alpha2)), self.dim
        )

    @cached_property
    def _alpha_gram(self) -> RfMatrix:
        """The n x n matrix AᵀA = alpha1 ⊗ alpha1 + alpha2 ⊗ alpha2, shared by
        the compatibility identity and both metric constructions."""
        return self._alpha_matrix.transpose() @ self._alpha_matrix


def _reeb_gram(vp: VerifiedPair, g: MetricField) -> RfMatrix:
    """The 2 x 2 Gram matrix Z^T G Z of the Reeb fields under the metric g."""
    z = vp._reeb_matrix
    return z.transpose() @ g.matrix @ z


def verified_pair(pair: ContactPair) -> VerifiedPair:
    """Run the axiom checks (:attr:`ContactPair.axioms`) and solve the Reeb
    system; no frame is built.  Raises :class:`PairValidationError` when any
    defining condition Fails (SampleVerified volume coefficients pass)."""
    for name, verdict in pair.axioms.items():
        if not verdict.ok:
            raise PairValidationError(f"{name}: {verdict.witness or verdict.detail}")
    return VerifiedPair(pair, *reeb_fields(pair))


def verify_splittings(vp: VerifiedPair) -> Verdict:
    """TM = TF1 ⊕ TF2 and TF_i = TG_i ⊕ R·Z_j (j != i), read off the type of
    ``vp``.  TF1 ∩ TF2 is the kernel of the Reeb system, which
    :func:`reeb_fields` rejects when nontrivial, and the ranks 2k + 1 and
    2h + 1 of :func:`_frame_nest`'s proof sum to n; there, Z_j ∈ TF_i with
    alpha_j(Z_j) = 1 and TG_i = TF_i ∩ ker alpha_j, so Z_j spans a
    complement of TG_i in TF_i."""
    h, k = vp.pair.h, vp.pair.k
    return Verdict.verified(f"rank(TF1) + rank(TF2) = {2 * k + 1} + {2 * h + 1} = {vp.dim}")
