"""Compatible and associated metrics for contact pair structures.

A metric g is *compatible* with (alpha1, alpha2, phi) when

    g(phi X, phi Y) = g(X, Y) - alpha1(X) alpha1(Y) - alpha2(X) alpha2(Y)

and *associated* when additionally g(X, phi Y) = (d alpha1 + d alpha2)(X, Y)
and g(X, Z_i) = alpha_i(X).  Both predicates are exact matrix identities in
basis coordinates; a structure with a positive tolerance grades nonzero
residuals at the sample points instead (for numeric, polarization-produced
data).

Every table over frames is one product with their column matrices F, F'
(Z = (Z1 Z2), α the 2 x n matrix with rows alpha1, alpha2, W_l the value
table of d alpha_l): Gram matrices F^T G F' (orthogonality, the leaf
pairings F^T G phi F, polarization's k table, Z^T G Z), 2-form tables
F^T W_l F, images phi F, the duality rows (Z^T G - α) F, compatibility
phi^T G phi - G + α^T α, and a leaf frame's invariance E·(phi F) = 0.

The polarization construction represents the restriction of
d alpha1 + d alpha2 to a characteristic subbundle frame as a k-skew operator
A (k(u, A v) = d alpha(u, v)), polar-decomposes it numerically, and extends
by zero on the Reeb fields.  The numeric part runs on lists of plain floats
at the first sample point: the Cholesky factor L of k and its inverse by
forward substitution, the skew representative Â = L⁻¹ S L⁻ᵀ, the
eigendecomposition of P = ÂᵀÂ by cyclic Jacobi rotations, and then
φ = L⁻ᵀ Â P^{-1/2} Lᵀ and g = L P^{1/2} Lᵀ.  Note that d alpha_i vanishes
identically on TG_i, so the per-block (decomposable) variant effectively
polarizes d alpha_j on TG_i for j != i; using the sum keeps one formula for
both variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import RatFun, RfMatrix, format_point
from .exterior import EndoField, MetricField, lie_derivative
from .pair import DistributionFrame, VerifiedPair, _reeb_gram, column_matrix, pair_axioms
from .structure import ContactPairStructure, PreconditionError, _leaf_square_residual
from .verdicts import (
    Status,
    Verdict,
    combine_verdicts,
    matrix_residual_entries,
    residual_verdict,
)

__all__ = [
    "MetricContactPair",
    "AssociatedCheckReport",
    "MetricValidationError",
    "PolarizationError",
    "LeafContactMetric",
    "LeafMCP",
    "is_compatible",
    "compatible_corollaries",
    "is_associated",
    "build_compatible",
    "build_associated_by_polarization",
    "are_foliations_orthogonal",
    "killing_check",
    "killing_agreement",
    "decomposability_orthogonality_agreement",
    "verify_restricted_contact_metric",
]


class MetricValidationError(ValueError):
    """A metric fails a requirement it was declared to satisfy."""


class PolarizationError(RuntimeError):
    """The numeric polarization could not be carried out."""


def is_compatible(cps: ContactPairStructure, g: MetricField) -> Verdict:
    """Exact check of  phi^T G phi = G - a1 a1^T - a2 a2^T."""
    vp = cps.vp
    if g.space != vp.space:
        raise ValueError("metric lives on a different space")
    phi = cps.phi.matrix
    alphas = vp._alpha_matrix
    residual = phi.transpose() @ g.matrix @ phi - g.matrix + alphas.transpose() @ alphas
    return residual_verdict(
        matrix_residual_entries(residual),
        vp,
        detail="g(phi X, phi Y) = g(X, Y) - alpha1(X)alpha1(Y) - alpha2(X)alpha2(Y)",
    )


def _duality_rows(vp: VerifiedPair, g: MetricField) -> RfMatrix:
    """The 2 x n matrix Z^T G - α: row i holds g(Z_i, ·) - alpha_i, so its
    product with a frame F pairs every frame vector at once."""
    return vp._reeb_matrix.transpose() @ g.matrix - vp._alpha_matrix


def _reeb_duality(vp: VerifiedPair, duality: RfMatrix) -> list[tuple[str, RatFun]]:
    """The labelled residuals g(Z_i, e_b) - alpha_i(e_b) for i = 1, 2."""
    return [
        (f"g(Z{i}, e_{vp.space.names[b]}) - alpha{i}[{b}]", duality.at(i - 1, b))
        for i in (1, 2)
        for b in range(vp.dim)
    ]


def compatible_corollaries(cps: ContactPairStructure, g: MetricField) -> dict[str, Verdict]:
    """Consequences every compatible metric must satisfy: g(Z_i, ·) = alpha_i
    and g(Z_i, Z_j) = delta_ij."""
    vp = cps.vp
    gram = _reeb_gram(vp, g) - RfMatrix.identity(2, vp.dim)
    return {
        "reeb_duality": residual_verdict(
            _reeb_duality(vp, _duality_rows(vp, g)), vp, detail="g(Z_i, X) = alpha_i(X)"
        ),
        "reeb_orthonormality": residual_verdict(
            [
                (f"g(Z{i}, Z{j}) - {int(i == j)}", gram.at(i - 1, j - 1))
                for i in (1, 2)
                for j in (1, 2)
            ],
            vp,
            detail="g(Z_i, Z_j) = delta_ij",
        ),
    }


@dataclass(frozen=True)
class AssociatedCheckReport:
    """Residuals of the associated-metric identities.

    ``pairing_residual`` is G·Phi - A with A[a][b] = (d alpha1 + d alpha2)
    applied to the basis pair (a, b); ``skew_residual`` is Phi^T G + G Phi
    (implied by the pairing identity, asserted separately as a sanity check);
    row i of ``reeb_residuals`` is g(Z_i, ·) - alpha_i.
    """

    pairing_residual: RfMatrix
    skew_residual: RfMatrix
    reeb_residuals: RfMatrix
    verdicts: dict[str, Verdict]

    @property
    def verdict(self) -> Verdict:
        return combine_verdicts(self.verdicts.values())

    @property
    def ok(self) -> bool:
        return self.verdict.ok


def is_associated(cps: ContactPairStructure, g: MetricField) -> AssociatedCheckReport:
    """Exact checks of G·Phi = A and g(·, Z_i) = alpha_i, graded at the
    structure's own ``tol``."""
    vp = cps.vp
    tol = cps.tol
    if g.space != vp.space:
        raise ValueError("metric lives on a different space")
    a_matrix = vp.pair.dalpha_table(1) + vp.pair.dalpha_table(2)
    pairing = g.matrix @ cps.phi.matrix - a_matrix
    skew = cps.phi.matrix.transpose() @ g.matrix + g.matrix @ cps.phi.matrix

    duality = _duality_rows(vp, g)

    verdicts = {
        "pairing": residual_verdict(
            matrix_residual_entries(pairing),
            vp,
            tol,
            detail="g(X, phi Y) = (d alpha1 + d alpha2)(X, Y)",
        ),
        "reeb": residual_verdict(
            _reeb_duality(vp, duality), vp, tol, detail="g(X, Z_i) = alpha_i(X)"
        ),
        "skew": residual_verdict(
            matrix_residual_entries(skew),
            vp,
            tol,
            detail="g(phi X, Y) = -g(X, phi Y)",
        ),
    }
    return AssociatedCheckReport(pairing, skew, duality, verdicts)


@dataclass(frozen=True)
class MetricContactPair:
    """Contact pair structure plus an associated metric (enforced within the
    structure's ``tol`` at construction).  ``associated`` is the
    :func:`is_associated` report of (cps, g); a caller that has it already
    passes it in, and it is computed otherwise."""

    cps: ContactPairStructure
    g: MetricField
    associated: AssociatedCheckReport | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        report = self.associated
        if report is None:
            report = is_associated(self.cps, self.g)
            object.__setattr__(self, "associated", report)
        if not report.ok:
            raise MetricValidationError(
                f"metric is not associated: {report.verdict.witness}"
            )

    @property
    def vp(self) -> VerifiedPair:
        return self.cps.vp

    @property
    def phi(self) -> EndoField:
        return self.cps.phi


def build_compatible(cps: ContactPairStructure, h_aux: MetricField) -> MetricField:
    """Average an arbitrary metric into a compatible one:

        k(X, Y) = h(phi^2 X, phi^2 Y) + alpha1(X)alpha1(Y) + alpha2(X)alpha2(Y)
        g(X, Y) = (k(X, Y) + k(phi X, phi Y)
                   + alpha1(X)alpha1(Y) + alpha2(X)alpha2(Y)) / 2

    The output is post-checked exactly against :func:`is_compatible` and for
    positive definiteness at every sample point."""
    vp = cps.vp
    if h_aux.space != vp.space:
        raise ValueError("auxiliary metric lives on a different space")
    for point in vp.sample_points:
        if not h_aux.is_positive_definite_at(point):
            raise MetricValidationError(
                f"auxiliary metric is not positive definite at {format_point(point)}"
            )
    alpha_term = vp._alpha_matrix.transpose() @ vp._alpha_matrix
    phi = cps.phi.matrix
    phi2 = phi @ phi
    k_matrix = phi2.transpose() @ h_aux.matrix @ phi2 + alpha_term
    g_matrix = (k_matrix + phi.transpose() @ k_matrix @ phi + alpha_term).scaled(
        Fraction(1, 2)
    )
    g = MetricField(vp.space, g_matrix)

    check = is_compatible(cps, g)
    if check.status is not Status.VERIFIED:
        raise MetricValidationError(f"construction failed compatibility: {check.witness}")
    for point in vp.sample_points:
        if not g.is_positive_definite_at(point):
            raise MetricValidationError(
                f"constructed metric is not positive definite at {format_point(point)}"
            )
    return g


# --- polarization ---------------------------------------------------------------


def polarization_precondition_violation(vp: VerifiedPair, k_aux: MetricField) -> str | None:
    """Polarization is numeric and restricted to constant-coefficient data:
    both d alpha_i and the auxiliary metric must have constant coefficients
    (always true on Lie frames; true on Darboux-type charts)."""
    for i in (1, 2):
        if any(not c.is_constant() for c in vp.pair.dalpha(i).coeffs.values()):
            return f"d alpha{i} has non-constant coefficients"
    if any(
        not e.is_constant() for row in k_aux.matrix.entries for e in row
    ):
        return "the auxiliary metric has non-constant coefficients"
    return None


_FloatMatrix = list[list[float]]


def _float_matrix(entries: Sequence[Sequence[RatFun]], point) -> _FloatMatrix:
    return [[float(e.eval(point)) for e in row] for row in entries]


def _transpose(a: _FloatMatrix) -> _FloatMatrix:
    return [list(col) for col in zip(*a)]


def _matmul(a: _FloatMatrix, b: _FloatMatrix) -> _FloatMatrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _cholesky(k: _FloatMatrix) -> _FloatMatrix:
    """The lower-triangular L with L·Lᵀ = k, read from k's lower triangle."""
    n = len(k)
    low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = k[j][j] - sum(x * x for x in low[j][:j])
        if not pivot > 0.0:
            raise PolarizationError("auxiliary metric is not positive definite on the subbundle")
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            dot = sum(x * y for x, y in zip(low[i][:j], low[j][:j]))
            low[i][j] = (k[i][j] - dot) / low[j][j]
    return low


def _lower_inverse(low: _FloatMatrix) -> _FloatMatrix:
    """L⁻¹ of a lower-triangular L, column by column by forward substitution."""
    n = len(low)
    inv = [[0.0] * n for _ in range(n)]
    for j in range(n):
        for i in range(j, n):
            dot = sum(low[i][m] * inv[m][j] for m in range(j, i))
            inv[i][j] = (float(i == j) - dot) / low[i][i]
    return inv


def _jacobi_eigh(a: _FloatMatrix) -> tuple[list[float], _FloatMatrix]:
    """Eigenvalues and eigenvector columns of the symmetric ``a``, by cyclic
    Jacobi rotations until the off-diagonal part is below the rounding of
    ``a`` (Golub–Van Loan, *Matrix Computations*, §8.5)."""
    n = len(a)
    a = [row.copy() for row in a]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    floor = (2.0**-52) ** 2 * sum(x * x for row in a for x in row)
    for _ in range(50):  # the off-diagonal part falls quadratically, in a few sweeps
        if sum(a[p][q] * a[p][q] for p in range(n) for q in range(p + 1, n)) <= floor:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] == 0.0:
                    continue
                # the rotation J with (JᵀaJ)[p][q] = 0, tan θ = t the smaller root
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in a:  # a ← a·J
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                a[p], a[q] = (  # a ← Jᵀ·a
                    [c * x - s * y for x, y in zip(a[p], a[q])],
                    [s * x + c * y for x, y in zip(a[p], a[q])],
                )
                for row in v:  # v ← v·J
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
    return [a[i][i] for i in range(n)], v


# the smallest eigenvalue of the polarized block that counts as nonsingular
_EIG_TOL = 1e-12


def _polarize_block(
    s_values: _FloatMatrix, k_values: _FloatMatrix
) -> tuple[_FloatMatrix, _FloatMatrix]:
    """Polar-decompose the k-skew operator representing the restricted 2-form.

    Returns (phi_block, g_block) in the frame coordinates of the block."""
    chol = _cholesky(k_values)
    chol_t, inv = _transpose(chol), _lower_inverse(chol)
    inv_t = _transpose(inv)
    # skew representative in k-orthonormal coordinates: L⁻¹ S L⁻ᵀ
    a_hat = _matmul(_matmul(inv, s_values), inv_t)
    eigenvalues, vectors = _jacobi_eigh(_matmul(_transpose(a_hat), a_hat))
    if min(eigenvalues) <= _EIG_TOL:
        raise PolarizationError(
            f"restricted 2-form is singular on the subbundle "
            f"(eigenvalue {min(eigenvalues):.3e}); pair conditions violated"
        )
    roots = [math.sqrt(e) for e in eigenvalues]
    vectors_t = _transpose(vectors)
    sqrt_p = _matmul([[x * r for x, r in zip(row, roots)] for row in vectors], vectors_t)
    inv_sqrt_p = _matmul([[x / r for x, r in zip(row, roots)] for row in vectors], vectors_t)
    phi_hat = _matmul(a_hat, inv_sqrt_p)
    phi_block = _matmul(_matmul(inv_t, phi_hat), chol_t)
    g_block = _matmul(_matmul(chol, sqrt_p), chol_t)
    # bitwise symmetry for exact ingestion
    g_block = [
        [(x + y) / 2.0 for x, y in zip(row, col)] for row, col in zip(g_block, zip(*g_block))
    ]
    return phi_block, g_block


def build_associated_by_polarization(
    vp: VerifiedPair,
    k_aux: MetricField,
    decomposable: bool,
) -> tuple[EndoField, MetricField]:
    """Produce (phi, g) with g associated to (alpha1, alpha2, phi).

    The restriction of d alpha1 + d alpha2 to the characteristic subbundles
    is polarized numerically at the first sample point: jointly on TG1 ⊕ TG2,
    or per block when ``decomposable`` is set, which forces phi to preserve
    the characteristic subbundles.  The result is extended by
    g(·, Z_i) = alpha_i and phi(Z_i) = 0."""
    if k_aux.space != vp.space:
        raise ValueError("auxiliary metric lives on a different space")
    reason = polarization_precondition_violation(vp, k_aux)
    if reason:
        raise PolarizationError(reason)
    point = vp.sample_points[0]
    n = vp.dim

    dsum = vp.pair.dalpha_table(1) + vp.pair.dalpha_table(2)
    tg1, tg2 = vp.tg1.vectors, vp.tg2.vectors
    phi_blocks = []
    g_blocks = []
    for vectors in [tg1, tg2] if decomposable else [tg1 + tg2]:
        frame = column_matrix(vp.space, vectors)
        if frame.cols == 0:  # a TG block is empty for types with h = 0 or k = 0
            phi_blocks.append([])
            g_blocks.append([])
            continue
        s_exact = frame.transpose() @ dsum @ frame
        k_exact = frame.transpose() @ k_aux.matrix @ frame
        phi_block, g_block = _polarize_block(
            _float_matrix(s_exact.entries, point), _float_matrix(k_exact.entries, point)
        )
        phi_blocks.append(phi_block)
        g_blocks.append(g_block)

    basis, basis_inv = vp._adapted_basis

    zero = RatFun.zero(n)
    phi_b = [[zero for _ in range(n)] for _ in range(n)]
    g_b = [[zero for _ in range(n)] for _ in range(n)]
    offset = 0
    for phi_block, g_block in zip(phi_blocks, g_blocks):
        m = len(phi_block)
        for p in range(m):
            for q in range(m):
                phi_b[offset + p][offset + q] = RatFun.const(n, Fraction(phi_block[p][q]))
                g_b[offset + p][offset + q] = RatFun.const(n, Fraction(g_block[p][q]))
        offset += m
    g_b[offset][offset] = RatFun.one(n)
    g_b[offset + 1][offset + 1] = RatFun.one(n)

    phi_matrix = basis @ RfMatrix(n, phi_b) @ basis_inv
    g_matrix = basis_inv.transpose() @ RfMatrix(n, g_b) @ basis_inv
    return EndoField(vp.space, phi_matrix), MetricField(vp.space, g_matrix)


# --- orthogonality and Killing fields -----------------------------------------------


def are_foliations_orthogonal(vp: VerifiedPair, g: MetricField, tol: float = 0.0) -> Verdict:
    """g(u, v) = 0 for every u in the TF1 frame and v in the TF2 frame."""
    table = vp.tf1.matrix.transpose() @ g.matrix @ vp.tf2.matrix
    residuals = [
        (f"g(TF1[{p}], TF2[{q}])", table.at(p, q))
        for p in range(table.rows)
        for q in range(table.cols)
    ]
    return residual_verdict(
        residuals,
        vp,
        tol,
        detail="the characteristic foliations are g-orthogonal",
    )


def killing_check(mcp: MetricContactPair, i: int) -> dict[str, Verdict]:
    """Zero-ness of L_{Z_i} g and L_{Z_i} phi.  For an associated metric,
    which ``mcp`` guarantees, the two vanishing statements are equivalent:
    phi is Z_i-invariant exactly when Z_i is a Killing field."""
    vp = mcp.vp
    z = vp.z(i)
    lie_g = lie_derivative(z, mcp.g)
    lie_phi = lie_derivative(z, mcp.phi)
    return {
        "lie_g_zero": residual_verdict(
            matrix_residual_entries(lie_g.matrix),
            vp,
            detail=f"L_Z{i} g = 0 (Z{i} is Killing)",
        ),
        "lie_phi_zero": residual_verdict(
            matrix_residual_entries(lie_phi.matrix),
            vp,
            detail=f"L_Z{i} phi = 0",
        ),
    }


def killing_agreement(results: dict[str, Verdict]) -> Verdict:
    """The two verdicts of :func:`killing_check` must agree (the theorem is an
    equivalence, whatever the common truth value)."""
    a, b = results["lie_g_zero"], results["lie_phi_zero"]
    if a.ok == b.ok:
        value = "both vanish" if a.ok else "both nonzero"
        return Verdict.verified(f"L_Z g and L_Z phi agree ({value})")
    return Verdict.failed(
        f"lie_g_zero={a.status.value}, lie_phi_zero={b.status.value}",
        "the Killing equivalence is violated",
    )


def decomposability_orthogonality_agreement(
    cps: ContactPairStructure, g: MetricField, orthogonal: Verdict | None = None
) -> Verdict:
    """For an associated metric, phi is decomposable iff the characteristic
    foliations are orthogonal; the two verdicts must match.  Decomposability
    is the structure's own verdict (:attr:`ContactPairStructure.decomposable`);
    ``orthogonal`` may hand in :func:`are_foliations_orthogonal` of the same
    ``(cps.vp, g, cps.tol)`` when the caller already has it."""
    dec = cps.decomposable
    orth = orthogonal if orthogonal is not None else are_foliations_orthogonal(cps.vp, g, cps.tol)
    if dec.ok == orth.ok:
        value = "both hold" if dec.ok else "both fail"
        return Verdict.verified(f"decomposability ⟺ orthogonality ({value})")
    return Verdict.failed(
        f"decomposable={dec.status.value}, orthogonal={orth.status.value}",
        "the equivalence theorem is violated",
    )


# --- leafwise (restricted) verification ----------------------------------------------


@dataclass(frozen=True)
class LeafContactMetric:
    """Check the contact metric structure induced by (alpha_i, Z_i, phi, g)
    on the leaves tangent to the characteristic frame of alpha_j, j != i."""

    i: int


@dataclass(frozen=True)
class LeafMCP:
    """Check the metric contact pair induced on the leaves of ker d alpha_i
    (type (h, 0) for i = 2, type (0, k) for i = 1)."""

    i: int


def _require_invariant(
    cps: ContactPairStructure, frame: DistributionFrame, images: RfMatrix
) -> list[tuple[str, RatFun]]:
    """Raise unless the images phi F lie in span F, i.e. E·(phi F) = 0 for
    the frame's equations E, each column graded at the structure's ``tol``.
    Returns the labelled entries of E·(phi F), which the caller grades with
    its identities: at ``tol > 0`` they may be nonzero within ``tol``."""
    if not frame.equations.rows:
        return []
    label = frame.label
    leaving = frame.equations @ images
    residuals = []
    for q in range(images.cols):
        column = [(f"E·phi({label}[{q}])[{r}]", c) for r, c in enumerate(leaving.column(q))]
        if not residual_verdict(column, cps.vp, cps.tol).ok:
            raise PreconditionError(
                f"frame {label} is not phi-invariant: phi({label}[{q}]) leaves the span"
            )
        residuals.extend(column)
    return residuals


def verify_restricted_contact_metric(
    mcp: MetricContactPair, frame: DistributionFrame, mode
) -> Verdict:
    """Bundle-level verification of the structures induced on leaves, graded
    at the structure's own ``tol``.

    ``LeafContactMetric(i)`` expects the characteristic frame of alpha_j
    (j != i) and checks g(u, phi v) = d alpha_i(u, v), g(u, Z_i) = alpha_i(u)
    and phi^2 u = -u + alpha_i(u) Z_i on frame vectors.  ``LeafMCP(i)``
    expects a frame of ker d alpha_i and checks that the restricted pair is a
    contact pair of the induced type (:func:`pair_axioms` on alpha_l(F) and
    F^T W_l F, exact whatever ``tol``) with the restricted metric associated.
    Both modes raise :class:`PreconditionError` unless E·(phi F) = 0 for the
    frame's equations E; at ``tol > 0`` an E·(phi F) that vanishes only
    within ``tol`` makes the verdict at best SampleVerified.  Every
    restricted table is a product with the frame's column matrix F: the
    images phi F, the pairings F^T G phi F, the 2-form tables F^T W_l F,
    alpha_l(F) and the duality rows (Z^T G - α) F of ``mcp.associated``.
    Decomposability is the structure's own verdict
    (:attr:`ContactPairStructure.decomposable`)."""
    if not mcp.cps.decomposable.ok:
        raise PreconditionError(
            "restriction to the characteristic leaves needs decomposable phi"
        )
    vp = mcp.vp
    tol = mcp.cps.tol
    label = frame.label
    f = frame.matrix
    f_t = f.transpose()
    images = mcp.phi.matrix @ f
    pairings = f_t @ mcp.g.matrix @ images
    duality = mcp.associated.reeb_residuals @ f
    tables = {l: f_t @ vp.pair.dalpha_table(l) @ f for l in (1, 2)}

    if isinstance(mode, LeafContactMetric):
        i = mode.i
        if not frame.contains(vp.z(i)):
            return Verdict.failed(
                f"Z{i} not in span({label})",
                "the Reeb field must be tangent to the leaves",
            )
        invariance = _require_invariant(mcp.cps, frame, images)
        pairing = pairings - tables[i]
        square = _leaf_square_residual(mcp.cps, frame, i, images)
        residuals = []
        for p in range(frame.size):
            residuals.extend(
                (f"g({label}[{p}], phi {label}[{q}]) - d alpha{i}", pairing.at(p, q))
                for q in range(frame.size)
            )
            residuals.append((f"g({label}[{p}], Z{i}) - alpha{i}", duality.at(i - 1, p)))
            residuals.extend(
                (f"(phi^2 + Id - alpha{i}⊗Z{i})({label}[{p}])[{a}]", c)
                for a, c in enumerate(square.column(p))
            )
        return residual_verdict(
            residuals + invariance,
            vp,
            tol,
            detail=f"contact metric structure induced by (alpha{i}, Z{i}, phi, g) on {label}",
        )

    if isinstance(mode, LeafMCP):
        i = mode.i
        h_ind, k_ind = (vp.pair.h, 0) if i == 2 else (0, vp.pair.k)
        expected = 2 * h_ind + 2 * k_ind + 2
        if frame.size != expected:
            return Verdict.failed(
                f"frame rank {frame.size} != {expected}",
                f"leaves of ker d alpha{i} have dimension {expected}",
            )
        for l, z in ((1, vp.z1), (2, vp.z2)):
            if not frame.contains(z):
                return Verdict.failed(
                    f"Z{l} not in span({label})",
                    "both Reeb fields are tangent to the leaves of ker d alpha_i",
                )
        invariance = _require_invariant(mcp.cps, frame, images)

        alphas = vp._alpha_matrix @ f
        axioms = pair_axioms(
            (alphas.row(0), alphas.row(1)),
            (tables[1], tables[2]),
            (h_ind, k_ind),
            vp.sample_points,
            vp.space.names,
            frame=label,
        )
        volume = [axioms["volume_form"]] if "volume_form" in axioms else []
        verdicts = [
            *volume,
            residual_verdict(invariance, vp, tol),
            axioms["dalpha1_power_zero"],
            axioms["dalpha2_power_zero"],
        ]

        associated = pairings - (tables[1] + tables[2])
        associated_residuals = [
            (f"(G phi - d alpha)|{label} ({p},{q})", associated.at(p, q))
            for p in range(frame.size)
            for q in range(frame.size)
        ]
        associated_residuals.extend(
            (f"g({label}[{p}], Z{l}) - alpha{l}", duality.at(l - 1, p))
            for l in (1, 2)
            for p in range(frame.size)
        )
        verdicts.append(
            residual_verdict(
                associated_residuals,
                vp,
                tol,
                detail="restricted metric is associated to the restricted pair",
            )
        )

        return combine_verdicts(
            verdicts,
            detail=f"metric contact pair of type ({h_ind}, {k_ind}) induced on {label}",
        )

    raise TypeError(f"unknown restriction mode {mode!r}")
