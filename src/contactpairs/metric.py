"""Compatible and associated metrics for contact pair structures.

A metric g is *compatible* with (alpha1, alpha2, phi) when

    g(phi X, phi Y) = g(X, Y) - alpha1(X) alpha1(Y) - alpha2(X) alpha2(Y)

and *associated* when additionally g(X, phi Y) = (d alpha1 + d alpha2)(X, Y)
and g(X, Z_i) = alpha_i(X).  Both predicates are exact matrix identities in
basis coordinates.

Every table over frames is one product with their column matrices F, F'
(Z = (Z1 Z2), α the 2 x n matrix with rows alpha1, alpha2, W_l the value
table of d alpha_l): Gram matrices F^T G F' (orthogonality, the leaf
pairings F^T G phi F, Z^T G Z), 2-form tables F^T W_l F (and polarization's
F^T (W_1 + W_2) F), images phi F, the duality rows (Z^T G - α) F and
compatibility phi^T G phi - G + α^T α.  The leaf checks take the leaf
index i and read the frames off the pair, TF_j (j != i) and ker d alpha_i;
the Reeb equations and decomposability already place the Reeb fields in
them and make them phi-invariant.

The polarization construction is exact over the function field.  A
symplectic (Darboux) basis B of d alpha1 + d alpha2 on TG1 ⊕ TG2, found by
symplectic Gram–Schmidt in the frame coordinates of [TG1 | TG2], with the
Reeb fields gives the frame (B, Z1, Z2) in which g is the identity and phi
maps e_p to −f_p and f_p to e_p (McDuff–Salamon, *Introduction to
Symplectic Topology*, linear symplectic bases; Blair, *Riemannian Geometry
of Contact and Symplectic Manifolds*, associated metrics).  The inverse of
that frame is read off its Darboux relations, so no matrix is inverted.
Note that d alpha_i vanishes identically on TG_i, so the 2-form is
block-diagonal on [TG1 | TG2]: a basis taken in frame order is per-block
(decomposable phi), and one started from TG1[0] + TG2[0] mixes the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import RatFun, RfMatrix, _dot, format_point
from .exterior import EndoField, MetricField, lie_derivative
from .pair import (
    DistributionFrame,
    VerifiedPair,
    _reeb_gram,
    column_matrix,
    kernel_frame,
    pair_axioms,
)
from .structure import ContactPairStructure, PreconditionError, _leaf_square_residual
from .verdicts import (
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
    """The polarization could not be carried out."""


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
    """Exact checks of G·Phi = A and g(·, Z_i) = alpha_i."""
    vp = cps.vp
    if g.space != vp.space:
        raise ValueError("metric lives on a different space")
    a_matrix = vp.pair.dalpha_table(1) + vp.pair.dalpha_table(2)
    g_phi = g.matrix @ cps.phi.matrix
    pairing = g_phi - a_matrix
    skew = g_phi.transpose() + g_phi  # Φᵀ G = (G Φ)ᵀ, as G is symmetric

    duality = _duality_rows(vp, g)

    verdicts = {
        "pairing": residual_verdict(
            matrix_residual_entries(pairing),
            vp,
            detail="g(X, phi Y) = (d alpha1 + d alpha2)(X, Y)",
        ),
        "reeb": residual_verdict(
            _reeb_duality(vp, duality), vp, detail="g(X, Z_i) = alpha_i(X)"
        ),
        "skew": residual_verdict(
            matrix_residual_entries(skew),
            vp,
            detail="g(phi X, Y) = -g(X, phi Y)",
        ),
    }
    return AssociatedCheckReport(pairing, skew, duality, verdicts)


@dataclass(frozen=True)
class MetricContactPair:
    """Contact pair structure plus an associated metric (enforced at
    construction).  ``associated`` is the
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

    Raises :class:`MetricValidationError` unless h is positive definite at
    every sample point.  The result needs no check (Blair, *Riemannian
    Geometry of Contact and Symplectic Manifolds*, the averaging of
    compatible metrics).  The identities phi^2 = -Id + Z A and phi Z = 0,
    which the structure enforces, give phi^3 = -phi and A phi = 0, so
    k(phi^2 X, phi^2 Y) = k(X, Y) - A^T A and g is compatible exactly.  And
    2 g(X, X) = h(phi^2 X, phi^2 X) + h(phi X, phi X) + 2|A X|^2 vanishes only
    where phi X = 0 = A X, that is X = 0.  So g is positive definite wherever
    h is and alpha1, alpha2, phi and Z are finite, as at every sample point:
    the loader refuses a pole of alpha1, alpha2 or phi there, and the volume
    coefficient, nonzero there, keeps the Reeb system solvable."""
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
    return MetricField(vp.space, g_matrix)


# --- polarization ---------------------------------------------------------------


def polarization_precondition_violation(vp: VerifiedPair) -> str | None:
    """Polarization is restricted to constant-coefficient 2-forms: both
    d alpha_i must have constant coefficients (always true on Lie frames;
    true on Darboux-type charts)."""
    for i in (1, 2):
        if any(not c.is_constant() for c in vp.pair.dalpha(i).coeffs.values()):
            return f"d alpha{i} has non-constant coefficients"
    return None


def _darboux_frame(s: RfMatrix) -> RfMatrix:
    """The columns e_1, f_1, e_2, f_2, … of a symplectic basis of the
    nondegenerate skew form ω(u, v) = uᵀ S v, so that DᵀSD = Ω with
    ω(e_p, f_p) = 1 and every other pairing 0.

    Symplectic Gram–Schmidt on the unit vectors, in order: take the first
    remaining vector e, as its partner f the remaining v with ω(e, v) ≠ 0 of
    lowest ``degree_size`` (lowest index on a tie), scaled to ω(e, f) = 1,
    and project every other v to v − ω(v, f)e + ω(v, e)f, which is ω-orthogonal
    to e and f."""
    m, nvars = s.rows, s.nvars
    zero, one = RatFun.zero(nvars), RatFun.one(nvars)
    rest = [[one if i == j else zero for i in range(m)] for j in range(m)]
    columns = []
    while rest:
        e = rest.pop(0)
        s_e = s.apply(e)
        with_e = [_dot(nvars, zip(v, s_e)) for v in rest]  # ω(v, e) = −ω(e, v)
        partners = [(w.degree_size(), q) for q, w in enumerate(with_e) if not w.is_zero()]
        if not partners:
            raise PolarizationError(
                "d alpha1 + d alpha2 is degenerate on TG1 ⊕ TG2; pair conditions violated"
            )
        q = min(partners)[1]
        scale = -with_e.pop(q).inverse()
        f = [x * scale for x in rest.pop(q)]
        s_f = s.apply(f)
        for p, (v, ve) in enumerate(zip(rest, with_e)):
            vf = _dot(nvars, zip(v, s_f))
            if ve.is_zero() and vf.is_zero():
                continue
            rest[p] = [_dot(nvars, ((one, x), (-vf, a), (ve, b))) for x, a, b in zip(v, e, f)]
        columns += [e, f]
    return RfMatrix(nvars, columns).transpose()


def build_associated_by_polarization(
    vp: VerifiedPair, decomposable: bool
) -> tuple[EndoField, MetricField]:
    """Produce (phi, g) with g associated to (alpha1, alpha2, phi), exactly.

    With F = [TG1 | TG2] and W the table of d alpha1 + d alpha2, the
    columns of B = F·D, D the :func:`_darboux_frame` of FᵀWF, span
    TG1 ⊕ TG2 with BᵀWB = Ω.  Then phi e = −f, phi f = e, phi Z_i = 0 and
    g the identity in the frame (B, Z1, Z2) give phi = P·W and
    g = AᵀA − W·P·W, with P = BBᵀ and A the rows alpha1, alpha2, since the
    rows [−ΩBᵀW ; A] invert [B | Z1 Z2] (i_{Z_j} d alpha_i = 0).  FᵀWF is
    block-diagonal, as d alpha_i vanishes on TG_i, so with ``decomposable``
    every Darboux pair lies in one block and phi preserves both subbundles;
    otherwise, when both blocks are nonempty, the frame starts from
    e = TG1[0] + TG2[0], which mixes them."""
    reason = polarization_precondition_violation(vp)
    if reason:
        raise PolarizationError(reason)
    tg1, tg2 = vp.tg1.vectors, vp.tg2.vectors
    if not decomposable and tg1 and tg2:
        tg1 = (tg1[0] + tg2[0], *tg1[1:])
    frame = column_matrix(vp.space, [*tg1, *tg2])
    w = vp.pair.dalpha_table(1) + vp.pair.dalpha_table(2)
    darboux = frame @ _darboux_frame(frame.transpose() @ w @ frame)
    phi = darboux @ (darboux.transpose() @ w)
    alphas = vp._alpha_matrix
    g = alphas.transpose() @ alphas - w @ phi
    return EndoField(vp.space, phi), MetricField(vp.space, g)


# --- orthogonality and Killing fields -----------------------------------------------


def are_foliations_orthogonal(vp: VerifiedPair, g: MetricField) -> Verdict:
    """g(u, v) = 0 for every u in the TF1 frame and v in the TF2 frame."""
    table = vp.tf1.matrix.transpose() @ g.matrix @ vp.tf2.matrix
    residuals = [
        (f"g(TF1[{p}], TF2[{q}])", table.at(p, q))
        for p in range(table.rows)
        for q in range(table.cols)
    ]
    return residual_verdict(
        residuals, vp, detail="the characteristic foliations are g-orthogonal"
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
    ``(cps.vp, g)`` when the caller already has it."""
    dec = cps.decomposable
    orth = orthogonal if orthogonal is not None else are_foliations_orthogonal(cps.vp, g)
    if dec.ok == orth.ok:
        value = "both hold" if dec.ok else "both fail"
        return Verdict.verified(f"decomposability ⟺ orthogonality ({value})")
    return Verdict.failed(
        f"decomposable={dec.status.value}, orthogonal={orth.status.value}",
        "the equivalence theorem is violated",
    )


# --- leafwise (restricted) verification ----------------------------------------------


def verify_restricted_contact_metric(mcp: MetricContactPair, i: int) -> dict[str, Verdict]:
    """The structures the metric contact pair induces on the leaves of index
    i, by name.

    ``leaf_contact_metric``: on the leaves of TF_j (j != i), (alpha_i, Z_i,
    phi, g) is a contact metric structure: g(u, phi v) = d alpha_i(u, v),
    g(u, Z_i) = alpha_i(u) and phi^2 u = -u + alpha_i(u) Z_i on the frame
    vectors.  ``leaf_mcp``: on the leaves of ker d alpha_i
    (:func:`kernel_frame`), the restricted pair is a contact pair of type
    (h, 0) for i = 2 and (0, k) for i = 1 (:func:`pair_axioms` on alpha_l(F)
    and F^T W_l F), and the restricted metric is associated to it.

    Raises :class:`PreconditionError` unless phi is decomposable (the
    structure's own verdict, :attr:`ContactPairStructure.decomposable`).
    Nothing else about the two frames needs checking.  The Reeb equations
    alpha_j(Z_i) = 0 and i_{Z_l} d alpha_i = 0 put Z_i in TF_j and Z1, Z2 in
    ker d alpha_i = TF_i ⊕ R·Z_i; decomposable phi maps each TF_l into itself
    and phi Z_i = 0, so phi maps both frames into their spans; and
    :func:`kernel_frame` has the rank 2h' + 2k' + 2 of the induced type.
    Every restricted table is a product with the frame's column matrix F:
    the images phi F, the pairings F^T G phi F, the 2-form tables F^T W_l F,
    alpha_l(F) and the duality rows (Z^T G - α) F of ``mcp.associated``."""
    if not mcp.cps.decomposable.ok:
        raise PreconditionError(
            "restriction to the characteristic leaves needs decomposable phi"
        )
    vp = mcp.vp
    return {
        "leaf_contact_metric": _leaf_contact_metric(mcp, i, vp.tf(2 if i == 1 else 1)),
        "leaf_mcp": _leaf_mcp(mcp, i, kernel_frame(vp.pair, i)),
    }


def _leaf_contact_metric(mcp: MetricContactPair, i: int, frame: DistributionFrame) -> Verdict:
    vp, label, f = mcp.vp, frame.label, frame.matrix
    f_t = f.transpose()
    images = mcp.phi.matrix @ f
    pairing = f_t @ mcp.g.matrix @ images - f_t @ vp.pair.dalpha_table(i) @ f
    duality = mcp.associated.reeb_residuals @ f
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
        residuals,
        vp,
        detail=f"contact metric structure induced by (alpha{i}, Z{i}, phi, g) on {label}",
    )


def _leaf_mcp(mcp: MetricContactPair, i: int, frame: DistributionFrame) -> Verdict:
    vp, label, f = mcp.vp, frame.label, frame.matrix
    f_t = f.transpose()
    tables = tuple(f_t @ vp.pair.dalpha_table(l) @ f for l in (1, 2))
    h_ind, k_ind = (vp.pair.h, 0) if i == 2 else (0, vp.pair.k)
    alphas = vp._alpha_matrix @ f
    axioms = pair_axioms(
        (alphas.row(0), alphas.row(1)),
        tables,
        (h_ind, k_ind),
        vp.sample_points,
        vp.space.names,
        frame=label,
    )
    volume = [axioms["volume_form"]] if "volume_form" in axioms else []
    verdicts = [*volume, axioms["dalpha1_power_zero"], axioms["dalpha2_power_zero"]]

    associated = f_t @ mcp.g.matrix @ (mcp.phi.matrix @ f) - (tables[0] + tables[1])
    duality = mcp.associated.reeb_residuals @ f
    residuals = [
        (f"(G phi - d alpha)|{label} ({p},{q})", associated.at(p, q))
        for p in range(frame.size)
        for q in range(frame.size)
    ]
    residuals.extend(
        (f"g({label}[{p}], Z{l}) - alpha{l}", duality.at(l - 1, p))
        for l in (1, 2)
        for p in range(frame.size)
    )
    verdicts.append(
        residual_verdict(
            residuals, vp, detail="restricted metric is associated to the restricted pair"
        )
    )
    return combine_verdicts(
        verdicts,
        detail=f"metric contact pair of type ({h_ind}, {k_ind}) induced on {label}",
    )
