"""Compatible and associated metrics for contact pair structures.

A metric g is *compatible* with (alpha1, alpha2, phi) when

    g(phi X, phi Y) = g(X, Y) - alpha1(X) alpha1(Y) - alpha2(X) alpha2(Y)

and *associated* when additionally g(X, phi Y) = (d alpha1 + d alpha2)(X, Y)
and g(X, Z_i) = alpha_i(X).  Both predicates are exact matrix identities in
basis coordinates.

Every table over frames is one product with their column matrices F, F'
(Z = (Z1 Z2), α the 2 x n matrix with rows alpha1, alpha2, W_l the value
table of d alpha_l): the Gram matrix TF1^T G TF2 (orthogonality), 2-form
tables F^T W_l F (the restricted volume, and polarization's
F^T (W_1 + W_2) F), the duality rows Z^T G - α and compatibility
phi^T G phi - G + α^T α.  What compatibility, associatedness and the frame
equations imply is not recomputed: the corollaries g(Z_i, ·) = alpha_i and
g(Z_i, Z_j) = delta_ij (proved in :func:`is_compatible`) and, on the leaves,
every identity but the restricted volume (proved in
:func:`verify_restricted_contact_metric`).

The polarization construction and its proof hold over the function field,
so they apply to every contact pair, whether or not d alpha_i has constant
coefficients.  A symplectic (Darboux) basis B of d alpha1 + d alpha2 on
TG1 ⊕ TG2, found by symplectic Gram–Schmidt in the frame coordinates of
[TG1 | TG2], with the Reeb fields gives the frame (B, Z1, Z2) in which g is
the identity and phi maps e_p to −f_p and f_p to e_p (McDuff–Salamon,
*Introduction to Symplectic Topology*, linear symplectic bases; Blair,
*Riemannian Geometry of Contact and Symplectic Manifolds*, associated
metrics).  The inverse of that frame is read off its Darboux relations, so
no matrix is inverted.
Note that d alpha_i vanishes identically on TG_i, so the 2-form is
block-diagonal on [TG1 | TG2]: a basis taken in frame order is per-block
(decomposable phi), and one started from TG1[0] + TG2[0] mixes the blocks.
The constructions prove their metrics compatible, resp. associated and, per
block, phi decomposable and the foliations orthogonal.  Those verdicts, like
the corollaries and the leaf identities, are reported from the proofs with
the detail texts below, not recomputed.  Only definiteness is evaluated at
the sample points, and where g has a pole at one (a pole of B that does not
cancel), its ``*_spd`` verdict is Failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import RatFun, RfMatrix, _dot, format_point
from .exterior import EndoField, MetricField, lie_derivative
from .pair import VerifiedPair, column_matrix, kernel_frame, volume_coefficient
from .structure import ContactPairStructure, PreconditionError
from .verdicts import (
    Verdict,
    combine_verdicts,
    matrix_residual_entries,
    nonvanishing_verdict,
    residual_verdict,
)

__all__ = [
    "MetricContactPair",
    "AssociatedCheckReport",
    "MetricValidationError",
    "PolarizationError",
    "is_compatible",
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


# The Verified detail texts of the checks below.  A verdict that a
# construction proves reads the same text as the check it replaces.
COMPATIBLE_DETAIL = "g(phi X, phi Y) = g(X, Y) - alpha1(X)alpha1(Y) - alpha2(X)alpha2(Y)"
# The detail texts of the corollaries that is_compatible proves.
COMPATIBLE_COROLLARY_DETAILS = {
    "reeb_duality": "g(Z_i, X) = alpha_i(X)",
    "reeb_orthonormality": "g(Z_i, Z_j) = delta_ij",
}
ASSOCIATED_DETAILS = {
    "pairing": "g(X, phi Y) = (d alpha1 + d alpha2)(X, Y)",
    "reeb": "g(X, Z_i) = alpha_i(X)",
    "skew": "g(phi X, Y) = -g(X, phi Y)",
}
ORTHOGONAL_DETAIL = "the characteristic foliations are g-orthogonal"


def is_compatible(cps: ContactPairStructure, g: MetricField) -> Verdict:
    """Exact check of  phi^T G phi = G - A^T A, with A the rows alpha1, alpha2.

    Where it holds, its corollaries need no check (Blair, *Riemannian
    Geometry of Contact and Symplectic Manifolds*, the compatible metrics).
    With Z = (Z1 Z2), the product of the identity with Z on the right is
    phi^T G (phi Z) = GZ - A^T (AZ).  phi Z = 0, which the structure
    enforces, and AZ = Id, rows of the Reeb equations, leave GZ = A^T:
    g(Z_i, X) = alpha_i(X).  Then Z^T G Z = (AZ)^T = Id:
    g(Z_i, Z_j) = delta_ij.  Both read their text from
    ``COMPATIBLE_COROLLARY_DETAILS``."""
    vp = cps.vp
    if g.space != vp.space:
        raise ValueError("metric lives on a different space")
    phi = cps.phi.matrix
    residual = phi.transpose() @ g.matrix @ phi - g.matrix + vp._alpha_gram
    return residual_verdict(matrix_residual_entries(residual), vp, detail=COMPATIBLE_DETAIL)


@dataclass(frozen=True)
class AssociatedCheckReport:
    """The verdicts of the associated-metric identities, by name
    (``pairing``, ``reeb``, ``skew``)."""

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
    duality = vp._reeb_matrix.transpose() @ g.matrix - vp._alpha_matrix  # Z^T G - α

    residuals = {
        "pairing": matrix_residual_entries(pairing),
        "reeb": [
            (f"g(Z{i}, e_{vp.space.names[b]}) - alpha{i}[{b}]", duality.at(i - 1, b))
            for i in (1, 2)
            for b in range(vp.dim)
        ],
        "skew": matrix_residual_entries(skew),
    }
    return AssociatedCheckReport(
        {
            key: residual_verdict(residuals[key], vp, detail=detail)
            for key, detail in ASSOCIATED_DETAILS.items()
        }
    )


@dataclass(frozen=True)
class MetricContactPair:
    """Contact pair structure plus an associated metric (enforced at
    construction).  :meth:`_of` builds one from a metric the caller has
    already found associated."""

    cps: ContactPairStructure
    g: MetricField

    def __post_init__(self):
        report = is_associated(self.cps, self.g)
        if not report.ok:
            raise MetricValidationError(
                f"metric is not associated: {report.verdict.witness}"
            )

    @classmethod
    def _of(cls, cps: ContactPairStructure, g: MetricField) -> MetricContactPair:
        """The metric contact pair of a g known to be associated."""
        mcp = object.__new__(cls)
        object.__setattr__(mcp, "cps", cps)
        object.__setattr__(mcp, "g", g)
        return mcp

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
    alpha_term = vp._alpha_gram
    phi = cps.phi.matrix
    phi2 = phi @ phi
    k_matrix = phi2.transpose() @ h_aux.matrix @ phi2 + alpha_term
    g_matrix = (k_matrix + phi.transpose() @ k_matrix @ phi + alpha_term).scaled(
        Fraction(1, 2)
    )
    return MetricField(vp.space, g_matrix)


# --- polarization ---------------------------------------------------------------


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
    e = TG1[0] + TG2[0], which mixes them.

    Every identity below is one of matrices over the function field, so it
    needs no constant coefficients.  phi needs no check as a structure:
    BᵀWB = Ω, AB = 0 and WZ = 0 give phi²B = BΩBᵀWB = −B, phi Z = 0 and
    phi²Z = 0, and (−Id + ZA) takes the same values on the basis
    [B | Z1 Z2], so phi² = −Id + ZA.

    Nor does g need a check of :func:`is_associated`.  AP = 0 gives
    G·phi = −WPWPW = −WBΩBᵀW, which is W on the basis [B | Z1 Z2]
    (−WBΩBᵀWB = −WBΩ² = WB, and −WBΩBᵀWZ = 0 = WZ): g(X, phi Y) =
    (d alpha1 + d alpha2)(X, Y).  AZ = Id and WZ = 0 give GZ = Aᵀ:
    g(X, Z_i) = alpha_i(X).  G is symmetric and W skew, so
    phiᵀG + G·phi = Wᵀ + W = 0.  With ``decomposable``, B = [B1 | B2] with
    the columns of B_i in TG_i, and TF_i = TG_i ⊕ ℝZ_j (j ≠ i).  g is the
    identity in the frame [B1 | B2 | Z1 Z2], so TF1 ⊥ TF2
    (:func:`are_foliations_orthogonal`); and phi maps each Darboux pair to
    itself and Z_j to 0, so phi(TF_i) ⊂ TF_i (:func:`is_decomposable`)."""
    tg1, tg2 = vp.tg1.vectors, vp.tg2.vectors
    if not decomposable and tg1 and tg2:
        tg1 = (tg1[0] + tg2[0], *tg1[1:])
    frame = column_matrix(vp.space, [*tg1, *tg2])
    w = vp.pair.dalpha_table(1) + vp.pair.dalpha_table(2)
    darboux = frame @ _darboux_frame(frame.transpose() @ w @ frame)
    phi = darboux @ (darboux.transpose() @ w)
    g = vp._alpha_gram - w @ phi
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
    return residual_verdict(residuals, vp, detail=ORTHOGONAL_DETAIL)


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
    decomposable: Verdict, orthogonal: Verdict
) -> Verdict:
    """For an associated metric, phi is decomposable (:func:`is_decomposable`)
    iff the characteristic foliations are orthogonal
    (:func:`are_foliations_orthogonal`); the two verdicts must match."""
    if decomposable.ok == orthogonal.ok:
        value = "both hold" if decomposable.ok else "both fail"
        return Verdict.verified(f"decomposability ⟺ orthogonality ({value})")
    return Verdict.failed(
        f"decomposable={decomposable.status.value}, orthogonal={orthogonal.status.value}",
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
    (h, 0) for i = 2 and (0, k) for i = 1, and the restricted metric is
    associated to it.

    Raises :class:`PreconditionError` unless phi is decomposable (the
    structure's own verdict, :attr:`ContactPairStructure.decomposable`).
    Nothing else about the two frames needs checking.  The Reeb equations
    alpha_j(Z_i) = 0 and i_{Z_l} d alpha_i = 0 put Z_i in TF_j and Z1, Z2 in
    ker d alpha_i = TF_i ⊕ R·Z_i; decomposable phi maps each TF_l into itself
    and phi Z_i = 0, so phi maps both frames into their spans; and the nest
    checks :func:`kernel_frame`'s rank, 2h' + 2k' + 2 for the induced type.

    Only the restricted volume coefficient is computed, from alpha_l(F) and
    the tables F^T W_l F, with F the frame's column matrix and W_l the table
    of d alpha_l.  The rest follows from what ``mcp`` guarantees, with A the
    rows alpha1, alpha2 and Z = (Z1 Z2).  g is associated: G phi = W_1 + W_2
    and Z^T G = A.  On TF_j the frame equations give W_j F = 0 and
    alpha_j F = 0, so F^T G phi F - F^T W_i F = F^T W_j F = 0 and
    (Z^T G - A) F = 0, and the square identity is the induced almost contact
    structure (:func:`~contactpairs.structure.verify_induced_almost_contact`).
    On ker d alpha_i, W_i F = 0, so F^T W_i F = 0 and (d alpha_i)^1 vanishes
    on the leaves; and rank F^T W_j F <= rank W_j, below 2p for the exponent
    p of the pair's own power condition of d alpha_j, which holds as the pair
    verified, and which is the induced type's exponent too.  The restricted
    metric is associated, F^T (G phi - W_1 - W_2) F = 0 and
    (Z^T G - A) F = 0, as the ambient one is."""
    if not mcp.cps.decomposable.ok:
        raise PreconditionError(
            "restriction to the characteristic leaves needs decomposable phi"
        )
    vp = mcp.vp
    leaf, kernel = vp.tf(2 if i == 1 else 1), kernel_frame(vp.pair, i)
    f = kernel.matrix
    tables = tuple(f.transpose() @ vp.pair.dalpha_table(l) @ f for l in (1, 2))
    alphas = vp._alpha_matrix @ f
    degrees = (vp.pair.h, 0) if i == 2 else (0, vp.pair.k)
    volume = nonvanishing_verdict(
        volume_coefficient((alphas.row(0), alphas.row(1)), tables, degrees),
        vp.sample_points,
        f"restricted volume coefficient on {kernel.label}",
    )
    return {
        "leaf_contact_metric": Verdict.verified(
            f"contact metric structure induced by (alpha{i}, Z{i}, phi, g) on {leaf.label}"
        ),
        "leaf_mcp": combine_verdicts(
            [volume],
            detail=f"metric contact pair of type {degrees} induced on {kernel.label}",
        ),
    }
