"""Contact pair structures: a verified pair together with an endomorphism
field phi satisfying

    phi^2 = -Id + alpha1 ⊗ Z1 + alpha2 ⊗ Z2,      phi(Z1) = phi(Z2) = 0,

plus the derived identities (alpha_i ∘ phi = 0, rank phi = n - 2),
decomposability with respect to the characteristic subbundles, and the
builder that extends a complex structure on TG1 ⊕ TG2 by zero on the Reeb
fields.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

from .algebra import RatFun, RfMatrix, generic_rank
from .exterior import EndoField
from .pair import DistributionFrame, VerifiedPair, column_matrix
from .verdicts import Verdict, matrix_residual_entries, residual_verdict

__all__ = [
    "ContactPairStructure",
    "SubbundleComplexStructure",
    "StructureValidationError",
    "PreconditionError",
    "verify_structure",
    "is_decomposable",
    "build_phi",
    "verify_induced_almost_contact",
]


class StructureValidationError(ValueError):
    """The endomorphism does not satisfy the structure identities."""


class PreconditionError(RuntimeError):
    """An operation was invoked outside its stated hypotheses."""


def verify_structure(vp: VerifiedPair, phi: EndoField, tol: float = 0.0) -> dict[str, Verdict]:
    """Check the defining and derived identities of (alpha1, alpha2, phi).

    The squared identity is checked as an exact n x n matrix identity in basis
    coordinates, so failures come with entry-level witnesses.  ``tol`` > 0
    grades nonzero residuals by evaluation at the pair's sample points
    (needed for numeric, polarization-produced phi)."""
    if phi.space != vp.space:
        raise ValueError("phi lives on a different space")
    n = vp.dim
    nvars = n

    eye = RfMatrix.identity(n, nvars)
    reeb_outer = RfMatrix.outer(vp.z1.components, vp.alpha_row(1), nvars) + (
        RfMatrix.outer(vp.z2.components, vp.alpha_row(2), nvars)
    )
    squared_residual = (phi.matrix @ phi.matrix) + eye - reeb_outer
    out = {
        "phi_squared": residual_verdict(
            matrix_residual_entries(squared_residual),
            vp,
            tol,
            detail="phi^2 = -Id + alpha1⊗Z1 + alpha2⊗Z2",
        )
    }

    reeb_residuals = []
    for i in (1, 2):
        image = phi.apply(vp.z(i))
        reeb_residuals.extend(
            (f"(phi Z{i})[{vp.space.names[a]}]", c) for a, c in enumerate(image.components)
        )
    out["phi_reeb"] = residual_verdict(
        reeb_residuals, vp, tol, detail="phi(Z1) = phi(Z2) = 0"
    )

    annihilation = []
    for i in (1, 2):
        row = vp.alpha_row(i)
        for b in range(n):
            total = vp.space.zero()
            for a in range(n):
                if not row[a].is_zero():
                    total = total + row[a] * phi.matrix.at(a, b)
            annihilation.append((f"(alpha{i} ∘ phi)[{vp.space.names[b]}]", total))
    out["alpha_phi"] = residual_verdict(
        annihilation, vp, tol, detail="alpha_i ∘ phi = 0"
    )

    rank = generic_rank(phi.matrix)
    if rank == n - 2:
        out["rank"] = Verdict.verified(f"rank(phi) = {rank} = dim - 2")
    else:
        out["rank"] = Verdict.failed(f"rank(phi) = {rank}", f"expected {n - 2}")
    return out


@dataclass(frozen=True)
class ContactPairStructure:
    """Verified pair plus endomorphism; the two defining identities are
    enforced at construction (within ``tol`` for numeric phi).  ``verdicts``
    may hand in :func:`verify_structure` of the same ``(vp, phi, tol)``
    when the caller already has it; it is not stored."""

    vp: VerifiedPair
    phi: EndoField
    tol: float = 0.0
    verdicts: InitVar[dict[str, Verdict] | None] = None

    def __post_init__(self, verdicts):
        if verdicts is None:
            verdicts = verify_structure(self.vp, self.phi, self.tol)
        for key in ("phi_squared", "phi_reeb"):
            if not verdicts[key].ok:
                raise StructureValidationError(
                    f"{key}: {verdicts[key].witness or verdicts[key].detail}"
                )

    @property
    def space(self):
        return self.vp.space

    @property
    def sample_points(self):
        return self.vp.sample_points

    @cached_property
    def decomposable(self) -> Verdict:
        """:func:`is_decomposable` of the structure, computed once."""
        return is_decomposable(self)


def is_decomposable(cps: ContactPairStructure) -> Verdict:
    """phi preserves both characteristic subbundles: for every frame vector v
    of TF_i, alpha_i(phi v) = 0 and i_{phi v} d alpha_i = 0 (equivalently phi
    maps each TG_i onto itself).  Graded at the structure's own ``tol``."""
    vp = cps.vp
    residuals = []
    for i in (1, 2):
        alpha = vp.alpha(i)
        dalpha = vp.pair.dalpha(i)
        for idx, v in enumerate(vp.tf(i).vectors):
            image = cps.phi.apply(v)
            residuals.append((f"alpha{i}(phi TF{i}[{idx}])", alpha(image)))
            contraction = dalpha.contract(image)
            residuals.extend(
                (f"(i_(phi TF{i}[{idx}]) d alpha{i})[{vp.space.names[b]}]", c)
                for (b,), c in contraction.coeffs.items()
            )
    return residual_verdict(
        residuals,
        vp,
        cps.tol,
        detail="phi(TF_i) ⊂ TF_i for i = 1, 2",
    )


@dataclass(frozen=True)
class SubbundleComplexStructure:
    """Complex structure on a frame (of TG1 ⊕ TG2 or a single TG_i):
    a square matrix in frame coordinates squaring to -Id exactly."""

    frame: DistributionFrame
    matrix: RfMatrix

    def __post_init__(self):
        m = self.frame.size
        if self.matrix.rows != m or self.matrix.cols != m:
            raise ValueError(f"matrix must be {m} x {m} for a frame of size {m}")
        eye = RfMatrix.identity(m, self.matrix.nvars)
        if (self.matrix @ self.matrix) + eye != RfMatrix.zeros(m, m, self.matrix.nvars):
            raise StructureValidationError("J^2 != -Id in frame coordinates")


def build_phi(vp: VerifiedPair, j_structure: SubbundleComplexStructure) -> EndoField:
    """Extend a complex structure on TG1 ⊕ TG2 by zero on the Reeb fields.

    The frame need not be orthonormal or split along the TG blocks; any frame
    that generically spans TG1 ⊕ TG2 works, and correctness is re-checked by
    :func:`verify_structure` on the result."""
    frame = j_structure.frame
    if frame.space != vp.space:
        raise ValueError("frame lives on a different space")
    n = vp.dim
    m = n - 2
    if frame.size != m:
        raise StructureValidationError(
            f"frame has {frame.size} vectors; TG1 ⊕ TG2 needs {m}"
        )
    span_check = column_matrix(vp.space, vp.tg1.vectors + vp.tg2.vectors + frame.vectors)
    if generic_rank(span_check) != m:
        raise StructureValidationError("frame does not span TG1 ⊕ TG2 generically")

    basis = column_matrix(vp.space, [*frame.vectors, vp.z1, vp.z2])
    block = [
        [
            j_structure.matrix.at(i, j) if i < m and j < m else RatFun.zero(n)
            for j in range(n)
        ]
        for i in range(n)
    ]
    phi = EndoField(vp.space, basis @ RfMatrix(n, block) @ basis.inverse())

    verdicts = verify_structure(vp, phi)
    for key in ("phi_squared", "phi_reeb"):
        if not verdicts[key].ok:
            raise StructureValidationError(
                f"extension failed {key}: {verdicts[key].witness}"
            )
    return phi


def verify_induced_almost_contact(
    cps: ContactPairStructure, leaf_frame: DistributionFrame, i: int
) -> Verdict:
    """On the leaves tangent to ``leaf_frame`` (the characteristic frame of
    alpha_j, j != i), (alpha_i, Z_i, phi) restricts to an almost contact
    structure: phi^2 v = -v + alpha_i(v) Z_i for every frame vector v, with
    Z_i inside the frame's generic span.  Decomposability is the structure's
    own verdict (:attr:`ContactPairStructure.decomposable`)."""
    decomposable = cps.decomposable
    if not decomposable.ok:
        raise PreconditionError(
            f"phi is not decomposable ({decomposable.witness}); "
            "the restriction to the leaves is not defined"
        )
    vp = cps.vp
    if not leaf_frame.contains(vp.z(i)):
        return Verdict.failed(
            f"Z{i} not in span({leaf_frame.label})",
            "the Reeb field must be tangent to the leaves",
        )
    alpha = vp.alpha(i)
    z = vp.z(i)
    residuals = []
    for idx, v in enumerate(leaf_frame.vectors):
        image = cps.phi.apply(cps.phi.apply(v))
        target = (-1) * v + alpha(v) * z
        diff = image - target
        residuals.extend(
            (f"(phi^2 - (-Id + alpha{i}⊗Z{i}))({leaf_frame.label}[{idx}])[{vp.space.names[a]}]", c)
            for a, c in enumerate(diff.components)
        )
    return residual_verdict(
        residuals,
        vp,
        detail=f"almost contact structure induced by (alpha{i}, Z{i}, phi) on {leaf_frame.label}",
    )
