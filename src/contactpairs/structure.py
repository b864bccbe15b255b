"""Contact pair structures: a verified pair together with an endomorphism
field phi satisfying

    phi^2 = -Id + alpha1 ⊗ Z1 + alpha2 ⊗ Z2,      phi(Z1) = phi(Z2) = 0,

plus the derived identities (alpha_i ∘ phi = 0, rank phi = n - 2),
decomposability with respect to the characteristic subbundles, and the
almost contact structures induced on the leaves.  phi is either declared
by a fixture or built by
:func:`contactpairs.metric.build_associated_by_polarization`, the package's
one phi builder.

Each identity is a matrix product, with Z = (Z1 Z2), A the rows alpha1,
alpha2 and F the column matrix of a frame: phi^2 + Id - Z A, phi Z and
A phi; and A (phi F) and W_i^T (phi F), W_i the table of d alpha_i, for
decomposability.  The almost contact structures induced on the leaves are
not recomputed: once phi is decomposable, phi^2 = -Id + Z A and the frame
equations prove them (:func:`verify_induced_almost_contact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import RfMatrix, generic_rank
from .exterior import EndoField
from .pair import VerifiedPair
from .verdicts import Verdict, matrix_residual_entries, residual_verdict

__all__ = [
    "ContactPairStructure",
    "StructureValidationError",
    "PreconditionError",
    "verify_structure",
    "is_decomposable",
    "verify_induced_almost_contact",
]


class StructureValidationError(ValueError):
    """The endomorphism does not satisfy the structure identities."""


class PreconditionError(RuntimeError):
    """An operation was invoked outside its stated hypotheses."""


def verify_structure(vp: VerifiedPair, phi: EndoField) -> dict[str, Verdict]:
    """Check the defining and derived identities of (alpha1, alpha2, phi).

    The squared identity is checked as an exact n x n matrix identity in basis
    coordinates, so failures come with entry-level witnesses."""
    if phi.space != vp.space:
        raise ValueError("phi lives on a different space")
    n = vp.dim
    names = vp.space.names
    reeb, alphas = vp._reeb_matrix, vp._alpha_matrix

    squared_residual = phi.matrix @ phi.matrix + RfMatrix.identity(n, n) - reeb @ alphas
    out = {
        "phi_squared": residual_verdict(
            matrix_residual_entries(squared_residual),
            vp,
            detail="phi^2 = -Id + alpha1⊗Z1 + alpha2⊗Z2",
        )
    }

    # phi Z_i and alpha_i ∘ phi, each as row i - 1 of a 2 x n table
    for key, table, label, detail in (
        ("phi_reeb", (phi.matrix @ reeb).transpose(), "(phi Z{})", "phi(Z1) = phi(Z2) = 0"),
        ("alpha_phi", alphas @ phi.matrix, "(alpha{} ∘ phi)", "alpha_i ∘ phi = 0"),
    ):
        residuals = [
            (f"{label.format(i)}[{names[b]}]", table.at(i - 1, b)) for i in (1, 2) for b in range(n)
        ]
        out[key] = residual_verdict(residuals, vp, detail=detail)

    rank = generic_rank(phi.matrix)
    if rank == n - 2:
        out["rank"] = Verdict.verified(f"rank(phi) = {rank} = dim - 2")
    else:
        out["rank"] = Verdict.failed(f"rank(phi) = {rank}", f"expected {n - 2}")
    return out


@dataclass(frozen=True)
class ContactPairStructure:
    """Verified pair plus endomorphism; the two defining identities are
    enforced at construction.  :meth:`_of` builds one from a phi the package
    has itself constructed or already verified, with no check."""

    vp: VerifiedPair
    phi: EndoField

    def __post_init__(self):
        verdicts = verify_structure(self.vp, self.phi)
        for key in ("phi_squared", "phi_reeb"):
            if not verdicts[key].ok:
                raise StructureValidationError(
                    f"{key}: {verdicts[key].witness or verdicts[key].detail}"
                )

    @classmethod
    def _of(cls, vp: VerifiedPair, phi: EndoField) -> ContactPairStructure:
        """The structure of a phi known to satisfy both identities."""
        cps = object.__new__(cls)
        object.__setattr__(cps, "vp", vp)
        object.__setattr__(cps, "phi", phi)
        return cps

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


# The Verified detail text of is_decomposable, also read where a
# construction proves decomposability.
DECOMPOSABLE_DETAIL = "phi(TF_i) ⊂ TF_i for i = 1, 2"


def is_decomposable(cps: ContactPairStructure) -> Verdict:
    """phi preserves both characteristic subbundles: for every frame vector v
    of TF_i, alpha_i(phi v) = 0 and i_{phi v} d alpha_i = 0 (equivalently phi
    maps each TG_i onto itself)."""
    vp = cps.vp
    residuals = []
    for i in (1, 2):
        images = cps.phi.matrix @ vp.tf(i).matrix
        alpha_images = (vp._alpha_matrix @ images).row(i - 1)
        # column p of W_i^T (phi F_i) is i_{phi v_p} d alpha_i
        contractions = vp.pair.dalpha_table(i).transpose() @ images
        for idx in range(images.cols):
            residuals.append((f"alpha{i}(phi TF{i}[{idx}])", alpha_images[idx]))
            residuals.extend(
                (f"(i_(phi TF{i}[{idx}]) d alpha{i})[{vp.space.names[b]}]", c)
                for b, c in enumerate(contractions.column(idx))
            )
    return residual_verdict(residuals, vp, detail=DECOMPOSABLE_DETAIL)


def verify_induced_almost_contact(cps: ContactPairStructure, i: int) -> Verdict:
    """On the leaves of TF_j (j != i), (alpha_i, Z_i, phi) restricts to an
    almost contact structure: phi^2 v = -v + alpha_i(v) Z_i for every vector
    v of the TF_j frame.  Raises :class:`PreconditionError` unless phi is
    decomposable (the structure's own verdict,
    :attr:`ContactPairStructure.decomposable`).

    Nothing is computed.  The Reeb equations alpha_j(Z_i) = 0 and
    i_{Z_i} d alpha_j = 0 put Z_i in TF_j, and decomposable phi maps TF_j
    into itself.  With F the column matrix of the TF_j frame, whose
    equations give alpha_j F = 0, the identity phi^2 = -Id + Z1 alpha1 +
    Z2 alpha2 that the structure enforces gives
    phi^2 F + F - Z_i alpha_i F = Z_j alpha_j F = 0."""
    decomposable = cps.decomposable
    if not decomposable.ok:
        raise PreconditionError(
            f"phi is not decomposable ({decomposable.witness}); "
            "the restriction to the leaves is not defined"
        )
    leaf = cps.vp.tf(2 if i == 1 else 1)
    return Verdict.verified(
        f"almost contact structure induced by (alpha{i}, Z{i}, phi) on {leaf.label}"
    )
