"""Structure identities, decomposability, and the induced almost contact structures."""

import pytest

from contactpairs.algebra import generic_rank
from contactpairs.exterior import EndoField
from contactpairs.pair import ContactPair, Status, column_matrix, verified_pair
from contactpairs.structure import (
    ContactPairStructure,
    PreconditionError,
    StructureValidationError,
    is_decomposable,
    verify_induced_almost_contact,
    verify_structure,
)

from conftest import (
    LOCAL_MODEL_SAMPLES,
    NILPOTENT_SAMPLES,
    R6_SAMPLES,
    build_local_model_forms,
    build_local_model_phi,
    build_local_model_space,
    build_nilpotent_forms,
    build_nilpotent_phi,
    build_nilpotent_space,
    build_r6_forms,
    build_r6_phi,
    build_r6_space,
)


@pytest.fixture(scope="module")
def r6():
    s = build_r6_space()
    a1, a2 = build_r6_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 1, 1, tuple(R6_SAMPLES)))
    return vp, build_r6_phi(s)


@pytest.fixture(scope="module")
def nilpotent():
    s = build_nilpotent_space()
    a1, a2 = build_nilpotent_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 1, 1, tuple(NILPOTENT_SAMPLES)))
    return vp, build_nilpotent_phi(s)


@pytest.fixture(scope="module")
def local_model():
    s = build_local_model_space()
    a1, a2 = build_local_model_forms(s)
    vp = verified_pair(ContactPair(s, a1, a2, 1, 1, tuple(LOCAL_MODEL_SAMPLES)))
    return vp, build_local_model_phi(s)


def test_r6_structure_verified(r6):
    vp, phi = r6
    verdicts = verify_structure(vp, phi)
    assert all(v.status is Status.VERIFIED for v in verdicts.values()), verdicts


def test_nilpotent_structure_verified(nilpotent):
    vp, phi = nilpotent
    verdicts = verify_structure(vp, phi)
    assert all(v.status is Status.VERIFIED for v in verdicts.values())


def test_local_model_structure_verified(local_model):
    vp, phi = local_model
    verdicts = verify_structure(vp, phi)
    assert all(v.status is Status.VERIFIED for v in verdicts.values())


def test_reeb_twist_satisfies_first_identity_only(nilpotent):
    """phi(Z1) = -phi(Z2) = Z1 + Z2 satisfies the squared identity but not
    the vanishing one."""
    vp, phi = nilpotent
    mat = [list(row) for row in phi.matrix.entries]
    # columns of Z1 = X2 (index 1) and Z2 = X3 (index 2)
    mat[1][1] = vp.space.one()
    mat[2][1] = vp.space.one()
    mat[1][2] = -vp.space.one()
    mat[2][2] = -vp.space.one()
    twisted = EndoField(vp.space, mat)
    verdicts = verify_structure(vp, twisted)
    assert verdicts["phi_squared"].status is Status.VERIFIED
    assert verdicts["phi_reeb"].status is Status.FAILED


def test_zero_endomorphism_fails_squared_identity(r6):
    vp, _ = r6
    verdicts = verify_structure(vp, EndoField.zero_field(vp.space))
    assert verdicts["phi_squared"].status is Status.FAILED
    assert verdicts["rank"].status is Status.FAILED


def test_structure_constructor_enforces_identities(r6):
    vp, phi = r6
    ContactPairStructure(vp, phi)  # fine
    with pytest.raises(StructureValidationError):
        ContactPairStructure(vp, EndoField.zero_field(vp.space))


def test_r6_not_decomposable(r6):
    vp, phi = r6
    verdict = is_decomposable(ContactPairStructure(vp, phi))
    assert verdict.status is Status.FAILED
    assert verdict.witness is not None


def test_nilpotent_decomposable(nilpotent):
    vp, phi = nilpotent
    assert is_decomposable(ContactPairStructure(vp, phi)).status is Status.VERIFIED


def test_local_model_decomposable(local_model):
    vp, phi = local_model
    assert is_decomposable(ContactPairStructure(vp, phi)).status is Status.VERIFIED


def test_decomposable_preserves_tg_spans(nilpotent, local_model):
    for vp, phi in (nilpotent, local_model):
        for i in (1, 2):
            tg = vp.tg(i)
            for v in tg.vectors:
                spanned = column_matrix(vp.space, [*tg.vectors, EndoField.apply(phi, v)])
                assert generic_rank(spanned) == tg.size


# --- induced almost contact structures -----------------------------------------------


def test_induced_almost_contact_nilpotent(nilpotent):
    vp, phi = nilpotent
    cps = ContactPairStructure(vp, phi)
    for i, leaf in ((1, "TF2"), (2, "TF1")):
        verdict = verify_induced_almost_contact(cps, i)
        assert verdict.status is Status.VERIFIED
        assert verdict.detail.endswith(f"(alpha{i}, Z{i}, phi) on {leaf}")


def test_induced_almost_contact_requires_decomposable(r6):
    vp, phi = r6
    cps = ContactPairStructure(vp, phi)
    with pytest.raises(PreconditionError):
        verify_induced_almost_contact(cps, 1)


def test_induced_identity_trivial_on_reeb(nilpotent):
    """For v = Z_i the identity collapses to 0 = -Z_i + Z_i."""
    vp, phi = nilpotent
    image = phi.apply(phi.apply(vp.z1))
    target = (-1) * vp.z1 + vp.alpha(1)(vp.z1) * vp.z1
    assert (image - target).is_zero()


def test_decomposable_verdict_is_computed_once(nilpotent, r6):
    for vp, phi in (nilpotent, r6):
        cps = ContactPairStructure(vp, phi)
        assert cps.decomposable is cps.decomposable
        assert cps.decomposable == is_decomposable(cps)
