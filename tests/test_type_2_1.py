"""Asymmetric pair types: the (2,1) standard model on R^8 and a Lie frame
with non-integer structure constants.  Exercises the h != k code paths
(unequal wedge powers, frame ranks, block sizes)."""

from fractions import Fraction

import pytest

from contactpairs.cli import run
from contactpairs.exterior import Form, MetricField, Space
from contactpairs.fixtures import load_fixture_dict
from contactpairs.metric import (
    build_associated_by_polarization,
    build_compatible,
    is_associated,
    is_compatible,
)
from contactpairs.pair import ContactPair, Status, verified_pair, verify_contact_pair, verify_splittings
from contactpairs.structure import ContactPairStructure, is_decomposable


@pytest.fixture(scope="module")
def model_2_1():
    """alpha1 = dx5 + x1 dx2 + x3 dx4 (class 5), alpha2 = dy3 + y1 dy2."""
    space = Space.chart(["x1", "x2", "x3", "x4", "x5", "y1", "y2", "y3"])
    x1 = space.coordinate(0)
    x3 = space.coordinate(2)
    y1 = space.coordinate(5)
    alpha1 = Form(space, 1, {(4,): 1, (1,): x1, (3,): x3})
    alpha2 = Form(space, 1, {(7,): 1, (6,): y1})
    samples = (
        tuple(Fraction(0) for _ in range(8)),
        tuple(Fraction(n, 3) for n in (1, -2, 3, 1, -1, 2, 1, -3)),
    )
    return verified_pair(ContactPair(space, alpha1, alpha2, 2, 1, samples))


def test_2_1_pair_conditions(model_2_1):
    verdicts = verify_contact_pair(model_2_1.pair)
    assert all(v.status is Status.VERIFIED for v in verdicts.values())
    # (d alpha1)^2 is the nonzero top power on the x-block
    da1 = model_2_1.pair.dalpha(1)
    assert not da1.wedge_power(2).is_zero()
    assert da1.wedge_power(3).is_zero()


def test_2_1_reeb_and_frames(model_2_1):
    vp = model_2_1
    s = vp.space
    from contactpairs.exterior import VectorField

    assert vp.z1 == VectorField.basis(s, 4)  # ∂x5
    assert vp.z2 == VectorField.basis(s, 7)  # ∂y3
    assert vp.tf1.size == 3   # 2k + 1
    assert vp.tf2.size == 5   # 2h + 1
    assert vp.tg1.size == 2   # 2k
    assert vp.tg2.size == 4   # 2h
    assert verify_splittings(vp).status is Status.VERIFIED


def test_2_1_structure_and_metric_constructions(model_2_1):
    vp = model_2_1
    phi, _ = build_associated_by_polarization(vp, decomposable=True)
    cps = ContactPairStructure(vp, phi)
    assert is_decomposable(cps).status is Status.VERIFIED

    g = build_compatible(cps, MetricField.euclidean(vp.space))
    assert is_compatible(cps, g).status is Status.VERIFIED
    for point in vp.sample_points:
        assert g.is_positive_definite_at(point)


def test_2_1_polarization(model_2_1):
    vp = model_2_1
    phi, g = build_associated_by_polarization(vp, decomposable=True)
    cps = ContactPairStructure(vp, phi)
    assert is_associated(cps, g).verdict.status is Status.VERIFIED
    assert is_decomposable(cps).status is Status.VERIFIED


def test_rational_structure_constants_via_cli(tmp_path):
    """Half-integer structure equations: the pair still verifies and the
    polarization produces an associated metric with the scaled pairing."""
    data = {
        "id": "nilpotent_half",
        "backend": "lie",
        "dimension": 6,
        "frame": ["w1", "w2", "w3", "w4", "w5", "w6"],
        "structure_equations": {
            "w2": [{"i": 5, "j": 6, "coeff": "1/2"}],
            "w3": [{"i": 1, "j": 4, "coeff": "-2/3"}],
        },
        "type": [1, 1],
        "alpha1": {"w2": "1"},
        "alpha2": {"w3": "1"},
        "sample_points": [["0", "0", "0", "0", "0", "0"]],
    }
    doc = load_fixture_dict(data)
    vp = verified_pair(doc.pair)
    phi, g = build_associated_by_polarization(vp, decomposable=True)
    cps = ContactPairStructure(vp, phi)
    report = is_associated(cps, g)
    assert report.ok, report.verdict

    import json

    path = tmp_path / "nilpotent_half.json"
    path.write_text(json.dumps(data))
    cli_report = run("theorems", path)
    assert cli_report.exit_code() <= 2, {
        k: v for k, v in cli_report.verdicts.items() if not v.ok
    }
