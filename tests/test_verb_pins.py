"""What every verb reports on five fixtures: the exit code (or the usage
error), each reported verdict with its status, and each skip with its reason.
On ``oblique_g6``, whose characteristic foliations are not orthogonal, the
``orthogonal`` and ``theorems`` reports are pinned with their witnesses too,
and so is ``polarize`` on ``bent_model_1_1``, whose d alpha_i, like those of
``twisted``, have non-constant coefficients.

A verb reports the checks it names, with the skip record of each that could
not run, and the failed checks they build on; the table pins that set for
every verb.  The only float values in a report are the RK4 residuals, which
are left out, because their last digits depend on the platform's floating
point.  The exact polarized structures of ``local_model_1_1`` at its base
point are pinned entry by entry.
"""

import re
from pathlib import Path

import pytest

from contactpairs.cli import VerbUsageError, run
from contactpairs.fixtures import bundled_fixture_path

FIXTURE_DIR = Path(__file__).parent / "fixtures"
LIE_RK4_SKIP = "Lie frame: no coordinates to integrate the flow in"

# (fixture id, verb) -> the usage error's message, or
# (exit code, {status: the reported verdicts with it}, {skipped check: reason})
PINS = {
    ("flat2_mcp", "verify-pair"): (
        0,
        {"Verified": "dalpha1_power_zero dalpha2_power_zero volume_form"},
        {},
    ),
    ("flat2_mcp", "reeb"): (
        0,
        {"Verified": "reeb_commutation reeb_contraction reeb_normalization splittings"},
        {},
    ),
    ("flat2_mcp", "verify-structure"): (
        0,
        {
            "Verified": (
                "structure_alpha_phi structure_phi_reeb structure_phi_squared structure_rank"
            ),
        },
        {},
    ),
    ("flat2_mcp", "decomposable"): (
        0,
        {"Verified": "decomposable induced_almost_contact_1 induced_almost_contact_2"},
        {},
    ),
    ("flat2_mcp", "compatible"): (
        0,
        {"Verified": "compatible compatible_reeb_duality compatible_reeb_orthonormality"},
        {},
    ),
    ("flat2_mcp", "associated"): (
        0,
        {
            "Verified": (
                "associated associated_skew compatible compatible_reeb_duality "
                "compatible_reeb_orthonormality"
            ),
        },
        {},
    ),
    ("flat2_mcp", "orthogonal"): (
        0,
        {"Verified": "orthogonal"},
        {},
    ),
    ("flat2_mcp", "build-compatible"): (
        0,
        {"Verified": "built_compatible built_geodesic built_geodesy_rk4 built_totally_geodesic"},
        {},
    ),
    ("flat2_mcp", "polarize"): (
        0,
        {
            "Verified": (
                "polarized_agreement polarized_associated polarized_decomposable_agreement "
                "polarized_decomposable_associated polarized_decomposable_check "
                "polarized_decomposable_orthogonal polarized_decomposable_spd polarized_spd"
            ),
        },
        {},
    ),
    ("flat2_mcp", "geodesy"): (
        0,
        {"Verified": "geodesic geodesy_rk4 totally_geodesic"},
        {},
    ),
    ("flat2_mcp", "killing"): (
        0,
        {"Verified": "killing_1 killing_2"},
        {},
    ),
    ("flat2_mcp", "leaves"): (
        0,
        {"Verified": "leaf_contact_metric_1 leaf_contact_metric_2 leaf_mcp_1 leaf_mcp_2"},
        {},
    ),
    ("flat2_mcp", "theorems"): (
        0,
        {
            "Verified": (
                "associated associated_skew compatible compatible_reeb_duality "
                "compatible_reeb_orthonormality dalpha1_power_zero dalpha2_power_zero "
                "decomposable "
                "decomposable_orthogonal_agreement geodesic geodesy_rk4 induced_almost_contact_1 "
                "induced_almost_contact_2 killing_1 killing_2 leaf_contact_metric_1 "
                "leaf_contact_metric_2 leaf_mcp_1 leaf_mcp_2 orthogonal reeb_commutation "
                "reeb_contraction reeb_normalization splittings structure_alpha_phi "
                "structure_phi_reeb structure_phi_squared structure_rank totally_geodesic "
                "volume_form"
            ),
        },
        {},
    ),
    ("twisted", "verify-pair"): (
        2,
        {"Verified": "dalpha1_power_zero dalpha2_power_zero", "SampleVerified": "volume_form"},
        {},
    ),
    ("twisted", "reeb"): (
        0,
        {"Verified": "reeb_commutation reeb_contraction reeb_normalization splittings"},
        {},
    ),
    ("twisted", "verify-structure"): "verb 'verify-structure' needs a phi entry in the fixture",
    ("twisted", "decomposable"): "verb 'decomposable' needs a phi entry in the fixture",
    ("twisted", "compatible"): "verb 'compatible' needs a phi entry in the fixture",
    ("twisted", "associated"): "verb 'associated' needs a phi entry in the fixture",
    ("twisted", "orthogonal"): "verb 'orthogonal' needs a metric entry in the fixture",
    ("twisted", "build-compatible"): "verb 'build-compatible' needs a phi entry in the fixture",
    ("twisted", "polarize"): (
        0,
        {
            "Verified": (
                "polarized_agreement polarized_associated polarized_decomposable_agreement "
                "polarized_decomposable_associated polarized_decomposable_check "
                "polarized_decomposable_orthogonal polarized_decomposable_spd polarized_spd"
            ),
        },
        {},
    ),
    ("twisted", "geodesy"): "verb 'geodesy' needs a metric entry in the fixture",
    ("twisted", "killing"): "verb 'killing' needs a phi entry in the fixture",
    ("twisted", "leaves"): "verb 'leaves' needs a phi entry in the fixture",
    ("twisted", "theorems"): (
        2,
        {
            "Verified": (
                "dalpha1_power_zero dalpha2_power_zero polarized_agreement "
                "polarized_associated polarized_decomposable_agreement "
                "polarized_decomposable_associated polarized_decomposable_check "
                "polarized_decomposable_orthogonal polarized_decomposable_spd polarized_spd "
                "reeb_commutation reeb_contraction reeb_normalization splittings"
            ),
            "SampleVerified": "volume_form",
        },
        {
            "built_compatible": "fixture has no phi",
            "metric": "fixture has no metric",
            "structure": "fixture has no phi",
        },
    ),
    ("bent_model_1_1", "polarize"): (
        0,
        {
            "Verified": (
                "polarized_agreement polarized_associated polarized_decomposable_agreement "
                "polarized_decomposable_associated polarized_decomposable_check "
                "polarized_decomposable_orthogonal polarized_decomposable_spd polarized_spd"
            ),
        },
        {},
    ),
    ("r6_example", "verify-pair"): (
        0,
        {"Verified": "dalpha1_power_zero dalpha2_power_zero volume_form"},
        {},
    ),
    ("r6_example", "reeb"): (
        0,
        {"Verified": "reeb_commutation reeb_contraction reeb_normalization splittings"},
        {},
    ),
    ("r6_example", "verify-structure"): (
        0,
        {
            "Verified": (
                "structure_alpha_phi structure_phi_reeb structure_phi_squared structure_rank"
            ),
        },
        {},
    ),
    ("r6_example", "decomposable"): (
        1,
        {"Failed": "decomposable"},
        {"induced_almost_contact": "requires decomposable phi"},
    ),
    ("r6_example", "compatible"): (
        0,
        {"Verified": "compatible compatible_reeb_duality compatible_reeb_orthonormality"},
        {},
    ),
    ("r6_example", "associated"): (
        1,
        {
            "Verified": (
                "associated_skew compatible compatible_reeb_duality compatible_reeb_orthonormality"
            ),
            "Failed": "associated",
        },
        {},
    ),
    ("r6_example", "orthogonal"): (
        0,
        {"Verified": "orthogonal"},
        {},
    ),
    ("r6_example", "build-compatible"): (
        0,
        {"Verified": "built_compatible built_geodesic built_geodesy_rk4 built_totally_geodesic"},
        {},
    ),
    ("r6_example", "polarize"): (
        0,
        {
            "Verified": (
                "polarized_agreement polarized_associated polarized_decomposable_agreement "
                "polarized_decomposable_associated polarized_decomposable_check "
                "polarized_decomposable_orthogonal polarized_decomposable_spd polarized_spd"
            ),
        },
        {},
    ),
    ("r6_example", "geodesy"): (
        0,
        {"Verified": "geodesic geodesy_rk4 totally_geodesic"},
        {},
    ),
    ("r6_example", "killing"): (
        1,
        {"Failed": "associated"},
        {"killing": "requires an associated metric"},
    ),
    ("r6_example", "leaves"): (
        1,
        {"Failed": "associated decomposable"},
        {"leaves": "requires an associated metric and decomposable phi"},
    ),
    ("r6_example", "theorems"): (
        1,
        {
            "Verified": (
                "associated_skew compatible compatible_reeb_duality "
                "compatible_reeb_orthonormality "
                "dalpha1_power_zero dalpha2_power_zero geodesic geodesy_rk4 orthogonal "
                "reeb_commutation reeb_contraction reeb_normalization splittings "
                "structure_alpha_phi structure_phi_reeb structure_phi_squared structure_rank "
                "totally_geodesic volume_form"
            ),
            "Failed": "associated decomposable",
        },
        {
            "decomposable_orthogonal_agreement": "requires an associated metric",
            "induced_almost_contact": "requires decomposable phi",
            "killing": "requires an associated metric",
            "leaves": "requires an associated metric and decomposable phi",
        },
    ),
    ("nilpotent_g6", "verify-pair"): (
        0,
        {"Verified": "dalpha1_power_zero dalpha2_power_zero volume_form"},
        {},
    ),
    ("nilpotent_g6", "reeb"): (
        0,
        {"Verified": "reeb_commutation reeb_contraction reeb_normalization splittings"},
        {},
    ),
    ("nilpotent_g6", "verify-structure"): (
        0,
        {
            "Verified": (
                "structure_alpha_phi structure_phi_reeb structure_phi_squared structure_rank"
            ),
        },
        {},
    ),
    ("nilpotent_g6", "decomposable"): (
        0,
        {"Verified": "decomposable induced_almost_contact_1 induced_almost_contact_2"},
        {},
    ),
    ("nilpotent_g6", "compatible"): (
        0,
        {"Verified": "compatible compatible_reeb_duality compatible_reeb_orthonormality"},
        {},
    ),
    ("nilpotent_g6", "associated"): (
        0,
        {
            "Verified": (
                "associated associated_skew compatible compatible_reeb_duality "
                "compatible_reeb_orthonormality"
            ),
        },
        {},
    ),
    ("nilpotent_g6", "orthogonal"): (
        0,
        {"Verified": "orthogonal"},
        {},
    ),
    ("nilpotent_g6", "build-compatible"): (
        0,
        {"Verified": "built_compatible built_geodesic built_totally_geodesic"},
        {"built_geodesy_rk4": LIE_RK4_SKIP},
    ),
    ("nilpotent_g6", "polarize"): (
        0,
        {
            "Verified": (
                "polarized_agreement polarized_associated polarized_decomposable_agreement "
                "polarized_decomposable_associated polarized_decomposable_check "
                "polarized_decomposable_orthogonal polarized_decomposable_spd polarized_spd"
            ),
        },
        {},
    ),
    ("nilpotent_g6", "geodesy"): (
        0,
        {"Verified": "geodesic totally_geodesic"},
        {"geodesy_rk4": LIE_RK4_SKIP},
    ),
    ("nilpotent_g6", "killing"): (
        0,
        {"Verified": "killing_1 killing_2"},
        {},
    ),
    ("nilpotent_g6", "leaves"): (
        0,
        {"Verified": "leaf_contact_metric_1 leaf_contact_metric_2 leaf_mcp_1 leaf_mcp_2"},
        {},
    ),
    ("nilpotent_g6", "theorems"): (
        0,
        {
            "Verified": (
                "associated associated_skew compatible compatible_reeb_duality "
                "compatible_reeb_orthonormality dalpha1_power_zero dalpha2_power_zero "
                "decomposable "
                "decomposable_orthogonal_agreement geodesic induced_almost_contact_1 "
                "induced_almost_contact_2 killing_1 killing_2 leaf_contact_metric_1 "
                "leaf_contact_metric_2 leaf_mcp_1 leaf_mcp_2 orthogonal reeb_commutation "
                "reeb_contraction reeb_normalization splittings structure_alpha_phi "
                "structure_phi_reeb structure_phi_squared structure_rank totally_geodesic "
                "volume_form"
            ),
        },
        {"geodesy_rk4": LIE_RK4_SKIP},
    ),
    ("bad_phi", "verify-pair"): (
        0,
        {"Verified": "dalpha1_power_zero dalpha2_power_zero volume_form"},
        {},
    ),
    ("bad_phi", "reeb"): (
        0,
        {"Verified": "reeb_commutation reeb_contraction reeb_normalization splittings"},
        {},
    ),
    ("bad_phi", "verify-structure"): (
        1,
        {
            "Verified": "structure_phi_squared",
            "Failed": "structure_alpha_phi structure_phi_reeb structure_rank",
        },
        {},
    ),
    ("bad_phi", "decomposable"): (
        1,
        {"Failed": "structure_alpha_phi structure_phi_reeb structure_rank"},
        {"decomposable": "structure identities failed: structure_phi_reeb"},
    ),
    ("bad_phi", "compatible"): (
        1,
        {"Failed": "structure_alpha_phi structure_phi_reeb structure_rank"},
        {"compatible": "structure identities failed: structure_phi_reeb"},
    ),
    ("bad_phi", "associated"): (
        1,
        {"Failed": "structure_alpha_phi structure_phi_reeb structure_rank"},
        {
            "associated": "structure identities failed: structure_phi_reeb",
            "compatible": "structure identities failed: structure_phi_reeb",
        },
    ),
    ("bad_phi", "orthogonal"): (
        0,
        {"Verified": "orthogonal"},
        {},
    ),
    ("bad_phi", "build-compatible"): "build-compatible needs a valid phi",
    ("bad_phi", "polarize"): (
        0,
        {
            "Verified": (
                "polarized_agreement polarized_associated polarized_decomposable_agreement "
                "polarized_decomposable_associated polarized_decomposable_check "
                "polarized_decomposable_orthogonal polarized_decomposable_spd polarized_spd"
            ),
        },
        {},
    ),
    ("bad_phi", "geodesy"): (
        0,
        {"Verified": "geodesic geodesy_rk4 totally_geodesic"},
        {},
    ),
    ("bad_phi", "killing"): (
        1,
        {"Failed": "structure_alpha_phi structure_phi_reeb structure_rank"},
        {"killing": "structure identities failed: structure_phi_reeb"},
    ),
    ("bad_phi", "leaves"): (
        1,
        {"Failed": "structure_alpha_phi structure_phi_reeb structure_rank"},
        {"leaves": "requires an associated metric and decomposable phi"},
    ),
    ("bad_phi", "theorems"): (
        1,
        {
            "Verified": (
                "dalpha1_power_zero dalpha2_power_zero orthogonal reeb_commutation "
                "reeb_contraction reeb_normalization splittings structure_phi_squared volume_form"
            ),
            "Failed": "structure_alpha_phi structure_phi_reeb structure_rank",
        },
        {
            "associated": "structure identities failed: structure_phi_reeb",
            "compatible": "structure identities failed: structure_phi_reeb",
            "decomposable": "structure identities failed: structure_phi_reeb",
            "decomposable_orthogonal_agreement": "structure identities failed: structure_phi_reeb",
            "geodesy": "requires a compatible metric",
            "killing": "structure identities failed: structure_phi_reeb",
            "leaves": "requires an associated metric and decomposable phi",
        },
    ),
    ("oblique_g6", "orthogonal"): (1, {"Failed": "orthogonal"}, {}),
    ("oblique_g6", "theorems"): (
        1,
        {
            "Verified": (
                "dalpha1_power_zero dalpha2_power_zero decomposable induced_almost_contact_1 "
                "induced_almost_contact_2 reeb_commutation reeb_contraction reeb_normalization "
                "splittings structure_alpha_phi structure_phi_reeb structure_phi_squared "
                "structure_rank volume_form"
            ),
            "Failed": "associated associated_skew compatible orthogonal",
        },
        {
            "decomposable_orthogonal_agreement": "requires an associated metric",
            "geodesy": "requires a compatible metric",
            "killing": "requires an associated metric",
            "leaves": "requires an associated metric and decomposable phi",
        },
    ),
}
# ``report`` is ``theorems`` printed to stdout.
for fid, verb in list(PINS):
    if verb == "theorems":
        PINS[(fid, "report")] = PINS[(fid, verb)]

# (fixture id, verb) -> the witness of every Failed verdict
WITNESSES = {
    ("oblique_g6", "orthogonal"): {"orthogonal": "g(TF1[0], TF2[1]) = 1/2"},
    ("oblique_g6", "theorems"): {
        "associated": "entry (0,5) = 1/2",
        "associated_skew": "entry (0,5) = 1/2",
        "compatible": "entry (0,4) = -1/2",
        "orthogonal": "g(TF1[0], TF2[1]) = 1/2",
    },
}


def _path(fixture_id: str) -> Path:
    local = FIXTURE_DIR / f"{fixture_id}.json"
    return local if local.exists() else bundled_fixture_path(fixture_id)


@pytest.mark.parametrize("fixture_id, verb", sorted(PINS))
def test_verb_reports_pinned_checks(fixture_id, verb):
    pin = PINS[(fixture_id, verb)]
    if isinstance(pin, str):
        with pytest.raises(VerbUsageError, match=re.escape(pin)):
            run(verb, _path(fixture_id))
        return
    exit_code, statuses, skipped = pin
    report = run(verb, _path(fixture_id))
    reported: dict[str, list[str]] = {}
    for name in sorted(report.verdicts):
        reported.setdefault(report.verdicts[name].status.value, []).append(name)
    assert {status: " ".join(names) for status, names in reported.items()} == statuses
    assert report.skipped == skipped
    assert report.exit_code() == exit_code


@pytest.mark.parametrize("fixture_id, verb", sorted(WITNESSES))
def test_failed_witnesses_pinned(fixture_id, verb):
    report = run(verb, _path(fixture_id))
    failed = {name: v.witness for name, v in report.verdicts.items() if not v.ok}
    assert failed == WITNESSES[(fixture_id, verb)]


def _rows(*rows: str) -> list[list[str]]:
    return [row.split() for row in rows]


# ``polarize`` on local_model_1_1: phi and g of both polarizations at the base
# point (0, ..., 0), in the coordinates x1, x2, x3, y1, y2, y3
POLARIZED_AT_BASE = {
    "polarized_phi_at_base": _rows(
        "0 2 0 0 1 0", "-1 0 0 1 0 0", "0 0 0 0 0 0",
        "0 1 0 0 1 0", "1 0 0 -2 0 0", "0 0 0 0 0 0",
    ),
    "polarized_metric_at_base": _rows(
        "1 0 0 -1 0 0", "0 2 0 0 1 0", "0 0 1 0 0 0",
        "-1 0 0 2 0 0", "0 1 0 0 1 0", "0 0 0 0 0 1",
    ),
    "polarized_decomposable_phi_at_base": _rows(
        "0 1 0 0 0 0", "-1 0 0 0 0 0", "0 0 0 0 0 0",
        "0 0 0 0 1 0", "0 0 0 -1 0 0", "0 0 0 0 0 0",
    ),
    "polarized_decomposable_metric_at_base": _rows(
        "1 0 0 0 0 0", "0 1 0 0 0 0", "0 0 1 0 0 0",
        "0 0 0 1 0 0", "0 0 0 0 1 0", "0 0 0 0 0 1",
    ),
}


def test_polarized_outputs_at_base_pinned():
    report = run("polarize", bundled_fixture_path("local_model_1_1"))
    assert report.outputs == POLARIZED_AT_BASE
    assert report.residuals == {}
