"""Fixture loading and validation, CLI verbs, reports, and exit codes."""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactpairs import cli
from contactpairs.cli import CHECKS, VERBS, VerbUsageError, main, run
from contactpairs.exterior import MetricField
from contactpairs.fixtures import (
    FixtureError,
    bundled_fixture_names,
    bundled_fixture_path,
    load_fixture,
    load_fixture_dict,
)
from contactpairs.metric import (
    MetricContactPair,
    are_foliations_orthogonal,
    build_associated_by_polarization,
    build_compatible,
    decomposability_orthogonality_agreement,
    is_associated,
    is_compatible,
)
from contactpairs.pair import Status, verified_pair
from contactpairs.report import render_report
from contactpairs.structure import ContactPairStructure, is_decomposable

from conftest import (
    LEAF_CASES,
    compatible_corollaries,
    fixture_doc,
    induced_almost_contact,
    leaf_contact_metric,
    leaf_mcp,
    lie_rung,
    polarized_doc,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


# --- loading ---------------------------------------------------------------------


def test_bundled_fixtures_load():
    for name in bundled_fixture_names():
        doc = load_fixture(bundled_fixture_path(name))
        assert doc.pair.dim == 6
        assert doc.pair.h == 1 and doc.pair.k == 1


def test_local_model_loads_with_phi_no_metric():
    doc = load_fixture(bundled_fixture_path("local_model_1_1"))
    assert doc.phi is not None and doc.metric is None


def test_nilpotent_structure_equations_match():
    doc = load_fixture(bundled_fixture_path("nilpotent_g6"))
    space = doc.space
    # d w3 = w1 ^ w4
    dw3 = space.covector_differential(2)
    assert dw3.coefficient((0, 3)) == space.one()
    assert len(dw3.coeffs) == 1


def test_schema_violation_reports_field_path():
    with pytest.raises(FixtureError, match=r"^\$: 'alpha2' is a required property$"):
        load_fixture(fixture_path("bad_schema.json"))


def test_jacobi_violation_reports_covector():
    with pytest.raises(FixtureError, match="Jacobi"):
        load_fixture(fixture_path("bad_jacobi.json"))


def test_dimension_mismatch_detected():
    data = json.loads(bundled_fixture_path("r6_example").read_text())
    data["type"] = [2, 1]
    with pytest.raises(FixtureError, match="type"):
        load_fixture_dict(data)


def test_unknown_covector_in_alpha():
    data = json.loads(bundled_fixture_path("r6_example").read_text())
    data["alpha1"] = {"nope": "1"}
    with pytest.raises(FixtureError, match="nope"):
        load_fixture_dict(data)


_DROP = object()


def _bundled(name: str) -> dict:
    return json.loads(bundled_fixture_path(name).read_text())


def _json_path(keys) -> str:
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def _changed(data, keys, value):
    """``data`` with the entry at ``keys`` set to ``value`` (deleted for
    ``_DROP``); no keys replace the whole document."""
    if not keys:
        return value
    *parents, last = keys
    node = data
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return data


# case: (bundled fixture, keys of the entry to change, its new value, the path the error names)
MALFORMED = {
    "not an object": ("r6_example", (), [], "$"),
    "unknown key": ("r6_example", ("comment",), "hi", "$"),
    "required key": ("r6_example", ("sample_points",), _DROP, "$"),
    "chart without coordinates": ("r6_example", ("coordinates",), _DROP, "$"),
    "lie without frame": ("nilpotent_g6", ("frame",), _DROP, "$"),
    "lie without structure_equations": ("nilpotent_g6", ("structure_equations",), _DROP, "$"),
    "empty id": ("r6_example", ("id",), "", "$.id"),
    "id not a string": ("r6_example", ("id",), 6, "$.id"),
    "unknown backend": ("r6_example", ("backend",), "euclid", "$.backend"),
    "dimension below 2": ("r6_example", ("dimension",), 1, "$.dimension"),
    "dimension not integral": ("r6_example", ("dimension",), 6.5, "$.dimension"),
    "name not an identifier": ("r6_example", ("coordinates", 0), "1x", "$.coordinates[0]"),
    "name not a string": ("nilpotent_g6", ("frame", 2), None, "$.frame[2]"),
    "one name": ("r6_example", ("coordinates",), ["x"], "$.coordinates"),
    "repeated name": ("r6_example", ("coordinates", 1), "x1", "$.coordinates"),
    "equations not an object": ("nilpotent_g6", ("structure_equations",), [], "$.structure_equations"),
    "equation entries not a list": (
        "nilpotent_g6", ("structure_equations", "w2"), {"i": 5}, "$.structure_equations.w2"
    ),
    "equation entry lacks coeff": (
        "nilpotent_g6", ("structure_equations", "w2", 0, "coeff"), _DROP,
        "$.structure_equations.w2[0]",
    ),
    "equation entry with another key": (
        "nilpotent_g6", ("structure_equations", "w2", 0, "k"), 1, "$.structure_equations.w2[0]"
    ),
    "equation index below 1": (
        "nilpotent_g6", ("structure_equations", "w2", 0, "i"), 0,
        "$.structure_equations.w2[0].i",
    ),
    "equation coeff not a string": (
        "nilpotent_g6", ("structure_equations", "w2", 0, "coeff"), 1,
        "$.structure_equations.w2[0].coeff",
    ),
    "empty alpha": ("r6_example", ("alpha1",), {}, "$.alpha1"),
    "alpha coefficient not a string": ("r6_example", ("alpha2", "z2"), 1, "$.alpha2.z2"),
    "type not a list": ("r6_example", ("type",), "11", "$.type"),
    "type of one entry": ("r6_example", ("type",), [2], "$.type"),
    "negative type entry": ("r6_example", ("type", 1), -1, "$.type[1]"),
    "type entry not integral": ("r6_example", ("type", 0), 0.5, "$.type[0]"),
    "matrix not a list": ("nilpotent_g6", ("aux_metric",), {}, "$.aux_metric"),
    "matrix row not a list": ("r6_example", ("phi", 3), "0", "$.phi[3]"),
    "matrix entry not a string": ("nilpotent_g6", ("metric", 1, 1), 1, "$.metric[1][1]"),
    "no sample point": ("r6_example", ("sample_points",), [], "$.sample_points"),
    "sample point not a list": ("r6_example", ("sample_points", 0), "0", "$.sample_points[0]"),
    "sample coordinate not a string": (
        "r6_example", ("sample_points", 0, 0), 0, "$.sample_points[0][0]"
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_field_is_a_fixture_error_naming_its_path(case, tmp_path, capsys):
    name, keys, value, path = MALFORMED[case]
    data = _changed(_bundled(name), keys, value)
    with pytest.raises(FixtureError) as info:
        load_fixture_dict(data)
    assert str(info.value).startswith(f"{path}: ") and info.value.path == path
    file = tmp_path / "malformed.json"
    file.write_text(json.dumps(data))
    assert main(["theorems", str(file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "name, keys",
    [
        ("r6_example", ("dimension",)),
        ("r6_example", ("type", 0)),
        ("r6_example", ("type", 1)),
        ("nilpotent_g6", ("structure_equations", "w3", 0, "i")),
        ("nilpotent_g6", ("structure_equations", "w3", 0, "j")),
    ],
    ids=lambda v: _json_path(v) if isinstance(v, tuple) else v,
)
def test_integral_float_reads_as_its_integer(name, keys, tmp_path, capsys):
    """An integer field accepts 6.0 for 6 and gives the same report; a
    boolean is no integer."""
    expected = render_report(run("reeb", bundled_fixture_path(name)), include_timings=False)
    value = _bundled(name)
    for key in keys:
        value = value[key]
    path = tmp_path / "integral.json"
    path.write_text(json.dumps(_changed(_bundled(name), keys, float(value))))
    assert render_report(run("reeb", path), include_timings=False) == expected
    path.write_text(json.dumps(_changed(_bundled(name), keys, True)))
    assert main(["reeb", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {_json_path(keys)}: expected an integer, got true\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
_FIELDS = [(name, key) for name in bundled_fixture_names() for key in _bundled(name)]


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_JSON_VALUES)
def test_any_json_value_in_a_field_loads_or_is_a_fixture_error(field, value):
    name, key = field
    try:
        load_fixture_dict(dict(_bundled(name), **{key: value}))
    except FixtureError:
        pass


def test_cli_import_loads_no_jsonschema():
    import contactpairs

    src = str(Path(contactpairs.__file__).parents[1])
    code = "import sys, contactpairs.cli; print(sorted(m for m in sys.modules if 'jsonschema' in m))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src
    )
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")), ids=lambda p: p.name)
def test_every_test_fixture_loads_or_is_a_fixture_error(path):
    try:
        load_fixture(path)
    except FixtureError:
        pass


def test_deeply_nested_expression_is_a_fixture_error(capsys):
    """alpha2.y of deep_parens.json is 1 inside 200 pairs of parentheses,
    deeper than the recursive-descent parser can go."""
    assert main(["verify-pair", str(fixture_path("deep_parens.json"))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: $.alpha2.y: bad expression '((")
    assert "parentheses nested too deeply" in err


def test_metric_must_be_spd_at_samples():
    data = json.loads(bundled_fixture_path("nilpotent_g6").read_text())
    data["metric"][0][0] = "-1"
    with pytest.raises(FixtureError, match="positive definite"):
        load_fixture_dict(data)


# --- verbs and exit codes --------------------------------------------------------------


def test_theorems_nilpotent_all_verified():
    report = run("theorems", bundled_fixture_path("nilpotent_g6"))
    assert report.exit_code() == 0
    assert all(v.status is Status.VERIFIED for v in report.verdicts.values())


def test_theorems_r6_fails_exactly_associated_and_decomposable():
    report = run("theorems", bundled_fixture_path("r6_example"))
    assert report.exit_code() == 1
    failed = {k for k, v in report.verdicts.items() if v.status is Status.FAILED}
    assert failed == {"associated", "decomposable"}
    for key, verdict in report.verdicts.items():
        if key not in failed:
            assert verdict.status is Status.VERIFIED, (key, verdict)


def test_theorems_local_model_within_exit_2():
    report = run("theorems", bundled_fixture_path("local_model_1_1"))
    assert report.exit_code() <= 2
    assert all(v.ok for v in report.verdicts.values())


def test_associated_verb_on_r6():
    report = run("associated", bundled_fixture_path("r6_example"))
    assert report.exit_code() == 1
    assert report.verdicts["associated"].status is Status.FAILED
    assert report.verdicts["compatible"].status is Status.VERIFIED


def test_compatible_verb_exit_zero_on_r6():
    report = run("compatible", bundled_fixture_path("r6_example"))
    assert report.exit_code() == 0


def test_verify_pair_on_degenerate_fixture():
    report = run("verify-pair", fixture_path("degenerate_pair.json"))
    assert report.exit_code() == 1
    assert report.verdicts["volume_form"].status is Status.FAILED
    assert "0" in report.verdicts["volume_form"].witness


def test_verify_pair_records_the_skipped_volume(tmp_path, capsys):
    """(d alpha1)^1 = d(xy dx) != 0: the volume gets no verdict but a skip
    record that names the failed condition."""
    data = json.loads(fixture_path("flat2_mcp.json").read_text())
    data["alpha1"] = {"x": "x*y"}
    path = tmp_path / "power_fails.json"
    path.write_text(json.dumps(data))
    report = run("verify-pair", path)
    assert report.exit_code() == 1
    assert "volume_form" not in report.verdicts
    assert report.skipped["volume_form"].startswith("(d alpha1)^1 = 0 does not hold")
    assert main(["verify-pair", str(path)]) == 1
    assert "volume_form: skipped ((d alpha1)^1 = 0 does not hold" in capsys.readouterr().out


def test_twisted_fixture_sample_verified_exit_2():
    report = run("theorems", fixture_path("twisted.json"))
    assert report.exit_code() == 2
    assert report.verdicts["volume_form"].status is Status.SAMPLE_VERIFIED


def test_flat2_mcp_theorems_all_verified():
    report = run("theorems", fixture_path("flat2_mcp.json"))
    assert report.exit_code() == 0, {
        k: v for k, v in report.verdicts.items() if not v.ok
    }


def test_geodesy_verb():
    report = run("geodesy", bundled_fixture_path("r6_example"))
    assert report.exit_code() == 0
    assert set(report.verdicts) == {"geodesic", "totally_geodesic", "geodesy_rk4"}
    assert report.residuals["geodesy_rk4_z1"] < 1e-8


def test_polarize_verb_on_metric_fixture():
    report = run("polarize", bundled_fixture_path("r6_example"))
    assert report.exit_code() <= 2
    assert report.verdicts["polarized_spd"].ok
    assert report.verdicts["polarized_agreement"].ok


def test_killing_and_leaves_verbs():
    report = run("killing", bundled_fixture_path("nilpotent_g6"))
    assert report.exit_code() == 0
    assert set(report.verdicts) == {"killing_1", "killing_2"}

    report = run("leaves", bundled_fixture_path("nilpotent_g6"))
    assert report.exit_code() == 0
    assert set(report.verdicts) == {
        "leaf_contact_metric_1",
        "leaf_contact_metric_2",
        "leaf_mcp_1",
        "leaf_mcp_2",
    }


def test_build_compatible_verb_outputs_metric():
    report = run("build-compatible", bundled_fixture_path("local_model_1_1"))
    assert report.exit_code() == 0
    assert "built_metric" in report.outputs
    assert report.verdicts["built_compatible"].status is Status.VERIFIED


def test_verb_requires_phi():
    with pytest.raises(VerbUsageError):
        run("decomposable", fixture_path("twisted.json"))


def test_verb_requires_metric():
    with pytest.raises(VerbUsageError):
        run("associated", bundled_fixture_path("local_model_1_1"))


def test_extra_samples_option():
    report = run("theorems", bundled_fixture_path("nilpotent_g6"), samples=3, seed=7)
    assert report.exit_code() == 0


def test_run_refuses_a_negative_sample_count():
    """The library entry point refuses what the parser refuses, instead of
    appending no points."""
    with pytest.raises(VerbUsageError, match="^samples is -2; "):
        run("theorems", bundled_fixture_path("nilpotent_g6"), samples=-2)


def test_failed_structure_is_the_skip_reason(capsys):
    """phi is present but phi(Z2) != 0: the checks built on the structure
    say so instead of claiming the fixture has no phi."""
    reason = "structure identities failed: structure_phi_reeb"
    report = run("theorems", fixture_path("bad_phi.json"))
    assert report.verdicts["structure_phi_reeb"].status is Status.FAILED
    for key in (
        "decomposable",
        "compatible",
        "associated",
        "killing",
        "decomposable_orthogonal_agreement",
    ):
        assert report.skipped[key] == reason, key
    assert main(["compatible", str(fixture_path("bad_phi.json"))]) == 1
    assert f"compatible: skipped ({reason})" in capsys.readouterr().out


ALL_FIXTURES = [bundled_fixture_path(n) for n in bundled_fixture_names()] + sorted(
    FIXTURE_DIR.glob("*.json")
)


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_single_verbs_keep_the_skip_records_of_their_checks(path):
    """A skip record that ``theorems`` writes for a check, under the check's
    name or under one of its report names that names no other check, is in
    the report of every single verb naming that check, with the same reason,
    unless the verb ran the check."""
    try:
        everything = run("theorems", path)
    except FixtureError:
        return
    for verb, targets in VERBS.items():
        if targets is None:
            continue
        try:
            report = run(verb, path)
        except VerbUsageError:
            continue
        for name in targets:
            keys = CHECKS[name].keys
            if any(v.startswith(keys) for v in report.verdicts):
                continue  # the verb ran the check
            for record, reason in everything.skipped.items():
                if record == name or (record not in CHECKS and record.startswith(keys)):
                    assert report.skipped.get(record) == reason, (verb, record)


def _flat2_with(tmp_path, metric, points):
    data = json.loads(fixture_path("flat2_mcp.json").read_text())
    data.update(metric=metric, sample_points=points)
    path = tmp_path / "flat2_variant.json"
    path.write_text(json.dumps(data))
    return path


def test_metric_pole_at_sample_point_is_a_fixture_error(tmp_path, capsys):
    path = _flat2_with(tmp_path, [["1", "0"], ["0", "1/x"]], [["0", "1"]])
    with pytest.raises(FixtureError, match=r"\$\.sample_points\[0\]"):
        load_fixture(path)
    assert main(["orthogonal", str(path)]) == 3
    assert "$.sample_points[0]" in capsys.readouterr().err


def test_extra_samples_are_validated_like_declared_points(tmp_path, capsys):
    """--samples 6 --seed 3 appends (-3/2, -1/4) as point 1, where
    g_yy = x + 1 = -1/2."""
    path = _flat2_with(tmp_path, [["1", "0"], ["0", "x+1"]], [["1", "1"]])
    assert main(["orthogonal", str(path)]) == 0
    capsys.readouterr()
    assert main(["orthogonal", str(path), "--samples", "6", "--seed", "3"]) == 3
    err = capsys.readouterr().err
    assert "$.sample_points[1]" in err and "not positive definite" in err


_POLES = (("aux_pole", "aux_metric"), ("alpha_pole", "alpha2"), ("phi_pole", "phi"))


@pytest.mark.parametrize(
    "name, field, verb",
    [
        # aux_pole's cases keep their plain verb ids
        pytest.param(name, field, verb, id=verb if name == "aux_pole" else f"{name}-{verb}")
        for name, field in _POLES
        for verb in ("build-compatible", "theorems")
    ],
)
def test_aux_metric_pole_at_sample_point_is_a_fixture_error(name, field, verb, capsys):
    """A pole of any field at a sample point is refused by the loader, so
    no verb evaluates it there: alpha_pole's alpha2 = dy + dx/x and
    phi_pole's phi(d/dy2) = -(1/x1) d/dy1 at the origin."""
    path = fixture_path(f"{name}.json")
    message = f"$.sample_points[0]: {field} has a pole"
    with pytest.raises(FixtureError, match=f"^{re.escape(message)}"):
        load_fixture(path)
    assert main([verb, str(path)]) == 3
    assert f"error: {message}" in capsys.readouterr().err


def test_non_definite_aux_metric_is_a_failed_build(tmp_path):
    data = json.loads(fixture_path("aux_pole.json").read_text())
    data["aux_metric"] = [["1", "0"], ["0", "-1"]]
    path = tmp_path / "aux_indefinite.json"
    path.write_text(json.dumps(data))
    report = run("build-compatible", path)
    assert report.verdicts["built_compatible"].status is Status.FAILED
    assert report.verdicts["built_compatible"].witness == (
        "auxiliary metric is not positive definite at (0, 1)"
    )
    assert report.exit_code() == 1


def test_pole_of_the_polarized_metric_is_a_failed_spd_verdict(monkeypatch):
    """A polarized g with a pole at the base point gives a Failed ``*_spd``
    verdict that names the denominator in the chart's coordinates and the
    point, and no ``*_metric_at_base`` output, only its skip record."""
    build = cli.build_associated_by_polarization

    def with_pole(vp, decomposable):
        phi, g = build(vp, decomposable=decomposable)
        x, y = vp.space.coordinate(0), vp.space.coordinate(1)
        rows = [list(row) for row in g.matrix.entries]
        rows[1][1] = rows[1][1] + 1 / (x * x + y)
        return phi, MetricField(vp.space, rows)

    monkeypatch.setattr(cli, "build_associated_by_polarization", with_pole)
    report = run("polarize", fixture_path("named_coords.json"))
    pole = "metric entry: denominator x^2 + y vanishes at (0, 0)"
    for prefix in ("polarized", "polarized_decomposable"):
        spd = report.verdicts[f"{prefix}_spd"]
        assert (spd.status, spd.witness) == (Status.FAILED, pole), prefix
        assert f"{prefix}_metric_at_base" not in report.outputs
        assert report.skipped[f"{prefix}_metric_at_base"] == pole
        assert report.outputs[f"{prefix}_phi_at_base"] == [["0", "0"], ["0", "0"]]
    assert report.exit_code() == 1


@pytest.mark.parametrize("key", ["phi", "metric", "aux_metric"])
def test_bad_matrix_entry_names_its_path_once(key, tmp_path, capsys):
    data = json.loads(fixture_path("flat2_mcp.json").read_text())
    data[key] = [["0", "1/"], ["0", "1"]]
    path = tmp_path / "bad_entry.json"
    path.write_text(json.dumps(data))
    assert main(["verify-pair", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: $.{key}[0][1]: bad expression '1/': ")
    assert err.count("$.") == 1


def test_repeated_bad_entry_names_its_first_path(tmp_path, capsys):
    """Each distinct entry text is parsed once per load, and a malformed one
    still fails where it first occurs."""
    data = json.loads(fixture_path("flat2_mcp.json").read_text())
    data["phi"] = [["0", "1"], ["1/", "1/"]]
    path = tmp_path / "repeated_bad_entry.json"
    path.write_text(json.dumps(data))
    assert main(["verify-pair", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: $.phi[1][0]: bad expression '1/': ")


def test_load_parses_each_distinct_entry_text_once(monkeypatch):
    from contactpairs import fixtures

    data = lie_rung(3, 3).raw
    texts = [*data["alpha1"].values(), *data["alpha2"].values()]
    texts += [e for key in ("phi", "metric", "aux_metric") if key in data
              for row in data[key] for e in row]
    parsed = []

    def counted(text, space, _inner=fixtures.parse_expression):
        parsed.append(text)
        return _inner(text, space)

    monkeypatch.setattr(fixtures, "parse_expression", counted)
    load_fixture_dict(data)
    assert len(texts) > len(set(texts))
    assert sorted(parsed) == sorted(set(texts))


@pytest.mark.parametrize(
    "names, denominator",
    [
        (None, "x3^3 - 3/2*x3^2 + 3/4*x3 - 1/8"),
        (["p", "q", "r", "s", "t", "u"], "r^3 - 3/2*r^2 + 3/4*r - 1/8"),
    ],
    ids=["rk4_pole", "renamed_coordinates"],
)
def test_pole_on_the_rk4_trajectory_is_a_skip(names, denominator, tmp_path):
    """The metric's 1/(1-2*x3)^2 is finite at the sample point, but the flow
    of Z1 = d/dx3 reaches x3 = 1/2, where a Christoffel denominator vanishes:
    the RK4 cross-check is skipped, and the exact verdicts stand.  The skip
    reason names the denominator in the fixture's own coordinates."""
    path = fixture_path("rk4_pole.json")
    if names is not None:
        text = path.read_text()
        for old, new in zip(json.loads(text)["coordinates"], names):
            text = re.sub(rf"\b{old}\b", new, text)
        path = tmp_path / "renamed.json"
        path.write_text(text)
    out = tmp_path / "report.json"
    assert main(["geodesy", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["geodesic"]["status"] == "Verified"
    assert report["verdicts"]["totally_geodesic"]["status"] == "Verified"
    assert "geodesy_rk4" not in report["verdicts"] and not report["residuals"]
    assert report["skipped"]["geodesy_rk4"].startswith(f"denominator {denominator} vanishes at (")


def test_theorems_computes_each_shared_verdict_once(monkeypatch, tmp_path):
    """The pair axioms are memoised on the pair, the structure verdicts are
    computed once and read by the check that reports them, the polarized phi
    is not verified again, and the orthogonality verdict of the fixture's
    metric is handed on to the agreement that reads it.  The associated
    report is read only by the check that reports it: the leaf checks prove
    what they would take from it.  The one rank is rank(phi) of the
    structure check.

    On nilpotent_g6 the fixture's metric is checked once: compatible,
    associated, orthogonal, and phi decomposable.  Its 5 Pfaffians are the
    pair's two powers and volume and one restricted volume per leaf index;
    the restricted powers follow from the pair's own.  Chart rung (2,2) has
    no metric, so it runs no leaf check, builds one metric and polarizes
    two.  Their constructions prove compatibility, associatedness, and the
    per-block polarization's decomposability and orthogonality, so the only
    such checks left are the fixture phi's decomposability and the joint
    polarization's two.

    Eliminations (``_rref``): the Reeb system once, for both fields,
    ker d alpha_i once for each i, and rank(phi).  TF_i and TG_i are one-row
    kernels inside ker d alpha_i, and the leaf checks read the same frame."""
    from contactpairs import algebra, metric, pair, structure

    chart = tmp_path / "chart_2_2.json"
    chart.write_text(json.dumps(fixture_doc("chart_2_2").raw), encoding="utf-8")
    homes = {
        "verify_contact_pair": pair,
        "verify_structure": structure,
        "are_foliations_orthogonal": metric,
        "is_associated": metric,
        "is_compatible": metric,
        "is_decomposable": structure,
        "generic_rank": algebra,
        "pfaffian_minor": algebra,
        "_rref": algebra,
    }
    calls = {}
    for fn, home in homes.items():

        def counted(*args, _inner=getattr(home, fn), _name=fn, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        for module in (home, cli, pair, structure, metric):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, counted)
    checked = {
        bundled_fixture_path("nilpotent_g6"): {"pfaffian_minor": 5, "_rref": 4},
        chart: {
            "_rref": 4,
            "is_associated": 0,
            "is_compatible": 0,
            "are_foliations_orthogonal": 1,
            "is_decomposable": 2,
            "pfaffian_minor": 3,
        },
    }
    for path, counts in checked.items():
        calls.update(dict.fromkeys(homes, 0))
        assert run("theorems", path).exit_code() == 0
        assert calls == {**dict.fromkeys(homes, 1), **counts}, path


FRAMELESS_VERBS = (
    "reeb", "verify-structure", "compatible", "associated", "build-compatible", "geodesy", "killing"
)


def test_each_frame_nest_is_built_by_the_first_check_that_reads_it(monkeypatch):
    """verified_pair solves the Reeb system and builds no frame, and the
    splittings verdict reads its ranks off the type, so the verbs whose
    checks read no frame of the characteristic foliations make no kernel
    elimination (a verb whose fixture lacks a field it needs is refused and
    left out).  theorems reads every frame and builds each index's nest
    exactly once, on its first read."""
    from contactpairs import pair

    eliminations, built = [], []
    kernel_basis, frame_nest = pair.kernel_basis, pair._frame_nest

    def counted(matrix):
        eliminations.append(matrix.rows)
        return kernel_basis(matrix)

    def spied(candidate, i):
        before = len(eliminations)
        nest = frame_nest(candidate, i)
        if len(eliminations) > before:
            built.append(i)
        return nest

    monkeypatch.setattr(pair, "kernel_basis", counted)
    monkeypatch.setattr(pair, "_frame_nest", spied)
    ran = set()
    for name in ("local_model_1_1", "nilpotent_g6"):
        path = bundled_fixture_path(name)
        for verb in FRAMELESS_VERBS:
            try:
                run(verb, path)
            except VerbUsageError:
                continue
            ran.add(verb)
            assert (eliminations, built) == ([], []), (name, verb)
        assert run("theorems", path).exit_code() == 0
        assert len(eliminations) == 2 and sorted(built) == [1, 2], name
        eliminations.clear()
        built.clear()
    assert ran == set(FRAMELESS_VERBS)


@pytest.mark.parametrize("name", ["local_model_1_1", "nilpotent_g6", "chart_2_2", "lie_3_3"])
def test_constructed_verdicts_equal_their_checks(name, tmp_path):
    """What build-compatible and polarize report with no check run, by the
    constructions' proofs, is what the checks return on the metrics built:
    is_compatible on build_compatible's metric, is_associated on each
    polarized (phi, g), and on the per-block one is_decomposable,
    are_foliations_orthogonal and their agreement."""
    doc = fixture_doc(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc.raw), encoding="utf-8")
    vp = verified_pair(doc.pair)

    built = run("build-compatible", path).verdicts
    cps = ContactPairStructure(vp, doc.phi)
    g = build_compatible(cps, doc.aux_metric or MetricField.euclidean(vp.space))
    assert built["built_compatible"] == is_compatible(cps, g)

    polarized = run("polarize", path).verdicts
    for flag, prefix in ((False, "polarized"), (True, "polarized_decomposable")):
        phi, g = build_associated_by_polarization(vp, decomposable=flag)
        cps = ContactPairStructure(vp, phi)
        assert polarized[f"{prefix}_associated"] == is_associated(cps, g).verdict, prefix
    decomposable, orthogonal = is_decomposable(cps), are_foliations_orthogonal(vp, g)
    assert polarized["polarized_decomposable_check"] == decomposable
    assert polarized["polarized_decomposable_orthogonal"] == orthogonal
    assert polarized["polarized_decomposable_agreement"] == (
        decomposability_orthogonality_agreement(decomposable, orthogonal)
    )


@pytest.mark.parametrize("name, polarized", LEAF_CASES)
def test_proved_verdicts_equal_their_residual_checks(name, polarized, tmp_path):
    """What theorems reports with no residual computed, by the proofs of
    is_compatible, verify_induced_almost_contact and
    verify_restricted_contact_metric, is what the residual checks of
    ``conftest.py`` return: both compatible corollaries, and for i = 1, 2
    the induced almost contact structure and both leaf verdicts."""
    doc = polarized_doc(name) if polarized else fixture_doc(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc.raw), encoding="utf-8")
    cps = ContactPairStructure(verified_pair(doc.pair), doc.phi)
    mcp = MetricContactPair(cps, doc.metric)
    expected = {
        f"compatible_{key}": verdict
        for key, verdict in compatible_corollaries(cps, doc.metric).items()
    }
    for i in (1, 2):
        expected[f"induced_almost_contact_{i}"] = induced_almost_contact(cps, i)
        expected[f"leaf_contact_metric_{i}"] = leaf_contact_metric(mcp, i)
        expected[f"leaf_mcp_{i}"] = leaf_mcp(mcp, i)
    assert all(v.ok for v in expected.values()), expected
    verdicts = run("theorems", path).verdicts
    assert {key: verdicts.get(key) for key in expected} == expected


def test_witnesses_use_the_fixture_coordinate_names(capsys):
    """A chart on (x, y) prints its residuals in x and y, not x1 and x2."""
    path = str(fixture_path("named_coords.json"))
    assert main(["compatible", path]) == 1
    assert "compatible: Failed [witness: entry (0,0) = -y^2]" in capsys.readouterr().out
    assert main(["geodesy", path]) == 1
    assert "[witness: g(Z1, Z1) = y^2 + 1; " in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus", "f.json"],
        ["theorems"],
        ["theorems", "f.json", "--samples", "abc"],
        ["theorems", "f.json", "--samples", "-2"],
    ],
    ids=["unknown verb", "missing fixture", "samples not an int", "negative samples"],
)
def test_usage_error_exits_3(argv, capsys):
    """Not argparse's 2, which a shell would read as SampleVerified."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 3
    assert capsys.readouterr().err.startswith("usage: contactpairs <verb> <fixture.json>")


def test_unwritable_out_path_exits_3(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["verify-pair", str(fixture_path("flat2_mcp.json")), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


def test_fixture_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(FixtureError, match="cannot read"):
        load_fixture(path)
    assert main(["theorems", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["-h"])
    assert info.value.code == 0
    assert "theorems" in capsys.readouterr().out


def test_tol_option_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["compatible", str(fixture_path("flat2_mcp.json")), "--tol", "1e-6"])
    assert "--tol" in capsys.readouterr().err


# --- report serialization ----------------------------------------------------------------


def test_report_json_is_byte_stable():
    a = run("theorems", bundled_fixture_path("nilpotent_g6"))
    b = run("theorems", bundled_fixture_path("nilpotent_g6"))
    assert render_report(a, include_timings=False) == render_report(
        b, include_timings=False
    )


def test_report_structure():
    report = run("report", bundled_fixture_path("nilpotent_g6"))
    doc = json.loads(render_report(report))
    assert doc["fixture"] == "nilpotent_g6"
    assert doc["versions"]["contactpairs"]
    assert "timings" in doc
    assert doc["verdicts"]["associated"]["status"] == "Verified"
    stable = json.loads(render_report(report, include_timings=False))
    assert "timings" not in stable


@pytest.mark.parametrize(
    "verb, path",
    [
        ("theorems", bundled_fixture_path("local_model_1_1")),
        ("theorems", FIXTURE_DIR / "degenerate_pair.json"),
        ("theorems", FIXTURE_DIR / "twisted.json"),
        ("geodesy", FIXTURE_DIR / "rk4_pole.json"),
        ("leaves", FIXTURE_DIR / "flat2_mcp.json"),
    ],
    ids=["local_model_1_1", "degenerate_pair", "twisted", "rk4_pole", "flat2_mcp leaves"],
)
def test_timings_hold_one_entry_per_check_that_ran(monkeypatch, verb, path):
    """Each check that ran has its time under ``check.<name>_s`` beside
    ``total_s``; a skipped check has none, and none of them enters the
    byte-stable part of the report."""
    ran = []
    for name, check in CHECKS.items():

        def recording(ctx, name=name, inner=check.run):
            ran.append(name)
            return inner(ctx)

        monkeypatch.setitem(CHECKS, name, dataclasses.replace(check, run=recording))
    report = run(verb, path)
    assert list(report.timings) == [f"check.{name}_s" for name in ran] + ["total_s"]
    assert all(seconds >= 0.0 for seconds in report.timings.values())
    stable = render_report(report, include_timings=False)
    report.timings = {"total_s": report.timings["total_s"]}
    assert render_report(report, include_timings=False) == stable


def test_stable_report_bytes_pinned():
    """The byte-stable rendering of a small report, as it reads without any
    per-check timings."""
    report = run("verify-pair", fixture_path("degenerate_pair.json"))
    assert "check.pair_s" in report.timings
    assert render_report(report, include_timings=False) == (
        "{\n"
        '  "fixture": "degenerate_pair",\n'
        '  "outputs": {},\n'
        '  "residuals": {},\n'
        '  "skipped": {},\n'
        '  "status": "Failed",\n'
        '  "verb": "verify-pair",\n'
        '  "verdicts": {\n'
        '    "dalpha1_power_zero": {\n'
        '      "detail": "(d alpha1)^1 = 0",\n'
        '      "status": "Verified"\n'
        "    },\n"
        '    "dalpha2_power_zero": {\n'
        '      "detail": "(d alpha2)^1 = 0",\n'
        '      "status": "Verified"\n'
        "    },\n"
        '    "volume_form": {\n'
        '      "detail": "identically zero",\n'
        '      "status": "Failed",\n'
        '      "witness": "volume coefficient = 0"\n'
        "    }\n"
        "  },\n"
        '  "versions": {\n'
        '    "contactpairs": "0.1.0"\n'
        "  }\n"
        "}"
    )


# --- the console entry point ----------------------------------------------------------------


def test_main_exit_codes(capsys, tmp_path):
    assert main(["theorems", str(bundled_fixture_path("nilpotent_g6"))]) == 0
    assert main(["associated", str(bundled_fixture_path("r6_example"))]) == 1
    assert main(["verify-pair", str(fixture_path("degenerate_pair.json"))]) == 1
    assert main(["theorems", str(fixture_path("bad_schema.json"))]) == 3
    assert main(["associated", str(bundled_fixture_path("local_model_1_1"))]) == 3
    capsys.readouterr()

    out = tmp_path / "report.json"
    code = main(
        ["report", str(bundled_fixture_path("nilpotent_g6")), "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert json.loads(out.read_text())["fixture"] == "nilpotent_g6"
    assert json.loads(printed)["fixture"] == "nilpotent_g6"


def test_main_summary_output(capsys):
    main(["verify-pair", str(bundled_fixture_path("nilpotent_g6"))])
    out = capsys.readouterr().out
    assert "volume_form: Verified" in out
    assert "overall: Verified" in out
