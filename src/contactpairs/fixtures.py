"""Fixture files: JSON schema validation, construction of model objects,
bundled reference geometries, and round-trip serialization.

A fixture declares a backend (polynomial chart or constant Lie frame), the
two one-forms as covector-indexed expression maps, the pair type, optional
phi / metric / auxiliary metric matrices, and at least one sample point.
Rationals travel as strings so files stay float-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path

from jsonschema import exceptions, validators

from .algebra import RatFun, format_point
from .exterior import EndoField, Form, MetricField, Space
from .expressions import ExpressionError, parse_expression
from .pair import ContactPair, PairValidationError

__all__ = [
    "FixtureDoc",
    "FixtureError",
    "load_fixture",
    "load_fixture_dict",
    "bundled_fixture_path",
    "bundled_fixture_names",
    "fixture_schema",
]

BUNDLED = ("local_model_1_1.json", "r6_example.json", "nilpotent_g6.json")


class FixtureError(ValueError):
    """Schema violation or inconsistent fixture content, with field path."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def fixture_schema() -> dict:
    with resources.files("contactpairs").joinpath("data/fixture.schema.json").open() as fh:
        return json.load(fh)


@cache
def _schema_validator():
    """Built once; the tests check the schema against its metaschema."""
    schema = fixture_schema()
    return validators.validator_for(schema)(schema)


def bundled_fixture_names() -> tuple[str, ...]:
    return BUNDLED


def bundled_fixture_path(name: str) -> Path:
    if not name.endswith(".json"):
        name += ".json"
    if name not in BUNDLED:
        raise KeyError(f"no bundled fixture {name!r}; available: {', '.join(BUNDLED)}")
    return Path(str(resources.files("contactpairs").joinpath(f"data/{name}")))


@dataclass
class FixtureDoc:
    """Parsed fixture plus the constructed model objects."""

    fixture_id: str
    backend: str
    space: Space
    pair: ContactPair
    phi: EndoField | None
    metric: MetricField | None
    aux_metric: MetricField | None
    raw: dict = field(repr=False)

    @property
    def has_phi(self) -> bool:
        return self.phi is not None

    @property
    def has_metric(self) -> bool:
        return self.metric is not None

    def to_json_dict(self) -> dict:
        """Serialize back to fixture JSON (round-trips to an equivalent model)."""
        names = self.space.names
        out: dict = {
            "id": self.fixture_id,
            "backend": self.backend,
            "dimension": self.space.dim,
            "type": [self.pair.h, self.pair.k],
        }
        if self.backend == "chart":
            out["coordinates"] = list(names)
        else:
            out["frame"] = list(names)
            equations: dict[str, list[dict]] = {}
            for k in range(self.space.dim):
                dform = self.space.covector_differential(k)
                entries = [
                    {"i": i + 1, "j": j + 1, "coeff": str(c.constant_value())}
                    for (i, j), c in sorted(dform.coeffs.items())
                ]
                if entries:
                    equations[names[k]] = entries
            out["structure_equations"] = equations
        for key, form in (("alpha1", self.pair.alpha1), ("alpha2", self.pair.alpha2)):
            out[key] = {
                names[idx[0]]: coeff.format(names)
                for idx, coeff in sorted(form.coeffs.items())
            }
        for key, tensor in (
            ("phi", self.phi),
            ("metric", self.metric),
            ("aux_metric", self.aux_metric),
        ):
            if tensor is not None:
                out[key] = [
                    [tensor.matrix.at(i, j).format(names) for j in range(self.space.dim)]
                    for i in range(self.space.dim)
                ]
        out["sample_points"] = [
            [str(x) for x in point] for point in self.pair.sample_points
        ]
        return out


def _json_path(parts) -> str:
    return "$" + "".join(
        f"[{p}]" if isinstance(p, int) else f".{p}" for p in parts
    )


def _parse_scalar(text: str, space: Space, path: str) -> RatFun:
    try:
        return parse_expression(text, space)
    except ExpressionError as exc:
        raise FixtureError(f"bad expression {text!r}: {exc}", path) from exc


def _parse_matrix(rows, space: Space, path: str):
    n = space.dim
    if len(rows) != n or any(len(r) != n for r in rows):
        raise FixtureError(f"matrix must be {n}x{n}", path)
    return [
        [_parse_scalar(rows[i][j], space, f"{path}[{i}][{j}]") for j in range(n)]
        for i in range(n)
    ]


def _build_space(data: dict) -> Space:
    n = data["dimension"]
    if data["backend"] == "chart":
        names = data["coordinates"]
        if len(names) != n:
            raise FixtureError(
                f"{len(names)} coordinates for dimension {n}", "$.coordinates"
            )
        return Space.chart(names)
    names = data["frame"]
    if len(names) != n:
        raise FixtureError(f"{len(names)} covectors for dimension {n}", "$.frame")
    differentials: dict[int, list[tuple[int, int, Fraction]]] = {}
    for covector, entries in data["structure_equations"].items():
        if covector not in names:
            raise FixtureError(
                f"unknown covector {covector!r}", "$.structure_equations"
            )
        k = names.index(covector)
        parsed = []
        for pos, entry in enumerate(entries):
            i, j = entry["i"], entry["j"]
            path = f"$.structure_equations.{covector}[{pos}]"
            if not 1 <= i < j <= n:
                raise FixtureError(
                    f"need 1 <= i < j <= {n}, got i={i}, j={j}", path
                )
            try:
                coeff = Fraction(entry["coeff"])
            except (ValueError, ZeroDivisionError) as exc:
                raise FixtureError(f"bad rational {entry['coeff']!r}: {exc}", path)
            parsed.append((i - 1, j - 1, coeff))
        differentials[k] = parsed
    try:
        return Space.lie_frame(names, differentials=differentials)
    except ValueError as exc:
        raise FixtureError(str(exc), "$.structure_equations") from exc


def _build_one_form(data: dict, key: str, space: Space) -> Form:
    coeffs = {}
    for name, text in data[key].items():
        try:
            idx = space.name_index(name)
        except KeyError:
            raise FixtureError(f"unknown covector/coordinate {name!r}", f"$.{key}")
        coeffs[(idx,)] = _parse_scalar(text, space, f"$.{key}.{name}")
    try:
        return Form(space, 1, coeffs)
    except ValueError as exc:
        raise FixtureError(str(exc), f"$.{key}") from exc


def load_fixture_dict(data: dict) -> FixtureDoc:
    error = exceptions.best_match(_schema_validator().iter_errors(data))
    if error is not None:
        raise FixtureError(error.message, _json_path(error.absolute_path)) from error

    space = _build_space(data)
    n = space.dim
    h, k = data["type"]
    if 2 * h + 2 * k + 2 != n:
        raise FixtureError(
            f"type ({h}, {k}) needs dimension {2*h + 2*k + 2}, fixture has {n}",
            "$.type",
        )

    alpha1 = _build_one_form(data, "alpha1", space)
    alpha2 = _build_one_form(data, "alpha2", space)

    sample_points = []
    for p, point in enumerate(data["sample_points"]):
        if len(point) != n:
            raise FixtureError(
                f"point has {len(point)} entries, expected {n}", f"$.sample_points[{p}]"
            )
        try:
            sample_points.append(tuple(Fraction(x) for x in point))
        except (ValueError, ZeroDivisionError) as exc:
            raise FixtureError(f"bad rational: {exc}", f"$.sample_points[{p}]")

    try:
        pair = ContactPair(space, alpha1, alpha2, h, k, tuple(sample_points))
    except PairValidationError as exc:
        raise FixtureError(str(exc), "$") from exc

    tensors = {}
    for key, kind in (("phi", EndoField), ("metric", MetricField), ("aux_metric", MetricField)):
        if key in data:
            entries = _parse_matrix(data[key], space, f"$.{key}")
            try:
                tensors[key] = kind(space, entries)
            except ValueError as exc:
                raise FixtureError(str(exc), f"$.{key}") from exc

    # A metric must be finite and positive definite at every sample point; an
    # aux_metric only finite (build_compatible reports a non-definite one).
    metric, aux_metric = tensors.get("metric"), tensors.get("aux_metric")
    for p, point in enumerate(pair.sample_points):
        path = f"$.sample_points[{p}]"
        try:
            positive = metric is None or metric.is_positive_definite_at(point)
        except ZeroDivisionError as exc:
            raise FixtureError(
                f"metric has a pole at sample point {format_point(point)}", path
            ) from exc
        if not positive:
            raise FixtureError(
                f"metric is not positive definite at sample point {format_point(point)}", path
            )
        if aux_metric is not None:
            try:
                aux_metric.eval_at(point)
            except ZeroDivisionError as exc:
                raise FixtureError(
                    f"aux_metric has a pole at sample point {format_point(point)}", path
                ) from exc

    return FixtureDoc(
        fixture_id=data["id"],
        backend=data["backend"],
        space=space,
        pair=pair,
        phi=tensors.get("phi"),
        metric=metric,
        aux_metric=aux_metric,
        raw=data,
    )


def load_fixture(path) -> FixtureDoc:
    """Load and validate a fixture file; every error names the field path."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FixtureError(f"cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"invalid JSON in {path}: {exc}")
    return load_fixture_dict(data)
