"""Fixture files: validation, construction of model objects, bundled
reference geometries, and round-trip serialization.

A fixture declares a backend (polynomial chart or constant Lie frame), the
two one-forms as covector-indexed expression maps, the pair type, optional
phi / metric / auxiliary metric matrices, and at least one sample point.
Rationals travel as strings so files stay float-free.  The loader is the one
definition of the format: it checks each field where it reads it, and every
error names the field's JSON path (``$.type[0]``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

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
]

BUNDLED = ("local_model_1_1.json", "r6_example.json", "nilpotent_g6.json")


class FixtureError(ValueError):
    """Malformed or inconsistent fixture content, with field path."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


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


_REQUIRED = ("id", "backend", "dimension", "type", "alpha1", "alpha2", "sample_points")
_BACKEND_KEYS = {"chart": ("coordinates",), "lie": ("frame", "structure_equations")}
_KEYS = {*_REQUIRED, "coordinates", "frame", "structure_equations", "phi", "metric", "aux_metric"}
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _kind(value) -> str:
    """How an error names a JSON value: its scalar text or its container kind."""
    kind = next((name for t, name in _KINDS.items() if isinstance(value, t)), None)
    return kind or json.dumps(value, default=repr)


def _typed(value, kind: type, path: str, min_len: int = 0):
    """``value`` when it is a ``kind`` (dict, list or str) of length at least ``min_len``."""
    if not isinstance(value, kind):
        raise FixtureError(f"expected {_KINDS[kind]}, got {_kind(value)}", path)
    if len(value) < min_len:
        raise FixtureError(f"has length {len(value)}, needs at least {min_len}", path)
    return value


def _integer(value, path: str, minimum: int) -> int:
    """A JSON integer or integral float (not a boolean) of at least ``minimum``, as an int."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise FixtureError(f"expected an integer, got {_kind(value)}", path)
    if value < minimum:
        raise FixtureError(f"{value} is less than the minimum of {minimum}", path)
    return value


def _names(value, path: str) -> list[str]:
    """At least two distinct identifiers."""
    names = _typed(value, list, path, 2)
    for q, name in enumerate(names):
        if not _IDENTIFIER.fullmatch(_typed(name, str, f"{path}[{q}]")):
            raise FixtureError(f"{name!r} is not an identifier", f"{path}[{q}]")
    if len(set(names)) != len(names):
        raise FixtureError("names must be distinct", path)
    return names


def _string_rows(value, path: str, min_rows: int = 0) -> list[list[str]]:
    """A list of lists of strings: a matrix or the sample points."""
    rows = _typed(value, list, path, min_rows)
    for r, row in enumerate(rows):
        for c, text in enumerate(_typed(row, list, f"{path}[{r}]")):
            _typed(text, str, f"{path}[{r}][{c}]")
    return rows


def _top_level(data) -> None:
    """An object with no unknown key, every required key, and its backend's keys."""
    _typed(data, dict, "$")
    unknown = next((key for key in data if key not in _KEYS), None)
    if unknown is not None:
        raise FixtureError(f"unknown key {unknown!r}", "$")
    backend = data.get("backend")
    backend_keys = _BACKEND_KEYS[backend] if backend in ("chart", "lie") else ()
    missing = next((key for key in (*_REQUIRED, *backend_keys) if key not in data), None)
    if missing is not None:
        raise FixtureError(f"{missing!r} is a required property", "$")
    if not backend_keys:
        raise FixtureError(f"expected 'chart' or 'lie', got {backend!r}", "$.backend")


def _parse_scalar(text: str, space: Space, path: str, parsed: dict[str, RatFun]) -> RatFun:
    """The entry ``text``, parsed once per load: ``parsed`` holds the entries
    the load has parsed so far, by text (a RatFun is canonical, so a shared
    value is the value a second parse would give)."""
    if text not in parsed:
        try:
            parsed[text] = parse_expression(text, space)
        except ExpressionError as exc:
            raise FixtureError(f"bad expression {text!r}: {exc}", path) from exc
    return parsed[text]


def _parse_matrix(value, space: Space, path: str, parsed: dict[str, RatFun]):
    n = space.dim
    rows = _string_rows(value, path)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise FixtureError(f"matrix must be {n}x{n}", path)
    return [
        [_parse_scalar(rows[i][j], space, f"{path}[{i}][{j}]", parsed) for j in range(n)]
        for i in range(n)
    ]


def _build_space(data: dict) -> Space:
    n = _integer(data["dimension"], "$.dimension", 2)
    chart = data["backend"] == "chart"
    key, noun = ("coordinates", "coordinates") if chart else ("frame", "covectors")
    names = _names(data[key], f"$.{key}")
    if len(names) != n:
        raise FixtureError(f"{len(names)} {noun} for dimension {n}", f"$.{key}")
    if chart:
        return Space.chart(names)
    differentials: dict[int, list[tuple[int, int, Fraction]]] = {}
    equations = _typed(data["structure_equations"], dict, "$.structure_equations")
    for covector, entries in equations.items():
        if covector not in names:
            raise FixtureError(
                f"unknown covector {covector!r}", "$.structure_equations"
            )
        k = names.index(covector)
        parsed = []
        entries = _typed(entries, list, f"$.structure_equations.{covector}")
        for pos, entry in enumerate(entries):
            path = f"$.structure_equations.{covector}[{pos}]"
            if _typed(entry, dict, path).keys() != {"i", "j", "coeff"}:
                raise FixtureError(f"keys must be i, j and coeff, got {list(entry)}", path)
            i, j = (_integer(entry[end], f"{path}.{end}", 1) for end in ("i", "j"))
            text = _typed(entry["coeff"], str, f"{path}.coeff")
            if not 1 <= i < j <= n:
                raise FixtureError(
                    f"need 1 <= i < j <= {n}, got i={i}, j={j}", path
                )
            try:
                coeff = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise FixtureError(f"bad rational {text!r}: {exc}", path)
            parsed.append((i - 1, j - 1, coeff))
        differentials[k] = parsed
    try:
        return Space.lie_frame(names, differentials=differentials)
    except ValueError as exc:
        raise FixtureError(str(exc), "$.structure_equations") from exc


def _build_one_form(data: dict, key: str, space: Space, parsed: dict[str, RatFun]) -> Form:
    coeffs = {}
    for name, text in _typed(data[key], dict, f"$.{key}", 1).items():
        try:
            idx = space.name_index(name)
        except KeyError:
            raise FixtureError(f"unknown covector/coordinate {name!r}", f"$.{key}")
        path = f"$.{key}.{name}"
        coeffs[(idx,)] = _parse_scalar(_typed(text, str, path), space, path, parsed)
    try:
        return Form(space, 1, coeffs)
    except ValueError as exc:
        raise FixtureError(str(exc), f"$.{key}") from exc


def load_fixture_dict(data: dict) -> FixtureDoc:
    _top_level(data)
    fixture_id = _typed(data["id"], str, "$.id", 1)
    space = _build_space(data)
    n = space.dim
    pair_type = _typed(data["type"], list, "$.type")
    if len(pair_type) != 2:
        raise FixtureError(f"expected 2 entries, got {len(pair_type)}", "$.type")
    h, k = (_integer(x, f"$.type[{q}]", 0) for q, x in enumerate(pair_type))
    if 2 * h + 2 * k + 2 != n:
        raise FixtureError(
            f"type ({h}, {k}) needs dimension {2*h + 2*k + 2}, fixture has {n}",
            "$.type",
        )

    parsed: dict[str, RatFun] = {}
    alpha1 = _build_one_form(data, "alpha1", space, parsed)
    alpha2 = _build_one_form(data, "alpha2", space, parsed)

    sample_points = []
    for p, point in enumerate(_string_rows(data["sample_points"], "$.sample_points", 1)):
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
            entries = _parse_matrix(data[key], space, f"$.{key}", parsed)
            try:
                tensors[key] = kind(space, entries)
            except ValueError as exc:
                raise FixtureError(str(exc), f"$.{key}") from exc

    # Every field must be finite at every sample point, that is no denominator
    # may vanish there, and a metric also positive definite there
    # (build_compatible reports a non-definite aux_metric).
    metric, aux_metric = tensors.get("metric"), tensors.get("aux_metric")
    coefficients = {
        "alpha1": alpha1.coeffs.values(),
        "alpha2": alpha2.coeffs.values(),
        **{key: [c for row in t.matrix.entries for c in row] for key, t in tensors.items()},
    }
    denominators = {
        key: {c.den for c in cs if not c.den.is_constant()} for key, cs in coefficients.items()
    }
    for p, point in enumerate(pair.sample_points):
        path = f"$.sample_points[{p}]"
        for key, dens in denominators.items():
            if any(den.eval(point) == 0 for den in dens):
                raise FixtureError(f"{key} has a pole at sample point {format_point(point)}", path)
        if metric is not None and not metric.is_positive_definite_at(point):
            raise FixtureError(
                f"metric is not positive definite at sample point {format_point(point)}", path
            )

    return FixtureDoc(
        fixture_id=fixture_id,
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
    except (OSError, UnicodeDecodeError) as exc:
        raise FixtureError(f"cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"invalid JSON in {path}: {exc}")
    return load_fixture_dict(data)
