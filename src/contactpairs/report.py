"""Machine-readable run reports with deterministic serialization.

Everything except the ``timings`` section is byte-stable across runs on the
same input: keys are emitted sorted and floats are rendered with 17
significant digits as strings (rationals elsewhere travel as exact strings
already).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__
from .verdicts import Status, Verdict, combine_status

__all__ = ["Report", "format_float", "render_report"]


def format_float(value: float) -> str:
    return f"{value:.17g}"


@dataclass
class Report:
    fixture_id: str
    verb: str
    verdicts: dict[str, Verdict] = field(default_factory=dict)
    residuals: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def versions(self) -> dict[str, str]:
        return {"contactpairs": __version__}

    def status(self) -> Status:
        return combine_status(self.verdicts.values())

    def exit_code(self) -> int:
        """0: all Verified; 2: SampleVerified present, nothing Failed;
        1: at least one Failed.  (3 is reserved for fixture and usage errors.)"""
        status = self.status()
        if status is Status.FAILED:
            return 1
        if status is Status.SAMPLE_VERIFIED:
            return 2
        return 0

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out = {
            "fixture": self.fixture_id,
            "verb": self.verb,
            "status": self.status().value,
            "verdicts": {
                name: verdict.to_json_dict() for name, verdict in self.verdicts.items()
            },
            "residuals": {
                name: format_float(value) for name, value in self.residuals.items()
            },
            "outputs": self.outputs,
            "skipped": dict(self.skipped),
            "versions": self.versions,
        }
        if include_timings:
            out["timings"] = {
                name: format_float(value) for name, value in self.timings.items()
            }
        return out

    def summary_lines(self) -> list[str]:
        lines = []
        for name in sorted(self.verdicts):
            verdict = self.verdicts[name]
            line = f"{name}: {verdict.status.value}"
            if verdict.witness:
                line += f" [witness: {verdict.witness}]"
            elif verdict.detail:
                line += f" ({verdict.detail})"
            lines.append(line)
        for name in sorted(self.skipped):
            lines.append(f"{name}: skipped ({self.skipped[name]})")
        for name in sorted(self.residuals):
            lines.append(f"residual {name} = {format_float(self.residuals[name])}")
        return lines


def render_report(report: Report, include_timings: bool = True) -> str:
    return json.dumps(
        report.to_json_dict(include_timings=include_timings),
        sort_keys=True,
        indent=2,
    )
