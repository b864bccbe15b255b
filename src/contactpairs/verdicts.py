"""Three-valued check results.

Exact checks come back Verified or Failed.  Checks that cannot be decided
globally (positivity of a non-constant polynomial) degrade honestly to
SampleVerified, recording how many sample points were inspected.  Every
Failed verdict carries a reproducible witness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import RatFun, format_point


class Status(str, enum.Enum):
    VERIFIED = "Verified"
    SAMPLE_VERIFIED = "SampleVerified"
    FAILED = "Failed"


@dataclass(frozen=True)
class Verdict:
    status: Status
    detail: str = ""
    witness: str | None = None
    points_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.status is not Status.FAILED

    @classmethod
    def verified(cls, detail: str = "") -> "Verdict":
        return cls(Status.VERIFIED, detail)

    @classmethod
    def sample_verified(cls, points: int, detail: str = "") -> "Verdict":
        return cls(Status.SAMPLE_VERIFIED, detail, points_checked=points)

    @classmethod
    def failed(cls, witness: str, detail: str = "") -> "Verdict":
        return cls(Status.FAILED, detail, witness=witness)

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status.value}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        if self.points_checked:
            out["points_checked"] = self.points_checked
        return out


def combine_status(verdicts: Iterable[Verdict]) -> Status:
    worst = Status.VERIFIED
    for v in verdicts:
        if v.status is Status.FAILED:
            return Status.FAILED
        if v.status is Status.SAMPLE_VERIFIED:
            worst = Status.SAMPLE_VERIFIED
    return worst


def combine_verdicts(verdicts: Iterable[Verdict], detail: str | None = None) -> Verdict:
    """One verdict for a conjunction.  Failed: the first failed member's
    detail and witness.  Otherwise the worst status, with ``detail`` (by
    default the members' details joined by "; ") and the most points any
    member checked."""
    verdicts = list(verdicts)
    status = combine_status(verdicts)
    if status is Status.FAILED:
        first = next(v for v in verdicts if not v.ok)
        return Verdict(status, first.detail, witness=first.witness)
    if detail is None:
        detail = "; ".join(v.detail for v in verdicts if v.detail)
    points = max((v.points_checked for v in verdicts), default=0)
    return Verdict(status, detail, points_checked=points)


def residual_verdict(
    residuals: Sequence[tuple[str, RatFun]], pair, detail: str = ""
) -> Verdict:
    """Verified when every labelled residual is identically zero, otherwise
    Failed with the first nonzero one as witness, printed in the coordinate
    names of ``pair``'s space (a pair, verified pair or structure)."""
    for label, r in residuals:
        if not r.is_zero():
            return Verdict.failed(
                f"{label} = {r.format(pair.space.names)}", detail or "nonzero symbolic residual"
            )
    return Verdict.verified(detail)


def nonvanishing_verdict(
    value: RatFun,
    sample_points: Sequence[Sequence],
    label: str,
    constant_detail: str = "",
) -> Verdict:
    """Verified when the value is a nonzero constant; SampleVerified when it
    is non-constant but nonzero at all sample points; Failed otherwise."""
    if value.is_zero():
        return Verdict.failed(f"{label} = 0", "identically zero")
    if value.is_constant():
        return Verdict.verified(constant_detail or f"{label} = {value.constant_value()}")
    for point in sample_points:
        try:
            v = value.eval(point)
        except ZeroDivisionError as exc:
            return Verdict.failed(f"{label} at {format_point(point)}", f"undefined: {exc}")
        if v == 0:
            return Verdict.failed(
                f"{label} at {format_point(point)}", "vanishes at a sample point"
            )
    return Verdict.sample_verified(
        len(sample_points), f"{label} non-constant; nonzero at all sample points"
    )


def matrix_residual_entries(matrix) -> list[tuple[str, RatFun]]:
    """Label every entry of a residual matrix for use with residual_verdict."""
    return [
        (f"entry ({i},{j})", matrix.at(i, j))
        for i in range(matrix.rows)
        for j in range(matrix.cols)
    ]
