"""Structured results for numerical verification checks.

A report names the check, lists each hypothesis with its residual, records
the computed constants and the tolerances in force, and states whether the
conclusion was verified. The conclusion may be marked checked only when
every hypothesis passed; a conclusion that holds numerically under a failed
hypothesis is recorded in the notes instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    residual: float = 0.0
    detail: str = ""


@dataclass
class VerificationReport:
    check_id: str
    hypotheses: list[HypothesisCheck] = field(default_factory=list)
    constants: dict[str, float] = field(default_factory=dict)
    conclusion_checked: bool = False
    tolerances: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._enforce()

    def _enforce(self):
        if self.conclusion_checked and not all(h.passed for h in self.hypotheses):
            raise ValueError(
                f"report {self.check_id!r}: conclusion cannot be checked "
                "while a hypothesis fails"
            )

    def add_hypothesis(self, name, passed, residual=0.0, detail=""):
        self.hypotheses.append(
            HypothesisCheck(name=name, passed=bool(passed), residual=float(residual), detail=detail)
        )

    def hypotheses_ok(self) -> bool:
        return all(h.passed for h in self.hypotheses)

    def conclude(self, ok: bool):
        """Record the conclusion; demoted to unchecked if a hypothesis failed."""
        self.conclusion_checked = bool(ok) and self.hypotheses_ok()
        if ok and not self.hypotheses_ok():
            self.notes.append("conclusion held numerically but a hypothesis failed")
        self._enforce()

    @property
    def passed(self) -> bool:
        return self.conclusion_checked and self.hypotheses_ok()

    def failed_hypotheses(self) -> list[str]:
        return [h.name for h in self.hypotheses if not h.passed]

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if not self.passed and self.failed_hypotheses():
            status = f"FAIL (hypothesis: {', '.join(self.failed_hypotheses())})"
        keys = ("lower", "upper", "gram_lower", "gram_upper", "residual")
        shown = [f"{k}={self.constants[k]:.6g}" for k in keys if k in self.constants]
        tail = f" [{', '.join(shown)}]" if shown else ""
        return f"{self.check_id}: {status}{tail}"

    def to_dict(self) -> dict:
        """The report as JSON data; a non-finite constant or residual becomes None."""
        return {
            "check_id": self.check_id,
            "hypotheses": [
                {
                    "name": h.name,
                    "passed": h.passed,
                    "residual": _finite_or_none(h.residual),
                    "detail": h.detail,
                }
                for h in self.hypotheses
            ],
            "constants": {k: _finite_or_none(self.constants[k]) for k in sorted(self.constants)},
            "conclusion_checked": self.conclusion_checked,
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
            "notes": list(self.notes),
        }


def _finite_or_none(x):
    return None if isinstance(x, float) and not math.isfinite(x) else x
