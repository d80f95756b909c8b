"""Pass/fail reports with counterexamples for the exact verifiers.

Failures are data, not errors: a verifier sweeps its laws over a finite
range and returns a :class:`CheckReport` recording how many identities
were checked and the first few that failed, each with the offending
location and both sides rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Counterexample:
    law: str
    where: dict
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {"law": self.law, "where": self.where, "lhs": self.lhs, "rhs": self.rhs}

    def __str__(self) -> str:
        loc = ", ".join(f"{k}={v}" for k, v in self.where.items())
        return f"{self.law} fails at {loc}: {self.lhs} != {self.rhs}"


@dataclass
class CheckReport:
    name: str
    passed: bool
    checks: int
    failures: list[Counterexample] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": [f.to_json() for f in self.failures],
            "notes": list(self.notes),
        }

    def __str__(self) -> str:
        head = f"{self.name}: {'pass' if self.passed else 'FAIL'} ({self.checks} checks)"
        lines = [head] + [f"  {f}" for f in self.failures]
        return "\n".join(lines)


# counterexamples kept per report; later failures still count as checks
MAX_FAILURES = 5


class ReportBuilder:
    """Accumulates exact-equality checks into a CheckReport."""

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: list[Counterexample] = []
        self.notes: list[str] = []

    def expect(self, law: str, where: dict, lhs, rhs) -> bool:
        return self._record(lhs == rhs, law, where, lhs, rhs)

    def expect_true(self, law: str, where: dict, ok: bool, detail: str = "") -> bool:
        return self._record(ok, law, where, detail or "false", "true")

    def _record(self, ok: bool, law: str, where: dict, lhs, rhs) -> bool:
        self.checks += 1
        if ok:
            return True
        if len(self.failures) < MAX_FAILURES:
            self.failures.append(
                Counterexample(law, {k: str(v) for k, v in where.items()}, str(lhs), str(rhs))
            )
        return False

    def note(self, text: str):
        self.notes.append(text)

    def finish(self) -> CheckReport:
        return CheckReport(
            name=self.name,
            passed=not self.failures,
            checks=self.checks,
            failures=self.failures,
            notes=self.notes,
        )
