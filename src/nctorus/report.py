"""Pass/fail reports with counterexamples for the exact verifiers.

Failures are data, not errors: a verifier sweeps its laws over a finite
range and returns a :class:`CheckReport` recording how many identities
were checked and the first few that failed, each with the offending
location and both sides rendered.

A box verifier is a table of laws: :class:`LawGroup` values swept by
:func:`sweep`, the one place that decides the sweep order and the
location fields of a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, NamedTuple


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
        self.checks += 1
        return lhs == rhs or self._fail(law, where, lhs, rhs)

    def expect_true(self, law: str, where: dict, ok: bool, detail: str = "") -> bool:
        self.checks += 1
        return ok or self._fail(law, where, detail or "false", "true")

    def _fail(self, law: str, where: dict, lhs, rhs) -> bool:
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


class Law(NamedTuple):
    """One identity of a table, by name: ``sides`` returns (lhs, rhs).

    The values of the point's context are the arguments of ``sides``,
    followed, for an inner law, by the monomial b or the character rho.
    ``where`` holds location fields a point law adds to those of its
    point, such as the generator of a normalization row.
    """

    name: str
    sides: Callable
    where: dict | None = None


class LawGroup(NamedTuple):
    """Laws swept together over the characters of a box, arity 0-3.

    The group's points are the tuples of ``min(arity, 2)`` characters.
    ``setup(*point)`` computes, once per point, the tuple of values the
    laws share, their context; without a setup the context is the point
    itself.  At each point the point laws run first, then the inner laws
    for each monomial b in turn or, in a group of arity 3, for each third
    character rho, so that a law on triples shares its setup per pair.
    """

    arity: int
    setup: Callable | None = None
    point: tuple = ()
    inner: tuple = ()


_KEYS = ("sigma", "pi")


def sweep(name: str, groups, chars, monomials) -> CheckReport:
    """Check every law of every group, in order, and report them as ``name``.

    Points run in lexicographic order of ``chars`` (sigma outermost).  A
    counterexample is located by ``sigma`` and ``pi`` as the point has
    them, then the law's own fields, then ``b`` or ``rho`` for an inner
    law.
    """
    rb = ReportBuilder(name)
    expect = rb.expect
    for arity, setup, point_laws, inner_laws in groups:
        inner, key = (chars, "rho") if arity == 3 else (monomials, "b")
        for point in product(chars, repeat=min(arity, 2)):
            ctx = point if setup is None else setup(*point)
            where = dict(zip(_KEYS, point))
            for law, sides, fixed in point_laws:
                lhs, rhs = sides(*ctx)
                expect(law, {**where, **fixed} if fixed else where, lhs, rhs)
            if inner_laws:
                # a report copies the location of a failure it keeps, so the
                # inner laws share the point's location, updated in place
                for b in inner:
                    where[key] = b
                    for law, sides, _ in inner_laws:
                        lhs, rhs = sides(*ctx, b)
                        expect(law, where, lhs, rhs)
    return rb.finish()
