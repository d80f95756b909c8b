"""Every box verifier keeps its failure order and its check count.

Each verifier gets one input that fails at least two distinct laws, on a
small box so that several law groups fail.  The counterexample cap is
raised for the pinned run, so the test sees the whole sequence of
failures, ``(law, where, lhs, rhs)`` in sweep order with the key order of
each ``where``, and the check count;
a reordered group, law or point changes that sequence.  The default
report must keep the first ``MAX_FAILURES`` of it.

The expected values live in ``tests/golden/failure_order.json``.
``PYTHONPATH=src python tests/test_failure_order.py`` rewrites that file from the
current code; rewrite it only for a change that is meant to reorder a
verifier's sweep.
"""

import json
from pathlib import Path

import pytest

from nctorus import report
from nctorus.algebra import PolyMatrix, TwistedPoly
from nctorus.cohomology import TwoCocycle, verify_cocycle
from nctorus.derivations import (
    HFamily,
    crossed_hom_report,
    gauge_report,
    verify_lift_conditions,
)
from nctorus.dynamics import TorusAction
from nctorus.factor_system import (
    PartialIsometryFamily,
    frohlich_morphism,
    from_cleft,
    verify_axioms,
    verify_conjugacy,
    verify_gauge_unitary,
)
from nctorus.phases import QQi
from nctorus.q3torus import base_scaling_derivation

from strategies import TW3

GOLDEN = Path(__file__).parent / "golden" / "failure_order.json"
BOX = [(0,), (1,), (-1,)]


def _system():
    return from_cleft(TorusAction(TW3, (2,)))


def _scaled_u1(fs, c):
    """1 at the trivial character, c * u1 elsewhere: neither unitary nor central."""
    tw = fs.action.twist
    one = PolyMatrix.from_scalar(TwistedPoly.one(tw))
    off = PolyMatrix.from_scalar(TwistedPoly.generator(tw, 0).scale(QQi(c)))
    return PartialIsometryFamily(fs.action, lambda char: off if any(char) else one)


def _cases():
    """name -> zero-argument call of one verifier on a failing input."""
    fs = _system()
    action = fs.action
    tw = action.twist
    u1 = TwistedPoly.generator(tw, 0)
    # omega(1, 0) and omega(1, 1) doubled: normalization, range projections,
    # coaction intertwining and the cocycle identity fail
    corrupted = fs.with_omega_override(
        (1,), (0,), PolyMatrix.from_scalar(TwistedPoly.one(tw).scale(QQi(2)))
    ).with_omega_override((1,), (1,), fs.omega((1,), (1,)).map(lambda e: e.scale(QQi(2))))
    # H(sigma) = sigma * u1: not skew, not central, not additive
    h_u1 = HFamily.from_scalars(action, lambda char: u1.scale(QQi(char[0])))
    # H(sigma) = sigma^2: a self-adjoint scalar, not additive
    h_square = HFamily.from_scalars(
        action, lambda char: TwistedPoly.scalar(tw, QQi(char[0] ** 2))
    )

    # central unitary scalars off the cocycle identity, with u(0, 0) = -1
    def value_fn(sigma, pi_):
        k = 2 if not any(sigma) and not any(pi_) else (sigma[0] * sigma[0] * pi_[0]) % 4
        return TwistedPoly.scalar(tw, QQi(0, 1) ** k)

    return {
        "verify_axioms": lambda: verify_axioms(corrupted, BOX, 1),
        "verify_conjugacy": lambda: verify_conjugacy(fs, fs, _scaled_u1(fs, 2), BOX, 1),
        "verify_gauge_unitary": lambda: verify_gauge_unitary(fs, _scaled_u1(fs, 2), BOX, 1),
        "verify_lift_conditions": lambda: verify_lift_conditions(
            fs, base_scaling_derivation(action, 0), h_u1, BOX, 1
        ),
        "gauge_report": lambda: gauge_report(fs, h_u1, BOX, 1),
        "crossed_hom_report": lambda: crossed_hom_report(fs, h_square, BOX),
        "verify_cocycle": lambda: verify_cocycle(
            TwoCocycle(action, value_fn, lambda c: frohlich_morphism(fs, c)), BOX
        ),
    }


def _full_run(call):
    """The report of ``call`` with every failure kept, as JSON data."""
    cap = report.MAX_FAILURES
    report.MAX_FAILURES = 10**6
    try:
        rep = call()
    finally:
        report.MAX_FAILURES = cap
    # the location as [key, value] pairs, so the key order is pinned too
    failures = [{**f.to_json(), "where": [list(kv) for kv in f.where.items()]} for f in rep.failures]
    return {"checks": rep.checks, "failures": failures}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_cases()))
def test_failure_sequence_and_count_are_pinned(golden, name):
    expected = golden[name]
    got = _full_run(_cases()[name])
    assert len({f["law"] for f in got["failures"]}) >= 2
    assert got == expected
    capped = _cases()[name]()
    assert capped.checks == expected["checks"]
    assert _full_run(lambda: capped)["failures"] == expected["failures"][: report.MAX_FAILURES]


if __name__ == "__main__":
    pinned = {name: _full_run(call) for name, call in sorted(_cases().items())}
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
