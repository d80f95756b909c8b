"""The lift pipeline sweeps each cocycle box once.

``verify_cocycle`` remembers its report per exact character box on the
cocycle, and ``solve_coboundary`` checks the same box as its
precondition, so verify-then-solve (and both ``lift`` CLI branches)
run the (2r+1)^(3d) cocycle sweep once.  Sweeps are counted by wrapping
the ``sweep`` of the law table that ``verify_cocycle`` builds its report with.
"""

from pathlib import Path

import pytest

from nctorus import cohomology
from nctorus.algebra import TwistedPoly
from nctorus.cli import main
from nctorus.cohomology import (
    Obstruction,
    TwoCocycle,
    solve_coboundary,
    trivialize,
    verify_cocycle,
)
from nctorus.dynamics import TorusAction, char_box
from nctorus.phases import Phase
from nctorus.q3torus import standard_angles, twist3

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def sweeps(monkeypatch):
    """Number of cocycle sweeps started since the fixture was requested."""
    count = [0]

    sweep = cohomology.sweep

    def counting(name, *args, **kwargs):
        if name == "two-cocycle-laws":
            count[0] += 1
        return sweep(name, *args, **kwargs)

    monkeypatch.setattr(cohomology, "sweep", counting)
    return count


@pytest.fixture
def action():
    return TorusAction(twist3(*standard_angles()), (2,))


def trivial_cocycle(action):
    one = TwistedPoly.one(action.twist)
    return TwoCocycle(action, lambda s, p: one)


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("lift_witness", ["--seed", "5"], 0),
        ("lift_antisymmetric", [], 1),
    ],
)
def test_each_lift_branch_sweeps_once(capsys, sweeps, name, argv, code):
    config = str(GOLDEN / f"{name}.config.json")
    assert main(["lift", "--json", "--config", config, *argv]) == code
    assert (GOLDEN / f"{name}.json").read_text() == capsys.readouterr().out
    assert sweeps[0] == 1


def test_verify_then_solve_sweeps_once(sweeps, action):
    u = trivial_cocycle(action)
    assert verify_cocycle(u, 2).passed
    assert not isinstance(solve_coboundary(u, 2), Obstruction)
    assert sweeps[0] == 1


def test_report_is_remembered_per_exact_box(sweeps, action):
    u = trivial_cocycle(action)
    small = verify_cocycle(u, 1)
    large = verify_cocycle(u, 2)
    assert sweeps[0] == 2
    assert (small.checks, large.checks) == (1 + 2 * 3**2 + 3**3, 1 + 2 * 5**2 + 5**3)
    # the same box, given as a radius or as the explicit character list
    assert verify_cocycle(u, char_box(1, 2)) is large
    assert verify_cocycle(u, 1) is small
    assert sweeps[0] == 2
    # a fresh cocycle does not share the memo
    verify_cocycle(trivial_cocycle(action), 2)
    assert sweeps[0] == 3


def test_non_cocycle_still_raises_after_a_remembered_failure(sweeps, action):
    tw = action.twist
    u1 = TwistedPoly.scalar(tw, Phase.unit(tw.nslots, 0))
    one = TwistedPoly.one(tw)
    u = TwoCocycle(action, lambda s, p: u1 if s == (1,) else one)
    assert not verify_cocycle(u, 2).passed
    with pytest.raises(ValueError, match="not a 2-cocycle"):
        solve_coboundary(u, 2)
    outcome = trivialize(u, 2)
    assert outcome.solved is None and outcome.obstruction is None
    assert not outcome.cocycle_report.passed
    assert sweeps[0] == 1


def test_trivialize_records_the_obstruction(sweeps):
    tw = twist3(*standard_angles())
    act = TorusAction(tw, (1, 2))
    q = Phase.unit(tw.nslots, 0)
    u = TwoCocycle(act, lambda s, p: TwistedPoly.scalar(tw, q ** (s[1] * p[0])))
    outcome = trivialize(u, 1)
    assert outcome.cocycle_report.passed and outcome.solved is None
    assert outcome.obstruction.kind == "antisymmetric-class"
    assert outcome.lifted is None
    assert sweeps[0] == 1
