"""CLI reports stay byte-identical to the committed golden reports.

The ``.json`` reports in ``tests/golden/`` were produced by the CLI with
``--json`` and without ``--timing``; ``demo_q3torus.txt`` is the stdout of
the plain ``demo q3torus`` command.  Any change to the exact arithmetic,
to term order or to rendering shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from conftest import run_cli

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("demo_q3torus", ["demo", "q3torus", "--json"], 0),
    # the plain command: its stdout is the report, the summary goes to stderr
    ("demo_q3torus.txt", ["demo", "q3torus"], 0),
    (
        "rank2_corrupted",
        ["check-factor-system", "--json", "--config", str(GOLDEN / "rank2_corrupted.config.json")],
        1,
    ),
    # automorphism with a central witness family that lifts, seeded re-check sample
    (
        "lift_witness",
        ["lift", "--json", "--seed", "5", "--config", str(GOLDEN / "lift_witness.config.json")],
        0,
    ),
    # synthetic rank-2 cocycle with an antisymmetric class
    (
        "lift_antisymmetric",
        ["lift", "--json", "--config", str(GOLDEN / "lift_antisymmetric.config.json")],
        1,
    ),
    # scaling derivation with a non-zero gauge family, seeded Leibniz sample
    (
        "lift_derivation",
        ["lift-derivation", "--json", "--seed", "3",
         "--config", str(GOLDEN / "lift_derivation.config.json")],
        0,
    ),
    # constant non-zero family: the cocycle derivative fails off the diagonal
    (
        "lift_derivation_not_additive",
        ["lift-derivation", "--json",
         "--config", str(GOLDEN / "lift_derivation_not_additive.config.json")],
        1,
    ),
    (
        "curvature",
        ["curvature", "--json", "--config", str(GOLDEN / "curvature.config.json")],
        0,
    ),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_report_matches_golden(name, argv, code):
    got, out, _ = run_cli(*argv)
    assert got == code
    path = GOLDEN / (name if name.endswith(".txt") else f"{name}.json")
    assert out == path.read_text(encoding="utf-8")
