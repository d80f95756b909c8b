"""Property test: no generated config makes a command crash.

Configs are small (n in {2, 3}, box radius and degree at most 1, radius
0 at rank 3, polynomials of at most two terms) and often malformed.  The
property: every run ends in a verdict (exit 0 or 1) or an input error
(exit 2), never in an internal error (exit 3) or an escaped exception,
and prints one JSON report.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_cli

COMMANDS = ("check-factor-system", "lift", "lift-derivation", "curvature")
ANGLES = ("0", "1/2", "1/3", "-1/4")
SMALL = st.integers(-1, 1)


@st.composite
def configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    n = draw(st.sampled_from((2, 3)))
    nslots = n * (n - 1) // 2
    theta = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = draw(st.sampled_from(ANGLES))
            theta[i][j], theta[j][i] = a, a[1:] if a.startswith("-") else f"-{a}"
    acting = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    d = len(acting)

    term = st.fixed_dictionaries(
        {"exponents": st.lists(SMALL, min_size=n, max_size=n)},
        optional={
            "coeff": st.fixed_dictionaries(
                {"re": st.sampled_from(("1", "-1", "0", "1/2")),
                 "im": st.sampled_from(("0", "1", "-1/2"))}
            ),
            "phase_exponents": st.lists(SMALL, min_size=nslots, max_size=nslots),
            "tau": st.integers(0, 1),
        },
    )
    poly = st.lists(term, max_size=2)
    gen_images = st.dictionaries(st.sampled_from([str(k) for k in range(1, n + 1)]), poly,
                                 max_size=n)
    char = st.lists(SMALL, min_size=d, max_size=d)
    char_key = char.map(lambda c: ",".join(map(str, c)))

    cfg = {
        "n": n,
        "theta": theta,
        "acting_coords": acting,
        # rank 3 at radius 1 sweeps 3^9 cocycle identities (seconds a run)
        "char_range": draw(st.integers(0, 1 if d < 3 else 0)),
        "gen_degree": draw(st.integers(0, 1)),
    }
    optional = {
        "automorphism": st.fixed_dictionaries(
            {"images": gen_images}, optional={"inverse_images": gen_images}
        ),
        "derivation": st.fixed_dictionaries({"images": gen_images}),
        "derivation_1": st.fixed_dictionaries({"images": gen_images}),
        "derivation_2": st.fixed_dictionaries({"images": gen_images}),
        "h_family": st.one_of(
            st.fixed_dictionaries({"linear_scalar": st.one_of(poly, st.lists(poly, max_size=d))}),
            st.fixed_dictionaries({"per_char": st.dictionaries(char_key, poly, max_size=3)}),
        ),
        "v_family": st.dictionaries(char_key, poly, max_size=3),
        "cocycle": st.fixed_dictionaries({
            "slot": st.lists(st.integers(1, n), min_size=2, max_size=2),
            "bilinear_exponents": st.lists(st.lists(SMALL, min_size=d, max_size=d),
                                           min_size=d, max_size=d),
        }),
        "sigma": char,
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(strategy)
    return command, cfg


# every generator acted on and no derivation given: nothing to scale by default
@example(("curvature", {"n": 2, "theta": [["0", "1/4"], ["-1/4", "0"]],
                        "acting_coords": [1, 2], "sigma": [0, 0]}))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(configs())
def test_generated_configs_never_crash(case):
    command, cfg = case
    code, out, err = run_cli(command, "--config", "-", "--json", stdin=json.dumps(cfg))
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["passed"] is (code == 0)
