import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nctorus
from conftest import run_cli, theta_float

# the liveness and closed-pipe tests run ``python -m nctorus.cli`` in a child
# process, which imports the same package as these tests, installed or not
CLI = [sys.executable, "-m", "nctorus.cli"]
SRC = str(Path(nctorus.__file__).resolve().parents[1])
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}

Q3_CONFIG = {
    "n": 3,
    "theta": [["0", "1/4", "-1/3"], ["-1/4", "0", "-1/6"], ["1/3", "1/6", "0"]],
    "acting_coords": [3],
    "char_range": 2,
    "gen_degree": 2,
}


def run_module(*args):
    """The CLI in a child process; a run past 120 s fails."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=120, env=ENV)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheckFactorSystem:
    def test_passing_system_exits_zero(self, tmp_path):
        proc = run_cli(
            "check-factor-system", "--config", write_config(tmp_path, Q3_CONFIG), "--json"
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["passed"] is True
        assert report["counterexamples"] == []

    def test_corrupted_cocycle_exits_one_with_counterexample(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["omega_overrides"] = [
            {"sigma": [1], "pi": [1], "value": [{"exponents": [1, 0, 0]}]}
        ]
        proc = run_cli("check-factor-system", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["passed"] is False
        assert report["counterexamples"]
        assert "sigma" in report["counterexamples"][0]["where"]

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3')
        proc = run_cli("check-factor-system", "--config", str(path), "--json")
        assert proc.returncode == 2

    def test_float_angles_are_rejected(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["theta"] = [[0, 0.25, 0], [-0.25, 0, 0], [0, 0, 0]]
        proc = run_cli("check-factor-system", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 2
        assert "rational" in json.loads(proc.stdout)["error"]

    def test_config_from_stdin(self, tmp_path):
        proc = run_cli(
            "check-factor-system", "--config", "-", "--json", stdin=json.dumps(Q3_CONFIG)
        )
        assert proc.returncode == 0


class TestLift:
    def test_identity_automorphism_lifts_trivially(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["automorphism"] = {
            "images": {
                "1": [{"exponents": [1, 0, 0]}],
                "2": [{"exponents": [0, 1, 0]}],
            }
        }
        proc = run_cli("lift", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_diagonal_automorphism_lifts(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["automorphism"] = {
            "images": {
                "1": [{"exponents": [1, 0, 0], "coeff": {"re": "0", "im": "1"}}],
                "2": [{"exponents": [0, 1, 0], "coeff": {"re": "-1", "im": "0"}}],
            }
        }
        proc = run_cli("lift", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["passed"] is True
        assert report["details"]["cocycle_valid"] is True

    def test_synthetic_rank_two_cocycle_is_obstructed(self, tmp_path):
        cfg = {
            "n": 2,
            "theta": [["0", "1/5"], ["-1/5", "0"]],
            "acting_coords": [1, 2],
            "cocycle": {"slot": [1, 2], "bilinear_exponents": [[0, 0], [1, 0]]},
        }
        proc = run_cli("lift", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["details"]["cocycle_valid"] is True
        assert report["details"]["obstruction"]["kind"] == "antisymmetric-class"

    def test_missing_automorphism_is_a_config_error(self, tmp_path):
        proc = run_cli("lift", "--config", write_config(tmp_path, Q3_CONFIG), "--json")
        assert proc.returncode == 2

    def test_explicit_central_witness_family(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["automorphism"] = {
            "images": {
                "1": [{"exponents": [1, 0, 0]}],
                "2": [{"exponents": [0, 1, 0], "coeff": {"re": "0", "im": "-1"}}],
            }
        }
        cfg["v_family"] = {
            str(k): [
                {
                    "exponents": [0, 0, 0],
                    "phase_exponents": [k % 3, -(k % 2), 0],
                }
            ]
            for k in range(-8, 9)
        }
        proc = run_cli("lift", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_witness_family_short_of_three_times_the_range_names_the_reach(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["automorphism"] = {
            "images": {
                "1": [{"exponents": [1, 0, 0]}],
                "2": [{"exponents": [0, 1, 0]}],
            }
        }
        # covers -4..4, but char_range 2 reads the witness out to -6..6
        cfg["v_family"] = {str(k): [{"exponents": [0, 0, 0]}] for k in range(-4, 5)}
        proc = run_cli("lift", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert "v_family has no value at character" in error
        assert "char_range 2" in error and "-6..6" in error
        assert "Traceback" not in proc.stderr

    def test_invalid_witness_family_is_a_math_failure(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["automorphism"] = {
            "images": {
                "1": [{"exponents": [1, 0, 0]}],
                "2": [{"exponents": [0, 1, 0]}],
            }
        }
        # u1-valued witness entries break the coaction conjugacy equation
        cfg["v_family"] = {
            str(k): [{"exponents": ([1, 0, 0] if k else [0, 0, 0])}]
            for k in range(-8, 9)
        }
        proc = run_cli("lift", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["passed"] is False
        assert "witness" in report["error"]

    def test_witness_wrong_only_outside_the_box_is_a_math_failure(self, tmp_path):
        golden = Path(__file__).parent / "golden" / "lift_witness.config.json"
        cfg = json.loads(golden.read_text())
        # conjugacy holds on the box |sigma| <= 2; the cocycle reads v(4)
        cfg["v_family"]["4"] = [{"exponents": [1, 0, 0]}]
        proc = run_cli("lift", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["passed"] is False
        assert report["error"] == "cocycle value at ((2,), (2,)) is not central"
        assert "Traceback" not in proc.stderr

    def test_rank_two_action_automorphism_lifts(self, tmp_path):
        cfg = {
            "n": 3,
            "theta": [["0", "1/5", "1/7"], ["-1/5", "0", "2/7"], ["-1/7", "-2/7", "0"]],
            "acting_coords": [1, 2],
            "char_range": 1,
            "automorphism": {
                "images": {"3": [{"exponents": [0, 0, 1], "coeff": {"re": "0", "im": "1"}}]}
            },
        }
        proc = run_cli("lift", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_negative_range_is_an_input_error(self, tmp_path):
        proc = run_cli(
            "check-factor-system",
            "--config",
            write_config(tmp_path, Q3_CONFIG),
            "--range",
            "-1",
            "--json",
        )
        assert proc.returncode == 2


    def test_non_star_automorphism_is_an_input_error(self, tmp_path):
        # u1 -> 2 u1 is invertible and respects the relations, but is not unitary
        cfg = dict(Q3_CONFIG)
        cfg["automorphism"] = {
            "images": {
                "1": [{"exponents": [1, 0, 0], "coeff": {"re": "2", "im": "0"}}],
                "2": [{"exponents": [0, 1, 0]}],
            }
        }
        proc = run_cli("lift", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 2
        assert "automorphism is not a *-morphism" in json.loads(proc.stdout)["error"]
        assert "Traceback" not in proc.stderr


IDENTITY_AUTOMORPHISM = {
    "images": {"1": [{"exponents": [1, 0, 0]}], "2": [{"exponents": [0, 1, 0]}]}
}


@pytest.mark.parametrize(
    "command, extra, flags, named",
    [
        ("check-factor-system", {"char_range": 1.5}, [], "char_range"),
        ("check-factor-system", {"gen_degree": "x"}, [], "gen_degree"),
        ("check-factor-system", {"char_range": "2"}, [], "char_range"),
        ("check-factor-system", {"char_range": True}, [], "char_range"),
        ("check-factor-system", {"char_range": [[1]]}, [], "char_range"),
        ("lift", {"gen_degree": -1, "automorphism": IDENTITY_AUTOMORPHISM}, [], "gen_degree"),
        ("lift-derivation", {"char_range": 1.5}, [], "char_range"),
        ("curvature", {"gen_degree": 2.0, "sigma": [1]}, [], "gen_degree"),
        # the flags override the config, and are checked the same way
        ("check-factor-system", {"char_range": 1.5}, ["--range", "1", "--degree", "-2"], "--degree"),
    ],
)
def test_box_parameters_must_be_non_negative_integers(tmp_path, command, extra, flags, named):
    cfg = {**Q3_CONFIG, **extra}
    proc = run_cli(command, "--config", write_config(tmp_path, cfg), *flags, "--json")
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error.startswith(f"{named} must be a non-negative integer")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, extra, path",
    [
        ("check-factor-system", {"omega_overrides": [5]}, "omega_overrides[0]"),
        (
            "check-factor-system",
            {"omega_overrides": [{"sigma": [1], "pi": [1], "value": [
                {"exponents": [1, 0, 0], "coeff": "i"}]}]},
            "omega_overrides[0].value[0].coeff",
        ),
        (
            "check-factor-system",
            {"omega_overrides": [{"sigma": 1, "pi": [1], "value": []}]},
            "omega_overrides[0].sigma",
        ),
        ("curvature", {"sigma": [1], "derivation_1": 5}, "derivation_1"),
        ("lift", {"automorphism": 5}, "automorphism"),
        (
            "lift",
            {"automorphism": {**IDENTITY_AUTOMORPHISM, "inverse_images": [1]}},
            "automorphism.inverse_images",
        ),
        ("lift", {"automorphism": {"images": {"one": []}}}, "automorphism.images"),
        ("lift", {"cocycle": "slot"}, "cocycle"),
        ("lift-derivation", {"h_family": 5}, "h_family"),
        ("lift-derivation", {"h_family": {"linear_scalar": 5}}, "h_family.linear_scalar"),
        # the input checks below are each reached by this row alone
        ("check-factor-system", {"theta": [["0", [1], "0"], ["0", "0", "0"], ["0", "0", "0"]]},
         "theta[0][1]: expected rational string, got list"),
        ("check-factor-system", {"theta": [["0", "x", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
         "theta[0][1]: bad rational 'x'"),
        ("check-factor-system", {"theta": "0"}, "theta must be an n x n array"),
        ("check-factor-system", {"theta": [["0", "0", "0"], ["0", "0"], ["0", "0", "0"]]},
         "theta must be an n x n array"),
        ("check-factor-system", {"theta": [["0", "1/4", "0"], ["1/4", "0", "0"], ["0", "0", "0"]]},
         "theta: theta must be skew-symmetric"),
        ("check-factor-system", {"acting_coords": []}, "acting_coords must be a nonempty list"),
        ("check-factor-system", {"acting_coords": [4]},
         "acting_coords: coordinate 4 out of range 1..3"),
        ("check-factor-system", {"acting_coords": [3, 3]},
         "acting_coords: acting coordinates must be distinct"),
        ("check-factor-system", {"omega_overrides": 5}, "omega_overrides must be a list"),
        ("check-factor-system", {"omega_overrides": [{"sigma": [1], "pi": [1], "value": 5}]},
         "omega_overrides[0].value: expected a list of terms"),
        ("check-factor-system", {"omega_overrides": [{"sigma": [1], "pi": [1], "value": [5]}]},
         "omega_overrides[0].value[0]: expected a term object"),
        ("check-factor-system",
         {"omega_overrides": [{"sigma": [1], "pi": [1], "value": [{"exponents": [1, 0]}]}]},
         "omega_overrides[0].value[0]: exponents must have length 3"),
        ("check-factor-system",
         {"omega_overrides": [{"sigma": [1], "pi": [1], "value": [
             {"exponents": [0, 0, 0], "phase_exponents": [1]}]}]},
         "omega_overrides[0].value[0]: phase_exponents must have length 3"),
        ("lift", {"automorphism": {"images": {"4": [{"exponents": [1, 0, 0]}]}}},
         "automorphism.images: generator index 4 out of range"),
        ("lift", {"automorphism": {"images": [1]}},
         "automorphism.images must map generator indices to terms"),
        ("lift", {"automorphism": IDENTITY_AUTOMORPHISM, "v_family": 5},
         "v_family must map character keys to terms"),
        ("lift", {"automorphism": IDENTITY_AUTOMORPHISM, "v_family": {"x": []}},
         "v_family: bad character key 'x'"),
        ("lift", {"automorphism": IDENTITY_AUTOMORPHISM, "v_family": {"1,2": []}},
         "v_family: character '1,2' has wrong rank"),
        ("lift", {"cocycle": {"slot": 1}}, "cocycle.slot must be a pair"),
        ("lift", {"cocycle": {"slot": [1, 2], "bilinear_exponents": 5}},
         "cocycle.bilinear_exponents must be a d x d integer matrix"),
        ("lift-derivation", {"h_family": {}}, "h_family needs per_char or linear_scalar"),
        ("check-factor-system", {"n": "3"}, "n: expected integer, got '3'"),
        ("check-factor-system", {"acting_coords": [True]}, "acting_coords: expected integer, got True"),
    ],
)
def test_non_object_config_values_name_their_path(tmp_path, command, extra, path):
    cfg = {**Q3_CONFIG, **extra}
    proc = run_cli(command, "--config", write_config(tmp_path, cfg), "--json")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"].startswith(path)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, stdin, error",
    [
        (["--config", "-"], "[1, 2]", "config must be a JSON object"),
        ([], None, "--config is required"),
        # json keeps the last of two equal keys, so an image would be dropped
        (["--config", "-"], '{"n": 3, "n": 3}', "key 'n' appears twice in one JSON object"),
        # the repeated key is named at its config path, in the readers' notation
        (["--config", "-"], '{"automorphism": {"images": {"1": [], "1": []}}}',
         "automorphism.images: key '1' appears twice in one JSON object"),
        (["--config", "-"], '{"v_family": {"1": [{"exponents": [0], "exponents": [1]}]}}',
         "v_family[1][0]: key 'exponents' appears twice in one JSON object"),
        # nested past the recursion limit: json raises RecursionError, not a decode error
        pytest.param(["--config", "-"], '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}",
                     "malformed JSON: nested too deeply to read", id="nested-too-deeply"),
    ],
)
def test_the_config_itself_is_checked(args, stdin, error):
    proc = run_cli("check-factor-system", *args, "--json", stdin=stdin)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == error
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, extra, message",
    [
        (
            "lift",
            {"automorphism": {"images": {"1": [{"exponents": [1, 0, 0]}]}}},
            "automorphism.images: missing generator images for u2",
        ),
        (
            "lift",
            {"automorphism": {
                "images": {"1": [{"exponents": [1, 0, 0]}],
                           "2": [{"exponents": [0, 1, 0]}, {"exponents": [1, 0, 0]}]},
                "inverse_images": {"1": [{"exponents": [-1, 0, 0]}],
                                   "2": [{"exponents": [0, -1, 0]}]},
            }},
            "automorphism.images[2]: only monomials are invertible",
        ),
        (
            "lift-derivation",
            {"h_family": {"linear_scalar": []}},
            "h_family.linear_scalar: one slope per acting coordinate required",
        ),
        (
            "lift-derivation",
            {"h_family": {"per_char": {"1": [{"exponents": [0, 0, 1]}]}}},
            "h_family.per_char[1]: family value at (1,) leaves the fixed algebra",
        ),
        (
            "lift",
            {"automorphism": IDENTITY_AUTOMORPHISM,
             "v_family": {"0": [{"exponents": [0, 0, 0], "coeff": {"re": "2", "im": "0"}}]}},
            "v_family[0]: witness family must send the trivial character to 1",
        ),
        (
            "lift-derivation",
            {"h_family": {"linear_scalar": [{"exponents": [0, 0, 1]}]}},
            "h_family.linear_scalar: family value at (1,) leaves the fixed algebra",
        ),
        (
            "check-factor-system",
            {"char_range": 1, "omega_overrides": [
                {"sigma": [1], "pi": [0], "value": [{"exponents": [0, 0, 1]}]}]},
            "omega_overrides[0].value: cocycle value leaves the fixed algebra",
        ),
        # "01" names u1 too: the image i*u1 under "1" was dropped for it
        (
            "lift",
            {"automorphism": {"images": {
                "1": [{"exponents": [1, 0, 0], "coeff": {"re": "0", "im": "1"}}],
                "01": [{"exponents": [1, 0, 0]}]}}},
            "automorphism.images[01]: generator key '01' is not canonical; write '1'",
        ),
        (
            "lift",
            {"automorphism": {"images": {" +2 ": [{"exponents": [0, 1, 0]}]}}},
            "automorphism.images[ +2 ]: generator key ' +2 ' is not canonical; write '2'",
        ),
        (
            "lift",
            {"automorphism": {"images": {"--2": [{"exponents": [0, 1, 0]}]}}},
            "automorphism.images: bad generator key '--2'",
        ),
        (
            "lift",
            {"automorphism": IDENTITY_AUTOMORPHISM,
             "v_family": {"0": [{"exponents": [0, 0, 0]}], "00": [{"exponents": [0, 0, 0]}]}},
            "v_family[00]: character key '00' is not canonical; write '0'",
        ),
        (
            "lift",
            {"automorphism": IDENTITY_AUTOMORPHISM, "v_family": {"1_0": []}},
            "v_family[1_0]: character key '1_0' is not canonical; write '10'",
        ),
        (
            "lift",
            {"automorphism": IDENTITY_AUTOMORPHISM, "v_family": {"-0": []}},
            "v_family[-0]: character key '-0' is not canonical; write '0'",
        ),
        (
            "lift-derivation",
            {"h_family": {"per_char": {"+1": []}}},
            "h_family.per_char[+1]: character key '+1' is not canonical; write '1'",
        ),
        # u1 <-> u2: only diagonal images w_k u_k have an inverse read off them
        (
            "lift",
            {"automorphism": {"images": {"1": [{"exponents": [0, 1, 0]}],
                                         "2": [{"exponents": [1, 0, 0]}]}}},
            "automorphism.inverse_images is required for non-diagonal images",
        ),
    ],
)
def test_invalid_values_name_their_path(tmp_path, command, extra, message):
    cfg = {**Q3_CONFIG, **extra}
    proc = run_cli(command, "--config", write_config(tmp_path, cfg), "--json")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == message
    assert "Traceback" not in proc.stderr


# phase keys are packed, so every phase exponent must lie in [-2^62, 2^62)
BOUND = 1 << 62
RANGE_ERROR = "phase exponent outside the packed range [-2^62, 2^62)"


def _omega_term(**fields):
    value = [{"exponents": [0, 0, 0], **fields}]
    return {**Q3_CONFIG, "char_range": 1, "omega_overrides": [{"sigma": [1], "pi": [1], "value": value}]}


@pytest.mark.parametrize(
    "fields, path, value",
    [
        ({"phase_exponents": [BOUND, 0, 0]}, "phase_exponents", BOUND),
        ({"phase_exponents": [0, 0, -BOUND - 1]}, "phase_exponents", -BOUND - 1),
        ({"tau": BOUND}, "tau", BOUND),
        ({"tau": -BOUND - 1}, "tau", -BOUND - 1),
    ],
)
def test_phase_exponent_outside_the_range_names_its_path(tmp_path, fields, path, value):
    cfg = _omega_term(**fields)
    proc = run_cli("check-factor-system", "--config", write_config(tmp_path, cfg), "--json")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == (
        f"omega_overrides[0].value[0].{path}: {RANGE_ERROR}: {value}"
    )
    assert "Traceback" not in proc.stderr


def test_phase_exponents_inside_the_range_are_read(tmp_path):
    cfg = {**_omega_term(phase_exponents=[BOUND - 1, 0, 0]), "gen_degree": 1}
    proc = run_cli("check-factor-system", "--config", write_config(tmp_path, cfg), "--json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["counterexamples"][0]["rhs"] == f"[q12^{BOUND - 1}]"


def test_range_error_mid_run_is_an_input_error(tmp_path):
    # q13^(2^62 - 1)*u1 is a unit, so the image parses, but applying the
    # automorphism to u1^2 forms q13^(2^63 - 2)
    image = {"exponents": [1, 0, 0], "phase_exponents": [0, BOUND - 1, 0]}
    cfg = {**Q3_CONFIG, "char_range": 1,
           "automorphism": {"images": {"1": [image], "2": [{"exponents": [0, 1, 0]}]}}}
    proc = run_cli("lift", "--config", write_config(tmp_path, cfg), "--json")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == RANGE_ERROR
    assert "Traceback" not in proc.stderr


def _synthetic(bilinear):
    return {"n": 2, "theta": [["0", "1/5"], ["-1/5", "0"]], "acting_coords": [1, 2],
            "char_range": 1, "cocycle": {"slot": [1, 2], "bilinear_exponents": bilinear}}


# A power of a unit phase scales its exponent in one step, so a huge entry
# costs no more than a small one; run_module's timeout turns a hang into a failure.
def test_huge_synthetic_power_in_range_finishes(tmp_path):
    cfg = _synthetic([[1 << 40, 1], [1, 0]])
    proc = run_module("lift", "--config", write_config(tmp_path, cfg), "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["checks"] == 892


def test_synthetic_power_outside_the_range_names_its_path(tmp_path):
    cfg = _synthetic([[1 << 61, 0], [0, 0]])
    proc = run_module("lift", "--config", write_config(tmp_path, cfg), "--json")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"].startswith(f"cocycle.bilinear_exponents: {RANGE_ERROR}")
    assert "Traceback" not in proc.stderr

class TestLiftDerivation:
    def test_gauge_family_passes(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["h_family"] = {
            "linear_scalar": [
                {"exponents": [0, 0, 0], "coeff": {"re": "0", "im": "1"}, "tau": 1}
            ]
        }
        proc = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 0

    def test_scaling_derivation_passes(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["derivation"] = {
            "images": {
                "1": [{"exponents": [1, 0, 0], "coeff": {"re": "0", "im": "1"}, "tau": 1}]
            }
        }
        proc = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 0

    def test_defective_family_fails(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["derivation"] = {
            "images": {
                "1": [{"exponents": [1, 0, 0], "coeff": {"re": "0", "im": "1"}, "tau": 1}]
            }
        }
        cfg["h_family"] = {"per_char": {
            str(k): ([{"exponents": [1, 0, 0]}] if k == 1 else [])
            for k in range(-9, 10)
        }}
        proc = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "command, key, extra",
        [
            ("lift-derivation", "derivation", {}),
            ("curvature", "derivation_1", {"sigma": [1]}),
            ("curvature", "derivation_2", {"sigma": [1]}),
        ],
    )
    def test_non_star_derivation_is_an_input_error(self, tmp_path, command, key, extra):
        # u1 -> u1 respects the exchange relations but not the involution
        cfg = {**Q3_CONFIG, **extra, key: {"images": {"1": [{"exponents": [1, 0, 0]}]}}}
        proc = run_cli(command, "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == f"{key}: images do not define a *-derivation"
        assert "Traceback" not in proc.stderr

    def test_per_char_family_short_of_the_box_states_its_reach(self, tmp_path):
        # char_range 1 reads H(sigma + pi) out to -2..2; the table stops at -1..1
        cfg = {**Q3_CONFIG, "char_range": 1}
        cfg["h_family"] = {"per_char": {str(k): [] for k in range(-1, 2)}}
        proc = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == (
            "h_family.per_char has no value at character (-2,): lift-derivation with "
            "char_range 1 reads H at sums of two characters (sigma+pi in the cocycle "
            "derivative), so it needs h_family.per_char out to -2..2 in every coordinate"
        )
        assert "Traceback" not in proc.stderr

        cfg["h_family"] = {"per_char": {str(k): [] for k in range(-2, 3)}}
        proc = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 0

    def test_per_char_family_may_leave_out_the_trivial_character(self, tmp_path):
        # H(k) = k * (i/2) * 2*pi, tabulated without "0", reads as the linear family
        slope = {"exponents": [0, 0, 0], "coeff": {"re": "0", "im": "1/2"}, "tau": 1}
        cfg = dict(Q3_CONFIG)
        cfg["h_family"] = {"linear_scalar": [slope]}
        linear = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
        cfg["h_family"] = {"per_char": {
            str(k): [{**slope, "coeff": {"re": "0", "im": f"{k}/2"}}]
            for k in range(-9, 10) if k != 0
        }}
        table = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
        assert linear.returncode == table.returncode == 0
        assert table.stdout == linear.stdout

        cfg["h_family"]["per_char"]["0"] = [{"exponents": [0, 0, 0]}]
        proc = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 2
        assert "family must vanish at the trivial character" in json.loads(proc.stdout)["error"]

    # u1 and u2 acted on: a rank-2 linear family has one slope per coordinate
    RANK_TWO = {**Q3_CONFIG, "acting_coords": [1, 2], "char_range": 1}
    TWO_PI_I = {"exponents": [0, 0, 0], "coeff": {"re": "0", "im": "1"}, "tau": 1}

    def test_rank_two_slopes_are_read_per_coordinate(self, tmp_path):
        four_pi_i = {**self.TWO_PI_I, "coeff": {"re": "0", "im": "2"}}
        cfg = {**self.RANK_TWO, "h_family": {"linear_scalar": [[self.TWO_PI_I], [four_pi_i]]}}
        proc = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 0
        # a second slope of 1 is not skew-adjoint, so H(sigma) fails once sigma_2 != 0
        cfg["h_family"]["linear_scalar"][1] = [{"exponents": [0, 0, 0]}]
        proc = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 1
        first = json.loads(proc.stdout)["counterexamples"][0]
        assert (first["law"], first["where"]["sigma"]) == ("coaction derivative", "(-1, -1)")

    def test_single_rank_two_slope_serves_every_coordinate(self, tmp_path):
        outputs = []
        for slopes in ([self.TWO_PI_I], [[self.TWO_PI_I], [self.TWO_PI_I]]):
            cfg = {**self.RANK_TWO, "h_family": {"linear_scalar": slopes}}
            proc = run_cli("lift-derivation", "--config", write_config(tmp_path, cfg), "--json")
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


# n = 2, u2 acted on: u1 -> u1 u2 - u1 u2^-1 is a *-derivation of the whole
# algebra that no exchange relation constrains, but it leaves the fixed algebra
OUTSIDE_THE_BASE = {
    "n": 2, "theta": [["0", "1/4"], ["-1/4", "0"]], "acting_coords": [2], "sigma": [1],
}
IMAGE_OUTSIDE_THE_BASE = {"images": {"1": [
    {"exponents": [1, 1]}, {"exponents": [1, -1], "coeff": {"re": "-1", "im": "0"}}]}}


@pytest.mark.parametrize(
    "command, key", [("lift-derivation", "derivation"), ("curvature", "derivation_1")]
)
def test_derivation_image_outside_the_base_names_its_path(tmp_path, command, key):
    cfg = {**OUTSIDE_THE_BASE, key: IMAGE_OUTSIDE_THE_BASE}
    proc = run_cli(command, "--config", write_config(tmp_path, cfg), "--json")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == (
        f"{key}: image of u1 leaves the algebra generated by u1"
    )
    assert "Traceback" not in proc.stderr


class TestCurvature:
    # n = 2 with both generators acted on: no fixed generator to scale
    FREE_ACTION = {"n": 2, "theta": [["0", "1/4"], ["-1/4", "0"]],
                   "acting_coords": [1, 2], "sigma": [0, 0]}

    def test_sweep_vanishes(self, tmp_path):
        cfg = dict(Q3_CONFIG)
        cfg["sigma"] = [2]
        proc = run_cli("curvature", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["details"]["curvature_vanishes"] is True

    @pytest.mark.parametrize(
        "given, named", [((), "derivation_1"), (("derivation_1",), "derivation_2")]
    )
    def test_default_derivations_need_a_fixed_generator(self, tmp_path, given, named):
        cfg = {**self.FREE_ACTION, **{key: {"images": {}} for key in given}}
        proc = run_cli("curvature", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"].startswith(f"{named} is required")
        assert "Traceback" not in proc.stderr

    def test_given_derivations_need_no_fixed_generator(self, tmp_path):
        cfg = {**self.FREE_ACTION, "derivation_1": {"images": {}}, "derivation_2": {"images": {}}}
        proc = run_cli("curvature", "--config", write_config(tmp_path, cfg), "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["details"]["curvature_vanishes"] is True

    def test_a_nonzero_curvature_value_clears_the_flag(self, monkeypatch):
        # cleft frames are flat, so a nonzero value is fed in: both methods
        # agree on it for one element, and every other element keeps its value
        from nctorus import cli
        from nctorus.dynamics import TorusAction
        from nctorus.factor_system import from_cleft
        from nctorus.q3torus import base_scaling_derivation, standard_angles, twist3

        action = TorusAction(twist3(*standard_angles()), (2,))
        fs = from_cleft(action)
        d1 = base_scaling_derivation(action, 0)
        d2 = base_scaling_derivation(action, 1)
        seen, curvature = [], cli.curvature

        def one_curved(module, d1, d2, x, method):
            if not seen or seen[0] == x:
                seen.append(x)
                return x
            return curvature(module, d1, d2, x, method)

        monkeypatch.setattr(cli, "curvature", one_curved)
        report, flat = cli._curvature_sweep("curvature", fs, d1, d2, {(1,): {}}, 2)

        assert seen == [seen[0]] * 2 and not seen[0].is_zero()
        assert flat is False
        assert report.passed and report.checks == 13


class TestDemo:
    def test_default_walkthrough(self):
        proc = run_cli("demo", "q3torus", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        details = report["details"]
        assert details["omega_identically_one"] is True
        assert details["atiyah_split"] is True
        assert details["curvature_vanishes"] is True
        assert details["gamma"]["1"]["u1"] == "(q13^-1)*u1"
        assert details["theta"] == ["1/4", "-1/3", "-1/6"]

    def test_commutative_angles(self):
        proc = run_cli(
            "demo", "q3torus", "--theta12", "0", "--theta13", "0", "--theta23", "0", "--json"
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        # formal units are kept symbolic; at zero angles they evaluate to 1,
        # so the coaction coefficients all collapse numerically
        from nctorus.factor_system import from_cleft
        from nctorus.q3torus import restricted_gauge_action, twist3

        fs = from_cleft(restricted_gauge_action(twist3(0, 0, 0)))
        theta = theta_float(fs.action.twist)
        z = [1.0, 1.0, 1.0]
        for k in (-2, 1, 3):
            for gen in (0, 1):
                from nctorus.algebra import TwistedPoly

                img = fs.gamma((k,)).apply(TwistedPoly.generator(fs.action.twist, gen))
                got = img.as_scalar().evaluate(theta, z)
                assert got == pytest.approx(1.0)
        assert report["details"]["omega_identically_one"] is True

    def test_seeded_fuzz_passes(self):
        proc = run_cli("demo", "q3torus", "--random-theta", "--seed", "11", "--json")
        assert proc.returncode == 0

    def test_reports_are_byte_identical(self):
        a = run_cli("demo", "q3torus", "--seed", "3", "--json")
        b = run_cli("demo", "q3torus", "--seed", "3", "--json")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_timing_flag_adds_elapsed(self):
        proc = run_cli("demo", "q3torus", "--json", "--timing")
        assert proc.returncode == 0
        assert "elapsed_ms" in json.loads(proc.stdout)

    def test_config_is_an_input_error(self):
        # the demo reads no config, so one given is refused, not ignored
        proc = run_cli("demo", "q3torus", "--json", "--config", "missing.json")
        assert proc.returncode == 2
        assert json.loads(proc.stdout) == {
            "command": "demo", "passed": False, "error": "--config: demo q3torus reads no config",
        }

    @pytest.mark.parametrize(
        "angles, named",
        [(["--theta12", "1/3"], "--theta12"),
         (["--theta23=0", "--theta13", "1/2"], "--theta13, --theta23")],
    )
    def test_random_theta_with_a_given_angle_is_an_input_error(self, angles, named):
        proc = run_cli("demo", "q3torus", "--random-theta", *angles, "--json")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == (
            f"--random-theta draws every angle; it cannot go with {named}"
        )


@pytest.mark.parametrize(
    "args, named",
    [
        (["check-factor-system"], "theta[0][1]: zero denominator in '1/0'"),
        (["demo", "q3torus", "--theta12", "1/0"], "--theta12: zero denominator in '1/0'"),
        (["demo", "q3torus", "--theta23", "2/0"], "--theta23: zero denominator in '2/0'"),
    ],
)
def test_zero_denominators_are_input_errors(tmp_path, args, named):
    cfg = {**Q3_CONFIG, "theta": [["0", "1/0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}
    if args[0] != "demo":
        args = [*args, "--config", write_config(tmp_path, cfg)]
    proc = run_cli(*args, "--json")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == named
    assert "Traceback" not in proc.stderr


def test_unexpected_exception_is_an_internal_error(monkeypatch):
    from nctorus import cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_demo_q3torus", crash)
    proc = run_cli("demo", "q3torus", "--json")
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {
        "command": "demo",
        "passed": False,
        "error": "internal error: RuntimeError: boom",
    }
    assert "RuntimeError: boom" in proc.stderr


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away, backed by a file descriptor."""

    def __init__(self, fd: int):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self._fd


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 1)])
def test_closed_stdout_keeps_the_verdict_exit_code(monkeypatch, capsys, tmp_path, passed, code):
    from nctorus import cli

    monkeypatch.setattr(cli, "cmd_demo_q3torus", lambda args: {"command": "demo", "passed": passed})
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert cli.main(["demo", "q3torus", "--json"]) == code
        # the descriptor behind stdout now writes to devnull
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert "Traceback" not in capsys.readouterr().err


def test_reader_closing_the_pipe_early_prints_no_traceback():
    # the read end is closed before the command writes: `... --json | head -0`
    proc = subprocess.Popen(
        CLI + ["demo", "q3torus", "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0
    assert stderr == ""
