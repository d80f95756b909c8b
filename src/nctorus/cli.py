"""Command-line front end: JSON configs in, JSON verification reports out.

Symbolic numbers in configs are exact rational strings ("p/q"); floats
are rejected so nothing is silently coerced.  Every command prints a
single JSON object on stdout (sorted keys) and exits with 0 when all
checks pass, 1 when a mathematical check failed (the counterexample is
in the report), 2 on input errors, and 3 on an internal error (a bug,
never a verdict; the traceback goes to stderr).  Reports are
byte-identical for identical inputs and seeds; wall-clock timing is only
included when requested with --timing.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback
from fractions import Fraction

from .algebra import PolyMatrix, TwistedPoly, TwistMatrix
from .cohomology import TwoCocycle, WitnessError, lift_via_cohomology, trivialize
from .derivations import (
    Derivation,
    HFamily,
    LiftedDerivation,
    ConnectionSection,
    SectionEntry,
    atiyah_check,
    verify_lift_conditions,
)
from .dynamics import TorusAction, char_box, char_neg, char_zero
from .factor_system import (
    AlgebraMorphism,
    Automorphism,
    PartialIsometryFamily,
    from_cleft,
    frohlich_map,
    verify_axioms,
)
from .geometry import curvature, make_module
from .phases import Phase, QQi
from .q3torus import (
    all_weight_monomials,
    base_scaling_derivation,
    gauge_h_family,
    random_rational_twist,
    standard_angles,
    twist3,
)
from .report import ReportBuilder


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing (exact numbers only)
# ---------------------------------------------------------------------------


def _fraction(x, where: str) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise ConfigError(f"{where}: numbers must be exact rational strings, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad rational {x!r}") from exc
        except ZeroDivisionError as exc:
            raise ConfigError(f"{where}: zero denominator in {x!r}") from exc
    raise ConfigError(f"{where}: expected rational string, got {type(x).__name__}")


def _int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{where}: expected integer, got {x!r}")
    return x


def _object(x, where: str) -> dict:
    if not isinstance(x, dict):
        raise ConfigError(f"{where}: expected an object, got {type(x).__name__}")
    return x


def _character(x, d: int, where: str) -> tuple:
    if not isinstance(x, list) or len(x) != d:
        raise ConfigError(f"{where} must be a character of rank {d}")
    return tuple(_int(c, where) for c in x)


def _box(cfg: dict, args, char_range: int) -> tuple[int, int]:
    """Box radius and monomial degree; ``--range``/``--degree`` override the config."""
    out = []
    for key, flag, override, default in (
        ("char_range", "--range", args.range, char_range),
        ("gen_degree", "--degree", args.degree, 2),
    ):
        value = cfg.get(key, default) if override is None else override
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            where = key if override is None else flag
            raise ConfigError(f"{where} must be a non-negative integer, got {value!r}")
        out.append(value)
    return out[0], out[1]


def parse_twist(cfg: dict) -> TwistMatrix:
    n = _int(cfg.get("n"), "n")
    theta = cfg.get("theta")
    if not isinstance(theta, list) or len(theta) != n:
        raise ConfigError("theta must be an n x n array")
    rows = []
    for i, row in enumerate(theta):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError("theta must be an n x n array")
        rows.append([_fraction(x, f"theta[{i}][{j}]") for j, x in enumerate(row)])
    try:
        return TwistMatrix(rows)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_action(cfg: dict) -> TorusAction:
    tw = parse_twist(cfg)
    coords = cfg.get("acting_coords")
    if not isinstance(coords, list) or not coords:
        raise ConfigError("acting_coords must be a nonempty list of 1-based indices")
    zero_based = []
    for c in coords:
        c = _int(c, "acting_coords")
        if not 1 <= c <= tw.n:
            raise ConfigError(f"acting coordinate {c} out of range 1..{tw.n}")
        zero_based.append(c - 1)
    try:
        return TorusAction(tw, zero_based)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_poly(tw: TwistMatrix, terms, where: str) -> TwistedPoly:
    if not isinstance(terms, list):
        raise ConfigError(f"{where}: expected a list of terms")
    total = TwistedPoly.zero(tw)
    for idx, term in enumerate(terms):
        loc = f"{where}[{idx}]"
        if not isinstance(term, dict):
            raise ConfigError(f"{loc}: expected a term object")
        exps = term.get("exponents")
        if not isinstance(exps, list) or len(exps) != tw.n:
            raise ConfigError(f"{loc}: exponents must have length {tw.n}")
        exps = tuple(_int(e, f"{loc}.exponents") for e in exps)
        coeff = _object(term.get("coeff", {"re": "1", "im": "0"}), f"{loc}.coeff")
        c = QQi(_fraction(coeff.get("re", 0), f"{loc}.coeff.re"),
                _fraction(coeff.get("im", 0), f"{loc}.coeff.im"))
        qexp = term.get("phase_exponents", [0] * tw.nslots)
        if not isinstance(qexp, list) or len(qexp) != tw.nslots:
            raise ConfigError(f"{loc}: phase_exponents must have length {tw.nslots}")
        qexp = tuple(_int(e, f"{loc}.phase_exponents") for e in qexp)
        tau = _int(term.get("tau", 0), f"{loc}.tau")
        phase = Phase(tw.nslots, {(qexp, tau): c})
        total = total + TwistedPoly(tw, {exps: phase})
    return total


def _gen_key(k, n: int, where: str) -> int:
    k = _int(int(k) if isinstance(k, str) and k.lstrip("-").isdecimal() else k, where)
    if not 1 <= k <= n:
        raise ConfigError(f"{where}: generator index {k} out of range")
    return k - 1


def parse_automorphism(action: TorusAction, cfg: dict) -> Automorphism:
    tw = action.twist
    images_cfg = _object(cfg, "automorphism").get("images")
    if not isinstance(images_cfg, dict):
        raise ConfigError("automorphism.images must map generator indices to terms")
    images = {}
    for k, terms in images_cfg.items():
        images[_gen_key(k, tw.n, "automorphism.images")] = parse_poly(
            tw, terms, f"automorphism.images[{k}]"
        )
    inv_cfg = cfg.get("inverse_images")
    fwd = AlgebraMorphism(action, images)
    if inv_cfg is None:
        # without explicit data the inverse is only derivable for diagonal
        # images w_k * u_k (then the inverse morphism scales by w_k^-1)
        inv_images = {}
        for k, img in images.items():
            if len(img.terms) != 1 or next(iter(img.terms)) != tuple(
                1 if j == k else 0 for j in range(tw.n)
            ):
                raise ConfigError(
                    "automorphism.inverse_images is required for non-diagonal images"
                )
            phase = next(iter(img.terms.values()))
            inv_images[k] = TwistedPoly.generator(tw, k).scale(phase.invert())
    else:
        inv_images = {
            _gen_key(k, tw.n, "automorphism.inverse_images"): parse_poly(
                tw, terms, f"automorphism.inverse_images[{k}]"
            )
            for k, terms in _object(inv_cfg, "automorphism.inverse_images").items()
        }
    inv = AlgebraMorphism(action, inv_images)
    try:
        return Automorphism(fwd, inv)
    except ValueError as exc:
        raise ConfigError(f"automorphism: {exc}") from exc


def parse_derivation(action: TorusAction, cfg: dict, where: str = "derivation") -> Derivation:
    tw = action.twist
    images_cfg = _object(cfg, where).get("images")
    if not isinstance(images_cfg, dict):
        raise ConfigError(f"{where}.images must map generator indices to terms")
    images = {k: TwistedPoly.zero(tw) for k in action.base}
    for k, terms in images_cfg.items():
        images[_gen_key(k, tw.n, f"{where}.images")] = parse_poly(
            tw, terms, f"{where}.images[{k}]"
        )
    try:
        delta = Derivation(tw, action.base, images, check=True)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not delta.is_star_derivation():
        raise ConfigError(f"{where}: images do not define a *-derivation")
    return delta


def _parse_char(key: str, d: int, where: str):
    try:
        parts = tuple(int(x) for x in str(key).split(","))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad character key {key!r}") from exc
    if len(parts) != d:
        raise ConfigError(f"{where}: character {key!r} has wrong rank")
    return parts


def parse_h_family(action: TorusAction, cfg: dict) -> HFamily:
    tw = action.twist
    if "linear_scalar" in _object(cfg, "h_family"):
        slopes_cfg = cfg["linear_scalar"]
        if not isinstance(slopes_cfg, list):
            raise ConfigError("h_family.linear_scalar must be a list of terms or of term lists")
        if slopes_cfg and isinstance(slopes_cfg[0], dict):
            slopes = [parse_poly(tw, slopes_cfg, "h_family.linear_scalar")]
        else:
            slopes = [
                parse_poly(tw, s, f"h_family.linear_scalar[{i}]")
                for i, s in enumerate(slopes_cfg)
            ]
        if len(slopes) == 1 and action.d > 1:
            slopes = slopes * action.d
        return HFamily.linear_scalar(action, slopes)
    per = cfg.get("per_char")
    if not isinstance(per, dict):
        raise ConfigError("h_family needs per_char or linear_scalar")
    table = {
        _parse_char(k, action.d, "h_family.per_char"): parse_poly(
            tw, terms, f"h_family.per_char[{k}]"
        )
        for k, terms in per.items()
    }
    # H(0) = 0 is forced, so the trivial character may be left out
    table.setdefault(char_zero(action.d), TwistedPoly.zero(tw))

    def fn(char):
        if char not in table:
            raise ConfigError(f"h_family has no value at character {char}")
        return table[char]

    return HFamily.from_scalars(action, fn)


def parse_v_family(action: TorusAction, cfg, char_range: int) -> PartialIsometryFamily:
    """Witness table; the lift reads it at sums of three characters of the box.

    ``verify_cocycle`` reads u(sigma, pi + rho), which reads
    v(sigma + pi + rho), so a box of radius r needs values out to 3r.
    """
    if cfg is None:
        return PartialIsometryFamily.constant_one(action)
    if not isinstance(cfg, dict):
        raise ConfigError("v_family must map character keys to terms")
    tw = action.twist
    table = {
        _parse_char(k, action.d, "v_family"): parse_poly(tw, terms, f"v_family[{k}]")
        for k, terms in cfg.items()
    }

    def fn(char):
        if char not in table:
            raise ConfigError(
                f"v_family has no value at character {char}: lift with char_range "
                f"{char_range} reads the witness at sums of three characters "
                f"(sigma+pi+rho in the cocycle checks), so it needs v_family out to "
                f"{-3 * char_range}..{3 * char_range} in every coordinate"
            )
        return PolyMatrix.from_scalar(table[char])

    return PartialIsometryFamily(action, fn)


def parse_synthetic_cocycle(action: TorusAction, cfg: dict) -> TwoCocycle:
    tw = action.twist
    slot_pair = _object(cfg, "cocycle").get("slot")
    if not isinstance(slot_pair, list) or len(slot_pair) != 2:
        raise ConfigError("cocycle.slot must be a pair of 1-based generator indices")
    k = _gen_key(slot_pair[0], tw.n, "cocycle.slot")
    l = _gen_key(slot_pair[1], tw.n, "cocycle.slot")
    if k >= l:
        raise ConfigError("cocycle.slot indices must be increasing")
    slot = tw.slot(k, l)
    bil = cfg.get("bilinear_exponents")
    d = action.d
    if (
        not isinstance(bil, list)
        or len(bil) != d
        or any(not isinstance(row, list) or len(row) != d for row in bil)
    ):
        raise ConfigError("cocycle.bilinear_exponents must be a d x d integer matrix")
    m = [[_int(x, "cocycle.bilinear_exponents") for x in row] for row in bil]
    unit = Phase.unit(tw.nslots, slot)

    def fn(sigma, pi_):
        power = sum(sigma[i] * m[i][j] * pi_[j] for i in range(d) for j in range(d))
        return TwistedPoly.scalar(tw, unit**power)

    return TwoCocycle(action, fn)


def load_config(path: str) -> dict:
    text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _report(command: str, passed: bool, details: dict, reports=(), notes=(), elapsed=None) -> dict:
    out = {
        "command": command,
        "passed": bool(passed),
        "checks": sum(r.checks for r in reports),
        "counterexamples": [f.to_json() for r in reports for f in r.failures],
        "notes": [n for r in reports for n in r.notes] + list(notes),
        "details": details,
    }
    if elapsed is not None:
        out["elapsed_ms"] = round(elapsed * 1000.0, 3)
    return out


def _emit(report: dict, as_json: bool) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if not as_json:
        status = "PASS" if report.get("passed") else "FAIL"
        print(f"# {report.get('command')}: {status}", file=sys.stderr)


def _build_system(cfg: dict):
    action = parse_action(cfg)
    fs = from_cleft(action)
    overrides = cfg.get("omega_overrides", [])
    if not isinstance(overrides, list):
        raise ConfigError("omega_overrides must be a list")
    for idx, ov in enumerate(overrides):
        where = f"omega_overrides[{idx}]"
        ov = _object(ov, where)
        sigma = _character(ov.get("sigma"), action.d, f"{where}.sigma")
        pi_ = _character(ov.get("pi"), action.d, f"{where}.pi")
        value = parse_poly(action.twist, ov.get("value"), f"{where}.value")
        fs = fs.with_omega_override(sigma, pi_, PolyMatrix.from_scalar(value))
    return action, fs


def _seeded_sample(action: TorusAction, rng_range, seed: int) -> list:
    """Six weight monomials of weight at most 1, shuffled by the seed."""
    rng = random.Random(seed)
    sample = []
    for char in char_box(action.d, min(rng_range, 1)):
        sample.extend(all_weight_monomials(action, char, 1))
    rng.shuffle(sample)
    return sample[:6]


def _curvature_sweep(name: str, fs, d1, d2, cases: dict, degree: int):
    """Commutator vs closed-formula curvature on associated modules.

    ``cases`` maps each module weight sigma to the fields that locate its
    counterexamples; the sweep runs over the weight monomials of weight
    -sigma up to ``degree``.  Returns the report and whether every
    commutator value vanished.
    """
    rb = ReportBuilder(name)
    flat = True
    for sigma, where in cases.items():
        module = make_module(fs, sigma)
        for x in all_weight_monomials(fs.action, char_neg(sigma), degree):
            c_comm = curvature(module, d1, d2, x, "commutator")
            c_form = curvature(module, d1, d2, x, "formula")
            rb.expect("commutator vs closed formula", {**where, "x": x},
                      c_comm.value, c_form.value)
            if not c_comm.is_zero():
                flat = False
    return rb.finish(), flat


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check_factor_system(cfg: dict, args) -> tuple[dict, int]:
    action, fs = _build_system(cfg)
    rng_range, degree = _box(cfg, args, 3)
    start = time.perf_counter()
    rep = verify_axioms(fs, rng_range, degree)
    elapsed = time.perf_counter() - start
    details = {
        "n": action.twist.n,
        "acting_coords": [c + 1 for c in action.coords],
        "char_range": rng_range,
        "gen_degree": degree,
    }
    report = _report(
        "check-factor-system",
        rep.passed,
        details,
        reports=[rep],
        elapsed=elapsed if args.timing else None,
    )
    return report, 0 if rep.passed else 1


def cmd_lift(cfg: dict, args) -> tuple[dict, int]:
    action, fs = _build_system(cfg)
    rng_range, degree = _box(cfg, args, 2)
    start = time.perf_counter()
    notes = []

    if "cocycle" in cfg:
        source = "synthetic-cocycle"
        outcome = trivialize(parse_synthetic_cocycle(action, cfg["cocycle"]), rng_range)
    elif "automorphism" in cfg:
        source = "automorphism"
        beta = parse_automorphism(action, cfg["automorphism"])
        v = parse_v_family(action, cfg.get("v_family"), rng_range)
        outcome = lift_via_cohomology(fs, beta, v, rng_range, degree)
    else:
        raise ConfigError("lift requires an automorphism (or a synthetic cocycle)")
    details = {"source": source, "cocycle_valid": outcome.cocycle_report.passed}
    reports = [outcome.cocycle_report]
    passed = outcome.solved is not None
    if outcome.lifted is not None:
        # re-verify multiplicativity and involution on a seeded sample
        sample = _seeded_sample(action, rng_range, args.seed)
        rb = ReportBuilder("lift-sample")
        lift = outcome.lifted
        for x in sample:
            for y in sample[:3]:
                rb.expect("multiplicativity", {"x": x, "y": y},
                          lift.apply(x * y), lift.apply(x) * lift.apply(y))
            rb.expect("involution", {"x": x}, lift.apply(x.star()), lift.apply(x).star())
        sample_rep = rb.finish()
        reports.append(sample_rep)
        passed = passed and sample_rep.passed
        notes.append("materialized lift re-verified on a seeded sample")

    obstruction = outcome.obstruction
    if obstruction is not None:
        details["obstruction"] = {
            "witness": [list(c) for c in obstruction.witness],
            "residual": repr(obstruction.residual),
            "kind": obstruction.kind,
        }
    report = _report(
        "lift",
        passed,
        details,
        reports=reports,
        notes=notes,
        elapsed=(time.perf_counter() - start) if args.timing else None,
    )
    return report, 0 if passed else 1


def cmd_lift_derivation(cfg: dict, args) -> tuple[dict, int]:
    action, fs = _build_system(cfg)
    rng_range, degree = _box(cfg, args, 2)
    start = time.perf_counter()
    if "derivation" in cfg:
        delta = parse_derivation(action, cfg["derivation"])
    else:
        delta = Derivation.zero(action.twist, action.base)
    if "h_family" in cfg:
        h = parse_h_family(action, cfg["h_family"])
    else:
        h = HFamily.zero(action)
    rep = verify_lift_conditions(fs, delta, h, rng_range, degree)
    reports = [rep]
    passed = rep.passed
    if passed:
        lifted = LiftedDerivation(fs, delta, h)
        sample = _seeded_sample(action, rng_range, args.seed)
        rb = ReportBuilder("lift-sample")
        for x in sample:
            for y in sample[:3]:
                rb.expect(
                    "Leibniz rule", {"x": x, "y": y},
                    lifted.apply(x * y), lifted.apply(x) * y + x * lifted.apply(y),
                )
        sample_rep = rb.finish()
        reports.append(sample_rep)
        passed = passed and sample_rep.passed
    report = _report(
        "lift-derivation",
        passed,
        {"char_range": rng_range, "gen_degree": degree},
        reports=reports,
        elapsed=(time.perf_counter() - start) if args.timing else None,
    )
    return report, 0 if passed else 1


def cmd_curvature(cfg: dict, args) -> tuple[dict, int]:
    action, fs = _build_system(cfg)
    _, degree = _box(cfg, args, 0)
    sigma = _character(cfg.get("sigma"), action.d, "sigma")
    d1 = parse_derivation(action, cfg["derivation_1"], "derivation_1") if "derivation_1" in cfg \
        else base_scaling_derivation(action, action.base[0])
    d2 = parse_derivation(action, cfg["derivation_2"], "derivation_2") if "derivation_2" in cfg \
        else base_scaling_derivation(action, action.base[-1])
    start = time.perf_counter()
    rep, all_zero = _curvature_sweep("curvature", fs, d1, d2, {sigma: {}}, degree)
    details = {"sigma": list(sigma), "curvature_vanishes": all_zero}
    report = _report(
        "curvature",
        rep.passed,
        details,
        reports=[rep],
        elapsed=(time.perf_counter() - start) if args.timing else None,
    )
    return report, 0 if rep.passed else 1


def cmd_demo_q3torus(args) -> tuple[dict, int]:
    start = time.perf_counter()
    if args.random_theta:
        rng = random.Random(args.seed)
        tw = random_rational_twist(rng, 3, 12)
        angles = [str(tw.theta[0][1]), str(tw.theta[0][2]), str(tw.theta[1][2])]
    else:
        default = standard_angles()
        t12 = _fraction(args.theta12, "--theta12") if args.theta12 else default[0]
        t13 = _fraction(args.theta13, "--theta13") if args.theta13 else default[1]
        t23 = _fraction(args.theta23, "--theta23") if args.theta23 else default[2]
        tw = twist3(t12, t13, t23)
        angles = [str(t12), str(t13), str(t23)]
    action = TorusAction(tw, (2,))
    fs = from_cleft(action)
    rng_range, degree = _box({}, args, 3)

    u1 = TwistedPoly.generator(tw, 0)
    u2 = TwistedPoly.generator(tw, 1)
    gamma_table = {}
    one = TwistedPoly.one(tw)
    omega_all_one = True
    for k in range(-rng_range, rng_range + 1):
        g = fs.gamma((k,))
        gamma_table[str(k)] = {
            "u1": repr(g.apply(u1).as_scalar()),
            "u2": repr(g.apply(u2).as_scalar()),
        }
        for l in range(-rng_range, rng_range + 1):
            if fs.omega((k,), (l,)).as_scalar() != one:
                omega_all_one = False

    frohlich_table = {
        str(k): repr(frohlich_map(fs, (k,), u1)) for k in range(-2, 3)
    }

    axioms = verify_axioms(fs, rng_range, degree)

    d1 = base_scaling_derivation(action, 0)
    d2 = base_scaling_derivation(action, 1)
    h0 = HFamily.zero(action)
    section = ConnectionSection(
        entries=[
            SectionEntry(d1, LiftedDerivation(fs, d1, h0)),
            SectionEntry(d2, LiftedDerivation(fs, d2, h0)),
        ],
        kernel=[gauge_h_family(action)],
    )
    split = atiyah_check(fs, section, min(rng_range, 2), degree)

    sweep, flat = _curvature_sweep(
        "curvature-sweep", fs, d1, d2, {(k,): {"sigma": k} for k in (0, 1, 2)}, 1
    )

    passed = axioms.passed and split.passed and sweep.passed and omega_all_one and flat
    details = {
        "theta": angles,
        "gamma": gamma_table,
        "omega_identically_one": omega_all_one,
        "frohlich_u1": frohlich_table,
        "atiyah_split": split.passed,
        "curvature_vanishes": flat,
    }
    report = _report(
        "demo-q3torus",
        passed,
        details,
        reports=[axioms, split, sweep],
        elapsed=(time.perf_counter() - start) if args.timing else None,
    )
    return report, 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", default=None, help="JSON config path, or - for stdin")
    parser.add_argument("--range", type=int, default=None, help="character box radius")
    parser.add_argument("--degree", type=int, default=None, help="monomial degree bound")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled corpora")
    parser.add_argument("--json", action="store_true", help="suppress the stderr summary")
    parser.add_argument("--timing", action="store_true",
                        help="include elapsed_ms (breaks byte-for-byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="exact verification toolkit for torus actions on quantum tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-factor-system", help="verify the factor-system laws")
    _add_common(p)

    p = sub.add_parser("lift", help="cohomological lifting pipeline for an automorphism")
    _add_common(p)

    p = sub.add_parser("lift-derivation", help="verify derivation lift conditions")
    _add_common(p)

    p = sub.add_parser("curvature", help="curvature sweep on an associated module")
    _add_common(p)

    p = sub.add_parser("demo", help="worked examples")
    demo_sub = p.add_subparsers(dest="demo_target", required=True)
    q3 = demo_sub.add_parser("q3torus", help="quantum 3-torus walkthrough")
    _add_common(q3)
    q3.add_argument("--theta12", default=None, help="rational angle, default 1/4")
    q3.add_argument("--theta13", default=None, help="rational angle, default -1/3")
    q3.add_argument("--theta23", default=None, help="rational angle, default -1/6")
    q3.add_argument("--random-theta", action="store_true",
                    help="draw rational angles from --seed instead")

    return parser


_NEEDS_CONFIG = {
    "check-factor-system": cmd_check_factor_system,
    "lift": cmd_lift,
    "lift-derivation": cmd_lift_derivation,
    "curvature": cmd_curvature,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "demo":
            report, code = cmd_demo_q3torus(args)
        else:
            if args.config is None:
                raise ConfigError("--config is required")
            cfg = load_config(args.config)
            report, code = _NEEDS_CONFIG[args.command](cfg, args)
    except WitnessError as exc:
        # the inputs parsed but the supplied witness fails its equation
        _emit({"command": args.command, "passed": False, "error": str(exc)}, args.json)
        return 1
    except (ConfigError, ValueError) as exc:
        _emit({"command": args.command, "passed": False, "error": str(exc)}, args.json)
        return 2
    except OSError as exc:
        _emit({"command": args.command, "passed": False, "error": str(exc)}, args.json)
        return 2
    except Exception as exc:
        # a bug, not a counterexample: exit 1 would read as a failed check
        traceback.print_exc()
        error = f"internal error: {type(exc).__name__}: {exc}"
        _emit({"command": args.command, "passed": False, "error": error}, args.json)
        return 3
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
