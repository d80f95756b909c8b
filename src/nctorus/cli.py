"""Command-line front end: JSON configs in, JSON verification reports out.

Symbolic numbers in configs are exact rational strings ("p/q"); floats
are rejected so nothing is silently coerced.  Every command prints a
single JSON object on stdout (sorted keys) and exits with 0 when all
checks pass, 1 when a mathematical check failed (the counterexample is
in the report), 2 on input errors, and 3 on an internal error (a bug,
never a verdict; the traceback goes to stderr).  Reports are
byte-identical for identical inputs and seeds; --timing adds
``elapsed_ms``, the wall-clock time of the whole command from loading
the config to the verdict.  A reader that closes stdout early
(``| head``) leaves the exit code of the verdict unchanged.  Automorphism
images must be single terms (the units of a quantum torus are its
monomials).

Each ``cmd_*`` builds its report with ``_report`` and returns it;
``main`` times the command, emits the report and maps the verdict or
the exception to the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback
from fractions import Fraction
from functools import partial

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
from .dynamics import TorusAction, char_box, char_neg, char_zero, in_base_algebra
from .factor_system import (
    AlgebraMorphism,
    Automorphism,
    FactorSystem,
    PartialIsometryFamily,
    from_cleft,
    frohlich_map,
    verify_axioms,
)
from .geometry import curvature, make_module
from .phases import _BITS, Phase, QQi, _check_exponent
from .q3torus import (
    all_weight_monomials,
    base_scaling_derivation,
    gauge_h_family,
    random_rational_twist,
    standard_angles,
    twist3,
)
from .report import Law, LawGroup, ReportBuilder, sweep


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


def _exponent(x, where: str) -> int:
    """An int phase exponent inside the packed key range [-2^62, 2^62)."""
    return _at(where, _check_exponent, _int(x, where))


def _object(x, where: str) -> dict:
    if not isinstance(x, dict):
        raise ConfigError(f"{where}: expected an object, got {type(x).__name__}")
    return x


def _at(where: str, build, *args):
    """``build(*args)``, re-raising a ValueError as a ConfigError that names ``where``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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
    return _at("theta", TwistMatrix, rows)


def parse_action(cfg: dict) -> TorusAction:
    tw = parse_twist(cfg)
    coords = cfg.get("acting_coords")
    if not isinstance(coords, list) or not coords:
        raise ConfigError("acting_coords must be a nonempty list of 1-based indices")
    zero_based = []
    for c in coords:
        c = _int(c, "acting_coords")
        if not 1 <= c <= tw.n:
            raise ConfigError(f"acting_coords: coordinate {c} out of range 1..{tw.n}")
        zero_based.append(c - 1)
    return _at("acting_coords", TorusAction, tw, zero_based)


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
        qexp = tuple(_exponent(e, f"{loc}.phase_exponents") for e in qexp)
        tau = _exponent(term.get("tau", 0), f"{loc}.tau")
        mono = TwistedPoly.monomial(tw, exps, Phase(tw.nslots, {(qexp, tau): c}))
        total = mono if total.is_zero() else total + mono
    return total


def _key_ints(key: str, where: str, what: str, rank: int) -> tuple:
    """The ints of a config key "k1,k2,...", which must be written the one way
    ``str`` writes them: with a '+', a leading zero, a space or an '_', two keys
    could name one value and the later one would replace the earlier."""
    try:
        ints = tuple(int(x) for x in key.split(","))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad {what} key {key!r}") from exc
    if len(ints) != rank:
        raise ConfigError(f"{where}: {what} {key!r} has wrong rank")
    canonical = ",".join(map(str, ints))
    if key != canonical:
        raise ConfigError(f"{where}[{key}]: {what} key {key!r} is not canonical; write {canonical!r}")
    return ints


def _gen_key(k, n: int, where: str) -> int:
    if isinstance(k, str):
        (k,) = _key_ints(k, where, "generator", 1)
    k = _int(k, where)
    if not 1 <= k <= n:
        raise ConfigError(f"{where}: generator index {k} out of range")
    return k - 1


def _gen_images(tw: TwistMatrix, cfg, where: str) -> dict:
    """Generator index (0-based) -> polynomial, from 1-based keys to term lists."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must map generator indices to terms")
    return {_gen_key(k, tw.n, where): parse_poly(tw, terms, f"{where}[{k}]")
            for k, terms in cfg.items()}


def parse_automorphism(action: TorusAction, cfg: dict) -> Automorphism:
    tw = action.twist
    where = "automorphism.images"
    images = _gen_images(tw, _object(cfg, "automorphism").get("images"), where)
    for k, img in images.items():
        _at(f"{where}[{k + 1}]", img.inverse_monomial)
    fwd = _at(where, AlgebraMorphism, action, images)
    inv_where = "automorphism.inverse_images"
    inv_cfg = cfg.get("inverse_images")
    if inv_cfg is None:
        # without explicit data the inverse is only derivable for diagonal
        # images w_k * u_k (then the inverse morphism scales by w_k^-1)
        inv_images = {}
        for k, img in images.items():
            (exps, phase), = img.terms.items()
            if exps != tuple(1 if j == k else 0 for j in range(tw.n)):
                raise ConfigError(f"{inv_where} is required for non-diagonal images")
            inv_images[k] = TwistedPoly.generator(tw, k).scale(phase.invert())
    else:
        inv_images = _gen_images(tw, _object(inv_cfg, inv_where), inv_where)
    inv = _at(inv_where, AlgebraMorphism, action, inv_images)
    return _at("automorphism", Automorphism, fwd, inv)


def parse_derivation(action: TorusAction, cfg: dict, where: str = "derivation") -> Derivation:
    tw = action.twist
    images = {k: TwistedPoly.zero(tw) for k in action.base}
    images.update(_gen_images(tw, _object(cfg, where).get("images"), f"{where}.images"))
    delta = _at(where, Derivation, tw, action.base, images)
    if not delta.is_star_derivation():
        raise ConfigError(f"{where}: images do not define a *-derivation")
    return delta


def _char_table(action: TorusAction, cfg: dict, where: str) -> dict:
    """Character -> polynomial, from "k1,k2,..." keys to term lists."""
    table = {}
    for key, terms in cfg.items():
        char = _key_ints(key, where, "character", action.d)
        table[char] = parse_poly(action.twist, terms, f"{where}[{key}]")
    return table


def _tabulated(family, table: dict, where: str):
    """``family`` once its value at every tabulated character is checked."""
    for char in table:
        _at(f"{where}[{','.join(map(str, char))}]", family, char)
    return family


def parse_h_family(action: TorusAction, cfg: dict, char_range: int) -> HFamily:
    """Derivation lift family; the lift reads it at sums of two characters.

    ``verify_lift_conditions`` reads H(sigma + pi) in the cocycle
    derivative, so a box of radius r needs values out to 2r.
    """
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
        h = _at("h_family.linear_scalar", HFamily.linear_scalar, action, slopes)
        for j in range(action.d):
            # the value at the j-th unit character is slope j
            _at("h_family.linear_scalar", h, tuple(int(i == j) for i in range(action.d)))
        return h
    per = cfg.get("per_char")
    if not isinstance(per, dict):
        raise ConfigError("h_family needs per_char or linear_scalar")
    table = _char_table(action, per, "h_family.per_char")
    # H(0) = 0 is forced, so the trivial character may be left out
    table.setdefault(char_zero(action.d), TwistedPoly.zero(tw))

    def fn(char):
        if char not in table:
            raise ConfigError(
                f"h_family.per_char has no value at character {char}: lift-derivation "
                f"with char_range {char_range} reads H at sums of two characters "
                f"(sigma+pi in the cocycle derivative), so it needs h_family.per_char "
                f"out to {-2 * char_range}..{2 * char_range} in every coordinate"
            )
        return table[char]

    return _tabulated(HFamily.from_scalars(action, fn), table, "h_family.per_char")


def parse_v_family(fs: FactorSystem, cfg, char_range: int) -> PartialIsometryFamily:
    """Witness table (gamma_sigma(1) without one), read at sums of three characters.

    ``verify_cocycle`` reads u(sigma, pi + rho), which reads
    v(sigma + pi + rho), so a box of radius r needs values out to 3r.
    """
    if cfg is None:
        return PartialIsometryFamily.units(fs)
    action = fs.action
    if not isinstance(cfg, dict):
        raise ConfigError("v_family must map character keys to terms")
    table = _char_table(action, cfg, "v_family")

    def fn(char):
        if char not in table:
            raise ConfigError(
                f"v_family has no value at character {char}: lift with char_range "
                f"{char_range} reads the witness at sums of three characters "
                f"(sigma+pi+rho in the cocycle checks), so it needs v_family out to "
                f"{-3 * char_range}..{3 * char_range} in every coordinate"
            )
        return PolyMatrix.from_scalar(table[char])

    return _tabulated(PartialIsometryFamily(action, fn), table, "v_family")


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
    one, field = Phase.one(tw.nslots), _BITS * slot

    def fn(sigma, pi_):
        power = sum(sigma[i] * m[i][j] * pi_[j] for i in range(d) for j in range(d))
        if not power:
            return tw.one
        # q_slot^power is one key shift of the shared unit, its exponent checked first
        power = _at("cocycle.bilinear_exponents", _check_exponent, power)
        return TwistedPoly.scalar(tw, one._shifted(power << field))

    return TwoCocycle(action, fn)


class _Repeated(dict):
    """A JSON object in which ``key`` appears twice; ``json`` would keep the last value."""

    key = None


def _repeated_key(node, where: str = ""):
    """``(path, key)`` of the first ``_Repeated`` object in ``node``, in document
    order; a field name joins the path with '.', a table key such as "1,0"
    and a list index go in brackets, as the config readers write them."""
    if isinstance(node, _Repeated):
        return where, node.key
    if isinstance(node, dict):
        children = (
            (f"{where}.{k}" if where else k, v) if k.isidentifier() else (f"{where}[{k}]", v)
            for k, v in node.items()
        )
    elif isinstance(node, list):
        children = ((f"{where}[{i}]", v) for i, v in enumerate(node))
    else:
        return None
    for path, child in children:
        found = _repeated_key(child, path)
        if found is not None:
            return found
    return None


def load_config(path: str) -> dict:
    """The config object; a key repeated in one JSON object exits at its path.

    ``json`` hands each object to the hook before its parent, so the hook
    only marks the object, and the path is read once the whole text is."""
    text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    repeated = []

    def unique_keys(pairs: list) -> dict:
        out = {}
        for key, value in pairs:
            if key in out:
                out = _Repeated(pairs)
                out.key = key
                repeated.append(out)
                break
            out[key] = value
        return out

    try:
        cfg = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:  # a text nested past the recursion limit
        raise ConfigError("malformed JSON: nested too deeply to read") from exc
    if repeated:
        where, key = _repeated_key(cfg)
        prefix = f"{where}: " if where else ""
        raise ConfigError(f"{prefix}key {key!r} appears twice in one JSON object")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _report(command: str, passed: bool, details: dict, reports=(), notes=()) -> dict:
    return {
        "command": command,
        "passed": bool(passed),
        "checks": sum(r.checks for r in reports),
        "counterexamples": [f.to_json() for r in reports for f in r.failures],
        "notes": [n for r in reports for n in r.notes] + list(notes),
        "details": details,
    }


def _emit(report: dict, as_json: bool) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    # flushed here, so a closed pipe raises inside main, not at interpreter exit
    print(text, flush=True)
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
        if not in_base_algebra(action, value):
            raise ConfigError(f"{where}.value: cocycle value leaves the fixed algebra")
        fs = fs.with_omega_override(sigma, pi_, PolyMatrix.from_scalar(value))
    return action, fs


def _sample_report(lift, rng_range, seed: int, pair_law: Law, point_law: Law | None = None):
    """The "lift-sample" report: a materialized lift re-checked on a sample.

    The sample is six weight monomials of weight at most 1, shuffled by
    the seed.  Each element x is paired with each of the first three, y;
    ``pair_law.sides(x, fx, y, fy)`` runs at each pair and then
    ``point_law.sides(x, fx)`` at x, where fx and fy are the images of
    x and y under the lift, each formed once.
    """
    action = lift.fs.action
    rng = random.Random(seed)
    sample = []
    for char in char_box(action.d, min(rng_range, 1)):
        sample.extend(all_weight_monomials(action, char, 1))
    rng.shuffle(sample)
    sample = sample[:6]
    images = [lift.apply(x) for x in sample]
    rows = []
    for x, fx in zip(sample, images):
        for y, fy in zip(sample[:3], images):
            rows.append(Law(pair_law.name, partial(pair_law.sides, x, fx, y, fy), {"x": x, "y": y}))
        if point_law is not None:
            rows.append(Law(point_law.name, partial(point_law.sides, x, fx), {"x": x}))
    return sweep("lift-sample", (LawGroup(0, point=rows),), (), ())


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
            rb.expect("commutator vs closed formula", {**where, "x": x}, c_comm, c_form)
            if not c_comm.is_zero():
                flat = False
    return rb.finish(), flat


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check_factor_system(cfg: dict, args) -> dict:
    action, fs = _build_system(cfg)
    rng_range, degree = _box(cfg, args, 3)
    rep = verify_axioms(fs, rng_range, degree)
    details = {
        "n": action.twist.n,
        "acting_coords": [c + 1 for c in action.coords],
        "char_range": rng_range,
        "gen_degree": degree,
    }
    return _report("check-factor-system", rep.passed, details, [rep])


def cmd_lift(cfg: dict, args) -> dict:
    action, fs = _build_system(cfg)
    rng_range, degree = _box(cfg, args, 2)
    notes = []

    if "cocycle" in cfg:
        source = "synthetic-cocycle"
        outcome = trivialize(parse_synthetic_cocycle(action, cfg["cocycle"]), rng_range)
    elif "automorphism" in cfg:
        source = "automorphism"
        beta = parse_automorphism(action, cfg["automorphism"])
        v = parse_v_family(fs, cfg.get("v_family"), rng_range)
        outcome = lift_via_cohomology(fs, beta, v, rng_range, degree)
    else:
        raise ConfigError("lift requires an automorphism (or a synthetic cocycle)")
    details = {"source": source, "cocycle_valid": outcome.cocycle_report.passed}
    reports = [outcome.cocycle_report]
    passed = outcome.solved is not None
    if outcome.lifted is not None:
        # re-verify multiplicativity and involution on a seeded sample
        lift = outcome.lifted
        sample_rep = _sample_report(
            lift, rng_range, args.seed,
            Law("multiplicativity", lambda x, fx, y, fy: (lift.apply(x * y), fx * fy)),
            Law("involution", lambda x, fx: (lift.apply(x.star()), fx.star())),
        )
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
    return _report("lift", passed, details, reports, notes)


def cmd_lift_derivation(cfg: dict, args) -> dict:
    action, fs = _build_system(cfg)
    rng_range, degree = _box(cfg, args, 2)
    if "derivation" in cfg:
        delta = parse_derivation(action, cfg["derivation"])
    else:
        delta = Derivation.zero(action.twist, action.base)
    if "h_family" in cfg:
        h = parse_h_family(action, cfg["h_family"], rng_range)
    else:
        h = HFamily.zero(fs)
    rep = verify_lift_conditions(fs, delta, h, rng_range, degree)
    reports = [rep]
    passed = rep.passed
    if passed:
        lifted = LiftedDerivation(fs, delta, h)
        sample_rep = _sample_report(
            lifted, rng_range, args.seed,
            Law("Leibniz rule", lambda x, dx, y, dy: (lifted.apply(x * y), dx * y + x * dy)),
        )
        reports.append(sample_rep)
        passed = passed and sample_rep.passed
    details = {"char_range": rng_range, "gen_degree": degree}
    return _report("lift-derivation", passed, details, reports)


def cmd_curvature(cfg: dict, args) -> dict:
    action, fs = _build_system(cfg)
    _, degree = _box(cfg, args, 0)
    sigma = _character(cfg.get("sigma"), action.d, "sigma")
    derivations = []
    # each derivation defaults to scaling the first / last fixed generator
    for key, k in (("derivation_1", 0), ("derivation_2", -1)):
        if key in cfg:
            derivations.append(parse_derivation(action, cfg[key], key))
        elif action.base:
            derivations.append(base_scaling_derivation(action, action.base[k]))
        else:
            raise ConfigError(f"{key} is required: the action fixes no generator to scale")
    d1, d2 = derivations
    rep, all_zero = _curvature_sweep("curvature", fs, d1, d2, {sigma: {}}, degree)
    details = {"sigma": list(sigma), "curvature_vanishes": all_zero}
    return _report("curvature", rep.passed, details, [rep])


def cmd_demo_q3torus(args) -> dict:
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
    h0 = HFamily.zero(fs)
    section = ConnectionSection(
        entries=[
            SectionEntry(d1, LiftedDerivation(fs, d1, h0)),
            SectionEntry(d2, LiftedDerivation(fs, d2, h0)),
        ],
        kernel=[gauge_h_family(action)],
    )
    split = atiyah_check(fs, section, min(rng_range, 2), degree)

    curv, flat = _curvature_sweep(
        "curvature-sweep", fs, d1, d2, {(k,): {"sigma": k} for k in (0, 1, 2)}, 1
    )

    passed = axioms.passed and split.passed and curv.passed and omega_all_one and flat
    details = {
        "theta": angles,
        "gamma": gamma_table,
        "omega_identically_one": omega_all_one,
        "frohlich_u1": frohlich_table,
        "atiyah_split": split.passed,
        "curvature_vanishes": flat,
    }
    return _report("demo-q3torus", passed, details, [axioms, split, curv])


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


# name -> (help, command) of the commands that read a --config
COMMANDS = {
    "check-factor-system": ("verify the factor-system laws", cmd_check_factor_system),
    "lift": ("cohomological lifting pipeline for an automorphism", cmd_lift),
    "lift-derivation": ("verify derivation lift conditions", cmd_lift_derivation),
    "curvature": ("curvature sweep on an associated module", cmd_curvature),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="exact verification toolkit for torus actions on quantum tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_common(sub.add_parser(name, help=help_text))

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


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and error text for an exception that ended a command."""
    if isinstance(exc, WitnessError):
        # the inputs parsed but the supplied witness fails its equation
        return 1, str(exc)
    if isinstance(exc, (ValueError, OSError)):
        return 2, str(exc)
    # a bug, not a counterexample: exit 1 would read as a failed check
    traceback.print_exception(exc)
    return 3, f"internal error: {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    clock = time.perf_counter
    start = clock()
    try:
        if args.command == "demo":
            report = cmd_demo_q3torus(args)
        elif args.config is None:
            raise ConfigError("--config is required")
        else:
            report = COMMANDS[args.command][1](load_config(args.config), args)
        if args.timing:
            report["elapsed_ms"] = round((clock() - start) * 1000.0, 3)
        code = 0 if report["passed"] else 1
    except Exception as exc:
        code, error = _failure(exc)
        report = {"command": args.command, "passed": False, "error": error}
    try:
        _emit(report, args.json)
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered, and the
        # flush at interpreter exit, to devnull; the verdict stands
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
