"""nctorus benchmark: microseconds per verified identity, end to end and per layer.

    python3 bench/run.py --workload laws --seed 1 --seconds 30 --trace 0

Builds the workload's jobs from the seed, writes their configs, then
runs whole passes over the job list in this process and thread until
the time is spent.  Every job goes through ``nctorus.cli.main`` or the
public ring API, and every verdict is compared with a known answer from
``oracle``.  Job times are scaled by a calibration kernel timed around
each job (see KERNEL_NOMINAL_S).  With ``--trace 0`` the last stdout line
reports the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate and it reports the per-layer metrics of ``tracer``
instead.  A run record goes to ``bench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import ring
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# On a shared host the CPU speed can swing by 2x within seconds as other
# tenants load the cores, which no run length averages away.  So every job is
# bracketed by a fixed pure-Python kernel, timed before and after, and job
# times are scaled to a host on which the kernel takes KERNEL_NOMINAL_S.
# The kernel never touches nctorus, so a faster nctorus still reads faster.
# Raw wall times are kept in the run record.
KERNEL_NOMINAL_S = 0.0013


class _Gauss:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __mul__(self, o):
        return _Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __add__(self, o):
        return _Gauss(self.re + o.re, self.im + o.im)


_COEFFS = [_Gauss(Fraction(1), Fraction(0)), _Gauss(Fraction(0), Fraction(1)),
           _Gauss(Fraction(-1), Fraction(0)), _Gauss(Fraction(1, 3), Fraction(-2, 5))]


def _kernel():
    """A product of two 6-term sparse maps with Gaussian-rational values."""
    a = {((i, 0, -i), i % 2): _COEFFS[i % 4] for i in range(6)}
    b = {((0, i, 1), 0): _COEFFS[(i + 1) % 4] for i in range(6)}
    out = {}
    for _ in range(3):
        for (e1, t1), c1 in a.items():
            for (e2, t2), c2 in b.items():
                key = (tuple(x + y for x, y in zip(e1, e2)), t1 + t2)
                c = c1 * c2
                acc = out.get(key)
                out[key] = c if acc is None else acc + c
    return out


def kernel_time() -> float:
    """Mean of five kernel timings: the host's current speed."""
    total = 0.0
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        total += time.perf_counter() - t0
    return total / 5


def _scale(before: float, after: float) -> float:
    return 2 * KERNEL_NOMINAL_S / (before + after)


def _fresh_import():
    """Import nctorus from this checkout's src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "nctorus" or m.startswith("nctorus.")]:
        del sys.modules[name]
    nct = importlib.import_module("nctorus")
    cli = importlib.import_module("nctorus.cli")
    if Path(nct.__file__).resolve().parent != SRC / "nctorus":
        raise ImportError(f"nctorus imported from {nct.__file__}, not from {SRC}")
    return nct, cli


def _write_inputs(jobs, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        path = workdir / f"{job.name}.json"
        if job.config is not None:
            path.write_text(json.dumps(job.config, indent=1))
            job.argv.append(str(path))
        elif job.ring is not None:
            triples = [[[[list(a), [[list(q), t, str(re), str(im)] for q, t, re, im in ph]]
                         for a, ph in poly] for poly in triple] for triple in job.ring["triples"]]
            path.write_text(json.dumps({"theta": [[str(x) for x in row] for row in job.ring["theta"]],
                                        "point": [[z.real, z.imag] for z in job.ring["point"]],
                                        "triples": triples}))


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate and write SETUP_REPEATS times; the last round is kept.

    Returns the modules, the jobs, and the raw and kernel-scaled times.
    """
    raw, scaled = [], []
    before = kernel_time()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        nct, cli = _fresh_import()
        jobs = workloads.build(workload, seed)
        _write_inputs(jobs, workdir)
        dt = time.perf_counter() - t0
        after = kernel_time()
        raw.append(dt)
        scaled.append(dt * _scale(before, after))
        before = after
    return nct, cli, jobs, raw, scaled


def run_job(nct, cli, job):
    """(seconds, identities, problems, digest) for one job."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        if job.ring is not None:
            results = ring.run(nct, job.ring)
        else:
            with contextlib.redirect_stdout(out):
                code = cli.main(job.argv)
    except (Exception, SystemExit) as exc:  # a raising job is a failed job, not a crash
        return time.perf_counter() - t0, 0, [f"raised {type(exc).__name__}: {exc}"], None
    dt = time.perf_counter() - t0
    if job.ring is not None:
        problems, digest = ring.check(job.ring, results)
        return dt, job.identities, problems, digest
    text = out.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        return dt, 0, [f"report is not JSON: {text[:200]!r}"], None
    problems = oracle.check_report(job.expect, code, report)
    return dt, report.get("checks") or 0, problems, hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """One pass over the job list; ``times`` and ``busy`` are kernel-scaled."""

    def __init__(self):
        self.wall = 0.0
        self.busy = 0.0
        self.raw_busy = 0.0
        self.identities = 0
        self.times = []
        self.failures = []
        self.digests = {}

    @property
    def us_per_check(self) -> float:
        return self.busy / self.identities * 1e6


def run_pass(nct, cli, jobs, reference=None) -> Pass:
    """One pass over the jobs; digests must match ``reference`` (an earlier pass)."""
    p = Pass()
    t0 = time.perf_counter()
    before = kernel_time()
    for job in jobs:
        dt, identities, problems, digest = run_job(nct, cli, job)
        after = kernel_time()
        if reference is not None and digest != reference.digests.get(job.name):
            problems = problems + ["report differs from the same job's first report"]
        p.raw_busy += dt
        dt *= _scale(before, after)
        before = after
        p.busy += dt
        p.identities += identities
        p.times.append(dt)
        p.digests[job.name] = digest
        if problems:
            p.failures.append({"job": job.name, "problems": problems})
    p.wall = time.perf_counter() - t0
    return p


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nctorus" / "__init__.py").is_file():
        print(f"error: no nctorus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    workdir = BENCH / "results" / "inputs" / f"{args.workload}-seed{args.seed}"
    try:
        nct, cli, jobs, setup_raw, setup_times = setup(args.workload, args.seed, workdir)
    except ImportError as exc:
        print(f"error: cannot import nctorus: {exc}", file=sys.stderr)
        return 2

    untraced, traced, snapshots = measure(nct, cli, jobs, args.seconds, args.trace)
    timed = untraced[1:] or untraced  # the first pass warms the interpreter up
    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    attempted = len(jobs) * len(passes)
    times = [t for p in timed for t in p.times]
    us_untraced = statistics.median(p.us_per_check for p in timed)
    if args.trace:
        attempted += len(snapshots) - 1  # each repeat of the counts is checked too
        failures += _count_mismatches(snapshots)
        metrics = per_layer(snapshots, us_untraced, statistics.median(p.us_per_check for p in traced))
    else:
        metrics = {
            "us_per_check": _metric(us_untraced, "us/identity"),
            "verdict_ms_p50": _metric(statistics.median(times) * 1e3, "ms"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    failed = len(failures)
    record.update(
        loadavg_end=os.getloadavg(),
        jobs=[{"name": j.name, "argv": j.argv, "identities": j.identities,
               "expect": j.expect if j.ring is None else "ring batch"} for j in jobs],
        setup_s=setup_times,
        setup_raw_s=setup_raw,
        passes=[_pass_record(p, jobs, p in traced, p in timed) for p in passes],
        verdict_samples=len(times),
        # the highest decile with at least ten samples beyond it at ~100 samples
        verdict_ms_p90=statistics.quantiles(times, n=10)[-1] * 1e3 if len(times) > 1 else None,
        report_digest=hashlib.sha256("".join(
            f"{k}:{v}\n" for k, v in sorted(untraced[0].digests.items())).encode()).hexdigest(),
        failed_ratio=failed / attempted,
        failures=failures,
        metrics=metrics,
        traced_snapshots=snapshots,
    )
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes of {len(jobs)} jobs, {untraced[0].identities} identities per pass")
    print(f"# verdict_ms_p50 over {len(times)} job samples; failed_ratio {failed}/{attempted}; "
          f"report digest {record['report_digest'][:16]}; record {out.relative_to(ROOT)}")
    for f in failures[:10]:
        print(f"# FAIL {f['job']}: {'; '.join(f['problems'])[:400]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def measure(nct, cli, jobs, seconds, trace):
    """Whole passes until ``seconds`` is spent; with ``trace``, each untraced
    pass is followed by a traced one.  Returns (untraced, traced, snapshots)."""
    untraced, traced, snapshots = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(nct, cli, jobs, untraced[0] if untraced else None))
        step = untraced[-1].wall
        if trace:
            t = tracer.Tracer()
            t.install()
            try:
                traced.append(run_pass(nct, cli, jobs, untraced[0]))
            finally:
                t.remove()
            snapshots.append(t.snapshot())
            step += traced[-1].wall
        if time.perf_counter() - start + step > seconds:
            return untraced, traced, snapshots


def _count_mismatches(snapshots):
    first = snapshots[0]
    failures = []
    for i, snap in enumerate(snapshots[1:], 2):
        differing = [k for k in first if k.endswith(".calls") and snap[k] != first[k]]
        if differing:
            failures.append({"job": f"traced pass {i}", "problems":
                             [f"{k} = {snap[k]}, first traced pass {first[k]}" for k in differing]})
    return failures


def per_layer(snapshots, us_untraced, us_traced):
    """Counts and ratios from the first traced pass, times as medians over traced passes."""
    metrics = {}
    for name, unit, _ in tracer.metric_names():
        if name.rsplit(".", 1)[1] in tracer.TIME_FIELDS:
            value = statistics.median(s[name] for s in snapshots)
        else:
            value = snapshots[0][name]
        metrics[name] = _metric(value, unit)
    metrics["trace.untraced_us_per_check"] = _metric(us_untraced, "us/identity")
    metrics["trace.traced_us_per_check"] = _metric(us_traced, "us/identity")
    metrics["trace.overhead_us_per_check"] = _metric(us_traced - us_untraced, "us/identity")
    return metrics


def _pass_record(p, jobs, traced, timed):
    return {
        "traced": traced, "timed": timed or traced, "wall_s": p.wall,
        "busy_s": p.busy, "raw_busy_s": p.raw_busy, "identities": p.identities,
        "us_per_check": p.us_per_check, "raw_us_per_check": p.raw_busy / p.identities * 1e6,
        "job_ms": {j.name: t * 1e3 for j, t in zip(jobs, p.times)},
    }


if __name__ == "__main__":
    sys.exit(main())
