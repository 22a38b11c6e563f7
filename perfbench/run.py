"""mopoly benchmark: four single-process closed-loop workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {sweep,scale,contour,cli} --seed N \\
        --seconds S --trace {0,1}

One caller runs one op at a time and waits for its result; no thread or
child process runs beside it (the ``cli`` workload waits for each child it
starts).  Inputs are drawn from ``--seed`` only.  Ops run in whole cycles of
a fixed mix (see workloads.py) until ``--seconds`` have passed, at least one
cycle.  Every op's output is checked outside the timed region; any failure
makes the run exit 1.

``--trace 0`` reports the end-to-end metrics: the median per-op time, the
tail (the highest of p50/p75/p90/p95/p99, capped at the workload's
``TAIL_PCT``, that has at least ten samples beyond it), checks completed per
second of op time, the median set-up time of fresh processes and the peak
RSS.  Op and set-up times are in reference seconds (see "machine speed"
below).

``--trace 1`` wraps the public functions of each layer (tracer.py), runs a
fixed number of cycles so every count repeats exactly for one seed and run
length, and reports the per-layer metrics plus its own end-to-end figures as
``trace.*``; traced minus untraced is the tracing overhead (overhead.py).
Per-layer busy times are wall seconds and include the reference samples
taken during in-process ops (about 1.5%).  A traced run writes its spans to
``perfbench/out/``.

The last line of stdout is the result object; the line before it holds the
sample counts, percentiles, error fraction and the environment stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import workloads
from workloads import ROOT, SRC

OUT = ROOT / "perfbench" / "out"
# numpy's BLAS starts a thread per core at import; on a 2-core box it competes
# with the caller, and the workloads do no BLAS work
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 5
PERCENTILES = (50, 75, 90, 95, 99)
# the tail percentile of each workload at the defining commit; a faster
# program gets more samples but keeps this percentile
TAIL_PCT = {"sweep": 50, "scale": 90, "contour": 75, "cli": 50}

E2E_UNITS = {"checks_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_FUNCTIONS = {
    "oracle.oracle_nnrc": ("calls", "s", "self_s", "distinct_ratio", "raised"),
    "oracle.oracle_type2": ("calls", "s", "self_s", "distinct_ratio"),
    "oracle.oracle_type1": ("calls", "s", "self_s", "distinct_ratio"),
    "oracle.solve_exact": ("calls", "s", "self_s", "distinct_ratio"),
    "oracle.normalized_moments": ("calls", "s", "self_s", "distinct_ratio"),
    "families.type2": ("calls", "s", "self_s", "distinct_ratio"),
    "families.type1": ("calls", "s", "self_s"),
    "families.nnrc": ("calls", "s", "self_s"),
    "exact.pochhammer": ("calls", "s", "self_s"),
    "exact.poly_mul": ("calls", "s", "self_s"),
    "verify.run_closed_vs_oracle": ("calls", "s", "self_s"),
    "verify.recurrence_residual": ("calls",),
    "analytic.contour_quadrature.extended": ("calls", "s", "self_s"),
    "analytic.contour_quadrature.double": ("calls", "s", "self_s"),
    "analytic.integral_representation": ("calls", "s", "self_s"),
    "analytic.closed_form_value": ("calls", "s", "self_s"),
    "cli.run": ("calls", "s", "self_s"),
}
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "distinct_ratio": "ratio",
               "raised": "count"}
EXTRA_UNITS = {"oracle.solve_exact.max_dim": "count", "exact.max_bits": "bits",
               "cli.interpreter_s": "s", "cli.import_s": "s",
               "cli.import.mopoly.analytic_s": "s"}


def per_layer_units() -> dict:
    units = {f"{name}.{field}": FIELD_UNITS[field]
             for name, fields in LAYER_FUNCTIONS.items() for field in fields}
    units.update(EXTRA_UNITS)
    units.update({f"trace.{name}": unit for name, unit in E2E_UNITS.items()})
    return units


# -- statistics -----------------------------------------------------------

def percentile(samples, pct):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(samples, cap):
    """(percentile, value): the highest percentile up to ``cap`` with at least
    ten samples beyond it; the maximum when no percentile has ten."""
    best = None
    for pct in PERCENTILES:
        if pct > cap:
            break
        value = percentile(samples, pct)
        if sum(1 for s in samples if s > value) >= 10:
            best = (pct, value)
    return best if best else (100, max(samples))


# -- machine speed ----------------------------------------------------------

# The speed of a shared box drifts by up to 40% within minutes: a fixed
# Fraction loop ran at anywhere from 49 to 83 passes per second in one
# 100-second window.  The benchmark therefore times a fixed reference loop
# before and after every op (and, for ops that run in-process, from a SIGALRM
# handler every REF_INTERVAL_S during the op) and reports op times in
# reference seconds: the wall time scaled to a machine on which the reference
# loop takes REF_NOMINAL_S.  The raw wall-clock figures go to the detail line.
REF_TERMS = 1500
REF_NOMINAL_S = 0.005
REF_INTERVAL_S = 0.5


def reference_s() -> float:
    """Seconds for one pass of the reference loop (exact harmonic sum)."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REF_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def to_reference_s(elapsed: float, refs) -> float:
    """Wall seconds to reference seconds, at the mean speed the samples show."""
    return elapsed * statistics.fmean(REF_NOMINAL_S / r for r in refs)


class Speedometer:
    """Reference-loop samples; with ``timer``, also one every REF_INTERVAL_S.

    ``spent`` is the time the timer samples took, which the caller subtracts
    from the op they interrupted.  The timer stays off while a child process
    runs, so that nothing computes beside it.
    """

    def __init__(self, timer: bool):
        self.refs = []
        self.spent = 0.0
        self._timer = timer
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        self._busy = True
        try:
            self.refs.append(reference_s())
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        t0 = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        if self._timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


# -- set-up time -----------------------------------------------------------

def setup_probe(workload: str, seed: int) -> int:
    """Child side of ``measure_setup``: imports plus the first cycle's inputs."""
    workloads.WORKLOADS[workload](seed).cycle()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> list:
    """Reference seconds from starting a fresh process to its first op being ready."""
    samples = []
    before = reference_s()
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--setup-probe",
                                 "--workload", workload, "--seed", str(seed)],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
        after = reference_s()
        samples.append(to_reference_s(elapsed, (before, after)))
        before = after
    return samples


# -- the closed loop -------------------------------------------------------

class Outcome:
    def __init__(self):
        self.samples = []      # op times in reference seconds
        self.wall = []         # wall seconds
        self.refs = []         # reference loop samples
        self.checks = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ops = []          # (op id, meta) in traced runs


def run_loop(wl, seconds: float, tracer=None, cycles: int | None = None) -> Outcome:
    """Run whole cycles until ``seconds`` have passed (or exactly ``cycles``)."""
    out = Outcome()
    with Speedometer(timer=wl.in_process) as speed:
        speed.sample()
        t_end = time.perf_counter() + seconds
        done = 0
        while True:
            for item in wl.cycle():
                op_id = out.attempted
                out.attempted += 1
                first, spent = len(speed.refs) - 1, speed.spent
                if tracer is not None:
                    tracer.op_id = op_id
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    result = wl.op(item)
                except Exception as exc:  # a raising op is a failed op
                    result, error = None, f"{type(exc).__name__}: {exc}"
                else:
                    error = None
                elapsed = time.perf_counter() - t0 - (speed.spent - spent)
                if tracer is not None:
                    if error is None and hasattr(wl, "traced_extra"):
                        wl.traced_extra(item, tracer)
                    tracer.active = False
                    out.ops.append((op_id, wl.meta(item)))
                speed.sample()
                out.wall.append(elapsed)
                out.samples.append(to_reference_s(elapsed, speed.refs[first:]))
                problems = [error] if error else wl.check(item, result)
                if problems:
                    out.failed += 1
                    out.problems.append({"op": op_id, **wl.meta(item),
                                         "problems": problems[:5]})
                else:
                    out.checks += wl.checks(item, result)
            done += 1
            if cycles is not None:
                if done >= cycles:
                    break
            elif time.perf_counter() >= t_end:
                break
    out.refs = speed.refs
    return out


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux


def end_to_end(workload: str, out: Outcome, rss_mb: float, setup: list) -> tuple:
    pct, tail_value = tail(out.samples, TAIL_PCT[workload])
    metrics = {
        "checks_per_s": out.checks / sum(out.samples),
        "op_p50_s": percentile(out.samples, 50),
        "op_tail_s": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    detail = {"samples": len(out.samples), "tail_percentile": pct,
              "setup_samples": len(setup),
              "error_frac": out.failed / out.attempted,
              "wall": {"checks_per_s": out.checks / sum(out.wall),
                       "op_p50_s": percentile(out.wall, 50),
                       "op_tail_s": tail(out.wall, TAIL_PCT[workload])[1]},
              "reference_loop_s": {"p50": percentile(out.refs, 50),
                                   "min": min(out.refs), "max": max(out.refs)}}
    return metrics, detail


# -- environment stamp -----------------------------------------------------

def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "mopoly").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {"commit": _commit(), "src_sha256": _src_digest(), "seed": seed,
            "python": platform.python_version(),
            **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


# -- traced run ------------------------------------------------------------

def cli_traced_extra(wl):
    """In traced cli runs, time the interpreter, the imports and cli.run."""
    _, bare_modules = workloads.bare_interpreter()
    stats = {"interpreter_s": [], "import_s": [], "analytic_s": []}

    def extra(item, tracer):
        proc = wl.child(item, flags=("-X", "importtime"))
        times = workloads.parse_importtime(proc.stderr, bare_modules)
        stats["import_s"].append(times["total"])
        stats["analytic_s"].append(times["modules"].get("mopoly.analytic", 0.0))
        stats["interpreter_s"].append(workloads.bare_interpreter()[0])
        from mopoly import cli
        env = os.environ.get("MOPOLY_PRECISION")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.run(list(item["argv"]))
        if env is None:
            os.environ.pop("MOPOLY_PRECISION", None)
        else:
            os.environ["MOPOLY_PRECISION"] = env

    return extra, stats


def layer_metrics(tracer, cli_stats) -> dict:
    summary = tracer.summary()
    metrics = {}
    for name, fields in LAYER_FUNCTIONS.items():
        rec = summary.get(name, {})
        for field in fields:
            metrics[f"{name}.{field}"] = rec.get(field, 0)
    metrics["oracle.solve_exact.max_dim"] = tracer.max_dim
    metrics["exact.max_bits"] = tracer.max_bits
    for key, name in (("interpreter_s", "cli.interpreter_s"), ("import_s", "cli.import_s"),
                      ("analytic_s", "cli.import.mopoly.analytic_s")):
        values = cli_stats.get(key) if cli_stats else None
        metrics[name] = statistics.median(values) if values else 0
    return metrics


def scaling_curve(tracer, ops) -> dict:
    """Per-op busy seconds of four layers by (family, p, |n|) in a scale run."""
    names = ("families.type2", "oracle.oracle_type2", "oracle.oracle_nnrc", "oracle.solve_exact")
    cell_of = {op_id: f"{m['family']}/p{m['p']}/n{m['size']}" for op_id, m in ops}
    counts = {}
    for cell in cell_of.values():
        counts[cell] = counts.get(cell, 0) + 1
    curve = {cell: {"ops": k, **{name: 0.0 for name in names}} for cell, k in counts.items()}
    by_id = {s[0]: s for s in tracer.spans}
    for span in tracer.spans:
        if span[3] not in names or span[2] not in cell_of:
            continue
        parent = by_id.get(span[1])
        if parent is not None and parent[3] == span[3]:
            continue
        curve[cell_of[span[2]]][span[3]] += span[5]
    for rec in curve.values():
        for name in names:
            rec[name] /= rec["ops"]
    return dict(sorted(curve.items()))


def write_trace(workload, seed, tracer, ops, extra):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": dict(ops),
                   "callers": tracer.callers(), **extra,
                   "span_fields": ["id", "parent", "op", "name", "start", "duration", "self"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return path


# -- main ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mopoly" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mopoly sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(SINGLE_THREADED)   # before numpy loads, here and in every child
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    wl_class = workloads.WORKLOADS[args.workload]
    tracer = cli_stats = None
    cycles = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        cycles = max(1, math.ceil(args.seconds / wl_class.cycle_s))
    wl = wl_class(args.seed)
    if args.trace and args.workload == "cli":
        wl.traced_extra, cli_stats = cli_traced_extra(wl)

    out = run_loop(wl, args.seconds, tracer, cycles)
    rss = peak_rss_mb(wl.in_process)
    setup = measure_setup(args.workload, args.seed)
    e2e, detail = end_to_end(args.workload, out, rss, setup)
    detail["env"] = environment(args.seed)
    detail["problems"] = out.problems[:20]

    if args.trace:
        tracer.uninstall()
        metrics = layer_metrics(tracer, cli_stats)
        metrics.update({f"trace.{k}": v for k, v in e2e.items()})
        units = per_layer_units()
        extra = {"cycles": cycles}
        if args.workload == "scale":
            extra["scaling"] = scaling_curve(tracer, out.ops)
            detail["scaling"] = extra["scaling"]
        detail["callers"] = tracer.callers()
        detail["trace_file"] = str(write_trace(args.workload, args.seed, tracer, out.ops,
                                               extra).relative_to(ROOT))
    else:
        metrics, units = e2e, E2E_UNITS

    print(json.dumps({"perfbench": {"workload": args.workload, **detail}}, sort_keys=True))
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
