"""Tests of the benchmark itself: metric names and units, checkers, tracing.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.splitlines()[-1])


def _expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload,trace", [("contour", 0), ("contour", 1), ("cli", 1)])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                          "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _expected("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_metric_tables_match_benchmark_json():
    assert run.E2E_UNITS == _expected("end_to_end")
    assert run.per_layer_units() == _expected("per_layer")


def test_traced_counts_repeat_exactly_for_one_seed():
    counts = []
    for _ in range(2):
        proc, result = _bench("--workload", "contour", "--seed", "5", "--seconds", "0.1",
                              "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith((".calls", "distinct_ratio", ".raised", "max_dim",
                                      "max_bits"))})
    assert counts[0] == counts[1]
    assert counts[0]["analytic.contour_quadrature.extended.calls"] == 15


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scale",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- injected wrong answers ------------------------------------------------

def _perturbed(poly):
    from mopoly.exact.polynomials import Poly
    coeffs = list(poly.coeffs)
    coeffs[0] += Fraction(1, 10**9)
    return Poly(coeffs)


def test_scale_checker_counts_a_perturbed_coefficient():
    wl = workloads.Scale(11, shapes=((2,), (1, 1)))
    item = wl.cycle()[0]
    pairs = wl.op(item)
    assert wl.check(item, pairs) == []
    label, closed, oracle = pairs[0]
    bad = [(label, _perturbed(closed), oracle)] + pairs[1:]
    assert wl.check(item, bad) == ["type2 closed != oracle"]


class _Injected:
    """Wraps a workload so that its first op hands a wrong answer to the checker."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt, self.seen = inner, corrupt, 0
        for attr in ("name", "in_process", "cycle", "check", "checks", "meta"):
            setattr(self, attr, getattr(inner, attr))

    def op(self, item):
        out = self.inner.op(item)
        self.seen += 1
        return self.corrupt(out) if self.seen == 1 else out


def test_run_loop_counts_an_injected_wrong_answer():
    def corrupt(pairs):
        label, closed, oracle = pairs[0]
        return [(label, _perturbed(closed), oracle)] + pairs[1:]

    wl = _Injected(workloads.Scale(11, shapes=((2,),)), corrupt)
    out = run.run_loop(wl, 0, cycles=1)
    assert out.attempted == 5 and out.failed == 1
    assert out.problems[0]["problems"] == ["type2 closed != oracle"]


def test_op_times_discount_the_reference_samples_taken_during_them(monkeypatch):
    def slow_reference():
        time.sleep(0.1)
        return run.REF_NOMINAL_S

    class Sleepy(workloads.Scale):
        def op(self, item):
            for _ in range(100):
                time.sleep(0.01)
            return []

    monkeypatch.setattr(run, "reference_s", slow_reference)
    out = run.run_loop(Sleepy(1, shapes=((2,),)), 0, cycles=1)
    assert len(out.refs) > 1 + 5          # timer samples were taken during the ops
    assert all(0.99 < wall < 1.08 for wall in out.wall)
    assert out.samples == pytest.approx(out.wall)


def test_run_loop_counts_a_raising_op():
    class Raising(workloads.Scale):
        def op(self, item):
            raise ValueError("boom")

    out = run.run_loop(Raising(1, shapes=((2,),)), 0, cycles=1)
    assert out.failed == out.attempted == 5


def test_contour_checker_counts_a_perturbed_value():
    wl = workloads.Contour(2)
    item = wl.cycle()[0]
    out = wl.op(item)
    assert wl.check(item, out) == []
    value, doubling = out["double"]
    bad = dict(out, double=(value + 1e-6 * max(abs(out["closed"]), 1.0), doubling))
    assert wl.check(item, bad) == [f"double rel err {1e-6:.3g}"]


def test_cli_checker_counts_a_perturbed_coefficient():
    wl = workloads.Cli(4)
    items = {item["command"]: item for item in wl.cycle()}
    for command in ("eval-type2", "recur"):
        item = items[command]
        out = wl.op(item)
        assert wl.check(item, out) == [], command
        payload = json.loads(out["stdout"])
        key = "coeffs" if command == "eval-type2" else "b0"
        num, den = (int(v) for v in payload[key][0].split("/"))
        payload[key][0] = f"{num + 1}/{den}"
        assert workloads.cli_problems(item, payload), command
    assert wl.check(items["moments"], {"returncode": 2, "stdout": ""}) == ["exit code 2"]


def test_sweep_checker_counts_a_mismatch_and_low_counts():
    from mopoly import verify
    wl = workloads.Sweep(2026)
    item = wl.cycle()[0]
    report = verify.run_closed_vs_oracle("small", 2026, families=("charlier",))
    stats = report["families"]["charlier"]
    assert wl.checks(item, report) == sum(stats[k] for k in ("type2", "type1", "recurrence",
                                                             "recurrence_identity"))
    # a small sweep is below the acceptance minimum of a standard one
    low = f"type2 comparisons {stats['type2']} < {workloads.SWEEP_MIN_TYPE2}"
    assert wl.check(item, report) == [low]
    stats["mismatches"].append({"check": "type2", "n": [1]})
    assert wl.check(item, report) == ["mismatch type2 n=[1]", low]


# -- helpers ---------------------------------------------------------------

def test_tail_is_the_highest_capped_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    assert run.tail(samples, 99) == (95, 190.0)
    assert run.tail(samples, 90) == (90, 180.0)
    assert run.tail(samples[:40], 99) == (75, 30.0)
    assert run.tail([1.0, 2.0], 50) == (100, 2.0)


def test_parse_importtime_sums_top_level_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |   mopoly.analytic",
        "import time:       200 |        250 | mopoly",
        "import time:        10 |         10 | json",
    ])
    times = workloads.parse_importtime(text, exclude=frozenset({"site"}))
    assert times["total"] == pytest.approx(260e-6)
    assert times["modules"]["mopoly.analytic"] == pytest.approx(50e-6)


def test_max_bits_reads_exact_results():
    import tracer
    from mopoly.exact.polynomials import Poly
    assert tracer.max_bits(Fraction(3, 1024)) == 11
    assert tracer.max_bits([Poly([Fraction(1, 7), 255])]) == 8
    assert tracer.max_bits(1.5) == 0
