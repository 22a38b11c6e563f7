"""The four benchmark workloads: inputs drawn from a seed, timed ops, checks.

Each workload hands out its inputs one cycle at a time.  A cycle is a fixed
mix of items (the same families, sizes and commands in every cycle; only the
drawn parameter values change), so the statistics of a run made of whole
cycles do not depend on where the clock stopped.  ``op(item)`` is the timed
call into mopoly; ``check(item, out)`` runs afterwards, outside the timed
region, and returns the list of problems found (empty when the output is
correct).  ``checks(item, out)`` is the number of checks the op's output
passed through, which ``checks_per_s`` counts.

Each workload imports only the mopoly modules it needs, in its constructor,
so that ``setup_s`` measures that workload's own imports.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "schemas"

# acceptance minimums of one standard sweep of one family (tests/test_acceptance.py)
SWEEP_MIN_TYPE2 = 25 * (6 + 21 + 56)
# contour acceptance tolerances (criterion 7)
REL_TOL = 1e-8
DOUBLING_TOL = 1e-10


class Sweep:
    """One standard closed-vs-oracle sweep of one family per op.

    The family mix is the same in every run: Charlier only, because a
    standard sweep of one family takes about as long as a whole run (14-26 s
    on a 2-core x86-64 box).  Op k uses sweep seed ``seed + k``.
    """

    name = "sweep"
    family = "charlier"
    in_process = True
    # wall seconds per cycle at the defining commit; a traced run makes
    # ceil(seconds / cycle_s) cycles, so its counts do not depend on the clock
    cycle_s = 26.0

    def __init__(self, seed: int):
        from mopoly import verify
        self._verify = verify
        self._seed = seed
        self._next = 0

    def cycle(self):
        item = {"family": self.family, "seed": self._seed + self._next}
        self._next += 1
        return [item]

    def op(self, item):
        return self._verify.run_closed_vs_oracle("standard", item["seed"],
                                                 families=(item["family"],))

    def check(self, item, report):
        return sweep_problems(report, item["family"])

    def checks(self, item, report):
        stats = report["families"][item["family"]]
        return sum(stats[k] for k in ("type2", "type1", "recurrence", "recurrence_identity"))

    def meta(self, item):
        return {"family": item["family"], "seed": item["seed"]}


def sweep_problems(report: dict, family: str) -> list:
    stats = report["families"][family]
    problems = [f"mismatch {m['check']} n={m['n']}" for m in stats["mismatches"]]
    if not report["passed"]:
        problems.append("report not passed")
    if stats["type2"] < SWEEP_MIN_TYPE2:
        problems.append(f"type2 comparisons {stats['type2']} < {SWEEP_MIN_TYPE2}")
    for key in ("type1", "recurrence", "recurrence_identity"):
        if stats[key] <= 0:
            problems.append(f"no {key} comparisons")
    return problems


# multi-index cells of the scale workload, p = 1..3 and |n| from 12 to 15
SCALE_SHAPES = ((12,), (15,), (6, 6), (7, 7), (4, 4, 4), (4, 5, 5))


class Scale:
    """One query per fresh parameter draw on large systems, all five families.

    A query compares closed ``type2`` with ``oracle_type2``, ``nnrc`` with
    ``oracle_nnrc`` and each ``type1`` component (times its mass
    cancellation) with ``oracle_type1``, all by exact ``==``.  No two queries
    of a run share a parameter draw, so no cache can carry work between them.
    """

    name = "scale"
    in_process = True
    cycle_s = 4.5

    def __init__(self, seed: int, shapes=SCALE_SHAPES):
        from mopoly.exact.indices import MultiIndex
        from mopoly.families.closed_forms import type1, type2
        from mopoly.families.params import FAMILY_NAMES
        from mopoly.families.recurrence import nnrc
        from mopoly.families.weights import mass_cancellation
        from mopoly.oracle.reconstruct import oracle_nnrc, oracle_type1, oracle_type2
        from mopoly.sampling import draw_params
        self._fn = dict(type1=type1, type2=type2, nnrc=nnrc, mass_cancellation=mass_cancellation,
                        oracle_nnrc=oracle_nnrc, oracle_type1=oracle_type1,
                        oracle_type2=oracle_type2)
        self._draw = draw_params
        self._rng = random.Random(seed)
        self._cells = [(family, MultiIndex.of(shape)) for family in FAMILY_NAMES
                       for shape in shapes]
        self._seen = set()

    def cycle(self):
        items = []
        for family, n in self._cells:
            while True:
                params = self._draw(self._rng, family, n.p, n.size + 1)
                if params not in self._seen:
                    break
            self._seen.add(params)
            items.append({"family": family, "n": n, "params": params})
        self._rng.shuffle(items)
        return items

    def op(self, item):
        f = self._fn
        params, n = item["params"], item["n"]
        pairs = [("type2", f["type2"](params, n), f["oracle_type2"](params, n))]
        closed, oracle = f["nnrc"](params, n), f["oracle_nnrc"](params, n)
        pairs.append(("nnrc", (closed.b0, closed.bj), (oracle.b0, oracle.bj)))
        ora1 = f["oracle_type1"](params, n)
        for i in range(1, n.p + 1):
            cf1 = f["type1"](params, n, i)
            scale = f["mass_cancellation"](params, i, cf1.prefactor)
            pairs.append((f"type1[{i}]", cf1.rational_part * scale, ora1[i - 1]))
        return pairs

    def check(self, item, pairs):
        return exact_mismatches(pairs)

    def checks(self, item, pairs):
        return len(pairs)

    def meta(self, item):
        return {"family": item["family"], "p": item["n"].p, "size": item["n"].size}


def exact_mismatches(pairs) -> list:
    """Labels of the (label, closed, oracle) pairs that are not exactly equal."""
    return [f"{label} closed != oracle" for label, closed, oracle in pairs if closed != oracle]


# (kind, multi-index) cells of the contour workload, |n| <= 3
CONTOUR_CELLS = (("type2", (2, 1)), ("type1", (1, 2)), ("linear_form", (3,)))


class Contour:
    """One contour representation per op, in extended and in double precision.

    A cycle holds every (family, kind) pair once, each at a fixed multi-index;
    the parameters (``draw_params_moderate``), the point x and the type I
    component i are drawn.  Both quadratures (256 nodes) are checked against
    the closed form at the acceptance tolerances: relative error below 1e-8
    and node-doubling change below 1e-10, both relative to
    max(|closed form|, 1).
    """

    name = "contour"
    in_process = True
    cycle_s = 5.5
    nodes = 256

    def __init__(self, seed: int):
        from mopoly.analytic.integrals import (closed_form_value, contour_quadrature,
                                               integral_representation)
        from mopoly.exact.indices import MultiIndex
        from mopoly.families.params import FAMILY_NAMES
        from mopoly.sampling import draw_params_moderate
        self._rep = integral_representation
        self._quad = contour_quadrature
        self._closed = closed_form_value
        self._draw = draw_params_moderate
        self._rng = random.Random(seed)
        self._cells = [(family, kind, MultiIndex.of(shape)) for family in FAMILY_NAMES
                       for kind, shape in CONTOUR_CELLS]

    def _item(self, family, kind, n):
        rng = self._rng
        params = self._draw(rng, family, n.p, n.size)
        i = rng.choice([k + 1 for k in range(n.p) if n[k] > 0]) if kind == "type1" else None
        x_max = min(5, params.N) if params.finite_support else 5
        return {"family": family, "kind": kind, "params": params, "n": n,
                "x": rng.randrange(0, x_max + 1), "i": i}

    def cycle(self):
        items = [self._item(*cell) for cell in self._cells]
        self._rng.shuffle(items)
        return items

    def op(self, item):
        rep = self._rep(item["params"], item["kind"], item["n"], item["x"], item["i"])
        extended = self._quad(rep, nodes=self.nodes, precision="extended")
        double = self._quad(rep, nodes=self.nodes, precision="double")
        closed = self._closed(item["params"], item["kind"], item["n"], item["x"], item["i"])
        return {"extended": (extended.value, extended.error_estimate),
                "double": (double.value, double.error_estimate), "closed": closed}

    def check(self, item, out):
        return quadrature_problems(out)

    def checks(self, item, out):
        return 2

    def meta(self, item):
        return {"family": item["family"], "kind": item["kind"], "p": item["n"].p,
                "size": item["n"].size}


def quadrature_problems(out: dict) -> list:
    scale = max(abs(out["closed"]), 1.0)
    problems = []
    for mode in ("extended", "double"):
        value, doubling = out[mode]
        rel = abs(value - out["closed"]) / scale
        if not rel < REL_TOL:
            problems.append(f"{mode} rel err {rel:.3g}")
        if not doubling / scale < DOUBLING_TOL:
            problems.append(f"{mode} doubling change {doubling / scale:.3g}")
    return problems


CLI_COMMANDS = ("eval-type2", "eval-type1", "recur", "moments", "limits")
CLI_SCHEMA = {"eval-type2": "eval", "eval-type1": "eval", "recur": "recur",
              "moments": "moments", "limits": "verify"}


def _csv(values):
    return ",".join(str(v) for v in values)


class Cli:
    """One fresh ``python -m mopoly.cli`` process per op, one at a time.

    The mix is fixed: four exact one-shot commands and the float ``limits``
    command in every cycle.  The child gets ``src`` on its path; the
    ``mopoly`` console script is not installed.
    """

    name = "cli"
    in_process = False
    cycle_s = 3.7

    def __init__(self, seed: int):
        from mopoly.families.params import FAMILY_NAMES
        from mopoly.sampling import draw_params
        self._families = FAMILY_NAMES
        self._draw = draw_params
        self._rng = random.Random(seed)
        path = os.environ.get("PYTHONPATH")
        self._env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def _argv(self, command):
        rng = self._rng
        if command == "limits":
            return ["limits", "--seed", str(rng.randrange(1000))]
        family = rng.choice(self._families)
        p = rng.randrange(1, 4)
        n = [rng.randrange(1, 3) for _ in range(p)]
        params = self._draw(rng, family, p, sum(n) + 1)
        argv = ["--params-json", json.dumps(params.to_json(), separators=(",", ":"))]
        if command == "eval-type2":
            return ["eval", "type2", *argv, "--n", _csv(n)]
        if command == "eval-type1":
            return ["eval", "type1", *argv, "--n", _csv(n), "--i", str(rng.randrange(1, p + 1))]
        if command == "recur":
            perm = list(range(1, p + 1))
            rng.shuffle(perm)
            return ["recur", *argv, "--n", _csv(n), "--perm", _csv(perm)]
        return ["moments", *argv, "--i", str(rng.randrange(1, p + 1)),
                "--jmax", str(rng.randrange(8, 16))]

    def cycle(self):
        return [{"command": c, "argv": self._argv(c)} for c in CLI_COMMANDS]

    def child(self, item, flags=()):
        return subprocess.run([sys.executable, *flags, "-m", "mopoly.cli", *item["argv"]],
                              cwd=ROOT, env=self._env, capture_output=True, text=True,
                              timeout=120)

    def op(self, item):
        proc = self.child(item)
        return {"returncode": proc.returncode, "stdout": proc.stdout}

    def check(self, item, out):
        if out["returncode"] != 0:
            return [f"exit code {out['returncode']}"]
        try:
            payload = json.loads(out["stdout"])
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        return cli_problems(item, payload)

    def checks(self, item, out):
        return 1

    def meta(self, item):
        return {"command": item["command"]}


@functools.cache
def _validator(name):
    import jsonschema
    with open(SCHEMAS / f"{name}.schema.json") as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def cli_problems(item, payload) -> list:
    """Schema errors, plus disagreement with the oracle for the exact commands."""
    problems = [f"schema: {e.message}" for e in _validator(CLI_SCHEMA[item["command"]])
                .iter_errors(payload)]
    if problems:
        return problems
    command, argv = item["command"], item["argv"]
    if command == "limits":
        return [] if payload["passed"] is True else ["limits report not passed"]

    from mopoly.exact.indices import MultiIndex, Permutation
    from mopoly.exact.polynomials import Poly
    from mopoly.exact.rationals import rat, rat_to_str
    from mopoly.families.closed_forms import type1
    from mopoly.families.params import params_from_json
    from mopoly.families.weights import mass_cancellation
    from mopoly.oracle.moments import normalized_moments
    from mopoly.oracle.reconstruct import oracle_nnrc, oracle_type1, oracle_type2

    def flag(name):
        return argv[argv.index(name) + 1]

    params = params_from_json(json.loads(flag("--params-json")))
    if command == "moments":
        table = normalized_moments(params, int(flag("--i")), int(flag("--jmax")))
        expected = [rat_to_str(m) for m in table.moments]
        return [] if payload["moments"] == expected else ["moments != exact table"]
    n = MultiIndex.of(int(v) for v in flag("--n").split(","))
    if command == "eval-type2":
        expected = [rat_to_str(c) for c in oracle_type2(params, n).coeffs]
        return [] if payload["coeffs"] == expected else ["type2 != oracle_type2"]
    if command == "eval-type1":
        i = int(flag("--i"))
        prefactor = type1(params, n, i).prefactor
        if payload["prefactor"] != prefactor.describe():
            return ["type1 prefactor differs"]
        got = Poly([rat(c) for c in payload["coeffs"]]) * mass_cancellation(params, i, prefactor)
        return [] if got == oracle_type1(params, n)[i - 1] else ["type1 != oracle_type1"]
    perm = Permutation.of(tuple(int(v) for v in flag("--perm").split(",")))
    orc = oracle_nnrc(params, n, perm)
    expected = {"b0": [rat_to_str(v) for v in orc.b0], "b": [rat_to_str(v) for v in orc.bj]}
    return [] if payload == expected else ["recur != oracle_nnrc"]


WORKLOADS = {w.name: w for w in (Sweep, Scale, Contour, Cli)}


def parse_importtime(stderr: str, exclude=frozenset()) -> dict:
    """Cumulative import seconds by module from ``python -X importtime`` output.

    ``total`` sums the top-level imports whose module is not in ``exclude``
    (the modules a bare interpreter imports by itself).
    """
    cumulative = {}
    total = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cum_us = int(fields[1])
        except ValueError:
            continue   # the header line
        raw = fields[2]
        module = raw.strip()
        cumulative[module] = cum_us / 1e6
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        if depth == 0 and module not in exclude:
            total += cum_us / 1e6
    return {"modules": cumulative, "total": total}


def bare_interpreter():
    """Seconds to start and stop a bare interpreter, and the modules it imports."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    return elapsed, frozenset(parse_importtime(proc.stderr)["modules"])
