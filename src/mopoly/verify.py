"""Verification sweeps: closed forms vs. oracle, identities, integrals, limits.

Each runner returns a JSON-serializable report with a top-level ``passed``
flag; the CLI streams the report and exits 0/1 accordingly.  Sweeps are
reproducible from (seed, sweep spec), and every exact comparison is an exact
rational equality.

The closed-vs-oracle sweep keeps three caches per parameter draw: an
``OracleContext`` that holds the draw's moment tables and solves each oracle
B_n and A_hat_m and each recurrence pairing once for every permutation and
shift, the closed-form type II polynomials (each built once, whether the
sweep over n or a shifted residual trial needs it first), and their values at
the integer nodes.  The biorthogonality suite shares one ``OracleContext`` per
draw the same way.
The recurrence identity is checked by evaluating its residual at those nodes
(``type2_residual_vanishes``), which is exact.  Every closed form is still
computed as printed and compared for every (n, i, permutation).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .analytic.integrals import closed_form_value, contour_quadrature, integral_representation
from .analytic.limits import (
    DISCRETE_EDGES,
    LimitSchedule,
    hermite_route_consistency,
    limit_edge,
    stirling_ratio_check,
)
from .analytic.rodrigues import rodrigues_type1
from .errors import InvalidShiftError
from .exact.indices import MultiIndex, Permutation, all_permutations, multi_indices
from .exact.identities import IDENTITY_NAMES, verify_identity
from .families.closed_forms import type1, type1_alt_equivalence, type2
from .families.params import FAMILY_NAMES, Charlier, Kravchuk, MeixnerI, MeixnerII
from .families.recurrence import nnrc
from .families.weights import mass_cancellation
from .oracle.adjudicate import run_adjudications
from .oracle.moments import validate_closed_form
from .oracle.reconstruct import (
    OracleContext,
    check_biorthogonality,
    oracle_nnrc,
    type2_residual_vanishes,
)
from .sampling import draw_params, draw_params_moderate, rational

SWEEPS = {
    "small": {"p_values": (1, 2), "n_max": 3, "draws": 4, "identity_trials": 40},
    "standard": {"p_values": (1, 2, 3), "n_max": 5, "draws": 25, "identity_trials": 200},
    "deep": {"p_values": (1, 2, 3), "n_max": 6, "draws": 40, "identity_trials": 400},
}


def _recurrence_identity_cached(params, n, perm, k, coeffs, t2cache, values):
    """Exact type II recurrence residual from cached polynomials and node values.

    Returns True/False, or None when the relation does not apply to the
    trial: B_{n+e_k} would exceed the support bound, or a needed shift leaves
    N_0^p with a nonzero coefficient.
    """
    if params.finite_support and n.size + 1 > params.N:
        return None  # B_{n+e_k} would exceed the support bound

    def t2(m):
        if m not in t2cache:
            t2cache[m] = type2(params, MultiIndex.of(m))
        return t2cache[m]

    return type2_residual_vanishes(n, perm, k, coeffs, t2, values)


def _mismatch(check, family, params, n, **where) -> dict:
    return {"check": check, "family": family, "params": params.to_json(),
            "n": list(n.entries), **where, "status": "fail"}


def run_closed_vs_oracle(sweep: str = "standard", seed: int = 0,
                         families=FAMILY_NAMES,
                         checks=("type2", "type1", "recurrence")) -> dict:
    """Criteria 1-3: type II, type I and recurrence closed forms vs. the oracle."""
    cfg = SWEEPS[sweep]
    checks = set(checks)
    rng = random.Random(seed)
    report = {"check": "closed-vs-oracle", "sweep": sweep, "seed": seed,
              "checks": sorted(checks), "families": {}}
    all_ok = True
    for family in families:
        stats = {"type2": 0, "type1": 0, "recurrence": 0, "recurrence_identity": 0,
                 "mismatches": []}
        for p in cfg["p_values"]:
            perms = [Permutation.identity(p)]
            if p >= 3:
                pool = [q for q in all_permutations(p) if q.image != perms[0].image]
                perms += rng.sample(pool, 2)
            elif p == 2:
                perms.append(Permutation.of((2, 1)))
            for _ in range(cfg["draws"]):
                params = draw_params(rng, family, p, cfg["n_max"])
                context = OracleContext(params)
                t2cache: dict = {}
                values: dict = {}
                for n in multi_indices(p, cfg["n_max"]):
                    # residual trials of smaller n may already have built B_n
                    if n.entries not in t2cache:
                        t2cache[n.entries] = type2(params, n)
                    cf2 = t2cache[n.entries]
                    if "type2" in checks:
                        if cf2 != context.type2(n):
                            stats["mismatches"].append(_mismatch("type2", family, params, n))
                        stats["type2"] += 1
                    if "type1" in checks and n.size >= 1:
                        ora = context.type1(n)
                        for i in range(1, p + 1):
                            cf1 = type1(params, n, i)
                            if cf1.is_zero():
                                ok = ora[i - 1].is_zero()
                            else:
                                scale = mass_cancellation(params, i, cf1.prefactor)
                                ok = cf1.rational_part * scale == ora[i - 1]
                            if not ok:
                                stats["mismatches"].append(
                                    _mismatch("type1", family, params, n, i=i))
                            stats["type1"] += 1
                    if "recurrence" not in checks:
                        continue
                    for perm in perms:
                        coeffs = nnrc(params, n, perm)
                        try:
                            orc = oracle_nnrc(params, n, perm, context=context)
                        except InvalidShiftError:
                            orc = None
                        if orc is not None:
                            if coeffs.b0 != orc.b0 or coeffs.bj != orc.bj:
                                stats["mismatches"].append(_mismatch(
                                    "recurrence", family, params, n, perm=list(perm.image)))
                            stats["recurrence"] += 1
                        for k in range(1, p + 1):
                            res = _recurrence_identity_cached(params, n, perm, k, coeffs,
                                                              t2cache, values)
                            if res is None:
                                continue
                            if not res:
                                stats["mismatches"].append(_mismatch(
                                    "recurrence_identity", family, params, n,
                                    perm=list(perm.image), k=k))
                            stats["recurrence_identity"] += 1
        stats["passed"] = not stats["mismatches"]
        all_ok = all_ok and stats["passed"]
        report["families"][family] = stats
    report["adjudications"] = run_adjudications(seed)
    report["passed"] = all_ok and all(
        "confirmed" in rec["verdict"] or "validates" in rec["verdict"]
        or "relaxed" in rec["verdict"]
        for rec in report["adjudications"])
    return report


def _identity_params(rng: random.Random, which: str) -> dict:
    if which == "chu_vandermonde":
        return {"x": str(rational(rng)), "y": str(rational(rng)), "n": rng.randrange(0, 7)}
    if which == "gauss":
        return {"n": rng.randrange(0, 9), "x": str(rational(rng)),
                "y": str(rational(rng, 1, 5))}
    if which == "pfaff_saalschutz":
        a, b = rational(rng), rational(rng)
        return {"a": str(a), "b": str(b), "c": str(a + b + rational(rng, 1, 4)),
                "k": rng.randrange(0, 4), "n": rng.randrange(0, 7)}
    p = rng.randrange(1, 4)
    n = [rng.randrange(0, 4) for _ in range(p)]
    if which == "lemma2" and sum(n) == 0:
        n[rng.randrange(p)] = rng.randrange(1, 4)
    if which == "lemma3":
        return {"alpha": [str(rational(rng)) for _ in range(p)],
                "n": n, "x": str(rational(rng) + Fraction(1, 17))}
    size = sum(n)
    return {"alpha": [str(rng.randrange(0, 4) + Fraction(i + 1, 17))
                      for i in range(p)],
            "beta": str(rational(rng)),
            "N": size + rng.randrange(0, 5),
            "n": n,
            "x": str(rational(rng, 1, 4) + Fraction(1, 19))}


def run_identity_suite(which="all", trials: int = 200, seed: int = 0) -> dict:
    """Criterion 5: the summation identities on seeded random rational tuples."""
    names = IDENTITY_NAMES if which == "all" else (which,)
    rng = random.Random(seed)
    report = {"check": "identities", "trials": trials, "seed": seed, "results": {}}
    all_ok = True
    for name in names:
        failures = []
        for t in range(trials):
            params = _identity_params(rng, name)
            rep = verify_identity(name, params)
            if not rep.equal:
                failures.append({"trial": t, "params": params,
                                 "lhs": str(rep.lhs), "rhs": str(rep.rhs)})
        report["results"][name] = {"trials": trials, "failures": failures,
                                   "passed": not failures}
        all_ok = all_ok and not failures
    report["passed"] = all_ok
    return report


def run_biorthogonality(seed: int = 0, n_max: int = 4, p_values=(1, 2),
                        families=FAMILY_NAMES) -> dict:
    """Criterion 4: the 0/1/0 pairing table for all |n|, |m| <= n_max."""
    rng = random.Random(seed)
    report = {"check": "biorthogonality", "seed": seed, "families": {}}
    all_ok = True
    for family in families:
        checked = 0
        failures = []
        for p in p_values:
            params = draw_params(rng, family, p, n_max)
            context = OracleContext(params)
            for n in multi_indices(p, n_max):
                for m in multi_indices(p, n_max, min_size=1):
                    rep = check_biorthogonality(params, n, m, context=context)
                    if rep.expected is None:
                        continue
                    checked += 1
                    if not rep.ok:
                        failures.append({"n": list(n.entries), "m": list(m.entries),
                                         "value": str(rep.value),
                                         "expected": str(rep.expected)})
        report["families"][family] = {"checked": checked, "failures": failures,
                                      "passed": not failures}
        all_ok = all_ok and not failures
    report["passed"] = all_ok
    return report


def run_representation_equalities(seed: int = 0, n_max: int = 4) -> dict:
    """Criterion 6: weighted-pFq, alternative-form and Rodrigues equalities."""
    rng = random.Random(seed)
    report = {"check": "representations", "seed": seed, "results": {}}

    def sweep(p_values=(1, 2, 3)):
        for p in p_values:
            for n in multi_indices(p, n_max if p < 3 else 3):
                yield p, n

    weighted = {"checked": 0, "failures": []}
    for family in ("hahn", "meixner2"):
        for p, n in sweep():
            params = draw_params(rng, family, p, n.size)
            a = type2(params, n, "coefficient_sum")
            b = type2(params, n, "weighted_pfq")
            weighted["checked"] += 1
            if a != b:
                weighted["failures"].append([family, list(n.entries)])
    report["results"]["type2_weighted_pfq"] = {**weighted,
                                               "passed": not weighted["failures"]}

    alt = {"checked": 0, "failures": []}
    for p, n in sweep():
        if n.size == 0:
            continue
        params = draw_params(rng, "meixner1", p, n.size)
        for i in range(1, p + 1):
            alt["checked"] += 1
            if not type1_alt_equivalence(params, n, i):
                alt["failures"].append([list(n.entries), i])
    report["results"]["meixner1_alternative_form"] = {**alt, "passed": not alt["failures"]}

    rod = {"checked": 0, "failures": []}
    for family in ("meixner1", "kravchuk", "charlier"):
        for p, n in sweep():
            if n.size == 0:
                continue
            params = draw_params(rng, family, p, n.size)
            for i in range(1, p + 1):
                if n[i - 1] == 0:
                    continue
                r = rodrigues_type1(params, n, i)
                cf = type1(params, n, i)
                rod["checked"] += 1
                if r.prefactor != cf.prefactor or r.rational_part != cf.rational_part:
                    rod["failures"].append([family, list(n.entries), i])
    report["results"]["rodrigues"] = {**rod, "passed": not rod["failures"]}
    report["passed"] = all(v["passed"] for v in report["results"].values())
    return report


def run_integral_suite(seed: int = 0, nodes: int = 256, rel_tol: float = 1e-8,
                       doubling_tol: float = 1e-10, x_max: int = 5,
                       precision: str = "double") -> dict:
    """Criterion 7: the ten contour representations vs. closed forms.

    Relative error is measured against max(|closed form|, 1) so that exact
    integer zeros of the polynomials do not inflate the ratio.
    """
    rng = random.Random(seed)
    report = {"check": "integrals", "seed": seed, "nodes": nodes, "results": {}}
    all_ok = True
    for family in FAMILY_NAMES:
        worst = 0.0
        worst_doubling = 0.0
        checked = 0
        for p in (1, 2):
            params = draw_params_moderate(rng, family, p, 3)
            for n in multi_indices(p, 3):
                for kind in ("type2", "type1", "linear_form"):
                    if kind != "type2" and n.size == 0:
                        continue
                    comps = range(1, p + 1) if kind == "type1" else (None,)
                    for i in comps:
                        if kind == "type1" and n[i - 1] == 0:
                            continue
                        for x in range(0, x_max + 1):
                            if params.finite_support and x > params.N:
                                continue
                            rep = integral_representation(params, kind, n, x, i)
                            res = contour_quadrature(rep, nodes=nodes,
                                                     precision=precision)
                            cf = closed_form_value(params, kind, n, x, i)
                            scale = max(abs(cf), 1.0)
                            worst = max(worst, abs(res.value - cf) / scale)
                            worst_doubling = max(worst_doubling,
                                                 res.error_estimate / scale)
                            checked += 1
        ok = worst < rel_tol and worst_doubling < doubling_tol
        all_ok = all_ok and ok
        report["results"][family] = {"checked": checked, "worst_rel_err": worst,
                                     "worst_doubling_change": worst_doubling,
                                     "passed": ok}
    report["passed"] = all_ok
    return report


def default_limit_targets() -> dict:
    """AT-safe targets: family parameters for the discrete edges, endpoint-weight
    dicts for the continuous ones (offsets keep Hahn sources off integer differences)."""
    F = Fraction
    return {
        "h_m2": MeixnerII((F(3, 2), F(14, 5)), F(1, 3)),
        "h_m1": MeixnerI(F(3, 2), (F(7, 10), F(11, 14))),
        "h_k": Kravchuk((F(1, 4), F(3, 5)), 7),
        # a_1 - a_2 has denominator 7, so a_i / c stays AT-safe down the whole
        # decade schedule of c
        "m2_c": Charlier((F(15, 7), F(7, 2))),
        "m1_c": Charlier((F(2), F(7, 2))),
        "k_c": Charlier((F(2), F(7, 2))),
        "h_jp": {"alpha": (F(8, 7), F(16, 7)), "beta": F(1, 3)},
        "m2_l1": {"alpha": (F(8, 7), F(16, 7))},
        "m1_l2": {"alpha0": F(1, 3), "c": (F(1, 2), F(5, 4))},
        "k_hermite": {"c": (F(1, 3), F(3, 2))},
        "c_hermite": {"c": (F(1, 3), F(3, 2))},
        "l2_hermite": {"c": (F(1, 3), F(3, 2))},
    }


def _edge_record(rep) -> dict:
    return {"slope": rep.slope, "monotone": rep.monotone_tail,
            "schedule": [float(t) for t in rep.schedule],
            "errors": list(rep.errors), "passed": rep.passed}


def run_limit_suite(seed: int = 0, hermite_tol: float = 1e-6) -> dict:
    """Criterion 8: slope-band checks on every edge plus the Hermite routes."""
    F = Fraction
    targets = default_limit_targets()
    decades = (100, 1000, 10000, 100000)
    report = {"check": "limits", "seed": seed, "edges": {}, "gamma_asymptotics": {}}
    all_ok = True

    for edge in DISCRETE_EDGES:
        sched = LimitSchedule(edge, decades, x_probes=(0, 1, 3),
                              n_probes=((1, 0), (1, 1), (2, 1)))
        edge_report = {}
        for check in ("weight", "type2", "recurrence"):
            rep = limit_edge(sched, check, targets[edge], i=1)
            edge_report[check] = _edge_record(rep)
            all_ok = all_ok and rep.passed
        report["edges"][edge] = edge_report

    continuous = {                   # edge -> (schedule, x probes)
        "h_jp": (decades, (F(1, 2),)),
        "m2_l1": (decades, (1,)),
        "m1_l2": (decades, (1,)),
        "k_hermite": ((128, 1352, 12800, 131072), (F(1, 2),)),
        "c_hermite": (decades, (F(1, 2),)),
        "l2_hermite": (decades, (F(1, 2),)),
    }
    for edge, (values, xs) in continuous.items():
        sched = LimitSchedule(edge, values, x_probes=xs)
        rep = limit_edge(sched, "weight", targets[edge], i=1)
        report["edges"][edge] = {"weight": _edge_record(rep)}
        all_ok = all_ok and rep.passed

    routes = hermite_route_consistency(targets["k_hermite"]["c"],
                                       MultiIndex.of((2, 1)),
                                       tolerance=hermite_tol)
    report["hermite_routes"] = {"pairwise_max": routes.pairwise_max,
                                "tolerance": hermite_tol, "passed": routes.passed}
    all_ok = all_ok and routes.passed

    for form, kwargs in (("stirling", {}), ("gamma_ratio", {"a": 2, "b": 3, "c": 1}),
                         ("gamma_sqrt_shift", {"x": 1, "y": 2, "z": 0})):
        rep = stirling_ratio_check(form, decades, **kwargs)
        report["gamma_asymptotics"][form] = {"slope": rep.slope,
                                             "errors": list(rep.errors),
                                             "passed": rep.passed}
        all_ok = all_ok and rep.passed

    report["passed"] = all_ok
    return report


def run_moment_validation(seed: int = 0, jmax: int = 10, rel_tol: float = 1e-20) -> dict:
    """Criterion 9: closed-form normalized moments vs. truncated direct sums."""
    rng = random.Random(seed)
    report = {"check": "moments", "seed": seed, "jmax": jmax, "families": {}}
    all_ok = True
    for family in ("meixner2", "meixner1", "charlier"):
        params = draw_params(rng, family, 2, 4)
        worst = 0.0
        for i in range(1, params.p + 1):
            errors = validate_closed_form(params, i, jmax, rel_tol=rel_tol)
            worst = max(worst, max(errors))
        ok = worst < rel_tol
        all_ok = all_ok and ok
        report["families"][family] = {"worst_rel_err": worst, "passed": ok}
    report["passed"] = all_ok
    return report
