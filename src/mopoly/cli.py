"""Command-line front end.

Machine-readable JSON goes to stdout (canonical key order, so identical
(argv, seed) pairs produce byte-identical output); a one-line human summary
goes to stderr.  Exit codes: 0 all checks passed, 1 some check failed,
2 invalid input.  Exact-layer rationals are always serialized as "p/q"
strings; float-layer values use the shortest round-trip decimal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .analytic.limits import CONTINUOUS_EDGES, DISCRETE_EDGES
from .errors import MopolyError, ParameterError
from .exact.indices import MultiIndex, Permutation
from .exact.rationals import rat, rat_to_str
from .families.closed_forms import linear_form, type1, type2
from .families.params import FAMILIES, FAMILY_NAMES, params_from_json
from .families.recurrence import nnrc
from .oracle.moments import normalized_moments, validate_closed_form
from . import verify

EXIT_PASS, EXIT_FAIL, EXIT_BAD_INPUT = 0, 1, 2


def _rat_list(text: str):
    return tuple(rat(v) for v in text.split(","))


def _int_list(text: str):
    return tuple(int(v) for v in text.split(","))


def _add_family_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--family", choices=FAMILY_NAMES)
    parser.add_argument("--alpha", type=_rat_list, help="hahn alpha_1,..,alpha_p")
    parser.add_argument("--beta", type=_rat_list, help="hahn/meixner beta (or beta vector)")
    parser.add_argument("--N", type=int, help="hahn/kravchuk support bound")
    parser.add_argument("--c", type=_rat_list, help="meixner c (scalar or vector)")
    parser.add_argument("--pi", type=_rat_list, help="kravchuk success probabilities")
    parser.add_argument("--a", type=_rat_list, help="charlier a_1,..,a_p")
    parser.add_argument("--params-json", help="family JSON object inline")
    parser.add_argument("--params-file", help="path to a family JSON file")


def _require(value, flag: str):
    if value is None:
        raise MopolyError(f"missing {flag}")
    return value


def _build_params(args):
    if args.params_file:
        with open(args.params_file) as fh:
            return params_from_json(json.load(fh))
    if args.params_json:
        return params_from_json(json.loads(args.params_json))
    fam = args.family
    if fam is None:
        raise MopolyError("missing --family (or --params-json/--params-file)")
    if fam not in FAMILIES:
        raise ParameterError(f"unknown family {fam!r}")
    # the family flags carry the JSON field names
    obj = {"family": fam}
    for key, shape in FAMILIES[fam].json_fields.items():
        value = getattr(args, key)
        if value is None:
            raise ParameterError(f"missing --{key} for family {fam!r}")
        obj[key] = value[0] if shape == "scalar" and len(value) == 1 else value
    return params_from_json(obj)


def _emit(payload: dict, summary: str, passed: bool = True) -> int:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":"),
                                default=_json_default) + "\n")
    sys.stderr.write(summary + "\n")
    return EXIT_PASS if passed else EXIT_FAIL


def _json_default(value):
    if isinstance(value, Fraction):
        return rat_to_str(value)
    raise TypeError(f"not JSON-serializable: {value!r}")


def _poly_coeffs(poly):
    return [rat_to_str(c) for c in poly.coeffs]


def _cmd_eval(args) -> int:
    params = _build_params(args)
    n = MultiIndex.of(_require(args.n, "--n"))
    if args.what == "type2":
        poly = type2(params, n, args.representation)
        return _emit({"coeffs": _poly_coeffs(poly)},
                     f"type2 {params.family} n={list(n.entries)} deg={len(poly.coeffs) - 1}")
    if args.what == "type1":
        a = type1(params, n, args.i)
        payload = {"prefactor": a.prefactor.describe(),
                   "coeffs": _poly_coeffs(a.rational_part)}
        return _emit(payload, f"type1 {params.family} n={list(n.entries)} i={args.i}")
    # linear-form
    lf = linear_form(params, n, args.x)
    payload = {
        "components": [{"prefactor": tok.describe(), "value": rat_to_str(v)}
                       for tok, v in lf.components],
        "value": rat_to_str(lf.exact) if lf.exact is not None else lf.value,
    }
    return _emit(payload, f"linear form {params.family} n={list(n.entries)} x={args.x}")


def _cmd_recur(args) -> int:
    params = _build_params(args)
    n = MultiIndex.of(_require(args.n, "--n"))
    perm = Permutation.of(args.perm) if args.perm else Permutation.identity(params.p)
    coeffs = nnrc(params, n, perm)
    payload = {"b0": [rat_to_str(v) for v in coeffs.b0],
               "b": [rat_to_str(v) for v in coeffs.bj]}
    return _emit(payload, f"recurrence {params.family} n={list(n.entries)} "
                          f"perm={list(perm.image)}")


def _summarize(report: dict) -> str:
    verdict = "PASS" if report.get("passed") else "FAIL"
    return f"{report.get('check', 'report')}: {verdict}"


def _cmd_verify(args) -> int:
    which = args.suite
    if which == "closed-vs-oracle":
        report = verify.run_closed_vs_oracle(args.sweep, args.seed,
                                             families=tuple(args.families))
    elif which == "identities":
        report = verify.run_identity_suite(args.which, args.trials, args.seed)
    elif which == "biorthogonality":
        report = verify.run_biorthogonality(args.seed, args.n_max)
    elif which == "recurrence":
        report = verify.run_closed_vs_oracle(args.sweep, args.seed,
                                             families=tuple(args.families),
                                             checks=("recurrence",))
    elif which == "integrals":
        report = verify.run_integral_suite(args.seed, nodes=args.nodes,
                                           precision=args.precision)
    elif which == "rodrigues":
        report = verify.run_representation_equalities(args.seed, args.n_max)
    else:
        raise MopolyError(f"unknown verification suite {which!r}")
    return _emit(report, _summarize(report), report["passed"])


def _cmd_limits(args) -> int:
    edges = DISCRETE_EDGES + CONTINUOUS_EDGES
    wanted = args.edges.split(",") if args.edges else edges
    if unknown := [e for e in wanted if e not in edges]:
        raise MopolyError(f"unknown edge(s) {', '.join(unknown)}; valid edges: {', '.join(edges)}")
    report = verify.run_limit_suite(args.seed, hermite_tol=args.hermite_tol)
    report["edges"] = {k: v for k, v in report["edges"].items() if k in wanted}
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("edge,check,schedule_value,error\n")
            for edge, checks in sorted(report["edges"].items()):
                for check, data in sorted(checks.items()):
                    for t, err in zip(data["schedule"], data["errors"]):
                        fh.write(f"{edge},{check},{t},{err!r}\n")
    return _emit(report, _summarize(report), report["passed"])


def _cmd_moments(args) -> int:
    params = _build_params(args)
    table = normalized_moments(params, args.i, args.jmax)
    payload = {"family": params.family, "i": args.i,
               "moments": [rat_to_str(m) for m in table.moments]}
    passed = True
    if args.validate:
        if params.finite_support:
            raise MopolyError("float validation targets the infinite-support families")
        errors = validate_closed_form(params, args.i, args.jmax)
        payload["validation"] = {"rel_errors": errors, "tolerance": 1e-20,
                                 "passed": max(errors) < 1e-20}
        passed = payload["validation"]["passed"]
    return _emit(payload, f"moments {params.family} i={args.i} jmax={args.jmax}", passed)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``config`` maps flag names to defaults (flags still win).

    String defaults go through each flag's ``type`` when argparse applies
    them, so a bad value in a config file is a usage error.
    """
    parser = argparse.ArgumentParser(
        prog="mopoly",
        description="discrete multiple orthogonal polynomials: evaluation and "
                    "exact-oracle verification")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--precision", choices=("double", "extended"),
                        default=os.environ.get("MOPOLY_PRECISION", "double"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate closed forms", parents=[shared])
    p_eval.add_argument("what", choices=("type2", "type1", "linear-form"))
    _add_family_flags(p_eval)
    p_eval.add_argument("--n", type=_int_list)
    p_eval.add_argument("--i", type=int, default=1)
    p_eval.add_argument("--x", type=int, default=0)
    p_eval.add_argument("--representation", default="coefficient_sum",
                        choices=("coefficient_sum", "weighted_pfq"))
    p_eval.set_defaults(fn=_cmd_eval)

    p_recur = sub.add_parser("recur", help="nearest-neighbor recurrence coefficients",
                             parents=[shared])
    _add_family_flags(p_recur)
    p_recur.add_argument("--n", type=_int_list)
    p_recur.add_argument("--perm", type=_int_list)
    p_recur.set_defaults(fn=_cmd_recur)

    p_verify = sub.add_parser("verify", help="verification suites", parents=[shared])
    p_verify.add_argument("suite", choices=("closed-vs-oracle", "identities",
                                            "biorthogonality", "recurrence",
                                            "integrals", "rodrigues"))
    p_verify.add_argument("--sweep", choices=tuple(verify.SWEEPS), default="standard")
    p_verify.add_argument("--families", nargs="*", default=list(FAMILY_NAMES))
    p_verify.add_argument("--which", default="all")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--n-max", type=int, default=4)
    p_verify.add_argument("--nodes", type=int, default=256)
    p_verify.set_defaults(fn=_cmd_verify)

    p_limits = sub.add_parser("limits", help="Askey-scheme limit convergence reports",
                              parents=[shared])
    p_limits.add_argument("--edges", help="comma-separated edge filter")
    p_limits.add_argument("--hermite-tol", type=float, default=1e-6)
    p_limits.add_argument("--csv", help="also write (schedule value, error) rows to this file")
    p_limits.set_defaults(fn=_cmd_limits)

    p_m = sub.add_parser("moments", help="normalized power moments", parents=[shared])
    _add_family_flags(p_m)
    p_m.add_argument("--i", type=int, default=1)
    p_m.add_argument("--jmax", type=int, default=10)
    p_m.add_argument("--validate", action="store_true",
                     help="check closed forms against a truncated direct sum")
    p_m.set_defaults(fn=_cmd_moments)
    defaults = {key.replace("-", "_"): value for key, value in (config or {}).items()}
    for subparser in (p_eval, p_recur, p_verify, p_limits, p_m):
        subparser.set_defaults(**defaults)
    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, config = _split_config(argv)
        args = build_parser(config).parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    except (OSError, json.JSONDecodeError, MopolyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    try:
        return args.fn(args)
    except (MopolyError, ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


def _split_config(argv: list):
    """Take --config FILE (a JSON object of flag defaults) out of argv."""
    if "--config" not in argv:
        return argv, None
    at = argv.index("--config")
    try:
        path = argv[at + 1]
    except IndexError:
        raise MopolyError("--config needs a file path") from None
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise MopolyError("config file must hold a JSON object of flag defaults")
    return argv[:at] + argv[at + 2:], config


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
