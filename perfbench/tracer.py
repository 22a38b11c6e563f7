"""Spans around the public functions of each mopoly layer, kept in memory.

The tracer wraps functions from outside the package: nothing under ``src/``
knows about it.  mopoly modules bind each other's functions with
``from ... import``, so ``install`` rebinds every module-level name in every
loaded ``mopoly`` module that refers to a wrapped function (for example
``verify.type2``, ``reconstruct.solve_exact`` and ``pochhammer`` in each
module that imports it).

A span is recorded for each call while the tracer is active: its id, the id
of the span that called it, the op it belongs to, its name, its start and
duration, and its self time (the duration minus the time its child spans
cover).  Hot leaf functions (``exact.pochhammer``, ``exact.poly_mul``) are
counted and timed like spans, and their time is subtracted from the caller's
self time, but they are not stored one by one: a sweep makes millions of
those calls.  Every count the tracer keeps (calls, distinct arguments,
largest solve dimension, largest bit length, exceptions raised) depends only
on the inputs, so it repeats exactly for one seed.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from fractions import Fraction

_clock = time.perf_counter


def _key_params_n(args, kwargs):
    return args[:2]


def _key_oracle_nnrc(args, kwargs):
    perm = args[2] if len(args) > 2 else kwargs.get("perm")
    return args[0], args[1], perm


def _key_type2(args, kwargs):
    rep = args[2] if len(args) > 2 else kwargs.get("representation")
    return args[0], args[1], rep


def _key_moments(args, kwargs):
    return args[:3]


def _key_solve(args, kwargs):
    matrix, rhs = args[:2]
    return tuple(tuple(row) for row in matrix), tuple(rhs)


def _precision_suffix(args, kwargs):
    mode = kwargs.get("precision") or (args[3] if len(args) > 3 else None)
    return mode or os.environ.get("MOPOLY_PRECISION", "double")


# (metric prefix, module, attribute, distinct-key function, leaf)
FUNCTIONS = (
    ("oracle.oracle_nnrc", "mopoly.oracle.reconstruct", "oracle_nnrc", _key_oracle_nnrc, False),
    ("oracle.oracle_type2", "mopoly.oracle.reconstruct", "oracle_type2", _key_params_n, False),
    ("oracle.oracle_type1", "mopoly.oracle.reconstruct", "oracle_type1", _key_params_n, False),
    ("oracle.solve_exact", "mopoly.oracle.linsolve", "solve_exact", _key_solve, False),
    ("oracle.normalized_moments", "mopoly.oracle.moments", "normalized_moments", _key_moments, False),
    ("families.type2", "mopoly.families.closed_forms", "type2", _key_type2, False),
    ("families.type1", "mopoly.families.closed_forms", "type1", None, False),
    ("families.nnrc", "mopoly.families.recurrence", "nnrc", None, False),
    ("exact.pochhammer", "mopoly.exact.combinatorics", "pochhammer", None, True),
    ("verify.run_closed_vs_oracle", "mopoly.verify", "run_closed_vs_oracle", None, False),
    ("analytic.contour_quadrature", "mopoly.analytic.integrals", "contour_quadrature", None, False),
    ("analytic.integral_representation", "mopoly.analytic.integrals", "integral_representation",
     None, False),
    ("analytic.closed_form_value", "mopoly.analytic.integrals", "closed_form_value", None, False),
    ("cli.run", "mopoly.cli", "run", None, False),
)
# contour_quadrature is reported per precision mode, so a change to the
# double path shows apart from the extended one
SUFFIX = {"analytic.contour_quadrature": _precision_suffix}
# the recurrence-identity residual is only counted: its time stays in the
# self time of verify.run_closed_vs_oracle
COUNTED = (("verify.recurrence_residual", "mopoly.verify", "_recurrence_identity_cached"),)


def max_bits(value) -> int:
    """Largest numerator or denominator bit length in an exact result."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int) and not isinstance(value, bool):
        return value.bit_length()
    if isinstance(value, (list, tuple)):
        return max((max_bits(v) for v in value), default=0)
    for attr in ("coeffs", "moments", "rational_part"):
        if hasattr(value, attr):
            return max_bits(getattr(value, attr))
    if hasattr(value, "b0") and hasattr(value, "bj"):
        return max(max_bits(value.b0), max_bits(value.bj))
    return 0


class _Frame:
    __slots__ = ("span_id", "name", "start", "child")

    def __init__(self, span_id, name, start):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Records spans and counts for the wrapped functions while active."""

    def __init__(self):
        self.active = False
        self.op_id = None
        self.spans = []          # (id, parent id, op id, name, start, duration, self)
        self.leaf_calls = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.counts = defaultdict(int)   # COUNTED names
        self.raised = defaultdict(int)
        self.keys = defaultdict(set)
        self.caller_keys = defaultdict(set)   # (name, calling name) -> keys
        self.max_dim = 0
        self.max_bits = 0
        self._stack = []
        self._next_id = 0
        self._originals = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function and rebind it wherever it was imported."""
        for name, module, attr, key, leaf in FUNCTIONS:
            mod = importlib.import_module(module)
            self._rebind(getattr(mod, attr), self._wrap(name, getattr(mod, attr), key, leaf))
        for name, module, attr in COUNTED:
            mod = importlib.import_module(module)
            if hasattr(mod, attr):
                self._rebind(getattr(mod, attr), self._counter(name, getattr(mod, attr)))
        from mopoly.exact.polynomials import Poly
        mul = Poly.__mul__
        wrapped = self._wrap("exact.poly_mul", mul, None, True)
        self._originals.append((Poly, "__mul__", mul))
        self._originals.append((Poly, "__rmul__", Poly.__rmul__))
        Poly.__mul__ = Poly.__rmul__ = wrapped

    def uninstall(self):
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mopoly" or mod_name.startswith("mopoly.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._originals.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name, fn, key, leaf):
        suffix = SUFFIX.get(name)
        is_solve = name == "oracle.solve_exact"
        exact_result = name.startswith(("oracle.", "families.")) or name == "exact.pochhammer"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = f"{name}.{suffix(args, kwargs)}" if suffix else name
            stack = self._stack
            if key is not None:
                k = key(args, kwargs)
                self.keys[span_name].add(k)
                self.caller_keys[span_name, stack[-1].name if stack else None].add(k)
            if is_solve:
                self.max_dim = max(self.max_dim, len(args[0]))
            start = _clock()
            if leaf:
                frame = None
            else:
                self._next_id += 1
                frame = _Frame(self._next_id, span_name, start)
                stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[span_name] += 1
                raise
            finally:
                end = _clock()
                duration = end - start
                if leaf:
                    self.leaf_calls[span_name] += 1
                    self.leaf_s[span_name] += duration
                else:
                    stack.pop()
                    parent = stack[-1].span_id if stack else None
                    self.spans.append((frame.span_id, parent, self.op_id, span_name,
                                       start, duration, duration - frame.child))
                if stack:
                    stack[-1].child += duration
            if exact_result:
                self.max_bits = max(self.max_bits, max_bits(result))
            return result
        return traced

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, busy time, self time, distinct ratio and raises."""
        out = {}
        names = {s[3] for s in self.spans}
        by_id = {s[0]: s for s in self.spans}
        for name in names:
            out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        for span in self.spans:
            rec = out[span[3]]
            rec["calls"] += 1
            rec["self_s"] += span[6]
            if not _nested_in_same(span, by_id):
                rec["s"] += span[5]
        for name, calls in self.leaf_calls.items():
            out[name] = {"calls": calls, "s": self.leaf_s[name], "self_s": self.leaf_s[name]}
        for name, rec in out.items():
            if name in self.keys and rec["calls"]:
                rec["distinct_ratio"] = len(self.keys[name]) / rec["calls"]
            rec["raised"] = self.raised.get(name, 0)
        for name, calls in self.counts.items():
            out[name] = {"calls": calls}
        return out

    def callers(self) -> dict:
        """Calls and distinct arguments of each name, split by the calling name."""
        by_id = {s[0]: s for s in self.spans}
        calls = defaultdict(int)
        for span in self.spans:
            parent = by_id.get(span[1])
            calls[span[3], parent[3] if parent else None] += 1
        out = defaultdict(dict)
        for (name, caller), n in sorted(calls.items(), key=str):
            rec = {"calls": n}
            if (name, caller) in self.caller_keys:
                rec["distinct"] = len(self.caller_keys[name, caller])
            out[name][str(caller)] = rec
        return dict(out)


def _nested_in_same(span, by_id) -> bool:
    """True if an ancestor span has the same name (recursion is counted once)."""
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[3] == span[3]:
            return True
        parent = by_id.get(parent[1])
    return False
