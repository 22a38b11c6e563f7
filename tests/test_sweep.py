"""The closed-vs-oracle sweep: a pinned report and injected recurrence faults."""

import hashlib
import json

import pytest

from mopoly import verify
from mopoly.exact import MultiIndex, Poly
from mopoly.families.recurrence import RecurrenceCoefficients

# sha256 of the sorted-keys JSON report of the small sweep; caching and
# evaluation strategies inside the sweep must leave every report byte-identical
GOLDEN_SMALL = {
    0: "2ce429ed5862e7ae41754439dfc95e16f7c93a3ba0dfeb8e5a1ff6e947366d35",
    1: "ea1d13d2d28a0aa851059d0aef7a5a6a2e741dc061490c2266abdc1bf2572abb",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SMALL))
def test_small_sweep_report_is_pinned(seed):
    report = verify.run_closed_vs_oracle("small", seed)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_SMALL[seed]


def _identity_mismatches(report):
    return [(m["n"], m["k"]) for m in report["families"]["charlier"]["mismatches"]
            if m["check"] == "recurrence_identity"]


def _sweep_with_nnrc(monkeypatch, perturb):
    real = verify.nnrc

    def patched(params, n, perm=None):
        coeffs = real(params, n, perm)
        if n.entries != (1,):
            return coeffs
        b0, bj = perturb(list(coeffs.b0), list(coeffs.bj))
        return RecurrenceCoefficients(tuple(b0), tuple(bj), coeffs.permutation)

    monkeypatch.setattr(verify, "nnrc", patched)
    return verify.run_closed_vs_oracle("small", 0, families=("charlier",),
                                       checks=("recurrence",))


def test_sweep_reports_perturbed_b0(monkeypatch):
    report = _sweep_with_nnrc(monkeypatch, lambda b0, bj: ([b0[0] + 1], bj))
    assert _identity_mismatches(report) == [([1], 1)] * 4   # one per draw


def test_sweep_reports_perturbed_bj(monkeypatch):
    report = _sweep_with_nnrc(monkeypatch, lambda b0, bj: (b0, [bj[0] + 1]))
    assert _identity_mismatches(report) == [([1], 1)] * 4


def test_sweep_reports_padded_shifted_type2(monkeypatch):
    # B_(2) gains x(x-1)(x-2), a spurious x^{|n|+2} term for n = (1,) that
    # vanishes at the |n|+2 nodes 0, 1, 2: only the node count taken from the
    # actual coefficient lengths (4 here) sees it
    real = verify.type2
    pad = Poly([0, 1]) * Poly([-1, 1]) * Poly([-2, 1])

    def patched(params, n, representation="coefficient_sum"):
        b = real(params, n, representation)
        return b + pad if MultiIndex.of(n).entries == (2,) else b

    monkeypatch.setattr(verify, "type2", patched)
    report = verify.run_closed_vs_oracle("small", 0, families=("charlier",),
                                         checks=("recurrence",))
    assert ([1], 1) in _identity_mismatches(report)
