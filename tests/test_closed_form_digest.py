"""A pinned digest of the closed forms over a fixed parameter grid.

The grid covers all five families, p = 1..3 and every |n| <= 5 at one seeded
draw per (family, p), plus one |n| = 12 cell per (family, p).  For each cell
it serializes the type II polynomial, every type I component (prefactor token
and rational part), the alternative first-kind Meixner type I form and the
recurrence coefficients for the identity and the reversed permutation.  Any
change to how the closed forms are summed must leave every serialized value,
and so the digest, unchanged.
"""

import hashlib
import json
import random

from mopoly.exact import MultiIndex, Permutation, multi_indices
from mopoly.families import nnrc, type1, type2
from mopoly.families.closed_forms import type1_meixner1_alt
from mopoly.sampling import draw_params

FAMILIES = ("hahn", "meixner2", "meixner1", "kravchuk", "charlier")
LARGE_CELL = {1: (12,), 2: (7, 5), 3: (5, 4, 3)}
GOLDEN = "7d1399ec2c86ee645053f7847702727304585e0c2c244b6a7649cd1edcfc90ea"


def _token(tok):
    return [tok.kind, *(str(v) for v in (tok.base, tok.exponent, tok.index, tok.c))]


def _type1(a):
    return [_token(a.prefactor), [str(c) for c in a.rational_part.coeffs]]


def _records():
    rng = random.Random(2024)
    for family in FAMILIES:
        for p in (1, 2, 3):
            params = draw_params(rng, family, p, 12)
            perms = [Permutation.identity(p), Permutation.of(tuple(range(p, 0, -1)))]
            cells = list(multi_indices(p, 5)) + [MultiIndex.of(LARGE_CELL[p])]
            for n in cells:
                rec = {"params": params.to_json(), "n": list(n.entries),
                       "type2": [str(c) for c in type2(params, n).coeffs],
                       "type1": [_type1(type1(params, n, i)) for i in range(1, p + 1)],
                       "nnrc": [[[str(v) for v in c.b0], [str(v) for v in c.bj]]
                                for c in (nnrc(params, n, perm) for perm in perms)]}
                if family == "meixner1":
                    rec["type1_alt"] = [_type1(type1_meixner1_alt(params, n, i))
                                        for i in range(1, p + 1)]
                yield rec


def closed_form_digest() -> str:
    h = hashlib.sha256()
    for rec in _records():
        h.update(json.dumps(rec, sort_keys=True).encode())
    return h.hexdigest()


def test_closed_form_digest_is_pinned():
    assert closed_form_digest() == GOLDEN
