"""The path elimination: one fraction-free LU of the moment matrix per step-line.

``PathElimination`` is checked against ``solve_exact`` on random rational
matrices, and ``OracleContext._path`` against the per-index solves: every B
and A_hat it fills must equal a fresh ``type2`` / ``type1`` exactly, and where
it does not run (an invalid shift, a singular or non-normal path) the oracle
must behave as with no path route at all.
"""

import random
from fractions import Fraction as F

import pytest

from mopoly.errors import MopolyError, SingularSystemError
from mopoly.exact import MultiIndex, Permutation, all_permutations, multi_indices
from mopoly.families import Charlier, Hahn, Kravchuk
from mopoly.families.params import FAMILY_NAMES
from mopoly.oracle import OracleContext, oracle_nnrc, solve_exact
from mopoly.oracle.linsolve import PathElimination
from mopoly.sampling import SWEEPS, draw_params


def _rat(rng):
    return F(rng.randrange(-9, 10), rng.randrange(1, 8))


def test_path_elimination_solves_every_leading_block():
    rng = random.Random(83)
    checked = 0
    for size in (1, 2, 3, 5, 7):
        for _ in range(8):
            g = [[_rat(rng) for _ in range(size)] for _ in range(size + 1)]
            try:
                path = PathElimination(g)
            except SingularSystemError:
                continue
            for r in range(1, size + 1):
                e = [F(0)] * (r - 1) + [F(1)]
                assert path.solve_leading(r) == solve_exact([row[:r] for row in g[:r]], e)
                # the left null vector of G[:r+1, :r], with last entry 1
                lam = path.left_null(r)
                assert lam[-1] == 1 and len(lam) == r + 1
                assert all(sum(lam[j] * g[j][c] for j in range(r + 1)) == 0 for c in range(r))
            column = [_rat(rng) for _ in range(size + 1)]
            bordered = [row + [v] for row, v in zip(g, column)]
            try:
                want = solve_exact(bordered, [F(0)] * size + [F(1)])
            except SingularSystemError:
                with pytest.raises(SingularSystemError):
                    path.solve_bordered(column)
                continue
            got = path.solve_bordered(column)
            assert got == want and all(isinstance(v, F) for v in got)
            checked += 1
    assert checked >= 30


def test_path_elimination_needs_nonzero_leading_pivots():
    # solve_exact swaps rows; the path elimination does not and refuses
    g = [[0, 1], [1, 0], [2, 3]]
    assert solve_exact([row for row in g[:2]], [0, 1]) == [1, 0]
    with pytest.raises(SingularSystemError):
        PathElimination(g)
    with pytest.raises(SingularSystemError):   # a zero last pivot of the bordered block
        PathElimination([[1], [2]]).solve_bordered([1, 2])
    assert PathElimination([[5]]).left_null(0) == [1]


def _check_fills(context, n, perm, fresh):
    """Run _path with no solve cached; every entry it fills must equal the per-index one.

    ``context`` keeps its moment tables between calls; ``fresh`` solves per index.
    """
    context._type2.clear()
    context._type1.clear()
    context._path(n, perm)
    params = context.params
    for key, poly in context._type2.items():
        assert poly == fresh.type2(key), (params, n, perm, key)
    for key, comps in context._type1.items():
        assert comps == fresh.type1(key), (params, n, perm, key)
    return len(context._type2) + len(context._type1)


def _standard_grid(seed):
    """The (family, draw, permutations) of the standard sweep at ``seed``.

    Follows ``verify.run_closed_vs_oracle``: one generator for the whole sweep;
    the identity, and (2, 1) at p = 2 or two others drawn at p = 3.
    """
    cfg = SWEEPS["standard"]
    rng = random.Random(seed)
    for family in FAMILY_NAMES:
        for p in cfg["p_values"]:
            perms = [Permutation.identity(p)]
            if p >= 3:
                pool = [q for q in all_permutations(p) if q.image != perms[0].image]
                perms += rng.sample(pool, 2)
            elif p == 2:
                perms.append(Permutation.of((2, 1)))
            for _ in range(cfg["draws"]):
                yield family, draw_params(rng, family, p, cfg["n_max"]), perms


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_path_fills_match_per_index_solves_on_the_standard_grid(family):
    filled = 0
    for fam, params, perms in _standard_grid(2026):
        if fam != family:
            continue
        context, fresh = OracleContext(params), OracleContext(params)
        for n in multi_indices(params.p, SWEEPS["standard"]["n_max"]):
            for perm in perms:
                filled += _check_fills(context, n, perm, fresh)
    assert filled > 10_000


@pytest.mark.parametrize("shape", [(12,), (6, 6), (4, 5, 5)])
def test_path_fills_match_per_index_solves_at_scale_shapes(shape):
    rng = random.Random(31)
    n = MultiIndex.of(shape)
    for family in FAMILY_NAMES:
        params = draw_params(rng, family, n.p, n.size + 1)
        context, fresh = OracleContext(params), OracleContext(params)
        for perm in all_permutations(n.p):
            assert _check_fills(context, n, perm, fresh) == 2 * n.p + 1


def test_path_runs_only_when_two_systems_are_missing():
    params = Charlier((F(3, 2), F(17, 7)))
    n, perm = MultiIndex.of((2, 3)), Permutation.of((2, 1))
    context = OracleContext(params)
    context._path(n, perm)
    # B_n, A_hat at n - s_1 and n, and both A_hat_{n+e_k}
    assert set(context._type2) == {(2, 3)}
    assert set(context._type1) == {(2, 2), (2, 3), (3, 3), (2, 4)}
    context = OracleContext(params)
    context.type2(n), context.type1((2, 2)), context.type1((2, 3)), context.type1((3, 3))
    context._path(n, perm)   # only A_hat_{n+e_2} is missing: a per-index solve is cheaper
    assert (2, 4) not in context._type1


def _outcome(params, n, perm, context):
    try:
        return oracle_nnrc(params, n, perm, context=context)
    except (MopolyError, ValueError) as exc:
        return type(exc), str(exc)


def _without_path(monkeypatch, params, n, perm):
    with monkeypatch.context() as patch:
        patch.setattr(OracleContext, "_path", lambda self, n, perm: None)
        return _outcome(params, n, perm, OracleContext(params))


def test_zero_entries_and_wrong_lengths_raise_the_same_errors(monkeypatch):
    params = Charlier((2, F(7, 2), F(9, 4)))
    for n in ((1, 0, 2), (0, 0, 3), (0, 0, 0), (2, 1, 0)):
        for perm in all_permutations(3):
            want = _without_path(monkeypatch, params, n, perm)
            assert _outcome(params, n, perm, OracleContext(params)) == want
    # one entry per weight and a permutation of 1..p, no fewer, no more
    for n, perm in (((2, 2), Permutation.identity(3)), ((2, 2, 2, 2), Permutation.identity(3)),
                    ((2, 2, 2), Permutation.identity(2)), ((2, 2, 2), Permutation.identity(4))):
        want = _without_path(monkeypatch, params, n, perm)
        assert _outcome(params, n, perm, OracleContext(params)) == want


def test_singular_paths_fall_back_to_the_per_index_solves(monkeypatch):
    # finite supports smaller than the systems: some path pivots vanish and
    # the per-index solves raise SingularSystemError, or succeed where the
    # needed systems are regular
    draws = [Kravchuk((F(1, 3),), 2), Kravchuk((F(1, 3), F(3, 5)), 3),
             Hahn((F(2, 7), F(8, 7)), F(1, 3), 3), Kravchuk((F(1, 5), F(1, 2), F(2, 3)), 2)]
    outcomes = set()
    for params in draws:
        for n in multi_indices(params.p, 5):
            for perm in all_permutations(params.p):
                want = _without_path(monkeypatch, params, n, perm)
                assert _outcome(params, n, perm, OracleContext(params)) == want
                outcomes.add(want[0] if isinstance(want, tuple) else "value")
    assert {"value", SingularSystemError} <= outcomes
