"""A pinned digest of the exact CLI commands for every family.

Each case runs ``cli.run`` in-process and records its argv, exit code and
stdout.  The cases cover, for all five families: ``eval type2``, ``eval
type1`` for every component, ``eval linear-form``, ``recur`` under two
permutations and ``moments``; the weighted-pFq type II representation of
Hahn and second-kind Meixner; and one ``--params-json`` input.  Any change to
how a family's formulas are organized must leave every byte unchanged.
"""

import hashlib
import json

from mopoly import cli

FAMILY_FLAGS = {
    "hahn": ["--family", "hahn", "--alpha", "1/2,4/3", "--beta", "1/4", "--N", "6"],
    "meixner2": ["--family", "meixner2", "--beta", "1/2,4/3", "--c", "1/3"],
    "meixner1": ["--family", "meixner1", "--beta", "3/2", "--c", "1/3,1/2"],
    "kravchuk": ["--family", "kravchuk", "--pi", "1/3,1/4", "--N", "5"],
    "charlier": ["--family", "charlier", "--a", "2,5/3"],
}
N = ["--n", "2,1"]
GOLDEN = "2d11e3e166f3d4d3eac23b8ae455bca2e163c5d12bb4863b07bece932af64c03"


def _cases():
    for family, flags in FAMILY_FLAGS.items():
        yield ["eval", "type2", *flags, *N]
        for i in ("1", "2"):
            yield ["eval", "type1", *flags, *N, "--i", i]
        yield ["eval", "linear-form", *flags, *N, "--x", "1"]
        for perm in ("1,2", "2,1"):
            yield ["recur", *flags, *N, "--perm", perm]
        yield ["moments", *flags, "--i", "2", "--jmax", "6"]
    for family in ("hahn", "meixner2"):
        yield ["eval", "type2", *FAMILY_FLAGS[family], *N,
               "--representation", "weighted_pfq"]
    blob = json.dumps({"family": "meixner1", "beta": "2/3", "c": ["1/5", "3/4", "1/2"]})
    yield ["eval", "type1", "--params-json", blob, "--n", "1,2,1", "--i", "2"]


def test_cli_outputs_are_pinned(capsys):
    h = hashlib.sha256()
    for argv in _cases():
        code = cli.run(argv)
        out = capsys.readouterr().out
        assert code == 0, (argv, out)
        h.update(json.dumps([argv, code, out]).encode())
    assert h.hexdigest() == GOLDEN
