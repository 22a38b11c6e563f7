import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from mopoly import cli
from mopoly.errors import ParameterError
from mopoly.families.params import Charlier, Kravchuk
from mopoly.oracle.moments import normalized_moments

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "schemas"
# the child imports mopoly from this checkout, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "mopoly.cli", *argv],
                          capture_output=True, text=True, env=CHILD_ENV)
    return proc


def load_schema(name):
    with open(SCHEMAS / name) as fh:
        return json.load(fh)


def test_recur_example():
    proc = run_cli("recur", "--family", "charlier", "--a", "2", "--n", "3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == {"b0": ["5/1"], "b": ["6/1"]}
    jsonschema.validate(payload, load_schema("recur.schema.json"))


def test_eval_type2_example():
    proc = run_cli("eval", "type2", "--family", "charlier", "--a", "2", "--n", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["coeffs"] == ["-2/1", "1/1"]
    jsonschema.validate(payload, load_schema("eval.schema.json"))


def test_eval_type1_and_linear_form_schemas():
    proc = run_cli("eval", "type1", "--family", "meixner1", "--beta", "1",
                   "--c", "1/2", "--n", "1")
    assert proc.returncode == 0
    jsonschema.validate(json.loads(proc.stdout), load_schema("eval.schema.json"))
    proc = run_cli("eval", "linear-form", "--family", "charlier", "--a", "2",
                   "--n", "1", "--x", "0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("eval.schema.json"))
    assert isinstance(payload["value"], float)


def test_params_json_input_and_schema():
    blob = json.dumps({"family": "hahn", "alpha": ["1/2", "5/7"], "beta": "1/3", "N": 12})
    jsonschema.validate(json.loads(blob), load_schema("family.schema.json"))
    proc = run_cli("eval", "type2", "--params-json", blob, "--n", "1,1")
    assert proc.returncode == 0


def test_identity_suite_exit_code_and_schema():
    proc = run_cli("verify", "identities", "--which", "gauss", "--trials", "30",
                   "--seed", "7")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("verify.schema.json"))
    assert payload["passed"] is True
    assert "PASS" in proc.stderr


def test_byte_identical_output():
    argv = ("verify", "identities", "--which", "chu_vandermonde", "--trials", "25",
            "--seed", "3")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_moments_schema_and_validation():
    proc = run_cli("moments", "--family", "charlier", "--a", "3", "--i", "1",
                   "--jmax", "4")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("moments.schema.json"))
    assert payload["moments"][2] == "12/1"      # a^2 + a at a = 3
    proc = run_cli("moments", "--family", "meixner2", "--beta", "1/2", "--c", "1/3",
                   "--jmax", "3", "--validate")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["validation"]["passed"] is True


@pytest.mark.parametrize("i", [0, -1, 3])
@pytest.mark.parametrize("family", [
    ["--family", "charlier", "--a", "2,3"],
    ["--family", "hahn", "--alpha", "1/2,5/7", "--beta", "1/3", "--N", "9"],
], ids=["charlier", "hahn"])
def test_moments_rejects_component_out_of_range(family, i, capsys):
    # p = 2 in both families: 0, -1 and p + 1 name no weight component
    assert cli.run(["moments", *family, "--i", str(i), "--jmax", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "outside 1..2" in err


@pytest.mark.parametrize("jmax", [-1, 501])
def test_moments_rejects_jmax_out_of_range(jmax, capsys):
    argv = ["moments", "--family", "charlier", "--a", "2", "--jmax", str(jmax)]
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "outside 0..500" in err
    with pytest.raises(ParameterError):
        normalized_moments(Charlier((2,)), 1, jmax)


def test_moments_accepts_jmax_at_the_bound(capsys):
    # Kravchuk with N = 2: mu_500 is a three-term power sum to compare against
    params = Kravchuk((F(1, 3),), 2)
    table = normalized_moments(params, 1, 500)
    assert table[500] == sum(F(x) ** 500 * params.weight(1, x) for x in range(3))
    assert cli.run(["moments", "--help"]) == 0
    assert "0..500" in capsys.readouterr().out


def test_invalid_input_exit_codes():
    proc = run_cli("eval", "type2", "--family", "hahn", "--alpha", "1/2,5/2",
                   "--beta", "1/3", "--N", "9", "--n", "1,1")
    assert proc.returncode == 2          # AT violation: integer alpha difference
    proc = run_cli("eval", "type2", "--n", "1")
    assert proc.returncode == 2          # no family given
    proc = run_cli("recur", "--family", "charlier", "--a", "2", "--n", "oops")
    assert proc.returncode == 2


def test_limits_subcommand_small():
    proc = run_cli("limits", "--edges", "k_c")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("verify.schema.json"))
    assert set(payload["edges"]) == {"k_c"}


def test_limits_edges_runs_only_the_selection(monkeypatch, capsys):
    from mopoly import verify
    calls = []
    real = verify.limit_edge

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "limit_edge", counted)
    assert cli.run(["limits", "--edges", "k_c"]) == 0
    assert calls == ["weight", "type2", "recurrence"]
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["edges"]) == {"k_c"}
    assert "hermite_routes" not in payload and "gamma_asymptotics" not in payload


def test_exact_commands_load_no_float_library():
    script = "\n".join([
        "import sys",
        "from mopoly import cli",
        "flags = ['--family', 'charlier', '--a', '2,5/3']",
        "for argv in (['eval', 'type2', *flags, '--n', '2,1'],",
        "             ['recur', *flags, '--n', '2,1'],",
        "             ['moments', *flags, '--i', '2', '--jmax', '6']):",
        "    assert cli.run(argv) == 0",
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_limits_rejects_unknown_edge(capsys):
    assert cli.run(["limits", "--edges", "k_c,bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "bogus" in err and "h_m2" in err and "l2_hermite" in err


def test_config_file_defaults(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "charlier", "a": "2", "n": "3"}))
    proc = run_cli("recur", "--config", str(cfg))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"b0": ["5/1"], "b": ["6/1"]}
    # explicit flags win over config defaults
    proc = run_cli("recur", "--config", str(cfg), "--n", "2")
    assert json.loads(proc.stdout) == {"b0": ["4/1"], "b": ["4/1"]}
    proc = run_cli("recur", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    # config values go through the flag's type: a bad one is a usage error
    cfg.write_text(json.dumps({"family": "charlier", "a": "2", "n": "oops"}))
    proc = run_cli("recur", "--config", str(cfg))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    # the config file, not the environment, sets the precision default
    cfg.write_text(json.dumps({"precision": "extended"}))
    argv, config = cli._split_config(["verify", "integrals", "--config", str(cfg)])
    assert cli.build_parser(config).parse_args(argv).precision == "extended"
    monkeypatch.setenv("MOPOLY_PRECISION", "extended")
    assert cli.build_parser().parse_args(["verify", "integrals"]).precision == "double"


@pytest.mark.parametrize("argv", [
    ["verify", "identities", "--trials", "0"],
    ["verify", "identities", "--trials", "-3"],
    ["verify", "biorthogonality", "--n-max", "0"],
    ["verify", "biorthogonality", "--n-max", "-1"],
    ["verify", "rodrigues", "--n-max", "0"],
    ["verify", "closed-vs-oracle", "--families"],
    ["verify", "recurrence", "--families"],
], ids=["trials-0", "trials-neg", "n-max-0", "n-max-neg", "rodrigues-n-max-0", "no-families",
        "recurrence-no-families"])
def test_verify_rejects_empty_sweeps(argv, capsys):
    # a sweep that would check nothing is invalid input, not a pass
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "at least 1" in err or "family list is empty" in err


def test_run_leaves_environment_unchanged(capsys):
    before = dict(os.environ)
    assert cli.run(["recur", "--family", "charlier", "--a", "2", "--n", "3"]) == 0
    assert cli.run(["recur", "--family", "charlier", "--a", "2", "--n", "3",
                    "--precision", "extended"]) == 0
    assert dict(os.environ) == before


def test_missing_family_flag_is_named(capsys):
    argv = ["eval", "type2", "--family", "hahn", "--alpha", "1/2", "--N", "4", "--n", "1"]
    with pytest.raises(ParameterError, match="--beta"):
        cli._build_params(cli.build_parser().parse_args(argv))
    assert cli.run(argv) == 2
    assert "missing --beta for family 'hahn'" in capsys.readouterr().err


def test_scalar_flag_rejects_several_values(capsys):
    argv = ["eval", "type2", "--family", "hahn", "--alpha", "1/2", "--beta", "1/3,1/2",
            "--N", "4", "--n", "1"]
    assert cli.run(argv) == 2
    assert "beta takes one value for family 'hahn'" in capsys.readouterr().err
    argv = ["recur", "--family", "meixner2", "--beta", "1/2,4/3", "--c", "1/3,1/4",
            "--n", "1,1"]
    assert cli.run(argv) == 2
    assert "c takes one value for family 'meixner2'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, entries", [
    (["eval", "type2", "--family", "charlier", "--a", "2"], 1),
    (["eval", "type1", "--family", "charlier", "--a", "2"], 1),
    (["eval", "linear-form", "--family", "charlier", "--a", "2"], 1),
    (["recur", "--family", "charlier", "--a", "2"], 1),
    (["recur", "--family", "charlier", "--a", "2,7/2"], 2),
], ids=["type2", "type1", "linear-form", "recur", "recur-p2"])
def test_n_is_bounded(argv, entries, capsys):
    # |n| counts every entry: the bound and one past it, split over the entries
    def n_of(size):
        return ",".join(str(size // entries + (i < size % entries)) for i in range(entries))

    at = cli.MAX_N_SIZE
    assert cli.run([*argv, "--n", n_of(at)]) == 0
    assert capsys.readouterr().out
    assert cli.run([*argv, "--n", n_of(at + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"|n| = {at + 1} is above {at}" in err


def test_nodes_are_bounded(monkeypatch, capsys):
    from mopoly import verify
    seen = []

    def suite(seed, nodes, precision):
        seen.append(nodes)
        return {"check": "integrals", "passed": True}

    monkeypatch.setattr(verify, "run_integral_suite", suite)
    assert cli.run(["verify", "integrals", "--nodes", str(cli.MAX_NODES)]) == 0
    assert seen == [cli.MAX_NODES] and capsys.readouterr().out
    for nodes in (cli.MAX_NODES + 1, 2 * cli.MAX_NODES):
        assert cli.run(["verify", "integrals", "--nodes", str(nodes)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"--nodes {nodes} is above {cli.MAX_NODES}" in err
    assert seen == [cli.MAX_NODES]
    assert cli.run(["verify", "--help"]) == 0
    assert f"16..{cli.MAX_NODES}" in capsys.readouterr().out


def test_rodrigues_n_max_bounds_every_p(monkeypatch, capsys):
    from mopoly import verify
    sizes = []
    real = verify.draw_params

    def recording(rng, family, p, size, *args):
        sizes.append(size)
        return real(rng, family, p, size, *args)

    monkeypatch.setattr(verify, "draw_params", recording)
    assert cli.run(["verify", "rodrigues", "--n-max", "1"]) == 0
    assert sizes and max(sizes) == 1
    assert json.loads(capsys.readouterr().out)["results"]["rodrigues"]["checked"] == 18


def test_rodrigues_default_report_is_pinned(capsys):
    # the default --n-max 4 sweeps p = 3 to |n| <= 3, as before the bound
    # honoured --n-max below 3
    import hashlib
    assert cli.run(["verify", "rodrigues"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "7933d007ff59135f8e52b50eb4136a94f355201f32b837f24166e86d4bea79a3"
