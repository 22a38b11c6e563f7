import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mopoly import cli
from mopoly.errors import ParameterError

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


def test_limits_rejects_unknown_edge(capsys):
    assert cli.run(["limits", "--edges", "k_c,bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "bogus" in err and "h_m2" in err and "l2_hermite" in err


def test_config_file_defaults(tmp_path):
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
