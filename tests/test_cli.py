"""End-to-end CLI runs, in process."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathnorm import cli
from pathnorm.activations import catalog, relu, sigmoid, swish, tanh
from pathnorm.bounds import rad_bound_relu
from pathnorm.rng import make_rng
from pathnorm.serialize import load_model, save_model
from pathnorm.resnet import ResNet
from pathnorm.twolayer import TwoLayerNet, modified_path_norm, path_norm


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


@pytest.fixture
def two_layer_file(tmp_path):
    rng = make_rng(7)
    net = TwoLayerNet(
        0.5 * rng.normal(size=4), rng.normal(size=(4, 3)), rng.normal(size=4), sigmoid()
    )
    path = tmp_path / "two.json"
    save_model(net, path)
    return str(path), net


@pytest.fixture
def resnet_file(tmp_path):
    net = ResNet([[2.0, 1.0]], ([[3.0]],), ([[1.0]],), [1.0], sigmoid(), 2.0)
    path = tmp_path / "res.json"
    save_model(net, path)
    return str(path), net


def test_gamma_table_csv(capsys):
    code, out, _ = run(capsys, "gamma-table")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["activation", "gamma0", "linear_term", "gamma", "closed_form", "abs_error"]
    assert len(rows) == 8
    for row in rows:
        assert float(row[-1]) <= 1e-3


def test_gamma_table_only_json(capsys):
    code, out, _ = run(capsys, "gamma-table", "--only", "relu", "--only", "tanh",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["activation"] for r in rows] == ["relu", "tanh"]
    assert rows[1]["closed_form"] == 5.0


def test_gamma_table_tolerance_gate(capsys):
    code, _, _ = run(capsys, "gamma-table", "--only", "sigmoid", "--tol", "1e-20")
    assert code == 1


def test_gamma_table_deterministic(capsys):
    _, first, _ = run(capsys, "gamma-table")
    _, second, _ = run(capsys, "gamma-table")
    assert first == second


def test_out_file_instead_of_stdout(capsys, tmp_path):
    dest = tmp_path / "table.csv"
    code, out, _ = run(capsys, "gamma-table", "--only", "relu", "--out", str(dest))
    assert code == 0
    assert out == ""
    header, rows = parse_csv(dest.read_text())
    assert rows[0][0] == "relu"


def test_approx_then_norm_round_trip(capsys, tmp_path):
    saved = tmp_path / "approx.json"
    code, out, _ = run(capsys, "approx-1d", "--activation", "sigmoid", "--eps", "0.01",
                       "--save-model", str(saved), "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["sup_error"] <= 0.01
    assert row["path_norm"] <= 1.51
    code, out, _ = run(capsys, "norm", "--model", str(saved), "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["path_norm"] == pytest.approx(row["path_norm"], rel=1e-12)


def test_norm_two_layer(capsys, two_layer_file):
    path, net = two_layer_file
    code, out, _ = run(capsys, "norm", "--model", path)
    assert code == 0
    header, rows = parse_csv(out)
    got = dict(zip(header, rows[0]))
    assert float(got["path_norm"]) == pytest.approx(path_norm(net), rel=1e-11)
    assert float(got["modified_path_norm"]) == pytest.approx(modified_path_norm(net), rel=1e-11)


def test_norm_resnet_cross_checks(capsys, resnet_file):
    path, _ = resnet_file
    code, out, _ = run(capsys, "norm", "--model", path, "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["closed"] == pytest.approx(row["recursive"], rel=1e-12)
    assert row["bruteforce"] == pytest.approx(row["closed"], rel=1e-12)
    assert row["closed_vs_recursive"] <= 1e-10


def test_rewrite_command(capsys, two_layer_file, tmp_path):
    path, net = two_layer_file
    saved = tmp_path / "relu.json"
    code, out, _ = run(capsys, "rewrite", "--model", path, "--eps", "0.01",
                       "--save-model", str(saved), "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["max_deviation"] <= row["deviation_bound"]
    assert row["path_norm"] <= row["norm_bound"]
    rewritten = load_model(str(saved))
    assert rewritten.activation.name == "relu"


def test_embed_command(capsys, two_layer_file):
    path, _ = two_layer_file
    code, out, _ = run(capsys, "embed", "--model", path, "--depth", "2", "--width", "2",
                       "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["max_eval_deviation"] <= 1e-10
    assert row["norm"] <= row["norm_bound"] * (1 + 1e-12)


def test_embed_tolerance_scales_with_the_net(capsys, tmp_path):
    # output weights near 1e8 leave a rounding deviation near 6e-8 that is
    # 2-3e-16 of the summed terms, so the guarantee holds
    rng = make_rng(7)
    path = tmp_path / "big.json"
    save_model(TwoLayerNet(1e8 * rng.normal(size=4), rng.normal(size=(4, 3)),
                           rng.normal(size=4), tanh()), path)
    code, out, _ = run(capsys, "embed", "--model", str(path), "--depth", "2", "--width", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["max_eval_deviation"] > 1e-10


@pytest.mark.parametrize("family", ["linear", "relu", "resnet"])
def test_rad_check_families(capsys, family):
    code, out, _ = run(capsys, "rad-check", "--family", family, "--d", "2", "--n", "32",
                       "--m", "3", "--depth", "2", "--res-dim", "3",
                       "--candidates", "12", "--sign-draws", "32", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["estimate"] <= row["bound"]


def test_rad_check_relu_bound_is_rad_bound_relu(capsys):
    code, out, _ = run(capsys, "rad-check", "--family", "relu", "--d", "3", "--n", "100",
                       "--budget", "1.5", "--candidates", "4", "--sign-draws", "8",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["bound"] == rad_bound_relu(1.5, 3, 100)


SRC = str(Path(__file__).resolve().parents[1] / "src")
NO_GAMMA_RUN = """
import math, sys
from pathnorm import activations, cli
from pathnorm.expressions import compile_expr
relu_two, swish_two, sigmoid_two, resnet = sys.argv[1:]
argvs = [["rad-check", "--family", "relu", "--candidates", "4", "--sign-draws", "8"],
         ["rad-check", "--family", "linear", "--candidates", "4", "--sign-draws", "8"],
         ["bounds", "--kind", "rad-relu", "--d", "4", "--n", "100", "--activation", "sigmoid"],
         ["train", "--target", sigmoid_two, "--n", "32", "--width", "4", "--activation", "sigmoid",
          "--steps", "5"],
         ["--help"]]
argvs += [["norm", "--model", path] for path in (relu_two, swish_two, resnet)]
for argv in argvs:
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
activations.catalog()
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
erf = compile_expr("erf(x)")
assert math.isclose(erf(0.5), math.erf(0.5), rel_tol=1e-15) and erf([0.0, 1.0]).shape == (2,)
"""


def test_commands_without_gamma_leave_optimize_and_integrate_unloaded(tmp_path, resnet_file,
                                                                    two_layer_file):
    # a fresh interpreter: this process has long since imported scipy
    rng = make_rng(5)
    models = []
    for act in (relu(), swish(1.5)):
        models.append(tmp_path / f"{act.name}.json")
        save_model(TwoLayerNet(rng.normal(size=3), rng.normal(size=(3, 2)), rng.normal(size=3),
                               act), models[-1])
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_GAMMA_RUN, *map(str, models),
                           two_layer_file[0], resnet_file[0]],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    # no scipy module for these commands; catalog() (gelu: scipy.special)
    # still loads no quadrature or root-finder
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


IMPORT_ALONE = "import importlib, sys; importlib.import_module(sys.argv[1])"


@pytest.mark.parametrize("module", ["pathnorm.relu1d", "pathnorm.twolayer"])
def test_module_imports_alone(module):
    # relu1d builds TwoLayerNets and twolayer.rewrite_to_relu calls relu1d:
    # a top-level import in both directions would break one order or both
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALONE, module],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_bounds_lambda_value(capsys):
    code, out, _ = run(capsys, "bounds", "--kind", "lambda-two-layer", "--d", "1",
                       "--n", "100", "--activation", "relu", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["value"] == pytest.approx(1.4320873778523162, rel=1e-12)


def test_bounds_rad_relu_reports_the_gamma_it_uses(capsys):
    code, out, _ = run(capsys, "bounds", "--kind", "rad-relu", "--d", "4", "--n", "100",
                       "--activation", "sigmoid", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert (row["gamma"], row["value"]) == (1.0, rad_bound_relu(1.0, 4, 100))


def test_bounds_posterior_value(capsys):
    code, out, _ = run(capsys, "bounds", "--kind", "posterior", "--q", "0", "--d", "1",
                       "--n", "100", "--delta", "0.1", "--activation", "relu",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["value"] == pytest.approx(1.7235833552533555, rel=1e-12)


def test_train_from_target(capsys, two_layer_file, tmp_path):
    path, _ = two_layer_file
    saved = tmp_path / "fit.json"
    code, out, _ = run(capsys, "train", "--target", path, "--n", "64", "--width", "8",
                       "--activation", "sigmoid", "--steps", "40", "--step-size", "0.1",
                       "--save-model", str(saved), "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["final_objective"] <= row["initial_objective"]
    assert load_model(str(saved)).width == 8


def test_train_from_csv(capsys, tmp_path):
    data = tmp_path / "data.csv"
    rng = make_rng(0)
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x0", "x1", "y"])
        for _ in range(32):
            x = rng.uniform(-1, 1, 2)
            w.writerow([f"{x[0]:.6f}", f"{x[1]:.6f}", f"{rng.uniform(0, 1):.6f}"])
    code, out, _ = run(capsys, "train", "--data", str(data), "--width", "4",
                       "--steps", "20", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["n"] == 32


def test_train_csv_header_error_names_the_line(capsys, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x0,z\n0.5,0.5\n")
    code, _, err = run(capsys, "train", "--data", str(data))
    assert code == 2
    assert err == "error: last data column must be named y (line 1)\n"


def test_train_needs_exactly_one_source(capsys, two_layer_file, tmp_path):
    path, _ = two_layer_file
    code, _, err = run(capsys, "train")
    assert code == 2
    code, _, err = run(capsys, "train", "--target", path, "--data", str(tmp_path / "x.csv"))
    assert code == 2


def test_apriori_quick(capsys):
    code, out, _ = run(capsys, "apriori", "--d", "2", "--n", "64", "--m", "8",
                       "--seeds", "2", "--steps", "40", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert all(r["ok"] for r in rows)


@pytest.mark.parametrize("act", [act.label for act in catalog()])
def test_apriori_default_target_fits_every_builtin(capsys, act):
    code, _, err = run(capsys, "apriori", "--activation", act, "--seeds", "1", "--steps", "2",
                       "--n", "8", "--m", "2")
    assert code == 0, err


def test_apriori_target_out_of_range_names_flags(capsys, tmp_path):
    atoms = tmp_path / "atoms.json"  # tanh(x0 + 0.5 x1) goes negative
    atoms.write_text(json.dumps({"probs": [1], "ws": [[1, 0.5, 0]], "coeffs": [1]}))
    code, _, err = run(capsys, "apriori", "--activation", "tanh", "--atoms", str(atoms),
                       "--seeds", "1", "--n", "8", "--m", "2", "--steps", "2")
    assert code == 2
    assert "--atoms" in err and "--activation tanh" in err


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    # each line is `pathnorm <argv...>  # comment`
    commands = [line.split("#")[0].split()[1:] for line in block.splitlines() if line.strip()]
    assert len(commands) == 9
    rng = make_rng(3)
    net = TwoLayerNet(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, 4),
                      sigmoid())
    save_model(net, tmp_path / "two_layer.json")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "apriori":
            argv += ["--seeds", "2"]  # the README's 20 seeds take 9 s
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


# the commands that draw no random numbers: --seed is accepted and changes nothing
@pytest.mark.parametrize("argv", [
    ["gamma-table", "--only", "sigmoid"],
    ["approx-1d", "--activation", "tanh", "--eps", "0.01"],
    ["norm", "--model", "{model}"],
    ["rewrite", "--model", "{model}", "--eps", "0.01"],
    ["bounds", "--kind", "posterior", "--q", "2", "--d", "4", "--n", "1000",
     "--activation", "sigmoid"],
], ids=lambda argv: argv[0])
def test_seed_changes_nothing_where_nothing_is_drawn(capsys, two_layer_file, argv):
    argv = [a.replace("{model}", two_layer_file[0]) for a in argv]
    first = run(capsys, *argv, "--seed", "0")
    assert first[0] == 0
    assert run(capsys, *argv, "--seed", "5") == first


def test_empty_model_saves_loads_and_rewrites(capsys, tmp_path):
    zero = tmp_path / "zero.json"  # output weights all 0: every rewritten unit is dropped
    save_model(TwoLayerNet(np.zeros(3), np.ones((3, 2)), np.ones(3), sigmoid()), zero)
    empty = tmp_path / "empty.json"
    code, _, err = run(capsys, "rewrite", "--model", str(zero), "--eps", "0.01",
                       "--save-model", str(empty))
    assert code == 0, err
    assert json.loads(empty.read_text())["units"] == []
    code, out, err = run(capsys, "norm", "--model", str(empty))
    assert (code, out) == (0, "kind,width,path_norm,modified_path_norm\ntwo_layer,0,0,0\n"), err
    code, out, err = run(capsys, "rewrite", "--model", str(empty), "--save-model", str(empty))
    assert code == 0, err
    assert parse_csv(out)[1][0][:2] == ["0.01", "0"]
    # the file holds no b_k, so the input dimension (2) is lost: train cannot use it
    code, _, err = run(capsys, "train", "--target", str(empty), "--steps", "1")
    assert code == 2 and "no input dimension" in err


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "approx-1d")[0] == 2  # missing required flags


def test_parse_error_exit(capsys, tmp_path):
    code, _, err = run(capsys, "norm", "--model", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error" in err


TRAIN_CSV = ["train", "--data", "{data}", "--width", "2", "--steps", "1"]
GAMMA_FILE = ["gamma-table", "--only", "file:{data}"]
TANH_SPEC = {"f": "tanh(x)", "f1": "1 - tanh(x)**2", "f2": "-2*tanh(x)*(1 - tanh(x)**2)",
             "asymptote_left": [0, -1], "asymptote_right": [0, 1]}


# data_text is written to the file {data}
@pytest.mark.parametrize("argv,data_text", [
    (["approx-1d", "--activation", "sigmoid", "--eps", "0"], None),
    (["approx-1d", "--activation", "sigmoid", "--eps", "nan"], None),
    (["rewrite", "--model", "{model}", "--eps", "-1"], None),
    (["rewrite", "--model", "{model}", "--eps", "inf"], None),
    (["rad-check", "--n", "0"], None),
    (["rad-check", "--d", "0"], None),
    (["bounds", "--kind", "rad-relu", "--d", "2", "--n", "0"], None),
    (["bounds", "--kind", "rad-relu", "--d", "0", "--n", "10"], None),
    (["bounds", "--kind", "rad-relu", "--d", "2", "--n", "inf"], None),
    (["bounds", "--kind", "apriori-two-layer", "--d", "2", "--n", "10", "--m", "0"], None),
    (["rad-check", "--m", "0"], None),
    (["rad-check", "--candidates", "0"], None),
    (["rad-check", "--sign-draws", "0"], None),
    (["rad-check", "--family", "resnet", "--res-dim", "0"], None),
    (["apriori", "--n", "0"], None),
    (["apriori", "--d", "0"], None),
    (["apriori", "--m", "0"], None),
    (["apriori", "--seeds", "0"], None),
    (["approx-1d", "--activation", "leaky_relu:lam=1", "--eps", "0.1"], None),
    (["approx-1d", "--activation", "swish:beta=0", "--eps", "0.1"], None),
    (TRAIN_CSV, "x0,y\n"),
    (TRAIN_CSV, "x0,y\n0.5,0.5,1\n"),
    (TRAIN_CSV, "x0,y\n1.5,0.5\n"),
    (TRAIN_CSV, "x0,y\n0.5,1.5\n"),
    (TRAIN_CSV, "x0,y\nnan,0.5\n"),
    (TRAIN_CSV, "\n0.5,0.5\n"),
    (["bounds", "--kind", "posterior", "--d", "2", "--n", "10", "--delta", "0"], None),
    (["bounds", "--kind", "posterior", "--d", "2", "--n", "10", "--delta", "2"], None),
    (["bounds", "--kind", "posterior", "--d", "2", "--n", "10", "--q", "-1"], None),
    (["bounds", "--kind", "apriori-two-layer", "--d", "2", "--n", "10", "--lam", "nan"], None),
    (["bounds", "--kind", "apriori-resnet", "--d", "2", "--n", "10", "--depth", "0"], None),
    (["embed", "--model", "{model}", "--depth", "2", "--width", "2", "--n-check", "0"], None),
    (["embed", "--model", "{model}", "--depth", "2", "--width", "2", "--weight-c", "-1"], None),
    (["train", "--target", "{model}", "--width", "-2", "--steps", "1"], None),
    (["train", "--target", "{model}", "--width", "0", "--steps", "1"], None),
    (["train", "--target", "{model}", "--batch", "0", "--steps", "1"], None),
    (["train", "--target", "{model}", "--steps", "0"], None),
    (["train", "--target", "{model}", "--step-size", "0", "--steps", "1"], None),
    (["train", "--target", "{model}", "--lam", "-1", "--steps", "1"], None),
    (["apriori", "--seeds", "1", "--n", "16", "--steps", "2", "--step-size", "nan"], None),
    (["apriori", "--seeds", "1", "--n", "16", "--steps", "2", "--delta", "0"], None),
    (["apriori", "--seeds", "1", "--n", "16", "--steps", "2", "--lam-mult", "nan"], None),
    (["apriori", "--seeds", "1", "--n", "16", "--steps", "2", "--require", "2"], None),
    (["apriori", "--atoms", "{model}", "--seeds", "1", "--n", "8", "--m", "2", "--steps", "2"],
     None),
    (["gamma-table", "--tol", "-1"], None),
    (["rad-check", "--budget", "nan"], None),
    (["rad-check", "--family", "resnet", "--gamma", "-1"], None),
    (["rad-check", "--family", "resnet", "--gamma", "abc"], None),
    (["gamma-table", "--only", "relu", "--out", "{missing}/x.csv"], None),
    (["approx-1d", "--activation", "tanh", "--eps", "0.1", "--save-model", "{missing}/x.json"],
     None),
    (["rad-check", "--seed", "-3"], None),
    (["apriori", "--seed", str(2**128 - 1), "--seeds", "2"], None),
    (["train", "--target", "{model}", "--n", "-5", "--steps", "1"], None),
    (["train", "--target", "{model}", "--n", "1e12", "--steps", "1"], None),
    (["rad-check", "--n", "1e12"], None),
    (["apriori", "--n", "1e12", "--seeds", "1"], None),
    (["approx-1d", "--activation", "file:{deep}", "--eps", "0.1"], None),
    (GAMMA_FILE, json.dumps({**TANH_SPEC, "f": "tanh(x, 1)"})),
    (GAMMA_FILE, json.dumps({**TANH_SPEC, "f2": "0*exp(x, x) + -2*tanh(x)*(1 - tanh(x)**2)"})),
    (GAMMA_FILE, json.dumps({**TANH_SPEC, "f": "max(x)"})),
    (["gamma-table", "--only", "leaky_relu:lam=nan"], None),
    (["gamma-table", "--only", "swish:beta=inf"], None),
    (["norm", "--model", "{data}"], json.dumps({
        "type": "two_layer", "activation": {"name": "swish", "params": {"beta": float("nan")}},
        "units": [[1.0, [1.0], 0.0]]})),
    (["norm", "--model", "{data}"], json.dumps({
        "type": "two_layer", "activation": {"name": "relu"}, "units": [[1, [[2]], 0]]})),
    (["norm", "--model", "{data}"], json.dumps({
        "type": "two_layer", "activation": {"name": "relu"}, "units": [[1, 2, 0]]})),
    (["bounds", "--kind", "rad-two-layer", "--d", "4", "--n", "100",
      "--activation", "swish:beta=1001"], None),
])
def test_malformed_input_is_usage_error(capsys, tmp_path, two_layer_file, argv, data_text):
    data = tmp_path / "data.csv"
    data.write_text(data_text or "")
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({
        "f": "-" * 5000 + "x", "f1": "1", "f2": "0",
        "asymptote_left": [1, 0], "asymptote_right": [1, 0],
    }))
    argv = [arg.format(model=two_layer_file[0], data=data, deep=deep,
                       missing=tmp_path / "no-such-dir") for arg in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err
    assert "Traceback" not in err


def test_numeric_error_exit(capsys, tmp_path):
    spec = tmp_path / "quad.json"
    spec.write_text(json.dumps({
        "name": "square",
        "f": "x**2",
        "f1": "2*x",
        "f2": "0*x + 2",
        "asymptote_left": [0.0, 0.0],
        "asymptote_right": [0.0, 0.0],
    }))
    code, _, err = run(capsys, "approx-1d", "--activation", f"file:{spec}", "--eps", "0.1")
    assert code == 3
    assert "numeric" in err


@pytest.mark.parametrize("argv", [
    ["gamma-table", "--only", "file:{spec}"],
    ["bounds", "--kind", "rad-two-layer", "--activation", "file:{spec}", "--d", "2", "--n", "10"],
])
def test_unconverged_quadrature_is_numeric_failure(capsys, tmp_path, argv):
    # softsign: gamma is 5, but f'' decays so slowly that quad does not
    # converge on the window and returned about -5e-7 for gamma0
    spec = tmp_path / "softsign.json"
    spec.write_text(json.dumps({
        "name": "softsign", "f": "x/(1+abs(x))", "f1": "1/(1+abs(x))**2",
        "f2": "-2*sign(x)/(1+abs(x))**3", "asymptote_left": [0, -1], "asymptote_right": [0, 1],
    }))
    code, out, err = run(capsys, *[arg.format(spec=spec) for arg in argv])
    assert code == 3
    assert "did not converge" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["rad-check", "--family", "resnet", "--gamma", "1e308"],
    ["rad-check", "--family", "resnet", "--gamma", "1e200"],
    ["rad-check", "--budget", "1e308"],
    ["bounds", "--kind", "rad-two-layer", "--q", "1e308", "--d", "2", "--n", "10"],
    ["apriori", "--seeds", "1", "--n", "16", "--steps", "2", "--lam-mult", "1e308"],
])
def test_non_finite_report_is_numeric_failure(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "numeric failure" in err
    assert out == ""


def test_overflow_exits_3_without_numpy_warnings(capsys, tmp_path):
    path = tmp_path / "huge.json"
    save_model(TwoLayerNet([1e308], [[1e308]], [1e308], relu()), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "norm", "--model", str(path))
    assert code == 3
    assert "numeric failure" in err and "RuntimeWarning" not in err
    assert out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_integer_flags_accept_scientific(capsys):
    code, out, _ = run(capsys, "bounds", "--kind", "rad-relu", "--q", "1", "--d", "2",
                       "--n", "1e4", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["n"] == 10000


# ---------------------------------------------------------------------------
# exit-code contract under generated input: 0 ok, 1 a guarantee failed,
# 2 usage or input error, 3 numeric failure; never a traceback.


def check_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert len(out.splitlines()) >= 2  # a header and at least one row
    if code == 2:
        assert "error" in err
    if code == 3:
        assert "numeric failure" in err
        assert out == ""


TOKENS = ("0", "-1", "0.5", "1e-400", "1e400", "nan", "inf", "-inf", "abc", "")
# flags that set how often something runs: never drawn above their base value
LOOP_FLAGS = {"--steps", "--seeds", "--candidates", "--sign-draws", "--m", "--width",
              "--depth", "--n-check"}
RAD = ["--n", "16", "--d", "2", "--m", "2", "--depth", "2", "--res-dim", "2",
       "--candidates", "2", "--sign-draws", "4"]
# (small valid command, the numeric flags it takes)
BASES = [
    (["gamma-table", "--only", "relu"], ["--tol", "--seed"]),
    (["approx-1d", "--activation", "relu", "--eps", "0.5"], ["--eps", "--seed"]),
    (["norm", "--model", "{model}"], ["--seed"]),
    (["rewrite", "--model", "{model}", "--eps", "0.5"], ["--eps", "--seed"]),
    (["embed", "--model", "{model}", "--depth", "2", "--width", "2", "--n-check", "8"],
     ["--depth", "--width", "--n-check", "--weight-c", "--seed"]),
    *[(["rad-check", "--family", family, *RAD],
       ["--n", "--d", "--m", "--depth", "--res-dim", "--budget", "--candidates",
        "--sign-draws", "--seed"] + (["--gamma"] if family == "resnet" else []))
      for family in ("two-layer", "relu", "resnet", "linear")],
    *[(["bounds", "--kind", kind, "--d", "2", "--n", "10", "--m", "4", "--depth", "2"],
       ["--q", "--d", "--n", "--m", "--depth", "--delta", "--lam", "--seed"])
      for kind in ("rad-two-layer", "rad-relu", "rad-resnet", "lambda-two-layer",
                   "lambda-resnet", "posterior", "apriori-two-layer", "apriori-resnet")],
    (["train", "--target", "{model}", "--n", "8", "--width", "2", "--steps", "2"],
     ["--n", "--width", "--steps", "--step-size", "--lam", "--batch", "--seed"]),
    (["apriori", "--d", "1", "--n", "8", "--m", "2", "--seeds", "1", "--steps", "2"],
     ["--d", "--n", "--m", "--seeds", "--steps", "--step-size", "--lam-mult", "--delta",
      "--require", "--seed"]),
]


def _above(token, limit):
    try:
        return float(token) > limit
    except ValueError:
        return False


@st.composite
def cli_argv(draw):
    base, flags = draw(st.sampled_from(BASES))
    flag = draw(st.sampled_from(flags))
    tokens = TOKENS + (("1e12",) if flag == "--n" else ())
    if flag in LOOP_FLAGS:
        limit = float(base[base.index(flag) + 1])
        tokens = tuple(t for t in tokens if not _above(t, limit))
    return base + [f"{flag}={draw(st.sampled_from(tokens))}"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    rng = make_rng(7)
    net = TwoLayerNet(0.5 * rng.normal(size=4), rng.normal(size=(4, 3)), rng.normal(size=4),
                      sigmoid())
    save_model(net, path / "two.json")
    return path


@settings(derandomize=True, deadline=None, max_examples=200)
@given(argv=cli_argv())
def test_exit_contract_numeric_flags(fuzz_dir, argv):
    check_exit_contract([arg.format(model=fuzz_dir / "two.json") for arg in argv])


FINITE = st.floats(-4, 4)
ODD = st.sampled_from([10**400, 0.0, 5e-324, 1e308, -1e308, float("inf"), float("nan")])
JSON = st.recursive(
    st.none() | st.booleans() | FINITE | ODD | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def expressions(atoms, binops, calls):
    """Expressions over atoms; calls are format templates of one or two
    subexpressions, such as "exp({})" or "max({}, {})"."""
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: (
            st.builds("({}){}({})".format, inner, st.sampled_from(binops), inner)
            | st.builds(str.format, st.sampled_from(calls), inner, inner)
        ),
        max_leaves=5,
    )


GOOD_EXPRESSIONS = expressions(
    ["x", "0", "2.5", "pi", "e", "1e308"], ["+", "-", "*", "/", "**"],
    [f"{fn}({{}})" for fn in ("exp", "ln", "sqrt", "tanh", "abs", "erf", "sign")] + ["max({}, {})"])
ANY_EXPRESSIONS = (
    expressions(["x", "0", "y", "'s'", "", "-" * 5000 + "x"], ["+", "**", "%", "<"],
                ["exp({})", "sin({})", "__import__({})", "max({}, {})",
                 "exp({}, {})", "tanh({}, {})", "max({})"])
    | st.text(max_size=8) | FINITE | ODD
)


def custom_specs(expr, number):
    return st.fixed_dictionaries(
        {"f": expr, "f1": expr, "f2": expr,
         "asymptote_left": st.lists(number, min_size=2, max_size=2),
         "asymptote_right": st.lists(number, min_size=2, max_size=2)},
        optional={"name": JSON, "singular_points": st.lists(number, max_size=2),
                  "one_sided_f1": st.lists(st.lists(number, min_size=2, max_size=2), max_size=2),
                  "closed_form_gamma": number})


GOOD_ACTIVATIONS = (
    st.sampled_from([{"name": "relu", "params": {}}, {"name": "tanh"},
                     {"name": "swish", "params": {"beta": 2.0}},
                     {"name": "leaky_relu", "params": {"lam": 0.2}}])
    | custom_specs(GOOD_EXPRESSIONS, FINITE)
)
ODD_ACTIVATIONS = (
    st.fixed_dictionaries({
        "name": st.sampled_from(["relu", "swish", "leaky_relu", "elu", "nope"]),
        "params": st.dictionaries(st.sampled_from(["beta", "lam", "alpha", "zeta"]),
                                  FINITE | ODD | st.text(max_size=3), max_size=2),
    })
    | custom_specs(ANY_EXPRESSIONS, FINITE | ODD | st.text(max_size=3))
    | JSON
)


@st.composite
def model_dicts(draw):
    """Two-layer and residual model objects; about half are well formed."""
    odd = draw(st.booleans())
    number = FINITE | ODD if odd else FINITE
    activations = GOOD_ACTIVATIONS | ODD_ACTIVATIONS if odd else GOOD_ACTIVATIONS
    dims = [draw(st.integers(1, 3)) for _ in range(4)]
    d, dim, width, depth = dims if draw(st.booleans()) else [dims[0]] * 4
    if odd and draw(st.booleans()):
        return draw(JSON)

    def mat(rows, cols):
        return draw(st.lists(st.lists(number, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        return {"type": "two_layer", "activation": draw(activations),
                "units": [[a, b, c] for a, b, c in zip(mat(1, width)[0], mat(width, d),
                                                       mat(1, width)[0])]}
    return {"type": "resnet", "activation": draw(activations),
            "c": draw(st.floats(0.5, 8) | number),
            "V": mat(dim, d + 1), "alpha": mat(1, dim)[0],
            "blocks": [{"W": mat(width, dim), "U": mat(dim, width)} for _ in range(depth)]}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(obj=model_dicts())
def test_exit_contract_model_json(fuzz_dir, obj):
    path = fuzz_dir / "drawn.json"
    path.write_text(json.dumps(obj))
    check_exit_contract(["norm", "--model", str(path)])


ODD_CELLS = st.sampled_from(["-1", "2", "nan", "inf", "1e400", "abc", ""])


@st.composite
def csv_texts(draw):
    """Data files with columns x0..,y; about half hold odd cells or shapes."""
    cols = draw(st.integers(1, 3))
    cell = st.floats(0, 1).map(repr)
    header = [f"x{i}" for i in range(cols - 1)] + ["y"]
    if draw(st.booleans()):
        cell = cell | ODD_CELLS
        header = draw(st.just(header) | st.lists(ODD_CELLS | st.just("y"), max_size=3))
    rows = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols)
                         | st.lists(cell, max_size=4), max_size=4))
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=csv_texts().map(str.encode) | st.binary(max_size=24))
def test_exit_contract_csv(fuzz_dir, data):
    path = fuzz_dir / "drawn.csv"
    path.write_bytes(data)
    check_exit_contract(["train", "--data", str(path), "--steps", "1", "--width", "2"])
