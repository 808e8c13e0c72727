"""End-to-end CLI runs, in process."""

import csv
import io
import json

import numpy as np
import pytest

from pathnorm import cli
from pathnorm.activations import sigmoid
from pathnorm.rng import make_rng
from pathnorm.serialize import load_model, save_model
from pathnorm.resnet import ResNet
from pathnorm.twolayer import TwoLayerNet, modified_path_norm, path_norm
from pathnorm.relu1d import path_norm_1d


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


@pytest.mark.parametrize("family", ["linear", "relu", "resnet"])
def test_rad_check_families(capsys, family):
    code, out, _ = run(capsys, "rad-check", "--family", family, "--d", "2", "--n", "32",
                       "--m", "3", "--depth", "2", "--res-dim", "3",
                       "--candidates", "12", "--sign-draws", "32", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["estimate"] <= row["bound"]


def test_bounds_lambda_value(capsys):
    code, out, _ = run(capsys, "bounds", "--kind", "lambda-two-layer", "--d", "1",
                       "--n", "100", "--activation", "relu", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["value"] == pytest.approx(1.4320873778523162, rel=1e-12)


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


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "approx-1d")[0] == 2  # missing required flags


def test_parse_error_exit(capsys, tmp_path):
    code, _, err = run(capsys, "norm", "--model", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error" in err


TRAIN_CSV = ["train", "--data", "{data}", "--width", "2", "--steps", "1"]


@pytest.mark.parametrize("argv,csv_text", [
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
    (["gamma-table", "--tol", "-1"], None),
    (["rad-check", "--budget", "nan"], None),
    (["rad-check", "--family", "resnet", "--gamma", "-1"], None),
    (["rad-check", "--family", "resnet", "--gamma", "abc"], None),
])
def test_malformed_input_is_usage_error(capsys, tmp_path, two_layer_file, argv, csv_text):
    data = tmp_path / "data.csv"
    data.write_text(csv_text or "")
    argv = [arg.format(model=two_layer_file[0], data=data) for arg in argv]
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


def test_integer_flags_accept_scientific(capsys):
    code, out, _ = run(capsys, "bounds", "--kind", "rad-relu", "--q", "1", "--d", "2",
                       "--n", "1e4", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["n"] == 10000
