"""JSON round trips for activations and models."""

import json

import numpy as np
import pytest

from pathnorm.activations import catalog, custom_activation, leaky_relu, relu, sigmoid, swish
from pathnorm.errors import ParseError
from pathnorm.relu1d import approximate_activation, eval_relu1d
from pathnorm.resnet import ResNet, eval_resnet, norm_closed
from pathnorm.rng import make_rng
from pathnorm.serialize import (
    activation_from_dict,
    activation_to_dict,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from pathnorm.twolayer import TwoLayerNet, eval_two_layer, path_norm


def test_activation_round_trip():
    for act in (relu(), leaky_relu(0.3), swish(2.0)):
        back = activation_from_dict(activation_to_dict(act))
        assert back.label == act.label
        xs = np.linspace(-3, 3, 41)
        assert np.array_equal(np.asarray(back.f(xs)), np.asarray(act.f(xs)))


def test_two_layer_round_trip_bit_exact():
    rng = make_rng(0)
    net = TwoLayerNet(rng.normal(size=5), rng.normal(size=(5, 3)), rng.normal(size=5), sigmoid())
    back = model_from_dict(model_to_dict(net))
    assert isinstance(back, TwoLayerNet)
    assert np.array_equal(back.a, net.a)
    assert np.array_equal(back.b, net.b)
    assert np.array_equal(back.c, net.c)
    assert back.activation.label == net.activation.label


def test_resnet_round_trip_bit_exact():
    rng = make_rng(1)
    net = ResNet(
        rng.normal(size=(3, 3)),
        tuple(rng.normal(size=(2, 3)) for _ in range(2)),
        tuple(rng.normal(size=(3, 2)) for _ in range(2)),
        rng.normal(size=3),
        relu(),
        5.0,
    )
    back = model_from_dict(model_to_dict(net))
    assert isinstance(back, ResNet)
    assert norm_closed(back) == norm_closed(net)
    x = rng.uniform(-1, 1, size=(4, 2))
    assert np.array_equal(eval_resnet(back, x), eval_resnet(net, x))


@pytest.mark.parametrize("act", catalog(), ids=lambda a: a.label)
def test_relu1d_saved_as_two_layer(act, tmp_path):
    net, cert = approximate_activation(act, 1e-2)
    assert isinstance(net, TwoLayerNet)
    assert net.activation.name == "relu" and net.input_dim == 1
    t = np.linspace(-50, 50, 1001)
    assert np.allclose(eval_two_layer(net, t[:, None]), eval_relu1d(net, t), rtol=1e-12, atol=1e-12)
    path = tmp_path / "net.json"
    save_model(net, path)
    back = load_model(path)
    assert isinstance(back, TwoLayerNet) and back.activation.name == "relu"
    assert np.array_equal(back.a, net.a)
    assert np.array_equal(back.b, net.b)
    assert np.array_equal(back.c, net.c)
    assert path_norm(back) == cert.path_norm


def test_save_load_file_round_trip(tmp_path):
    rng = make_rng(2)
    net = TwoLayerNet(rng.normal(size=3), rng.normal(size=(3, 2)), rng.normal(size=3), relu())
    path = tmp_path / "net.json"
    save_model(net, path)
    back = load_model(path)
    assert np.array_equal(back.a, net.a)
    assert np.array_equal(back.b, net.b)
    assert np.array_equal(back.c, net.c)


def test_load_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "type": "two_layer",\n "units": [[1, [1], ]\n}\n')
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert err.value.line == 3


def test_load_missing_file():
    with pytest.raises(ParseError):
        load_model("/nonexistent/net.json")


def test_load_undecodable_file(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\x80")
    with pytest.raises(ParseError):
        load_model(path)


def test_unknown_model_type():
    with pytest.raises(ParseError):
        model_from_dict({"type": "transformer"})


def test_malformed_model_dicts():
    with pytest.raises(ParseError):
        model_from_dict({"type": "two_layer", "activation": {"name": "relu", "params": {}}})
    with pytest.raises(ParseError):
        model_from_dict(
            {
                "type": "two_layer",
                "activation": {"name": "relu", "params": {}},
                "units": [[1.0, "oops", 0.0]],
            }
        )
    with pytest.raises(ParseError):
        model_from_dict({"type": "resnet", "activation": {"name": "relu", "params": {}}})


def test_unknown_activation_name():
    with pytest.raises(ParseError):
        activation_from_dict({"name": "gaussian", "params": {}})


# a sigmoid under the name of a built-in: it must reload as itself, not as tanh
SIGMOID_NAMED_TANH = {
    "name": "tanh",
    "f": "1/(1+exp(-x))",
    "f1": "exp(-x)/(1+exp(-x))**2",
    "f2": "exp(-x)*(exp(-x)-1)/(1+exp(-x))**3",
    "asymptote_left": [0, 0],
    "asymptote_right": [0, 1],
}


@pytest.mark.parametrize("spec", [SIGMOID_NAMED_TANH, dict(SIGMOID_NAMED_TANH, name="mysig")])
def test_custom_activation_round_trip_bit_exact(tmp_path, spec):
    rng = make_rng(3)
    net = TwoLayerNet(rng.normal(size=4), rng.normal(size=(4, 2)), rng.normal(size=4),
                      custom_activation(spec))
    path = tmp_path / "custom.json"
    save_model(net, path)
    assert json.loads(path.read_text())["activation"] == spec
    back = load_model(path)
    x = rng.uniform(-1, 1, size=(64, 2))
    assert np.array_equal(eval_two_layer(back, x), eval_two_layer(net, x))
    assert back.activation.f(0.5) == pytest.approx(1 / (1 + np.exp(-0.5)), rel=1e-15)


def test_builtin_activation_file_has_name_and_params_only():
    assert activation_to_dict(swish(2.0)) == {"name": "swish", "params": {"beta": 2.0}}
    assert activation_to_dict(sigmoid()) == {"name": "sigmoid", "params": {}}


def test_non_numeric_activation_param():
    with pytest.raises(ParseError):
        activation_from_dict({"name": "swish", "params": {"beta": "abc"}})
