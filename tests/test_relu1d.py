"""Certified one-dimensional ReLU approximants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathnorm import activations as A
from pathnorm.activations import Activation, catalog, elu, relu, sigmoid, tanh
from pathnorm.errors import NoConvergence, NonIntegrable
from pathnorm.relu1d import (
    ReluNet1D,
    approximate_activation,
    eval_relu1d,
    path_norm_1d,
)
from pathnorm import relu1d


def net_of(*units) -> ReluNet1D:
    return ReluNet1D(np.array(units, float).reshape(-1, 3))


def test_eval_single_unit_inactive():
    assert eval_relu1d(net_of((1, 1, 0)), -2.0) == 0.0


def test_eval_two_units():
    assert eval_relu1d(net_of((2, 1, 0), (-1, 1, -1)), 3.0) == pytest.approx(4.0)


def test_eval_empty():
    empty = ReluNet1D(np.empty((0, 3)))
    assert eval_relu1d(empty, 17.3) == 0.0
    assert path_norm_1d(empty) == 0.0


def test_path_norm_values():
    assert path_norm_1d(net_of((1, 1, 0))) == 1.0
    assert path_norm_1d(net_of((2, -3, 1), (0.5, 0, 4))) == pytest.approx(10.0)


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(finite, finite, finite), min_size=0, max_size=8),
    st.lists(finite, min_size=1, max_size=16),
)
def test_eval_matches_direct_sum(units, points):
    net = ReluNet1D(np.array(units, float).reshape(-1, 3))
    t = np.array(points)
    expected = sum(a * np.maximum(0.0, b * t + g) for a, b, g in units) if units else 0.0 * t
    assert np.allclose(eval_relu1d(net, t), expected, rtol=1e-12, atol=1e-12)


def test_relu_approximates_itself():
    net, cert = approximate_activation(relu(), 1e-3)
    assert net.units.shape == (1, 3)
    assert tuple(net.units[0]) == (1.0, 1.0, 0.0)
    assert cert.sup_error_measured == 0.0
    assert cert.path_norm == 1.0


@pytest.mark.parametrize("eps", [1e-1, 1e-2])
@pytest.mark.parametrize("name,gamma_ref", [("sigmoid", 1.5), ("tanh", 5.0)])
def test_certificate_invariants(name, gamma_ref, eps):
    act = A.by_name(name)
    net, cert = approximate_activation(act, eps)
    assert cert.sup_error_measured <= eps
    assert cert.path_norm <= gamma_ref + eps
    assert cert.gamma_reference == pytest.approx(gamma_ref, abs=1e-6)


@pytest.mark.parametrize("act", catalog(), ids=lambda a: a.label)
def test_wide_grid_error_and_far_behavior(act):
    eps = 1e-2
    net, cert = approximate_activation(act, eps)
    grid = np.linspace(-100.0, 100.0, 200_001)
    err = np.max(np.abs(eval_relu1d(net, grid) - np.asarray(act.f(grid), float)))
    assert err <= eps * (1 + 1e-9)
    # beyond the window the net follows the asymptote lines
    for x in (-1000.0, 1000.0):
        assert abs(eval_relu1d(net, x) - float(act.f(x))) <= eps
    slope_right = (eval_relu1d(net, 2e6) - eval_relu1d(net, 1e6)) / 1e6
    slope_left = (eval_relu1d(net, -2e6) - eval_relu1d(net, -1e6)) / -1e6
    assert slope_right == pytest.approx(act.asymptote_right[0], abs=1e-12)
    assert slope_left == pytest.approx(act.asymptote_left[0], abs=1e-12)


def test_interpolation_exact_at_partition_knots():
    act = sigmoid()
    net, cert = approximate_activation(act, 1e-2)
    h = cert.window_halfwidth / cert.partition_size
    ks = np.arange(1, cert.partition_size)
    knots = np.concatenate([cert.anchor + h * ks, cert.anchor - h * ks])
    err = np.abs(eval_relu1d(net, knots) - np.asarray(act.f(knots), float))
    assert np.max(err) <= 1e-10


def test_path_norm_approaches_gamma():
    for act in (sigmoid(), elu(2.0)):
        gam = A.gamma(act)
        _, cert = approximate_activation(act, 1e-3)
        assert abs(cert.path_norm - gam) <= 4e-3


def test_elu2_path_norm_exact():
    # piecewise exponential with a kink: norm sits exactly on gamma
    net, cert = approximate_activation(elu(2.0), 1e-2)
    assert cert.path_norm <= 7.0 + 1e-2


def test_gamma_infinite_refused():
    quad = Activation(
        name="square",
        f=lambda x: np.asarray(x, float) ** 2,
        f1=lambda x: 2.0 * np.asarray(x, float),
        f2=lambda x: np.full_like(np.asarray(x, float), 2.0),
        asymptote_left=(0.0, 0.0),
        asymptote_right=(0.0, 0.0),
    )
    with pytest.raises(NonIntegrable):
        approximate_activation(quad, 1e-2)


def test_no_convergence_when_knot_budget_exhausted(monkeypatch):
    monkeypatch.setattr(relu1d, "_MAX_KNOTS", 128)
    with pytest.raises(NoConvergence):
        approximate_activation(tanh(), 1e-6)
