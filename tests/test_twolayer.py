"""Two-layer nets: evaluation, norms, rewriting, Barron representations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pathnorm.activations import gelu, relu, sigmoid, tanh
from pathnorm.errors import DimMismatch
from pathnorm.relu1d import approximate_activation
from pathnorm.rng import make_rng
from pathnorm.twolayer import (
    Dataset,
    DiscreteBarronRep,
    TwoLayerNet,
    barron_norm_estimate,
    c_sigma,
    eval_two_layer,
    modified_path_norm,
    path_norm,
    rewrite_to_relu,
    sample_from_barron,
)


def relu_net(a, b, c):
    return TwoLayerNet(np.array(a, float), np.array(b, float), np.array(c, float), relu())


def test_eval_relu_example():
    net = relu_net([1, -1], [[1, 0], [0, 1]], [0.5, 0])
    assert eval_two_layer(net, [0.25, 0.25]) == pytest.approx(0.5)


def test_eval_constant_sigmoid():
    net = TwoLayerNet([4.0], [[0.0, 0.0]], [0.0], sigmoid())
    assert eval_two_layer(net, [0.3, -0.7]) == pytest.approx(2.0)


def test_eval_empty_net():
    net = relu_net([], np.empty((0, 2)), [])
    assert eval_two_layer(net, [1.0, -1.0]) == 0.0
    assert path_norm(net) == 0.0
    assert modified_path_norm(net) == 0.0


def test_eval_batch_matches_single():
    net = TwoLayerNet([1.0, -0.5], [[1, 2], [0, -1]], [0.0, 0.5], tanh())
    xs = make_rng(3).uniform(-1, 1, size=(5, 2))
    batch = eval_two_layer(net, xs)
    assert batch.shape == (5,)
    for xi, yi in zip(xs, batch):
        assert eval_two_layer(net, xi) == pytest.approx(yi, rel=1e-15)


@pytest.mark.parametrize("act", [relu(), sigmoid()], ids=["relu", "sigmoid"])
@pytest.mark.parametrize(
    ("width", "rows"),
    [(w, n) for w in (0, 1, 64, 1023, 1025) for n in (0, 63, 65, 4097)] + [(64, 20_003)],
)
def test_eval_blocks_match_one_product(act, width, rows):
    # Blocked and one-shot products may sum in another order (last-bit
    # differences on some shapes), hence a tolerance and not equality.
    rng = make_rng(width * 100_003 + rows)
    a, b, c = rng.normal(size=width), rng.normal(size=(width, 3)), rng.normal(size=width)
    net = TwoLayerNet(a, b, c, act)
    x = rng.uniform(-1.0, 1.0, size=(rows, 3))
    want = np.asarray(act.f(x @ net.b.T + net.c), float) @ net.a
    got = eval_two_layer(net, x)
    assert got.shape == (rows,)
    tol = 1e-12 * np.abs(net.a).sum()
    assert_allclose(got, want, rtol=1e-12, atol=tol)
    if rows:
        assert eval_two_layer(net, x[-1]) == pytest.approx(want[-1], rel=1e-12, abs=tol)


def test_path_norm_example():
    net = relu_net([2, -1], [[1, -1], [0, 2]], [1, 0])
    assert path_norm(net) == pytest.approx(8.0)
    assert modified_path_norm(net) == pytest.approx(11.0)


def test_path_norm_single_unit():
    net = relu_net([1], [[1, 0]], [0])
    assert path_norm(net) == 1.0
    assert modified_path_norm(net) == 2.0


@pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
def test_rescaling_identities(t):
    net = relu_net([2, -1, 0.5], [[1, -1], [0, 2], [3, 0.5]], [1, 0, -2])
    scaled = relu_net(t * net.a, net.b / t, net.c / t)
    assert path_norm(scaled) == pytest.approx(path_norm(net), rel=1e-12)
    expected = path_norm(net) + t * float(np.sum(np.abs(net.a)))
    assert modified_path_norm(scaled) == pytest.approx(expected, rel=1e-12)


def test_c_sigma_values():
    assert c_sigma(relu()) == pytest.approx(1.0, abs=1e-9)
    assert c_sigma(sigmoid()) == pytest.approx(4.0, abs=1e-6)
    assert c_sigma(tanh()) == pytest.approx(25.0, abs=1e-5)


def sampled_deviation(net, out, seed, scale=1.0):
    """max |net - out| over 10,000 seeded uniform points in [-scale, scale]^d."""
    x = scale * make_rng(seed).uniform(-1, 1, (10_000, net.input_dim))
    return float(np.max(np.abs(eval_two_layer(net, x) - eval_two_layer(out, x))))


def test_rewrite_guarantees():
    net = TwoLayerNet(
        [1.5, -0.75, 0.25],
        [[0.5, -1.0, 0.25], [1.0, 0.0, -0.5], [-0.25, 0.75, 1.0]],
        [0.1, -0.3, 0.0],
        sigmoid(),
    )
    eps = 1e-2
    out, rep = rewrite_to_relu(net, eps)
    assert out.activation.name == "relu"
    assert sampled_deviation(net, out, seed=11) <= rep.max_deviation * (1 + 1e-12)
    assert rep.max_deviation <= rep.deviation_bound
    assert rep.path_norm_rewritten <= rep.path_norm_bound
    assert rep.deviation_bound == pytest.approx(eps * np.sum(np.abs(net.a)))
    g_net, _ = approximate_activation(sigmoid(), eps)
    assert rep.width == net.width * g_net.units.shape[0]


def test_rewrite_relu_is_identity():
    net = relu_net([2, -1], [[1, -1], [0, 2]], [1, 0])
    out, rep = rewrite_to_relu(net, 1e-3)
    assert rep.max_deviation == 0.0
    assert sampled_deviation(net, out, seed=0) == 0.0
    assert rep.path_norm_rewritten == pytest.approx(path_norm(net), rel=1e-15)
    assert np.array_equal(np.sort(out.a), np.sort(net.a))


@pytest.mark.parametrize("act", [sigmoid, tanh, gelu])
def test_rewrite_deviation_is_certified_off_the_cube(act):
    # the bound holds on all of R^d, so it covers points far outside [-1, 1]^d
    rng = make_rng(21)
    for i in range(6):
        m, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        net = TwoLayerNet(rng.normal(size=m), rng.normal(size=(m, d)), rng.normal(size=m), act())
        out, rep = rewrite_to_relu(net, 1e-2)
        _, cert = approximate_activation(net.activation, 1e-2)
        assert rep.max_deviation == cert.sup_error_measured * float(np.sum(np.abs(net.a)))
        assert sampled_deviation(net, out, seed=i, scale=8.0) <= rep.max_deviation * (1 + 1e-12)


def test_rewrite_check_memory_stays_small():
    # the 896-unit rewritten net on 10,000 points: one product would hold two
    # 10,000 x 896 temporaries (143 MB); row blocks keep the peak near 2 MB.
    rng = make_rng(8)
    net = TwoLayerNet(rng.normal(size=8), rng.normal(size=(8, 4)), rng.normal(size=8), tanh())
    out, rep = rewrite_to_relu(net, 1e-2)
    x = make_rng(0).uniform(-1, 1, (10_000, net.input_dim))
    tracemalloc.start()
    try:
        y = eval_two_layer(out, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.width == 896
    assert np.max(np.abs(eval_two_layer(net, x) - y)) <= rep.max_deviation * (1 + 1e-12)
    assert peak < 8e6


coef = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(coef, coef, coef, coef), min_size=1, max_size=5))
def test_eval_matches_unit_loop(units):
    net = TwoLayerNet(
        [u[0] for u in units],
        [[u[1], u[2]] for u in units],
        [u[3] for u in units],
        sigmoid(),
    )
    x = np.array([0.4, -0.9])
    direct = sum(a * 1 / (1 + np.exp(-(b1 * x[0] + b2 * x[1] + c))) for a, b1, b2, c in units)
    assert eval_two_layer(net, x) == pytest.approx(direct, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Barron representations


def test_barron_estimate_single_atom():
    rep = DiscreteBarronRep([1.0], [[1.0, 1.0, 1.0]], [2.0])
    assert barron_norm_estimate(rep) == pytest.approx(8.0)


def test_barron_estimate_two_atoms():
    rep = DiscreteBarronRep([0.5, 0.5], [[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
    assert barron_norm_estimate(rep) == pytest.approx(np.sqrt(2.5))


def test_barron_probs_validated():
    with pytest.raises(ValueError):
        DiscreteBarronRep([0.7, 0.7], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(DimMismatch):
        DiscreteBarronRep([1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])


def test_sample_single_atom_is_exact():
    rep = DiscreteBarronRep([1.0], [[1.0, -0.5, 0.25]], [3.0])
    act = sigmoid()
    net = sample_from_barron(rep, 8, act, seed=5)
    assert net.width == 8
    assert np.allclose(net.a, 3.0 / 8)
    xs = make_rng(1).uniform(-1, 1, size=(20, 2))
    assert np.allclose(eval_two_layer(net, xs), rep.function(act, xs), rtol=1e-12)


def test_sample_two_atoms_binomial():
    rep = DiscreteBarronRep(
        [0.5, 0.5], [[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]], [1.0, -0.5]
    )
    net = sample_from_barron(rep, 400, relu(), seed=9)
    n_first = int(np.sum(net.b[:, 0] == 1.0))
    # 3 sigma around the binomial mean 200
    assert 170 <= n_first <= 230


def test_sample_needs_positive_m():
    rep = DiscreteBarronRep([1.0], [[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        sample_from_barron(rep, 0, relu())


# ---------------------------------------------------------------------------
# datasets and shape errors


def test_dataset_validation():
    Dataset(np.array([[0.5, -0.5]]), np.array([0.25]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.5, 0.0]]), np.array([0.5]))
    with pytest.raises(ValueError):
        Dataset(np.array([[0.5, 0.0]]), np.array([1.5]))
    with pytest.raises(DimMismatch):
        Dataset(np.array([[0.5, 0.0], [0.1, 0.1]]), np.array([0.5]))


def test_dataset_properties():
    ds = Dataset(np.zeros((7, 3)), np.full(7, 0.5))
    assert ds.n == 7 and ds.d == 3


def test_eval_dim_mismatch():
    net = relu_net([1], [[1, 0]], [0])
    with pytest.raises(DimMismatch):
        eval_two_layer(net, [1.0, 2.0, 3.0])


def test_net_shape_mismatch():
    with pytest.raises(DimMismatch):
        TwoLayerNet([1.0, 2.0], [[1.0, 0.0]], [0.0, 0.0], relu())
