"""Residual nets: three norm evaluations, modification bounds, embeddings."""

import numpy as np
import pytest

from pathnorm.activations import relu, sigmoid, tanh
from pathnorm.errors import DimMismatch, TooLarge, WidthMismatch
from pathnorm.resnet import (
    ResNet,
    default_weight_constant,
    embed_two_layer,
    eval_resnet,
    modification_bounds,
    norm_bruteforce,
    norm_closed,
    norm_recursive,
)
from pathnorm.rng import make_rng
from pathnorm.twolayer import TwoLayerNet, eval_two_layer, modified_path_norm, path_norm


def scalar_net(c=1.0):
    return ResNet([[2.0, 1.0]], ([[3.0]],), ([[1.0]],), [1.0], relu(), c)


def random_net(seed, depth=3, dim=4, width=3, act=None, c=2.0, d=2):
    rng = make_rng(seed)
    v = rng.normal(size=(dim, d + 1))
    ws = tuple(rng.normal(size=(width, dim)) for _ in range(depth))
    us = tuple(rng.normal(size=(dim, width)) / (l + 1) for l in range(depth))
    alpha = rng.normal(size=dim)
    return ResNet(v, ws, us, alpha, act or relu(), c)


def test_scalar_example_eval():
    net = scalar_net()
    # h0 = 2x + 1; h1 = h0 + relu(3 h0)
    assert eval_resnet(net, [0.5]) == pytest.approx(8.0)
    assert eval_resnet(net, [-1.0]) == pytest.approx(-1.0)


def test_scalar_example_norms():
    net = scalar_net()
    rec = norm_recursive(net)
    assert norm_closed(net) == pytest.approx(13.0)
    assert rec.total == pytest.approx(13.0)
    assert rec.weighted_path_norm == pytest.approx(12.0)
    assert rec.r == pytest.approx(1.0)
    assert rec.m_values[0] == pytest.approx(0.0)
    assert norm_bruteforce(net) == pytest.approx(13.0)


def test_zero_u_blocks_reduce_to_linear_map():
    v = np.array([[1.0, 0.5], [2.0, -1.0]])
    zero = np.zeros((3, 2)), np.zeros((2, 3))
    net = ResNet(v, (zero[0], zero[0]), (zero[1], zero[1]), [1.0, -1.0], tanh(), 9.0)
    x = np.array([[0.3], [-0.8]])
    lin = np.concatenate([x, np.ones((2, 1))], axis=1) @ v.T @ np.array([1.0, -1.0])
    assert np.allclose(eval_resnet(net, x), lin)
    rec = norm_recursive(net)
    assert rec.r == 0.0
    assert rec.total == pytest.approx((np.abs([1.0, -1.0]) @ np.abs(v)).sum())


@pytest.mark.parametrize("seed", range(8))
def test_three_norms_agree(seed):
    net = random_net(seed, depth=3, dim=4, width=3)
    rec = norm_recursive(net)
    closed = norm_closed(net)
    assert rec.total == pytest.approx(closed, rel=1e-12)
    small = random_net(seed + 100, depth=2, dim=3, width=2)
    assert norm_bruteforce(small) == pytest.approx(norm_closed(small), rel=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_modification_bounds_dominate(seed):
    net = random_net(seed, depth=4, dim=5, width=3, c=1.5)
    rec = norm_recursive(net)
    bounds = modification_bounds(net)
    for m_l, b_l in zip(rec.m_values, bounds.m_bounds):
        assert np.all(np.asarray(m_l) <= np.asarray(b_l) * (1 + 1e-12) + 1e-12)
    assert rec.r <= bounds.r_bound * (1 + 1e-12)


def test_zero_padding_leaves_norms_alone():
    net = random_net(11, depth=2, dim=3, width=2, c=2.0)
    extra = 2
    ws = tuple(np.vstack([w, np.zeros((extra, net.res_dim))]) for w in net.ws)
    us = tuple(np.hstack([u, np.zeros((net.res_dim, extra))]) for u in net.us)
    padded = ResNet(net.v, ws, us, net.alpha, net.activation, net.c)
    assert norm_closed(padded) == pytest.approx(norm_closed(net), rel=1e-12)


def test_bruteforce_cap():
    with pytest.raises(TooLarge):
        norm_bruteforce(random_net(0, depth=7, dim=2, width=2))


def test_default_weight_constant():
    assert default_weight_constant(relu()) == pytest.approx(5.0, abs=1e-9)
    assert default_weight_constant(sigmoid()) == pytest.approx(7.0, abs=1e-6)


# ---------------------------------------------------------------------------
# embedding two-layer nets


def embed_src(seed=13, width=6, d=3, act=None):
    rng = make_rng(seed)
    return TwoLayerNet(
        rng.normal(size=width),
        rng.normal(size=(width, d)),
        rng.normal(size=width),
        act or sigmoid(),
    )


def test_embed_preserves_function():
    src = embed_src()
    net = embed_two_layer(src, depth=3, width=2, c=7.0)
    assert net.res_dim == src.input_dim + 2
    xs = make_rng(4).uniform(-1, 1, size=(32, src.input_dim))
    assert np.allclose(eval_resnet(net, xs), eval_two_layer(src, xs), rtol=1e-13, atol=1e-13)


def test_embed_has_no_modification():
    src = embed_src(seed=21)
    net = embed_two_layer(src, depth=2, width=3, c=7.0)
    rec = norm_recursive(net)
    for m_l in rec.m_values:
        assert np.all(np.asarray(m_l) == 0.0)
    assert rec.r == pytest.approx(np.sum(np.abs(src.a)), rel=1e-12)


def test_embed_norm_closed_form():
    src = embed_src(seed=8)
    for c in (1.0, 2.5, 7.0):
        net = embed_two_layer(src, depth=6, width=1, c=c)
        expect = c * path_norm(src) + float(np.sum(np.abs(src.a)))
        assert norm_closed(net) == pytest.approx(expect, rel=1e-12)
    relu_src = embed_src(seed=8, act=relu())
    net = embed_two_layer(relu_src, depth=6, width=1, c=1.0)
    assert norm_closed(net) == pytest.approx(modified_path_norm(relu_src), rel=1e-12)


def test_embed_width_mismatch():
    with pytest.raises(WidthMismatch):
        embed_two_layer(embed_src(width=5), depth=2, width=3, c=1.0)


# ---------------------------------------------------------------------------
# constructor validation


def test_constructor_rejects_bad_shapes():
    with pytest.raises(DimMismatch):
        ResNet([[1.0, 0.0]], ([[1.0]],), ([[1.0]], [[1.0]]), [1.0], relu(), 1.0)
    with pytest.raises(DimMismatch):
        ResNet([[1.0, 0.0]], ([[1.0, 2.0]],), ([[1.0]],), [1.0], relu(), 1.0)
    with pytest.raises(DimMismatch):
        ResNet([[1.0, 0.0]], ([[1.0]],), ([[1.0]],), [1.0, 2.0], relu(), 1.0)
    with pytest.raises(ValueError):
        ResNet([[1.0, 0.0]], ([[1.0]],), ([[1.0]],), [1.0], relu(), 0.0)


def test_eval_dim_mismatch():
    with pytest.raises(DimMismatch):
        eval_resnet(scalar_net(), [1.0, 2.0])
