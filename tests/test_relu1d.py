"""Certified one-dimensional ReLU approximants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathnorm import activations as A
from pathnorm.activations import Activation, catalog, custom_activation, elu, relu, sigmoid, tanh
from pathnorm.errors import NoConvergence, NonIntegrable, NotRelu1D
from pathnorm.relu1d import approximate_activation, eval_relu1d
from pathnorm.twolayer import TwoLayerNet, path_norm, rewrite_to_relu
from pathnorm import relu1d


def net_of(*units) -> TwoLayerNet:
    """A relu net on d = 1 from rows (alpha, beta, gamma)."""
    alpha, beta, gam = np.array(units, float).reshape(-1, 3).T
    return TwoLayerNet(alpha, beta[:, None], gam, relu())


def test_eval_single_unit_inactive():
    assert eval_relu1d(net_of((1, 1, 0)), -2.0) == 0.0


def test_eval_two_units():
    assert eval_relu1d(net_of((2, 1, 0), (-1, 1, -1)), 3.0) == pytest.approx(4.0)


def test_eval_empty():
    empty = net_of()
    assert eval_relu1d(empty, 17.3) == 0.0
    assert path_norm(empty) == 0.0


def test_path_norm_values():
    assert path_norm(net_of((1, 1, 0))) == 1.0
    assert path_norm(net_of((2, -3, 1), (0.5, 0, 4))) == pytest.approx(10.0)


RELU_SPEC = {"name": "relu", "f": "(x + abs(x)) / 2", "f1": "(1 + sign(x)) / 2", "f2": "0*x",
             "asymptote_left": [0, 0], "asymptote_right": [1, 0]}


@pytest.mark.parametrize("net", [
    TwoLayerNet([1.0], [[1.0, 0.5]], [0.0], relu()),
    TwoLayerNet([1.0], [[1.0]], [0.0], sigmoid()),
    TwoLayerNet([1.0], [[1.0]], [0.0], custom_activation(RELU_SPEC)),
], ids=["relu d=2", "sigmoid d=1", "custom named relu"])
def test_eval_rejects_other_nets(net):
    with pytest.raises(NotRelu1D):
        eval_relu1d(net, 0.5)


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(finite, finite, finite), min_size=0, max_size=8),
    st.lists(finite, min_size=1, max_size=16),
)
def test_eval_matches_direct_sum(units, points):
    net = net_of(*units)
    t = np.array(points)
    expected = sum(a * np.maximum(0.0, b * t + g) for a, b, g in units) if units else 0.0 * t
    assert np.allclose(eval_relu1d(net, t), expected, rtol=1e-12, atol=1e-12)


def test_eval_tied_knots_pinned():
    # three rising and three falling units share the knot 0.5, next to a
    # flat unit; tied knots are summed in a fixed order (see eval_relu1d),
    # so these are exact bits, not a tolerance
    net = net_of((1.0, 1.0, -0.5), (0.1, 2.0, -1.0), (0.7, 3.0, 3.0), (-0.3, 0.5, -0.25),
                 (0.25, 0.0, 0.3),
                 (0.2, -1.0, 0.5), (1 / 3, -2.0, 1.0), (0.9, -1.0, -1.0), (-0.7, -0.5, 0.25))
    t = [-2.0, -1.0, -0.0, 0.0, 0.3, 0.5, 0.7, 1.1, 3.0]
    expected = ["0x1.2222222222222p+1", "0x1.b333333333332p-1", "0x1.3777777777777p+1",
                "0x1.3777777777777p+1", "0x1.7444444444444p+1", "0x1.9ccccccccccccp+1",
                "0x1.ed70a3d70a3d6p+1", "0x1.475c28f5c28f6p+2", "0x1.6333333333332p+3"]
    assert [float(v).hex() for v in eval_relu1d(net, t)] == expected
    assert [eval_relu1d(net, x).hex() for x in t] == expected


@pytest.mark.parametrize("units, expected", [
    ([(1, 1, 0)], [0.0, np.inf]),
    ([(1, -1, 0)], [np.inf, 0.0]),
    ([(2, 1, -1), (1, -3, 2), (0.5, 0, 1)], [np.inf, np.inf]),
    ([(-1, 1, 0), (1, -1, 0)], [np.inf, -np.inf]),
], ids=["rising", "falling", "mixed with a flat unit", "mixed, -t"])
def test_eval_at_infinity(units, expected):
    # the side with no active unit adds 0, not 0 * inf
    assert eval_relu1d(net_of(*units), [-np.inf, np.inf]).tolist() == expected


def slope_units_loop(xs, values, end_slope, orientation):
    """The per-knot loop relu1d._slope_units replaced, kept as its reference."""
    h = abs(xs[1] - xs[0])
    coeffs = np.diff(np.concatenate([[0.0], np.diff(values) / h]))
    units, kept = [], 0.0
    for x_i, coeff in zip(xs[:-1], coeffs):
        if abs(coeff) * (abs(x_i) + 1.0) < relu1d._PRUNE_TOL:
            continue
        units.append((coeff, orientation, -orientation * x_i))
        kept += coeff
    last = end_slope - kept
    if last != 0.0:
        units.append((last, orientation, -orientation * xs[-1]))
    return np.array(units, float).reshape(-1, 3)


@pytest.mark.parametrize("seed", range(20))
def test_slope_units_match_the_loop(seed):
    # linear stretches give increments at and around the pruning tolerance
    rng = np.random.default_rng(seed)
    n, orientation = int(rng.integers(2, 40)), float(rng.choice([-1.0, 1.0]))
    xs = rng.normal() + orientation * 0.25 * np.arange(n + 1)
    steps = np.where(rng.uniform(size=n) < 0.5, 0.5, rng.normal(size=n))
    steps += rng.choice([0.0, 1e-17, -3e-16, 1e-15], size=n)
    values = np.concatenate([[0.0], np.cumsum(steps)])
    end_slope = float(rng.choice([0.0, 1.0, rng.normal()]))
    got = relu1d._slope_units(xs, values, end_slope, orientation)
    assert got.tobytes() == slope_units_loop(xs, values, end_slope, orientation).tobytes()


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


# (anchor, window_halfwidth, partition_size) of each built-in at ORACLE_EPS.
# The partition sizes are those the construction reached when a 2^20-point
# grid judged each candidate; a certified sup never below that grid's can
# only stop later. The windows pin activations.integration_window, centred
# on the anchor at tolerance eps/32.
BUILTIN_CERTS = {
    "relu": ((0.0, 8.0, 64), (0.0, 8.0, 64), (0.0, 8.0, 64)),
    "leaky_relu:lam=0.1": ((0.0, 8.0, 64), (0.0, 8.0, 64), (0.0, 8.0, 64)),
    "sigmoid": ((-8.0, 32.0, 64), (-16.0, 32.0, 64), (-16.0, 32.0, 128)),
    "tanh": ((-4.0, 16.0, 64), (-8.0, 16.0, 64), (-8.0, 16.0, 256)),
    "elu:alpha=1": ((-8.0, 16.0, 64), (-16.0, 32.0, 128), (-16.0, 32.0, 512)),
    "gelu": ((-4.0, 8.0, 64), (-8.0, 16.0, 64), (-8.0, 16.0, 256)),
    "softplus": ((-8.0, 32.0, 64), (-16.0, 32.0, 64), (-16.0, 32.0, 256)),
    "swish:beta=1": ((-16.0, 32.0, 64), (-16.0, 32.0, 128), (-16.0, 32.0, 256)),
}
ORACLE_EPS = (1e-1, 1e-2, 1e-3)


def dense_grid_error(act, net, cert):
    """Max |f - net| on 2^16 points over twice the window, 512 per panel
    inside it, and far out to 1e6. With 512 points a panel, the grid misses
    a panel's peak error by about (1/512)^2 relative; 2^16 points alone
    miss it by up to 1e-3 at 512 panels."""
    x, t, n = cert.anchor, cert.window_halfwidth, cert.partition_size
    far = np.geomspace(max(abs(x) + 2.0 * t, 1.0), 1e6, 32)
    grid = np.concatenate([np.linspace(x - 2.0 * t, x + 2.0 * t, 2**16),
                           np.linspace(x - t, x + t, 1024 * n + 1), far, -far])
    return float(np.max(np.abs(np.asarray(act.f(grid), float) - eval_relu1d(net, grid))))


def tanh_file(tmp_path, p=1.3, q=0.7):
    t = f"tanh({q!r}*x)"
    spec = {"name": "expr_tanh", "f": f"{p!r}*{t}", "f1": f"{p * q!r}*(1-{t}**2)",
            "f2": f"{-2 * p * q * q!r}*{t}*(1-{t}**2)",
            "asymptote_left": [0.0, -p], "asymptote_right": [0.0, p]}
    path = tmp_path / "tanh.json"
    path.write_text(json.dumps(spec))
    return A.by_name(f"file:{path}")


@pytest.mark.parametrize("eps_index", range(len(ORACLE_EPS)))
@pytest.mark.parametrize("ref", [*BUILTIN_CERTS, "swish:beta=0.6", "swish:beta=1.7",
                                 "elu:alpha=0.55", "elu:alpha=1.7", "file:tanh"])
def test_certified_sup_against_dense_grid(ref, eps_index, tmp_path):
    act = tanh_file(tmp_path) if ref == "file:tanh" else A.by_name(ref)
    eps = ORACLE_EPS[eps_index]
    net, cert = approximate_activation(act, eps)
    oracle = dense_grid_error(act, net, cert)
    assert oracle <= cert.sup_error_measured <= eps
    assert cert.sup_error_measured == pytest.approx(oracle, rel=1e-5)
    if ref in BUILTIN_CERTS:
        assert (cert.anchor, cert.window_halfwidth, cert.partition_size) == BUILTIN_CERTS[ref][eps_index]


def test_certified_sup_finds_the_peak_inside_a_panel():
    # a 64-panel sigmoid net on [-16, 16] anchored at 0 interpolates f at
    # its knots, so the error there is rounding and the sup sits at the
    # roots of f'(t) = slope inside the panels
    act = sigmoid()
    slope = float(act.f1(0.0))
    net = relu1d._build_net(act, 0.0, slope, slope, 16.0, 64)
    sup, _ = relu1d._certified_sup(act, net, [-16.0, 0.0, 16.0])
    knots = np.linspace(-16.0, 16.0, 129)
    assert np.max(np.abs(act.f(knots) - eval_relu1d(net, knots))) < 1e-9 * sup
    grid = np.linspace(-16.0, 16.0, 2**16 + 1)
    dense = float(np.max(np.abs(act.f(grid) - eval_relu1d(net, grid))))
    assert dense <= sup
    assert sup == pytest.approx(dense, rel=1e-5)


def test_certified_sup_covers_the_tails():
    # on [-4, 4] sigmoid is still 0.018 from its asymptotes, so the error
    # beyond the window, which tends to l(R) - net(R), is the sup
    act = sigmoid()
    slope = float(act.f1(0.0))
    net = relu1d._build_net(act, 0.0, slope, slope, 4.0, 64)
    sup, _ = relu1d._certified_sup(act, net, [-4.0, 0.0, 4.0])
    far = np.array([-1e6, 1e6])
    assert sup == pytest.approx(np.max(np.abs(act.f(far) - eval_relu1d(net, far))), rel=1e-9)
    grid = np.linspace(-64.0, 64.0, 2**16 + 1)
    assert np.max(np.abs(act.f(grid) - eval_relu1d(net, grid))) <= sup


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


def test_no_window_raises_nonintegrable(monkeypatch):
    # gamma's window for tanh is 16; capped at 8, no window has a tail of
    # at most eps/32
    act = tanh()
    A.gamma(act)
    monkeypatch.setattr(A, "_MAX_WINDOW", 8.0)
    with pytest.raises(NonIntegrable, match=r"tanh stays above 3\.125e-08"):
        approximate_activation(act, 1e-6)


@pytest.mark.parametrize("eps", [0, -1.0, np.nan, np.inf])
def test_eps_must_be_finite_and_positive(eps):
    act = sigmoid()
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        approximate_activation(act, eps)
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        rewrite_to_relu(TwoLayerNet([1.0], [[1.0]], [0.0], act), eps)


# ---------------------------------------------------------------------------
# the approximant kept on its activation


@pytest.mark.parametrize("name", ["sigmoid", "tanh", "gelu", "elu:alpha=2"])
def test_second_call_returns_the_kept_approximant(name):
    act = A.by_name(name)
    net, cert = approximate_activation(act, 1e-2)
    again_net, again_cert = approximate_activation(act, 1e-2)
    assert again_net is net and again_cert is cert
    cold_net, cold_cert = approximate_activation(A.by_name(name), 1e-2)
    for kept, cold in zip((net.a, net.b, net.c), (cold_net.a, cold_net.b, cold_net.c)):
        assert kept.shape == cold.shape and kept.tobytes() == cold.tobytes()
    assert vars(cert) == vars(cold_cert)


def test_kept_approximant_is_read_only():
    net, _ = approximate_activation(sigmoid(), 1e-2)
    for arr in (net.a, net.b, net.c):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        net.a *= 2.0


def test_another_eps_replaces_the_kept_approximant():
    act = sigmoid()
    coarse, _ = approximate_activation(act, 1e-1)
    fine, cert = approximate_activation(act, 1e-2)
    assert fine is not coarse and cert.epsilon_requested == 1e-2
    assert approximate_activation(act, 1e-2)[0] is fine
    # one entry only: going back to 1e-1 builds again, the same net
    rebuilt, _ = approximate_activation(act, 1e-1)
    assert rebuilt is not coarse and rebuilt.a.tobytes() == coarse.a.tobytes()
    # an equal eps of another type is another key, so the certificate
    # records the eps as given, as a build would
    _, int_cert = approximate_activation(act, 1)
    _, float_cert = approximate_activation(act, 1.0)
    assert type(int_cert.epsilon_requested) is int
    assert type(float_cert.epsilon_requested) is float
