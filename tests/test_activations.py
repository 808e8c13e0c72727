"""Activation norms against closed forms, plus the error paths."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, ndtr

from pathnorm import activations as A
from pathnorm.activations import (
    Activation,
    by_name,
    catalog,
    custom_activation,
    elu,
    gelu,
    leaky_relu,
    relu,
    sigmoid,
    softplus,
    swish,
    tanh,
)
from pathnorm.errors import NoAsymptote, NonIntegrable, ParseError
from pathnorm.relu1d import approximate_activation

GELU_GAMMA = 4.0 * (ndtr(math.sqrt(2)) + (1 + math.sqrt(2)) / (math.e * math.sqrt(math.pi))) - 3.0

# reference values recomputed by hand from the defining integrals
CLOSED = [
    ("relu", 1.0),
    ("leaky_relu:lam=0", 1.0),
    ("leaky_relu:lam=0.1", 1.1),
    ("sigmoid", 1.5),
    ("tanh", 5.0),
    ("elu:alpha=0.5", 2.5),
    ("elu:alpha=1", 3.0),
    ("elu:alpha=2", 7.0),
    ("gelu", GELU_GAMMA),
    ("softplus", 1.0 + 2.0 * math.log(2)),
]


@pytest.mark.parametrize("ref,expected", CLOSED)
def test_gamma_matches_closed_form(ref, expected):
    act = by_name(ref)
    assert act.closed_form_gamma == pytest.approx(expected, abs=1e-12)
    assert A.gamma(act) == pytest.approx(expected, abs=1e-3)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_swish_gamma(beta):
    # the two constants solve e^{-t} = (t-2)/(t+2) on (2, 3)
    act = swish(beta)
    assert A.gamma(act) == pytest.approx(1.7569 / beta + 1.3994, abs=1e-3)
    assert A.gamma(act) == pytest.approx(act.closed_form_gamma, abs=1e-6)


@pytest.mark.parametrize("beta", np.logspace(-2, 3, 11))
def test_swish_gamma_matches_closed_form_up_to_max_beta(beta):
    # quadrature drops below the closed form above beta of about 1900,
    # so swish refuses beta above 1000
    act = swish(float(beta))
    assert A.gamma(act) == pytest.approx(act.closed_form_gamma, abs=1e-9)


def test_swish_refuses_beta_above_1000():
    assert by_name("swish:beta=1000").params == {"beta": 1000.0}
    with pytest.raises(ParseError, match="beta <= 1000"):
        by_name("swish:beta=1001")


def test_swish_root_literal_is_brentqs_root():
    # swish is built from the literal so that it loads no root-finder
    from scipy import optimize

    t2 = optimize.brentq(lambda t: np.exp(-t) - (t - 2.0) / (t + 2.0), 2.0 + 1e-9, 10.0)
    assert t2 == A._SWISH_T2


def test_logistic_against_expit():
    # scipy's expit is the oracle for the numpy logistic of sigmoid, softplus and swish
    tiny = np.finfo(float).smallest_subnormal
    specials = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, 708.9, -708.9,
                709.0, -709.0, 709.1, -709.1, 745.2, -745.2]
    xs = np.concatenate([np.linspace(-745.0, 745.0, 1_000_001),
                         np.random.default_rng(0).uniform(-40.0, 40.0, 1_000_000), specials])
    got, want = A.logistic(xs), expit(xs)
    normal = want >= 1e-300
    assert np.all(np.abs(got[normal] - want[normal]) <= 4 * np.spacing(want[normal]))
    assert np.all(np.abs(got[~normal] - want[~normal]) <= 1.3e-308)
    assert np.all(np.diff(A.logistic(np.linspace(-800.0, 800.0, 2_000_001))) >= 0.0)
    assert np.isnan(A.logistic(np.nan)) and np.isnan(A.logistic([1.0, np.nan])[1])
    assert isinstance(A.logistic(0.5), float)
    assert A.logistic(np.zeros((2, 3))).shape == (2, 3)


def test_relu_gamma_is_exactly_one():
    # rad-check --family relu uses rad_bound_relu, i.e. gamma 1.0, without computing it
    parts = A.gamma_parts(relu())
    assert (parts.gamma0, parts.linear_term, parts.total) == (0.0, 1.0, 1.0)


def test_gamma_parts_split():
    parts = A.gamma_parts(sigmoid())
    assert parts.gamma0 == pytest.approx(1.5, abs=1e-6)
    assert parts.linear_term == pytest.approx(0.0, abs=1e-9)

    parts = A.gamma_parts(tanh())
    assert parts.gamma0 == pytest.approx(4.0, abs=1e-6)
    assert parts.linear_term == pytest.approx(1.0, abs=1e-6)

    # singular case: integral over the smooth pieces plus the kink charge
    parts = A.gamma_parts(elu(2.0))
    assert parts.gamma0 == pytest.approx(4.0, abs=1e-6)
    assert parts.linear_term == pytest.approx(3.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.9, 4.0).filter(lambda v: abs(v - 1.0) > 1e-3))
def test_leaky_gamma_formula(lam):
    assert A.gamma(leaky_relu(lam)) == pytest.approx(abs(lam) + 1.0, abs=1e-9)


def _affine(slope, intercept):
    return Activation(
        name="affine",
        f=lambda x: slope * np.asarray(x, float) + intercept,
        f1=lambda x: np.full_like(np.asarray(x, float), slope),
        f2=lambda x: np.zeros_like(np.asarray(x, float)),
        asymptote_left=(slope, intercept),
        asymptote_right=(slope, intercept),
    )


def test_affine_gamma0_is_zero():
    assert A.gamma0(_affine(2.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_affine_asymptotes():
    got = A.asymptotes(_affine(2.0, 1.0))
    assert got == pytest.approx((2.0, 1.0, 2.0, 1.0), abs=1e-8)


def test_gamma0_invariant_under_affine_shift():
    base = sigmoid()
    shifted = Activation(
        name="sigmoid_plus_line",
        f=lambda x: base.f(x) + 3.0 * np.asarray(x, float) - 2.0,
        f1=lambda x: base.f1(x) + 3.0,
        f2=base.f2,
        asymptote_left=(3.0, -2.0),
        asymptote_right=(3.0, -1.0),
    )
    assert A.gamma0(shifted) == pytest.approx(A.gamma0(base), abs=1e-7)


def test_inf_g_sigmoid_attained_in_left_limit():
    x_star, g_star = A.inf_g(sigmoid())
    assert g_star == pytest.approx(0.0, abs=1e-9)
    assert x_star == -math.inf


def test_inf_g_tanh():
    _, g_star = A.inf_g(tanh())
    assert g_star == pytest.approx(1.0, abs=1e-6)


def test_inf_g_dead_rectifier():
    # lam=0 kills both f and f' on the negative axis
    _, g_star = A.inf_g(leaky_relu(0.0))
    assert g_star == pytest.approx(0.0, abs=1e-12)


def test_inf_g_affine_interior_minimum():
    # g(x) = |2x+1| + 2(|x|+2) is constant at 5 on [-1/2, 0]
    x_star, g_star = A.inf_g(_affine(2.0, 1.0))
    assert g_star == pytest.approx(5.0, abs=1e-6)
    assert -0.5 - 1e-6 <= x_star <= 1e-6


def test_inf_g_refines_between_tied_grid_points():
    # the identity's g(x) = 2|x| + 2 is equal at the two grid points around 0
    g_star = A.gamma(_affine(1.0, 0.0))
    assert 2.0 <= g_star <= 2.0 + 1e-6


@pytest.mark.parametrize("act", catalog(), ids=lambda a: a.label)
def test_asymptotes_match_stored(act):
    a, b, c, d = A.asymptotes(act)
    assert (a, b) == pytest.approx(act.asymptote_left, abs=1e-6)
    assert (c, d) == pytest.approx(act.asymptote_right, abs=1e-6)


@pytest.mark.parametrize("act", catalog(), ids=lambda a: a.label)
def test_asymptote_residual_at_window_edge(act):
    for x, (slope, intercept) in ((-64.0, act.asymptote_left), (64.0, act.asymptote_right)):
        assert abs(float(act.f(x)) - (slope * x + intercept)) <= 1e-5


@pytest.mark.parametrize("act", catalog(), ids=lambda a: a.label)
def test_continuity_and_derivatives(act):
    for x0 in act.kink[:1]:
        near = x0 + np.array([-1e-7, -1e-9, 1e-9, 1e-7])
        vals = np.asarray(act.f(near), float)
        assert np.all(np.abs(vals - float(act.f(x0))) < 1e-6)
    # centered differences away from kinks
    rng = np.random.default_rng(3)
    xs = rng.uniform(-6, 6, size=200)
    for x0 in act.kink[:1]:
        xs = xs[np.abs(xs - x0) > 1e-2]
    h = 1e-5
    fd1 = (np.asarray(act.f(xs + h)) - np.asarray(act.f(xs - h))) / (2 * h)
    fd2 = (np.asarray(act.f1(xs + h)) - np.asarray(act.f1(xs - h))) / (2 * h)
    assert np.allclose(fd1, np.asarray(act.f1(xs), float), rtol=1e-5, atol=1e-6)
    assert np.allclose(fd2, np.asarray(act.f2(xs), float), rtol=1e-3, atol=1e-5)


def _sampled_lipschitz_sup(act):
    """Sup of |f'| over a wide grid, the one-sided kink slopes and the
    asymptote slopes: a value the certified constant must dominate."""
    xs = np.concatenate([
        np.linspace(-40.0, 40.0, 100_001),
        np.geomspace(40.0, 1e6, 64),
        -np.geomspace(40.0, 1e6, 64),
    ])
    sup = float(np.max(np.abs(act.f1(xs))))
    for slope in act.kink[1:]:
        sup = max(sup, abs(slope))
    return max(sup, abs(act.asymptote_left[0]), abs(act.asymptote_right[0]))


def test_lipschitz_bounds():
    assert A.lipschitz_constant(relu()) == pytest.approx(1.0, abs=1e-9)
    assert _sampled_lipschitz_sup(relu()) == pytest.approx(1.0, abs=1e-12)

    assert A.lipschitz_constant(sigmoid()) == pytest.approx(1.5, abs=1e-6)
    assert _sampled_lipschitz_sup(sigmoid()) == pytest.approx(0.25, abs=1e-9)

    assert A.lipschitz_constant(tanh()) == pytest.approx(5.0, abs=1e-6)
    assert _sampled_lipschitz_sup(tanh()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("act", catalog(), ids=lambda a: a.label)
def test_lipschitz_dominates_empirical(act):
    assert _sampled_lipschitz_sup(act) <= A.lipschitz_constant(act) * (1 + 1e-12)


def test_multiple_singular_points_rejected():
    hard_clip = {
        "name": "hard_clip",
        "f": "max(-1, min(x, 1))",
        "f1": "(1 - sign(abs(x) - 1)) / 2",
        "f2": "0",
        "asymptote_left": [0, -1],
        "asymptote_right": [0, 1],
        "singular_points": [-1, 1],
        "one_sided_f1": [[0, 1], [1, 0]],
    }
    with pytest.raises(ParseError, match="2 singular points"):
        custom_activation(hard_clip)


@pytest.mark.parametrize("act", catalog() + [swish(0.2), swish(5.0)], ids=lambda a: a.label)
def test_curvature_breaks_leave_one_sign_per_piece(act):
    window = A.integration_window(act)
    for ends in ((-window, 0.0, window), (-window, -0.75), (0.3, window), (-3.7, 5.1), (-8.0, 8.0)):
        breaks = A.curvature_breaks(act, ends)
        assert breaks == sorted(set(breaks))
        assert breaks[0] == min(ends) and breaks[-1] == max(ends) and set(ends) <= set(breaks)
        assert not (act.kink and min(ends) < act.kink[0] < max(ends)) or act.kink[0] in breaks
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            vals = np.asarray(act.f2(np.linspace(lo, hi, 66)[1:-1]), float)
            assert (vals >= 0).all() or (vals <= 0).all(), (ends, lo, hi)


@pytest.mark.parametrize("ref, interior", [
    ("sigmoid", [0.0]),
    ("tanh", [0.0]),
    ("gelu", [-math.sqrt(2.0), math.sqrt(2.0)]),
    ("swish:beta=1", [-A._SWISH_T2, A._SWISH_T2]),
    ("swish:beta=5", [-A._SWISH_T2 / 5.0, A._SWISH_T2 / 5.0]),
    ("softplus", []),
    ("elu:alpha=1", []),
])
def test_curvature_breaks_pinned(ref, interior):
    # on (-8, 8) the 4097-point grid has a sample at 0, where f'' of sigmoid
    # and tanh is exactly 0: the sign change lies between its neighbours
    breaks = A.curvature_breaks(by_name(ref), (-8.0, 8.0))
    assert breaks[0] == -8.0 and breaks[-1] == 8.0
    assert breaks[1:-1] == pytest.approx(interior, abs=1e-11)


# the window each catalog activation's gamma integrates over
CATALOG_WINDOWS = {
    "relu": 8.0,
    "leaky_relu:lam=0.1": 8.0,
    "sigmoid": 32.0,
    "tanh": 16.0,
    "elu:alpha=1": 32.0,
    "gelu": 8.0,
    "softplus": 32.0,
    "swish:beta=1": 32.0,
}


def test_integration_window_pinned():
    assert {act.label: A.integration_window(act) for act in catalog()} == CATALOG_WINDOWS


def test_quadratic_is_nonintegrable():
    quad = Activation(
        name="square",
        f=lambda x: np.asarray(x, float) ** 2,
        f1=lambda x: 2.0 * np.asarray(x, float),
        f2=lambda x: np.full_like(np.asarray(x, float), 2.0),
        asymptote_left=(0.0, 0.0),
        asymptote_right=(0.0, 0.0),
    )
    with pytest.raises(NonIntegrable):
        A.gamma0(quad)


def test_no_asymptote_detected():
    wavy = Activation(
        name="sine",
        f=lambda x: np.sin(np.asarray(x, float)),
        f1=lambda x: np.cos(np.asarray(x, float)),
        f2=lambda x: -np.sin(np.asarray(x, float)),
        asymptote_left=(0.0, 0.0),
        asymptote_right=(0.0, 0.0),
    )
    with pytest.raises(NoAsymptote):
        A.asymptotes(wavy)


def test_by_name_parses_hyperparameters():
    act = by_name("elu:alpha=0.5")
    assert act.name == "elu"
    assert act.params == {"alpha": 0.5}
    assert by_name("leaky_relu:lam=0.25").params == {"lam": 0.25}
    assert by_name("swish:beta=2").label == "swish:beta=2"


@pytest.mark.parametrize("ref", ["nope", "elu:alpha", "elu:alpha=x", "sigmoid:badkey=1",
                                 "leaky_relu:lambda=0.25"])
def test_by_name_rejects_malformed(ref):
    with pytest.raises(ParseError):
        by_name(ref)


def test_custom_activation_file(tmp_path):
    spec = tmp_path / "softplus_clone.json"
    spec.write_text(
        """{
          "name": "softplus_clone",
          "f": "ln(1 + exp(x))",
          "f1": "1 / (1 + exp(-x))",
          "f2": "exp(-abs(x)) / (1 + exp(-abs(x)))**2",
          "asymptote_left": [0, 0],
          "asymptote_right": [1, 0]
        }"""
    )
    act = by_name(f"file:{spec}")
    assert A.gamma(act) == pytest.approx(1.0 + 2.0 * math.log(2), abs=1e-3)


def test_custom_activation_with_constant_derivative(tmp_path):
    spec = tmp_path / "leaky_clone.json"
    spec.write_text(json.dumps({
        "f": "max(x, 0.5*x)",
        "f1": "0.75 + 0.25*sign(x)",
        "f2": "0",
        "asymptote_left": [0.5, 0],
        "asymptote_right": [1, 0],
        "singular_points": [0],
        "one_sided_f1": [[0.5, 1]],
    }))
    act = by_name(f"file:{spec}")
    assert act.f2(np.zeros(3)).shape == (3,)
    assert A.gamma(act) == pytest.approx(1.5, abs=1e-12)


def test_custom_activation_bad_json_reports_position(tmp_path):
    spec = tmp_path / "broken.json"
    spec.write_text('{\n "f": "x",\n bad\n}')
    with pytest.raises(ParseError) as err:
        by_name(f"file:{spec}")
    assert err.value.line == 3


def test_one_quadrature_per_activation(monkeypatch):
    calls = []
    real = A.gamma0

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(A, "gamma0", counting)
    act = swish(1.25)
    A.gamma_parts(act)
    approximate_activation(act, 1e-1)
    A.gamma(act)
    assert len(calls) == 1


def test_one_inf_g_search_per_activation(monkeypatch):
    # the search evaluates g on a grid; the anchor then tries single points
    grids = []
    real = A.g_value

    def counting(act, x):
        if np.size(x) > 1:
            grids.append(np.size(x))
        return real(act, x)

    monkeypatch.setattr(A, "g_value", counting)
    act = tanh()
    A.gamma(act)
    approximate_activation(act, 1e-2)
    assert len(grids) == 1


@pytest.mark.parametrize("make", [sigmoid, tanh, gelu, relu])
def test_value_and_slope_of_an_array_is_pointwise(make):
    # the four activations training fits share one pass, and an array takes
    # in-place ufuncs where a scalar takes plain expressions: both give the
    # same bits at every point (the edge points too), for a 1-d and a 2-d array
    act = make()
    assert act.f_f1 is not None
    points = np.concatenate([VALUE_SLOPE_POINTS[:-13:97], VALUE_SLOPE_POINTS[-13:]])
    with np.errstate(all="ignore"):
        for x in (points, points.reshape(-1, 4)[:, ::-1]):
            value, slope = act.value_and_slope(x)
            for i in np.ndindex(x.shape):
                pointwise = act.value_and_slope(float(x[i]))
                assert value[i].tobytes() == pointwise[0].tobytes(), x[i]
                assert slope[i].tobytes() == pointwise[1].tobytes(), x[i]


@pytest.mark.parametrize(
    "make", [gelu, lambda: swish(1.7), lambda: swish(0.3)],
    ids=["gelu", "swish:beta=1.7", "swish:beta=0.3"],
)
def test_activation_freed_without_the_cyclic_collector(make):
    # gelu and these swishes have f'' sign changes that brentq refines;
    # nothing it keeps may hold the activation in a reference cycle
    act = make()
    enabled = gc.isenabled()
    gc.disable()
    try:
        A.gamma(act)
        approximate_activation(act, 1e-2)
        ref = weakref.ref(act)
        del act
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_gamma_memo_dies_with_its_activation():
    act = swish(1.25)
    A.gamma(act)
    approximate_activation(act, 1e-1)
    ref = weakref.ref(act)
    del act
    gc.collect()
    assert ref() is None


_TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
VALUE_SLOPE_POINTS = np.concatenate([
    np.linspace(-40.0, 40.0, 100_001),
    [0.0, -0.0, np.inf, -np.inf, np.nan, _TINY, -_TINY, 1e-310, -1e-310,
     709.0, -709.0, 745.0, -745.0],
])


EXPR_TANH = {"name": "expr_tanh", "f": "tanh(x)", "f1": "1 - tanh(x)**2",
             "f2": "-2*tanh(x)*(1 - tanh(x)**2)", "asymptote_left": [0, -1],
             "asymptote_right": [0, 1]}


def _same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@pytest.mark.parametrize(
    "act",
    catalog() + [custom_activation(EXPR_TANH)],
    ids=lambda a: a.label,
)
def test_value_and_slope_is_f_and_f1_bit_for_bit(act):
    if act.spec is not None:
        assert act.f_f1 is None  # a custom spec takes the fallback
    # every grid point as a 1-d and a 2-d array, the edge points and every
    # 100th grid point also as floats, numpy scalars and 0-d arrays; inf and
    # nan make gelu and swish warn in f and f1 alike, so warnings are off
    # and only the bits are compared
    scalars = np.concatenate([VALUE_SLOPE_POINTS[::100], VALUE_SLOPE_POINTS[-13:]])
    arrays = [VALUE_SLOPE_POINTS, VALUE_SLOPE_POINTS.reshape(2, -1)]
    zero_d = [np.array(v) for v in scalars.tolist()]
    with np.errstate(all="ignore"):
        for x in [*arrays, *scalars.tolist(), *scalars, *zero_d]:
            value, slope = act.value_and_slope(x)
            assert _same_bits(value, act.f(x)), x
            assert _same_bits(slope, act.f1(x)), x
