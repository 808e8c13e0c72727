"""Regularized training: losses, gradients, descent, regularization path."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathnorm import activations as A
from pathnorm.activations import gelu, relu, sigmoid, tanh
from pathnorm.bounds import lambda_n_two_layer
from pathnorm.errors import DimMismatch, Diverged, EmptyDataset
from pathnorm.rng import make_rng
from pathnorm.train import (
    TrainConfig,
    _risk_gradient,
    apriori_experiment,
    empirical_risk,
    fit,
    gradient,
    init_two_layer,
    objective,
    truncated_loss,
)
from pathnorm.twolayer import (
    Dataset,
    DiscreteBarronRep,
    TwoLayerNet,
    eval_two_layer,
    modified_path_norm,
)

ATOM = DiscreteBarronRep([1.0], [[1.0, 0.5, 0.25]], [0.9])


def atom_dataset(seed, n=128, d=2, act=None):
    act = act or sigmoid()
    x = make_rng(seed).uniform(-1, 1, size=(n, d))
    return Dataset(x, ATOM.function(act, x))


def test_truncated_loss_values():
    got = truncated_loss([-5.0, 2.0, -3.0], [0.0, 0.0, 1.0])
    assert np.allclose(got, [0.0, 0.5, 0.5])


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-50, 50, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
def test_truncation_idempotent(pred, y):
    once = truncated_loss(pred, y)
    assert truncated_loss(np.clip(pred, 0.0, 1.0), y) == pytest.approx(float(once))
    assert once >= 0.0


def test_empirical_risk_zero_net():
    net = TwoLayerNet([0.0], [[0.0, 0.0]], [0.0], relu())
    data = Dataset(np.zeros((2, 2)), [1.0, 1.0])
    assert empirical_risk(net, data) == pytest.approx(0.5)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        Dataset(np.empty((0, 2)), [])


def test_objective_is_risk_plus_penalty():
    data = atom_dataset(0)
    net = init_two_layer(2, 4, sigmoid(), seed=1)
    risk = empirical_risk(net, data)
    for lam in (0.0, 0.1, 2.0):
        expect = risk + lam * modified_path_norm(net)
        assert objective(net, data, lam) == pytest.approx(expect, rel=1e-14)


def test_zero_net_zero_targets_zero_gradient():
    net = TwoLayerNet([0.0], [[0.0, 0.0]], [0.0], relu())
    data = Dataset(make_rng(0).uniform(-1, 1, (8, 2)), np.zeros(8))
    da, db, dc = gradient(net, data, 0.0)
    assert not da.any() and not db.any() and not dc.any()


def test_penalty_subgradient_single_unit():
    # pure-penalty part: d/da |a|(|b1|+|b2|+|c|+1), etc., with sign(0)=0
    net = TwoLayerNet([2.0], [[3.0, -1.0]], [-0.5], relu())
    data = Dataset(np.zeros((1, 2)), [0.0])  # prediction 0, target 0: no risk grad
    da, db, dc = gradient(net, data, 1.0)
    assert da[0] == pytest.approx(3.0 + 1.0 + 0.5 + 1.0)
    assert np.allclose(db, [[2.0, -2.0]])
    assert dc[0] == pytest.approx(-2.0)


def test_gradient_matches_finite_differences():
    rng = make_rng(6)
    x = rng.uniform(-1, 1, size=(16, 2))
    y = rng.uniform(0.3, 0.7, size=16)
    data = Dataset(x, y)
    # positive a keeps predictions inside (0, 1); entries away from 0 keep
    # the penalty differentiable
    net = TwoLayerNet([0.3, 0.2], rng.uniform(0.3, 1.0, (2, 2)), [0.4, -0.6], sigmoid())
    lam = 0.05
    da, db, dc = gradient(net, data, lam)
    h = 1e-6

    def j(a, b, c):
        return objective(TwoLayerNet(a, b, c, sigmoid()), data, lam)

    for i in range(2):
        ap, am = net.a.copy(), net.a.copy()
        ap[i] += h
        am[i] -= h
        fd = (j(ap, net.b, net.c) - j(am, net.b, net.c)) / (2 * h)
        assert da[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        cp, cm = net.c.copy(), net.c.copy()
        cp[i] += h
        cm[i] -= h
        fd = (j(net.a, net.b, cp) - j(net.a, net.b, cm)) / (2 * h)
        assert dc[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        for k in range(2):
            bp, bm = net.b.copy(), net.b.copy()
            bp[i, k] += h
            bm[i, k] -= h
            fd = (j(net.a, bp, net.c) - j(net.a, bm, net.c)) / (2 * h)
            assert db[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_fit_is_deterministic():
    data = atom_dataset(3)
    init = init_two_layer(2, 8, sigmoid(), seed=3)
    cfg = TrainConfig(steps=40, step_size=0.1, lam=0.01, batch=32, seed=3)
    net1, tr1 = fit(data, cfg, init)
    net2, tr2 = fit(data, cfg, init)
    assert np.array_equal(tr1, tr2)
    assert np.array_equal(net1.a, net2.a)
    assert np.array_equal(net1.b, net2.b)
    assert np.array_equal(net1.c, net2.c)


def test_full_batch_fit_evaluates_each_iterate_once():
    # the objective reads f on the full data, a step reads f_f1 (value and
    # slope) on its batch; with full batches one f_f1 pass gives both, so
    # f runs only on the last iterate, and batch mode adds the steps' f_f1
    sig = sigmoid()
    calls = []

    def counting(name):
        def call(x):
            calls.append((name, x.shape))
            return getattr(sig, name)(x)
        return call

    act = dataclasses.replace(
        sig, **{name: counting(name) for name in ("f", "f1", "f2", "f_f1")}
    )
    data = atom_dataset(6)
    init = init_two_layer(2, 8, act, seed=6)
    for batch, steps in itertools.product((None, 16), (1, 10)):
        calls.clear()
        cfg = TrainConfig(steps=steps, step_size=0.1, lam=0.01, batch=batch)
        _, trace = fit(data, cfg, init)
        assert trace.size == steps + 1
        full, step = ("f", (data.n, 8)), ("f_f1", (batch or data.n, 8))
        if batch is None:
            assert calls == [step] * steps + [full]
        else:
            assert calls == [full, step] * steps + [full]


def _risk_gradient_oracle(net, x, y):
    # reference: f and f1 evaluated separately, every temporary a fresh array
    z = x @ net.b.T + net.c
    sig = np.asarray(net.activation.f(z), float)
    pred = sig @ net.a
    risk = float(np.mean(truncated_loss(pred, y)))
    active = (pred >= 0.0) & (pred <= 1.0)
    err = (np.clip(pred, 0.0, 1.0) - y) * active / x.shape[0]
    da = err @ sig
    weighted = (err[:, None] * np.asarray(net.activation.f1(z), float)) * net.a
    db = weighted.T @ x
    dc = weighted.sum(axis=0)
    return risk, da, db, dc


def _fit_oracle(data, cfg, init):
    # reference: the descent loop as first written, with the risk from
    # np.mean, every gradient from _risk_gradient_oracle, the objective's
    # path norm and the threshold's unit weights computed apart
    full = cfg.batch is None or cfg.batch >= data.n
    rng = make_rng(cfg.seed)
    s = cfg.step_size
    order = np.arange(data.n)
    cursor = 0
    net = best = init
    trace = []
    for k in range(cfg.steps + 1):
        stepping = k < cfg.steps
        if full and stepping:
            risk, da, db, dc = _risk_gradient_oracle(net, data.inputs, data.targets)
        else:
            pred = np.asarray(net.activation.f(data.inputs @ net.b.T + net.c), float) @ net.a
            risk = float(np.mean(truncated_loss(pred, data.targets)))
        j = risk + cfg.lam * modified_path_norm(net)
        if k == 0 or j < best_j:
            best, best_j = net, j
        trace.append(j)
        if not stepping:
            break
        if not full:
            if cursor + cfg.batch > data.n:
                rng.shuffle(order)
                cursor = 0
            take = order[cursor : cursor + cfg.batch]
            cursor += cfg.batch
            _, da, db, dc = _risk_gradient_oracle(net, data.inputs[take], data.targets[take])
        a = net.a - s * da
        if cfg.lam != 0.0:
            a_abs = np.abs(net.a)
            db = db + cfg.lam * (a_abs[:, None] * np.sign(net.b))
            dc = dc + cfg.lam * a_abs * np.sign(net.c)
            t = s * cfg.lam * (np.abs(net.b).sum(axis=1) + np.abs(net.c) + 1.0)
            a = np.sign(a) * np.maximum(np.abs(a) - t, 0.0)
        net = TwoLayerNet(a, net.b - s * db, net.c - s * dc, net.activation)
    return best, np.array(trace)


@pytest.mark.parametrize("make", [sigmoid, tanh, gelu, relu])
def test_fit_matches_oracle_bit_for_bit(make):
    # lam 0.01 lambda_n leaves 6-12 of the 16 units alive after 30 steps,
    # lambda_n zeroes every unit in the first step; batch 64 of 128
    # reshuffles every other step
    act = make()
    data = atom_dataset(9)
    init = init_two_layer(2, 16, act, seed=9)
    lam_n = lambda_n_two_layer(2, data.n, A.gamma(act))
    cfgs = [TrainConfig(steps=0, step_size=0.1, lam=lam_n)] + [
        TrainConfig(steps=30, step_size=0.1, lam=lam, batch=batch, seed=9)
        for batch in (None, 7, 64)
        for lam in (0.0, 0.01 * lam_n, lam_n)
    ]
    for cfg in cfgs:
        got, want = fit(data, cfg, init), _fit_oracle(data, cfg, init)
        assert got[1].tobytes() == want[1].tobytes(), cfg
        for name in "abc":
            assert getattr(got[0], name).tobytes() == getattr(want[0], name).tobytes(), cfg


@pytest.mark.parametrize("make", [sigmoid, tanh, gelu, relu])
def test_risk_gradient_matches_oracle_bit_for_bit(make):
    act = make()
    data = atom_dataset(8, n=96)
    x_all = data.inputs
    rng = make_rng(8)
    for seed in range(3):
        # output weights fitted so the net is about 0.5 + x_0: about half
        # the predictions fall outside [0, 1], where the clamp zeroes
        # their share of the gradient
        net = init_two_layer(2, 64, act, seed=seed)
        sig = act.f(x_all @ net.b.T + net.c)
        a = np.linalg.lstsq(sig, 0.5 + x_all[:, 0], rcond=1e-6)[0]
        net = TwoLayerNet(a, net.b, net.c, act)
        pred = eval_two_layer(net, x_all)
        assert (pred < 0).any() and (pred > 1).any() and ((pred >= 0) & (pred <= 1)).any()
        order = rng.permutation(data.n)
        for batch in (None, 1, 7, 30, 64):
            take = order if batch is None else order[:batch]
            x, y = data.inputs[take], data.targets[take]
            got = _risk_gradient(net, x, y)
            want = _risk_gradient_oracle(net, x, y)
            assert got[0] == want[0]
            for g, w in zip(got[1:], want[1:]):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize(
    "bad",
    [{"batch": 0}, {"batch": -5}, {"steps": -1}, {"step_size": 0.0}, {"step_size": -0.1},
     {"step_size": float("inf")}, {"step_size": float("nan")}, {"lam": -0.01},
     {"lam": float("inf")}, {"lam": float("nan")}],
)
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_apriori_experiment_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps"):
        apriori_experiment(ATOM, sigmoid(), d=2, n=16, m=2, seeds=[0], steps=-1, n_eval=16)


def test_fit_steps_with_the_tested_gradient():
    # one full-batch step by hand: b and c move by `gradient`, the
    # subgradient acceptance criterion 9 checks, and a takes the proximal
    # step on the risk-only da, which here zeroes two of the eight units
    data = atom_dataset(4)
    net = init_two_layer(2, 8, sigmoid(), seed=4)
    lam, s = 0.1, 0.1
    da_risk, _, _ = gradient(net, data, 0.0)
    _, db, dc = gradient(net, data, lam)
    v = net.a - s * da_risk
    thresholds = s * lam * (np.abs(net.b).sum(axis=1) + np.abs(net.c) + 1.0)
    a1 = np.sign(v) * np.maximum(np.abs(v) - thresholds, 0.0)
    assert np.count_nonzero(a1) == 6
    net1 = TwoLayerNet(a1, net.b - s * db, net.c - s * dc, net.activation)
    _, trace = fit(data, TrainConfig(steps=1, step_size=s, lam=lam), net)
    assert trace[1] == objective(net1, data, lam)


def test_fit_rejects_mismatched_dimensions():
    init = init_two_layer(3, 4, sigmoid())
    for batch in (None, 2):
        with pytest.raises(DimMismatch):
            fit(atom_dataset(7, n=4), TrainConfig(steps=2, batch=batch), init)


def test_fit_reduces_realizable_risk():
    data = atom_dataset(42)
    init = init_two_layer(2, 8, sigmoid(), seed=42)
    net, trace = fit(data, TrainConfig(steps=150, step_size=0.1), init)
    assert trace.min() == min(trace)
    assert empirical_risk(net, data) < 0.2 * empirical_risk(init, data)
    assert objective(net, data, 0.0) <= trace.min() + 1e-9


def test_huge_lambda_kills_all_units():
    data = atom_dataset(4)
    init = init_two_layer(2, 8, sigmoid(), seed=4)
    net, trace = fit(data, TrainConfig(steps=5, step_size=0.05, lam=1e6), init)
    assert modified_path_norm(net) == 0.0
    zero_risk = float(np.mean(0.5 * data.targets**2))
    assert trace[-1] == pytest.approx(zero_risk, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_detected():
    data = atom_dataset(5)
    init = init_two_layer(2, 4, sigmoid(), seed=2)
    with pytest.raises(Diverged):
        fit(data, TrainConfig(steps=10, step_size=1e200, lam=1e-12, seed=2), init)


def test_regularization_path_monotone():
    act = sigmoid()
    lam_n = lambda_n_two_layer(2, 256, A.gamma(act))
    first = second = 0
    mids = []
    for seed in range(100, 110):
        data = atom_dataset(seed, n=256)
        init = init_two_layer(2, 16, act, seed=seed)
        norms = []
        for lam in (0.0, 0.02 * lam_n, lam_n):
            net, _ = fit(data, TrainConfig(steps=200, step_size=0.05, lam=lam, seed=seed), init)
            norms.append(modified_path_norm(net))
        first += norms[1] <= norms[0] + 1e-9
        second += norms[2] <= norms[1] + 1e-9
        mids.append(norms[1])
    assert first >= 8
    assert second >= 8
    # the middle lambda shrinks without collapsing the net
    assert np.mean(mids) > 0.5


def test_apriori_experiment_report():
    report = apriori_experiment(
        ATOM, sigmoid(), d=2, n=64, m=8, seeds=[0, 1],
        steps=60, step_size=0.1, n_eval=4096,
    )
    assert len(report.rows) == 2
    assert report.fraction_ok == 1.0
    assert report.lam == pytest.approx(lambda_n_two_layer(2, 64, A.gamma(sigmoid())), rel=1e-9)
    assert report.norm_estimate == pytest.approx(0.9 * (1.75 + 1.0))
    for row in report.rows:
        assert row.population_risk <= row.bound
        assert row.train_objective >= 0.0
