"""Path-norm regularized least squares for two-layer nets.

The objective is

    J(theta) = (1/n) sum_i 0.5 (T(f(x_i)) - y_i)^2 + lam * ||theta||_P~

where T clamps predictions to [0, 1] (targets live there) and ||.||_P~ is
the modified path norm. `gradient` returns the full analytic subgradient.
`fit` runs seeded (mini-batch) descent with a proximal soft-threshold step
on the a-coefficients, so a large lam drives units to exactly zero; the
best iterate visited is returned.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import activations as act_mod
from .activations import Activation
from .bounds import apriori_bound_two_layer, lambda_n_two_layer
from .errors import Diverged, EmptyDataset
from .rng import make_rng
from .twolayer import (
    Dataset,
    TwoLayerNet,
    barron_norm_estimate,
    eval_two_layer,
    modified_path_norm,
    unit_weights,
)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    step_size: float = 0.05
    lam: float = 0.0
    batch: Optional[int] = None  # None = full batch
    seed: int = 0


def truncated_loss(pred, y):
    """0.5 (clamp(pred, 0, 1) - y)^2, elementwise."""
    t = np.clip(np.asarray(pred, float), 0.0, 1.0)
    return 0.5 * (t - np.asarray(y, float)) ** 2


def empirical_risk(net: TwoLayerNet, data: Dataset) -> float:
    if data.n == 0:
        raise EmptyDataset("risk of an empty sample")
    return float(np.mean(truncated_loss(eval_two_layer(net, data.inputs), data.targets)))


def objective(net: TwoLayerNet, data: Dataset, lam: float) -> float:
    return empirical_risk(net, data) + lam * modified_path_norm(net)


def _risk_gradient(net: TwoLayerNet, x: np.ndarray, y: np.ndarray):
    """Analytic subgradient of the mean truncated loss on (x, y).

    Predictions outside [0, 1] contribute zero (the clamp is flat there).
    """
    z = x @ net.b.T + net.c
    sig = np.asarray(net.activation.f(z), float)
    pred = sig @ net.a
    active = (pred >= 0.0) & (pred <= 1.0)
    err = (np.clip(pred, 0.0, 1.0) - y) * active / x.shape[0]
    da = err @ sig
    weighted = (err[:, None] * np.asarray(net.activation.f1(z), float)) * net.a
    db = weighted.T @ x
    dc = weighted.sum(axis=0)
    return da, db, dc


def gradient(net: TwoLayerNet, data: Dataset, lam: float):
    """Subgradient of the full objective, as (da, db, dc).

    sign(0) = 0 throughout, the standard subgradient choice.
    """
    if data.n == 0:
        raise EmptyDataset("gradient on an empty sample")
    da, db, dc = _risk_gradient(net, data.inputs, data.targets)
    if lam != 0.0:
        da = da + lam * np.sign(net.a) * unit_weights(net.b, net.c)
        db = db + lam * (np.abs(net.a)[:, None] * np.sign(net.b))
        dc = dc + lam * np.abs(net.a) * np.sign(net.c)
    return da, db, dc


def init_two_layer(d: int, m: int, act: Activation, seed: int = 0, scale: float = 0.1) -> TwoLayerNet:
    # nonnegative output weights: initial predictions must not start below 0
    # for every sample, where the truncated loss has zero subgradient
    rng = make_rng(seed)
    return TwoLayerNet(
        rng.uniform(0.0, scale, size=m) / m,
        rng.uniform(-1.0, 1.0, size=(m, d)),
        rng.uniform(-1.0, 1.0, size=m),
        act,
    )


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fit(data: Dataset, cfg: TrainConfig, init: TwoLayerNet):
    """Seeded descent on the regularized objective.

    Returns (best net visited, trace of J after every step). The proximal
    update on a makes lam * (||b_k||_1 + |c_k| + 1) an exact shrinkage
    threshold; b and c take plain subgradient steps.
    """
    if data.n == 0:
        raise EmptyDataset("cannot fit an empty sample")
    a = init.a.copy()
    b = init.b.copy()
    c = init.c.copy()
    act = init.activation
    rng = make_rng(cfg.seed)
    s = cfg.step_size

    def current():
        return TwoLayerNet(a, b, c, act)

    trace = [objective(init, data, cfg.lam)]
    best_j = trace[0]
    best = (a.copy(), b.copy(), c.copy())
    order = np.arange(data.n)
    cursor = 0
    for _ in range(cfg.steps):
        if cfg.batch is None or cfg.batch >= data.n:
            xb, yb = data.inputs, data.targets
        else:
            if cursor + cfg.batch > data.n:
                rng.shuffle(order)
                cursor = 0
            take = order[cursor : cursor + cfg.batch]
            cursor += cfg.batch
            xb, yb = data.inputs[take], data.targets[take]
        da, db, dc = _risk_gradient(current(), xb, yb)
        if cfg.lam != 0.0:
            a_abs = np.abs(a)
            db = db + cfg.lam * (a_abs[:, None] * np.sign(b))
            dc = dc + cfg.lam * a_abs * np.sign(c)
            thresholds = s * cfg.lam * unit_weights(b, c)
            a = _soft_threshold(a - s * da, thresholds)
        else:
            a = a - s * da
        b = b - s * db
        c = c - s * dc
        j = objective(current(), data, cfg.lam)
        if not np.isfinite(j):
            raise Diverged(f"objective became {j} during training")
        trace.append(j)
        if j < best_j:
            best_j = j
            best = (a.copy(), b.copy(), c.copy())
    return TwoLayerNet(*best, act), np.array(trace)


# ---------------------------------------------------------------------------
# a-priori experiment


@dataclass(frozen=True)
class AprioriRow:
    seed: int
    train_objective: float
    population_risk: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class AprioriReport:
    rows: tuple
    fraction_ok: float
    lam: float
    norm_estimate: float


def apriori_experiment(
    rep,
    act: Activation,
    d: int,
    n: int,
    m: int,
    seeds,
    lam_multiplier: float = 1.0,
    delta: float = 0.05,
    steps: int = 300,
    step_size: float = 0.05,
    n_eval: int = 100_000,
) -> AprioriReport:
    """Train against a representable target and compare the measured
    population risk with the a-priori bound, once per seed.

    The target is evaluated exactly from the representation, training
    inputs and the held-out risk grid are uniform on [-1, 1]^d.
    """
    gamma_sigma = act_mod.gamma(act)
    lam = lam_multiplier * lambda_n_two_layer(d, n, gamma_sigma)
    norm_est = barron_norm_estimate(rep)
    bound = apriori_bound_two_layer(norm_est, m, d, n, delta, lam, act)
    rows = []
    for seed in seeds:
        rng = make_rng(seed)
        x_train = rng.uniform(-1.0, 1.0, size=(n, d))
        data = Dataset(x_train, rep.function(act, x_train))
        init = init_two_layer(d, m, act, seed=seed)
        net, trace = fit(
            data, TrainConfig(steps=steps, step_size=step_size, lam=lam, seed=seed), init
        )
        x_eval = rng.uniform(-1.0, 1.0, size=(n_eval, d))
        risk = float(
            np.mean(truncated_loss(eval_two_layer(net, x_eval), rep.function(act, x_eval)))
        )
        rows.append(AprioriRow(int(seed), float(trace.min()), risk, bound, risk <= bound))
    fraction = sum(r.ok for r in rows) / len(rows) if rows else 0.0
    return AprioriReport(tuple(rows), fraction, lam, norm_est)
