"""Path-norm regularized least squares for two-layer nets.

The objective is

    J(theta) = (1/n) sum_i 0.5 (T(f(x_i)) - y_i)^2 + lam * ||theta||_P~

where T clamps predictions to [0, 1] (targets live there) and ||.||_P~ is
the modified path norm. `gradient` returns the full analytic subgradient.
`fit` runs seeded (mini-batch) descent with a proximal soft-threshold step
on the a-coefficients, so a large lam drives units to exactly zero; the
best iterate visited is returned. A training step evaluates the activation
once, for its value and its slope (`Activation.value_and_slope`).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import activations as act_mod
from .activations import Activation
from .bounds import apriori_bound_two_layer, lambda_n_two_layer
from .errors import DimMismatch, Diverged, NumericalError
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

    def __post_init__(self):
        if self.batch is not None and self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")


def truncated_loss(pred, y):
    """0.5 (clamp(pred, 0, 1) - y)^2, elementwise."""
    t = np.clip(np.asarray(pred, float), 0.0, 1.0)
    return 0.5 * (t - np.asarray(y, float)) ** 2


def empirical_risk(net: TwoLayerNet, data: Dataset) -> float:
    return float(np.mean(truncated_loss(eval_two_layer(net, data.inputs), data.targets)))


def objective(net: TwoLayerNet, data: Dataset, lam: float) -> float:
    return empirical_risk(net, data) + lam * modified_path_norm(net)


def _risk_gradient(net: TwoLayerNet, x: np.ndarray, y: np.ndarray):
    """Mean truncated loss on (x, y) and its analytic subgradient, from
    one forward pass that evaluates the activation once for its value and
    its slope, as (risk, da, db, dc).

    Predictions outside [0, 1] contribute zero (the clamp is flat there).
    """
    z = x @ net.b.T
    z += net.c
    sig, slope = net.activation.value_and_slope(z)
    sig = np.asarray(sig, float)
    pred = sig @ net.a
    diff = np.clip(pred, 0.0, 1.0) - y
    risk = float(np.mean(0.5 * diff**2))
    active = (pred >= 0.0) & (pred <= 1.0)
    err = diff * active / x.shape[0]
    da = err @ sig
    weighted = err[:, None] * np.asarray(slope, float)
    weighted *= net.a
    db = weighted.T @ x
    dc = weighted.sum(axis=0)
    return risk, da, db, dc


def gradient(net: TwoLayerNet, data: Dataset, lam: float):
    """Subgradient of the full objective, as (da, db, dc).

    sign(0) = 0 throughout, the standard subgradient choice.
    """
    _, da, db, dc = _risk_gradient(net, data.inputs, data.targets)
    if lam != 0.0:
        da = da + lam * np.sign(net.a) * unit_weights(net.b, net.c)
        db, dc = _add_bc_penalty(net, lam, db, dc)
    return da, db, dc


def _add_bc_penalty(net: TwoLayerNet, lam: float, db, dc):
    """(db, dc) plus lam times the modified path norm's subgradient in b
    and c; `fit` steps with it and `gradient` returns it."""
    a_abs = np.abs(net.a)
    return db + lam * (a_abs[:, None] * np.sign(net.b)), dc + lam * a_abs * np.sign(net.c)


def init_two_layer(d: int, m: int, act: Activation, seed: int = 0) -> TwoLayerNet:
    # nonnegative output weights: initial predictions must not start below 0
    # for every sample, where the truncated loss has zero subgradient
    rng = make_rng(seed)
    return TwoLayerNet(
        rng.uniform(0.0, 0.1, size=m) / m,
        rng.uniform(-1.0, 1.0, size=(m, d)),
        rng.uniform(-1.0, 1.0, size=m),
        act,
    )


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fit(data: Dataset, cfg: TrainConfig, init: TwoLayerNet):
    """Seeded descent on the regularized objective.

    Returns (best net visited, trace of J): the trace holds steps + 1
    values, J at the initial point and after every step. Each iterate is
    evaluated once on the full data; with full batches that same pass
    gives the gradient. The proximal update on a makes
    lam * (||b_k||_1 + |c_k| + 1) an exact shrinkage threshold; b and c
    take plain subgradient steps.
    """
    if init.input_dim != data.d:
        raise DimMismatch(f"expected inputs of dimension {init.input_dim}, got {data.d}")
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
            risk, da, db, dc = _risk_gradient(net, data.inputs, data.targets)
        else:
            risk = empirical_risk(net, data)
        j = risk + cfg.lam * modified_path_norm(net)
        if k > 0 and not np.isfinite(j):
            raise Diverged(f"objective became {j} during training")
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
            _, da, db, dc = _risk_gradient(net, data.inputs[take], data.targets[take])
        a = net.a - s * da
        if cfg.lam != 0.0:
            db, dc = _add_bc_penalty(net, cfg.lam, db, dc)
            a = _soft_threshold(a, s * cfg.lam * unit_weights(net.b, net.c))
        net = TwoLayerNet(a, net.b - s * db, net.c - s * dc, net.activation)
    return best, np.array(trace)


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
    if not np.isfinite(lam):
        raise NumericalError(f"lam = {lam_multiplier:g} * lambda_n overflows to {lam}")
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
