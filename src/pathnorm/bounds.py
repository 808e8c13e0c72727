"""Rademacher, posterior and a-priori risk bound formulas, plus an
empirical Rademacher estimator to check them against.

All bounds are for inputs in [-1, 1]^d. Q denotes the norm budget of the
function class: modified path norm for general activations, plain path
norm for ReLU nets, the weighted path norm for residual nets.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import activations as act_mod
from .activations import Activation
from .errors import LambdaTooSmall, NormBudgetViolated, NumericalError
from .resnet import ResNet, eval_resnet, norm_closed
from .rng import make_rng
from .twolayer import TwoLayerNet, c_sigma, eval_two_layer, modified_path_norm, path_norm


def rad_bound_two_layer(q: float, d: int, n: int, gamma_sigma: float) -> float:
    """2 gamma(sigma) Q sqrt(2 ln(2d+2) / n)."""
    return 2.0 * gamma_sigma * q * math.sqrt(2.0 * math.log(2 * d + 2) / n)


def rad_bound_relu(q: float, d: int, n: int) -> float:
    return rad_bound_two_layer(q, d, n, 1.0)


def rad_bound_resnet(q: float, d: int, n: int, gamma_sigma: float) -> float:
    """(4 gamma(sigma) + 1) Q sqrt(2 ln(2d+2) / n), depth-free."""
    return (4.0 * gamma_sigma + 1.0) * q * math.sqrt(2.0 * math.log(2 * d + 2) / n)


def rad_bound_linear(samples) -> float:
    """max_i ||x_i||_inf sqrt(2 ln(2d) / n) for the l1 unit ball of linear maps."""
    x = np.atleast_2d(np.asarray(samples, float))
    n, d = x.shape
    return float(np.max(np.abs(x))) * math.sqrt(2.0 * math.log(2 * d) / n)


def lambda_n_two_layer(d: int, n: int, gamma_sigma: float) -> float:
    """(8 gamma(sigma) sqrt(2 ln(2d+2)) + 1) / sqrt(n)."""
    return (8.0 * gamma_sigma * math.sqrt(2.0 * math.log(2 * d + 2)) + 1.0) / math.sqrt(n)


def lambda_n_resnet(d: int, n: int, gamma_sigma: float) -> float:
    """((8 gamma(sigma) + 2) sqrt(2 ln(2d+2)) + 1) / sqrt(n)."""
    return ((8.0 * gamma_sigma + 2.0) * math.sqrt(2.0 * math.log(2 * d + 2)) + 1.0) / math.sqrt(n)


def posterior_gap_bound(norm: float, d: int, n: int, delta: float, gamma_sigma: float) -> float:
    """Generalization gap at confidence 1 - delta for a trained net of the
    given modified path norm:

        (norm + 1)(8 gamma(sigma) sqrt(2 ln(2d+2)) + 1)/sqrt(n)
            + sqrt(2 ln(7/delta) / n)
    """
    main = (norm + 1.0) * (8.0 * gamma_sigma * math.sqrt(2.0 * math.log(2 * d + 2)) + 1.0)
    return main / math.sqrt(n) + math.sqrt(2.0 * math.log(7.0 / delta) / n)


def apriori_bound_two_layer(
    norm_f: float,
    m: int,
    d: int,
    n: int,
    delta: float,
    lam: float,
    act: Activation,
) -> float:
    """Population risk bound for the path-norm regularized estimator.

    Requires lam >= lambda_n; norm_f is the representation norm of the
    target.
    """
    lam_n = lambda_n_two_layer(d, n, act_mod.gamma(act))
    return _apriori_bound(norm_f, m, n, delta, lam, lam_n, 1.0, act)


def apriori_bound_resnet(
    norm_f: float,
    depth: int,
    m: int,
    d: int,
    n: int,
    delta: float,
    lam: float,
    act: Activation,
) -> float:
    gamma_sigma = act_mod.gamma(act)
    lam_n = lambda_n_resnet(d, n, gamma_sigma)
    return _apriori_bound(norm_f, depth * m, n, delta, lam, lam_n, 4.0 * gamma_sigma + 1.0, act)


def _apriori_bound(norm_f, units, n, delta, lam, lam_n, c2, act) -> float:
    """The a-priori bound shared by both classes: `units` hidden units in
    all, norm weight c2 (1 for two-layer nets, 4 gamma + 1 for residual
    nets). Refuses lam below lambda_n."""
    if lam < lam_n * (1.0 - 1e-12):
        raise LambdaTooSmall(f"lam={lam:g} below lambda_n={lam_n:g}")
    cs = c_sigma(act)
    return (
        3.0 * cs * norm_f**2 / (2.0 * units)
        + 2.0 * c2 * norm_f * lam
        + 2.0 * (c2 * norm_f + 1.0) * lam_n
        + 2.0 * math.sqrt(2.0 * math.log(14.0 / delta) / n)
    )


# ---------------------------------------------------------------------------
# empirical estimator


@dataclass(frozen=True)
class RadEstimate:
    value: float
    n_samples: int
    n_candidates: int
    n_sign_draws: int
    seed: int


def _eval_candidate(candidate, x):
    if isinstance(candidate, TwoLayerNet):
        return eval_two_layer(candidate, x)
    if isinstance(candidate, ResNet):
        return eval_resnet(candidate, x)
    return np.asarray(candidate(x), float)


def empirical_rademacher(
    samples,
    candidates,
    n_sign_draws: int = 256,
    seed: int = 0,
    budget: float = None,
    norm_fn=None,
) -> RadEstimate:
    """Lower estimate of the Rademacher complexity of a candidate class:

        mean over sign draws xi of  max_f (1/n) sum_i xi_i f(x_i)

    A finite candidate set can only underestimate the sup over the full
    class, so this must sit below the closed-form bounds. When `budget`
    and `norm_fn` are given, every candidate is checked against the norm
    budget first.
    """
    x = np.atleast_2d(np.asarray(samples, float))
    n = x.shape[0]
    if budget is not None and norm_fn is not None:
        for cand in candidates:
            val = norm_fn(cand)
            if val > budget * (1.0 + 1e-9):
                raise NormBudgetViolated(f"candidate norm {val:g} exceeds budget {budget:g}")
    values = np.stack([_eval_candidate(cand, x) for cand in candidates])  # (n_cand, n)
    rng = make_rng(seed)
    signs = rng.integers(0, 2, size=(n_sign_draws, n)) * 2.0 - 1.0
    sups = np.max(signs @ values.T / n, axis=1)
    return RadEstimate(
        value=float(np.mean(sups)),
        n_samples=n,
        n_candidates=len(candidates),
        n_sign_draws=n_sign_draws,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# candidate generators for the estimator


def random_two_layer_candidates(
    n_candidates: int,
    d: int,
    m: int,
    act: Activation,
    budget: float,
    seed: int = 0,
    modified: bool = True,
):
    """Random nets rescaled in a to sit exactly on the norm budget."""
    rng = make_rng(seed)
    norm = modified_path_norm if modified else path_norm
    out = []
    for _ in range(n_candidates):
        net = TwoLayerNet(rng.normal(size=m), rng.normal(size=(m, d)), rng.normal(size=m), act)
        out.append(TwoLayerNet(net.a * (budget / norm(net)), net.b, net.c, act))
    return out


def random_resnet_candidates(
    n_candidates: int,
    d: int,
    depth: int,
    res_dim: int,
    m: int,
    act: Activation,
    weight_c: float,
    budget: float,
    seed: int = 0,
):
    """Random residual nets rescaled in alpha to the norm budget."""
    rng = make_rng(seed)
    out = []
    for _ in range(n_candidates):
        net = ResNet(
            rng.normal(size=(res_dim, d + 1)),
            tuple(rng.normal(size=(m, res_dim)) for _ in range(depth)),
            tuple(rng.normal(size=(res_dim, m)) for _ in range(depth)),
            rng.normal(size=res_dim),
            act,
            weight_c,
        )
        norm = norm_closed(net)
        if not math.isfinite(norm):
            raise NumericalError(f"candidate norm overflows at weight constant {weight_c:g}")
        scale = budget / norm
        out.append(
            ResNet(net.v, net.ws, net.us, net.alpha * scale, act, weight_c)
        )
    return out


def random_linear_candidates(n_candidates: int, d: int, seed: int = 0):
    """Vertices-biased draws from the l1 unit sphere of linear functionals."""
    rng = make_rng(seed)
    out = []
    for _ in range(n_candidates):
        u = rng.normal(size=d)
        u = u / np.abs(u).sum()
        out.append(lambda x, u=u: np.atleast_2d(np.asarray(x, float)) @ u)
    return out
