"""Two-layer networks, their path norms, and integral representations.

A net is f(x) = sum_k a_k sigma(b_k . x + c_k) with

    path_norm          sum_k |a_k| (||b_k||_1 + |c_k|)
    modified_path_norm sum_k |a_k| (||b_k||_1 + |c_k| + 1)

rewrite_to_relu replaces sigma by a certified ReLU approximant and reports
the norm and deviation guarantees that come with it; the deviation bound is
proved from the approximant's certified sup error, not sampled.
"""

from dataclasses import dataclass

import numpy as np

from . import activations as act_mod
from .activations import Activation
from .errors import DimMismatch, EmptyDataset, OutOfRange
from .rng import make_rng


@dataclass(frozen=True, eq=False)
class TwoLayerNet:
    a: np.ndarray  # (m,)
    b: np.ndarray  # (m, d)
    c: np.ndarray  # (m,)
    activation: Activation

    def __post_init__(self):
        a = np.asarray(self.a, float).ravel()
        b = np.atleast_2d(np.asarray(self.b, float))
        c = np.asarray(self.c, float).ravel()
        if b.shape[0] != a.size or c.size != a.size:
            raise DimMismatch(
                f"inconsistent unit counts: a has {a.size}, b has {b.shape[0]}, c has {c.size}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def width(self) -> int:
        return self.a.size

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]

    @property
    def units(self) -> np.ndarray:
        """Rows (a_k, b_k, c_k), shape (width, input_dim + 2), built on each read."""
        return np.column_stack([self.a, self.b, self.c])


# pre-activations per row block of eval_two_layer: 512 KiB of float64, so the
# block's temporaries stay in cache however many points are evaluated
_BLOCK = 1 << 16


def eval_two_layer(net: TwoLayerNet, x):
    """f(x) for one point (a float) or a batch of rows (an array).

    The batch is evaluated in consecutive blocks of whole rows, each about
    _BLOCK pre-activations. The last block takes the remainder, so no block
    is shorter than the others unless the whole batch is.
    """
    x = np.asarray(x, float)
    single = x.ndim == 1
    batch = np.atleast_2d(x)
    if batch.shape[1] != net.input_dim:
        raise DimMismatch(f"expected inputs of dimension {net.input_dim}, got {batch.shape[1]}")
    n = batch.shape[0]
    rows = max(64, _BLOCK // max(net.width, 1) // 64 * 64)
    starts = range(0, max(n - rows, 0) + 1, rows)
    out = np.empty(n)
    for lo, hi in zip(starts, [*starts[1:], n]):
        z = batch[lo:hi] @ net.b.T
        z += net.c
        out[lo:hi] = np.asarray(net.activation.f(z), float) @ net.a
    return float(out[0]) if single else out


def path_norm(net: TwoLayerNet) -> float:
    return float(np.sum(np.abs(net.a) * (np.abs(net.b).sum(axis=1) + np.abs(net.c))))


def unit_weights(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-unit weight ||b_k||_1 + |c_k| + 1 of the modified path norm."""
    return np.abs(b).sum(axis=1) + np.abs(c) + 1.0


def modified_path_norm(net: TwoLayerNet) -> float:
    return float(np.sum(np.abs(net.a) * unit_weights(net.b, net.c)))


def c_sigma(act: Activation) -> float:
    """Squared Monte-Carlo constant (L_sigma + |sigma(0)|)^2, with L_sigma
    the certified activations.lipschitz_constant.
    """
    return (act_mod.lipschitz_constant(act) + abs(float(act.f(0.0)))) ** 2


@dataclass(frozen=True)
class RewriteReport:
    """A rewrite's guarantees next to their bounds; max_deviation bounds
    |net - out| on all of R^d (see rewrite_to_relu), it is not sampled."""

    eps: float
    width: int
    path_norm_rewritten: float
    path_norm_bound: float
    deviation_bound: float
    max_deviation: float


def rewrite_to_relu(net: TwoLayerNet, eps: float, seed: int = 0):
    """Replace the activation by a certified ReLU approximant g.

    Each unit (a_k, b_k, c_k) composed with an approximant unit
    (alpha_j, beta_j, gamma_j) becomes (a_k alpha_j, beta_j b_k,
    beta_j c_k + gamma_j), so out(x) = sum_k a_k g(b_k . x + c_k) and

        path_norm(out)  <= (gamma(sigma) + eps) * modified_path_norm(net)
        |net - out|     <= sup|sigma - g| * sum_k |a_k|   on all of R^d

    the latter with the approximant's certified sup error, itself <= eps.
    Both hold in exact arithmetic, and only if the activation's f1 and f2
    are the derivatives of its f, as gamma and the certificate assume.
    """
    # seed is ignored; perfbench/inproc.py's rewrite jobs and acceptance
    # criterion 5 pass it
    from .relu1d import approximate_activation  # at call time: relu1d imports this module
    g_net, cert = approximate_activation(net.activation, eps)
    alpha, beta, gam = g_net.a, g_net.b[:, 0], g_net.c

    new_a = np.outer(net.a, alpha).ravel()
    new_b = (net.b[:, None, :] * beta[None, :, None]).reshape(new_a.size, net.input_dim)
    new_c = (np.outer(net.c, beta) + gam[None, :]).ravel()
    keep = new_a != 0.0
    out = TwoLayerNet(new_a[keep], new_b[keep], new_c[keep], act_mod.relu())

    abs_a = float(np.sum(np.abs(net.a)))
    report = RewriteReport(
        eps=eps,
        width=out.width,
        path_norm_rewritten=path_norm(out),
        path_norm_bound=(cert.gamma_reference + eps) * modified_path_norm(net),
        deviation_bound=eps * abs_a,
        max_deviation=cert.sup_error_measured * abs_a,
    )
    return out, report


# ---------------------------------------------------------------------------
# integral representations


@dataclass(frozen=True, eq=False)
class DiscreteBarronRep:
    """Atomic representation f(x) = sum_i p_i a_i sigma(w_i . (x, 1))."""

    probs: np.ndarray   # (k,)
    ws: np.ndarray      # (k, d+1)
    coeffs: np.ndarray  # (k,)

    def __post_init__(self):
        p = np.asarray(self.probs, float).ravel()
        w = np.atleast_2d(np.asarray(self.ws, float))
        a = np.asarray(self.coeffs, float).ravel()
        if not (p.size == w.shape[0] == a.size):
            raise DimMismatch("probs, ws and coeffs must have matching first dimension")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("probs must be a probability vector")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "ws", w)
        object.__setattr__(self, "coeffs", a)

    def function(self, act: Activation, x) -> np.ndarray:
        """Exact target values, no sampling."""
        net = TwoLayerNet(self.probs * self.coeffs, self.ws[:, :-1], self.ws[:, -1], act)
        return eval_two_layer(net, np.atleast_2d(np.asarray(x, float)))


def sample_from_barron(rep, m: int, act: Activation, seed: int = 0) -> TwoLayerNet:
    """Monte-Carlo two-layer net (1/m) sum_i a(w_i) sigma(w_i . (x, 1)),
    the atoms w_i drawn i.i.d. with probabilities rep.probs."""
    if m <= 0:
        raise ValueError("need at least one sample")
    idx = make_rng(seed).choice(rep.probs.size, size=m, p=rep.probs)
    w = rep.ws[idx]
    return TwoLayerNet(rep.coeffs[idx] / m, w[:, :-1], w[:, -1], act)


def barron_norm_estimate(rep) -> float:
    """sqrt(E[a(w)^2 (||w||_1 + 1)^2]), summed exactly over the atoms."""
    weights = (np.abs(rep.ws).sum(axis=1) + 1.0) ** 2
    return float(np.sqrt(np.sum(rep.probs * rep.coeffs**2 * weights)))


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True, eq=False)
class Dataset:
    """Inputs in [-1, 1]^d with targets in [0, 1]."""

    inputs: np.ndarray   # (n, d)
    targets: np.ndarray  # (n,)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.inputs, float))
        y = np.asarray(self.targets, float).ravel()
        if x.shape[0] != y.size:
            raise DimMismatch(f"{x.shape[0]} inputs vs {y.size} targets")
        if y.size == 0:
            raise EmptyDataset("a dataset needs at least one sample")
        if not (np.abs(x) <= 1.0 + 1e-12).all():
            raise OutOfRange("inputs must lie in [-1, 1]")
        if not ((y >= -1e-12) & (y <= 1.0 + 1e-12)).all():
            raise OutOfRange("targets must lie in [0, 1]")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.targets.size

    @property
    def d(self) -> int:
        return self.inputs.shape[1]
