"""Residual networks and their weighted path norms.

Architecture, for input x in R^d and x~ = (x, 1):

    h_0 = V x~
    h_l = h_{l-1} + U_l sigma(W_l h_{l-1})      l = 1..L
    f(x) = alpha . h_L

The modified weighted path norm with weight constant c is

    sum_{i=0}^{L} || |alpha|^T (I + c|U_L||W_L|) ... (I + c|U_{i+1}||W_{i+1}|) |U_i| ||_1

with U_0 := V and empty products equal to I. Three independent evaluations
are provided: a closed right-to-left product form, the layerwise recursion
through the modification vectors M_l, and a brute-force path enumeration
for small nets.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import activations as act_mod
from .activations import Activation
from .errors import DimMismatch, TooLarge, WidthMismatch
from .twolayer import TwoLayerNet

_BRUTE_CAP = 6


@dataclass(frozen=True, eq=False)
class ResNet:
    v: np.ndarray       # (D, d+1)
    ws: tuple           # L matrices (m, D)
    us: tuple           # L matrices (D, m)
    alpha: np.ndarray   # (D,)
    activation: Activation
    c: float            # weight constant of the norm

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.v, float))
        ws = tuple(np.atleast_2d(np.asarray(w, float)) for w in self.ws)
        us = tuple(np.atleast_2d(np.asarray(u, float)) for u in self.us)
        alpha = np.asarray(self.alpha, float).ravel()
        if len(ws) != len(us) or not ws:
            raise DimMismatch("need matching, nonempty tuples of W and U blocks")
        dim = v.shape[0]
        width = ws[0].shape[0]
        for w, u in zip(ws, us):
            if w.shape != (width, dim) or u.shape != (dim, width):
                raise DimMismatch("all blocks must share the residual and hidden dimensions")
        if alpha.size != dim:
            raise DimMismatch("alpha must match the residual dimension")
        if not self.c > 0:
            raise ValueError("weight constant c must be positive")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "ws", ws)
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "c", float(self.c))

    @property
    def depth(self) -> int:
        return len(self.ws)

    @property
    def width(self) -> int:
        return self.ws[0].shape[0]

    @property
    def res_dim(self) -> int:
        return self.v.shape[0]

    @property
    def input_dim(self) -> int:
        return self.v.shape[1] - 1


def default_weight_constant(act: Activation) -> float:
    """c = 4 gamma(sigma) + 1, the smallest weight the depth-free bounds allow."""
    return 4.0 * act_mod.gamma(act) + 1.0


def eval_resnet(net: ResNet, x):
    x = np.asarray(x, float)
    single = x.ndim == 1
    batch = np.atleast_2d(x)
    if batch.shape[1] != net.input_dim:
        raise DimMismatch(f"expected inputs of dimension {net.input_dim}, got {batch.shape[1]}")
    ones = np.ones((batch.shape[0], 1))
    h = np.concatenate([batch, ones], axis=1) @ net.v.T
    for w, u in zip(net.ws, net.us):
        h = h + np.asarray(net.activation.f(h @ w.T), float) @ u.T
    out = h @ net.alpha
    return float(out[0]) if single else out


class RecursiveNorm(NamedTuple):
    total: float
    weighted_path_norm: float
    r: float
    m_values: tuple  # M_l vectors, l = 1..L


class ModificationBounds(NamedTuple):
    m_bounds: tuple  # per-layer vectors dominating M_l entrywise
    r_bound: float


def norm_closed(net: ResNet) -> float:
    """Right-to-left evaluation of the product-sum form of the norm."""
    row = np.abs(net.alpha)
    total = 0.0
    for w, u in zip(reversed(net.ws), reversed(net.us)):
        through = row @ np.abs(u)
        total += float(through.sum())
        row = row + net.c * through @ np.abs(w)
    total += float((row @ np.abs(net.v)).sum())
    return total


def norm_recursive(net: ResNet) -> RecursiveNorm:
    """Layerwise recursion.

    M_1 = 0,  M_{l+1} = c |W_{l+1}| sum_{k<=l} |U_k| (M_k + 1)
    r = |alpha| . sum_l |U_l| (M_l + 1)

    and the total is r plus the weighted path norm of the pure input paths.
    """
    c = net.c
    acc = np.zeros(net.res_dim)
    m_values = []
    for w, u in zip(net.ws, net.us):
        m_l = c * (np.abs(w) @ acc)
        m_values.append(m_l)
        acc = acc + np.abs(u) @ (m_l + 1.0)
    r = float(np.abs(net.alpha) @ acc)

    row = np.abs(net.alpha)
    for w, u in zip(reversed(net.ws), reversed(net.us)):
        row = row + c * (row @ np.abs(u)) @ np.abs(w)
    weighted = float((row @ np.abs(net.v)).sum())
    return RecursiveNorm(weighted + r, weighted, r, tuple(m_values))


def _mat_abs(m) -> list:
    return [[abs(float(v)) for v in row] for row in np.atleast_2d(m)]


def _row_times(row, mat):
    cols = len(mat[0])
    return [sum(row[i] * mat[i][j] for i in range(len(row))) for j in range(cols)]


def norm_bruteforce(net: ResNet) -> float:
    """Path enumeration oracle, exponential in depth.

    Expands every product (I + c|U_j||W_j|) distributively: a path enters
    at block i (or the input map for i = 0), then traverses any subset of
    the later blocks, paying a factor c per traversed block.
    """
    if net.depth > _BRUTE_CAP or net.res_dim > _BRUTE_CAP or net.width > _BRUTE_CAP:
        raise TooLarge(
            f"brute force capped at depth/width {_BRUTE_CAP}; "
            f"got L={net.depth}, D={net.res_dim}, m={net.width}"
        )
    alpha = [abs(float(v)) for v in net.alpha]
    hops = {j: _mat_abs(np.abs(net.us[j - 1]) @ np.abs(net.ws[j - 1])) for j in range(1, net.depth + 1)}
    entries = {0: _mat_abs(net.v)}
    for i in range(1, net.depth + 1):
        entries[i] = _mat_abs(net.us[i - 1])
    total = 0.0
    for i in range(net.depth + 1):
        later = range(i + 1, net.depth + 1)
        for size in range(len(later) + 1):
            for subset in combinations(later, size):
                row = alpha
                for j in sorted(subset, reverse=True):
                    row = _row_times(row, hops[j])
                term = sum(_row_times(row, entries[i]))
                total += net.c**size * term
    return total


def modification_bounds(net: ResNet) -> ModificationBounds:
    """Depth-uniform upper bounds on the modification terms.

    With Z_1 = I + |U_1| and Z_l = (I + |U_l|)(I + c|W_l|) Z_{l-1},

        M_l <= c |W_l| Z_{l-1} 1     (Z_0 = I)
        r   <= |alpha| . Z_L 1

    Rectangular U, W are zero-padded to a common square size first; the
    inequalities hold verbatim for the padded system and restrict to the
    original entries.
    """
    c = net.c
    size = max(net.res_dim, net.width)
    u_pad, w_pad = [], []
    for w, u in zip(net.ws, net.us):
        wp = np.zeros((size, size))
        wp[: net.width, : net.res_dim] = np.abs(w)
        up = np.zeros((size, size))
        up[: net.res_dim, : net.width] = np.abs(u)
        w_pad.append(wp)
        u_pad.append(up)
    z = np.ones(size)
    m_bounds = []
    for l, (wp, up) in enumerate(zip(w_pad, u_pad), start=1):
        m_bounds.append(c * (wp @ z)[: net.width])
        if l == 1:
            z = z + up @ z
        else:
            z = z + c * wp @ z
            z = z + up @ z
    alpha_pad = np.zeros(size)
    alpha_pad[: net.res_dim] = np.abs(net.alpha)
    return ModificationBounds(tuple(m_bounds), float(alpha_pad @ z))


def embed_two_layer(src: TwoLayerNet, depth: int, width: int, c: float) -> ResNet:
    """Lay a width-(depth*width) two-layer net out as `depth` residual blocks.

    Residual dimension d+2: coordinates 0..d carry (x, 1) untouched, the
    last coordinate accumulates the output. Evaluation is identical to the
    source net because every W block ignores the accumulator.
    """
    if src.width != depth * width:
        raise WidthMismatch(f"source width {src.width} != depth*width = {depth * width}")
    d = src.input_dim
    dim = d + 2
    v = np.zeros((dim, d + 1))
    v[: d + 1, : d + 1] = np.eye(d + 1)
    alpha = np.zeros(dim)
    alpha[-1] = 1.0
    ws, us = [], []
    for l in range(depth):
        sl = slice(l * width, (l + 1) * width)
        w = np.zeros((width, dim))
        w[:, :d] = src.b[sl]
        w[:, d] = src.c[sl]
        u = np.zeros((dim, width))
        u[-1, :] = src.a[sl]
        ws.append(w)
        us.append(u)
    return ResNet(v, tuple(ws), tuple(us), alpha, src.activation, c)
