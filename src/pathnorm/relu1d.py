"""Certified one-dimensional ReLU approximants of scalar activations.

approximate_activation builds, for a target activation f and accuracy eps,
a net g(t) = sum_k alpha_k relu(beta_k t + gamma_k), a relu TwoLayerNet on
d = 1 whose unit rows are (alpha_k, beta_k, gamma_k), with

    sup_t |f(t) - g(t)| <= eps        (certified over the whole line)
    sum_k |alpha_k| (|beta_k| + |gamma_k|) <= gamma(f) + eps

The construction anchors at a point x_eps where the linear-part cost g(x_eps)
is within eps of its infimum (the kink itself for one-kink
activations), interpolates the curved remainder on [x_eps - T, x_eps + T]
with uniform knots and slope-increment units, and continues with the exact
asymptote slopes outside the window. T comes from gamma's window search,
activations.integration_window, centred on x_eps at tolerance eps/32: by
parts, that weighted curvature tail also bounds |f - l| at the window's
ends, l the asymptote line.

The sup is not sampled. g is linear between its kinks, so inside the window
the sup is exact: the largest error at the kinks, at the zeros of f'' and
at the one extremum between each pair. Outside the window it follows from
f'' keeping one sign there (which the window search probes), and is exact
as well. Both steps hold only if f1 and f2 are f's derivatives, which
gamma already requires.
"""

from dataclasses import dataclass

import numpy as np

from . import activations as act_mod
from .activations import Activation
from .errors import NoConvergence, NotRelu1D
from .twolayer import TwoLayerNet, path_norm

_PRUNE_TOL = 1e-15
_MAX_KNOTS = 1_000_000


@dataclass(frozen=True)
class ApproxCertificate:
    """sup_error_measured is the certified sup over the whole line (see the
    module docstring); grid_points counts the points where the accepted
    net's error was evaluated to certify it."""

    epsilon_requested: float
    sup_error_measured: float
    path_norm: float
    gamma_reference: float
    anchor: float
    window_halfwidth: float
    partition_size: int
    grid_points: int


def _rising_sum(a, b, g, t):
    """sum_k a_k relu(b_k t + g_k) for slopes b_k > 0, from prefix sums over
    the knots sorted once: O(log K) a query. Tied knots add in unit order."""
    # knot may overflow to +-inf for subnormal slopes; searchsorted
    # then treats the unit as active on the correct side anyway
    with np.errstate(over="ignore"):
        knots = -g / b
    order = np.argsort(knots, kind="stable")
    w = np.concatenate([[0.0], np.cumsum((a * b)[order])])
    v = np.concatenate([[0.0], np.cumsum((a * g)[order])])
    idx = np.searchsorted(knots[order], t, side="left")
    # no unit is active below the first knot: 0, not 0 * t, which is nan at -inf
    return w[idx] * np.where(idx == 0, 0.0, t) + v[idx]


def eval_relu1d(net: TwoLayerNet, t):
    """Evaluate a one-dimensional ReLU net at scalar or array t.

    A falling unit (beta < 0) is a rising one on the reflected input,
    relu(beta t + gamma) = relu((-beta)(-t) + gamma), so _rising_sum takes
    both kinds, the falling ones on -t in reversed unit order: their knots
    then add from the largest down, ties in reversed unit order, which is
    the order of a suffix sum over the knots sorted upwards.
    Raises NotRelu1D for a net of another activation or input dimension.
    """
    act = net.activation
    if net.input_dim != 1 or act.name != "relu" or act.spec is not None:
        raise NotRelu1D(f"need a relu net on d = 1, got {act.label} on d = {net.input_dim}")
    t_in = np.asarray(t, float)
    tq = np.atleast_1d(t_in).ravel()
    out = np.zeros_like(tq)
    if net.width:
        a, b, g = net.a, net.b[:, 0], net.c
        flat = b == 0
        if flat.any():
            out += float(np.sum(a[flat] * np.maximum(g[flat], 0.0)))
        rising = b > 0
        if rising.any():
            out += _rising_sum(a[rising], b[rising], g[rising], tq)
        falling = np.flatnonzero(b < 0)[::-1]
        if falling.size:
            out += _rising_sum(a[falling], -b[falling], g[falling], -tq)
    out = out.reshape(t_in.shape)
    return float(out) if t_in.ndim == 0 else out


def _pick_anchor(act: Activation, eps: float):
    """Anchor point plus one-sided slopes of the linear part there."""
    if act.kink:
        return act.kink
    x_star, g_star = act_mod.inf_g(act)
    budget = g_star + 0.25 * eps
    candidates = [0.0]
    for k in range(14):
        candidates.extend([-(2.0**k), 2.0**k])
    if np.isfinite(x_star):
        candidates.append(float(x_star))
    candidates.sort(key=abs)
    for x in candidates:
        if float(act_mod.g_value(act, x)) <= budget:
            slope = float(act.f1(x))
            return x, slope, slope
    raise NoConvergence(f"no anchor with g within {eps / 4:g} of the infimum for {act.label}")


def _slope_units(xs, values, end_slope, orientation):
    """Slope-increment unit rows (alpha, beta, gamma) for one side of the interpolation.

    xs are knots walking away from the anchor, values the curved remainder
    there (values[0] == 0). The final increment is recomputed after pruning
    so the unit coefficients sum to end_slope bit-exactly and the net
    continues with the true asymptote slope beyond the last knot.
    """
    h = abs(xs[1] - xs[0])
    coeffs = np.diff(np.concatenate([[0.0], np.diff(values) / h]))
    keep = ~(np.abs(coeffs) * (np.abs(xs[:-1]) + 1.0) < _PRUNE_TOL)
    alpha, knots = coeffs[keep], xs[:-1][keep]
    # cumsum adds left to right, from 0.0, as the kept sum is defined
    last = end_slope - np.cumsum(np.concatenate([[0.0], alpha]))[-1]
    if last != 0.0:
        alpha, knots = np.append(alpha, last), np.append(knots, xs[-1])
    return np.column_stack([alpha, np.full(alpha.size, orientation), -orientation * knots])


def _build_net(act, x_eps, d_left, d_right, t_half, n_panels):
    a_slope, _ = act.asymptote_left
    c_slope, _ = act.asymptote_right
    f0 = float(act.f(x_eps))
    h = t_half / n_panels

    xs = x_eps + h * np.arange(n_panels + 1)
    f_right = np.asarray(act.f(xs), float) - f0 - d_right * (xs - x_eps)
    ys = x_eps - h * np.arange(n_panels + 1)
    f_left = np.asarray(act.f(ys), float) - f0 - d_left * (ys - x_eps)

    if act.kink:
        anchor = [(d_right, 1.0, -x_eps), (-d_left, -1.0, x_eps), (np.sign(f0), 0.0, abs(f0))]
    else:
        const = f0 - x_eps * d_right
        anchor = [(d_right, 1.0, 0.0), (-d_right, -1.0, 0.0), (np.sign(const), 0.0, abs(const))]
    anchor = np.array(anchor, float)
    rows = np.concatenate([
        _slope_units(xs, f_right, c_slope - d_right, 1.0),
        _slope_units(ys, f_left, d_left - a_slope, -1.0),
        anchor[anchor[:, 0] != 0.0],
    ])
    return TwoLayerNet(rows[:, 0], rows[:, 1:2], rows[:, 2], act_mod.relu())


def _certified_sup(act, net, breaks):
    """sup over the whole line of |f - net|, and the number of points where
    the error was evaluated.

    breaks hold the window's ends and points inside it between which f''
    keeps one sign. Cut there and at the net's kinks, the window falls into
    pieces on which the net is linear and f' monotone, so |f - net| peaks at
    a piece end or at the one root of f'(t) = slope, which bisection on f'
    finds, evaluated strictly inside each piece. Beyond the outermost point
    R the net runs parallel to the asymptote line l. With f'' of one sign
    out there, f - l shrinks monotonically to 0, so the error moves
    monotonically from f(R) - net(R) to l(R) - net(R); likewise on the left.
    """
    b, g = net.b[:, 0], net.c
    turns = b != 0.0
    xs = np.unique(np.concatenate([breaks, -g[turns] / b[turns]]))
    net_xs = eval_relu1d(net, xs)
    err = np.asarray(act.f(xs), float) - net_xs
    lo, hi = xs[:-1], xs[1:]
    slope = np.diff(net_xs) / (hi - lo)
    convex = np.asarray(act.f2(0.5 * (lo + hi)), float) > 0.0
    # the error's peak is flat: a position off by 2^-32 of the piece moves
    # its value by about 2^-62 of the piece's error
    for _ in range(32):
        mid = 0.5 * (lo + hi)
        right = (np.asarray(act.f1(mid), float) < slope) == convex
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    roots = 0.5 * (lo + hi)
    err_roots = np.asarray(act.f(roots), float) - eval_relu1d(net, roots)
    a, b = act.asymptote_left
    c, d = act.asymptote_right
    far_left = a * xs[0] + b - net_xs[0]
    far_right = c * xs[-1] + d - net_xs[-1]
    sup = max(np.max(np.abs(err)), np.max(np.abs(err_roots)), abs(far_left), abs(far_right))
    return float(sup), xs.size + roots.size


def approximate_activation(act: Activation, eps: float):
    """Certified ReLU approximant; returns (TwoLayerNet, ApproxCertificate),
    the net a relu net on d = 1. eps must be finite and > 0.

    The approximant depends only on (act, eps), so the last one built is
    kept on the activation object: a second call with the same object and
    eps returns the same two objects, and rewriting many nets with one
    activation builds it once. The net's a, b and c arrays are read-only.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and > 0")
    memo = act._approximant
    # an equal eps of another type (1 and 1.0) builds anew, so a hit returns
    # what a build would, down to the type of cert.epsilon_requested
    key = (type(eps), eps)
    if key in memo:
        return memo[key]
    gamma_ref = act_mod.gamma(act)

    x_eps, d_left, d_right = _pick_anchor(act, eps)
    t_half = act_mod.integration_window(act, x_eps, eps / 32.0)
    lo, hi = x_eps - t_half, x_eps + t_half
    breaks = act_mod.curvature_breaks(act, (lo, hi))

    n_panels = 64
    while n_panels <= _MAX_KNOTS:
        net = _build_net(act, x_eps, d_left, d_right, t_half, n_panels)
        err, points = _certified_sup(act, net, breaks)
        norm = path_norm(net)
        if err <= eps and norm <= gamma_ref + eps:
            cert = ApproxCertificate(
                epsilon_requested=eps,
                sup_error_measured=err,
                path_norm=norm,
                gamma_reference=gamma_ref,
                anchor=x_eps,
                window_halfwidth=t_half,
                partition_size=n_panels,
                grid_points=points,
            )
            for arr in (net.a, net.b, net.c):
                arr.setflags(write=False)
            memo.clear()
            memo[key] = net, cert
            return net, cert
        n_panels *= 2
    raise NoConvergence(f"partition cap reached for {act.label} at eps={eps:g}")
