"""Scalar activations and their curvature-based complexity norms.

For a twice weakly differentiable f the relevant quantities are

    gamma0(f) = int |f''(x)| (|x|+1) dx
    g(x)      = |f(x)| + (|x|+2) |f'(x)|
    gamma(f)  = gamma0(f) + inf_x g(x)

and, when f is smooth except at a single point x0,

    gamma(f)  = gamma0(f) + |f(x0)| + (1+|x0|) (|f'+(x0)| + |f'-(x0)|)

with gamma0 taken over the two smooth pieces. An activation has at most
one kink; a custom spec that declares more is rejected when it loads.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import NoAsymptote, NonIntegrable, ParseError, load_json
from .expressions import ExprError, compile_expr

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# hard ceiling for window doubling; beyond this we declare divergence
_MAX_WINDOW = 2.0**42


@dataclass(frozen=True, eq=False)
class Activation:
    """A scalar activation with explicit derivative and asymptote data.

    f, f1, f2 accept floats or numpy arrays. At the kink f1/f2 return one
    arbitrary one-sided value; the true one-sided derivatives live in kink.
    f_f1, when set, returns (f(x), f1(x)) bit for bit from one shared
    evaluation; training reads it through `value_and_slope`. A copy that
    replaces f or f1 (say by dataclasses.replace) must also replace f_f1
    or clear it to None, or training keeps the old pair.

    gamma_parts, inf_g and the ReLU approximant for the last eps that
    relu1d.approximate_activation built are kept on the object, so they
    live exactly as long as it does. A copy made by dataclasses.replace is
    a new object and starts with none of them.
    """

    name: str
    f: Callable
    f1: Callable
    f2: Callable
    asymptote_left: tuple   # (slope, intercept) as x -> -inf
    asymptote_right: tuple  # (slope, intercept) as x -> +inf
    kink: tuple = ()  # (x0, f'(x0-), f'(x0+)), or () for a smooth f
    closed_form_gamma: Optional[float] = None
    params: dict = field(default_factory=dict)
    spec: Optional[dict] = None  # the JSON object a custom activation was built from
    f_f1: Optional[Callable] = None

    def value_and_slope(self, x):
        """(f(x), f1(x)), from one shared evaluation where f_f1 is set."""
        if self.f_f1 is not None:
            return self.f_f1(x)
        return self.f(x), self.f1(x)

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.name}:{inner}"

    def __repr__(self):
        return f"Activation({self.label})"

    @cached_property
    def _gamma(self) -> "GammaParts":
        # gamma_parts' memo: it lives exactly as long as this activation
        g0 = gamma0(self)
        if self.kink:
            x0, d_left, d_right = self.kink
            linear = abs(float(self.f(x0))) + (1.0 + abs(x0)) * (abs(d_right) + abs(d_left))
        else:
            _, linear = inf_g(self)
        return GammaParts(g0, float(linear), g0 + float(linear))

    @cached_property
    def _inf_g(self) -> tuple:
        # inf_g's memo: gamma and the approximant's anchor both read it
        return _search_inf_g(self)

    @cached_property
    def _approximant(self) -> dict:
        # approximate_activation's memo, filled and read there: at most one
        # entry, the last eps built, since a net at small eps can be wide
        return {}


class GammaParts(NamedTuple):
    gamma0: float
    linear_term: float
    total: float


# ---------------------------------------------------------------------------
# catalog


def logistic(x):
    """1 / (1 + exp(-x)) on float64, elementwise, in numpy alone: within
    4 ulp of scipy.special.expit wherever expit >= 1e-300. The exponent is
    capped at 709, so no overflow warning is raised and below x = -709 the
    value is 1/(1 + e^709), about 1.2e-308, where expit gives 0 or a
    subnormal. A scalar gives a scalar, an array an array of its shape,
    nan gives nan. x goes to np.maximum as given: an np.asarray first
    would make each scalar call, hundreds per gamma quadrature, about half
    again as slow.
    """
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -709.0)))


def _logistic_and_slope(x):
    """(s, s (1 - s)) for s = logistic(x): sigmoid's f and f', and
    softplus's f' and f''."""
    s = logistic(x)
    return s, s * (1.0 - s)


def _logistic_slope(x):
    return _logistic_and_slope(x)[1]


def relu() -> Activation:
    return Activation(
        name="relu",
        f=lambda x: np.maximum(np.asarray(x, float), 0.0),
        f1=lambda x: np.where(np.asarray(x, float) > 0, 1.0, 0.0),
        f2=lambda x: np.zeros_like(np.asarray(x, float)),
        asymptote_left=(0.0, 0.0),
        asymptote_right=(1.0, 0.0),
        kink=(0.0, 0.0, 1.0),
        closed_form_gamma=1.0,
    )


def leaky_relu(lam: float = 0.1) -> Activation:
    if lam == 1.0:
        raise ValueError("lam=1 is the identity, not a leaky rectifier")
    # max(lam*x, x) takes the smaller slope on the left, whichever it is
    left, right = min(lam, 1.0), max(lam, 1.0)
    return Activation(
        name="leaky_relu",
        f=lambda x: np.maximum(np.asarray(x, float) * lam, np.asarray(x, float)),
        f1=lambda x: np.where(np.asarray(x, float) > 0, right, left),
        f2=lambda x: np.zeros_like(np.asarray(x, float)),
        asymptote_left=(left, 0.0),
        asymptote_right=(right, 0.0),
        kink=(0.0, left, right),
        closed_form_gamma=abs(lam) + 1.0,
        params={"lam": lam},
    )


def sigmoid() -> Activation:
    def f2(x):
        s, slope = _logistic_and_slope(x)
        return slope * (1.0 - 2.0 * s)

    return Activation(
        name="sigmoid",
        f=logistic,
        f1=_logistic_slope,
        f2=f2,
        asymptote_left=(0.0, 0.0),
        asymptote_right=(0.0, 1.0),
        closed_form_gamma=1.5,
        f_f1=_logistic_and_slope,
    )


def _tanh_and_slope(x):
    t = np.tanh(x)
    return t, 1.0 - t**2


def tanh() -> Activation:
    def f2(x):
        t, slope = _tanh_and_slope(x)
        return -2.0 * t * slope

    return Activation(
        name="tanh",
        f=np.tanh,
        f1=lambda x: _tanh_and_slope(x)[1],
        f2=f2,
        asymptote_left=(0.0, -1.0),
        asymptote_right=(0.0, 1.0),
        closed_form_gamma=5.0,
        f_f1=_tanh_and_slope,
    )


def elu(alpha: float = 1.0) -> Activation:
    def f(x):
        x = np.asarray(x, float)
        return np.where(x > 0, x, alpha * np.expm1(np.minimum(x, 0.0)))

    def f1(x):
        x = np.asarray(x, float)
        return np.where(x > 0, 1.0, alpha * np.exp(np.minimum(x, 0.0)))

    def f2(x):
        x = np.asarray(x, float)
        return np.where(x > 0, 0.0, alpha * np.exp(np.minimum(x, 0.0)))

    smooth = alpha == 1.0
    return Activation(
        name="elu",
        f=f,
        f1=f1,
        f2=f2,
        asymptote_left=(0.0, -alpha),
        asymptote_right=(1.0, 0.0),
        kink=() if smooth else (0.0, alpha, 1.0),
        closed_form_gamma=3.0 if smooth else 3.0 * abs(alpha) + 1.0,
        params={"alpha": alpha},
    )


def gelu() -> Activation:
    from scipy import special  # for ndtr; only gelu and erf specs need scipy outside gamma

    def phi(x):
        return np.exp(-0.5 * x * x) / _SQRT_2PI

    def slope(x, n):  # n = ndtr(x)
        return n + np.asarray(x, float) * phi(x)

    def f_f1(x):
        n = special.ndtr(x)
        return np.asarray(x, float) * n, slope(x, n)

    closed = float(
        4.0 * (special.ndtr(np.sqrt(2.0)) + (1.0 + np.sqrt(2.0)) / (np.e * np.sqrt(np.pi))) - 3.0
    )
    return Activation(
        name="gelu",
        f=lambda x: np.asarray(x, float) * special.ndtr(x),
        f1=lambda x: slope(x, special.ndtr(x)),
        f2=lambda x: phi(x) * (2.0 - np.asarray(x, float) ** 2),
        asymptote_left=(0.0, 0.0),
        asymptote_right=(1.0, 0.0),
        closed_form_gamma=closed,
        f_f1=f_f1,
    )


def softplus() -> Activation:
    return Activation(
        name="softplus",
        f=lambda x: np.logaddexp(0.0, x),
        f1=logistic,
        f2=_logistic_slope,
        asymptote_left=(0.0, 0.0),
        asymptote_right=(1.0, 0.0),
        closed_form_gamma=1.0 + 2.0 * np.log(2.0),
    )


# t > 0 solving exp(-t) = (t-2)/(t+2), as brentq on [2 + 1e-9, 10] finds it
_SWISH_T2 = 2.399357280515468  # 0x1.331e23ad9de12p+1


def _swish_constants():
    """c1, c2 with gamma(swish_beta) = c1/beta + c2 - 1.

    The curvature of x*sigmoid(x) changes sign at -t2 and t2, where
    t2 = _SWISH_T2 is the literal root, so building swish runs no root-finder.
    """
    t2 = _SWISH_T2
    s = logistic(t2)
    sp = s * (1.0 - s)
    c1 = 4.0 * t2 * t2 * sp
    c2 = 2.0 * (2.0 * t2 * sp + 2.0 * s - 1.0)
    return float(c1), float(c2)


# gamma's quadrature under-reports swish's gamma above beta of about 1900
# (1.30 at 2000, where the closed form gives 1.40); larger betas are refused
# until gamma0 is computed without quadrature
_SWISH_MAX_BETA = 1000.0


def swish(beta: float = 1.0) -> Activation:
    if beta <= 0:
        raise ValueError("swish needs beta > 0")
    if beta > _SWISH_MAX_BETA:
        raise ValueError(f"swish needs beta <= {_SWISH_MAX_BETA:g}")

    def f(x):
        x = np.asarray(x, float)
        return x * logistic(beta * x)

    def f1(x):
        x = np.asarray(x, float)
        s = logistic(beta * x)
        return s * (1.0 + beta * x * (1.0 - s))

    def f2(x):
        x = np.asarray(x, float)
        s = logistic(beta * x)
        return beta * s * (1.0 - s) * (2.0 + beta * x * (1.0 - 2.0 * s))

    c1, c2 = _swish_constants()
    return Activation(
        name="swish",
        f=f,
        f1=f1,
        f2=f2,
        asymptote_left=(0.0, 0.0),
        asymptote_right=(1.0, 0.0),
        closed_form_gamma=c1 / beta + c2 - 1.0,
        params={"beta": beta},
    )


_FACTORIES = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "elu": elu,
    "gelu": gelu,
    "softplus": softplus,
    "swish": swish,
}


def catalog():
    """The eight built-in activations at their default hyperparameters."""
    return [make() for make in _FACTORIES.values()]


def make_activation(name: str, **params) -> Activation:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ParseError(f"unknown activation {name!r}") from None
    try:
        values = {k: float(v) for k, v in params.items()}
        bad = [k for k, v in values.items() if not np.isfinite(v)]
        if bad:
            raise ValueError(f"{bad[0]} must be finite")
        return factory(**values)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad parameters for {name}: {exc}") from None


def by_name(ref: str) -> Activation:
    """Resolve 'name', 'name:key=val,...' or 'file:path.json'."""
    if ref.startswith("file:"):
        return load_custom(ref[5:])
    name, _, rest = ref.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ParseError(f"malformed activation parameter {item!r}")
            try:
                params[key.strip()] = float(val)
            except ValueError:
                raise ParseError(f"non-numeric activation parameter {item!r}") from None
    return make_activation(name.strip(), **params)


def load_custom(path) -> Activation:
    """Build an activation from a JSON file of expressions and metadata."""
    return custom_activation(load_json(path, "activation"), f"activation file {path}")


def custom_activation(raw, source: str = "activation spec") -> Activation:
    """Build an activation from a JSON object of expressions and metadata,
    kept as `spec` so that a saved model embeds it; `source` names it in errors."""
    try:
        fns = {key: compile_expr(raw[key]) for key in ("f", "f1", "f2")}
        sing = tuple(float(v) for v in raw.get("singular_points", ()))
        one_sided = tuple((float(l), float(r)) for l, r in raw.get("one_sided_f1", ()))
        left = tuple(float(v) for v in raw["asymptote_left"])
        right = tuple(float(v) for v in raw["asymptote_right"])
        closed = raw.get("closed_form_gamma")
        closed = None if closed is None else float(closed)
    except KeyError as exc:
        raise ParseError(f"{source} misses key {exc}")
    except (ExprError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {source}: {exc}")
    if len(one_sided) != len(sing):
        raise ParseError("one_sided_f1 must align with singular_points")
    if len(sing) > 1:
        raise ParseError(f"{source} has {len(sing)} singular points; at most one is supported")
    return Activation(
        name=str(raw.get("name", "custom")),
        f=fns["f"],
        f1=fns["f1"],
        f2=fns["f2"],
        asymptote_left=left,
        asymptote_right=right,
        kink=(sing[0], *one_sided[0]) if sing else (),
        closed_form_gamma=closed,
        spec=raw,
    )


# ---------------------------------------------------------------------------
# tail estimates

# Integrating |f''|(|x|+1) by parts over [X, inf) against the asymptote
# (c, d) gives exactly |(c - d) - (f'(X)(X+1) - f(X))| whenever f'' keeps
# one sign out there. The same estimate drives the one window search:
# gamma's window is centred on 0 with tail at most 1e-6, the approximant's
# on its anchor with tail at most eps/32. A polynomially growing f walks
# the window to the cap and is rejected.
#
# The quadrature policy is fixed: a window whose tail is at most 1e-6, and
# scipy's quad at abs and rel tolerance 1e-8 with up to 10 000 subdivisions
# per panel. Every certificate (approximant, rewrite, c = 4 gamma + 1,
# c_sigma, lambda_n, a-priori bound) starts from gamma, so there is one way
# to compute it, and this policy stays well inside the 1e-3 agreement with
# the closed forms that gamma-table checks.


def tail_weight(act: Activation, right: float, left: float) -> float:
    """int |f''(x)| (|x|+1) dx over [right, inf) plus over (-inf, left],
    for left <= 0 <= right and f'' of one sign on each tail."""
    a, b = act.asymptote_left
    c, d = act.asymptote_right
    return (abs((c - d) - (float(act.f1(right)) * (right + 1.0) - float(act.f(right))))
            + abs(float(act.f1(left)) * (1.0 - left) + float(act.f(left)) - (a + b)))


def _sign_stable(act: Activation, x: float) -> bool:
    probes = x * np.array([1.0, 2.0, 4.0, 8.0, 16.0, 64.0])
    for side in (probes, -probes):
        vals = np.asarray(act.f2(side), float)
        signs = np.sign(vals[np.abs(vals) > 0])
        if signs.size and (signs != signs[0]).any():
            return False
    return True


def integration_window(act: Activation, center: float = 0.0, tol: float = 1e-6) -> float:
    """Smallest doubling half-width t > max(|center|, |kink|) whose window
    [center - t, center + t] has weighted tail at most tol and f'' of one
    sign beyond both ends."""
    reach = max(abs(center), abs(act.kink[0]) if act.kink else 0.0)
    t = 8.0
    while t <= _MAX_WINDOW:
        if t > reach:
            hi, lo = center + t, center - t
            if tail_weight(act, hi, lo) <= tol and _sign_stable(act, min(hi, -lo)):
                return t
        t *= 2.0
    raise NonIntegrable(f"weighted curvature tail of {act.label} stays above {tol:g}")


# ---------------------------------------------------------------------------
# gamma0 / inf g / gamma


def curvature_breaks(act: Activation, ends) -> list:
    """Sorted points cutting [min(ends), max(ends)] into pieces on which f
    is smooth and f'' keeps one sign: the ends, the kink if it lies strictly
    between them, and each sign change of f'' on a piece between those,
    found between consecutive nonzero samples of a 4097-point grid: the
    first zero sample between the two if there is one, else refined by
    brentq. scipy.optimize is imported here, at the first call: the
    package imports no scipy at load, so a command that computes no gamma,
    builds no approximant and builds no gelu or erf spec never loads it."""
    from scipy import optimize

    breaks = set(ends)
    if act.kink and min(ends) < act.kink[0] < max(ends):
        breaks.add(act.kink[0])
    pieces = sorted(breaks)
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        xs = np.linspace(lo, hi, 4097)
        f2 = np.asarray(act.f2(xs), float)
        nonzero = np.flatnonzero((f2 > 0.0) | (f2 < 0.0))  # a nan sample counts as a zero
        positive = f2[nonzero] > 0.0
        flips = np.flatnonzero(positive[:-1] != positive[1:])
        for i, j in zip(nonzero[flips], nonzero[flips + 1]):
            breaks.add(float(xs[i + 1]) if j > i + 1 else
                       optimize.brentq(lambda t: float(act.f2(t)), xs[i], xs[j], xtol=1e-12))
    return sorted(breaks)


def gamma0(act: Activation) -> float:
    """Quadrature value of int |f''(x)| (|x|+1) dx.

    The window is split at the kink, at x=0 and at curvature sign
    changes so every panel hands scipy a smooth integrand; the two
    unbounded tails are added via the by-parts identity. A panel whose
    quadrature does not converge raises NonIntegrable rather than adding
    up quad's estimate. Uncached: gamma_parts holds the one memo per
    activation.
    """
    from scipy import integrate

    window = integration_window(act)
    knots = curvature_breaks(act, (-window, 0.0, window))

    def integrand(t):
        return abs(float(act.f2(t))) * (abs(t) + 1.0)

    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        # full_output: a fourth element, quad's message, means it did not converge
        val, _, _, *failed = integrate.quad(integrand, lo, hi, epsabs=1e-8, epsrel=1e-8,
                                            limit=10_000, full_output=1)
        if failed:
            raise NonIntegrable(f"quadrature of {act.label} on [{lo:g}, {hi:g}] "
                                f"did not converge: {failed[0].splitlines()[0]}")
        total += val
    total += tail_weight(act, window, -window)
    return total


def g_value(act: Activation, x):
    """g(x) = |f(x)| + (|x|+2)|f'(x)|, the cost of the linear anchor at x."""
    x = np.asarray(x, float)
    return np.abs(act.f(x)) + (np.abs(x) + 2.0) * np.abs(act.f1(x))


def _g_limits(act: Activation):
    # When the asymptote slope vanishes and gamma0 is finite,
    # (|x|+2)|f'(x)| is squeezed by the weighted curvature tail, so the
    # limit of g is just |intercept|; any nonzero slope sends g to +inf.
    a, b = act.asymptote_left
    c, d = act.asymptote_right
    g_left = abs(b) if a == 0.0 else np.inf
    g_right = abs(d) if c == 0.0 else np.inf
    return g_left, g_right


def inf_g(act: Activation):
    """Approximate (argmin, infimum) of g, searched once per activation and
    kept on it; the argmin may be +-inf."""
    return act._inf_g


def _search_inf_g(act: Activation):
    from scipy import optimize

    xs = np.linspace(-64.0, 64.0, 4096)
    vals = np.asarray(g_value(act, xs), float)
    i = int(np.argmin(vals))
    best_x, best = float(xs[i]), float(vals[i])
    if 0 < i < len(xs) - 1 and vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]:
        def g(t):
            return float(g_value(act, t))

        if vals[i] < vals[i + 1]:
            res = optimize.minimize_scalar(g, bracket=(xs[i - 1], xs[i], xs[i + 1]), method="golden")
        else:  # a tie: the minimum lies between the two equal grid values, or g is flat there
            res = optimize.minimize_scalar(
                g, bounds=(xs[i], xs[i + 1]), method="bounded", options={"xatol": 1e-12}
            )
        if res.fun < best:
            best_x, best = float(res.x), float(res.fun)
    g_left, g_right = _g_limits(act)
    if best <= min(g_left, g_right):
        return best_x, best
    if g_left <= g_right:
        return -np.inf, g_left
    return np.inf, g_right


def gamma_parts(act: Activation) -> GammaParts:
    """gamma0, the linear-anchor term and their sum.

    Smooth case: linear term is inf_x g(x). A kink at x0:
    linear term is |f(x0)| + (1+|x0|)(|f'+(x0)| + |f'-(x0)|).
    Computed once per activation object and kept on it.
    """
    return act._gamma


def gamma(act: Activation) -> float:
    return gamma_parts(act).total


def asymptotes(act: Activation, tol: float = 1e-8):
    """Estimate (left slope, left intercept, right slope, right intercept).

    Slopes come from f' and intercepts from f - slope*x at a doubling
    sequence of edge points, accepted once two consecutive estimates agree
    to tol (a Cauchy check, since the true limits are unknown here).
    """
    out = []
    for side in (-1.0, 1.0):
        x = 8.0
        prev = None
        found = None
        while x <= _MAX_WINDOW:
            slope = float(act.f1(side * x))
            intercept = float(act.f(side * x)) - slope * side * x
            if not (np.isfinite(slope) and np.isfinite(intercept)):
                break
            if prev is not None and abs(slope - prev[0]) < tol and abs(intercept - prev[1]) < tol:
                found = (slope, intercept)
                break
            prev = (slope, intercept)
            x *= 2.0
        if found is None:
            raise NoAsymptote(f"{act.label} shows no linear asymptote as x -> {side:+.0f}inf")
        out.append(found)
    (a, b), (c, d) = out
    return a, b, c, d


def lipschitz_constant(act: Activation) -> float:
    """Certified Lipschitz constant gamma + min(|slope_left|, |slope_right|)."""
    return gamma(act) + min(abs(act.asymptote_left[0]), abs(act.asymptote_right[0]))

