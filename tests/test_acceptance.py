"""Acceptance gate: one test per headline guarantee, one verdict line each.

Each test emits `ACCEPTANCE <n> PASS/FAIL <detail>` outside pytest's capture
(so the verdicts land in piped logs), then asserts. Expected values are
computed from hand formulas or frozen literals, never from the code paths
under test.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from pathnorm import activations as A
from pathnorm.activations import (
    by_name,
    catalog,
    elu,
    gelu,
    leaky_relu,
    relu,
    sigmoid,
    softplus,
    swish,
    tanh,
)
from pathnorm.bounds import (
    empirical_rademacher,
    rad_bound_linear,
    rad_bound_relu,
    rad_bound_resnet,
    rad_bound_two_layer,
    random_linear_candidates,
    random_resnet_candidates,
    random_two_layer_candidates,
)
from pathnorm.relu1d import approximate_activation
from pathnorm.resnet import (
    ResNet,
    default_weight_constant,
    embed_two_layer,
    eval_resnet,
    modification_bounds,
    norm_bruteforce,
    norm_closed,
    norm_recursive,
)
from pathnorm.rng import make_rng
from pathnorm.train import apriori_experiment, gradient, objective
from pathnorm.twolayer import (
    Dataset,
    DiscreteBarronRep,
    TwoLayerNet,
    eval_two_layer,
    modified_path_norm,
    path_norm,
    rewrite_to_relu,
    sample_from_barron,
)

GELU_GAMMA = 4.0 * (ndtr(math.sqrt(2)) + (1 + math.sqrt(2)) / (math.e * math.sqrt(math.pi))) - 3.0


@pytest.fixture
def verdict(capsys):
    def emit(num: int, ok: bool, detail: str):
        line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


# ---------------------------------------------------------------------------
# 1. closed-form gamma catalog


def test_criterion_01_gamma_closed_forms(verdict):
    cases = [
        (relu(), 1.0),
        (sigmoid(), 1.5),
        (tanh(), 5.0),
        (elu(0.5), 2.5),
        (elu(1.0), 3.0),  # smooth case; the kink formula 3|a|+1 needs a != 1
        (elu(2.0), 7.0),
        (leaky_relu(0.0), 1.0),
        (leaky_relu(0.1), 1.1),
        (gelu(), GELU_GAMMA),
        (softplus(), 1.0 + 2.0 * math.log(2.0)),
        (swish(0.5), 1.7569 / 0.5 + 1.3994),
        (swish(1.0), 1.7569 / 1.0 + 1.3994),
        (swish(2.0), 1.7569 / 2.0 + 1.3994),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for act, closed in cases:
        worst = max(worst, abs(A.gamma(act) - closed))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 10.0
    verdict(1, ok, f"13 gamma values, max |quad-closed| {worst:.2e} (tol 1e-3), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. certified ReLU approximants


def test_criterion_02_approx_certificates(verdict):
    t0 = time.perf_counter()
    failures = []
    worst_err = worst_excess = 0.0
    for act in catalog():
        gam = A.gamma(act)
        for eps in (1e-1, 1e-2):
            net, cert = approximate_activation(act, eps)
            worst_err = max(worst_err, cert.sup_error_measured / eps)
            worst_excess = max(worst_excess, cert.path_norm - gam - eps)
            if cert.sup_error_measured > eps or cert.path_norm > gam + eps:
                failures.append((act.label, eps))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    verdict(
        2,
        ok,
        f"16 certificates, sup_err/eps max {worst_err:.3f}, "
        f"norm excess max {worst_excess:.2e}, {elapsed:.1f}s"
        + (f", failed {failures}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# 3-4. residual norm forms and modification dominance


def _random_resnets(n, seed, depth_max=5, size_max=8):
    rng = make_rng(seed)
    nets = []
    for _ in range(n):
        depth = int(rng.integers(1, depth_max + 1))
        dim = int(rng.integers(1, size_max + 1))
        width = int(rng.integers(1, size_max + 1))
        d = int(rng.integers(1, 5))
        nets.append(
            ResNet(
                rng.normal(size=(dim, d + 1)),
                tuple(rng.normal(size=(width, dim)) for _ in range(depth)),
                tuple(rng.normal(size=(dim, width)) for _ in range(depth)),
                rng.normal(size=dim),
                relu(),
                float(rng.uniform(0.5, 8.0)),
            )
        )
    return nets


NETS_500 = _random_resnets(500, seed=20260814)


def test_criterion_03_norm_equivalences(verdict):
    worst = 0.0
    for net in NETS_500:
        closed = norm_closed(net)
        rec = norm_recursive(net).total
        worst = max(worst, abs(closed - rec) / max(abs(closed), 1.0))
    worst_brute = 0.0
    for net in _random_resnets(50, seed=99, depth_max=4, size_max=4):
        closed = norm_closed(net)
        brute = norm_bruteforce(net)
        worst_brute = max(worst_brute, abs(closed - brute) / max(abs(closed), 1.0))
    ok = worst <= 1e-10 and worst_brute <= 1e-10
    verdict(
        3,
        ok,
        f"closed vs recursive rel {worst:.2e} on 500 nets, "
        f"vs bruteforce rel {worst_brute:.2e} on 50 nets (tol 1e-10)",
    )


def test_criterion_04_modification_dominance(verdict):
    violations = 0
    margin = np.inf
    for net in NETS_500:
        rec = norm_recursive(net)
        bounds = modification_bounds(net)
        for m_l, b_l in zip(rec.m_values, bounds.m_bounds):
            gap = np.asarray(b_l) * (1 + 1e-12) - np.asarray(m_l)
            margin = min(margin, float(gap.min()))
            violations += int((gap < 0).sum())
        if rec.r > bounds.r_bound * (1 + 1e-12):
            violations += 1
    ok = violations == 0
    verdict(4, ok, f"{violations} violations over 500 nets, min slack {margin:.2e}")


# ---------------------------------------------------------------------------
# 5. rewrite guarantee


def test_criterion_05_rewrite_guarantee(verdict):
    eps = 1e-2
    rng = make_rng(55)
    failures = 0
    worst_norm = worst_dev = 0.0
    for i in range(50):
        act = sigmoid() if i % 2 == 0 else tanh()
        gam = A.gamma(act)
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        net = TwoLayerNet(
            rng.normal(size=m), rng.normal(size=(m, d)), rng.normal(size=m), act
        )
        # seed=i as the benchmark's rewrite workload passes it: rewrite_to_relu
        # must keep accepting and ignoring it
        out, rep = rewrite_to_relu(net, eps, seed=i)
        x = make_rng(i).uniform(-1, 1, (10_000, d))
        dev = np.max(np.abs(eval_two_layer(net, x) - eval_two_layer(out, x)))
        norm_ratio = path_norm(out) / ((gam + eps) * modified_path_norm(net))
        dev_ratio = dev / (eps * np.sum(np.abs(net.a)))
        worst_norm = max(worst_norm, norm_ratio)
        worst_dev = max(worst_dev, dev_ratio)
        if norm_ratio > 1.0 or dev_ratio > 1.0 or dev > rep.max_deviation * (1 + 1e-12):
            failures += 1
    ok = failures == 0
    verdict(
        5,
        ok,
        f"50 rewrites at eps=1e-2: norm ratio max {worst_norm:.4f}, "
        f"deviation ratio max {worst_dev:.4f} (both must be <= 1)",
    )


# ---------------------------------------------------------------------------
# 6. two-layer -> ResNet embedding


def test_criterion_06_embedding(verdict):
    rng = make_rng(66)
    acts = [relu(), sigmoid(), tanh(), leaky_relu(0.1)]
    splits = [(1, 8), (2, 4), (4, 2), (8, 1), (2, 3)]
    failures = 0
    worst_dev = 0.0
    worst_ratio = 0.0
    for i in range(20):
        depth, width = splits[i % len(splits)]
        act = acts[i % len(acts)]
        m = depth * width
        d = int(rng.integers(1, 4))
        src = TwoLayerNet(
            rng.normal(size=m), rng.normal(size=(m, d)), rng.normal(size=m), act
        )
        c = default_weight_constant(act)
        net = embed_two_layer(src, depth, width, c)
        x = rng.uniform(-1.0, 1.0, size=(1000, d))
        dev = float(np.max(np.abs(eval_resnet(net, x) - eval_two_layer(src, x))))
        bound = max(c, 1.0) * modified_path_norm(src)
        ratio = norm_closed(net) / bound
        worst_dev = max(worst_dev, dev)
        worst_ratio = max(worst_ratio, ratio)
        if dev > 1e-10 or ratio > 1.0 + 1e-12:
            failures += 1
    ok = failures == 0
    verdict(
        6,
        ok,
        f"20 embeddings: eval deviation max {worst_dev:.2e} (tol 1e-10), "
        f"norm/bound max {worst_ratio:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. Monte-Carlo approximation decay


def test_criterion_07_monte_carlo_decay(verdict):
    t0 = time.perf_counter()
    probs = np.array([0.05, 0.1, 0.15, 0.2, 0.2, 0.15, 0.1, 0.05])
    ws = np.array(
        [
            [1.0, -0.5, 0.25, 0.0, 0.5],
            [-1.0, 0.75, -0.25, 0.5, -0.5],
            [0.5, 0.5, 0.5, -1.0, 0.0],
            [2.0, -1.0, 0.0, 0.25, 1.0],
            [-0.5, -0.75, 1.0, 0.5, 0.25],
            [0.0, 1.5, -0.5, -0.25, -1.0],
            [1.5, 0.0, 0.75, 1.0, 0.5],
            [-2.0, 0.25, -1.0, -0.5, 0.75],
        ]
    )
    coeffs = np.array([2.0, -1.5, 1.0, 0.5, -0.5, 1.5, -1.0, 0.75])
    rep = DiscreteBarronRep(probs, ws, coeffs)
    act = sigmoid()

    # oracle quantities straight from the literals
    norm_sq = float(np.sum(probs * coeffs**2 * (np.abs(ws).sum(axis=1) + 1.0) ** 2))
    c_sig = 4.0  # (L_sigmoid + |sigmoid(0)|)^2 = (1.5 + 0.5)^2

    x_eval = make_rng(999).uniform(-1.0, 1.0, size=(4096, 4))
    target = np.asarray(act.f(x_eval @ ws[:, :-1].T + ws[:, -1]), float) @ (probs * coeffs)

    ms = [16, 32, 64, 128, 256, 512, 1024]
    mean_mse = []
    for m in ms:
        errs = []
        for s in range(100):
            net = sample_from_barron(rep, m, act, seed=s * 7919 + m)
            errs.append(float(np.mean((eval_two_layer(net, x_eval) - target) ** 2)))
        mean_mse.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(ms), np.log(mean_mse), 1)[0])
    bounds_ok = all(mse <= 3.0 * c_sig * norm_sq / m for m, mse in zip(ms, mean_mse))
    elapsed = time.perf_counter() - t0
    ok = -1.2 <= slope <= -0.8 and bounds_ok and elapsed < 120.0
    verdict(
        7,
        ok,
        f"MC decay slope {slope:.3f} (want -1 +- 0.2), bound "
        f"{'held' if bounds_ok else 'VIOLATED'} at all m, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Rademacher dominance across families


def test_criterion_08_rademacher_dominance(verdict):
    gam_sig = A.gamma(sigmoid())
    failures = 0
    min_margin = np.inf
    for seed in range(20):
        rng = make_rng(1000 + seed)
        d = int(rng.integers(2, 6))
        n = int(rng.integers(32, 129))
        q = float(rng.uniform(0.5, 4.0))
        x = rng.uniform(-1.0, 1.0, size=(n, d))

        cands = random_two_layer_candidates(24, d, 6, sigmoid(), q, seed=seed)
        est = empirical_rademacher(x, cands, n_sign_draws=64, seed=seed).value
        checks = [(est, rad_bound_two_layer(q, d, n, gam_sig))]

        cands = random_two_layer_candidates(24, d, 6, relu(), q, seed=seed, modified=False)
        est = empirical_rademacher(x, cands, n_sign_draws=64, seed=seed).value
        checks.append((est, rad_bound_relu(q, d, n)))

        cands = random_resnet_candidates(
            12, d, 2, 4, 3, sigmoid(), weight_c=4.0 * gam_sig + 1.0, budget=q, seed=seed
        )
        est = empirical_rademacher(x, cands, n_sign_draws=64, seed=seed).value
        checks.append((est, rad_bound_resnet(q, d, n, gam_sig)))

        est = empirical_rademacher(
            x, random_linear_candidates(24, d, seed=seed), n_sign_draws=64, seed=seed
        ).value
        checks.append((est, rad_bound_linear(x)))

        for got, bound in checks:
            min_margin = min(min_margin, bound - got)
            if got > bound:
                failures += 1
    ok = failures == 0
    verdict(
        8,
        ok,
        f"4 families x 20 configs: {failures} bound violations, "
        f"min margin {min_margin:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. analytic gradients vs finite differences


def _fd_check(act, rng, lam=0.05):
    """One random non-clamped, non-kink configuration; returns max rel error."""
    m, d, n = 2, 2, 8
    for _ in range(200):
        a = rng.uniform(0.05, 0.3, size=m)
        b = rng.uniform(0.1, 0.9, size=(m, d)) * rng.choice([-1.0, 1.0], size=(m, d))
        c = rng.uniform(0.1, 0.9, size=m) * rng.choice([-1.0, 1.0], size=m)
        x = rng.uniform(-1.0, 1.0, size=(n, d))
        y = rng.uniform(0.2, 0.8, size=n)
        net = TwoLayerNet(a, b, c, act)
        z = x @ net.b.T + net.c
        pred = eval_two_layer(net, x)
        if np.all((pred > 0.02) & (pred < 0.98)) and np.all(np.abs(z) > 0.05):
            break
    else:  # pragma: no cover - generator is comfortably feasible
        raise AssertionError("could not sample a clean configuration")
    data = Dataset(x, y)
    da, db, dc = gradient(net, data, lam)
    analytic = np.concatenate([da, db.ravel(), dc])
    theta = np.concatenate([a, b.ravel(), c])

    def unpack(v):
        return TwoLayerNet(v[:m], v[m : m + m * d].reshape(m, d), v[m + m * d :], act)

    fd = np.empty_like(theta)
    for i in range(theta.size):
        h = 1e-6 * max(1.0, abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (objective(unpack(up), data, lam) - objective(unpack(dn), data, lam)) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float(np.max(np.abs(analytic - fd) / denom))


def test_criterion_09_gradient_finite_differences(verdict):
    worst = 0.0
    failures = 0
    for k, act in enumerate(catalog()):
        rng = make_rng(k)
        for _ in range(100):
            err = _fd_check(act, rng)
            worst = max(worst, err)
            failures += err > 1e-4
    ok = failures == 0
    verdict(
        9,
        ok,
        f"8 activations x 100 points: max rel error {worst:.2e} (tol 1e-4), "
        f"{failures} failures",
    )


# ---------------------------------------------------------------------------
# 10. a-priori bound at the reference configuration


def test_criterion_10_apriori_bound(verdict):
    t0 = time.perf_counter()
    rep = DiscreteBarronRep([1.0], [[1.0, 0.5, 0.25]], [0.9])
    report = apriori_experiment(
        rep,
        sigmoid(),
        d=2,
        n=512,
        m=64,
        seeds=range(20),
        delta=0.05,
        steps=300,
        step_size=0.05,
        n_eval=20_000,
    )
    n_ok = sum(r.ok for r in report.rows)
    elapsed = time.perf_counter() - t0
    worst_risk = max(r.population_risk for r in report.rows)
    bound = report.rows[0].bound
    ok = n_ok >= 19
    verdict(
        10,
        ok,
        f"a-priori bound {bound:.3f} vs worst risk {worst_risk:.4f}: "
        f"{n_ok}/20 seeds ok, {elapsed:.0f}s",
    )
