"""In-process workloads: sweep, rewrite and train.

Every workload builds its seeded inputs in __init__ (the set-up the
benchmark times), then runs job i on demand. A job returns its outputs,
which the runner hashes, and raises CheckFailed when a guarantee the
package states does not hold. Inputs come from numpy's own generator, not
from pathnorm.rng, so they stay the same when the package changes.

Job mixes are fixed cycles, so any `cycle` consecutive jobs hold every
kind in the same proportion and a run ends on a cycle boundary.
"""

import itertools
import json
import math
import os

import numpy as np

from pathnorm import activations, bounds, relu1d, resnet, serialize, train, twolayer
from pathnorm.errors import TooLarge

MAX_JOBS = 8192


class CheckFailed(Exception):
    """An output broke a guarantee the package states."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


class _Mix:
    """Job i -> (kind, n-th job of that kind) for a fixed cycle pattern."""

    pattern = ()
    host_samples = 1  # reference-kernel samples before each job (hostspeed.py)

    @property
    def cycle(self):
        return len(self.pattern)

    def kind(self, i):
        return self.pattern[i % self.cycle]

    def nth(self, i):
        kind, slot = self.kind(i), i % self.cycle
        return (i // self.cycle) * self.pattern.count(kind) + self.pattern[:slot].count(kind)

    def job(self, i, tracer):
        return getattr(self, "_" + self.kind(i))(i, self.nth(i))


# ---------------------------------------------------------------------------
# sweep

SWEEP_EPS = (1e-1, 1e-2, 1e-3)
SWEEP_SOURCES = ("swish", "elu", "leaky_relu", "expr_tanh", "expr_erf")
STRATA = 16
STRATA_ORDER = [int(f"{k:04b}"[::-1], 2) for k in range(STRATA)]  # 0, 8, 4, 12, 2, ...


class Sweep(_Mix):
    """A fresh activation per job: gamma_parts, then one approximant.

    Job i takes eps SWEEP_EPS[i % 3] and source SWEEP_SOURCES[i % 5], so
    any 15 consecutive jobs hold every (source, eps) pair once. Parameters
    are continuous draws, so no (activation, eps) pair repeats. The cost of
    an approximant jumps with its parameters, so each pair's draws walk the
    STRATA equal strata of the range in bit-reversed order, a random point
    in each: every run, whatever its seed, covers the range evenly. leaky_relu
    draws lam from [0, 1): for lam > 1 the factory declares slope lam on
    the left, where the true slope is 1, and gamma raises NonIntegrable.
    """

    name = "sweep"
    pattern = ("approx",) * 15
    ref_jobs = 5

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.jitter = rng.uniform(size=(MAX_JOBS, 2))

    def _draws(self, i):
        """Two numbers in [0, 1) for job i, from strata the pair has not used lately."""
        k = STRATA_ORDER[(i // 15) % STRATA]
        u, v = (float(x) for x in self.jitter[i])
        return (k + u) / STRATA, ((5 * k + 3) % STRATA + v) / STRATA

    def _resolve(self, i):
        source = SWEEP_SOURCES[i % len(SWEEP_SOURCES)]
        a, b = self._draws(i)
        p, q = 0.5 + 1.5 * a, 0.5 + 1.5 * b
        if source == "swish":
            return activations.by_name(f"swish:beta={p!r}")
        if source == "elu":
            return activations.by_name(f"elu:alpha={p!r}")
        if source == "leaky_relu":
            return activations.by_name(f"leaky_relu:lam={a!r}")
        if source == "expr_tanh":  # p * tanh(q x)
            t = f"tanh({q!r}*x)"
            exprs = (f"{p!r}*{t}", f"{p * q!r}*(1-{t}**2)", f"{-2 * p * q * q!r}*{t}*(1-{t}**2)")
        else:  # p * erf(q x)
            k = 2.0 * p * q / math.sqrt(math.pi)
            g = f"exp(-({q!r}*x)**2)"
            exprs = (f"{p!r}*erf({q!r}*x)", f"{k!r}*{g}", f"{-2 * k * q * q!r}*x*{g}")
        spec = dict(zip(("f", "f1", "f2"), exprs), name=source,
                    asymptote_left=[0.0, -p], asymptote_right=[0.0, p])
        path = os.path.join(self.workdir, f"act{i}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return activations.load_custom(path)

    def _approx(self, i, n):
        if i >= MAX_JOBS:
            raise RuntimeError("sweep ran out of seeded activations")
        act = self._resolve(i)
        eps = SWEEP_EPS[i % len(SWEEP_EPS)]
        parts = activations.gamma_parts(act)
        check(math.isfinite(parts.total) and parts.total > 0, f"{act.label}: gamma {parts.total}")
        if act.closed_form_gamma is not None:
            err = abs(parts.total - act.closed_form_gamma)
            check(err <= 1e-3, f"{act.label}: |quadrature - closed form| = {err:g}")
        net, cert = relu1d.approximate_activation(act, eps)
        check(cert.gamma_reference == parts.total, f"{act.label}: gamma changed between calls")
        check(cert.sup_error_measured <= eps, f"{act.label}: sup error {cert.sup_error_measured:g} > {eps:g}")
        check(cert.path_norm <= cert.gamma_reference + eps,
              f"{act.label}: path norm {cert.path_norm:g} > gamma + eps")
        return {"gamma": tuple(parts), "cert": vars(cert), "units": net.units}


# ---------------------------------------------------------------------------
# rewrite

REWRITE_ACTS = ("sigmoid", "tanh", "gelu")
REWRITE_EPS = 1e-2
TWO_LAYER_SHAPES = ((1, 1), (2, 3), (3, 2), (4, 4), (5, 1), (6, 2), (7, 3), (8, 4))  # (m, d)
EMBED_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2))  # (depth, width)
# (depth, residual dim, width); the last two exceed norm_bruteforce's cap
RESNET_SHAPES = ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4), (5, 6, 5), (6, 6, 6), (7, 4, 3), (2, 7, 6))
RAD_FAMILIES = ("two-layer", "relu", "resnet", "linear")
RAD_N, RAD_D, RAD_M, RAD_CANDIDATES, RAD_BUDGET = 256, 4, 8, 32, 2.0
POOL = 24


def _two_layer(rng, m, d, act):
    return twolayer.TwoLayerNet(rng.normal(size=m), rng.normal(size=(m, d)), rng.normal(size=m), act)


class Rewrite(_Mix):
    """Rewrite-and-check pipeline over small seeded nets.

    Rewrites take ~50-250 ms and the other kinds 0.1-10 ms. Rewrites fill
    24 of the 30 slots, so p50 and p90 both fall well inside the rewrite
    block (the slowest 80% of latencies) and neither sits where a jump
    between kinds makes it swing. The 24 rewrites of a cycle are the POOL
    nets, each once, so every cycle holds the same net sizes. Only sigmoid,
    tanh and gelu at eps 1e-2 are rewritten, so the same approximant is
    rebuilt over and over.
    """

    name = "rewrite"
    pattern = ("rewrite", "rademacher", "rewrite", "rewrite", "embed",
               "rewrite", "rewrite", "rademacher", "rewrite", "rewrite",
               "norms", "rewrite", "rewrite", "rademacher", "rewrite",
               "rewrite", "rewrite", "rademacher", "rewrite", "rewrite") + ("rewrite",) * 10
    ref_jobs = 11

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        self.workdir = workdir
        acts = [activations.by_name(a) for a in REWRITE_ACTS]
        self.nets = [
            _two_layer(rng, *TWO_LAYER_SHAPES[k % 8], acts[k % 3]) for k in range(POOL)
        ]
        self.embeds = []
        for k in range(POOL):
            depth, width = EMBED_SHAPES[k % 8]
            self.embeds.append((_two_layer(rng, depth * width, 1 + (k // 2) % 4, acts[k % 3]),
                                depth, width))
        self.resnets = []
        for k in range(POOL):
            depth, dim, width = RESNET_SHAPES[k % 8]
            self.resnets.append(resnet.ResNet(
                rng.normal(size=(dim, 3)),
                tuple(rng.normal(size=(width, dim)) for _ in range(depth)),
                tuple(rng.normal(size=(dim, width)) for _ in range(depth)),
                rng.normal(size=dim), acts[k % 3], 1.0 + 8.0 * rng.uniform(),
            ))
        self.samples = [rng.uniform(-1.0, 1.0, size=(RAD_N, RAD_D)) for _ in range(4)]
        self.points = rng.uniform(-1.0, 1.0, size=(1000, 4))
        self.seed = seed

    def _rewrite(self, i, n):
        net = self.nets[n % POOL]
        out, rep = twolayer.rewrite_to_relu(net, REWRITE_EPS, seed=i)
        check(rep.path_norm_rewritten <= rep.path_norm_bound * (1 + 1e-12),
              f"rewrite path norm {rep.path_norm_rewritten:g} > bound {rep.path_norm_bound:g}")
        check(rep.max_deviation <= rep.deviation_bound * (1 + 1e-12),
              f"rewrite deviation {rep.max_deviation:g} > bound {rep.deviation_bound:g}")
        path = os.path.join(self.workdir, "rewrite.json")
        serialize.save_model(out, path)
        back = serialize.load_model(path)
        check(isinstance(back, twolayer.TwoLayerNet) and back.activation.name == "relu",
              "round trip changed the model type")
        same = all(np.array_equal(x, y) for x, y in ((back.a, out.a), (back.b, out.b), (back.c, out.c)))
        check(same, "round trip changed the weights")
        x = self.points[:256, : net.input_dim]
        check(np.array_equal(twolayer.eval_two_layer(back, x), twolayer.eval_two_layer(out, x)),
              "round trip changed the outputs")
        return {"report": vars(rep), "a": out.a, "b": out.b, "c": out.c}

    def _embed(self, i, n):
        src, depth, width = self.embeds[n % POOL]
        c = resnet.default_weight_constant(src.activation)
        net = resnet.embed_two_layer(src, depth, width, c)
        x = self.points[:, : src.input_dim]
        dev = float(np.max(np.abs(resnet.eval_resnet(net, x) - twolayer.eval_two_layer(src, x))))
        closed = resnet.norm_closed(net)
        bound = max(c, 1.0) * twolayer.modified_path_norm(src)
        check(dev <= 1e-10, f"embedding deviates by {dev:g}")
        check(closed <= bound * (1 + 1e-12), f"embedded norm {closed:g} > bound {bound:g}")
        return {"dev": dev, "norm": closed, "bound": bound}

    def _norms(self, i, n):
        net = self.resnets[n % POOL]
        closed = resnet.norm_closed(net)
        rec = resnet.norm_recursive(net)
        scale = max(abs(closed), 1.0)
        check(abs(closed - rec.total) / scale <= 1e-10, "closed and recursive norms disagree")
        try:
            brute = resnet.norm_bruteforce(net)
        except TooLarge:
            brute = None
        else:
            check(abs(closed - brute) / scale <= 1e-10, "closed and brute-force norms disagree")
        return {"closed": closed, "recursive": tuple(rec), "brute": brute}

    def _rademacher(self, i, n):
        family = RAD_FAMILIES[n % len(RAD_FAMILIES)]
        x = self.samples[(n // len(RAD_FAMILIES)) % len(self.samples)]
        act = activations.relu() if family == "relu" else activations.sigmoid()
        gam = activations.gamma(act)
        cseed = self.seed * 100_003 + i
        if family == "resnet":
            cands = bounds.random_resnet_candidates(
                RAD_CANDIDATES, RAD_D, 2, 8, RAD_M, act, 4.0 * gam + 1.0, RAD_BUDGET, seed=cseed)
            bound, norm_fn = bounds.rad_bound_resnet(RAD_BUDGET, RAD_D, RAD_N, gam), resnet.norm_closed
        elif family == "linear":
            cands = bounds.random_linear_candidates(RAD_CANDIDATES, RAD_D, seed=cseed)
            bound, norm_fn = bounds.rad_bound_linear(x), None
        else:
            modified = family == "two-layer"
            cands = bounds.random_two_layer_candidates(
                RAD_CANDIDATES, RAD_D, RAD_M, act, RAD_BUDGET, seed=cseed, modified=modified)
            if modified:
                bound = bounds.rad_bound_two_layer(RAD_BUDGET, RAD_D, RAD_N, gam)
                norm_fn = twolayer.modified_path_norm
            else:
                bound, norm_fn = bounds.rad_bound_relu(RAD_BUDGET, RAD_D, RAD_N), twolayer.path_norm
        est = bounds.empirical_rademacher(
            x, cands, seed=cseed, budget=RAD_BUDGET if norm_fn else None, norm_fn=norm_fn)
        check(est.value <= bound, f"{family}: Rademacher estimate {est.value:g} > bound {bound:g}")
        return {"family": family, "estimate": vars(est), "bound": bound}


# ---------------------------------------------------------------------------
# train

TRAIN_D, TRAIN_N, TRAIN_M = 2, 512, 64
TRAIN_ACTS = ("sigmoid", "tanh", "gelu", "relu")
# Steps per (activation, batch), so that every fit takes about 60 ms (a
# full-batch sigmoid step costs ~10x a batch-64 relu step). Fits then form
# one block of similar latencies that p50 falls in the middle of, instead of
# a ladder of 17-170 ms fits whose rungs p50 would jump between.
FIT_STEPS = {
    ("relu", None): 160, ("tanh", None): 120, ("gelu", None): 40, ("sigmoid", None): 40,
    ("relu", 64): 280, ("tanh", 64): 220, ("gelu", 64): 100, ("sigmoid", 64): 110,
}
APRIORI_SEEDS, APRIORI_STEPS, APRIORI_EVAL = 3, 80, 20_000
# fit config j % 16: activation j % 4, batch (j // 4) % 2, lam (j // 8) % 2
FIT_CONFIGS = [(a, b, l) for l, b, a in itertools.product((False, True), (None, 64), TRAIN_ACTS)]


class Train(_Mix):
    """Regularized training against a sigmoid Barron target.

    Fit jobs (~60 ms each) fill 80% of the mix and apriori_experiment jobs
    over a block of seeds (~0.6 s) the rest, so p50 falls inside the fit
    block and p90 inside the apriori block.
    """

    name = "train"
    pattern = (("fit",) * 4 + ("apriori",)) * 4
    ref_jobs = 5

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        atoms = 4
        self.rep = twolayer.DiscreteBarronRep(
            rng.dirichlet(np.ones(atoms)), rng.normal(size=(atoms, TRAIN_D + 1)),
            rng.uniform(0.0, 1.0, size=atoms))
        self.target_act = activations.sigmoid()
        self.data = []
        for _ in range(4):
            x = rng.uniform(-1.0, 1.0, size=(TRAIN_N, TRAIN_D))
            self.data.append(twolayer.Dataset(x, self.rep.function(self.target_act, x)))
        self.acts = {name: activations.by_name(name) for name in TRAIN_ACTS}

    def _fit(self, i, n):
        name, batch, regularized = FIT_CONFIGS[n % len(FIT_CONFIGS)]
        act = self.acts[name]
        lam = 0.0
        if regularized:
            lam = bounds.lambda_n_two_layer(TRAIN_D, TRAIN_N, activations.gamma(act))
        job_seed = self.seed * 100_003 + i
        init = train.init_two_layer(TRAIN_D, TRAIN_M, act, seed=job_seed)
        cfg = train.TrainConfig(steps=FIT_STEPS[name, batch], lam=lam, batch=batch, seed=job_seed)
        net, trace = train.fit(self.data[n % len(self.data)], cfg, init)
        check(bool(np.all(np.isfinite(trace))), "objective trace is not finite")
        check(trace.min() <= trace[0], "best objective above the initial one")
        return {"trace": trace, "a": net.a, "b": net.b, "c": net.c}

    def _apriori(self, i, n):
        base = self.seed * 100_003 + i
        report = train.apriori_experiment(
            self.rep, self.target_act, TRAIN_D, TRAIN_N, TRAIN_M, range(base, base + APRIORI_SEEDS),
            steps=APRIORI_STEPS, n_eval=APRIORI_EVAL)
        for row in report.rows:
            check(row.ok and math.isfinite(row.population_risk),
                  f"seed {row.seed}: risk {row.population_risk:g} > bound {row.bound:g}")
        return {"rows": [vars(r) for r in report.rows], "lam": report.lam, "norm": report.norm_estimate}


WORKLOADS = {w.name: w for w in (Sweep, Rewrite, Train)}


def _approx_counts(args, kwargs, result):
    net, cert = result
    candidates = int(math.log2(cert.partition_size // 64)) + 1  # doublings from 64 panels
    return {
        "key": f"{id(args[0])}:{args[1]!r}",
        "panels": cert.partition_size,
        "candidates": candidates,
        "grid_points": cert.grid_points * candidates,
        "units": net.width,
    }


def _fit_counts(args, kwargs, result):
    _, cfg, init = args
    return {"steps": cfg.steps, "act": init.activation.name,
            "live_units": int(np.count_nonzero(result[0].a))}


# (module, function, layer, counts read from the call) for the traced run
LAYERS = [
    (activations, "gamma_parts", "activations.gamma_parts", None),
    (activations, "load_custom", "activations.load_custom", None),
    (relu1d, "approximate_activation", "relu1d.approximate_activation", _approx_counts),
    (twolayer, "rewrite_to_relu", "twolayer.rewrite_to_relu",
     lambda a, k, r: {"units_out": r[1].width}),
    (twolayer, "eval_two_layer", "twolayer.eval_two_layer", None),
    (resnet, "embed_two_layer", "resnet.embed_two_layer", None),
    (resnet, "eval_resnet", "resnet.eval_resnet", None),
    (resnet, "norm_closed", "resnet.norm_closed", None),
    (resnet, "norm_recursive", "resnet.norm_recursive", None),
    (resnet, "norm_bruteforce", "resnet.norm_bruteforce", None),
    (bounds, "random_two_layer_candidates", "bounds.random_candidates", None),
    (bounds, "random_resnet_candidates", "bounds.random_candidates", None),
    (bounds, "random_linear_candidates", "bounds.random_candidates", None),
    (bounds, "empirical_rademacher", "bounds.empirical_rademacher",
     lambda a, k, r: {"evals": r.n_candidates * r.n_samples}),
    (serialize, "save_model", "serialize.save_model",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    (serialize, "load_model", "serialize.load_model", None),
    (train, "fit", "train.fit", _fit_counts),
    (train, "apriori_experiment", "train.apriori_experiment",
     lambda a, k, r: {"seeds": len(r.rows)}),
]
