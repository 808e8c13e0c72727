"""Command-line interface.

Subcommands: gamma-table, approx-1d, norm, rewrite, embed, rad-check,
bounds, train, apriori.  Every command accepts --seed, --out and
--format {csv,json}; reports go to stdout unless --out is given.
embed, rad-check, train and apriori draw from --seed; gamma-table,
approx-1d, norm, rewrite and bounds draw nothing and ignore it.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 numeric
failure.  Output for identical flags and seed is byte-identical.
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import activations as act_mod
from . import bounds as bounds_mod
from . import resnet as res_mod
from .activations import by_name
from .errors import NumericalError, OutOfRange, ParseError, PathNormError, TooLarge, load_json
from .relu1d import approximate_activation
from .resnet import eval_resnet
from .rng import make_rng
from .serialize import load_model, save_model
from .train import TrainConfig, apriori_experiment, empirical_risk, fit, init_two_layer
from .twolayer import (
    Dataset,
    DiscreteBarronRep,
    TwoLayerNet,
    eval_two_layer,
    modified_path_norm,
    path_norm,
    rewrite_to_relu,
)

OK, VERIFY_FAIL, USAGE, NUMERIC = 0, 1, 2, 3


def _intf(text: str) -> int:
    """Integer flag value; accepts scientific notation like 1e6."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return int(value)


def _flag(convert, rule, accept):
    """An argparse type: the text through `convert`, then held to `rule`."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


_count = _flag(_intf, "at least 1", lambda v: v >= 1)
_posf = _flag(float, "finite and > 0", lambda v: math.isfinite(v) and v > 0)
_nonneg = _flag(float, "finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
_frac = _flag(float, "in (0, 1]", lambda v: 0 < v <= 1)  # a probability or a fraction
_seed = _flag(_intf, "in [0, 2**128)", lambda v: 0 <= v < 2**128)  # a Philox key


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(rows, fmt: str, out) -> None:
    """Write a list of uniform dict rows as CSV or JSON."""
    if fmt == "json":
        text = json.dumps(rows, indent=1) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_fmt(v) for v in row.values()])
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands: each returns (report rows, whether every guarantee held)


def cmd_gamma_table(args):
    acts = [by_name(ref) for ref in args.only] if args.only else act_mod.catalog()
    rows = []
    for act in acts:
        parts = act_mod.gamma_parts(act)
        closed = act.closed_form_gamma
        rows.append({
            "activation": act.label,
            "gamma0": parts.gamma0,
            "linear_term": parts.linear_term,
            "gamma": parts.total,
            "closed_form": closed,
            "abs_error": abs(parts.total - closed) if closed is not None else None,
        })
    bad = [r for r in rows if r["abs_error"] is not None and r["abs_error"] > args.tol]
    return rows, not bad


def cmd_approx_1d(args):
    act = by_name(args.activation)
    net, cert = approximate_activation(act, args.eps)
    if args.save_model:
        save_model(net, args.save_model)
    row = {
        "activation": act.label,
        "eps": cert.epsilon_requested,
        "sup_error": cert.sup_error_measured,
        "path_norm": cert.path_norm,
        "gamma": cert.gamma_reference,
        "norm_bound": cert.gamma_reference + cert.epsilon_requested,
        "width": net.width,
        "anchor": cert.anchor,
        "window": cert.window_halfwidth,
        "partition": cert.partition_size,
    }
    ok = (
        cert.sup_error_measured <= cert.epsilon_requested
        and cert.path_norm <= cert.gamma_reference + cert.epsilon_requested
    )
    return [row], ok


def cmd_norm(args):
    model = load_model(args.model)
    if isinstance(model, TwoLayerNet):
        rows = [{
            "kind": "two_layer",
            "width": model.width,
            "path_norm": path_norm(model),
            "modified_path_norm": modified_path_norm(model),
        }]
        return rows, True
    closed = res_mod.norm_closed(model)
    rec = res_mod.norm_recursive(model)
    try:
        brute = res_mod.norm_bruteforce(model)
        brute_delta = abs(brute - closed)
    except TooLarge:
        brute, brute_delta = "skipped", None
    scale = max(abs(closed), 1.0)
    rows = [{
        "kind": "resnet",
        "depth": model.depth,
        "closed": closed,
        "recursive": rec.total,
        "weighted_path_norm": rec.weighted_path_norm,
        "r": rec.r,
        "bruteforce": brute,
        "closed_vs_recursive": abs(closed - rec.total) / scale,
        "closed_vs_bruteforce": brute_delta,
    }]
    ok = abs(closed - rec.total) / scale <= 1e-10
    if brute_delta is not None:
        ok = ok and brute_delta / scale <= 1e-10
    return rows, ok


def cmd_rewrite(args):
    model = load_model(args.model)
    if not isinstance(model, TwoLayerNet):
        raise ParseError("rewrite expects a two_layer model")
    relu_net, report = rewrite_to_relu(model, args.eps)
    if args.save_model:
        save_model(relu_net, args.save_model)
    row = {
        "eps": report.eps,
        "width": report.width,
        "path_norm": report.path_norm_rewritten,
        "norm_bound": report.path_norm_bound,
        "max_deviation": report.max_deviation,
        "deviation_bound": report.deviation_bound,
    }
    ok = (
        report.path_norm_rewritten <= report.path_norm_bound * (1 + 1e-12)
        and report.max_deviation <= report.deviation_bound * (1 + 1e-12)
    )
    return [row], ok


def cmd_embed(args):
    model = load_model(args.model)
    if not isinstance(model, TwoLayerNet):
        raise ParseError("embed expects a two_layer model")
    c = args.weight_c
    if c is None:
        c = res_mod.default_weight_constant(model.activation)
    net = res_mod.embed_two_layer(model, args.depth, args.width, c)
    if args.save_model:
        save_model(net, args.save_model)
    rng = make_rng(args.seed)
    x = rng.uniform(-1.0, 1.0, size=(args.n_check, model.input_dim))
    dev = float(np.max(np.abs(eval_resnet(net, x) - eval_two_layer(model, x))))
    # rounding grows with the terms summed, so the tolerance is relative to
    # max_x sum_k |a_k sigma(b_k . x + c_k)|, floored at 1 as in cmd_norm
    scale = max(1.0, float(np.max(
        np.abs(model.activation.f(x @ model.b.T + model.c)) @ np.abs(model.a))))
    closed = res_mod.norm_closed(net)
    bound = max(c, 1.0) * modified_path_norm(model)
    row = {
        "depth": net.depth,
        "width": net.width,
        "weight_c": c,
        "norm": closed,
        "norm_bound": bound,
        "max_eval_deviation": dev,
        "n_check_points": args.n_check,
    }
    return [row], dev <= 1e-10 * scale and closed <= bound * (1 + 1e-12)


def _resolve_gamma(spec: str) -> float:
    if spec.startswith("from:"):
        return act_mod.gamma(by_name(spec[5:]))
    try:
        return _nonneg(spec)
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"--gamma {exc}") from None


def cmd_rad_check(args):
    rng = make_rng(args.seed)
    x = rng.uniform(-1.0, 1.0, size=(args.n, args.d))
    if args.family in ("two-layer", "relu"):
        # ReLU nets are the two-layer class under the plain path norm (gamma = 1)
        relu_only = args.family == "relu"
        act = act_mod.relu() if relu_only else by_name(args.activation)
        cands = bounds_mod.random_two_layer_candidates(
            args.candidates, args.d, args.m, act, args.budget, seed=args.seed,
            modified=not relu_only,
        )
        if relu_only:
            bound = bounds_mod.rad_bound_relu(args.budget, args.d, args.n)
        else:
            bound = bounds_mod.rad_bound_two_layer(args.budget, args.d, args.n, act_mod.gamma(act))
        norm_fn = path_norm if relu_only else modified_path_norm
    elif args.family == "resnet":
        act = by_name(args.activation)
        gam = _resolve_gamma(args.gamma) if args.gamma else act_mod.gamma(act)
        weight_c = 4.0 * gam + 1.0
        cands = bounds_mod.random_resnet_candidates(
            args.candidates, args.d, args.depth, args.res_dim, args.m, act,
            weight_c, args.budget, seed=args.seed,
        )
        bound = bounds_mod.rad_bound_resnet(args.budget, args.d, args.n, gam)
        norm_fn = res_mod.norm_closed
    else:  # linear
        cands = bounds_mod.random_linear_candidates(args.candidates, args.d, seed=args.seed)
        bound = bounds_mod.rad_bound_linear(x)
        norm_fn = None
    est = bounds_mod.empirical_rademacher(
        x, cands, n_sign_draws=args.sign_draws, seed=args.seed,
        budget=args.budget if norm_fn else None, norm_fn=norm_fn,
    )
    row = {
        "family": args.family,
        "d": args.d,
        "n": args.n,
        "budget": args.budget,
        "candidates": est.n_candidates,
        "sign_draws": est.n_sign_draws,
        "estimate": est.value,
        "bound": bound,
        "margin": bound - est.value,
    }
    return [row], est.value <= bound


def cmd_bounds(args):
    act = by_name(args.activation)
    kind = args.kind
    # rad_bound_relu is built on gamma(relu) = 1, whatever --activation names
    gam = 1.0 if kind == "rad-relu" else act_mod.gamma(act)
    if kind == "rad-two-layer":
        value = bounds_mod.rad_bound_two_layer(args.q, args.d, args.n, gam)
    elif kind == "rad-relu":
        value = bounds_mod.rad_bound_relu(args.q, args.d, args.n)
    elif kind == "rad-resnet":
        value = bounds_mod.rad_bound_resnet(args.q, args.d, args.n, gam)
    elif kind == "lambda-two-layer":
        value = bounds_mod.lambda_n_two_layer(args.d, args.n, gam)
    elif kind == "lambda-resnet":
        value = bounds_mod.lambda_n_resnet(args.d, args.n, gam)
    elif kind == "posterior":
        value = bounds_mod.posterior_gap_bound(args.q, args.d, args.n, args.delta, gam)
    elif kind == "apriori-two-layer":
        lam = args.lam if args.lam is not None else bounds_mod.lambda_n_two_layer(args.d, args.n, gam)
        value = bounds_mod.apriori_bound_two_layer(
            args.q, args.m, args.d, args.n, args.delta, lam, act
        )
    else:  # apriori-resnet
        lam = args.lam if args.lam is not None else bounds_mod.lambda_n_resnet(args.d, args.n, gam)
        value = bounds_mod.apriori_bound_resnet(
            args.q, args.depth, args.m, args.d, args.n, args.delta, lam, act
        )
    row = {"kind": kind, "d": args.d, "n": args.n, "activation": args.activation,
           "gamma": gam, "value": value}
    return [row], True


def _load_csv_dataset(path: str) -> Dataset:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read data file: {exc}")
    if not rows:
        raise ParseError("empty data file")
    header, body = rows[0], rows[1:]
    if not header or header[-1] != "y":
        raise ParseError("last data column must be named y", 1)
    if not body:
        raise ParseError("data file has a header but no rows")
    for line, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ParseError(f"data line {line} has {len(row)} values, header has {len(header)}")
    try:
        arr = np.array([[float(v) for v in row] for row in body], float)
    except ValueError as exc:
        raise ParseError(f"non-numeric data value: {exc}")
    return Dataset(arr[:, :-1], arr[:, -1])


def _synth_dataset(model_path: str, n: int, seed: int) -> Dataset:
    model = load_model(model_path)
    if not isinstance(model, TwoLayerNet):
        raise ParseError("train --target expects a two_layer model")
    if model.width == 0:  # a saved empty model no longer knows its input dimension
        raise ParseError("train --target: the model has no units, so no input dimension")
    rng = make_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, model.input_dim))
    y = np.clip(eval_two_layer(model, x), 0.0, 1.0)
    return Dataset(x, y)


def cmd_train(args):
    if (args.data is None) == (args.target is None):
        raise ParseError("give exactly one of --data or --target")
    if args.data:
        data = _load_csv_dataset(args.data)
    else:
        data = _synth_dataset(args.target, args.n, args.seed)
    d = data.inputs.shape[1]
    init = init_two_layer(d, args.width, by_name(args.activation), seed=args.seed)
    cfg = TrainConfig(steps=args.steps, step_size=args.step_size, lam=args.lam,
                      batch=args.batch, seed=args.seed)
    net, trace = fit(data, cfg, init)
    if args.save_model:
        save_model(net, args.save_model)
    row = {
        "n": data.inputs.shape[0],
        "d": d,
        "width": args.width,
        "lam": args.lam,
        "steps": args.steps,
        "initial_objective": float(trace[0]),
        "final_objective": float(trace.min()),
        "final_risk": empirical_risk(net, data),
        "modified_path_norm": modified_path_norm(net),
    }
    return [row], True


def _load_rep(path: str, d: int, act: act_mod.Activation) -> DiscreteBarronRep:
    if path is None:
        # default: one atom along the first axis. Where f is negative at the
        # low end of the atom's input range, the range moves to start at 0;
        # the weight scales the target's top down to 1. The target lies in
        # [0, 1] when f is nondecreasing on the range and f(0) >= 0, as for
        # every built-in. sigmoid's atom needs neither change.
        w = np.zeros((1, d + 1))
        w[0, :2] = [1.0, 0.5] if d > 1 else [1.0, 1.0]
        reach = float(np.abs(w[0, :d]).sum())
        if float(act.f(w[0, d] - reach)) < 0.0:
            w[0, d] = reach
        top = float(act.f(w[0, d] + reach))
        return DiscreteBarronRep(np.ones(1), w, np.array([1.0 / max(top, 1.0)]))
    obj = load_json(path, "atoms")
    try:
        return DiscreteBarronRep(
            np.array(obj["probs"], float),
            np.array(obj["ws"], float),
            np.array(obj["coeffs"], float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed atoms file: {exc}")


def cmd_apriori(args):
    if args.seed + args.seeds > 2**128:
        raise ParseError("--seed + --seeds must not exceed 2**128")
    act = by_name(args.activation)
    rep = _load_rep(args.atoms, args.d, act)
    seeds = range(args.seed, args.seed + args.seeds)

    try:
        report = apriori_experiment(
            rep, act, args.d, args.n, args.m, seeds,
            lam_multiplier=args.lam_mult, delta=args.delta,
            steps=args.steps, step_size=args.step_size,
        )
    except OutOfRange as exc:  # the inputs are drawn in range, so the target left [0, 1]
        raise OutOfRange(f"{exc}; the --atoms target ({args.atoms or 'default atom'}) "
                         f"leaves it under --activation {args.activation}") from None
    rows = [{
        "seed": r.seed,
        "train_objective": r.train_objective,
        "population_risk": r.population_risk,
        "bound": r.bound,
        "ok": r.ok,
    } for r in report.rows]
    return rows, report.fraction_ok >= args.require


# ---------------------------------------------------------------------------
# argument plumbing


def _common(sub):
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--out", default=None, help="write report to this path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pathnorm", description=__doc__.splitlines()[0])
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("gamma-table", help="quadrature vs closed-form activation norms")
    p.add_argument("--only", action="append", help="activation ref, repeatable")
    p.add_argument("--tol", type=_posf, default=1e-3, help="max |quadrature - closed|")
    _common(p)
    p.set_defaults(fn=cmd_gamma_table)

    p = sp.add_parser("approx-1d", help="certified ReLU approximant of an activation")
    p.add_argument("--activation", required=True)
    p.add_argument("--eps", type=_posf, required=True)
    p.add_argument("--save-model", default=None)
    _common(p)
    p.set_defaults(fn=cmd_approx_1d)

    p = sp.add_parser("norm", help="path norms of a model file")
    p.add_argument("--model", required=True)
    _common(p)
    p.set_defaults(fn=cmd_norm)

    p = sp.add_parser("rewrite", help="rewrite a general-activation net as a ReLU net")
    p.add_argument("--model", required=True)
    p.add_argument("--eps", type=_posf, default=1e-2)
    p.add_argument("--save-model", default=None)
    _common(p)
    p.set_defaults(fn=cmd_rewrite)

    p = sp.add_parser("embed", help="embed a two-layer net into a residual net")
    p.add_argument("--model", required=True)
    p.add_argument("--depth", type=_intf, required=True)
    p.add_argument("--width", type=_intf, required=True)
    p.add_argument("--weight-c", type=_posf, default=None,
                   help="residual scale constant; default 4*gamma+1")
    p.add_argument("--n-check", type=_count, default=1000)
    p.add_argument("--save-model", default=None)
    _common(p)
    p.set_defaults(fn=cmd_embed)

    p = sp.add_parser("rad-check", help="empirical Rademacher estimate vs bound")
    p.add_argument("--family", choices=("two-layer", "relu", "resnet", "linear"),
                   default="two-layer")
    p.add_argument("--d", type=_count, default=4)
    p.add_argument("--n", type=_count, default=256)
    p.add_argument("--m", type=_count, default=8)
    p.add_argument("--depth", type=_intf, default=2)
    p.add_argument("--res-dim", type=_count, default=8)
    p.add_argument("--budget", type=_posf, default=2.0)
    p.add_argument("--candidates", type=_count, default=32)
    p.add_argument("--sign-draws", type=_count, default=256)
    p.add_argument("--activation", default="sigmoid")
    p.add_argument("--gamma", default=None,
                   help="resnet only: number or from:<activation>")
    _common(p)
    p.set_defaults(fn=cmd_rad_check)

    p = sp.add_parser("bounds", help="evaluate a bound formula")
    p.add_argument("--kind", required=True, choices=(
        "rad-two-layer", "rad-relu", "rad-resnet", "lambda-two-layer",
        "lambda-resnet", "posterior", "apriori-two-layer", "apriori-resnet"))
    p.add_argument("--q", type=_nonneg, default=1.0,
                   help="norm budget (or trained norm / target norm)")
    p.add_argument("--d", type=_count, required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--m", type=_count, default=64)
    p.add_argument("--depth", type=_count, default=2)
    p.add_argument("--delta", type=_frac, default=0.05)
    p.add_argument("--lam", type=_nonneg, default=None)
    p.add_argument("--activation", default="relu")
    _common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sp.add_parser("train", help="path-norm-regularized two-layer training")
    p.add_argument("--data", default=None, help="CSV with columns x0..x{d-1},y")
    p.add_argument("--target", default=None, help="two_layer model JSON to synthesize from")
    p.add_argument("--n", type=_count, default=256, help="synthesized sample count")
    p.add_argument("--width", type=_count, default=32)
    p.add_argument("--activation", default="relu")
    p.add_argument("--steps", type=_count, default=500)
    p.add_argument("--step-size", type=_posf, default=0.05)
    p.add_argument("--lam", type=_nonneg, default=0.0)
    p.add_argument("--batch", type=_count, default=None)
    p.add_argument("--save-model", default=None)
    _common(p)
    p.set_defaults(fn=cmd_train)

    p = sp.add_parser("apriori", help="trained risk vs a-priori bound over seeds")
    p.add_argument("--d", type=_count, default=2)
    p.add_argument("--n", type=_count, default=512)
    p.add_argument("--m", type=_count, default=64)
    p.add_argument("--seeds", type=_count, default=20)
    p.add_argument("--lam-mult", type=_posf, default=1.0)
    p.add_argument("--delta", type=_frac, default=0.05)
    p.add_argument("--steps", type=_count, default=300)
    p.add_argument("--step-size", type=_posf, default=0.05)
    p.add_argument("--activation", default="sigmoid")
    p.add_argument("--atoms", default=None, help="JSON with probs/ws/coeffs")
    p.add_argument("--require", type=_frac, default=0.95,
                   help="minimum fraction of seeds below the bound")
    _common(p)
    p.set_defaults(fn=cmd_apriori)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    # the one place that writes a report and maps the outcome to an exit code
    try:
        # an overflow or nan shows up in the report and exits 3, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            rows, ok = args.fn(args)
        bad = [k for row in rows for k, v in row.items()
               if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise NumericalError(f"non-finite {bad[0]} in the report")
        _emit(rows, args.format, args.out)
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC
    except (PathNormError, OSError) as exc:  # OSError: an output file cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (MemoryError, RecursionError) as exc:  # a huge size flag, a deeply nested expression
        print(f"error: input too large ({type(exc).__name__})", file=sys.stderr)
        return USAGE
    return OK if ok else VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
