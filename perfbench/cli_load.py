"""The cli workload: one fresh `python -m pathnorm.cli` process per job.

Job i runs command i % len(COMMANDS), the README's commands plus --help,
in that order, so a run of whole cycles holds each command equally often.
This module imports nothing from pathnorm: each job pays the package's
import itself, and set-up is only writing the seeded input files.
"""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# gamma-table fans its rows out over PATHNORM_THREADS threads: use every core
THREADS = len(os.sched_getaffinity(0))

# (subcommand, argv after it); --seed is appended to all but help
COMMANDS = (
    ("gamma-table", []),
    ("approx-1d", ["--activation", "tanh", "--eps", "0.01", "--save-model", "tanh_relu.json"]),
    ("norm", ["--model", "tanh_relu.json"]),
    ("rewrite", ["--model", "two_layer.json", "--eps", "0.01"]),
    ("embed", ["--model", "two_layer.json", "--depth", "2", "--width", "2",
               "--save-model", "resnet.json"]),
    ("norm", ["--model", "resnet.json"]),
    ("rad-check", ["--family", "two-layer"]),
    ("rad-check", ["--family", "relu"]),
    ("rad-check", ["--family", "resnet", "--gamma", "from:sigmoid"]),
    ("rad-check", ["--family", "linear"]),
    ("bounds", ["--kind", "posterior", "--q", "2", "--d", "4", "--n", "1000",
                "--activation", "sigmoid"]),
    ("train", ["--target", "two_layer.json", "--lam", "0.05", "--save-model", "fit.json"]),
    ("apriori", ["--seeds", "2", "--steps", "100"]),
    ("help", ["--help"]),
)
SUBCOMMANDS = tuple(dict.fromkeys(sub for sub, _ in COMMANDS))


class CheckFailed(Exception):
    """A command exited non-zero, printed unparseable output or a failed guarantee."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def _le(row, lhs, rhs):
    return float(row[lhs]) <= float(row[rhs]) * (1 + 1e-12)


def _guarantees(sub, rows):
    """Check the guarantee columns of one command's CSV rows."""
    check(rows, f"{sub}: no rows")
    for row in rows:
        if sub == "gamma-table":
            check(row["abs_error"] == "" or float(row["abs_error"]) <= 1e-3,
                  f"gamma-table: {row['activation']} off by {row['abs_error']}")
        elif sub == "approx-1d":
            check(float(row["sup_error"]) <= float(row["eps"]) and _le(row, "path_norm", "norm_bound"),
                  "approx-1d: certificate broken")
        elif sub == "norm" and row["kind"] == "two_layer":
            check(_le(row, "path_norm", "modified_path_norm"), "norm: path norm above modified")
        elif sub == "norm":
            deltas = [row["closed_vs_recursive"], row["closed_vs_bruteforce"]]
            check(all(d == "" or float(d) <= 1e-10 for d in deltas), "norm: evaluators disagree")
        elif sub == "rewrite":
            check(_le(row, "path_norm", "norm_bound") and _le(row, "max_deviation", "deviation_bound"),
                  "rewrite: guarantee broken")
        elif sub == "embed":
            check(float(row["max_eval_deviation"]) <= 1e-10 and _le(row, "norm", "norm_bound"),
                  "embed: guarantee broken")
        elif sub == "rad-check":
            check(float(row["estimate"]) <= float(row["bound"]), "rad-check: estimate above bound")
        elif sub == "bounds":
            check(math.isfinite(float(row["value"])) and float(row["value"]) > 0, "bounds: bad value")
        elif sub == "train":
            check(float(row["final_objective"]) <= float(row["initial_objective"]),
                  "train: objective rose")
        elif sub == "apriori":
            check(row["ok"] == "true", f"apriori: seed {row['seed']} above its bound")


def write_inputs(workdir, seed):
    """The seeded two-layer sigmoid net the README's commands read."""
    rng = random.Random(seed)
    units = [[rng.uniform(-1, 1), [rng.uniform(-1, 1), rng.uniform(-1, 1)], rng.uniform(-1, 1)]
             for _ in range(4)]
    model = {"type": "two_layer", "activation": {"name": "sigmoid", "params": {}}, "units": units}
    with open(os.path.join(workdir, "two_layer.json"), "w") as fh:
        json.dump(model, fh)


class Cli:
    name = "cli"
    pattern = tuple(sub for sub, _ in COMMANDS)
    cycle = len(COMMANDS)
    ref_jobs = 3
    host_samples = 8  # a run holds few jobs, so sample the host more per job

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        write_inputs(workdir, seed)
        self.env = dict(os.environ, PYTHONPATH=SRC, PATHNORM_THREADS=str(THREADS), COLUMNS="100")
        self.peak_rss_kb = 0

    def kind(self, i):
        return self.pattern[i % self.cycle]

    def job(self, i, tracer):
        sub, args = COMMANDS[i % self.cycle]
        argv = [sys.executable, "-m", "pathnorm.cli"]
        argv += args if sub == "help" else [sub, *args, "--seed", str(self.seed)]
        err_path = os.path.join(self.workdir, "stderr.txt")
        with tracer.span("cli." + sub), open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            with open(err_path, "rb") as fh:
                tail = fh.read()[-400:].decode(errors="replace")
            raise CheckFailed(f"{sub} exited {proc.returncode}: {tail}")
        text = out.decode()
        if sub == "help":
            check(text.startswith("usage: pathnorm"), "help: no usage line")
        else:
            _guarantees(sub, list(csv.DictReader(io.StringIO(text))))
        return {"argv": argv[1:], "stdout": out}

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024.0
