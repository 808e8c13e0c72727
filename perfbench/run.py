"""The pathnorm benchmark: four closed-loop workloads, checked and timed.

    python3 perfbench/run.py --workload {sweep,rewrite,train,cli} \
        --seed N --seconds S --trace {0,1} [--max-jobs K]

Run it from the root of a checkout that holds src/pathnorm. One client in
one process runs jobs back to back; job i depends only on the seed and i.
A run, in order:

1. set-up: SETUP_PROBES fresh interpreters each import the package and
   build the seeded inputs; setup_s is the median time from spawn to ready.
2. reference: jobs 0..ref_jobs-1 run untimed; the hash of their outputs
   is the run's digest.
3. timed: whole cycles of the job mix run from the next cycle boundary,
   ending on the cycle boundary nearest to S seconds spent in jobs.
   jobs_per_s is the timed jobs over the sum of their latencies. With
   --trace 1, cycles alternate untraced and traced; only the per-layer
   metrics, from the traced cycles, and the tracing overhead, from
   comparing the two kinds of cycle, are reported.
4. verify: the reference jobs run again; a digest that differs counts as
   a failed job.

Before every job and every set-up probe the run samples a fixed reference
kernel (hostspeed.py), and the end-to-end times are scaled by REF_MS over
the kernel's median in the run: times at a reference host speed, so that
other tenants' load on a shared host does not move them. The record line
holds the unscaled values and the factor.

Every job checks its outputs. The last stdout line is one JSON object
{correct, attempted, failed, metrics}; the line before it records the
digest, the failures and the environment. Exit code 0 when every job
passed, 1 when one failed, 2 when the program is missing.
"""

import os
import sys

# Settings read when a process starts, so the run re-executes itself once
# they are in place; every child inherits them. One BLAS thread: a single
# client. glibc's mmap and trim thresholds pinned at 32 and 64 MiB, the
# values its adaptive rule moves towards in a numpy program: left to adapt
# from one run's history, they made the peak RSS of `rewrite` 222 MB in
# some runs and 281 MB in others. (Pinning the 128 KiB starting value
# instead made `train` 2.5x slower, by mapping every 256 KiB temporary.)
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
}
if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep", "rewrite", "train", "cli")
SETUP_PROBES = 5
sys.path[:0] = [str(SRC), str(HERE)]

import tracing  # noqa: E402


def load_workload(name):
    if name == "cli":
        import cli_load

        return cli_load.Cli
    import inproc

    return inproc.WORKLOADS[name]


# ---------------------------------------------------------------------------
# outputs and their digest


def _feed(h, obj):
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    elif isinstance(obj, str):
        _feed(h, obj.encode())
    elif isinstance(obj, bool) or obj is None:
        h.update(repr(obj).encode())
    elif isinstance(obj, float):
        h.update(b"f" + obj.hex().encode())
    elif isinstance(obj, int):
        h.update(b"i%d" % obj)
    elif hasattr(obj, "tobytes"):  # numpy array or scalar
        h.update(f"a{obj.dtype}{obj.shape}".encode() + obj.tobytes())
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def digest(obj):
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# environment


def environment():
    record = {
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pinned_env": PINNED_ENV,
        "machine": platform.machine(),
        "git_commit": None,
    }
    for pkg in ("numpy", "scipy"):
        try:
            record[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            record[pkg] = None
    if (ROOT / ".git").exists():
        try:
            record["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "pathnorm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    record["source_sha256"] = h.hexdigest()
    return record


# ---------------------------------------------------------------------------
# set-up


def probe(args):
    """Child side of a set-up probe: import, build inputs, report, exit."""
    t0 = time.perf_counter()
    cls = load_workload(args.workload)
    t1 = time.perf_counter()
    with WorkDir(args) as wd:
        cls(args.seed, str(wd))
        t2 = time.perf_counter()
        print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)
    return 0


def setup_probe(args, host):
    """Spawn a fresh interpreter; time it from spawn to its ready line."""
    host.sample()
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    wall = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or not line:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    parts = json.loads(line)
    parts["wall_s"] = wall
    return parts


class WorkDir:
    """A scratch directory under perfbench/out, removed on exit."""

    def __init__(self, args):
        self.path = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"

    def __enter__(self):
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# running jobs


class Runner:
    def __init__(self, wl, host):
        self.wl = wl
        self.host = host
        self.attempted = 0
        self.errors = []

    def execute(self, i, tracer):
        """Run job i; returns (latency s, digest or None when it failed)."""
        self.attempted += 1
        tracer.job = i
        self.host.sample(self.wl.host_samples)
        t0 = time.perf_counter()
        try:
            with tracer.span("job", kind=self.wl.kind(i)):
                outputs = self.wl.job(i, tracer)
        except Exception as exc:  # a failed job is counted, and the run goes on
            self.errors.append(f"job {i} ({self.wl.kind(i)}): {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        latency = time.perf_counter() - t0
        return latency, digest(outputs)

    def cycle(self, start, tracer, max_jobs=None):
        """One pass of the job mix from job `start`: its job latencies."""
        n = min(self.wl.cycle, max_jobs or self.wl.cycle)
        return [self.execute(i, tracer)[0] for i in range(start, start + n)]

    def timed(self, start, seconds, tracers, layers, max_jobs=None):
        """Closed loop of whole cycles, one per tracer in turn, until `seconds`.

        Ends on the round of cycles nearest `seconds` spent in jobs.
        Returns, per tracer, the job latencies, and the number of rounds.
        """
        latencies = [[] for _ in tracers]
        i, rounds = start, 0
        while True:
            for k, tracer in enumerate(tracers):
                with tracer.interposed(layers):
                    lat = self.cycle(i, tracer, max_jobs)
                i += len(lat)
                latencies[k] += lat
            rounds += 1
            if sum(map(sum, latencies)) * (1.0 + 0.5 / rounds) >= seconds:
                return latencies, rounds


def rate(latencies):
    """Jobs per second spent in jobs."""
    return len(latencies) / sum(latencies)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def layer_metrics(spans, probes, overhead, subcommands):
    """Every per-layer metric, from the traced phase's spans."""
    st = tracing.layer_stats(spans)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def calls(layer, p50=False):
        s = st.get(layer)
        put(layer + ".calls", s["calls"] if s else 0, "count")
        put(layer + ".busy_s", s["busy_s"] if s else 0.0, "s")
        if p50:
            put(layer + ".p50_ms", s["p50_ms"] if s else 0.0, "ms")

    put("setup.import_s", statistics.median(p["import_s"] for p in probes), "s")
    put("setup.inputs_s", statistics.median(p["inputs_s"] for p in probes), "s")
    calls("activations.gamma_parts", p50=True)
    calls("activations.load_custom")

    approx = "relu1d.approximate_activation"
    calls(approx, p50=True)
    n_approx = st[approx]["calls"] if approx in st else 0
    candidates = tracing.total(st, approx, "candidates")
    put("relu1d.panels", tracing.total(st, approx, "panels"), "count")
    put("relu1d.candidates", candidates, "count")
    put("relu1d.accept_ratio", n_approx / candidates if candidates else 0.0, "ratio")
    put("relu1d.grid_points", tracing.total(st, approx, "grid_points"), "count")
    put("relu1d.units", tracing.total(st, approx, "units"), "count")
    seen, repeats = set(), 0
    for s in st[approx]["spans"] if approx in st else ():
        repeats += s["counts"]["key"] in seen
        seen.add(s["counts"]["key"])
    put("relu1d.repeat_frac", repeats / n_approx if n_approx else 0.0, "ratio")

    calls("twolayer.rewrite_to_relu", p50=True)
    put("twolayer.rewrite_to_relu.units_out",
        tracing.total(st, "twolayer.rewrite_to_relu", "units_out"), "count")
    calls("twolayer.eval_two_layer")
    for fn in ("embed_two_layer", "eval_resnet", "norm_closed", "norm_recursive"):
        calls("resnet." + fn)
    calls("resnet.norm_bruteforce", p50=True)
    calls("bounds.random_candidates")
    calls("bounds.empirical_rademacher", p50=True)
    put("bounds.empirical_rademacher.evals",
        tracing.total(st, "bounds.empirical_rademacher", "evals"), "count")
    calls("serialize.save_model")
    put("serialize.save_model.bytes", tracing.total(st, "serialize.save_model", "bytes"), "B")
    calls("serialize.load_model")

    calls("train.fit", p50=True)
    fits = st["train.fit"]["spans"] if "train.fit" in st else []
    steps = sum(s["counts"]["steps"] for s in fits)
    put("train.fit.steps", steps, "count")
    put("train.fit.step_us", sum(s["end"] - s["start"] for s in fits) / steps * 1e6 if steps else 0.0, "us")
    for act in ("sigmoid", "tanh", "gelu", "relu"):
        mine = [s for s in fits if s["counts"]["act"] == act]
        n = sum(s["counts"]["steps"] for s in mine)
        put(f"train.fit.step_us.{act}", sum(s["end"] - s["start"] for s in mine) / n * 1e6 if n else 0.0, "us")
    put("train.fit.live_units",
        statistics.mean(s["counts"]["live_units"] for s in fits) if fits else 0.0, "count")
    calls("train.apriori_experiment")
    seeds = tracing.total(st, "train.apriori_experiment", "seeds")
    wall = sum(st["train.apriori_experiment"]["durations"]) if seeds else 0.0
    put("train.apriori_experiment.seeds", seeds, "count")
    put("train.apriori_experiment.seed_ms", wall / seeds * 1e3 if seeds else 0.0, "ms")

    for sub in subcommands:
        s = st.get("cli." + sub)
        put(f"cli.{sub}.wall_ms", s["p50_ms"] if s else 0.0, "ms")
    put("trace.overhead_frac", overhead, "ratio")
    return m


def run(args):
    import cli_load
    import hostspeed

    env = environment()
    host = hostspeed.HostSpeed()
    probes = [setup_probe(args, host) for _ in range(SETUP_PROBES)]
    cls = load_workload(args.workload)

    with WorkDir(args) as wd:
        wl = cls(args.seed, str(wd))
        runner = Runner(wl, host)
        off = tracing.NullTracer()
        reference = [runner.execute(i, off)[1] for i in range(wl.ref_jobs)]
        start = -(-wl.ref_jobs // wl.cycle) * wl.cycle
        layers = getattr(sys.modules.get("inproc"), "LAYERS", [])
        if args.trace:
            tracer = tracing.Tracer()
            (lat, tlat), cycles = runner.timed(start, args.seconds, [off, tracer], layers, args.max_jobs)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            overhead = 1.0 - rate(tlat) / rate(lat)
            metrics = layer_metrics(tracer.spans, probes, overhead, cli_load.SUBCOMMANDS)
            wall = None
            samples = len(tlat)
        else:
            (lat,), cycles = runner.timed(start, args.seconds, [off], layers, args.max_jobs)
            ms = sorted(x * 1e3 for x in lat)
            rss = wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") else (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            wall = {
                "setup_s": statistics.median(p["wall_s"] for p in probes),
                "jobs_per_s": rate(lat),
                "job_p50_ms": statistics.median(ms),
                "job_p90_ms": percentile(ms, 90),
            }
            scale = host.factor()
            metrics = {
                "setup_s": {"value": wall["setup_s"] * scale, "unit": "s"},
                "jobs_per_s": {"value": wall["jobs_per_s"] / scale, "unit": "1/s"},
                "job_p50_ms": {"value": wall["job_p50_ms"] * scale, "unit": "ms"},
                "job_p90_ms": {"value": wall["job_p90_ms"] * scale, "unit": "ms"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
            samples = len(lat)
        speed = {"kernel_ms": host.kernel_ms(), "ref_ms": hostspeed.REF_MS,
                 "factor": host.factor(), "samples": len(host.samples)}
        for i, ref in enumerate(reference):
            again = runner.execute(i, off)[1]
            if ref is not None and again != ref:
                runner.errors.append(f"job {i}: outputs differ between two executions")
    failed = len(runner.errors)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": digest(reference) if None not in reference else None,
        "fail_frac": failed / runner.attempted,
        "timed_jobs": samples,
        "timed_cycles": cycles,
        "host_speed": speed,
        "unscaled": wall,
        "errors": runner.errors[:10],
        "env": env,
    }
    for err in runner.errors[:10]:
        print(err, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-jobs", type=int, default=None,
                    help="run at most this many jobs per cycle (for the self-check)")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "pathnorm" / "__init__.py").is_file():
        print(f"error: no pathnorm package under {SRC}", file=sys.stderr)
        return 2
    return probe(args) if args.probe else run(args)


if __name__ == "__main__":
    sys.exit(main())
