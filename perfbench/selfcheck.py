"""Fast self-check of the benchmark, a couple of minutes on two cores.

    python3 perfbench/selfcheck.py

Runs every workload with a handful of jobs, twice untraced and once
traced, from the root of a checkout, and asserts that every metric
BENCHMARK.json names is reported with its unit, that no job failed, that
the output digest repeats across the three runs, and that the traced
counts separate the workloads: no approximant repeats in sweep, some do
in rewrite, and train never builds one.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_JOBS = {"sweep": 3, "rewrite": 20, "train": 5, "cli": 2}


def run(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--max-jobs", str(MAX_JOBS[workload])]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and record["fail_frac"] == 0.0, record["errors"]
    return record, result["metrics"]


def expect_metrics(metrics, spec, where):
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want, f"{where}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in bench["workloads"]):
        rec_a, e2e = run(wl, 0)
        rec_b, _ = run(wl, 0)
        rec_t, layers = run(wl, 1)
        expect_metrics(e2e, bench["end_to_end"], f"{wl} end-to-end")
        expect_metrics(layers, bench["per_layer"], f"{wl} per-layer")
        assert rec_a["digest"] and rec_a["digest"] == rec_b["digest"] == rec_t["digest"], wl
        calls = layers["relu1d.approximate_activation.calls"]["value"]
        repeat = layers["relu1d.repeat_frac"]["value"]
        if wl == "sweep":
            assert calls > 0 and repeat == 0.0, (calls, repeat)
        elif wl == "rewrite":
            assert repeat > 0.0, repeat
        elif wl == "train":
            assert calls == 0 and layers["train.fit.calls"]["value"] > 0
        print(f"{wl}: ok, digest {rec_a['digest'][:16]}", flush=True)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
