"""The benchmark's in-process workloads run on this checkout.

perfbench/run.py counts a job that raises as failed and then exits 1, so
a change that breaks a workload, or the traced run's span counts, fails
the benchmark. This runs a cycle of sweep untraced and traced, the
sweep jobs over every stratum, a traced cycle of rewrite and an untraced
one after it, and two train jobs, in about two seconds. run.py itself is
not imported: it re-executes the interpreter when imported.
"""

import pickle
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    try:
        import inproc
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return inproc, tracing


def run_jobs(wl, jobs, tracer=None):
    outputs = []
    for i in jobs:
        if tracer is not None:
            tracer.job = i
        outputs.append(wl.job(i, tracer))
    return outputs


def traced_cycle(bench, wl):
    inproc, tracing = bench
    tracer = tracing.Tracer()
    with tracer.interposed(inproc.LAYERS):
        outputs = run_jobs(wl, range(wl.cycle), tracer)
    return outputs, tracing.layer_stats(tracer.spans)


def test_sweep_cycle_untraced_then_traced(bench, tmp_path):
    inproc, _ = bench
    wl = inproc.Sweep(11, str(tmp_path))
    plain = run_jobs(wl, range(wl.cycle))
    traced, stats = traced_cycle(bench, wl)
    # tracing only watches: the second run of each job gives the same outputs
    assert pickle.dumps(traced) == pickle.dumps(plain)
    approx = stats["relu1d.approximate_activation"]
    assert approx["calls"] == wl.cycle
    assert all(s["counts"]["candidates"] >= 1 for s in approx["spans"])


def test_sweep_every_stratum(bench, tmp_path):
    # 16 strata of 15 jobs, one per (source, eps) pair, walk every draw
    # range a sweep run covers; the traced run takes log2(partition / 64)
    inproc, _ = bench
    wl = inproc.Sweep(11, str(tmp_path))
    for out in run_jobs(wl, range(inproc.STRATA * wl.cycle)):
        n = out["cert"]["partition_size"]
        assert n >= 64 and n == 64 << ((n // 64).bit_length() - 1), n


def test_rewrite_cycle_traced(bench, tmp_path):
    # the first cycle builds each of the three approximants, the second
    # finds every one kept on its activation; a rewrite job's output depends
    # only on its pool net, so it pickles as the job one cycle earlier did
    inproc, _ = bench
    wl = inproc.Rewrite(11, str(tmp_path))
    first, stats = traced_cycle(bench, wl)
    assert stats["twolayer.rewrite_to_relu"]["calls"] == wl.pattern.count("rewrite")
    second = run_jobs(wl, range(wl.cycle, 2 * wl.cycle))
    for i in range(wl.cycle):
        if wl.kind(i) == "rewrite":
            assert pickle.dumps(second[i]) == pickle.dumps(first[i]), i


def test_train_fit_and_apriori_jobs(bench, tmp_path):
    inproc, _ = bench
    wl = inproc.Train(11, str(tmp_path))
    assert [wl.kind(i) for i in (0, 4)] == ["fit", "apriori"]
    run_jobs(wl, (0, 4))
