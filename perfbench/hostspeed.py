"""How fast the host runs right now, from a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants. Their load
moves the speed of every instruction stream on it: on the 2-vCPU Xeon host
the bounds were set on, the same loop ran up to 1.4x slower from one minute
to the next, and a median over a whole run follows it. So a run samples the
reference kernel below between jobs and between set-up probes, and
`factor()` scales its wall times to a host on which the kernel's median is
REF_MS. The kernel is fixed code outside pathnorm (an interpreted loop, a
vectorised tanh, a small matrix product, the three kinds of work pathnorm
does), so a change to the package moves the scaled times, and the host's
load moves them much less than the unscaled ones. Not every slowdown of
the host shows in the kernel: one that cost `rewrite` 27% cost the kernel 4%.

Each sample runs the kernel twice and times the second, so what the job
before it left in the caches does not count.
"""

import statistics
import time

import numpy as np

# the kernel's median, sampled between jobs, on the host the bounds were set on
REF_MS = 1.3

_X = np.linspace(-3.0, 3.0, 1 << 15)
_A = np.random.default_rng(0).normal(size=(64, 64))


def _kernel():
    s = 0
    for i in range(10_000):
        s += i * i
    for _ in range(4):
        np.tanh(_X)
        _A @ _A
    return s


class HostSpeed:
    def __init__(self):
        self.samples = []

    def sample(self, times=1):
        for _ in range(times):
            _kernel()
            t0 = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - t0)

    def kernel_ms(self):
        return statistics.median(self.samples) * 1e3

    def factor(self):
        """Multiply a wall time by this to get it at the reference speed."""
        return REF_MS / self.kernel_ms()
