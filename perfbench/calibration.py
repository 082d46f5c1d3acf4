"""A fixed yardstick for how fast the machine is during a run.

On the reference machine, two vCPUs shared with other tenants, speed drifts
in phases of a minute or two: the same ``arm_linear_clayton`` pass took
12.2 s in one run and 8.2 s a minute later.  A run lasts well under a
minute, so a median over its passes cannot average the phases out, and raw
pass times spread by 20-30% across runs.  Both vCPUs slow down together,
and so does any CPU-bound work, including this yardstick.  Timing it
between passes and scaling each time by ``REFERENCE_S`` over the
yardstick's time around it removes most of the drift.  In a 6-minute probe
that alternated a short fit with the yardstick, the quartile spread of the
fit's median over 36 s windows was 0.20 of the median raw and 0.04 scaled.

The yardstick uses numpy and plain Python only, never copsurv, so no change
to the package can move it.  Its work mixes what the workloads do: small
element-wise array maths with a matrix-vector product, as in one epoch of a
2,000-row fit, plus float formatting and parsing, as in CSV I/O.
"""
from __future__ import annotations

import time

import numpy as np

# Median seconds of one chunk on the reference machine (2 vCPUs, numpy
# 2.4.6) in a calm phase.  Only the ratio to it matters.  A run times
# about eight chunks, so their length is kept short: half of 10,000 steps,
# whose median was 1.15 s.
REFERENCE_S = 0.575
STEPS = 5000


class Yardstick:
    """Fixed work on fixed random data."""

    def __init__(self, n: int = 2000, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.t = rng.uniform(0.5, 20.0, size=n)
        self.x = rng.uniform(size=(n, 10))
        self.w = rng.uniform(size=10)
        self.delta = (rng.uniform(size=n) < 0.6).astype(float)

    def _step(self) -> float:
        g = self.x @ self.w
        lt = np.log(self.t)
        h = np.exp(1.4 * (lt - 2.5) + g)
        log_s = np.log(np.clip(np.exp(-h), 1e-12, 1.0 - 1e-12))
        pair = np.log(np.exp(-1.7 * log_s) + np.exp(-1.7 * log_s[::-1]) - 1.0)
        terms = self.delta * (lt + g - h + pair) + (1.0 - self.delta) * (g - h - pair)
        grad = self.x.T @ (self.delta - h)
        text = ",".join(repr(float(v)) for v in self.t[:16])
        return float(terms.sum()) + float(grad[0]) + sum(float(v) for v in text.split(","))

    def chunk_s(self, steps: int = None) -> float:
        """Seconds for one chunk of fixed work (``STEPS`` steps by default)."""
        start = time.perf_counter()
        for _ in range(STEPS if steps is None else steps):
            self._step()
        return time.perf_counter() - start
