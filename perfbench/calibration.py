"""Machine-speed probe for a shared, unpinned VM.

On the 2-core VM the benchmark was written on, the same pass over the same
reports takes from 1x to 2x as long depending on what else the host runs,
in episodes that last from seconds to minutes.  The probe is a fixed
computation that does not use ymvac, with the three kinds of work the
workloads do: an interpreter loop, small numpy calls in a Python loop, and
an einsum over complex arrays.  Timed next to each pass, it slows down with
the pass, so `pass time * REFERENCE_PROBE_S / probe time` is the pass time
at the probe's reference speed.  On 30-second blocks of the long-sums
workload this cut the spread (interquartile range over median) of the
median pass time from 0.18 to 0.06.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# Fastest probe time seen on the reference machine: 2-core Intel Xeon VM at
# 2.0 GHz, Python 3.11, numpy 2.4, one BLAS thread.
REFERENCE_PROBE_S = 0.025

_X = np.linspace(0.1, 5.0, 48)
_A = np.random.default_rng(0).normal(size=(4000, 3, 2, 2)) + 0.5j
_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0


def _work() -> float:
    acc = 0.0
    for i in range(60000):
        acc += (i % 7) * 0.5 - i * 1e-9
    for i in range(1500):
        acc += float(np.sum(np.tanh(_X * (1.0 + i * 1e-4)) / _X))
    return acc + float(np.einsum("ijk,niab,njbc,nkca->n", _EPS, _A, _A, _A).real.sum())


def probe_seconds() -> float:
    """Wall time of one probe."""
    start = perf_counter()
    _work()
    return perf_counter() - start
