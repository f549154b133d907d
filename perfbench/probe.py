"""Host-speed probe: a fixed numpy kernel timed between the library calls.

On a shared host the same code runs up to ~60 % slower for minutes at a
time, in CPU time as well as wall time, when other tenants load the
machine. The probe measures that speed: a fixed sequence of rotation and
permutation passes over a (200, 2**n) complex128 batch, the same access
pattern and buffer size as the engine's kernels, written here in plain
numpy so that no change to vqclab changes it. worker.py runs it before
and after each timed unit; run.py scales every time of a run by

    reference_s / median of the run's probe times

where reference_s is the probe's median on a quiet host (PROBES). A
slower host slows probe and program alike and the scaled time stays put;
a slower program still shows in full. Buffers are allocated and warmed
once, so a probe run makes no allocation and no page fault, and
worker.py takes their bytes out of the peak RSS it reports.
"""

from __future__ import annotations

import time

import numpy as np

BATCH = 200

# workload -> (qubits, passes, median wall time of one run on a quiet
# 2-vCPU Intel Xeon KVM guest at 2.0 GHz with numpy 2.4.6 and its huge
# page advice off, in seconds). The qubit count is the workload's
# largest, where its time is spent.
PROBES = {
    "sweep_default": (10, 48, 0.200),
    "gradvar_n12": (12, 12, 0.250),
}


class Probe:
    def __init__(self, qubits: int, passes: int) -> None:
        n = self.n = qubits
        self.passes = passes
        rng = np.random.default_rng(12345)
        shape = (BATCH, 1 << n)
        self.states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.states /= np.linalg.norm(self.states, axis=1, keepdims=True)
        self.spare = np.empty_like(self.states)
        self.t0 = np.empty((BATCH, 1 << (n - 1)), dtype=np.complex128)
        self.t1 = np.empty_like(self.t0)
        idx = np.arange(1 << n)
        # CX-like gathers: flip bit (q + 1) % n where bit q is set
        self.sources = [idx ^ (((idx >> q) & 1) << ((q + 1) % n)) for q in range(n)]
        self.nbytes = sum(a.nbytes for a in (self.states, self.spare, self.t0, self.t1, *self.sources))
        self.run()

    def run(self) -> tuple[float, float]:
        """One probe pass sequence; returns its (wall, cpu) seconds."""
        n, c, s = self.n, 0.8, 0.6
        w, cpu = time.perf_counter(), time.process_time()
        for k in range(self.passes):
            q = k % n
            view = self.states.reshape(BATCH, 1 << (n - 1 - q), 2, 1 << q)
            a, b = view[:, :, 0, :], view[:, :, 1, :]
            sa = self.t0.reshape(a.shape)
            sb = self.t1.reshape(a.shape)
            np.multiply(a, s, out=sa)
            np.multiply(b, s, out=sb)
            np.multiply(a, c, out=a)
            a -= sb
            np.multiply(b, c, out=b)
            b += sa
            np.take(self.states, self.sources[q], axis=1, out=self.spare)
            self.states, self.spare = self.spare, self.states
        return time.perf_counter() - w, time.process_time() - cpu
