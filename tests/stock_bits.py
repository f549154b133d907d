"""The same-bits digest: one sha256 over what the gradient engine gives on
every stock GradVar arm.

An arm is one ``grad_variance`` call at B=200 and seed 42 on the logical
circuit, or on its compile reparameterized all-angles or symbol-derived,
in that order. The cells come in this order: the 90 of
``enumerate_cells(default_sweep_config())`` compiled onto
``heavy-hex:5,11``, then efficient_su2, ttn and real_amplitudes at n=12
L=1 on ``line:12``; 279 arms in all. Each arm prints one line, its name
and the ``float.hex`` of its ``per_param_var``, ``per_param_mean`` and
``grad_var``; the last line is the arm count and the sha256 of the arm
lines. Two versions of the engine give the same digest when they give the
same bits on every arm, and ``diff`` of their outputs names the arms that
moved.

The bits depend on the dgemm kernel that numpy's bundled OpenBLAS loads
for the CPU (see ``tests/test_exactness.py``), so record the kernel with
the digest. ``OPENBLAS_VERBOSE=2`` makes OpenBLAS print ``Core: ...``
first::

    OPENBLAS_VERBOSE=2 python tests/stock_bits.py

``OPENBLAS_CORETYPE=Haswell`` gives a digest that compares across
x86-64-v3 hosts, on the same premise as ``FROZEN``::

    OPENBLAS_CORETYPE=Haswell OPENBLAS_VERBOSE=2 python tests/stock_bits.py

Pytest does not collect this file, and CI does not run it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vqclab.ansatz import build_ansatz
from vqclab.backend import make_line, resolve_backend
from vqclab.grad import ReparamMode, grad_variance, reparameterize
from vqclab.harness import default_sweep_config, enumerate_cells
from vqclab.transpiler import transpile


def cells():
    """(family, n, reps, backend) of every stock cell, in arm order."""
    heavy_hex = resolve_backend("heavy-hex:5,11")
    for _, kind, n, reps, _ in enumerate_cells(default_sweep_config()):
        yield kind, n, reps, heavy_hex
    for kind in ("efficient_su2", "ttn", "real_amplitudes"):
        yield kind, 12, 1, make_line(12)


def main() -> int:
    lines = []
    for kind, n, reps, backend in cells():
        logical = build_ansatz(kind, n, reps)
        t = transpile(logical, backend)
        arms = [("logical", logical, 0)]
        arms += [(mode.value, reparameterize(t, mode), t.cost_qubit) for mode in ReparamMode]
        for name, circuit, cost_qubit in arms:
            stats = grad_variance(circuit, 200, 42, cost_qubit)
            values = (*stats.per_param_var, *stats.per_param_mean, stats.grad_var)
            lines.append(f"{kind} n={n} L={reps} {name} " + ",".join(float(v).hex() for v in values))
            print(lines[-1])
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{len(lines)} arms, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
