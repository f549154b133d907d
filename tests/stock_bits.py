"""The same-bits digest: one sha256 over what the gradient engine gives on
every stock GradVar arm.

Each of the 279 arms of ``cases.stock_arms`` (the logical circuit of a
stock cell, or its compile reparameterized all-angles or symbol-derived)
gets one ``grad_variance`` call at B=200 and seed 42, and prints one line:
its name and the ``float.hex`` of its ``per_param_var``, ``per_param_mean``
and ``grad_var``. The last line is the arm count and the sha256 of the arm
lines. Two versions of the engine give the same
digest when they give the same bits on every arm, and ``diff`` of their
outputs names the arms that moved.

The bits depend on the dgemm kernel that numpy's bundled OpenBLAS loads
for the CPU (see ``tests/test_exactness.py``), so record the kernel with
the digest. ``OPENBLAS_VERBOSE=2`` makes OpenBLAS print ``Core: ...``
first::

    OPENBLAS_VERBOSE=2 python tests/stock_bits.py

``OPENBLAS_CORETYPE=Haswell`` gives a digest that compares across
x86-64-v3 hosts, on the same premise as ``FROZEN``; ``STOCK_BITS`` in
``tests/test_exactness.py`` pins it, and CI checks it::

    OPENBLAS_CORETYPE=Haswell OPENBLAS_VERBOSE=2 python tests/stock_bits.py

Pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vqclab.grad import grad_variance

from cases import stock_arms


def main() -> int:
    lines = []
    for name, circuit, cost_qubit in stock_arms():
        stats = grad_variance(circuit, 200, 42, cost_qubit)
        values = (*stats.per_param_var, *stats.per_param_mean, stats.grad_var)
        lines.append(f"{name} " + ",".join(float(v).hex() for v in values))
        print(lines[-1])
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{len(lines)} arms, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
