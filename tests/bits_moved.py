"""How far the gradient engine's bits moved between two ``tests/stock_bits.py``
outputs::

    python tests/bits_moved.py OLD NEW

Each arm line of a stock-bits output holds the arm's name and the
``float.hex`` of its ``per_param_var``, ``per_param_mean`` and ``grad_var``.
The report gives, over the arms both outputs hold:

- how many arms kept every bit;
- the worst relative move of ``grad_var``;
- the worst ``per_param_var`` move divided by the arm's old ``grad_var``;
- the worst absolute move of ``per_param_mean``;
- how many of the old exact 0.0 values (of any of the three) are still 0.0.

A move relative to an old value of 0 reads inf unless the bits are equal.
The ``Core: ...`` line that ``OPENBLAS_VERBOSE=2`` prints and the digest
line are skipped. It exits 1 if the two outputs do not hold the same arms.

Pytest does not collect this file.
"""

from __future__ import annotations

import sys
from pathlib import Path


def read_arms(path: str) -> dict[str, tuple[list[float], list[float], float]]:
    """Arm name -> (per_param_var, per_param_mean, grad_var) of one output."""
    arms = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("Core:") or " arms, sha256 " in line:
            continue
        name, _, values = line.rpartition(" ")
        floats = [float.fromhex(v) for v in values.split(",")]
        params = (len(floats) - 1) // 2
        arms[name] = (floats[:params], floats[params:-1], floats[-1])
    return arms


def moved(new: float, old: float, scale: float) -> float:
    """|new - old| / |scale|: 0 if the bits are equal, inf if scale is 0."""
    return 0.0 if new.hex() == old.hex() else abs(new - old) / abs(scale) if scale else float("inf")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/bits_moved.py OLD NEW", file=sys.stderr)
        return 2
    old, new = map(read_arms, argv)
    if old.keys() != new.keys():
        print(f"the outputs hold different arms: {sorted(old.keys() ^ new.keys())}", file=sys.stderr)
        return 1
    kept = zeros = zeros_kept = 0
    grad_var = var = mean = 0.0
    for name, (old_var, old_mean, old_gv) in old.items():
        new_var, new_mean, new_gv = new[name]
        pairs = list(zip((*old_var, *old_mean, old_gv), (*new_var, *new_mean, new_gv)))
        kept += all(a.hex() == b.hex() for a, b in pairs)
        zeros += sum(a == 0.0 for a, _ in pairs)
        zeros_kept += sum(a == 0.0 and b == 0.0 for a, b in pairs)
        grad_var = max(grad_var, moved(new_gv, old_gv, old_gv))
        var = max([var, *(moved(b, a, old_gv) for a, b in zip(old_var, new_var))])
        mean = max([mean, *(moved(b, a, 1.0) for a, b in zip(old_mean, new_mean))])
    print(f"arms: {len(old)}, of which {kept} kept every bit")
    print(f"grad_var, worst relative move: {grad_var:.2g}")
    print(f"per_param_var, worst move / grad_var: {var:.2g}")
    print(f"per_param_mean, worst absolute move: {mean:.2g}")
    print(f"exact 0.0 values kept: {zeros_kept} of {zeros}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
