#!/usr/bin/env python3
"""Compile logical circuits to hardware and inspect what changed.

The all-pairs entangler of efficient_su2 does not fit a chain topology,
so routing inserts SWAPs (three CX each after decomposition) and the
single-qubit layers are rewritten into the RZ/SX native basis. The
physical circuit keeps the logical symbols, so it binds from the same
logical angles; it keeps the logical qubit order too, so statevector
fidelity certifies the equivalence on its first 2^n amplitudes. Freeing
every native rotation angle gives its physical parameter count.
"""

import numpy as np

from vqclab import (
    build_ansatz,
    free_all_angles,
    logical_physical_fidelity,
    make_heavy_hex,
    make_line,
    overhead,
    transpile,
)

SEED = 7


def compile_and_report(kind, n, reps, backend, label):
    logical = build_ansatz(kind, n, reps)
    t = transpile(logical, backend)
    rep = overhead(t, reps)
    before, after = t.metrics_before, t.metrics_after
    print(f"{kind} (n={n}, L={reps}) on {label}")
    print(f"  gates 1q/2q: {before.g1q}/{before.g2q} -> {after.g1q}/{after.g2q} "
          f"(delta {rep.delta_g1q:+d}/{rep.delta_g2q:+d})")
    print(f"  depth: {before.dag_depth} -> {after.dag_depth} (delta {rep.delta_depth_dag:+d}, "
          f"vs repetitions {rep.delta_depth_paper:+d})")
    print(f"  parameters: {before.num_symbols} logical -> "
          f"{free_all_angles(t.physical).num_symbols} physical angles")
    # compiled qubit i is device qubit phys_qubits[i]: the final layout first, the ancillas after it
    print(f"  final layout: {list(t.final_layout)} over device qubits {list(t.phys_qubits)}")

    rng = np.random.default_rng(SEED)
    theta = rng.uniform(0, 2 * np.pi, logical.num_symbols)
    fid = logical_physical_fidelity(logical, t, theta)
    print(f"  equivalence fidelity at a random point: {fid:.12f}")
    print()


if __name__ == "__main__":
    compile_and_report("real_amplitudes", 4, 1, make_line(4), "line:4")
    compile_and_report("efficient_su2", 4, 1, make_line(4), "line:4")
    # routing across heavy-hex rows travels through bridge qubits
    compile_and_report("efficient_su2", 5, 1, make_heavy_hex(2, 3), "heavy-hex:2,3")
