"""Bit-for-bit pins on the gradient engine.

The digests below were computed by the light-cone sweep: the blocked
adjoint sweep run on the gates and qubits of the cost qubit's backward
light cone. Every exact rewrite of the engine (row blocking, stacked
state and costate, fused permutation runs) must reproduce them, and must
give the same bits at any block size. Where the cone is the whole
circuit (every ttn pin) the bits are those of the full-register sweep;
elsewhere each grad_var stays within 1e-14 relative of it.
"""

import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vqclab import grad
from vqclab.ansatz import build_ansatz
from vqclab.backend import resolve_backend
from vqclab.circuit import Affine, Circuit, Const, Gate, GateKind
from vqclab.grad import ReparamMode, _gradients_batched, grad_variance, param_shift_gradient, reparameterize
from vqclab.harness import emit_csv, run_sweep
from vqclab.transpiler import transpile

ROOT = Path(__file__).resolve().parent.parent


def stats_digest(stats) -> str:
    values = (*stats.per_param_var, *stats.per_param_mean, stats.grad_var)
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()


# (family, n, reps) on heavy-hex:5,11 at B=200, seed 42 -> mode -> (grad_var.hex(), digest).
# n=10 runs in several row blocks at the default block size; n=4 runs in one.
FROZEN = {
    ("efficient_su2", 10, 1): {
        "logical": ("0x1.b125e98b23736p-7", "3708fdf4981e999b6dd0fe5b4a87588f613052f57692ac22b593c25b62d48dd9"),
        "all-angles": ("0x1.b129b3f0adefap-7", "a7b37a27756801c7483bbf53edcc8f103424d6088d59efa580729de666953df4"),
        "symbol-derived": ("0x1.b125e98b23738p-7", "93156d0ebb01411d672ea89611e9503af34c346ef3e86eeca14e8cc5d7895ef2"),
    },
    ("ttn", 4, 2): {
        "logical": ("0x1.ca4c30ab555bdp-4", "59771dee4aef46dc1d42a347134afabf91c9507b7322a4560718d23abe3b1092"),
        "all-angles": ("0x1.3e7de162a7cabp-5", "8ca8b1acac80d94562997d757cbf1776120730698741855335c56e4c39045aa7"),
        "symbol-derived": ("0x1.ca4c30ab555bep-4", "e22bbdb6861a316f1ea540d5e66a8fa039c7c4c4e42ebfa5d7b4368a8275beb1"),
    },
}


@pytest.mark.parametrize("cell", list(FROZEN), ids=lambda c: f"{c[0]}-n{c[1]}-L{c[2]}")
def test_gradstats_frozen_digests(cell):
    family, n, reps = cell
    logical = build_ansatz(family, n, reps)
    t = transpile(logical, resolve_backend("heavy-hex:5,11"))
    circuits = {"logical": (logical, 0)}
    for mode in ReparamMode:
        circuits[mode.value] = (reparameterize(t, mode), t.cost_qubit)
    got = {}
    for mode, (circuit, cost_qubit) in circuits.items():
        stats = grad_variance(circuit, 200, 42, cost_qubit)
        got[mode] = (stats.grad_var.hex(), stats_digest(stats))
    assert got == FROZEN[cell]


# grad_var.hex() of the cells above that the light cone moved, as the
# full-register sweep computed them.
FULL_REGISTER_GRAD_VAR = {
    ("efficient_su2", 10, 1): {
        "logical": "0x1.b125e98b2373ap-7",
        "all-angles": "0x1.b129b3f0adefap-7",
        "symbol-derived": "0x1.b125e98b2373ap-7",
    },
}


@pytest.mark.parametrize("cell", list(FULL_REGISTER_GRAD_VAR), ids=lambda c: f"{c[0]}-n{c[1]}-L{c[2]}")
def test_light_cone_within_rounding_of_full_register(cell):
    for mode, old in FULL_REGISTER_GRAD_VAR[cell].items():
        new, old = float.fromhex(FROZEN[cell][mode][0]), float.fromhex(old)
        assert abs(new - old) <= 1e-14 * abs(old)


def test_block_size_engages_at_ten_qubits():
    # the n=10 pins above must run in more than one row block, the n=4 pin
    # in one; their light cones span every qubit of each circuit
    assert 200 // (grad._BLOCK_BYTES // ((1 << 10) * 16)) > 1
    assert 200 // (grad._BLOCK_BYTES // ((1 << 4) * 16)) == 0
    for family, n, reps in FROZEN:
        logical = build_ansatz(family, n, reps)
        t = transpile(logical, resolve_backend("heavy-hex:5,11"))
        assert grad._light_cone(logical, 0)[1] == n
        assert grad._light_cone(t.physical, t.cost_qubit)[1] == t.physical.num_qubits == n


def test_demo_sweep_csv_regenerates_byte_identical(tmp_path):
    spec = importlib.util.spec_from_file_location("demo_sweep", ROOT / "demos" / "04_sweep_heatmaps.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    out = tmp_path / "sweep.csv"
    emit_csv(run_sweep(demo.CONFIG), out)
    assert out.read_bytes() == (ROOT / "demos" / "output" / "sweep.csv").read_bytes()


# ---------------------------------------------------------------------------
# Property tests over random circuits on the full gate set

FIXED_KINDS = (GateKind.X, GateKind.SX, GateKind.H)
ROTATIONS = (GateKind.RX, GateKind.RY, GateKind.RZ)
angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def random_circuits(draw):
    n = draw(st.integers(1, 6))
    num_symbols = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(1, 30))):
        choice = draw(st.sampled_from(("2q", "fixed", "affine", "const") if n > 1 else ("fixed", "affine", "const")))
        if choice == "2q":
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append(Gate(draw(st.sampled_from((GateKind.CX, GateKind.SWAP))), (a, b)))
            continue
        q = draw(st.integers(0, n - 1))
        if choice == "fixed":
            gates.append(Gate(draw(st.sampled_from(FIXED_KINDS)), (q,)))
        elif choice == "affine":
            coeff = draw(st.sampled_from((1, -1)))
            param = Affine(draw(st.integers(0, num_symbols - 1)), coeff, draw(angles))
            gates.append(Gate(draw(st.sampled_from(ROTATIONS)), (q,), param))
        else:
            gates.append(Gate(draw(st.sampled_from(ROTATIONS)), (q,), Const(draw(angles))))
    used = sorted({g.param.symbol for g in gates if isinstance(g.param, Affine)})
    if not used:
        gates.append(Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)))
        used = [0]
    renumber = {s: i for i, s in enumerate(used)}
    gates = [
        Gate(g.kind, g.qubits, Affine(renumber[g.param.symbol], g.param.coeff, g.param.offset))
        if isinstance(g.param, Affine)
        else g
        for g in gates
    ]
    cost_qubit = draw(st.integers(0, n - 1))
    batch = draw(st.integers(2, 9))
    seed = draw(st.integers(0, 2**32))
    return Circuit(n, tuple(gates), len(used)), cost_qubit, batch, seed


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(random_circuits())
def test_batched_equals_literal_shift_rule(case):
    circuit, cost_qubit, batch, seed = case
    thetas = grad.sample_thetas(seed, batch, circuit.num_symbols)
    fast = _gradients_batched(circuit, thetas, cost_qubit)
    literal = np.array([param_shift_gradient(circuit, th, cost_qubit) for th in thetas])
    np.testing.assert_allclose(fast, literal, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(random_circuits())
def test_block_size_never_changes_bits(case):
    circuit, cost_qubit, batch, seed = case
    thetas = grad.sample_thetas(seed, batch, circuit.num_symbols)
    row_bytes = (1 << circuit.num_qubits) * 16
    results = []
    # the smallest blocks (a 1-row request gives 2 rows), blocks of 3 rows
    # or more (unequal sizes unless 3 divides B), one block
    for block_bytes in (row_bytes, 3 * row_bytes, batch * row_bytes):
        original = grad._BLOCK_BYTES
        grad._BLOCK_BYTES = block_bytes
        try:
            results.append(_gradients_batched(circuit, thetas, cost_qubit))
        finally:
            grad._BLOCK_BYTES = original
    for other in results[1:]:
        assert np.array_equal(results[0], other)
