"""Bit-for-bit pins on the gradient engine.

The digests below were computed by the fused light-cone sweep: the
blocked adjoint sweep run on the gates and qubits of the cost qubit's
backward light cone, with each single-qubit run moved to the top bit and
applied as one 2x2 product by a BLAS matmul, and read off from its 2x2
transition matrix. Every exact rewrite of the engine must reproduce
them, and must give the same bits at any block size. Each grad_var stays
within 1e-14 relative of the elementwise run kernel that came before the
matmul, of the gate-by-gate sweep that came before fusion and of the
full-register sweep that came before the light cone.
"""

import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
        "logical": ("0x1.b125e98b23736p-7", "07e0482189fe8d337629704324302ac1d96ea70d8e9c335bae1ee3f6cfdcbaf6"),
        "all-angles": ("0x1.b129b3f0adefap-7", "e9ebde42a678ac1c1161e8e7dfeab0fd095301a235ba8da138b549614c674825"),
        "symbol-derived": ("0x1.b125e98b23736p-7", "18a3a5c21762ede2d054f3dc6c92e7ebe2b8b5d89e04cb7b35caa2112ef8ef45"),
    },
    ("ttn", 4, 2): {
        "logical": ("0x1.ca4c30ab555bdp-4", "a1cee9ceb2d39fe371270564f60012caef84412c1c940af2984bf891dfc3a41d"),
        "all-angles": ("0x1.3e7de162a7caap-5", "ea721fb45045a97ca6cf89aaa951d4e6fd45389c684fc735201a4fcb4bbbe5f0"),
        "symbol-derived": ("0x1.ca4c30ab555b8p-4", "dc40a1604c78683bceb34024b89dbc9223e5b6b7a58540212abc29cefc07fa5a"),
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


# grad_var.hex() of the cells above as the gate-by-gate light-cone sweep,
# before single-qubit runs were fused, computed them.
GATE_BY_GATE_GRAD_VAR = {
    ("efficient_su2", 10, 1): {
        "logical": "0x1.b125e98b23736p-7",
        "all-angles": "0x1.b129b3f0adefap-7",
        "symbol-derived": "0x1.b125e98b23738p-7",
    },
    ("ttn", 4, 2): {
        "logical": "0x1.ca4c30ab555bdp-4",
        "all-angles": "0x1.3e7de162a7cabp-5",
        "symbol-derived": "0x1.ca4c30ab555bep-4",
    },
}


@pytest.mark.parametrize("cell", list(GATE_BY_GATE_GRAD_VAR), ids=lambda c: f"{c[0]}-n{c[1]}-L{c[2]}")
def test_fusion_within_rounding_of_gate_by_gate(cell):
    for mode, old in GATE_BY_GATE_GRAD_VAR[cell].items():
        new, old = float.fromhex(FROZEN[cell][mode][0]), float.fromhex(old)
        assert abs(new - old) <= 1e-14 * abs(old)


# grad_var.hex() of the cells above as the fused sweep computed them when
# each run was applied elementwise on its own qubit's bit, before runs
# moved to the top bit and became one BLAS matmul.
ELEMENTWISE_RUN_GRAD_VAR = {
    ("efficient_su2", 10, 1): {
        "logical": "0x1.b125e98b23736p-7",
        "all-angles": "0x1.b129b3f0adefap-7",
        "symbol-derived": "0x1.b125e98b23735p-7",
    },
    ("ttn", 4, 2): {
        "logical": "0x1.ca4c30ab555bep-4",
        "all-angles": "0x1.3e7de162a7caap-5",
        "symbol-derived": "0x1.ca4c30ab555b8p-4",
    },
}


@pytest.mark.parametrize("cell", list(ELEMENTWISE_RUN_GRAD_VAR), ids=lambda c: f"{c[0]}-n{c[1]}-L{c[2]}")
def test_top_bit_matmul_within_rounding_of_elementwise_runs(cell):
    for mode, old in ELEMENTWISE_RUN_GRAD_VAR[cell].items():
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
    return _case(draw, n, gates)


@st.composite
def run_heavy_circuits(draw):
    """One or two qubits in long single-qubit runs (up to 12 gates, one
    symbol used throughout each run, coeff -1 among them); on two qubits a
    CX or SWAP ends each run. On one qubit the circuit is a single run."""
    n = draw(st.integers(1, 2))
    num_symbols = draw(st.integers(1, 3))
    gates = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(0, n - 1))
        symbol = draw(st.integers(0, num_symbols - 1))
        for _ in range(draw(st.integers(1, 12))):
            kind = draw(st.sampled_from(FIXED_KINDS + ROTATIONS))
            if kind in FIXED_KINDS:
                gates.append(Gate(kind, (q,)))
            elif draw(st.booleans()):
                gates.append(Gate(kind, (q,), Affine(symbol, draw(st.sampled_from((1, -1))), draw(angles))))
            else:
                gates.append(Gate(kind, (q,), Const(draw(angles))))
        if n == 2:
            gates.append(Gate(draw(st.sampled_from((GateKind.CX, GateKind.SWAP))), (q, 1 - q)))
    return _case(draw, n, gates)


def _case(draw, n, gates):
    """A random case from a gate list: symbols renumbered densely (RY(theta_0)
    on qubit 0 added if there are none), a cost qubit, a batch size, a seed."""
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

# One qubit, so the whole circuit is one run of 12 gates; symbol 0 occurs
# four times, twice with coeff -1.
ONE_RUN = (
    Circuit(1, tuple(Gate(kind, (0,), param) for kind, param in (
        (GateKind.SX, None), (GateKind.RZ, Affine(0, 1, 0.3)), (GateKind.H, None),
        (GateKind.RY, Affine(0, -1, 1.1)), (GateKind.X, None), (GateKind.RX, Const(2.0)),
        (GateKind.RZ, Affine(1, 1, 0.0)), (GateKind.SX, None), (GateKind.RX, Affine(0, -1, 4.0)),
        (GateKind.RZ, Const(math.pi)), (GateKind.RY, Affine(0, 1, 5.5)), (GateKind.H, None),
    )), 2),
    0, 5, 11,
)


@PROPERTY_SETTINGS
@given(random_circuits())
def test_batched_equals_literal_shift_rule(case):
    assert_equals_literal_shift_rule(case)


@PROPERTY_SETTINGS
@given(run_heavy_circuits())
@example(ONE_RUN)
def test_fused_runs_equal_literal_shift_rule(case):
    assert_equals_literal_shift_rule(case)


def assert_equals_literal_shift_rule(case):
    circuit, cost_qubit, batch, seed = case
    thetas = grad.sample_thetas(seed, batch, circuit.num_symbols)
    fast = _gradients_batched(circuit, thetas, cost_qubit)
    literal = np.array([param_shift_gradient(circuit, th, cost_qubit) for th in thetas])
    np.testing.assert_allclose(fast, literal, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(random_circuits())
def test_block_size_never_changes_bits(case):
    assert_block_size_never_changes_bits(case)


@PROPERTY_SETTINGS
@given(run_heavy_circuits())
@example(ONE_RUN)
def test_fused_runs_block_size_never_changes_bits(case):
    assert_block_size_never_changes_bits(case)


def assert_block_size_never_changes_bits(case):
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
