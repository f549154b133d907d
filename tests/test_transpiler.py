import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from vqclab import cli
from vqclab.ansatz import build_efficient_su2, build_real_amplitudes, build_ttn
from vqclab.backend import BackendModel, make_heavy_hex, make_line, save_backend
from vqclab.circuit import (
    ROTATION_KINDS,
    Affine,
    Circuit,
    Const,
    Gate,
    GateKind,
    bind,
    free_all_angles,
    load_circuit,
    save_circuit,
)
from vqclab.grad import ReparamMode, grad_variance, reparameterize
from vqclab.sim import apply_kind, expect_z, simulate
from vqclab.transpiler import (
    check_constraints,
    decompose_to_native,
    optimize,
    overhead,
    route,
    transpile,
)
from vqclab.verify import logical_physical_fidelity

from cases import ANGLES, NATIVE_KINDS, circuits, transpile_cases

BUILDERS = [build_real_amplitudes, build_efficient_su2, build_ttn]


def rz_mat(t):
    return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]])


SX_MAT = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2

MAT_1Q = {
    GateKind.RZ: rz_mat,
    GateKind.RX: lambda t: np.array(
        [[np.cos(t / 2), -1j * np.sin(t / 2)], [-1j * np.sin(t / 2), np.cos(t / 2)]]
    ),
    GateKind.RY: lambda t: np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]]),
    GateKind.SX: lambda _: SX_MAT,
    GateKind.H: lambda _: np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    GateKind.X: lambda _: np.array([[0, 1], [1, 0]]),
}


def u3(theta, phi, lam):
    return np.array(
        [
            [np.cos(theta / 2), -np.exp(1j * lam) * np.sin(theta / 2)],
            [np.exp(1j * phi) * np.sin(theta / 2), np.exp(1j * (phi + lam)) * np.cos(theta / 2)],
        ]
    )


def equal_up_to_phase(a, b, tol=1e-12):
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    phase = b[idx] / a[idx]
    return abs(abs(phase) - 1) < 1e-9 and np.allclose(a * phase, b, atol=tol)


def product_of(gates):
    """2x2 matrix of a single-qubit gate sequence, leftmost applied first."""
    m = np.eye(2, dtype=complex)
    for g in gates:
        angle = g.param.angle if isinstance(g.param, Const) else None
        m = MAT_1Q[g.kind](angle) @ m
    return m


class TestZsxTemplateOracle:
    """The single-qubit rewrite constants, checked against matrix products."""

    def test_template_matches_u3(self):
        rng = np.random.default_rng(0)
        for theta, phi, lam in rng.uniform(0, 2 * math.pi, (200, 3)):
            seq = rz_mat(phi + math.pi) @ SX_MAT @ rz_mat(theta + math.pi) @ SX_MAT @ rz_mat(lam)
            assert equal_up_to_phase(seq, u3(theta, phi, lam))

    @pytest.mark.parametrize(
        "kind,angles",
        [
            (GateKind.RY, lambda t: (t, 0.0, 0.0)),
            (GateKind.RX, lambda t: (t, -math.pi / 2, math.pi / 2)),
            (GateKind.H, lambda _: (math.pi / 2, 0.0, math.pi)),
        ],
    )
    def test_gate_parameterizations(self, kind, angles):
        rng = np.random.default_rng(1)
        for t in rng.uniform(0, 2 * math.pi, 40):
            expected = MAT_1Q[kind](t)
            assert equal_up_to_phase(u3(*angles(t)), expected)

    def test_decomposed_gate_equals_original(self):
        backend = make_line(2)
        rng = np.random.default_rng(2)
        for kind in (GateKind.RY, GateKind.RX):
            for t in rng.uniform(0, 2 * math.pi, 25):
                c = Circuit(1, (Gate(kind, (0,), Const(t)),), 0)
                native = decompose_to_native(c, backend)
                assert equal_up_to_phase(product_of(native.gates), MAT_1Q[kind](t))
        native = decompose_to_native(Circuit(1, (Gate(GateKind.H, (0,)),), 0), backend)
        assert equal_up_to_phase(product_of(native.gates), MAT_1Q[GateKind.H](None))


class TestDecompose:
    def test_ry_structure(self):
        c = Circuit(1, (Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)),), 1)
        native = decompose_to_native(c, make_line(2))
        assert [g.kind.value for g in native.gates] == ["SX", "RZ", "SX", "RZ"]
        assert native.gates[1].param == Affine(0, 1, math.pi)
        assert native.gates[3].param == Const(math.pi)

    def test_rz_unchanged(self):
        c = Circuit(1, (Gate(GateKind.RZ, (0,), Affine(0, 1, 0.5)),), 1)
        assert decompose_to_native(c, make_line(2)) == c

    def test_swap_becomes_three_cx(self):
        c = Circuit(2, (Gate(GateKind.SWAP, (0, 1)),), 0)
        native = decompose_to_native(c, make_line(2))
        assert [(g.kind.value, g.qubits) for g in native.gates] == [
            ("CX", (0, 1)),
            ("CX", (1, 0)),
            ("CX", (0, 1)),
        ]

    def test_swap_truth_table(self):
        # |q1 q0> basis states through the CX expansion land swapped
        backend = make_line(2)
        for b0, b1 in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            prep = [Gate(GateKind.X, (q,)) for q, bit in enumerate((b0, b1)) if bit]
            c = Circuit(2, tuple(prep) + (Gate(GateKind.SWAP, (0, 1)),), 0)
            state = simulate(decompose_to_native(c, backend))
            expected_index = b0 * 2 + b1
            assert abs(state[expected_index]) == pytest.approx(1.0, abs=1e-12)

    def test_offset_shifts_through(self):
        c = Circuit(1, (Gate(GateKind.RY, (0,), Affine(0, -1, math.pi / 2)),), 1)
        native = decompose_to_native(c, make_line(2))
        assert native.gates[1].param == Affine(0, -1, 3 * math.pi / 2)

    def test_unsupported_two_qubit_kind(self):
        backend = BackendModel(2, frozenset({(0, 1)}), native_2q=frozenset())
        c = Circuit(2, (Gate(GateKind.CX, (0, 1)),), 0)
        with pytest.raises(ValueError, match="unsupported gate kind"):
            decompose_to_native(c, backend)

    def test_unsupported_single_qubit_kind(self):
        # SX is neither native here nor one of the kinds the template synthesizes
        backend = BackendModel(2, frozenset({(0, 1)}), native_1q=frozenset({GateKind.RZ, GateKind.X}))
        c = Circuit(2, (Gate(GateKind.SX, (1,)),), 0)
        with pytest.raises(ValueError, match="unsupported gate kind SX"):
            decompose_to_native(c, backend)


class TestChooseLayout:
    # the default layout policy, which lives inside transpile
    def test_trivial(self):
        c = build_real_amplitudes(3, 1)
        assert transpile(c, make_line(5)).initial_layout == (0, 1, 2)

    def test_exact_fit_identity(self):
        c = build_real_amplitudes(4, 1)
        assert transpile(c, make_line(4)).initial_layout == (0, 1, 2, 3)

    def test_does_not_fit(self):
        c = build_real_amplitudes(4, 1)
        with pytest.raises(ValueError, match="does not fit"):
            transpile(c, make_line(3))

    # True would run as seed 1, and 1.5 fail with a TypeError in the shuffle
    @pytest.mark.parametrize("seed", [True, 1.5], ids=["bool", "float"])
    def test_layout_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="layout_seed must be an integer"):
            transpile(build_real_amplitudes(3, 1), make_line(5), layout_seed=seed)

    def test_numpy_layout_seed_is_the_int_seed(self):
        c, backend = build_real_amplitudes(3, 1), make_heavy_hex(2, 3)
        assert transpile(c, backend, layout_seed=np.int64(5)) == transpile(c, backend, layout_seed=5)


class TestRoute:
    def test_line3_distant_cx(self):
        c = Circuit(3, (Gate(GateKind.CX, (0, 2)),), 0)
        routed, final = route(c, make_line(3), (0, 1, 2))
        assert [(g.kind.value, g.qubits) for g in routed.gates] == [("SWAP", (0, 1)), ("CX", (1, 2))]
        assert final == (1, 0, 2)

    def test_line4_distance_three(self):
        c = Circuit(4, (Gate(GateKind.CX, (0, 3)),), 0)
        routed, final = route(c, make_line(4), (0, 1, 2, 3))
        assert [(g.kind.value, g.qubits) for g in routed.gates] == [
            ("SWAP", (0, 1)),
            ("SWAP", (1, 2)),
            ("CX", (2, 3)),
        ]
        assert final == (2, 0, 1, 3)

    def test_adjacent_gate_untouched(self):
        c = Circuit(2, (Gate(GateKind.CX, (0, 1)),), 0)
        routed, final = route(c, make_line(4), (0, 1))
        assert [(g.kind.value, g.qubits) for g in routed.gates] == [("CX", (0, 1))]
        assert final == (0, 1)

    def test_single_qubit_readdressed(self):
        c = Circuit(2, (Gate(GateKind.X, (0,)), Gate(GateKind.X, (1,))), 0)
        routed, _ = route(c, make_line(3), (2, 0))
        assert [g.qubits for g in routed.gates] == [(2,), (0,)]

    def test_final_layout_is_swap_composition(self):
        c = build_efficient_su2(4, 2)
        layout = (0, 1, 2, 3)
        routed, final = route(c, make_line(4), layout)
        l2p = list(layout)
        for g in routed.gates:
            if g.kind is GateKind.SWAP:
                u, v = g.qubits
                for lg, pos in enumerate(l2p):
                    if pos == u:
                        l2p[lg] = v
                    elif pos == v:
                        l2p[lg] = u
        assert tuple(l2p) == final

    def test_bad_layout_rejected(self):
        c = Circuit(2, (Gate(GateKind.CX, (0, 1)),), 0)
        with pytest.raises(ValueError, match="injective"):
            route(c, make_line(3), (1, 1))

    @pytest.mark.parametrize(
        "layout, match",
        [((0,), "layout covers 1 qubits, circuit has 2"), ((0, 1, 2), "layout covers 3 qubits, circuit has 2"),
         ((0, 3), "outside the physical qubit range"), ((-1, 0), "outside the physical qubit range")],
        ids=["short", "long", "past-the-end", "negative"],
    )
    def test_layout_must_place_each_qubit_on_the_device(self, layout, match):
        c = Circuit(2, (Gate(GateKind.CX, (0, 1)),), 0)
        with pytest.raises(ValueError, match=match):
            route(c, make_line(3), layout)


def rz_const(q, angle):
    return Gate(GateKind.RZ, (q,), Const(angle))


class TestOptimize:
    def run(self, num_qubits, gates, num_symbols=0):
        return optimize(Circuit(num_qubits, tuple(gates), num_symbols)).gates

    def test_merge_then_drop_zero(self):
        assert self.run(1, [rz_const(0, math.pi), rz_const(0, math.pi)]) == ()

    def test_cx_pair_cancels(self):
        assert self.run(2, [Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (0, 1))]) == ()

    def test_intervening_gate_blocks_cx(self):
        gates = [Gate(GateKind.CX, (0, 1)), rz_const(0, math.pi / 4), Gate(GateKind.CX, (0, 1))]
        assert self.run(2, gates) == tuple(gates)

    def test_reversed_cx_not_cancelled(self):
        gates = [Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (1, 0))]
        assert self.run(2, gates) == tuple(gates)

    def test_four_sx_vanish(self):
        assert self.run(1, [Gate(GateKind.SX, (0,))] * 4) == ()

    def test_three_sx_stay(self):
        assert len(self.run(1, [Gate(GateKind.SX, (0,))] * 3)) == 3

    def test_const_affine_merge(self):
        gates = [rz_const(0, 1.0), Gate(GateKind.RZ, (0,), Affine(0, 1, 0.25))]
        out = self.run(1, gates, num_symbols=1)
        assert out == (Gate(GateKind.RZ, (0,), Affine(0, 1, 1.25)),)

    def test_affine_const_merge(self):
        gates = [Gate(GateKind.RZ, (0,), Affine(0, -1, 0.25)), rz_const(0, 1.0)]
        out = self.run(1, gates, num_symbols=1)
        assert out == (Gate(GateKind.RZ, (0,), Affine(0, -1, 1.25)),)

    def test_opposite_coeff_affines_collapse_to_const(self):
        gates = [
            Gate(GateKind.RZ, (0,), Affine(0, 1, 0.5)),
            Gate(GateKind.RZ, (0,), Affine(0, -1, 0.25)),
            Gate(GateKind.RZ, (0,), Affine(0, 1, 0.0)),
        ]
        out = self.run(1, gates, num_symbols=1)
        assert out == (Gate(GateKind.RZ, (0,), Affine(0, 1, 0.75)),)

    def test_same_coeff_affines_not_merged(self):
        gates = [Gate(GateKind.RZ, (0,), Affine(0, 1, 0.0)), Gate(GateKind.RZ, (0,), Affine(0, 1, 0.0))]
        with_two = Circuit(1, tuple(gates), 1)
        assert optimize(with_two).gates == tuple(gates)

    def test_zero_const_dropped(self):
        assert self.run(1, [rz_const(0, 0.0)]) == ()

    def test_cascade_enables_cx_cancellation(self):
        gates = [
            Gate(GateKind.CX, (0, 1)),
            rz_const(0, 1.5),
            rz_const(0, 2 * math.pi - 1.5),
            Gate(GateKind.CX, (0, 1)),
        ]
        assert self.run(2, gates) == ()

    def test_orphaned_symbol_raises(self):
        gates = [Gate(GateKind.RZ, (0,), Affine(0, 1, 0.5)), Gate(GateKind.RZ, (0,), Affine(0, -1, 0.5))]
        with pytest.raises(ValueError, match="removed every occurrence"):
            optimize(Circuit(1, tuple(gates), 1))

    def _random_native_circuit(self, rng, num_qubits=3, length=60):
        gates = []
        for _ in range(length):
            pick = rng.integers(4)
            q = int(rng.integers(num_qubits))
            if pick == 0:
                gates.append(rz_const(q, float(rng.uniform(0, 2 * math.pi))))
            elif pick == 1:
                gates.append(Gate(GateKind.SX, (q,)))
            elif pick == 2:
                gates.append(Gate(GateKind.X, (q,)))
            else:
                a, b = rng.choice(num_qubits, size=2, replace=False)
                gates.append(Gate(GateKind.CX, (int(a), int(b))))
        return Circuit(num_qubits, tuple(gates), 0)

    def test_never_increases_gate_count_and_preserves_semantics(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            c = self._random_native_circuit(rng)
            opt = optimize(c)
            assert len(opt.gates) <= len(c.gates)
            before, after = simulate(c), simulate(opt)
            fidelity = abs(np.vdot(before, after)) ** 2
            assert fidelity >= 1 - 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(32)
        c = self._random_native_circuit(rng)
        once = optimize(c)
        assert optimize(once) == once


def unitary(circuit):
    """Rows are the images of the basis states under a concrete circuit."""
    states = np.eye(2**circuit.num_qubits, dtype=complex)
    for g in circuit.gates:
        angle = g.param.angle if isinstance(g.param, Const) else None
        states = apply_kind(states, circuit.num_qubits, g.kind, g.qubits, angle)
    return states


def assert_optimize_preserves_unitary(circuit, theta):
    opt = optimize(circuit)
    assert equal_up_to_phase(unitary(bind(opt, theta)), unitary(bind(circuit, theta)))
    return opt


def rz_affine(q, symbol, coeff, offset):
    return Gate(GateKind.RZ, (q,), Affine(symbol, coeff, offset))


SX0 = Gate(GateKind.SX, (0,))

# One circuit per peephole rule, with gates around the rewrite site, and the
# gate count once that rule has fired.
PEEPHOLE_RULES = {
    "rz-merge": (1, [SX0, rz_affine(0, 0, 1, 0.3), rz_const(0, 5.9), SX0], 1, 3),
    "rz-merge-opposite-coeffs": (
        1, [rz_affine(0, 0, 1, 0.5), rz_affine(0, 0, -1, 0.25), SX0, rz_affine(0, 0, 1, 0.0)], 1, 3
    ),
    "rz-merge-small-angle": (1, [SX0, rz_const(0, 0.3), rz_const(0, 2 * math.pi - 0.295), SX0], 0, 3),
    "rz-zero-drop": (2, [SX0, rz_const(0, 0.0), Gate(GateKind.CX, (0, 1)), rz_const(1, 2 * math.pi)], 0, 2),
    "cx-pair-cancel": (2, [SX0, Gate(GateKind.CX, (1, 0)), Gate(GateKind.CX, (1, 0)), rz_affine(1, 0, -1, 1.0)], 1, 2),
    "sx4-collapse": (1, [rz_affine(0, 0, 1, 0.0), SX0, SX0, SX0, SX0, Gate(GateKind.X, (0,))], 1, 2),
    # a Const RZ then an Affine one merge too; an SX pair is X, and stays
    "rz-merge-const-first": (1, [SX0, rz_const(0, 0.7), rz_affine(0, 0, 1, 0.3), SX0], 1, 3),
    "sx-pair-kept": (1, [rz_affine(0, 0, 1, 0.0), SX0, SX0], 1, 3),
}


@pytest.mark.parametrize("rule", PEEPHOLE_RULES)
def test_peephole_rule_preserves_unitary(rule):
    num_qubits, gates, num_symbols, fired_count = PEEPHOLE_RULES[rule]
    circuit = Circuit(num_qubits, tuple(gates), num_symbols)
    rng = np.random.default_rng(5)
    for theta in rng.uniform(0, 2 * math.pi, (10, num_symbols)):
        opt = assert_optimize_preserves_unitary(circuit, theta)
    assert len(opt.gates) == fired_count


@settings(max_examples=200, deadline=None)
@given(circuits(3, NATIVE_KINDS, 24), st.data())
def test_optimize_preserves_unitary_on_random_native_circuits(case, data):
    circuit = case[0]
    theta = data.draw(st.lists(ANGLES, min_size=circuit.num_symbols, max_size=circuit.num_symbols))
    try:
        assert_optimize_preserves_unitary(circuit, theta)
    except ValueError as e:
        assume("removed every occurrence" not in str(e))
        raise


class TestTranspile:
    def test_real_amplitudes_on_matching_line(self):
        c = build_real_amplitudes(2, 1)
        t = transpile(c, make_line(2))
        report = overhead(t, 1)
        assert report.delta_g2q == 0
        assert not any(g.kind is GateKind.SWAP for g in t.physical.gates)

    def test_efficient_su2_forces_swaps(self):
        c = build_efficient_su2(3, 1)
        t = transpile(c, make_line(3))
        assert overhead(t, 1).delta_g2q >= 3

    def test_native_circuit_passes_through(self):
        gates = (Gate(GateKind.RZ, (0,), Affine(0, 1, 0.0)), Gate(GateKind.SX, (0,)), Gate(GateKind.CX, (0, 1)))
        c = Circuit(2, gates, 1)
        t = transpile(c, make_line(2))
        report = overhead(t, 1)
        assert (report.delta_g1q, report.delta_g2q, report.delta_depth_dag) == (0, 0, 0)

    def test_depth_vs_reps_delta(self):
        c = build_real_amplitudes(2, 1)
        t = transpile(c, make_line(2))
        assert overhead(t, 1).delta_depth_paper == t.metrics_after.dag_depth - 1

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_constraints_satisfied(self, builder):
        for backend in (make_line(4), make_heavy_hex(2, 3)):
            t = transpile(builder(4, 1), backend)
            check_constraints(t, backend)  # raises on violation
            kinds = {g.kind for g in t.physical.gates}
            assert kinds <= backend.native_1q | backend.native_2q

    def test_constraint_violations_raise(self):
        # a CX on an uncoupled pair, and a gate the backend does not run
        backend = make_line(3)
        t = transpile(build_real_amplitudes(3, 1), backend)
        assert t.phys_qubits == (0, 1, 2)
        check_constraints(t, backend)
        for extra, match in (
            (Gate(GateKind.CX, (0, 2)), r"two-qubit gate on uncoupled pair \(0,2\)"),
            (Gate(GateKind.RY, (1,), Const(0.5)), "non-native single-qubit gate RY"),
            (Gate(GateKind.SWAP, (0, 1)), "non-native two-qubit gate SWAP"),
        ):
            wrong = replace(t, physical=replace(t.physical, gates=(*t.physical.gates, extra)))
            with pytest.raises(ValueError, match=match):
                check_constraints(wrong, backend)

    def test_deterministic(self):
        c = build_efficient_su2(4, 2)
        backend = make_heavy_hex(2, 3)
        assert transpile(c, backend) == transpile(c, backend)

    def test_provenance_total_and_typed(self):
        # each rotation keeps its angle's origin: a logical symbol or a synthesized constant
        c = build_real_amplitudes(2, 1)
        t = transpile(c, make_line(2))
        params = [g.param for g in t.physical.gates if g.kind in ROTATION_KINDS]
        logical = [o for o in params if isinstance(o, Affine)]
        synth = [o for o in params if isinstance(o, Const)]
        assert len(logical) + len(synth) == len(params)
        assert {o.symbol for o in logical} == set(range(c.num_symbols))
        assert all(o.angle == pytest.approx(math.pi) for o in synth)

    def test_physical_circuit_keeps_logical_symbols(self):
        c = build_ttn(4, 1)
        t = transpile(c, make_line(4))
        assert t.physical.num_symbols == c.num_symbols
        syms = [g.param for g in t.physical.gates if isinstance(g.param, Affine)]
        assert sorted({s.symbol for s in syms}) == list(range(c.num_symbols))
        assert any(s.offset != 0.0 for s in syms)  # the RZ/SX template shifts RY angles by pi
        assert free_all_angles(t.physical).num_symbols > c.num_symbols

    def test_ancilla_bridge_compaction(self):
        # routing across heavy-hex rows passes through a bridge qubit that
        # holds no logical qubit; it must appear in the active set
        backend = make_heavy_hex(2, 3)
        c = build_efficient_su2(5, 1)
        t = transpile(c, backend)
        assert 6 in t.phys_qubits
        assert t.physical.num_qubits == len(t.phys_qubits)
        assert set(t.final_layout) <= set(t.phys_qubits)

    def test_cost_qubit_tracks_logical_zero(self):
        backend = make_heavy_hex(2, 3)
        t = transpile(build_efficient_su2(5, 1), backend)
        assert t.phys_qubits[t.cost_qubit] == t.final_layout[0]

    def test_fidelity_length_check(self):
        c = build_real_amplitudes(2, 1)
        t = transpile(c, make_line(2))
        with pytest.raises(ValueError, match="parameter count mismatch"):
            logical_physical_fidelity(c, t, [0.0])


class TestSemanticEquivalence:
    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("n,reps", [(2, 1), (3, 2), (4, 1)])
    def test_fidelity_line(self, builder, n, reps):
        c = builder(n, reps)
        t = transpile(c, make_line(n))
        rng = np.random.default_rng(hash((builder.__name__, n, reps)) % 2**32)
        for theta in rng.uniform(0, 2 * math.pi, (5, c.num_symbols)):
            assert logical_physical_fidelity(c, t, theta) >= 1 - 1e-10

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_fidelity_heavy_hex(self, builder):
        backend = make_heavy_hex(2, 3)
        c = builder(5, 1)
        t = transpile(c, backend)
        rng = np.random.default_rng(99)
        for theta in rng.uniform(0, 2 * math.pi, (5, c.num_symbols)):
            assert logical_physical_fidelity(c, t, theta) >= 1 - 1e-10

    def test_fidelity_with_random_layout(self):
        backend = make_heavy_hex(2, 3)
        c = build_real_amplitudes(4, 2)
        for seed in (0, 1, 17):
            t = transpile(c, backend, layout_seed=seed)
            check_constraints(t, backend)
            rng = np.random.default_rng(seed)
            theta = rng.uniform(0, 2 * math.pi, c.num_symbols)
            assert logical_physical_fidelity(c, t, theta) >= 1 - 1e-10

    def test_wrong_compiles_read_below_one(self):
        # the check must be able to fail: the compile with one CX dropped,
        # and with an X on its ancilla (the bridge qubit), each fall short
        c = build_efficient_su2(5, 1)
        t = transpile(c, make_heavy_hex(2, 3))
        theta = np.random.default_rng(7).uniform(0, 2 * math.pi, c.num_symbols)
        assert logical_physical_fidelity(c, t, theta) >= 1 - 1e-10
        gates = t.physical.gates
        cx = next(i for i, g in enumerate(gates) if g.kind is GateKind.CX)
        assert t.physical.num_qubits == c.num_qubits + 1
        for wrong in (gates[:cx] + gates[cx + 1 :], (*gates, Gate(GateKind.X, (c.num_qubits,)))):
            wrong_t = replace(t, physical=replace(t.physical, gates=wrong))
            assert logical_physical_fidelity(c, wrong_t, theta) < 1 - 1e-10

    def test_random_layouts_differ_but_trivial_is_default(self):
        backend = make_heavy_hex(2, 3)
        c = build_real_amplitudes(3, 1)
        assert transpile(c, backend).initial_layout == (0, 1, 2)
        seen = {transpile(c, backend, layout_seed=s).initial_layout for s in range(6)}
        assert len(seen) > 1


# ---------------------------------------------------------------------------
# Property tests over random circuits on random connected backends


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(transpile_cases())
# routing leaves logical qubit 0 on device qubit 7, the highest the compile touches
@example((make_line(8), build_ttn(4, 1), 3, [0.1 + 0.3 * i for i in range(build_ttn(4, 1).num_symbols)]))
def test_transpile_properties_on_random_backends(case):
    backend, circuit, layout_seed, theta = case
    try:
        t = transpile(circuit, backend, layout_seed=layout_seed)
    except ValueError as e:
        # RZ(theta) RZ(-theta) merge away every occurrence of theta
        assume("removed every occurrence" not in str(e))
        raise
    assert logical_physical_fidelity(circuit, t, theta) >= 1 - 1e-10
    check_constraints(t, backend)
    assert t.physical.num_symbols == circuit.num_symbols
    assert reparameterize(t, ReparamMode.SYMBOL_DERIVED) is t.physical
    # logical qubit order: compact qubit q holds logical qubit q, the ancillas follow ascending
    n = circuit.num_qubits
    assert t.cost_qubit == 0
    assert t.phys_qubits[:n] == t.final_layout
    assert list(t.phys_qubits[n:]) == sorted(t.phys_qubits[n:])
    logical, physical = bind(circuit, theta), bind(t.physical, theta)
    for q in range(n):
        assert abs(expect_z(physical, q) - expect_z(logical, q)) <= 1e-12
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        # the same file through the command line, then its gradvar in both modes
        save_circuit(circuit, d / "c.txt")
        save_backend(backend, d / "b.json")
        argv = ["transpile", "--in", d / "c.txt", "--backend", d / "b.json", "--out", d / "p.txt"]
        if layout_seed is not None:
            argv += ["--layout-seed", layout_seed]
        assert cli.main([str(a) for a in argv]) == 0
        assert load_circuit(d / "p.txt") == t.physical
        for mode in ReparamMode:
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.main(["gradvar", "--in", str(d / "p.txt"), "--mode", mode.value,
                                 "--samples", "2", "--seed", "9"]) == 0
            expected = grad_variance(reparameterize(t, mode), 2, 9, 0)
            payload = json.loads(out.getvalue())
            assert (payload["grad_var"], payload["per_param_var"]) == (expected.grad_var, list(expected.per_param_var))
