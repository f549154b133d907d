import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from vqclab import grad
from vqclab.ansatz import build_ansatz, build_efficient_su2, build_real_amplitudes, build_ttn
from vqclab.backend import make_heavy_hex, make_line
from vqclab.circuit import (
    TWO_QUBIT_KINDS,
    Affine,
    Circuit,
    Const,
    Gate,
    GateKind,
    bind,
    structural_metrics,
)
from vqclab.grad import (
    GradStats,
    ReparamMode,
    _gradients_batched,
    _light_cone,
    delta_gradvar,
    free_all_angles,
    grad_variance,
    param_shift_gradient,
    reparameterize,
    sample_thetas,
)
from vqclab.rng import GOLDEN, SplitMix64, mix64
from vqclab.sim import MAX_QUBITS, apply_kind, expect_z, gate_matrix, simulate
from vqclab.transpiler import TranspiledCircuit, transpile

from cases import REAL_KINDS, assert_equals_literal_shift_rule, cell_arms, circuits, stock_arms

BUILDERS = [build_real_amplitudes, build_efficient_su2, build_ttn]


def ry_circuit():
    return Circuit(1, (Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)),), 1)


class TestSplitMix64:
    def test_reference_stream(self):
        # published splitmix64 outputs for seed 0
        s = SplitMix64(0)
        assert s.next_u64() == 0xE220A8397B1DCDAF
        assert s.next_u64() == 0x6E789E6AA1B965F4
        assert s.next_u64() == 0x06C45D188009454F

    def test_mix_matches_stream(self):
        assert mix64(GOLDEN) == 0xE220A8397B1DCDAF

    def test_angle_mapping(self):
        s = SplitMix64(12345)
        t = SplitMix64(12345)
        z = s.next_u64()
        assert t.next_angle() == float(z >> 11) * 2.0**-53 * (2.0 * np.pi)

    def test_angles_in_range(self):
        s = SplitMix64(7)
        for _ in range(1000):
            a = s.next_angle()
            assert 0.0 <= a < 2 * math.pi


class TestSampleThetas:
    @pytest.mark.parametrize("seed", [0, 42, 2**63 + 11, 987654321])
    def test_matches_scalar_streams(self, seed):
        got = sample_thetas(seed, samples=5, num_params=4)
        for i in range(5):
            stream = SplitMix64(seed + i * GOLDEN)
            expected = [stream.next_angle() for _ in range(4)]
            np.testing.assert_array_equal(got[i], expected)

    def test_deterministic(self):
        np.testing.assert_array_equal(sample_thetas(3, 10, 7), sample_thetas(3, 10, 7))

    def test_seed_changes_values(self):
        assert not np.array_equal(sample_thetas(1, 4, 4), sample_thetas(2, 4, 4))

    def test_range(self):
        t = sample_thetas(5, 50, 20)
        assert t.min() >= 0.0 and t.max() < 2 * math.pi


class TestParamShiftGradient:
    def test_ry_analytic(self):
        c = ry_circuit()
        for theta in (0.0, math.pi / 2, 1.234, 5.0):
            got = param_shift_gradient(c, [theta])[0]
            assert got == pytest.approx(-math.sin(theta), abs=1e-12)

    def test_ry_at_zero(self):
        assert param_shift_gradient(ry_circuit(), [0.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_length_check(self):
        with pytest.raises(ValueError, match="parameter count mismatch"):
            param_shift_gradient(ry_circuit(), [0.1, 0.2])

    @pytest.mark.parametrize("cost_qubit", [True, 0.0], ids=["bool", "float"])
    def test_cost_qubit_must_be_an_int(self, cost_qubit):
        with pytest.raises(ValueError, match="cost_qubit must be an int"):
            param_shift_gradient(build_ttn(2, 1), [0.1, 0.2, 0.3], cost_qubit)

    def finite_difference(self, circuit, theta, cost_qubit=0, h=1e-5):
        grad = np.zeros(circuit.num_symbols)
        for j in range(circuit.num_symbols):
            up, down = np.array(theta, float), np.array(theta, float)
            up[j] += h
            down[j] -= h
            grad[j] = (expect_z(bind(circuit, up), cost_qubit) - expect_z(bind(circuit, down), cost_qubit)) / (2 * h)
        return grad

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_matches_finite_difference(self, builder):
        c = builder(3, 1)
        rng = np.random.default_rng(17)
        for theta in rng.uniform(0, 2 * math.pi, (3, c.num_symbols)):
            ps = param_shift_gradient(c, theta)
            fd = self.finite_difference(c, theta)
            np.testing.assert_allclose(ps, fd, atol=1e-6)

    def test_offset_and_negative_coeff(self):
        gates = (
            Gate(GateKind.RY, (0,), Affine(0, -1, math.pi / 3)),
            Gate(GateKind.CX, (0, 1)),
            Gate(GateKind.RZ, (1,), Affine(1, 1, 1.0)),
            Gate(GateKind.RX, (1,), Affine(2, 1, 0.0)),
        )
        c = Circuit(2, gates, 3)
        rng = np.random.default_rng(23)
        for theta in rng.uniform(0, 2 * math.pi, (4, 3)):
            np.testing.assert_allclose(
                param_shift_gradient(c, theta), self.finite_difference(c, theta), atol=1e-6
            )

    def test_multi_occurrence_symbol(self):
        # one symbol driving two gates, one of them with coeff -1
        gates = (
            Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)),
            Gate(GateKind.CX, (0, 1)),
            Gate(GateKind.RY, (1,), Affine(0, -1, 0.4)),
        )
        c = Circuit(2, gates, 1)
        rng = np.random.default_rng(29)
        for theta in rng.uniform(0, 2 * math.pi, (5, 1)):
            np.testing.assert_allclose(
                param_shift_gradient(c, theta), self.finite_difference(c, theta), atol=1e-6
            )

    def test_matches_finite_difference_six_qubits(self):
        # the agreement holds up to the largest routine size, transpiled side included
        c = build_ttn(6, 1)
        t = transpile(c, make_line(6))
        phys = reparameterize(t, ReparamMode.ALL_ANGLES)
        rng = np.random.default_rng(19)
        for circuit, cost in ((c, 0), (phys, t.cost_qubit)):
            theta = rng.uniform(0, 2 * math.pi, circuit.num_symbols)
            np.testing.assert_allclose(
                param_shift_gradient(circuit, theta, cost),
                self.finite_difference(circuit, theta, cost),
                atol=1e-6,
            )

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_batched_equals_literal(self, builder):
        c = builder(3, 2)
        rng = np.random.default_rng(37)
        assert_equals_literal_shift_rule(c, rng.uniform(0, 2 * math.pi, (4, c.num_symbols)), 0)

    def test_batched_equals_literal_on_physical(self):
        t = transpile(build_efficient_su2(3, 1), make_line(3))
        phys = reparameterize(t, ReparamMode.ALL_ANGLES)
        rng = np.random.default_rng(41)
        assert_equals_literal_shift_rule(phys, rng.uniform(0, 2 * math.pi, (3, phys.num_symbols)), t.cost_qubit)

    def test_batched_equals_literal_multi_occurrence(self):
        gates = (
            Gate(GateKind.RZ, (0,), Affine(0, 1, 0.3)),
            Gate(GateKind.RY, (0,), Affine(0, -1, 1.2)),
            Gate(GateKind.RY, (0,), Affine(1, 1, 0.0)),
        )
        c = Circuit(1, gates, 2)
        assert_equals_literal_shift_rule(c, np.random.default_rng(43).uniform(0, 2 * math.pi, (6, 2)), 0)


# Qubits 2 and 3 never meet the cost qubit 0's group: symbols 1 and 2 lie
# outside its cone, symbol 0 inside (twice, once with coeff -1).
SPLIT_CONE = (Circuit(4, (
    Gate(GateKind.RY, (0,), Affine(0, 1, 0.2)), Gate(GateKind.RX, (2,), Affine(1, 1, 0.7)), Gate(GateKind.CX, (0, 1)),
    Gate(GateKind.SWAP, (3, 2)), Gate(GateKind.RZ, (3,), Affine(2, -1, 1.4)), Gate(GateKind.CX, (2, 3)),
    Gate(GateKind.RY, (1,), Affine(0, -1, 0.5)), Gate(GateKind.H, (1,)), Gate(GateKind.CX, (1, 0)),
), 3), 0, 6, 29)


class TestLightCone:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(circuits(5, max_gates=20))
    @example(SPLIT_CONE)
    def test_cone_sweep_equals_literal_shift_rule(self, case):
        circuit, cost_qubit, batch, seed = case
        fast = assert_equals_literal_shift_rule(circuit, sample_thetas(seed, batch, circuit.num_symbols), cost_qubit)
        in_cone = {g.param.symbol for g in _light_cone(circuit, cost_qubit)[0] if isinstance(g.param, Affine)}
        outside = [s for s in range(circuit.num_symbols) if s not in in_cone]
        assert np.all(fast[:, outside] == 0.0)

    def test_real_amplitudes_keeps_two_qubits(self):
        gates, live = _light_cone(build_real_amplitudes(12, 1), 0)
        assert live == [0, 1]
        assert gates == [
            Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)),
            Gate(GateKind.RY, (1,), Affine(1, 1, 0.0)),
            Gate(GateKind.CX, (0, 1)),
            Gate(GateKind.RY, (0,), Affine(12, 1, 0.0)),
        ]

    def test_ttn_keeps_every_gate(self):
        # the cone is a selection: it keeps the circuit's own gate objects
        c = build_ttn(12, 1)
        gates, live = _light_cone(c, 0)
        assert live == list(range(12))
        assert len(gates) == len(c.gates) and all(a is b for a, b in zip(gates, c.gates))

    def test_rz_ending_the_cost_wire_is_dropped(self):
        ry, rz = Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)), Gate(GateKind.RZ, (0,), Affine(1, 1, 0.0))
        c = Circuit(2, (ry, Gate(GateKind.CX, (1, 0)), rz, Gate(GateKind.RZ, (0,), Const(0.3))), 2)
        assert _light_cone(c, 0) == ([ry, Gate(GateKind.CX, (1, 0))], [0, 1])

    def test_rz_followed_by_sx_is_kept(self):
        ry, rz = Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)), Gate(GateKind.RZ, (0,), Affine(1, 1, 0.0))
        c = Circuit(1, (ry, rz, Gate(GateKind.SX, (0,))), 2)
        assert _light_cone(c, 0) == (list(c.gates), [0])

    def test_final_rz_layer_reads_exact_zero(self):
        # efficient_su2 ends in an RZ layer: the cost wire's RZ commutes
        # with Z_cost, and the others lie outside the light cone
        c = build_efficient_su2(4, 1)
        last_rz = [g.param.symbol for g in c.gates[-4:]]
        assert all(g.kind is GateKind.RZ for g in c.gates[-4:])
        stats = grad_variance(c, 200, 42)
        assert [stats.per_param_var[s] for s in last_rz] == [0.0] * 4
        assert [stats.per_param_mean[s] for s in last_rz] == [0.0] * 4

    def test_qubit_cap_applies_to_the_cone_not_the_register(self):
        # a 26-qubit register whose cone of qubit 0 is qubits 0-1, plus an
        # RY on qubit 25 whose symbol lies outside the cone
        narrow = Circuit(
            2,
            (
                Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)),
                Gate(GateKind.RY, (1,), Affine(1, 1, 0.0)),
                Gate(GateKind.CX, (0, 1)),
                Gate(GateKind.RX, (1,), Affine(2, -1, 0.5)),
                Gate(GateKind.CX, (1, 0)),
                Gate(GateKind.RY, (0,), Affine(0, 1, 0.3)),
            ),
            3,
        )
        wide = Circuit(26, (*narrow.gates, Gate(GateKind.RY, (25,), Affine(3, 1, 0.0))), 4)
        # sample_thetas' columns do not depend on the symbol count
        narrow_stats, wide_stats = grad_variance(narrow, 64, 9), grad_variance(wide, 64, 9)
        assert [v.hex() for v in wide_stats.per_param_var[:-1]] == [v.hex() for v in narrow_stats.per_param_var]
        assert wide_stats.per_param_var[-1] == 0.0

    def test_cone_over_the_cap_fails_before_sweep_steps(self):
        n = MAX_QUBITS + 1
        chain = tuple(Gate(GateKind.CX, (q + 1, q)) for q in reversed(range(n - 1)))
        circuit = Circuit(n, (Gate(GateKind.RY, (n - 1,), Affine(0, 1, 0.0)), *chain), 1)
        # the plan refuses the cone before it makes any step (a gather's
        # index maps would take 2**25 entries each)
        with mock.patch.object(grad, "_sweep_steps") as sweep_steps:
            for run in (lambda: grad._plan(circuit, 0), lambda: grad_variance(circuit, 4, 1)):
                with pytest.raises(ValueError, match=f"light cone of {n} qubits exceeds the {MAX_QUBITS}-qubit"):
                    run()
        sweep_steps.assert_not_called()

    def test_live_qubits_renumbered_in_order(self):
        # the cone keeps its gates' own qubits; the sweep's register numbers
        # them in the order they leave |0>, which is the renumbering
        c = Circuit(4, (Gate(GateKind.X, (0,)), Gate(GateKind.CX, (3, 1)), Gate(GateKind.H, (2,))), 0)
        assert _light_cone(c, 3) == ([Gate(GateKind.CX, (3, 1))], [1, 3])
        assert _light_cone(c, 2) == ([Gate(GateKind.H, (2,))], [2])
        # the CX's control is |0>: the CX is dropped, and no qubit joins
        assert grad._sweep_steps(_light_cone(c, 3)[0]) == ([], {})
        steps, layout = grad._sweep_steps(_light_cone(c, 2)[0])
        assert steps == [(((Gate(GateKind.H, (2,)),),), 1)] and layout == {2: 0}
        # qubit 3 leaves |0> first and takes bit 0; the CX's |0> target,
        # qubit 1, then joins on bit 1 by an identity step
        h3 = Gate(GateKind.H, (3,))
        steps, layout = grad._sweep_steps([h3, Gate(GateKind.CX, (3, 1))])
        assert steps[:2] == [(((h3,),), 1), (((),), 1)] and len(steps) == 3
        assert np.array_equal(element_maps(steps[2], 2), reference_maps(2, [(GateKind.CX, (0, 1))]))
        assert layout == {3: 0, 1: 1}


# Cost qubit 0 meets every |0> rule: CX(0, 1) joins its |0> target, CX(2, 0)
# is dropped (its control is |0>), and SWAP(1, 2) and SWAP(1, 0) each carry
# a qubit's bit over to a |0> qubit.
ZERO_QUBIT_GATES = (Circuit(3, (
    Gate(GateKind.RY, (0,), Affine(0, 1, 0.3)), Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (2, 0)),
    Gate(GateKind.SWAP, (1, 2)), Gate(GateKind.RX, (2,), Affine(1, -1, 0.8)), Gate(GateKind.CX, (2, 0)),
    Gate(GateKind.RY, (0,), Affine(2, 1, 0.0)), Gate(GateKind.SWAP, (1, 0)), Gate(GateKind.H, (0,)),
    Gate(GateKind.CX, (0, 2)), Gate(GateKind.RY, (2,), Affine(0, -1, 1.9)), Gate(GateKind.CX, (2, 0)),
), 3), 0, 5, 7)


def zero_qubit_rules(gates):
    """The |0> rules that ``gates`` meet. A qubit leaves |0> at its first
    single-qubit gate, or as the target of a CX whose control has left it; a
    SWAP exchanges two qubits' states."""
    left, rules = set(), set()
    for g in gates:
        if g.kind not in TWO_QUBIT_KINDS:
            left.add(g.qubits[0])
            continue
        a, b = g.qubits
        if g.kind is GateKind.CX and a not in left:
            rules.add("cx-control")
        elif g.kind is GateKind.CX and b not in left:
            rules.add("cx-target")
            left.add(b)
        elif g.kind is GateKind.SWAP and (a in left) != (b in left):
            rules.add("swap")
            left ^= {a, b}
    return rules


class TestRegister:
    # one cone in six to eight meets a given rule
    @pytest.mark.parametrize("rule", ["cx-control", "cx-target", "swap"])
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(case=circuits())
    @example(case=ZERO_QUBIT_GATES)
    def test_gates_that_meet_a_zero_qubit_equal_literal_shift_rule(self, rule, case):
        circuit, cost_qubit, batch, seed = case
        assume(rule in zero_qubit_rules(_light_cone(circuit, cost_qubit)[0]))
        assert_equals_literal_shift_rule(circuit, sample_thetas(seed, batch, circuit.num_symbols), cost_qubit)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(circuits(4, max_gates=16), st.booleans())
    def test_a_cost_qubit_that_never_leaves_zero_reads_exact_zeros(self, case, swapped):
        # the cost qubit is a fresh qubit f that only controls a CX onto each
        # other qubit, or the drawn one, swapped with f at the end
        circuit, cost_qubit, batch, seed = case
        f = circuit.num_qubits
        if swapped:
            extra = (Gate(GateKind.SWAP, (cost_qubit, f)),)
        else:
            extra, cost_qubit = tuple(Gate(GateKind.CX, (f, q)) for q in range(f)), f
        circuit = Circuit(f + 1, (*circuit.gates, *extra), circuit.num_symbols)
        assert grad._plan(circuit, cost_qubit)[2] is None
        fast = assert_equals_literal_shift_rule(circuit, sample_thetas(seed, batch, circuit.num_symbols), cost_qubit)
        assert not fast.any()

    def test_ttn_wakes_its_qubits_two_at_a_time(self):
        # each RY(a) RY(b) pair of the tree's first level is one step that
        # puts both qubits in the register; the later levels find them there
        for mode, circuit, cost_qubit in cell_arms("ttn", 12, 1, make_line(12)):
            sizes = registers(grad._plan(circuit, cost_qubit)[1])
            assert sizes[:6] == [2, 4, 6, 8, 10, 12] and set(sizes[6:]) == {12}, mode

    @pytest.mark.parametrize("rows", [None, 1, 3], ids=["shared", "one-row", "rows"])
    @pytest.mark.parametrize("dim, joins", [(2, 0), (2, 1), (4, 0), (4, 1), (4, 2)])
    @pytest.mark.parametrize("planes", [1, 2])
    def test_real_block_is_the_block_written_out(self, planes, dim, joins, rows):
        # a per-sample U is a row block's slice of the batch's, as the sweep
        # takes it; a joining step keeps the first dim >> joins columns
        rng = np.random.default_rng(10 * dim + joins)
        batch = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
        if planes == 1:
            batch = batch.real.copy()
        u = batch[0] if rows is None else batch[1 : 1 + rows]
        cols = dim >> joins
        want = np.zeros(u.shape[:-2] + (planes * dim, planes * cols))
        for index in np.ndindex(u.shape[:-2]):
            for i in range(dim):
                for j in range(cols):
                    z = complex(u[index][i, j])
                    want[index][i, j] = z.real
                    if planes == 2:
                        want[index][dim + i, cols + j] = z.real
                        want[index][dim + i, j] = z.imag
                        want[index][i, cols + j] = -z.imag
        assert np.array_equal(grad._real_block(u, planes, joins), want)


class TestFusedRuns:
    def test_runs_are_held_back_until_a_two_qubit_gate_touches_their_wire(self):
        sx0, rz0, x0, h2 = (
            Gate(GateKind.SX, (0,)),
            Gate(GateKind.RZ, (0,), Affine(0, -1, 0.5)),
            Gate(GateKind.X, (0,)),
            Gate(GateKind.H, (2,)),
        )
        cx12, cx01 = Gate(GateKind.CX, (1, 2)), Gate(GateKind.CX, (0, 1))
        steps, layout = grad._sweep_steps([sx0, h2, rz0, cx12, x0, cx01])
        # the CX on (1, 2) flushes H(2), which joins on bit 0, and is dropped:
        # its control is |0>. The run on qubit 0 (X included) waits for
        # CX(0, 1) and joins on bit 1; the CX's |0> target joins on bit 2 by
        # an identity step, and the CX then acts on bits (1, 2) in a gather
        assert [is_gather(s) for s in steps] == [False, False, False, True]
        assert steps[:3] == [(((h2,),), 1), (((sx0, rz0, x0),), 1), (((),), 1)]
        assert np.array_equal(element_maps(steps[3], 3), reference_maps(3, [(GateKind.CX, (1, 2))]))
        assert layout == {2: 0, 0: 1, 1: 2}

    def test_a_cx_between_two_held_runs_is_one_block(self):
        ry0, sx2 = Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)), Gate(GateKind.SX, (2,))
        h0, rx2 = Gate(GateKind.H, (0,)), Gate(GateKind.RX, (2,), Affine(1, 1, 0.0))
        cx20 = Gate(GateKind.CX, (2, 0))
        steps, layout = grad._sweep_steps([ry0, sx2, cx20, h0, rx2, cx20])
        # the two runs are one step, in which both qubits join: 2 on bit 0,
        # 0 above it; the CX then acts on bits (0, 1) in a gather. The next
        # two runs find their qubits on the top bits already, and stay there:
        # no SWAP joins that gather
        assert [is_gather(s) for s in steps] == [False, True, False, True]
        assert steps[0] == (((ry0,), (sx2,)), 2)
        assert steps[2] == (((h0,), (rx2,)), 0)
        for gather in steps[1::2]:
            assert np.array_equal(element_maps(gather, 2), reference_maps(2, [(GateKind.CX, (0, 1))]))
        assert layout == {2: 0, 0: 1}

    def test_a_cx_pairs_the_runs_on_its_own_wires(self):
        sx2, ry0, h1 = Gate(GateKind.SX, (2,)), Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)), Gate(GateKind.H, (1,))
        # the run on qubit 2 is complete and held first, but its CX comes
        # later: CX(0, 1) flushes the runs on its own two wires together
        steps, _ = grad._sweep_steps([sx2, ry0, h1, Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (2, 0))])
        assert runs_of(steps) == [((h1,), (ry0,)), ((sx2,),)]

    @pytest.mark.parametrize("family", ["efficient_su2", "ttn"])
    def test_every_run_acts_on_the_top_bit(self, family):
        t = transpile(build_ansatz(family, 4, 2), make_heavy_hex(2, 3))
        bound = bind(t.physical, np.random.default_rng(5).uniform(0, 2 * math.pi, t.physical.num_symbols))
        steps, layout = grad._sweep_steps(bound.gates)
        assert any(is_block(s) for s in steps)
        assert_replay_reproduces_circuit(steps, layout, bound)

    def test_ttn_logical_blocks_halve_the_steps(self):
        # each RY(a) RY(b) of the tree is one two-run step on the top two
        # bits, and its CX(b, a) joins the next gather; it took two runs and
        # two gathers before runs were paired
        logical = build_ansatz("ttn", 12, 1)
        t = transpile(logical, make_line(12))
        bound = bind(logical, np.random.default_rng(3).uniform(0, 2 * math.pi, logical.num_symbols))
        steps, layout = grad._sweep_steps(_light_cone(bound, 0)[0])
        assert len(steps) <= 24
        assert sum(is_block(s) for s in steps) == 11
        assert_replay_reproduces_circuit(steps, layout, bound)
        physical = reparameterize(t, ReparamMode.ALL_ANGLES)
        assert len(grad._sweep_steps(_light_cone(physical, t.cost_qubit)[0])[0]) <= 34

    def test_a_run_after_a_cx_adds_no_gather(self):
        def counts(gates):
            steps = grad._sweep_steps(gates)[0]
            gathers = sum(map(is_gather, steps))
            return gathers, len(steps) - gathers

        # one step puts qubits 0 and 1 (or 0 and 2) in the register, 0 on the
        # top bit, and the CX then acts on both
        h0, h1, h2 = (Gate(GateKind.H, (q,)) for q in range(3))
        cx01, sx0, sx1 = Gate(GateKind.CX, (0, 1)), Gate(GateKind.SX, (0,)), Gate(GateKind.SX, (1,))
        assert counts([h0, h1, cx01]) == (1, 1)
        # the SWAP that moves qubit 0 to the top bit joins the CX's gather
        assert counts([h0, h1, cx01, sx0]) == (1, 2)
        # two runs that end the circuit are one step; its SWAPs join the gather
        assert counts([h0, h1, cx01, sx0, sx1]) == (1, 2)
        # a run whose qubit is on the top bit already needs no SWAP
        assert counts([h0, h2, Gate(GateKind.CX, (0, 2)), Gate(GateKind.SX, (2,))]) == (1, 2)

    def test_two_complete_lone_runs_are_one_step(self):
        h2, ry0, sx1 = Gate(GateKind.H, (2,)), Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)), Gate(GateKind.SX, (1,))
        cx01 = Gate(GateKind.CX, (0, 1))
        # CX(0, 1) meets a run on qubit 0 only; the run on qubit 2, which no
        # single-qubit gate follows, joins its step; both join the register,
        # and the CX's |0> target then joins by an identity step
        steps, layout = grad._sweep_steps([h2, ry0, cx01])
        assert [is_gather(s) for s in steps] == [False, False, True]
        assert steps[:2] == [(((h2,), (ry0,)), 2), (((),), 1)]
        assert layout == {0: 0, 2: 1, 1: 2}
        # the runs that end the circuit are flushed in pairs too (the CX
        # before them is dropped: its control is |0>)
        steps, _ = grad._sweep_steps([cx01, h2, ry0, sx1])
        assert steps == [(((ry0,), (h2,)), 2), (((sx1,),), 1)]

    def test_a_run_that_a_single_qubit_gate_follows_is_no_partner(self):
        h2, ry0, x2 = Gate(GateKind.H, (2,)), Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)), Gate(GateKind.X, (2,))
        # X(2) still extends the run H(2) when CX(0, 1) flushes RY(0); the
        # CX's |0> target joins alone, by a run of no gates
        steps, _ = grad._sweep_steps([h2, ry0, Gate(GateKind.CX, (0, 1)), x2])
        assert runs_of(steps) == [((ry0,),), ((),), ((h2, x2),)]

    def test_the_partner_is_the_run_whose_two_qubit_gate_comes_first(self):
        h2, sx3, ry0 = Gate(GateKind.H, (2,)), Gate(GateKind.SX, (3,)), Gate(GateKind.RY, (0,), Affine(0, 1, 0.0))
        gates = [h2, sx3, ry0, Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (1, 3)), Gate(GateKind.CX, (2, 1))]
        steps, _ = grad._sweep_steps(gates)
        assert steps[0] == (((sx3,), (ry0,)), 2)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(circuits(5, max_gates=20))
    def test_each_wire_keeps_its_maximal_runs(self, case):
        circuit = case[0]
        bound = bind(circuit, np.random.default_rng(case[3]).uniform(0, 2 * math.pi, circuit.num_symbols))
        maximal = {q: [] for q in range(circuit.num_qubits)}
        open_runs = {}
        for g in bound.gates:
            if g.kind in TWO_QUBIT_KINDS:
                for q in g.qubits:
                    open_runs.pop(q, None)
                continue
            q = g.qubits[0]
            if q not in open_runs:
                open_runs[q] = []
                maximal[q].append(open_runs[q])
            open_runs[q].append(g)
        steps, layout = grad._sweep_steps(bound.gates)
        planned = {q: [] for q in range(circuit.num_qubits)}
        # an identity step's run holds no gate
        for run in (run for runs in runs_of(steps) for run in runs if run):
            planned[run[0].qubits[0]].append(list(run))
        assert planned == maximal
        assert_replay_reproduces_circuit(steps, layout, bound)

    @pytest.mark.parametrize("family, most", [("ttn", 12), ("efficient_su2", 7)])
    def test_lone_runs_pair_up_on_line_12(self, family, most):
        # routing leaves runs held on one wire of a CX at a time; unpaired,
        # the all-angles arms took 17 matrix steps and 17 gathers (ttn) and
        # 12 and 12 (efficient_su2)
        t = transpile(build_ansatz(family, 12, 1), make_line(12))
        physical = reparameterize(t, ReparamMode.ALL_ANGLES)
        steps, _ = grad._sweep_steps(_light_cone(physical, t.cost_qubit)[0])
        gathers = sum(map(is_gather, steps))
        assert gathers <= most
        assert len(steps) - gathers <= most

    def test_run_product_has_no_repeating_rounding(self):
        # a run that opens with two fixed gates: their product alone would
        # round the same way for every sample and drift the norm by ~1e-16
        run = (
            Gate(GateKind.RZ, (0,), Const(math.pi)),
            Gate(GateKind.SX, (0,)),
            Gate(GateKind.RZ, (0,), Affine(0, 1, 0.0)),
            Gate(GateKind.SX, (0,)),
        )
        u = grad._product(run, grad._matrices(run, sample_thetas(1, 4096, 1)))
        drift = (np.abs(u) ** 2).sum(axis=(1, 2)) / 2 - 1
        assert abs(drift.mean()) < 3e-17


    def test_matrices_are_built_once_per_call(self, monkeypatch):
        # one-row blocks build no more gate matrices than one block does
        calls = 0

        def counting_gate_matrix(*args):
            nonlocal calls
            calls += 1
            return gate_matrix(*args)

        monkeypatch.setattr(grad, "gate_matrix", counting_gate_matrix)
        circuit = build_ttn(10, 1)
        thetas = sample_thetas(3, 200, circuit.num_symbols)
        counts = []
        for rows in (1, 200):
            monkeypatch.setattr(grad, "_BLOCK_BYTES", rows * (1 << 10) * 16)
            calls = 0
            _gradients_batched(circuit, thetas, 0)
            counts.append(calls)
        assert counts[0] == counts[1] > 0


def is_gather(step):
    # a gather is one int32 array of its (forward, backward) index maps; a
    # matrix step is the tuple of its runs and how many of their qubits join
    if isinstance(step, np.ndarray):
        assert step.dtype == np.int32 and step.shape[0] == 2
        return True
    runs, joins = step
    assert isinstance(runs, tuple) and 0 <= joins <= len(runs)
    return False


def runs_of(steps):
    """The runs of each matrix step of ``steps``, in order."""
    return [step[0] for step in steps if not is_gather(step)]


def registers(steps):
    """The register's size after each matrix step of ``steps``."""
    return list(itertools.accumulate(step[1] for step in steps if not is_gather(step)))


def applied(states, n, ops):
    """A copy of ``states`` (B, 2**n) with the CX/SWAP ``ops``, each a
    (kind, (bit, bit)) pair, applied one at a time by the reference kernel."""
    out = states.copy()
    for kind, bits in ops:
        apply_kind(out, n, kind, bits)
    return out


def reference_maps(n, ops):
    """The (2, 2**n) forward and backward maps of single amplitudes of the
    CX/SWAP ``ops``: the amplitude indices with the ops applied by the
    reference kernel, in order and (each op is its own inverse) reversed."""
    idx = np.arange(1 << n)[None]
    return np.concatenate([applied(idx, n, ops), applied(idx, n, ops[::-1])])


def element_maps(step, n):
    """A gather's (2, 2**n) forward and backward maps of single amplitudes,
    from its maps of chunks: a chunk's amplitudes move with it, in order."""
    chunk = (1 << n) // step.shape[1]
    return (step[:, :, None] * chunk + np.arange(chunk)).reshape(2, -1)


def is_block(step):
    # a matrix step holds one run or two
    if is_gather(step):
        return False
    assert len(step[0]) in (1, 2)
    return len(step[0]) == 2


def assert_replay_reproduces_circuit(steps, layout, bound):
    """Replaying the steps on a register that starts empty reproduces the
    circuit: each gather, and each matrix step's runs gate by gate on the
    top bits a-1 and a-2 of the register after its joining qubits' bits are
    added above it in |0>. The register's qubits are placed by the final
    layout, and every other qubit is |0>."""
    a = 0
    state = np.ones((1, 1), dtype=complex)
    for step in steps:
        if is_gather(step):
            state = state[:, element_maps(step, a)[0]]
            continue
        runs, joins = step
        state = np.concatenate([state, np.zeros((1, state.size * ((1 << joins) - 1)))], axis=1)
        a += joins
        for run, bit in zip(runs, (a - 1, a - 2)):
            for g in run:
                assert g.qubits == run[0].qubits
                state = apply_kind(state, a, g.kind, (bit,), None if g.param is None else g.param.angle)
    assert sorted(layout.values()) == list(range(a))
    placed = [sum(((i >> bit) & 1) << q for q, bit in layout.items()) for i in range(1 << a)]
    full = np.zeros(1 << bound.num_qubits, dtype=complex)
    full[placed] = state[0]
    np.testing.assert_allclose(full, simulate(bound), rtol=0, atol=1e-12)


class TestGradVariance:
    def test_per_param_var_is_the_unbiased_sample_variance(self):
        c = build_real_amplitudes(3, 1)
        stats = grad_variance(c, 7, 3)
        grads = _gradients_batched(c, sample_thetas(3, 7, c.num_symbols), 0)
        assert stats.per_param_var == tuple(float(v) for v in grads.var(axis=0, ddof=1))
        assert stats.per_param_mean == tuple(float(m) for m in grads.mean(axis=0))
        assert max(stats.per_param_var) > 0

    def test_ry_analytic_variance(self):
        stats = grad_variance(ry_circuit(), 1000, seed=7)
        assert 0.45 <= stats.grad_var <= 0.55

    def test_deterministic(self):
        c = build_real_amplitudes(3, 1)
        assert grad_variance(c, 50, 5) == grad_variance(c, 50, 5)

    def test_seed_matters(self):
        c = build_real_amplitudes(2, 1)
        assert grad_variance(c, 50, 1).grad_var != grad_variance(c, 50, 2).grad_var

    def test_grad_var_is_mean_of_per_param(self):
        stats = grad_variance(build_ttn(4, 1), 40, 3)
        assert stats.grad_var == pytest.approx(float(np.mean(stats.per_param_var)), rel=1e-12)
        assert all(v >= 0 for v in stats.per_param_var)

    def test_zero_gradient_circuit(self):
        # cost qubit 0 untouched: every gradient is identically zero
        gates = (Gate(GateKind.RY, (1,), Affine(0, 1, 0.0)),)
        stats = grad_variance(Circuit(2, gates, 1), 50, 11, cost_qubit=0)
        assert abs(stats.grad_var) < 1e-30

    def test_no_parameters_warns(self):
        stats = grad_variance(Circuit(1, (Gate(GateKind.X, (0,)),), 0), 10, 1)
        assert stats.grad_var == 0.0
        assert stats.warning is not None
        assert stats.num_params == 0

    def test_requires_two_samples(self):
        with pytest.raises(ValueError, match="samples"):
            grad_variance(ry_circuit(), 1, 0)

    @pytest.mark.parametrize("samples", [10.5, 10.0, True, "10"])
    def test_samples_must_be_an_int(self, samples):
        with pytest.raises(ValueError, match="samples must be an int"):
            grad_variance(build_ttn(2, 1), samples, 1)

    def test_stderr_formula(self):
        stats = grad_variance(ry_circuit(), 200, 0)
        assert stats.stderr == pytest.approx(stats.grad_var * math.sqrt(2 / 199))

    def test_cost_qubit_range(self):
        with pytest.raises(ValueError, match="cost_qubit 1 out of range for 1 qubits"):
            grad_variance(ry_circuit(), 10, 0, cost_qubit=1)

    # True would run as seed 1 and be stored as seed=True; 1.5 would fail
    # deep in the sampler
    @pytest.mark.parametrize("seed", [True, 1.5], ids=["bool", "float"])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an int"):
            grad_variance(build_ttn(2, 1), 10, seed)

    # True would silently mean qubit 1
    @pytest.mark.parametrize("cost_qubit", [True, 0.0], ids=["bool", "float"])
    def test_cost_qubit_must_be_an_int(self, cost_qubit):
        with pytest.raises(ValueError, match="cost_qubit must be an int"):
            grad_variance(build_ttn(2, 1), 10, 1, cost_qubit)

    def test_numpy_integers_give_the_int_results(self):
        c = build_real_amplitudes(3, 2)
        want = grad_variance(c, 20, 7, 1)
        got = grad_variance(c, np.int64(20), np.uint32(7), np.int8(1))
        assert got == want
        assert [v.hex() for v in got.per_param_var] == [v.hex() for v in want.per_param_var]
        assert got.grad_var.hex() == want.grad_var.hex()
        # plain ints, so the CLI's JSON of the stats still serializes
        assert type(got.samples) is int and type(got.seed) is int
        theta = np.linspace(0.1, 2.0, c.num_symbols)
        want = param_shift_gradient(c, theta, 1)
        got = param_shift_gradient(c, theta, np.int64(1))
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_invariant_under_disjoint_reordering(self):
        # swapping commuting disjoint-qubit gates keeps the DAG, the symbol
        # order and therefore the sampled gradients
        a = Gate(GateKind.RY, (0,), Affine(0, 1, 0.0))
        b = Gate(GateKind.RY, (1,), Affine(1, 1, 0.0))
        tail = (Gate(GateKind.CX, (0, 1)), Gate(GateKind.RY, (0,), Affine(2, 1, 0.0)))
        c1 = Circuit(2, (a, b) + tail, 3)
        c2 = Circuit(2, (b, a) + tail, 3)
        s1 = grad_variance(c1, 64, 13)
        s2 = grad_variance(c2, 64, 13)
        assert s1.grad_var == pytest.approx(s2.grad_var, abs=1e-12)
        assert s1.per_param_var == pytest.approx(s2.per_param_var, abs=1e-12)


def sweep_buffers(circuit, thetas, cost_qubit):
    """``_gradients_batched``'s gradients, and the (block, buffers) arguments
    of each of its ``_sweep_block`` calls."""
    with mock.patch.object(grad, "_sweep_block", wraps=grad._sweep_block) as spy:
        grads = _gradients_batched(circuit, thetas, cost_qubit)
    return grads, [(call.args[2], call.args[5]) for call in spy.call_args_list]


def held_step_matrix_bytes(circuit, thetas, cost_qubit):
    """The bytes of the step matrices (each U and read-off, once each) that
    one ``_gradients_batched`` call passes to its row-block sweeps."""
    with mock.patch.object(grad, "_sweep_block", wraps=grad._sweep_block) as spy:
        _gradients_batched(circuit, thetas, cost_qubit)
    assert len({id(call.args[0]) for call in spy.call_args_list}) == 1
    arrays = {}
    for _, matrices in spy.call_args_list[0].args[0]:
        if matrices is not None:
            u, read_offs = matrices
            arrays[id(u)] = u
            arrays.update((id(p), p) for wire in read_offs for _, _, p in wire)
    return sum(a.nbytes for a in arrays.values())


class TestStateBuffers:
    @pytest.mark.parametrize("physical", [False, True], ids=["logical", "all-angles"])
    def test_one_pair_of_buffers_serves_every_block(self, physical):
        # ttn n=10 at B=200 runs in row blocks of 33 and 34 rows; its
        # logical arm is swept in one real plane, its physical arm in two
        circuit, cost_qubit = build_ttn(10, 1), 0
        if physical:
            t = transpile(circuit, make_heavy_hex(5, 11))
            circuit, cost_qubit = reparameterize(t, ReparamMode.ALL_ANGLES), t.cost_qubit
        n, _, _, planes = grad._plan(circuit, cost_qubit)
        assert planes == (2 if physical else 1)
        _, calls = sweep_buffers(circuit, sample_thetas(42, 200, circuit.num_symbols), cost_qubit)
        rows = [block.stop - block.start for block, _ in calls]
        assert len(set(rows)) > 1
        first = calls[0][1]
        assert len(first) == 2 and first[0] is not first[1]
        for _, buffers in calls:
            assert len(buffers) == 2 and all(b is f for b, f in zip(buffers, first))
        for b in first:
            assert b.size == 2 * max(rows) * planes << n and b.dtype == np.float64

    def test_held_step_matrices_stay_within_the_complex_sweeps_bytes(self):
        # each step keeps its complex per-sample U, as the complex128 sweep
        # did (6.82 MiB here), and builds its real block for a row block's
        # rows when it is used; holding the blocks would take 11.23 MiB
        t = transpile(build_ttn(10, 10), make_heavy_hex(5, 11))
        circuit = reparameterize(t, ReparamMode.ALL_ANGLES)
        assert grad._plan(circuit, t.cost_qubit)[3] == 2
        held = held_step_matrix_bytes(circuit, sample_thetas(42, 200, circuit.num_symbols), t.cost_qubit)
        assert held <= 6.83 * 2**20

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        circuits(4, REAL_KINDS, 24),
        st.sampled_from((GateKind.RZ, GateKind.SX, GateKind.RX)),
        st.floats(0.1, 3.0, allow_nan=False),
    )
    def test_real_cones_sweep_in_float64(self, case, kind, angle):
        circuit, cost_qubit, batch, seed = case
        thetas = sample_thetas(seed, batch, circuit.num_symbols)

        def assert_sweeps_in(planes, c):
            assert grad._plan(c, cost_qubit)[3] == planes
            assert_equals_literal_shift_rule(c, thetas, cost_qubit)

        assert_sweeps_in(1, circuit)
        # one complex gate inside the cone (an H follows it, so a final RZ
        # on the cost wire is not dropped from the cone) adds the imaginary
        # plane; an RZ whose matrix is real, at angle 0, leaves one plane
        h = Gate(GateKind.H, (cost_qubit,))
        extra = Gate(kind, (cost_qubit,), None if kind is GateKind.SX else Const(angle))
        assert_sweeps_in(2, replace(circuit, gates=(*circuit.gates, extra, h)))
        rz0 = Gate(GateKind.RZ, (cost_qubit,), Const(0.0))
        assert_sweeps_in(1, replace(circuit, gates=(*circuit.gates, rz0, h)))


# A real cone but for a Const RX(0) and RZ(0), whose matrices are real: one
# plane.
ZERO_ROTATIONS_IN_A_REAL_CONE = (Circuit(3, (
    Gate(GateKind.RY, (0,), Affine(0, 1, 0.3)), Gate(GateKind.RX, (1,), Const(0.0)), Gate(GateKind.CX, (1, 0)),
    Gate(GateKind.RZ, (0,), Const(0.0)), Gate(GateKind.H, (0,)), Gate(GateKind.RY, (1,), Affine(1, -1, 1.1)),
    Gate(GateKind.SWAP, (0, 2)), Gate(GateKind.RY, (2,), Affine(0, 1, 2.0)), Gate(GateKind.CX, (2, 1)),
    Gate(GateKind.X, (1,)),
), 2), 1, 5, 17)


class TestPlan:
    def test_stock_arm_planes(self):
        # every stock arm, from the plan alone; only the logical ttn and
        # real_amplitudes arms (RY and CX) are real, one plane
        planes = {name: grad._plan(circuit, cost_qubit)[3] for name, circuit, cost_qubit in stock_arms()}
        assert len(planes) == 279 and set(planes.values()) == {1, 2}
        one_plane = [name for name, p in planes.items() if p == 1]
        assert one_plane == [n for n in planes if n.startswith(("real_amplitudes ", "ttn ")) and n.endswith(" logical")]
        assert len(one_plane) == 62

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(circuits(4, max_gates=16))
    @example(ZERO_ROTATIONS_IN_A_REAL_CONE)
    def test_one_plane_plans_build_only_real_matrices(self, case):
        circuit, cost_qubit, batch, seed = case
        thetas = sample_thetas(seed, batch, circuit.num_symbols)
        _, steps, _, planes = grad._plan(circuit, cost_qubit)
        if planes == 1:
            for step in steps:
                if not is_gather(step):
                    assert not grad._step_matrices(step[0], thetas, 2)[0].imag.any()
        assert_equals_literal_shift_rule(circuit, thetas, cost_qubit)

    def test_the_plan_builds_no_gate(self, monkeypatch):
        # the cone selects the circuit's own gates and a gather is made from
        # (kind, bits) pairs, so planning a compiled arm constructs no Gate
        t = transpile(build_ttn(10, 1), make_heavy_hex(5, 11))
        circuit = reparameterize(t, ReparamMode.ALL_ANGLES)
        built = []
        monkeypatch.setattr(Gate, "__post_init__", lambda self: built.append(self))
        n, steps, _, _ = grad._plan(circuit, t.cost_qubit)
        assert n == 10 and any(map(is_gather, steps))
        assert built == []

    def test_a_real_run_of_complex_gates_sweeps_in_two_planes(self):
        # SX.SX is exactly X, so every step's U is real; the plan reads the
        # gates, not their products, and sweeps in two planes
        sx = Gate(GateKind.SX, (1,))
        ry0, ry1 = Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)), Gate(GateKind.RY, (0,), Affine(1, -1, 0.3))
        circuit = Circuit(2, (ry0, Gate(GateKind.CX, (0, 1)), sx, sx, Gate(GateKind.CX, (1, 0)), ry1), 2)
        thetas = sample_thetas(5, 6, 2)
        _, steps, _, planes = grad._plan(circuit, 0)
        assert planes == 2
        assert (sx, sx) in [run for runs in runs_of(steps) for run in runs]
        assert not any(grad._step_matrices(runs, thetas, 2)[0].imag.any() for runs in runs_of(steps))
        assert_equals_literal_shift_rule(circuit, thetas, 0)


@st.composite
def permutation_runs(draw):
    """n <= 6 bits and a run of one to eight CX/SWAP operations on them."""
    n = draw(st.integers(2, 6))
    bits = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(tuple)
    ops = draw(st.lists(st.tuples(st.sampled_from((GateKind.CX, GateKind.SWAP)), bits), min_size=1, max_size=8))
    return n, ops


class TestChunkedGathers:
    @settings(max_examples=200, deadline=None)
    @given(permutation_runs(), st.integers(0, 2**32))
    def test_chunked_gather_equals_the_element_gather(self, case, seed):
        # a gather moves chunks of 2**c amplitudes, c the lowest bit that any
        # operation reads or writes (a CX's control too), at most 2
        n, ops = case
        maps = grad._gather_maps(n, ops)
        c = min(2, *(bit for _, bits in ops for bit in bits))
        assert maps.shape == (2, 1 << (n - c)) and maps.dtype == np.int32
        # forward applies the ops in order, backward un-applies them; the
        # reference kernel applies them one at a time, CX and SWAP being
        # their own inverses
        states = np.random.default_rng(seed).standard_normal((3, 2, 1 << n))
        for direction, order in ((0, ops), (1, ops[::-1])):
            out = np.empty_like(states)
            grad._move(states, maps[direction], out)
            assert np.array_equal(out, applied(states.reshape(6, -1), n, order).reshape(states.shape))

    # the CX's control on bit 0 (a two-qubit cone) or bit 1, its target on
    # the bit above; the chunks must not span the control
    @pytest.mark.parametrize(
        "circuit, cost_qubit, chunks",
        [
            (Circuit(2, (Gate(GateKind.RY, (0,), Affine(0, 1, 0.3)), Gate(GateKind.RY, (1,), Affine(1, 1, 0.3)),
                         Gate(GateKind.CX, (0, 1))), 2), 1, 4),
            (Circuit(3, (Gate(GateKind.RX, (2,), Affine(0, 1, 0.3)), Gate(GateKind.RX, (1,), Affine(1, -1, 0.3)),
                         Gate(GateKind.CX, (1, 2))), 2), 2, 4),
        ],
        ids=["control-on-bit-0", "control-on-bit-1"],
    )
    def test_a_gather_whose_cx_control_is_low_moves_small_chunks(self, circuit, cost_qubit, chunks):
        steps = grad._plan(circuit, cost_qubit)[1]
        assert is_gather(steps[-1]) and steps[-1].shape[1] == chunks
        fast = assert_equals_literal_shift_rule(circuit, sample_thetas(4, 5, circuit.num_symbols), cost_qubit)
        assert np.abs(fast).max() > 0.1


def make_transpiled_fixture():
    """Physical circuit [RZ const pi, SX, RZ from-logical(0,+1,pi), SX]."""
    gates = (
        Gate(GateKind.RZ, (0,), Const(math.pi)),
        Gate(GateKind.SX, (0,)),
        Gate(GateKind.RZ, (0,), Affine(0, 1, math.pi)),
        Gate(GateKind.SX, (0,)),
    )
    physical = Circuit(1, gates, 1)
    logical = Circuit(1, (Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)),), 1)
    return TranspiledCircuit(
        physical=physical,
        initial_layout=(0,),
        final_layout=(0,),
        metrics_before=structural_metrics(logical),
        metrics_after=structural_metrics(physical),
        phys_qubits=(0,),
    )


class TestReparameterize:
    def test_all_angles_counts_every_rotation(self):
        t = make_transpiled_fixture()
        c = reparameterize(t, ReparamMode.ALL_ANGLES)
        assert c.num_symbols == 2
        assert [g.param for g in c.gates if g.param] == [Affine(0, 1, 0.0), Affine(1, 1, 0.0)]

    def test_symbol_derived_restores_logical_space(self):
        t = make_transpiled_fixture()
        c = reparameterize(t, ReparamMode.SYMBOL_DERIVED)
        assert c is t.physical
        assert c.num_symbols == 1
        params = [g.param for g in c.gates if g.param is not None]
        assert params == [Const(math.pi), Affine(0, 1, math.pi)]

    def test_no_rotation_circuit(self):
        gates = (Gate(GateKind.CX, (0, 1)),)
        physical = Circuit(2, gates, 0)
        t = TranspiledCircuit(
            physical=physical,
            initial_layout=(0, 1),
            final_layout=(0, 1),
            metrics_before=structural_metrics(physical),
            metrics_after=structural_metrics(physical),
            phys_qubits=(0, 1),
        )
        assert reparameterize(t, ReparamMode.ALL_ANGLES).num_symbols == 0
        assert reparameterize(t, ReparamMode.SYMBOL_DERIVED).num_symbols == 0

    def test_vanished_symbol_errors(self):
        # RZ(theta) RZ(-theta) merges to the identity: the compile fails
        # instead of handing back a circuit over fewer symbols
        gates = (Gate(GateKind.RZ, (0,), Affine(0, 1, 0.0)), Gate(GateKind.RZ, (0,), Affine(0, -1, 0.0)),
                 Gate(GateKind.RY, (1,), Affine(1, 1, 0.0)))
        with pytest.raises(ValueError, match="removed every occurrence"):
            transpile(Circuit(2, gates, 2), make_line(2))

    def test_free_all_angles_on_logical(self):
        c = build_real_amplitudes(2, 1)
        assert free_all_angles(c).num_symbols == c.num_symbols  # already one symbol per rotation


class TestSymbolDerivedNull:
    """Transpilation alone must not move gradients in symbol-derived mode."""

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_gradients_match_logical(self, builder):
        c = builder(4, 1)
        for backend in (make_line(4), make_heavy_hex(2, 3)):
            t = transpile(c, backend)
            phys = reparameterize(t, ReparamMode.SYMBOL_DERIVED)
            assert phys.num_symbols == c.num_symbols
            rng = np.random.default_rng(53)
            for theta in rng.uniform(0, 2 * math.pi, (5, c.num_symbols)):
                g_log = param_shift_gradient(c, theta, 0)
                g_phys = param_shift_gradient(phys, theta, t.cost_qubit)
                np.testing.assert_allclose(g_phys, g_log, atol=1e-9)

    def test_gradvar_null_at_same_seed(self):
        c = build_ttn(4, 2)
        t = transpile(c, make_line(4))
        phys = reparameterize(t, ReparamMode.SYMBOL_DERIVED)
        s_log = grad_variance(c, 100, 77, 0)
        s_phys = grad_variance(phys, 100, 77, t.cost_qubit)
        assert abs(delta_gradvar(s_phys, s_log)) < 1e-9


class TestDeltaGradVar:
    def test_trivials(self):
        a = GradStats((0.1,), (0.0,), 0.1, 10, 0)
        b = GradStats((0.3,), (0.0,), 0.3, 10, 0)
        assert delta_gradvar(a, a) == 0.0
        assert delta_gradvar(b, a) == pytest.approx(0.2)
        assert delta_gradvar(a, b) == pytest.approx(-0.2)
