import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from vqclab import sim
from vqclab.ansatz import build_efficient_su2, build_real_amplitudes, build_ttn
from vqclab.circuit import Circuit, Const, Gate, GateKind, bind
from vqclab.sim import MAX_QUBITS, apply_kind, apply_pauli, expect_z, simulate, state_expect_z


def concrete(num_qubits, *gates):
    return Circuit(num_qubits, tuple(gates), 0)


def g(kind, qubits, angle=None):
    return Gate(GateKind(kind), qubits, None if angle is None else Const(angle))


class TestSimulate:
    def test_empty_two_qubits(self):
        np.testing.assert_allclose(simulate(concrete(2)), [1, 0, 0, 0])

    def test_x(self):
        np.testing.assert_allclose(simulate(concrete(1, g("X", (0,)))), [0, 1])

    def test_sx_squared_is_x(self):
        state = simulate(concrete(1, g("SX", (0,)), g("SX", (0,))))
        assert abs(state[1]) == pytest.approx(1.0, abs=1e-12)

    def test_h(self):
        state = simulate(concrete(1, g("H", (0,))))
        np.testing.assert_allclose(state, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_cx_flips_on_control(self):
        state = simulate(concrete(2, g("X", (0,)), g("CX", (0, 1))))
        np.testing.assert_allclose(np.abs(state), [0, 0, 0, 1], atol=1e-12)

    def test_qubit0_is_least_significant(self):
        state = simulate(concrete(2, g("X", (0,))))
        assert abs(state[1]) == pytest.approx(1.0)  # |01> in (q1 q0) bit order

    def test_rejects_unbound(self):
        from vqclab.circuit import Affine

        c = Circuit(1, (Gate(GateKind.RY, (0,), Affine(0, 1, 0.0)),), 1)
        with pytest.raises(ValueError, match="unbound"):
            simulate(c)

    def test_qubit_cap(self):
        with pytest.raises(ValueError, match="cap"):
            simulate(concrete(MAX_QUBITS + 1))


class TestExpectZ:
    def test_ry_pi(self):
        assert expect_z(concrete(1, g("RY", (0,), math.pi)), 0) == pytest.approx(-1.0, abs=1e-12)

    def test_ry_half_pi_with_cx(self):
        c = concrete(2, g("RY", (0,), math.pi / 2), g("CX", (0, 1)))
        assert expect_z(c, 0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("builder", [build_real_amplitudes, build_efficient_su2, build_ttn])
    def test_zero_parameters_give_plus_one(self, builder):
        c = builder(3, 1)
        assert expect_z(bind(c, [0.0] * c.num_symbols), 0) == pytest.approx(1.0, abs=1e-12)

    def test_cos_theta_fixture(self):
        rng = np.random.default_rng(123)
        for theta in rng.uniform(0, 2 * math.pi, 100):
            got = expect_z(concrete(1, g("RY", (0,), theta)), 0)
            assert got == pytest.approx(math.cos(theta), abs=1e-12)

    def test_range_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gates = [g("RY", (q,), rng.uniform(0, 2 * math.pi)) for q in range(3)]
            gates += [g("CX", (0, 1)), g("CX", (1, 2))]
            val = expect_z(concrete(3, *gates), int(rng.integers(3)))
            assert -1.0 <= val <= 1.0

    def test_index_errors(self, monkeypatch):
        with pytest.raises(ValueError, match="out of range"):
            expect_z(concrete(2), 2)
        with pytest.raises(ValueError, match="out of range"):
            state_expect_z(simulate(concrete(2)), 2, -1)
        # True would silently read qubit 1; a float is no qubit either
        for qubit in (True, 1.0):
            with pytest.raises(ValueError, match="qubit must be an integer"):
                expect_z(concrete(2), qubit)
            with pytest.raises(ValueError, match="qubit must be an integer"):
                state_expect_z(simulate(concrete(2)), 2, qubit)
        assert expect_z(concrete(2, g("X", (1,))), np.int64(1)) == -1.0
        # the qubit is checked before the circuit is simulated
        monkeypatch.setattr(sim, "simulate", lambda circuit: pytest.fail("simulated"))
        for qubit in (2, True):
            with pytest.raises(ValueError, match="qubit"):
                expect_z(concrete(2), qubit)

    def test_z_signs_are_not_kept(self):
        # the Z signs of each qubit are built per call, not cached: four
        # qubits of an 18-qubit state would keep 8 MiB of them
        n = 18
        state = np.zeros(1 << n, dtype=np.complex128)
        state[0] = 1.0
        tracemalloc.start()
        try:
            values = [state_expect_z(state, n, q) for q in range(4)]
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert values == [1.0] * 4
        assert retained < 64 << 10


def random_states(rng, batch, n):
    return rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))


class TestApplyKind:
    def test_x_flips_its_bit(self):
        rng = np.random.default_rng(6)
        for n in range(1, 6):
            for q in range(n):
                states = random_states(rng, 3, n)
                expected = states[:, np.arange(1 << n) ^ (1 << q)]
                out = apply_kind(states, n, GateKind.X, (q,))
                assert out is states
                assert np.array_equal(out, expected)

    def test_memory_retained_is_bounded_by_the_state(self):
        # 60 distinct CX gates on 14 qubits keep no per-gate index map
        n = 14
        pairs = list(permutations(range(n), 2))
        picks = np.random.default_rng(7).choice(len(pairs), size=60, replace=False)
        circuit = concrete(n, *[g("H", (q,)) for q in range(n)], *[g("CX", pairs[i]) for i in picks])
        tracemalloc.start()
        try:
            state = simulate(circuit)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained - state.nbytes < state.nbytes


class TestApplyPauli:
    def test_z_flips_the_sign_of_its_bit(self):
        states = np.arange(1, 9, dtype=np.complex128).reshape(2, 4)
        np.testing.assert_array_equal(apply_pauli(states, 2, "Z", 1), states * [1, 1, -1, -1])

    @pytest.mark.parametrize("pauli", ["X", "Y", "I", "z"])
    def test_other_paulis_raise(self, pauli):
        with pytest.raises(ValueError, match="only 'Z'"):
            apply_pauli(np.ones((1, 2), dtype=np.complex128), 1, pauli, 0)


class TestSwapPermutation:
    def test_swap_moves_expectation(self):
        rng = np.random.default_rng(11)
        prep = [g("RY", (q,), rng.uniform(0, 2 * math.pi)) for q in range(3)]
        prep.append(g("CX", (0, 1)))
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            with_swap = concrete(3, *prep, g("SWAP", (a, b)))
            without = concrete(3, *prep)
            assert expect_z(with_swap, a) == pytest.approx(expect_z(without, b), abs=1e-12)
            assert expect_z(with_swap, b) == pytest.approx(expect_z(without, a), abs=1e-12)


def test_nan_state_fails_the_norm_check(monkeypatch):
    def nan_matrix(kind, angle=None):
        return np.full((2, 2), np.nan, dtype=np.complex128)

    monkeypatch.setattr(sim, "gate_matrix", nan_matrix)
    with pytest.raises(AssertionError, match="norm"):
        simulate(concrete(1, g("H", (0,))))


def test_norm_preserved_through_long_circuit():
    rng = np.random.default_rng(3)
    gates = []
    for _ in range(1000):
        kind = rng.choice(["RY", "RZ", "RX", "SX", "H", "CX"])
        if kind == "CX":
            a, b = rng.choice(4, size=2, replace=False)
            gates.append(g("CX", (int(a), int(b))))
        elif kind in ("SX", "H"):
            gates.append(g(kind, (int(rng.integers(4)),)))
        else:
            gates.append(g(kind, (int(rng.integers(4)),), rng.uniform(0, 2 * math.pi)))
    state = simulate(concrete(4, *gates))
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-9
