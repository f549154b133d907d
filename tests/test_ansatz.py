import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqclab.ansatz import (
    AnsatzKind,
    build_ansatz,
    build_efficient_su2,
    build_real_amplitudes,
    build_ttn,
)
from vqclab.circuit import Affine, GateKind, gate_counts


def gate_sig(circuit):
    return [(g.kind.value, g.qubits) for g in circuit.gates]


class TestRealAmplitudes:
    def test_n2_l1_exact(self):
        c = build_real_amplitudes(2, 1)
        assert gate_sig(c) == [
            ("RY", (0,)),
            ("RY", (1,)),
            ("CX", (0, 1)),
            ("RY", (0,)),
            ("RY", (1,)),
        ]
        assert c.num_symbols == 4
        assert [g.param.symbol for g in c.gates if g.param] == [0, 1, 2, 3]

    @pytest.mark.parametrize("n,reps,p,g2q", [(4, 1, 8, 3), (3, 2, 9, 4), (2, 1, 4, 1)])
    def test_counts(self, n, reps, p, g2q):
        c = build_real_amplitudes(n, reps)
        assert c.num_symbols == p
        assert gate_counts(c)[1] == g2q


class TestEfficientSU2:
    def test_n3_l1(self):
        c = build_efficient_su2(3, 1)
        assert c.num_symbols == 12
        cx = [g.qubits for g in c.gates if g.kind is GateKind.CX]
        assert cx == [(0, 1), (0, 2), (1, 2)]
        assert gate_counts(c) == (12, 3)

    @pytest.mark.parametrize("n,reps,p,g2q", [(2, 1, 8, 1), (4, 2, 24, 12)])
    def test_counts(self, n, reps, p, g2q):
        c = build_efficient_su2(n, reps)
        assert c.num_symbols == p
        assert gate_counts(c)[1] == g2q

    def test_layer_structure(self):
        # per repetition: RY on all, RZ on all, then the entangler block
        c = build_efficient_su2(2, 1)
        kinds = [g.kind.value for g in c.gates]
        assert kinds == ["RY", "RY", "RZ", "RZ", "CX", "RY", "RY", "RZ", "RZ"]


class TestTTN:
    def test_n4_l1_exact(self):
        c = build_ttn(4, 1)
        assert gate_sig(c) == [
            ("RY", (0,)),
            ("RY", (1,)),
            ("CX", (1, 0)),
            ("RY", (2,)),
            ("RY", (3,)),
            ("CX", (3, 2)),
            ("RY", (0,)),
            ("RY", (2,)),
            ("CX", (2, 0)),
            ("RY", (0,)),
        ]
        assert c.num_symbols == 7
        assert gate_counts(c)[1] == 3

    def test_n3_l1_pass_through(self):
        c = build_ttn(3, 1)
        assert c.num_symbols == 5
        cx = [g.qubits for g in c.gates if g.kind is GateKind.CX]
        assert cx == [(1, 0), (2, 0)]

    @pytest.mark.parametrize("n,reps,p", [(2, 1, 3), (4, 1, 7), (8, 1, 15), (4, 3, 21)])
    def test_param_count(self, n, reps, p):
        assert build_ttn(n, reps).num_symbols == p

    def test_root_is_qubit_zero(self):
        for n in range(2, 10):
            c = build_ttn(n, 1)
            last = c.gates[-1]
            assert last.kind is GateKind.RY and last.qubits == (0,)


@pytest.mark.parametrize("builder", [build_real_amplitudes, build_efficient_su2, build_ttn])
@pytest.mark.parametrize("n,reps", [(1, 1), (2, 0), (0, 3)])
def test_invalid_shape(builder, n, reps):
    with pytest.raises(ValueError, match="invalid ansatz shape"):
        builder(n, reps)


@pytest.mark.parametrize("builder", [build_real_amplitudes, build_efficient_su2, build_ttn])
@pytest.mark.parametrize("n,reps,name", [(2.0, 1, "n"), (2, 1.0, "reps"), (True, 1, "n")])
def test_shape_must_be_integers(builder, n, reps, name):
    # the library's one integer rule, as_index: no float, no bool
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {n if name == 'n' else reps}"):
        builder(n, reps)


def test_dispatcher():
    assert build_ansatz("ttn", 2, 1) == build_ttn(2, 1)
    assert build_ansatz("ttn", np.int64(4), np.int32(2)) == build_ttn(4, 2)
    assert build_ansatz(AnsatzKind.EFFICIENT_SU2, 2, 1) == build_efficient_su2(2, 1)


_P_FORMULA = {
    build_real_amplitudes: lambda n, l: n * (l + 1),
    build_efficient_su2: lambda n, l: 2 * n * (l + 1),
    build_ttn: lambda n, l: l * (2 * (n - 1) + 1),
}

_G2Q_FORMULA = {
    build_real_amplitudes: lambda n, l: (n - 1) * l,
    build_efficient_su2: lambda n, l: l * n * (n - 1) // 2,
    build_ttn: lambda n, l: l * (n - 1),
}


@settings(max_examples=80, deadline=None)
@given(
    builder=st.sampled_from([build_real_amplitudes, build_efficient_su2, build_ttn]),
    n=st.integers(2, 12),
    reps=st.integers(1, 10),
)
def test_builder_properties(builder, n, reps):
    c = builder(n, reps)
    assert c.num_qubits == n
    assert c.num_symbols == _P_FORMULA[builder](n, reps)
    assert gate_counts(c)[1] == _G2Q_FORMULA[builder](n, reps)
    kinds = {g.kind for g in c.gates}
    assert kinds <= {GateKind.RY, GateKind.RZ, GateKind.CX}
    # every symbol appears in exactly one gate, coeff +1, offset 0
    symbols = [g.param.symbol for g in c.gates if isinstance(g.param, Affine)]
    assert sorted(symbols) == list(range(c.num_symbols))
    assert all(g.param.coeff == 1 and g.param.offset == 0.0 for g in c.gates if g.param)
