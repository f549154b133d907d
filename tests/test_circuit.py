import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqclab.circuit import (
    Affine,
    Circuit,
    Const,
    Gate,
    GateKind,
    TWO_PI,
    bind,
    circuit_from_text,
    circuit_to_text,
    dag_depth,
    gate_counts,
    normalize_angle,
    parse_float,
    parse_int,
    structural_metrics,
)


def ry(q, sym=None, angle=0.0, coeff=1, offset=0.0):
    param = Const(angle) if sym is None else Affine(sym, coeff, offset)
    return Gate(GateKind.RY, (q,), param)


class TestNormalizeAngle:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.0, 0.0),
            (TWO_PI, 0.0),
            (-math.pi, math.pi),
            (5 * math.pi / 2, math.pi / 2),
            (-1e-20, 0.0),
        ],
    )
    def test_values(self, x, expected):
        assert normalize_angle(x) == pytest.approx(expected, abs=1e-15)

    def test_range(self):
        for k in range(-20, 20):
            r = normalize_angle(0.37 * k)
            assert 0.0 <= r < TWO_PI


class TestParamExpr:
    def test_const_normalizes(self):
        assert Const(TWO_PI + 1.0).angle == pytest.approx(1.0)

    def test_affine_normalizes_offset(self):
        assert Affine(0, 1, -math.pi).offset == pytest.approx(math.pi)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, angle):
        with pytest.raises(ValueError, match="finite"):
            Const(angle)
        with pytest.raises(ValueError, match="finite"):
            Affine(0, 1, angle)
        with pytest.raises(ValueError, match="finite"):
            bind(Circuit(1, (ry(0, sym=0),), 1), [angle])

    @pytest.mark.parametrize("coeff", [0, 2, -2])
    def test_affine_rejects_bad_coeff(self, coeff):
        with pytest.raises(ValueError, match="coeff"):
            Affine(0, coeff, 0.0)

    def test_affine_rejects_negative_symbol(self):
        with pytest.raises(ValueError, match="symbol"):
            Affine(-1, 1, 0.0)

    @pytest.mark.parametrize("symbol", [0.0, True, np.float64(1.0)], ids=["float", "bool", "np-float"])
    def test_affine_rejects_non_integer_symbol(self, symbol):
        with pytest.raises(ValueError, match="symbol id must be an integer"):
            Affine(symbol, 1, 0.0)

    @pytest.mark.parametrize("coeff", [True, 1.0, -1.0], ids=["bool", "float", "neg-float"])
    def test_affine_rejects_non_integer_coeff(self, coeff):
        with pytest.raises(ValueError, match="affine coeff must be an integer"):
            Affine(0, coeff, 0.0)

    def test_affine_numpy_integers_become_int(self):
        a = Affine(np.int64(2), np.int32(-1), 0.0)
        assert (a.symbol, a.coeff) == (2, -1)
        assert type(a.symbol) is int and type(a.coeff) is int


class TestGate:
    def test_rotation_requires_param(self):
        with pytest.raises(ValueError, match="requires a parameter"):
            Gate(GateKind.RX, (0,))

    def test_non_rotation_rejects_param(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            Gate(GateKind.H, (0,), Const(1.0))

    def test_arity_checked(self):
        with pytest.raises(ValueError, match="expects 2"):
            Gate(GateKind.CX, (0,))
        with pytest.raises(ValueError, match="expects 1"):
            Gate(GateKind.X, (0, 1))

    def test_two_qubit_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate(GateKind.CX, (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError, match=re.escape("negative qubit index in (-1,)")):
            Gate(GateKind.X, (-1,))

    @pytest.mark.parametrize("qubit", [1.7, 1.0, True, np.float64(1.0)], ids=["fraction", "float", "bool", "np-float"])
    def test_non_integer_qubit_rejected(self, qubit):
        with pytest.raises(ValueError, match="qubit index must be an integer"):
            Gate(GateKind.CX, (0, qubit))

    def test_numpy_integer_qubits_accepted(self):
        g = Gate(GateKind.CX, (np.int64(0), np.int32(1)))
        assert g.qubits == (0, 1)
        assert all(type(q) is int for q in g.qubits)


class TestCircuit:
    def test_qubit_range_checked(self):
        with pytest.raises(ValueError, match="exceeds"):
            Circuit(1, (Gate(GateKind.X, (1,)),), 0)

    def test_symbols_must_be_dense(self):
        with pytest.raises(ValueError, match="symbol ids"):
            Circuit(1, (ry(0, sym=1),), 2)

    def test_symbols_must_all_appear(self):
        with pytest.raises(ValueError, match="symbol ids"):
            Circuit(1, (ry(0, sym=0),), 2)

    @pytest.mark.parametrize("num_qubits", [2.0, True, np.float64(2.0)], ids=["float", "bool", "np-float"])
    def test_non_integer_qubit_count_rejected(self, num_qubits):
        with pytest.raises(ValueError, match="num_qubits must be an integer"):
            Circuit(num_qubits, (Gate(GateKind.X, (0,)),), 0)

    @pytest.mark.parametrize("num_symbols", [1.0, True], ids=["float", "bool"])
    def test_non_integer_symbol_count_rejected(self, num_symbols):
        with pytest.raises(ValueError, match="num_symbols must be an integer"):
            Circuit(1, (ry(0, sym=0),), num_symbols)

    def test_no_qubits_rejected(self):
        with pytest.raises(ValueError, match="num_qubits must be >= 1, got 0"):
            Circuit(0, (), 0)

    def test_negative_symbol_count_rejected(self):
        with pytest.raises(ValueError, match="num_symbols must be >= 0, got -1"):
            Circuit(1, (Gate(GateKind.RZ, (0,), Const(0.5)),), -1)

    def test_numpy_integer_counts_become_int(self):
        c = Circuit(np.int64(2), (ry(1, sym=0),), np.int32(1))
        assert type(c.num_qubits) is int and type(c.num_symbols) is int


class TestGateCounts:
    def test_empty(self):
        assert gate_counts(Circuit(2, (), 0)) == (0, 0)

    def test_swap_counts_as_one(self):
        c = Circuit(2, (Gate(GateKind.SWAP, (0, 1)), ry(0, angle=1.0)), 0)
        assert gate_counts(c) == (1, 1)


class TestDagDepth:
    def test_empty(self):
        assert dag_depth(Circuit(3, (), 0)) == 0

    def test_parallel_layer_then_cx(self):
        c = Circuit(2, (ry(0, sym=0), ry(1, sym=1), Gate(GateKind.CX, (0, 1))), 2)
        assert dag_depth(c) == 2

    def test_bounds(self):
        # depth <= gate count and depth >= max per-qubit gate count
        gates = (ry(0, angle=0.1), ry(0, angle=0.2), ry(1, angle=0.3), Gate(GateKind.CX, (0, 1)))
        c = Circuit(2, gates, 0)
        d = dag_depth(c)
        assert d <= len(gates)
        per_qubit = max(sum(1 for g in gates if q in g.qubits) for q in range(2))
        assert d >= per_qubit


class TestBind:
    def test_identity_coeff(self):
        c = Circuit(1, (ry(0, sym=0),), 1)
        bound = bind(c, [1.5])
        assert bound.gates[0].param == Const(1.5)
        assert bound.num_symbols == 0

    def test_negative_coeff_with_offset(self):
        c = Circuit(1, (ry(0, sym=0, coeff=-1, offset=math.pi),), 1)
        assert bind(c, [math.pi / 2]).gates[0].param.angle == pytest.approx(math.pi / 2)

    def test_normalization_wraps(self):
        c = Circuit(1, (ry(0, sym=0), ry(0, sym=1), ry(0, sym=2, offset=math.pi)), 3)
        bound = bind(c, [0.0, 0.0, 3 * math.pi / 2])
        assert bound.gates[2].param.angle == pytest.approx(math.pi / 2)

    def test_length_mismatch(self):
        c = Circuit(1, (ry(0, sym=0),), 1)
        with pytest.raises(ValueError, match="parameter count mismatch"):
            bind(c, [1.0, 2.0])

    def test_structure_preserved(self):
        gates = (ry(0, sym=0), Gate(GateKind.CX, (0, 1)), ry(1, sym=1, coeff=-1))
        c = Circuit(2, gates, 2)
        bound = bind(c, [0.4, 2.9])
        assert len(bound.gates) == len(c.gates)
        assert [g.qubits for g in bound.gates] == [g.qubits for g in c.gates]
        assert gate_counts(bound) == gate_counts(c)
        assert dag_depth(bound) == dag_depth(c)


class TestTextFormat:
    def sample(self):
        gates = (
            ry(0, sym=0),
            Gate(GateKind.RZ, (1,), Affine(1, -1, 0.75)),
            Gate(GateKind.RX, (2,), Const(2.5)),
            Gate(GateKind.H, (0,)),
            Gate(GateKind.SX, (1,)),
            Gate(GateKind.X, (2,)),
            Gate(GateKind.CX, (0, 2)),
            Gate(GateKind.SWAP, (1, 2)),
        )
        return Circuit(3, gates, 2)

    def test_round_trip(self):
        c = self.sample()
        assert circuit_from_text(circuit_to_text(c)) == c

    def test_header(self):
        assert circuit_to_text(self.sample()).splitlines()[0] == "qubits:3 symbols:2"

    def test_blank_gate_lines_skipped(self):
        lines = circuit_to_text(self.sample()).splitlines()
        text = "\n".join([*lines[:3], "", "  ", *lines[3:]]) + "\n"
        assert circuit_from_text(text) == self.sample()

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "line 1: empty circuit file"),
            ("qubits:x symbols:0\n", "header"),
            ("qubits:2 symbols:0 extra:5\n", "line 1: malformed header"),
            ("qubits:2 qubits:3 symbols:0\n", "line 1: malformed header"),
            ("qubits:2 symbols:0 symbols:0\n", "line 1: malformed header"),
            ("qubits:2\n", "line 1: malformed header"),
            ("qubits:2 symbols:0\nFOO 0\n", "line 2"),
            ("qubits:2 symbols:0\nRY 0 const:abc\n", "line 2"),
            ("qubits:2 symbols:1\nRY 0 affine:0:+2:0.0\n", "line 2"),
            ("qubits:2 symbols:0\nCX 0\n", "line 2"),
            ("qubits:1 symbols:0\nH\n", "line 2: malformed gate line"),
            ("qubits:1 symbols:1\nRY 0 affine:0:+1:0.0 0\n", "line 2: malformed gate line"),
            ("qubits:2 symbols:0\nH 0\nCX 0,a\n", "line 3: invalid literal"),
            ("qubits:2 symbols:0\nCX 0,\n", "line 2: invalid literal"),
            ("qubits:1 symbols:-1\nRZ 0 const:0.5\n", "num_symbols must be >= 0, got -1"),
            # integers are ASCII digits: int() alone reads each of these
            ("qubits:1_0 symbols:0\n", "line 1: malformed header"),
            ("qubits:+3 symbols:0\n", "line 1: malformed header"),
            ("qubits:3 symbols:0\nCX 0_1,2\n", "line 2: invalid literal"),
            ("qubits:3 symbols:0\nH \u0662\n", "line 2: invalid literal"),
            ("qubits:1 symbols:1\nRY 0 affine:+0:+1:0.0\n", "line 2: malformed parameter expression"),
            # floats are ASCII with no underscore: float() alone reads each of these
            ("qubits:1 symbols:0\nRZ 0 const:1_0\n", "line 2: malformed parameter expression"),
            ("qubits:1 symbols:0\nRX 0 const:\u0663\n", "line 2: malformed parameter expression"),
            ("qubits:1 symbols:1\nRY 0 affine:0:+1:0_5\n", "line 2: malformed parameter expression"),
        ],
    )
    def test_parse_errors(self, text, match):
        with pytest.raises(ValueError, match=match):
            circuit_from_text(text)


class TestNumberRules:
    # int() and float() alone read each of these
    @pytest.mark.parametrize("token", ["1_0", "\u0663", "+3", " 3", "\uff13"],
                             ids=["underscore", "arabic-indic", "plus", "space", "fullwidth"])
    def test_parse_int_takes_ascii_digits_only(self, token):
        int(token)
        with pytest.raises(ValueError, match="invalid literal for an integer"):
            parse_int(token)

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "1e1_0", "\u0663.5"],
                             ids=["underscore", "arabic-indic", "exponent-underscore", "arabic-indic-fraction"])
    def test_parse_float_takes_ascii_without_underscores(self, token):
        float(token)
        with pytest.raises(ValueError, match="invalid literal for a float"):
            parse_float(token)

    def test_ascii_numbers_read_as_python_reads_them(self):
        assert [parse_int(t) for t in ("0", "-12", "007")] == [0, -12, 7]
        assert [parse_float(t) for t in ("-1.5e-3", "2", ".5", "1E2")] == [-1.5e-3, 2.0, 0.5, 100.0]


@settings(max_examples=60, deadline=None)
@given(
    angles=st.lists(st.floats(-10, 10, allow_nan=False), min_size=0, max_size=8),
    coeffs=st.lists(st.sampled_from([1, -1]), min_size=8, max_size=8),
)
def test_text_round_trip_property(angles, coeffs):
    gates = []
    for i, a in enumerate(angles):
        gates.append(Gate(GateKind.RZ, (i % 3,), Affine(i, coeffs[i], a)))
    gates.append(Gate(GateKind.CX, (0, 1)))
    c = Circuit(3, tuple(gates), len(angles))
    assert circuit_from_text(circuit_to_text(c)) == c


def test_structural_metrics_consistency():
    c = self_c = Circuit(2, (ry(0, sym=0), Gate(GateKind.CX, (0, 1))), 1)
    m = structural_metrics(c)
    assert (m.g1q, m.g2q) == gate_counts(self_c)
    assert m.dag_depth == dag_depth(c)
    assert m.num_symbols == 1
    assert m.g1q + m.g2q == len(c.gates)
