"""The shared strategies of ``tests/cases.py`` draw what each generator they
replaced drew: for each feature, ``hypothesis.find`` finds an example."""

import math
from random import Random

import pytest
from hypothesis import Phase, find, settings

from vqclab import grad
from vqclab.circuit import TWO_QUBIT_KINDS, Affine, Const, GateKind

from cases import NATIVE_KINDS, REAL_KINDS, circuits, transpile_cases


def symbols(gates):
    return {g.param.symbol for g in gates if isinstance(g.param, Affine)}


def split_cone(case):
    # a symbol used only on qubits outside the cost qubit's light cone, in a
    # group of them that a two-qubit gate links
    circuit, cost_qubit, _, _ = case
    live = set(grad._light_cone(circuit, cost_qubit)[1])
    inside = [g for g in circuit.gates if not live.isdisjoint(g.qubits)]
    outside = [g for g in circuit.gates if live.isdisjoint(g.qubits)]
    return any(g.kind in TWO_QUBIT_KINDS for g in outside) and bool(symbols(outside) - symbols(inside))


def real_cone_of_four_symbols(case):
    circuit, cost_qubit, _, _ = case
    return grad._plan(circuit, cost_qubit)[3] == 1 and len(symbols(grad._light_cone(circuit, cost_qubit)[0])) >= 4


def zero_rotation_in_a_real_cone(case):
    circuit, cost_qubit, _, _ = case
    cone = grad._light_cone(circuit, cost_qubit)[0]
    zero = [g for g in cone if g.kind in (GateKind.RX, GateKind.RZ) and g.param == Const(0.0)]
    return bool(zero) and grad._plan(circuit, cost_qubit)[3] == 1


def native_with_a_quarter_turn(case):
    gates = case[0].gates
    quarter_turns = (math.pi / 2, math.pi, 3 * math.pi / 2)
    angles = [g.param.angle if isinstance(g.param, Const) else g.param.offset for g in gates if g.kind is GateKind.RZ]
    return {g.kind for g in gates} <= set(NATIVE_KINDS) and any(a in quarter_turns for a in angles)


def symbol_reused_with_coeff_minus_one(case):
    uses = [g.param for g in case[0].gates if isinstance(g.param, Affine)]
    return any(p.coeff == -1 and sum(q.symbol == p.symbol for q in uses) > 1 for p in uses)


def each_symbol_once_as_wide_as_the_backend(case):
    backend, circuit, _, _ = case
    uses = [g.param.symbol for g in circuit.gates if isinstance(g.param, Affine)]
    return circuit.num_qubits == backend.num_physical and len(uses) == len(set(uses)) > 1


# feature -> (the strategy that replaced the generator that drew it, a test for it)
FEATURES = {
    "split-cone": (circuits(5, max_gates=20), split_cone),
    "real-cone-of-four-symbols": (circuits(4, REAL_KINDS, 24), real_cone_of_four_symbols),
    "zero-rotation-in-a-real-cone": (circuits(4, max_gates=16), zero_rotation_in_a_real_cone),
    "native-with-a-quarter-turn": (circuits(3, NATIVE_KINDS, 24), native_with_a_quarter_turn),
    "symbol-reused-with-coeff-minus-one": (circuits(), symbol_reused_with_coeff_minus_one),
    "six-qubits": (circuits(), lambda case: case[0].num_qubits == 6),
    "each-symbol-once-as-wide-as-the-backend": (transpile_cases(), each_symbol_once_as_wide_as_the_backend),
}


@pytest.mark.parametrize("feature", FEATURES)
def test_the_shared_strategies_draw(feature):
    strategy, condition = FEATURES[feature]
    # the first example found, not shrunk
    once = settings(database=None, max_examples=2000, phases=[Phase.generate])
    find(strategy, condition, settings=once, random=Random(0))
