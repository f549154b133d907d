"""Dense statevector simulation: the reference the gradient engine is
tested against.

Convention: qubit 0 is the least-significant bit of the amplitude index.
The kernels act on batches of states shaped (B, 2**n) with one matrix
or angle for the whole batch, and rows never mix; ``simulate`` runs the
batch of one. ``gate_matrix`` is the one definition of each single-qubit
gate's 2x2 matrix (per sample for a batch of angles). ``apply_kind`` is
the one gate kernel, one path per arity: CX and SWAP exchange two quarter
slices of the state, and every single-qubit gate mixes its qubit's halves
by ``gate_matrix``. The Z signs of an expectation are built per call and
never cached: a cache would keep a 2**n array per (n, qubit) it ever saw.

The gradient engine (``grad``) takes only definitions from here: the gate
matrices and generators, the qubit cap and the qubit rule. It meets none
of these kernels; it composes its own gathers and starts its own costate,
so ``simulate`` and ``expect_z`` check it with code it does not run.
"""

from __future__ import annotations

import numpy as np

from .circuit import TWO_QUBIT_KINDS, Circuit, Const, GateKind, as_index

MAX_QUBITS = 24

_SX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128) / 2
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_FIXED_1Q = {GateKind.SX: _SX, GateKind.H: _H, GateKind.X: _PAULI_X}
# RX, RY and RZ are exp(-i angle/2 P) for these Paulis P.
GENERATORS = {GateKind.RX: _PAULI_X, GateKind.RY: _PAULI_Y, GateKind.RZ: _PAULI_Z}
for _m in (*_FIXED_1Q.values(), _PAULI_Y, _PAULI_Z):
    _m.setflags(write=False)


def _z_signs(n: int, q: int) -> np.ndarray:
    """The eigenvalue of Z on qubit ``q`` at each amplitude index, as float64."""
    return 1.0 - 2.0 * ((np.arange(1 << n) >> q) & 1)


def gate_matrix(kind: GateKind, angle=None) -> np.ndarray:
    """The 2x2 matrix of a single-qubit gate, shaped (..., 2, 2).

    ``angle`` is a float or an array of per-sample angles for rotation
    kinds, ignored otherwise; the result has the angle's shape in front.
    The result of a fixed gate is shared and read-only.
    """
    fixed = _FIXED_1Q.get(kind)
    if fixed is not None:
        return fixed
    half = np.asarray(angle) / 2.0
    m = np.zeros((*half.shape, 2, 2), dtype=np.complex128)
    if kind is GateKind.RZ:
        m[..., 0, 0] = np.exp(-1j * half)
        m[..., 1, 1] = np.exp(1j * half)
        return m
    c, s = np.cos(half), np.sin(half)
    m[..., 0, 0] = m[..., 1, 1] = c
    if kind is GateKind.RX:
        m[..., 0, 1] = m[..., 1, 0] = -1j * s
    else:
        m[..., 0, 1] = -s
        m[..., 1, 0] = s
    return m


def apply_kind(states: np.ndarray, n: int, kind: GateKind, qubits: tuple[int, ...], angle=None) -> np.ndarray:
    """Apply one gate in place to a C-contiguous batch of states (B, 2**n)
    and return it.

    ``angle`` is a float for rotation kinds, ignored otherwise. One path
    per arity: CX and SWAP exchange two quarter slices of the state,
    indexed by the (hi, lo) bits of the higher and lower qubit; every
    single-qubit gate, RZ too, mixes its qubit's halves by ``gate_matrix``.
    """
    if kind in TWO_QUBIT_KINDS:
        hi, lo = max(qubits), min(qubits)
        view = states.reshape(states.shape[0], 1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
        if kind is GateKind.SWAP:
            (a, b), (c, d) = (0, 1), (1, 0)
        elif qubits[0] == hi:  # the control is the higher qubit
            (a, b), (c, d) = (1, 0), (1, 1)
        else:
            (a, b), (c, d) = (0, 1), (1, 1)
        x, y = view[:, :, a, :, b], view[:, :, c, :, d]
        x[...], y[...] = y, x.copy()  # one quarter-sized copy
        return states
    q = qubits[0]
    m = gate_matrix(kind, angle)
    view = states.reshape(states.shape[0], 1 << (n - 1 - q), 2, 1 << q)
    v0, v1 = view[:, :, 0, :], view[:, :, 1, :]
    s0 = v0.copy()
    v0 *= m[0, 0]
    v0 += m[0, 1] * v1
    v1 *= m[1, 1]
    v1 += m[1, 0] * s0
    return states


def apply_pauli(states: np.ndarray, n: int, pauli: str, q: int) -> np.ndarray:
    """Return Pauli Z applied to qubit ``q`` of a batch of states (input
    untouched). Z is the only observable; any other ``pauli`` raises."""
    if pauli != "Z":
        raise ValueError(f"unsupported pauli {pauli!r}; only 'Z' is applied")
    return states * _z_signs(n, q)


def simulate(circuit: Circuit) -> np.ndarray:
    """Evolve |0...0> through a concrete circuit and return the statevector."""
    if circuit.num_symbols:
        raise ValueError("circuit has unbound symbols; bind() it first")
    if circuit.num_qubits > MAX_QUBITS:
        raise ValueError(f"{circuit.num_qubits} qubits exceeds the {MAX_QUBITS}-qubit simulator cap")
    states = np.zeros((1, 1 << circuit.num_qubits), dtype=np.complex128)
    states[0, 0] = 1.0
    for g in circuit.gates:
        angle = g.param.angle if isinstance(g.param, Const) else None
        states = apply_kind(states, circuit.num_qubits, g.kind, g.qubits, angle)
    final = float(np.sum(np.abs(states[0]) ** 2))
    # written so that a NaN norm fails too
    if not abs(final - 1.0) <= 1e-12 * max(1, len(circuit.gates)):
        raise AssertionError(f"final norm {final} out of tolerance")
    return states[0]


def check_qubit(qubit, n: int, what: str = "qubit") -> int:
    """``qubit`` as a Python int (``as_index``) in range(n), or ``ValueError``."""
    qubit = as_index(qubit, what)
    if not 0 <= qubit < n:
        raise ValueError(f"{what} {qubit} out of range for {n} qubits")
    return qubit


def state_expect_z(state: np.ndarray, n: int, qubit: int) -> float:
    qubit = check_qubit(qubit, n)
    return float(np.abs(state) ** 2 @ _z_signs(n, qubit))


def expect_z(circuit: Circuit, qubit: int) -> float:
    """Expectation of Pauli Z on ``qubit`` after running the circuit on |0...0>."""
    qubit = check_qubit(qubit, circuit.num_qubits)  # so a bad qubit fails before the simulation
    return state_expect_z(simulate(circuit), circuit.num_qubits, qubit)
