"""Builders for the three ansatz families.

Each builder takes a qubit count ``n >= 2`` and a repetition count
``L >= 1`` and returns a circuit over the logical gate set {RY, RZ, CX}
where every rotation carries a fresh symbol (coeff +1, offset 0). The
builders place each rotation at the placeholder angle ``_FREE`` and leave
the numbering to ``free_all_angles``, so symbols count up in gate order.

Parameter counts:
    real_amplitudes  P = n(L+1)        entangler: nearest-neighbor chain
    efficient_su2    P = 2n(L+1)       entangler: all pairs i < j
    ttn              P = L(2(n-1)+1)   entangler: binary contraction tree
"""

from __future__ import annotations

from enum import Enum, unique

from .circuit import Circuit, Const, Gate, GateKind, as_index, free_all_angles


@unique
class AnsatzKind(Enum):
    EFFICIENT_SU2 = "efficient_su2"
    TTN = "ttn"
    REAL_AMPLITUDES = "real_amplitudes"


def _check_shape(n: int, reps: int) -> None:
    n, reps = as_index(n, "n"), as_index(reps, "reps")
    if n < 2 or reps < 1:
        raise ValueError(f"invalid ansatz shape: need n >= 2 and reps >= 1, got n={n} reps={reps}")


_FREE = Const(0.0)


def build_real_amplitudes(n: int, reps: int) -> Circuit:
    """RY layer followed by a CX chain per repetition, plus a final RY layer."""
    _check_shape(n, reps)
    gates: list[Gate] = []
    for _ in range(reps):
        gates.extend(Gate(GateKind.RY, (q,), _FREE) for q in range(n))
        gates.extend(Gate(GateKind.CX, (i, i + 1)) for i in range(n - 1))
    gates.extend(Gate(GateKind.RY, (q,), _FREE) for q in range(n))
    return free_all_angles(Circuit(n, tuple(gates), 0))


def build_efficient_su2(n: int, reps: int) -> Circuit:
    """RY+RZ layers followed by all-pairs CX per repetition, plus a final RY+RZ layer.

    Entangler pairs are emitted in lexicographic order (0,1), (0,2), ...
    """
    _check_shape(n, reps)
    gates: list[Gate] = []

    def rotation_layer() -> None:
        gates.extend(Gate(GateKind.RY, (q,), _FREE) for q in range(n))
        gates.extend(Gate(GateKind.RZ, (q,), _FREE) for q in range(n))

    for _ in range(reps):
        rotation_layer()
        gates.extend(Gate(GateKind.CX, (i, j)) for i in range(n) for j in range(i + 1, n))
    rotation_layer()
    return free_all_angles(Circuit(n, tuple(gates), 0))


def build_ttn(n: int, reps: int) -> Circuit:
    """Binary contraction tree repeated ``reps`` times.

    Each level pairs consecutive active qubits (a, b) left to right and
    emits RY(a), RY(b), CX(control=b, target=a); the lower index survives,
    an unpaired trailing qubit passes through. Levels repeat until only
    qubit 0 is active, then one final RY lands on qubit 0.
    """
    _check_shape(n, reps)
    gates: list[Gate] = []
    for _ in range(reps):
        active = list(range(n))
        while len(active) > 1:
            survivors = []
            i = 0
            while i + 1 < len(active):
                a, b = active[i], active[i + 1]
                gates.append(Gate(GateKind.RY, (a,), _FREE))
                gates.append(Gate(GateKind.RY, (b,), _FREE))
                gates.append(Gate(GateKind.CX, (b, a)))
                survivors.append(a)
                i += 2
            if i < len(active):
                survivors.append(active[i])
            active = survivors
        gates.append(Gate(GateKind.RY, (0,), _FREE))
    return free_all_angles(Circuit(n, tuple(gates), 0))


_BUILDERS = {
    AnsatzKind.EFFICIENT_SU2: build_efficient_su2,
    AnsatzKind.TTN: build_ttn,
    AnsatzKind.REAL_AMPLITUDES: build_real_amplitudes,
}


def build_ansatz(kind: AnsatzKind | str, n: int, reps: int) -> Circuit:
    if isinstance(kind, str):
        kind = AnsatzKind(kind)
    return _BUILDERS[kind](n, reps)
