"""The cases that the engine and compiler tests draw from, each defined once.

- ``circuits``: random circuits as (circuit, cost qubit, batch, seed) cases.
  ``run_heavy_circuits`` and ``block_heavy_circuits`` shape theirs into
  long single-qubit runs and two-run steps. All three draw their gates with
  ``add_gate`` and close the case with ``finish_case``.
- ``connected_backends``: random connected coupling graphs, and
  ``transpile_cases``: a random circuit on one, with a layout seed and a theta.
- ``stock_arms``: the 279 stock GradVar arms, built cell by cell by
  ``cell_arms``.
- ``assert_equals_literal_shift_rule``: the batched gradients against the
  literal parameter-shift rule, at the default block size and in one-row
  blocks.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from vqclab import grad
from vqclab.ansatz import build_ansatz
from vqclab.backend import BackendModel, make_line, resolve_backend
from vqclab.circuit import ROTATION_KINDS, TWO_QUBIT_KINDS, Affine, Circuit, Const, Gate, GateKind
from vqclab.grad import ReparamMode, param_shift_gradient, reparameterize
from vqclab.harness import default_sweep_config, enumerate_cells
from vqclab.transpiler import transpile

TWO_QUBIT = (GateKind.CX, GateKind.SWAP)
ONE_QUBIT = tuple(k for k in GateKind if k not in TWO_QUBIT_KINDS)
# every matrix of these is real, so a cone of them is swept in one plane
REAL_KINDS = (GateKind.RY, GateKind.X, GateKind.H, GateKind.CX, GateKind.SWAP)
NATIVE_KINDS = (GateKind.RZ, GateKind.SX, GateKind.X, GateKind.CX)

# Zero makes RX and RZ real; quarter turns make merged angles land on 0 and
# 2*pi; small angles sit on either side of the RZ(0) drop.
ANGLES = (
    st.just(0.0)
    | st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    | st.floats(-1.0, 1.0)
    | st.floats(-2 * math.pi, 2 * math.pi)
)


def pick(draw, options):
    """One of ``options``, drawn by index: ``st.sampled_from`` builds a new
    strategy at each call, where hypothesis reuses ``st.integers``. A lone
    option costs no draw."""
    return options[draw(st.integers(0, len(options) - 1))] if len(options) > 1 else options[0]


def add_gate(draw, gates, kinds, qubits, symbols):
    """Append to ``gates`` a gate of one of ``kinds`` on ``qubits``: a CX or
    SWAP on two of them, any other kind on one.

    A two-qubit gate, a fixed one, an ``Affine`` rotation and a ``Const``
    one come at even odds, of those that ``kinds`` holds. An ``Affine``
    (coeff +-1) takes one of ``symbols`` symbols, so a small pool reuses
    them; ``finish_case`` numbers the ones used 0..P-1.
    """
    rotations = [k for k in kinds if k in ROTATION_KINDS]
    groups = {
        "2q": [k for k in kinds if k in TWO_QUBIT_KINDS],
        "fixed": [k for k in kinds if k not in TWO_QUBIT_KINDS and k not in ROTATION_KINDS],
        "affine": rotations,
        "const": rotations,
    }
    choice = pick(draw, [c for c, group in groups.items() if group])
    kind = pick(draw, groups[choice])
    q = pick(draw, qubits)
    if choice == "2q":
        gates.append(Gate(kind, (q, pick(draw, [p for p in qubits if p != q]))))
        return
    param = None
    if choice == "affine":
        param = Affine(draw(st.integers(0, symbols - 1)), pick(draw, (1, -1)), draw(ANGLES))
    elif choice == "const":
        param = Const(draw(ANGLES))
    gates.append(Gate(kind, (q,), param))


def finish_case(draw, n, gates, kinds=tuple(GateKind)):
    """(circuit, cost qubit, batch, seed) from ``gates`` on ``n`` qubits, their
    symbols numbered 0..P-1 in order. If no gate takes a symbol, a rotation
    of one of ``kinds`` in symbol 0 is added on a drawn qubit."""
    used = sorted({g.param.symbol for g in gates if isinstance(g.param, Affine)})
    if not used:
        kind = pick(draw, [k for k in kinds if k in ROTATION_KINDS])
        gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), Affine(0, 1, 0.0)))
        used = [0]
    number = {s: i for i, s in enumerate(used)}
    gates = [replace(g, param=replace(g.param, symbol=number[g.param.symbol])) if isinstance(g.param, Affine) else g
             for g in gates]
    circuit = Circuit(n, tuple(gates), len(used))
    return circuit, draw(st.integers(0, n - 1)), draw(st.integers(2, 9)), draw(st.integers(0, 2**32))


@st.composite
def circuits(draw, max_qubits=6, kinds=tuple(GateKind), max_gates=30):
    """Cases on 1..``max_qubits`` qubits of up to ``max_gates`` gates of
    ``kinds``.

    Each circuit draws a palette: ``kinds``, or its real or its native
    kinds. Four gates in five are of the palette and the fifth of any of
    ``kinds``, so many cones are real but for a ``Const`` RX(0) or RZ(0).
    A circuit may also draw a split: no two-qubit gate then crosses between
    the qubits below it and those at or above it, so the cost qubit's light
    cone leaves out a whole group of qubits and the symbols used only there.
    """
    n = draw(st.integers(1, max_qubits))
    kinds = [k for k in kinds if n > 1 or k not in TWO_QUBIT_KINDS]
    real, native = ([k for k in kinds if k in some] for some in (REAL_KINDS, NATIVE_KINDS))
    palette = pick(draw, [p for p in (kinds, real, native) if p])
    symbols = draw(st.integers(1, 6))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        add_gate(draw, gates, palette if draw(st.integers(0, 4)) else kinds, range(n), symbols)
    if n > 1 and draw(st.booleans()):
        split = draw(st.integers(1, n - 1))
        gates = [g for g in gates if len({q < split for q in g.qubits}) == 1]
    return finish_case(draw, n, gates, kinds)


@st.composite
def run_heavy_circuits(draw):
    """One or two qubits in long single-qubit runs (up to 12 gates, up to
    three symbols recurring within and across runs, coeff -1 among them); on
    two qubits a CX or SWAP ends each run. On one qubit the circuit is a
    single run."""
    n = draw(st.integers(1, 2))
    symbols = draw(st.integers(1, 3))
    gates = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(0, n - 1))
        for _ in range(draw(st.integers(1, 12))):
            add_gate(draw, gates, ONE_QUBIT, (q,), symbols)
        if n == 2:
            add_gate(draw, gates, TWO_QUBIT, (q, 1 - q), symbols)
    return finish_case(draw, n, gates)


@st.composite
def block_heavy_circuits(draw):
    """Two to four qubits where every CX or SWAP sits after runs (up to four
    gates) on both its wires, so it pairs them into one 4x4 step; symbols
    repeat within and across runs, coeff -1 among them."""
    n = draw(st.integers(2, 4))
    symbols = draw(st.integers(1, 3))
    gates = []
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.integers(0, n - 1))
        pair = (a, pick(draw, [q for q in range(n) if q != a]))
        for q in pair:
            for _ in range(draw(st.integers(1, 4))):
                add_gate(draw, gates, ONE_QUBIT, (q,), symbols)
        add_gate(draw, gates, TWO_QUBIT, pair, symbols)
    return finish_case(draw, n, gates)


@st.composite
def connected_backends(draw, max_qubits):
    """A random spanning tree on 2..``max_qubits`` physical qubits, plus up
    to six more edges: always connected."""
    n = draw(st.integers(2, max_qubits))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    qubit = st.integers(0, n - 1)
    edges |= {(a, b) for a, b in draw(st.sets(st.tuples(qubit, qubit), max_size=6)) if a != b}
    return BackendModel(n, frozenset(edges))


@st.composite
def transpile_cases(draw):
    """(backend, circuit, layout seed, theta): a random circuit no wider than
    a random connected backend of up to 8 qubits."""
    backend = draw(connected_backends(8))
    circuit = draw(circuits(backend.num_physical, max_gates=25))[0]
    layout_seed = draw(st.none() | st.integers(0, 2**32))
    theta = draw(st.lists(ANGLES, min_size=circuit.num_symbols, max_size=circuit.num_symbols))
    return backend, circuit, layout_seed, theta


def cell_arms(family, n, reps, backend):
    """(mode, circuit, cost qubit) of one cell's GradVar arms: the logical
    circuit, then its compile onto ``backend`` reparameterized in each
    ``ReparamMode``."""
    logical = build_ansatz(family, n, reps)
    t = transpile(logical, backend)
    return [("logical", logical, 0), *((mode.value, reparameterize(t, mode), t.cost_qubit) for mode in ReparamMode)]


def stock_arms():
    """(name, circuit, cost qubit) of the 279 stock arms, in order: the 90
    cells of ``enumerate_cells(default_sweep_config())`` on heavy-hex:5,11,
    then efficient_su2, ttn and real_amplitudes at n=12 L=1 on line:12,
    each cell's ``cell_arms`` in turn. A name reads like ``ttn n=4 L=2
    all-angles``."""
    heavy_hex, line = resolve_backend("heavy-hex:5,11"), make_line(12)
    stock = [(kind, n, reps, heavy_hex) for _, kind, n, reps, _ in enumerate_cells(default_sweep_config())]
    stock += [(kind, 12, 1, line) for kind in ("efficient_su2", "ttn", "real_amplitudes")]
    for family, n, reps, backend in stock:
        for mode, circuit, cost_qubit in cell_arms(family, n, reps, backend):
            yield f"{family} n={n} L={reps} {mode}", circuit, cost_qubit


def gradients_in_blocks(block_bytes, circuit, thetas, cost_qubit):
    """``_gradients_batched`` with ``grad._BLOCK_BYTES`` set to ``block_bytes``."""
    original = grad._BLOCK_BYTES
    grad._BLOCK_BYTES = block_bytes
    try:
        return grad._gradients_batched(circuit, thetas, cost_qubit)
    finally:
        grad._BLOCK_BYTES = original


def assert_equals_literal_shift_rule(circuit, thetas, cost_qubit):
    """The batched gradients at the default block size and in one-row blocks
    equal the literal parameter-shift rule's within 1e-12; returns the
    default block size's."""
    literal = np.array([param_shift_gradient(circuit, th, cost_qubit) for th in thetas])
    fast = [gradients_in_blocks(block_bytes, circuit, thetas, cost_qubit) for block_bytes in (grad._BLOCK_BYTES, 1)]
    for got in fast:
        np.testing.assert_allclose(got, literal, rtol=0, atol=1e-12)
    return fast[0]
