"""Hardware-aware compilation pipeline.

The pipeline is deterministic end to end: trivial (or seeded) layout,
BFS shortest-path SWAP routing with a fixed tie-break, rewrite of every
non-native single-qubit gate through the RZ/SX template, and a peephole
cleanup run to fixpoint. Every rotation of the physical circuit keeps
its own angle: an ``Affine`` over a logical symbol, or a ``Const`` the
compiler synthesized. So the physical circuit binds from the logical
parameter vector as it is, and a logical symbol that compilation lost
fails the compile.

Physical circuits are emitted over the compact set of qubits the routed
gates actually touch, in logical order: compact qubit i is the device
qubit that holds logical qubit i after routing, and the ancillas follow
in ascending device order. So a compiled circuit reads its cost on
qubit 0, as the logical circuit does, and ``phys_qubits`` maps each
compact index back to the true device qubit id.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Sequence

from .backend import BackendModel
from .circuit import (
    Affine,
    Circuit,
    Const,
    Gate,
    GateKind,
    ParamExpr,
    StructuralMetrics,
    as_index,
    structural_metrics,
)
from .rng import SplitMix64

Layout = tuple[int, ...]


@dataclass(frozen=True)
class TranspiledCircuit:
    """A compiled circuit and what it came from.

    ``physical`` is over the logical symbols: each rotation angle is an
    ``Affine`` over a logical symbol or a ``Const`` the compiler
    synthesized.
    """

    physical: Circuit
    initial_layout: Layout
    final_layout: Layout
    metrics_before: StructuralMetrics
    metrics_after: StructuralMetrics
    phys_qubits: tuple[int, ...]

    # logical qubit 0 is compact qubit 0, as in the logical circuit
    cost_qubit = 0


def _validate_layout(circuit: Circuit, backend: BackendModel, layout: Sequence[int]) -> None:
    if len(layout) != circuit.num_qubits:
        raise ValueError(f"layout covers {len(layout)} qubits, circuit has {circuit.num_qubits}")
    if len(set(layout)) != len(layout):
        raise ValueError("layout is not injective")
    if any(not 0 <= p < backend.num_physical for p in layout):
        raise ValueError("layout maps outside the physical qubit range")


def _bfs_path(backend: BackendModel, src: int, dst: int) -> list[int]:
    """Shortest path src..dst; ties broken toward the smaller-index neighbor."""
    dist = backend.distances(src)
    path = [dst]
    while path[-1] != src:
        v = path[-1]
        prev = min(w for w in backend.neighbors(v) if dist[w] == dist[v] - 1)
        path.append(prev)
    path.reverse()
    return path


def route(circuit: Circuit, backend: BackendModel, layout: Sequence[int]) -> tuple[Circuit, Layout]:
    """Insert SWAPs so every two-qubit gate lands on a coupled pair.

    Gates are processed in list order. A two-qubit gate whose operands sit
    on non-adjacent physical qubits walks the first operand along the BFS
    shortest path until adjacent, updating the layout after each SWAP.
    Returns the routed circuit (true physical indices) and the final layout.
    """
    _validate_layout(circuit, backend, layout)
    l2p = list(layout)
    out: list[Gate] = []
    for g in circuit.gates:
        if len(g.qubits) == 1:
            out.append(replace(g, qubits=(l2p[g.qubits[0]],)))
            continue
        a, b = g.qubits
        p, q = l2p[a], l2p[b]
        if not backend.has_edge(p, q):
            path = _bfs_path(backend, p, q)
            for u, v in zip(path[:-2], path[1:-1]):
                out.append(Gate(GateKind.SWAP, (u, v)))
                for lg, pos in enumerate(l2p):
                    if pos == u:
                        l2p[lg] = v
                    elif pos == v:
                        l2p[lg] = u
            p = path[-2]
        out.append(replace(g, qubits=(p, q)))
    return Circuit(backend.num_physical, tuple(out), circuit.num_symbols), tuple(l2p)


# ---------------------------------------------------------------------------
# Native-basis decomposition

# Single-qubit template, leftmost gate applied first:
#   U(theta, phi, lam) ~ [RZ(lam), SX, RZ(theta+pi), SX, RZ(phi+pi)]
# with RY(t) = U(t, 0, 0), RX(t) = U(t, -pi/2, pi/2), H = U(pi/2, 0, pi).
# Verified against a 2x2 matrix product up to global phase in the tests.
_ZSX_ANGLES = {
    GateKind.RY: (0.0, 0.0),
    GateKind.RX: (-math.pi / 2, math.pi / 2),
    GateKind.H: (0.0, math.pi),
}


def _shift_expr(expr: ParamExpr, delta: float) -> ParamExpr:
    if isinstance(expr, Const):
        return Const(expr.angle + delta)
    return Affine(expr.symbol, expr.coeff, expr.offset + delta)


def _zsx_template(q: int, theta: ParamExpr, phi: float, lam: float) -> list[Gate]:
    seq = [
        Gate(GateKind.RZ, (q,), Const(lam)),
        Gate(GateKind.SX, (q,)),
        Gate(GateKind.RZ, (q,), _shift_expr(theta, math.pi)),
        Gate(GateKind.SX, (q,)),
        Gate(GateKind.RZ, (q,), Const(phi + math.pi)),
    ]
    return [g for g in seq if not (isinstance(g.param, Const) and g.param.angle == 0.0)]


def decompose_to_native(circuit: Circuit, backend: BackendModel) -> Circuit:
    """Rewrite every gate into the backend's native sets.

    SWAP becomes three CX gates; non-native single-qubit gates go through
    the RZ/SX template with zero-angle RZ factors dropped at emission.
    """
    out: list[Gate] = []
    for g in circuit.gates:
        if len(g.qubits) == 2:
            if g.kind in backend.native_2q:
                out.append(g)
            elif g.kind is GateKind.SWAP and GateKind.CX in backend.native_2q:
                a, b = g.qubits
                out.extend(
                    [Gate(GateKind.CX, (a, b)), Gate(GateKind.CX, (b, a)), Gate(GateKind.CX, (a, b))]
                )
            else:
                raise ValueError(f"unsupported gate kind {g.kind.value} for this backend")
        elif g.kind in backend.native_1q:
            out.append(g)
        elif g.kind in _ZSX_ANGLES:
            phi, lam = _ZSX_ANGLES[g.kind]
            theta = g.param if g.param is not None else Const(math.pi / 2)
            out.extend(_zsx_template(g.qubits[0], theta, phi, lam))
        else:
            raise ValueError(f"unsupported gate kind {g.kind.value} for this backend")
    return Circuit(circuit.num_qubits, tuple(out), circuit.num_symbols)


# ---------------------------------------------------------------------------
# Peephole optimization


def _merge_rz(first: ParamExpr, second: ParamExpr) -> ParamExpr | None:
    """Sum of two RZ angles when representable, else None."""
    if isinstance(second, Const):
        return _shift_expr(first, second.angle)
    if isinstance(first, Const):
        return _shift_expr(second, first.angle)
    if first.symbol == second.symbol and first.coeff == -second.coeff:
        return Const(first.offset + second.offset)
    return None


def _peephole_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    out: list[Gate | None] = []
    wire: defaultdict[int, list[int]] = defaultdict(list)
    changed = False

    def top(q: int) -> int | None:
        return wire[q][-1] if wire[q] else None

    def push(g: Gate) -> None:
        out.append(g)
        for q in g.qubits:
            wire[q].append(len(out) - 1)

    for g in gates:
        if g.kind is GateKind.RZ:
            q = g.qubits[0]
            i = top(q)
            if i is not None and out[i].kind is GateKind.RZ:
                merged = _merge_rz(out[i].param, g.param)
                if merged is not None:
                    changed = True
                    if isinstance(merged, Const) and merged.angle == 0.0:
                        out[i] = None
                        wire[q].pop()
                    else:
                        out[i] = replace(out[i], param=merged)
                    continue
            if isinstance(g.param, Const) and g.param.angle == 0.0:
                changed = True
                continue
            push(g)
        elif g.kind is GateKind.CX:
            c, t = g.qubits
            i = top(c)
            if i is not None and i == top(t) and out[i].kind is GateKind.CX and out[i].qubits == (c, t):
                out[i] = None
                wire[c].pop()
                wire[t].pop()
                changed = True
                continue
            push(g)
        elif g.kind is GateKind.SX:
            q = g.qubits[0]
            run = wire[q][-3:]
            if len(run) == 3 and all(out[i].kind is GateKind.SX for i in run):
                for i in run:
                    out[i] = None
                del wire[q][-3:]
                changed = True
                continue
            push(g)
        else:
            push(g)
    return [g for g in out if g is not None], changed


def optimize(circuit: Circuit) -> Circuit:
    """Run the peephole rules left to right until nothing changes.

    Rules: merge wire-adjacent RZ pairs when the sum stays representable,
    drop RZ(0), cancel wire-adjacent identical CX pairs, and collapse runs
    of four SX. Each rewrite strictly decreases the gate count, so the
    fixpoint loop terminates.
    """
    gates = list(circuit.gates)
    while True:
        gates, changed = _peephole_pass(gates)
        if not changed:
            break
    refs = {g.param.symbol for g in gates if isinstance(g.param, Affine)}
    missing = set(range(circuit.num_symbols)) - refs
    if missing:
        raise ValueError(
            f"optimization removed every occurrence of symbol(s) {sorted(missing)}; "
            "bind or re-index the circuit before optimizing"
        )
    return Circuit(circuit.num_qubits, tuple(gates), circuit.num_symbols)


# ---------------------------------------------------------------------------
# Transpile


def check_constraints(t: TranspiledCircuit, backend: BackendModel) -> None:
    """Raise unless every gate kind is native and every 2q pair is coupled."""
    for g in t.physical.gates:
        if len(g.qubits) == 2:
            if g.kind not in backend.native_2q:
                raise ValueError(f"non-native two-qubit gate {g.kind.value}")
            a, b = (t.phys_qubits[q] for q in g.qubits)
            if not backend.has_edge(a, b):
                raise ValueError(f"two-qubit gate on uncoupled pair ({a},{b})")
        elif g.kind not in backend.native_1q:
            raise ValueError(f"non-native single-qubit gate {g.kind.value}")


def transpile(circuit: Circuit, backend: BackendModel, *, layout_seed: int | None = None) -> TranspiledCircuit:
    """Layout, route, decompose and optimize a logical circuit for a backend.

    The layout policy lives here: ``layout_seed=None`` places logical qubit
    i on physical qubit i, and an integer seed places the logical qubits on
    the first physical qubits of a SplitMix64 shuffle of all of them, a
    deterministic random injective layout.
    """
    if circuit.num_qubits > backend.num_physical:
        raise ValueError(
            f"circuit does not fit backend: {circuit.num_qubits} logical qubits > "
            f"{backend.num_physical} physical"
        )
    perm = list(range(backend.num_physical))
    if layout_seed is not None:
        SplitMix64(as_index(layout_seed, "layout_seed")).shuffle(perm)
    layout = tuple(perm[: circuit.num_qubits])
    routed, final_layout = route(circuit, backend, layout)
    lowered = optimize(decompose_to_native(routed, backend))

    touched = {q for g in lowered.gates for q in g.qubits} | set(layout)
    active = [*final_layout, *sorted(touched - set(final_layout))]
    compact = {p: i for i, p in enumerate(active)}
    gates = tuple(replace(g, qubits=tuple(compact[q] for q in g.qubits)) for g in lowered.gates)
    physical = Circuit(len(active), gates, lowered.num_symbols)

    t = TranspiledCircuit(
        physical=physical,
        initial_layout=layout,
        final_layout=final_layout,
        metrics_before=structural_metrics(circuit),
        metrics_after=structural_metrics(physical),
        phys_qubits=tuple(active),
    )
    check_constraints(t, backend)
    return t


@dataclass(frozen=True)
class OverheadReport:
    """Structural growth of the physical circuit over the logical one.

    Two depth deltas are reported: ``delta_depth_dag`` compares DAG depths
    on both sides, ``delta_depth_paper`` measures physical DAG depth
    against the repetition count (logical depth as the number of times
    the ansatz block repeats).
    """

    delta_g1q: int
    delta_g2q: int
    delta_depth_dag: int
    delta_depth_paper: int


def overhead(t: TranspiledCircuit, reps: int) -> OverheadReport:
    before, after = t.metrics_before, t.metrics_after
    return OverheadReport(
        delta_g1q=after.g1q - before.g1q,
        delta_g2q=after.g2q - before.g2q,
        delta_depth_dag=after.dag_depth - before.dag_depth,
        delta_depth_paper=after.dag_depth - reps,
    )
