"""Parameter-shift gradients and gradient-variance statistics.

The trainability proxy is GradVar: draw parameter vectors uniformly from
[0, 2*pi), evaluate the full gradient of <Z_cost> at each draw, and
average the per-parameter sample variances. Sample i of a run draws its
angles from an independent splitmix64 stream seeded ``seed + i*GOLDEN``,
so parallel and serial evaluation orders agree bit for bit.

``param_shift_gradient`` evaluates the shift rule literally: the bound
circuit is simulated with the angle of each symbol occurrence shifted by
+-pi/2 and the expectation values are differenced. ``grad_variance``
computes the same values through a forward/backward (adjoint) sweep over
cached statevectors (Jones & Gacon, arXiv:2009.02823), which is
algebraically identical for Pauli rotations and is regression-tested
against the literal rule.

The sweep runs on the cost qubit's backward light cone only (Cerezo et
al., arXiv:2001.00550): a selection of the circuit's own gates, those
that can reach Z_cost, and the qubits they touch. Every other gate
cancels out of <Z_cost>, so a parameter that occurs only outside the
cone reports a gradient of exactly 0. So do the RZ gates that end the
cost wire, which commute with Z_cost; they are dropped from the cone too.

The sweep is one float64 engine. Its state has one real plane if every
gate in the cone is real (an RY at any angle, X, H, CX, SWAP, or a
``Const`` rotation with a real matrix, such as RZ(0)), as in logical ttn
and real_amplitudes; otherwise two, the real and then the imaginary
parts of the amplitudes, (rows, 2, 2**n). The rule reads gates, not
products: a run such as SX.SX, whose product X is real, takes two planes.
The sweep runs the samples in row blocks of under twice ``_BLOCK_BYTES``
of two-plane cone state each (one plane takes half), so a block's
buffers stay in a per-core L2 cache.
It has two kinds of step: gathers, and matrix steps of one or two runs.
Each maximal run of single-qubit gates on one wire (held back until a
two-qubit gate touches the wire, or the circuit ends) is fused into its
per-sample 2x2 product. A flushed run takes a second held run into its
step if one is complete (no single-qubit gate follows it on its wire, so
no run is split): the one whose next two-qubit gate comes first, which
is the run on the other wire of the flushing CX or SWAP whenever one is
held. Such a step's 4x4 is U_hi kron U_lo, a Kronecker product, one
rounding per entry. A run with no partner is a step alone. Routing puts
its SWAPs beside one held wire at a time, so pairs halve the lone steps
of compiled circuits, and the gathers in front of them.
The state holds only the register: the cone's qubits that have left
|0>, on bits 0..a-1 in the order they joined, every other qubit being
exactly |0> (as Haner & Steiger, arXiv:1704.01127, keep only the live
qubits on local bits). It starts as one amplitude and grows to at most
the cone's 2**n. A step acts on the top bit of the register's amplitude
index, or the top two, so each is one batched dgemm by a real block of
its U, dim = 2 or 4: Re U on one plane, [[Re U, -Im U], [Im U, Re U]] on
two, with the state viewed as (rows, planes * dim, 2**a / dim). A run
whose qubit is outside the register puts it on a new top bit: the
block then reads only the |0> columns of U, the first dim >> joins of
each plane, and the state grows 2**joins-fold. A CX whose control is
outside the register is the identity and is dropped; one onto an outside
target first joins the target by an identity step; a SWAP with one side
outside moves the other side's bit over to it, a relabel. If the cost
qubit never joins, <Z_cost> is 1 and every gradient is exactly 0.
The register's qubits get to the top bits inside the gathers the sweep
does anyway.
The plan's qubit -> bit layout of the register is the sweep's one qubit
map: each other CX and SWAP joins a gather on its current bits, as do
the SWAPs that bring a step's qubits to the top bits. A gather is one
int32 array of both its index maps over chunks of 2**c amplitudes, c the
lowest bit any of its operations reads or writes, at most 2: np.take
moves 32-byte chunks fastest; the maps are composed here, not in the
reference simulator.
The backward pass stacks [psi; lambda] in one buffer, lambda starting in
place as psi negated where the cost qubit's bit is 1, and forms
a step's real product Lambda Psi^T, one dgemm, whose diagonal blocks sum
to Re G and whose upper-right minus lower-left block is Im G, G[r, a, b]
being the transition matrix, the sum over the other qubits of
conj(lambda_a) psi_b. Each wire's 2x2 G is read off the step's with no
permutation: a lone run's is the whole G, and a two-run step's 4x4 G is
summed over the other wire's bit. Occurrence k of a run contributes
coeff * Im sum_ab (W P_k W^dagger)_ab G_ab, W being the product of the
run's gates after k. The transpose of the step's block, which is U^dagger's,
then un-applies the step from psi and lambda in one dgemm. For a step
that joined qubits it drops their |1> rows, so the register shrinks back:
psi is exactly 0 there, so the half of lambda it drops never contributes.
The cone, steps and planes are planned from the gates alone; each step's
complex U (its real part on one plane) and read-offs are then built once
per call for the whole batch, and a row block builds the real blocks of
its rows when it uses them. A call allocates two flat float64 state
buffers, each 2 x (largest block's rows) x planes x 2**n, sized by the
cone. A row block views the front of both as (2, rows, planes, 2**a) for
the register at hand, and every gather and matmul writes into the one it
did not read, so the sweep allocates no state.
Fusion and BLAS round differently from a gate-by-gate sweep (within
~1e-14 relative on GradVar); rows never mix and gathers are exact, so
the results are the same bits at any block size, down to one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum, unique
from typing import Sequence

import numpy as np

from .circuit import TWO_QUBIT_KINDS, Affine, Circuit, Const, Gate, GateKind, as_index, bind, free_all_angles
from .rng import GOLDEN, angles_from_u64, mix64_array
from .sim import GENERATORS, MAX_QUBITS, check_qubit, expect_z, gate_matrix
from .transpiler import TranspiledCircuit

# Least bytes of complex state per row block of the adjoint sweep (a
# smaller batch is one block). A block holds under twice this, so each of
# the two stacked [state; costate] buffers stays within a 2 MiB per-core
# L2. On a 2-vCPU Xeon with 2 MiB L2 per core, the six n = 12, B = 200
# GradVar calls of perfbench's gradvar_n12 (step matrices built once per
# call), best of three in each of eight rounds that interleave the sizes,
# took a median 0.73 s (range 0.62-0.85 s) with 512 KiB blocks, 0.74 s
# (0.56-0.85 s) with 256 KiB, 0.69 s (0.61-0.83 s) with 1 MiB and 0.84 s
# (0.73-0.94 s) with 2 MiB: no size wins beyond the shared host's noise,
# and larger blocks hold larger buffers. Before fusion, 0.5-1 MiB blocks
# were best by ~10 % and unblocked sweeps were ~50 % slower.
_BLOCK_BYTES = 1 << 19

# Most low bits a gather moves together: np.take copies chunks of 2**2
# float64 amplitudes, 32 bytes, fastest. On a 2-vCPU Xeon a gather of a
# 32-row, two-plane block at n = 10 took 125 us amplitude by amplitude, 68
# us in 16-byte chunks, 39 us in 32-byte and 54 us in 64-byte chunks (a
# plain copy took 21 us).
_CHUNK_BITS = 2


@unique
class ReparamMode(Enum):
    ALL_ANGLES = "all-angles"
    SYMBOL_DERIVED = "symbol-derived"


@dataclass(frozen=True)
class GradStats:
    """Gradient statistics over uniformly sampled parameter vectors.

    ``grad_var`` is the mean of the per-parameter unbiased variances.
    ``stderr`` uses the large-sample approximation for a variance
    estimate, grad_var * sqrt(2 / (samples - 1)).
    """

    per_param_var: tuple[float, ...]
    per_param_mean: tuple[float, ...]
    grad_var: float
    samples: int
    seed: int
    warning: str | None = None

    @property
    def num_params(self) -> int:
        return len(self.per_param_var)

    @property
    def stderr(self) -> float:
        return self.grad_var * math.sqrt(2.0 / (self.samples - 1))


def reparameterize(t: TranspiledCircuit, mode: ReparamMode) -> Circuit:
    """Choose the trainable parameter space of a transpiled circuit.

    ALL_ANGLES frees every rotation angle, synthesized constants included,
    as an independent parameter. SYMBOL_DERIVED keeps the logical symbol
    space that ``t.physical`` is compiled over: angles that came from a
    logical symbol keep their affine expression, synthesized angles stay
    constant.
    """
    if mode is ReparamMode.ALL_ANGLES:
        return free_all_angles(t.physical)
    return t.physical


# ---------------------------------------------------------------------------
# Sampling


def sample_thetas(seed: int, samples: int, num_params: int) -> np.ndarray:
    """Uniform draws from [0, 2*pi), shaped (samples, num_params).

    Sample i reads its angles from the splitmix64 stream seeded
    ``seed + i*GOLDEN`` (mod 2**64); draw j of that stream mixes state
    ``seed + (i + j + 1)*GOLDEN``, so the whole matrix vectorizes.
    """
    i = np.arange(samples, dtype=np.uint64)[:, None]
    j = np.arange(num_params, dtype=np.uint64)[None, :]
    counter = i + j + np.uint64(1)
    state = np.uint64(seed & ((1 << 64) - 1)) + counter * np.uint64(GOLDEN)
    return angles_from_u64(mix64_array(state))


# ---------------------------------------------------------------------------
# Gradients


def param_shift_gradient(circuit: Circuit, theta: Sequence[float], cost_qubit: int = 0) -> np.ndarray:
    """Exact gradient of <Z_cost> via the parameter-shift rule.

    For each occurrence of a symbol, the bound circuit is simulated with
    that one gate's angle shifted by +-pi/2 and the expectations
    differenced; occurrences are summed with their affine coefficients.
    """
    cost_qubit = check_qubit(cost_qubit, circuit.num_qubits, "cost_qubit")
    bound = bind(circuit, theta)
    grad = np.zeros(circuit.num_symbols)
    for idx, g in enumerate(circuit.gates):
        if not isinstance(g.param, Affine):
            continue
        before, after = bound.gates[:idx], bound.gates[idx + 1 :]
        angle = bound.gates[idx].param.angle
        plus, minus = (
            expect_z(replace(bound, gates=(*before, replace(g, param=Const(angle + s)), *after)), cost_qubit)
            for s in (math.pi / 2, -math.pi / 2)
        )
        grad[g.param.symbol] += g.param.coeff * (plus - minus) / 2.0
    return grad


def _light_cone(circuit: Circuit, cost_qubit: int) -> tuple[list[Gate], list[int]]:
    """The circuit's own gates in the backward light cone of ``cost_qubit``,
    in circuit order, and its live qubits in increasing order.

    Walking from the last gate to the first, a gate is kept when it
    touches a live qubit, and its qubits then become live. Every other
    gate commutes with the cost observable as conjugated so far and
    cancels out of <Z_cost>. So do the RZ gates that end the cost wire,
    after its last other gate: they commute with Z_cost, and their
    parameters' gradients are exactly 0.
    """
    live = {cost_qubit}
    kept: list[Gate] = []
    for g in reversed(circuit.gates):
        if not kept and g.kind is GateKind.RZ and g.qubits == (cost_qubit,):
            continue
        if not live.isdisjoint(g.qubits):
            live.update(g.qubits)
            kept.append(g)
    return kept[::-1], sorted(live)


def _gather_maps(n: int, ops: Sequence[tuple[GateKind, tuple[int, int]]]) -> np.ndarray:
    """A gather of CX/SWAP ``ops`` on n bits that moves chunks of 2**c
    amplitudes: the (2, 2**(n-c)) int32 forward and backward maps of the
    chunks, c the lowest bit any op reads or writes, at most
    ``_CHUNK_BITS``. The ops leave the bits below c as they are, so each
    chunk moves whole. Each op takes chunk i from its source: i with the
    target's bit flipped where the control's is 1 (CX), or with the two
    bits exchanged (SWAP)."""
    c = min(_CHUNK_BITS, *(bit for _, bits in ops for bit in bits))
    idx = np.arange(1 << (n - c), dtype=np.int32)
    maps = np.empty((2, idx.size), dtype=np.int32)
    maps[0] = idx
    for kind, (a, b) in ops:
        a, b = a - c, b - c
        if kind is GateKind.CX:
            sources = idx ^ (((idx >> a) & 1) << b)
        else:
            diff = ((idx >> a) ^ (idx >> b)) & 1
            sources = idx ^ (diff << a) ^ (diff << b)
        maps[0] = maps[0][sources]
    maps[1][maps[0]] = idx
    return maps


def _sweep_steps(gates: Sequence[Gate]) -> tuple[list[np.ndarray | tuple], dict[int, int]]:
    """The gates as sweep steps on the register, and the qubit -> bit layout
    of the register they end in. The register holds the qubits that have
    left |0>, on bits 0..a-1 in the order they joined; it starts empty, the
    state one amplitude. A step is a gather, the (2, 2**(a-c)) int32 array of
    its forward and backward chunk maps, or a matrix step (runs, joins): its
    one or two runs of single-qubit gates on the top bits of the register
    after it, a-1 and then a-2, and how many of their qubits join the
    register there. Each maximal run on one wire is held back until a
    two-qubit gate touches that wire or the circuit ends, and then flushed
    by one rule: it takes a second held run into its step if one is
    complete (no single-qubit gate follows it on its wire, so no run is
    split), the one whose next two-qubit gate comes first. That is the run
    on the other wire of the flushing CX or SWAP whenever one is held.
    Before a step whose register qubits are not on the top bits, SWAPs that
    bring them there join the gather (or open one); its other qubits join
    above them. Every qubit outside the register is |0>: a CX whose control
    is one is dropped, a CX onto one first joins it by an identity step (a
    run of no gates), and a SWAP with one is a relabel. Every other CX and
    SWAP joins the pending gather on its current bits."""
    steps: list[np.ndarray | tuple] = []
    layout: dict[int, int] = {}
    pending: list[tuple[GateKind, tuple[int, int]]] = []
    held: dict[int, list[Gate]] = {}
    # follows[i]: the index of the two-qubit gate after single-qubit gate i
    # on its wire, len(gates) if the wire has no more gates, None if a
    # single-qubit gate comes next; run_end[q]: that of the held run's last
    # gate, so a held run is complete unless it is None
    run_end: dict[int, int | None] = {}
    follows: list[int | None] = [None] * len(gates)
    next_gate: dict[int, int] = {}
    for i in reversed(range(len(gates))):
        g = gates[i]
        if g.kind not in TWO_QUBIT_KINDS:
            j = next_gate.get(g.qubits[0], len(gates))
            follows[i] = j if j == len(gates) or gates[j].kind in TWO_QUBIT_KINDS else None
        for q in g.qubits:
            next_gate[q] = i

    def put(qubits: tuple[int, ...], runs: tuple[tuple[Gate, ...], ...]) -> None:
        # qubits, top bit first, lists those that join before those that stay
        top = len(layout)
        staying = [r for r in qubits if r in layout]
        for r, bit in zip(staying, (top - 1, top - 2)):
            if layout[r] != bit:
                pending.append((GateKind.SWAP, (layout[r], bit)))
                other = next(x for x, b in layout.items() if b == bit)
                layout[other], layout[r] = layout[r], bit
        if pending:
            steps.append(_gather_maps(top, pending))
            pending.clear()
        joins = len(qubits) - len(staying)
        for r in reversed(qubits[:joins]):
            layout[r] = len(layout)
        steps.append((runs, joins))

    def flush(q: int) -> None:
        qubits = (q,)
        partners = [p for p in held if p != q and run_end[p] is not None]
        if partners:
            p = min(partners, key=run_end.__getitem__)
            # a qubit that joins goes above one that stays; of two that stay,
            # one already on one of the top two bits stays there
            top = len(layout)
            if p not in layout or q in layout and (top - 1 == layout[p] or top - 2 == layout[q]):
                qubits = (p, q)
            else:
                qubits = (q, p)
        put(qubits, tuple(tuple(held.pop(r)) for r in qubits))

    for i, g in enumerate(gates):
        if g.kind not in TWO_QUBIT_KINDS:
            held.setdefault(g.qubits[0], []).append(g)
            run_end[g.qubits[0]] = follows[i]
            continue
        for q in g.qubits:
            if q in held:
                flush(q)
        a, b = g.qubits
        if g.kind is GateKind.SWAP and not (a in layout and b in layout):
            # the |0> side takes the other side's bit, if it has one
            for x, y in ((a, b), (b, a)):
                if x in layout:
                    layout[y] = layout.pop(x)
                    break
            continue
        if g.kind is GateKind.CX:
            if a not in layout:
                continue
            if b not in layout:
                put((b,), ((),))
        pending.append((g.kind, (layout[a], layout[b])))
    while held:
        flush(next(iter(held)))
    if pending:
        steps.append(_gather_maps(len(layout), pending))
    return steps, layout


def _plan(circuit: Circuit, cost_qubit: int) -> tuple[int, list[np.ndarray | tuple], int | None, int]:
    """The sweep of ``circuit``, from its gates alone: (cone qubits n, steps,
    the cost qubit's bit in the register after the last step, state planes).
    The register (see ``_sweep_steps``) holds the cone qubits that have left
    |0>, so it grows from none to at most n; the cost bit is None if the cost
    qubit never leaves |0>, and every gradient is then 0. A cone over the cap
    is refused before any index map is built. The state has one real plane
    if every gate in the cone is real: an RY, a gather, or a gate with a
    fixed (not ``Affine``) matrix whose imaginary part is zero; two, its real
    and imaginary parts, otherwise."""
    gates, live = _light_cone(circuit, cost_qubit)
    if len(live) > MAX_QUBITS:
        raise ValueError(f"light cone of {len(live)} qubits exceeds the {MAX_QUBITS}-qubit simulator cap")
    steps, layout = _sweep_steps(gates)
    real = all(
        g.kind in (GateKind.RY, *TWO_QUBIT_KINDS)
        or not isinstance(g.param, Affine) and not gate_matrix(g.kind, g.param and g.param.angle).imag.any()
        for g in gates
    )
    return len(live), steps, layout.get(cost_qubit), 1 if real else 2


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of 2x2 matrices, either or both stacked per sample."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _matrices(run: tuple[Gate, ...], thetas: np.ndarray) -> list[np.ndarray]:
    """The run's 2x2 gate matrices, per sample where the angle is an ``Affine``."""
    out = []
    for g in run:
        param = g.param
        if isinstance(param, Affine):
            out.append(gate_matrix(g.kind, param.coeff * thetas[:, param.symbol] + param.offset))
        else:
            out.append(gate_matrix(g.kind, None if param is None else param.angle))
    return out


def _product(run: tuple[Gate, ...], matrices: list[np.ndarray]) -> np.ndarray:
    """U = U_k...U_1, grown outward from the run's first ``Affine`` gate.

    Every partial product then holds a per-sample matrix, so its rounding
    varies from sample to sample. A product of fixed gates alone would
    round the same way in every run of every sample and bias the state's
    norm: built from the last gate, the SX.RZ(pi) tails of symbol-derived
    ttn n=10 L=10 moved its GradVar by -7e-14 relative. A run of no gates,
    the step that joins a CX's |0> target to the register, is the identity.
    """
    if not run:
        return np.eye(2, dtype=complex)
    first = next((i for i, g in enumerate(run) if isinstance(g.param, Affine)), 0)
    u = matrices[first]
    for m in reversed(matrices[:first]):
        u = _matmul(u, m)
    for m in matrices[first + 1 :]:
        u = _matmul(m, u)
    return u


def _read_offs(run: tuple[Gate, ...], matrices: list[np.ndarray]) -> list[tuple[int, float, np.ndarray]]:
    """(symbol, coeff, W P W^dagger) of each ``Affine`` occurrence of the run,
    from its last gate to its first, W being the product of the gates after
    the occurrence: its shift-rule value Im<lambda|P|psi>, taken just after
    its gate, is coeff * Im sum_ab (W P W^dagger)_ab G_ab, G being the
    transition matrix after the run."""
    out = []
    w = None
    for g, m in zip(reversed(run), reversed(matrices)):
        if isinstance(g.param, Affine):
            p = GENERATORS[g.kind] if w is None else _matmul(_matmul(w, GENERATORS[g.kind]), _dagger(w))
            out.append((g.param.symbol, g.param.coeff, p))
        w = m if w is None else _matmul(w, m)
    return out


# A step's matrices for the whole batch: its unitary U, and each wire's
# read-offs. An array of one matrix is shared by every sample.
_StepMatrices = tuple[np.ndarray, list[list[tuple[int, float, np.ndarray]]]]


def _step_matrices(runs: tuple[tuple[Gate, ...], ...], thetas: np.ndarray, planes: int) -> _StepMatrices:
    """A matrix step's per-sample unitary on its top bits, with its read-offs:
    a lone run's 2x2 product, or U_hi kron U_lo, one rounding per entry. For
    a one-plane sweep the unitary is its real part."""
    matrices = [_matrices(run, thetas) for run in runs]
    products = [_product(run, m) for run, m in zip(runs, matrices)]
    u = products[0]
    if len(products) == 2:
        hi, lo = products
        kron = hi[..., :, None, :, None] * lo[..., None, :, None, :]
        u = kron.reshape(kron.shape[:-4] + (4, 4))
    u = u.real.copy() if planes == 1 else u
    return u, [_read_offs(run, m) for run, m in zip(runs, matrices)]


def _real_block(u: np.ndarray, planes: int, joins: int) -> np.ndarray:
    """The real matrix that applies a step's ``u`` to the state's planes on
    the top bits: the one-plane sweep's U itself, which is real, and for two
    planes, re then im, [[Re U, -Im U], [Im U, Re U]]. A step whose runs put
    ``joins`` qubits on the register's new top bits reads only their |0>
    columns, the first dim >> joins of each plane. Its transpose is the block
    of U^dagger, which drops their |1> rows."""
    dim = u.shape[-1]
    parts = [u] if planes == 1 else [u.real, u.imag]
    if joins:
        # contiguous copies: numpy 2.4.6's negative reads a one-column view
        # of a shared or one-row U's imaginary part with the wrong stride
        parts = [np.ascontiguousarray(part[..., : dim >> joins]) for part in parts]
    if planes == 1:
        return parts[0]
    re, im = parts
    cols = re.shape[-1]
    block = np.empty(u.shape[:-2] + (2 * dim, 2 * cols))
    block[..., :dim, :cols] = block[..., dim:, cols:] = re
    block[..., dim:, :cols] = im
    np.negative(im, out=block[..., :dim, cols:])
    return block


def _transition(product: np.ndarray, planes: int) -> np.ndarray:
    """A step's transition matrix G[r, a, b] = sum over the other qubits of
    conj(lambda_a) psi_b, from the real product of the planes Lambda Psi^T:
    with one plane it is G; with two, Re G is the sum of its two diagonal
    blocks and Im G its upper-right block minus its lower-left."""
    if planes == 1:
        return product
    dim = product.shape[-1] // 2
    g = np.empty(product.shape[:-2] + (dim, dim), np.complex128)
    np.add(product[..., :dim, :dim], product[..., dim:, dim:], out=g.real)
    np.subtract(product[..., :dim, dim:], product[..., dim:, :dim], out=g.imag)
    return g


def _wire_transition(transition: np.ndarray, runs: int, wire: int) -> np.ndarray:
    """The 2x2 transition matrix of a step's ``wire`` (0 the top bit), read
    off the step's own G: a lone run's is all of G; of a two-run step's 4x4,
    the top wire's is G[2a, 2b] + G[2a + 1, 2b + 1] and the lower wire's
    G[a, b] + G[2 + a, 2 + b]."""
    if runs == 1:
        return transition
    g = transition.reshape(-1, 2, 2, 2, 2)
    return g[:, :, 0, :, 0] + g[:, :, 1, :, 1] if wire == 0 else g[:, 0, :, 0, :] + g[:, 1, :, 1, :]


def _rows(m: np.ndarray, block: slice) -> np.ndarray:
    """The block's rows of a per-sample matrix; a shared one as it is."""
    return m if m.ndim == 2 else m[block]


def _move(states: np.ndarray, index_map: np.ndarray, out: np.ndarray) -> None:
    """Gather ``states`` (..., 2**n) into ``out`` by one of a gather's chunk
    maps. mode="clip" lets take write into out= unbuffered; the maps are
    permutations, so it never clips."""
    shape = (-1, index_map.size, states.shape[-1] // index_map.size)
    np.take(states.reshape(shape), index_map, axis=1, out=out.reshape(shape), mode="clip")


def _multiply(block: np.ndarray, states: np.ndarray, out: np.ndarray) -> None:
    """One matmul of ``states`` (..., rows, planes, 2**a) by a step's real
    block (rows or shared) on the top bits, into ``out``, whose register is
    larger by the qubits the block joins (or smaller, by its transpose)."""
    np.matmul(
        block,
        states.reshape(states.shape[:-2] + (block.shape[-1], -1)),
        out=out.reshape(out.shape[:-2] + (block.shape[-2], -1)),
    )


def _sweep_block(
    built: list[tuple[np.ndarray | tuple, _StepMatrices | None]],
    planes: int,
    block: slice,
    cost_bit: int,
    grads: np.ndarray,
    buffers: tuple[np.ndarray, np.ndarray],
) -> None:
    """Forward/backward sweep of the rows ``block`` of the batch; adds their
    gradients into ``grads``, the block's rows of the gradient array.

    ``built`` pairs each step with its matrices, built once for the whole
    batch (None for a gather); the sweep takes the block's rows of them and
    builds their real blocks. The forward pass grows the register from none
    of the cone's qubits, one amplitude, as the steps join them. The backward
    pass un-applies each step from the stacked buffer [psi; lambda] by the
    real block of U^dagger, which shrinks the register back, lambda starting
    in place as psi negated where the cost qubit's final bit ``cost_bit`` is
    1 (Z_cost psi, exactly), and reads off a step's occurrences before
    un-applying it, each from the 2x2 transition matrix of its own wire.

    ``buffers`` are the call's two flat float64 state buffers, viewed here
    as (2, rows, planes, 2**a) for a register of a bits: each step reads one
    and writes the other, so the sweep allocates no state. The forward pass
    uses their psi halves.
    """
    rows = grads.shape[0]

    def view(buffer: np.ndarray, a: int) -> np.ndarray:
        return buffer[: 2 * rows * planes << a].reshape(2, rows, planes, -1)

    cur, spare = buffers
    a = 0
    psi = view(cur, a)[0]
    psi.fill(0)
    psi[:, 0, 0] = 1
    for step, matrices in built:
        if matrices is None:
            _move(view(cur, a)[0], step[0], view(spare, a)[0])
        else:
            joins = step[1]
            _multiply(_real_block(_rows(matrices[0], block), planes, joins), view(cur, a)[0], view(spare, a + joins)[0])
            a += joins
        cur, spare = spare, cur
    state = view(cur, a)
    state[1] = state[0]
    # in C order of the swapped view the inner loop runs across the blocks,
    # not along one block's 2**cost_bit amplitudes, few on a low cost bit
    ones = state[1].reshape(rows, planes, -1, 2, 1 << cost_bit)[..., 1, :].swapaxes(-1, -2)
    np.negative(ones, out=ones, order="C")

    for step, matrices in reversed(built):
        if matrices is None:
            _move(view(cur, a), step[1], view(spare, a))
            cur, spare = spare, cur
            continue
        u, read_offs = matrices
        u = _rows(u, block)
        if any(read_offs):
            buf = view(cur, a).reshape(2, rows, planes * u.shape[-1], -1)
            transition = _transition(buf[1] @ buf[0].swapaxes(-1, -2), planes)
            for wire, occurrences in enumerate(read_offs):
                if not occurrences:
                    continue
                wire_transition = _wire_transition(transition, len(read_offs), wire)
                for symbol, coeff, p in occurrences:
                    # two sums of two terms each add in one order whatever the rows;
                    # one sum over both axes adds a one-row block in another order
                    grads[:, symbol] += coeff * (_rows(p, block) * wire_transition).sum(axis=-1).sum(axis=-1).imag
        # the transpose of U's block, U^dagger's, un-applies the step from
        # psi and lambda at once. It stays a transposed view: at n = 2 dgemv
        # rounds a contiguous copy otherwise, and the one-plane cones' pinned
        # bits were taken with the view
        joins = step[1]
        _multiply(_real_block(u, planes, joins).swapaxes(-1, -2), view(cur, a), view(spare, a - joins))
        a -= joins
        cur, spare = spare, cur


def _gradients_batched(circuit: Circuit, thetas: np.ndarray, cost_qubit: int) -> np.ndarray:
    """Shift-rule gradients for a batch of parameter vectors, shape (B, P).

    ``_plan`` gives the cone, steps and planes; a symbol with no occurrence
    in the cone keeps gradient 0, as does every symbol if the cost qubit
    never leaves |0>. The batch is split into near-equal row blocks of at
    least ``_BLOCK_BYTES`` of two-plane cone state each (the whole batch if
    it is smaller), swept one block at a time through two float64 state
    buffers allocated once here, each 2 x (largest block's rows) x planes x
    2**n, n the cone's qubits, which the register never exceeds.
    """
    n, steps, cost_bit, planes = _plan(circuit, cost_qubit)
    batch = thetas.shape[0]
    grads = np.zeros((batch, circuit.num_symbols))
    if cost_bit is None:
        return grads
    rows = max(1, _BLOCK_BYTES // ((1 << n) * 16))
    blocks = max(1, batch // rows)
    bounds = [batch * i // blocks for i in range(blocks + 1)]
    built = [
        (step, None if isinstance(step, np.ndarray) else _step_matrices(step[0], thetas, planes)) for step in steps
    ]
    most = max(stop - start for start, stop in zip(bounds, bounds[1:]))
    buffers = (np.empty(2 * most * planes << n), np.empty(2 * most * planes << n))
    for start, stop in zip(bounds, bounds[1:]):
        _sweep_block(built, planes, slice(start, stop), cost_bit, grads[start:stop], buffers)
    return grads


def grad_variance(circuit: Circuit, samples: int, seed: int, cost_qubit: int = 0) -> GradStats:
    """GradVar of a circuit: mean per-parameter gradient variance under
    uniform parameter draws. Deterministic in (circuit, samples, seed)."""
    samples, seed = as_index(samples, "samples"), as_index(seed, "seed")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    cost_qubit = check_qubit(cost_qubit, circuit.num_qubits, "cost_qubit")
    if circuit.num_symbols == 0:
        return GradStats(
            per_param_var=(),
            per_param_mean=(),
            grad_var=0.0,
            samples=samples,
            seed=seed,
            warning="circuit has no trainable parameters",
        )
    thetas = sample_thetas(seed, samples, circuit.num_symbols)
    grads = _gradients_batched(circuit, thetas, cost_qubit)
    per_var = grads.var(axis=0, ddof=1)
    return GradStats(
        per_param_var=tuple(float(v) for v in per_var),
        per_param_mean=tuple(float(m) for m in grads.mean(axis=0)),
        grad_var=float(per_var.mean()),
        samples=samples,
        seed=seed,
    )


def delta_gradvar(phys: GradStats, log: GradStats) -> float:
    """Trainability shift: positive means amplification after transpilation."""
    return phys.grad_var - log.grad_var
