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
al., arXiv:2001.00550): the gates that can reach Z_cost, on the qubits
they touch, renumbered in order. Every other gate cancels out of
<Z_cost>, so a parameter that occurs only outside the cone reports a
gradient of exactly 0. When the cone is the whole circuit (as for the
stock sweep's ttn circuits) the sweep is the full-register one, step for
step.

The sweep runs the samples in row blocks of under twice ``_BLOCK_BYTES``
of cone state each, so a block's buffers stay in a per-core L2 cache.
Its backward pass un-applies each gate once from a stacked
[state; costate] buffer, and each run of CX/SWAP/X gates is one composed
gather. Rows never mix and gathers are exact, so the results are the
same bits at any block size as in an unblocked one-gate-at-a-time sweep
of the same cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum, unique
from typing import Sequence

import numpy as np

from .circuit import Affine, Circuit, Const, Gate, GateKind, bind, free_all_angles
from .rng import GOLDEN, angles_from_u64, mix64_array
from .sim import (
    MAX_QUBITS,
    PERMUTATION_KINDS,
    apply_kind,
    apply_pauli,
    expect_z,
    permutation_sources,
    zero_states,
)
from .transpiler import TranspiledCircuit, rebind_symbol_derived

_PAULI_OF = {GateKind.RX: "X", GateKind.RY: "Y", GateKind.RZ: "Z"}

# Least bytes of state per row block of the adjoint sweep (a smaller batch
# is one block). A block holds under twice this, so the stacked
# [state; costate] buffer stays within a 2 MiB per-core L2. On a 2-vCPU
# Xeon with 2 MiB L2 per core, the six n = 12, B = 200 GradVar calls of
# perfbench's gradvar_n12 took ~10 s with 0.5-1 MiB blocks (~15 s
# unblocked), ~11 s with 2 MiB blocks or with 256 KiB blocks (more Python
# dispatch) and ~12.5 s with 4 MiB blocks. Those timings predate the light
# cone and swept all 12 qubits of every call; the three ttn calls, whose
# cone is the whole register, still do.
_BLOCK_BYTES = 1 << 19


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
    as an independent parameter. SYMBOL_DERIVED restores the logical
    symbol space: angles that came from a logical symbol keep their
    affine expression, synthesized angles stay constant.
    """
    if mode is ReparamMode.ALL_ANGLES:
        return free_all_angles(t.physical)
    return rebind_symbol_derived(t.physical, t.provenance, t.metrics_before.num_symbols)


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
    bound = bind(circuit, theta)
    if not 0 <= cost_qubit < circuit.num_qubits:
        raise ValueError(f"cost qubit {cost_qubit} out of range")
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


def _light_cone(circuit: Circuit, cost_qubit: int) -> tuple[list[Gate], int, int]:
    """The gates in the backward light cone of ``cost_qubit``, renumbered.

    Walking from the last gate to the first, a gate is kept when it
    touches a live qubit, and its qubits then become live. Every other
    gate commutes with the cost observable as conjugated so far and
    cancels out of <Z_cost>. The live qubits are renumbered in increasing
    order. Returns (kept gates, live qubit count, new cost qubit index).
    """
    live = {cost_qubit}
    kept: list[Gate] = []
    for g in reversed(circuit.gates):
        if not live.isdisjoint(g.qubits):
            live.update(g.qubits)
            kept.append(g)
    index = {q: i for i, q in enumerate(sorted(live))}
    gates = [replace(g, qubits=tuple(index[q] for q in g.qubits)) for g in reversed(kept)]
    return gates, len(index), index[cost_qubit]


def _sweep_steps(gates: Sequence[Gate], n: int) -> list[Gate | tuple[np.ndarray, np.ndarray]]:
    """The gates as sweep steps on ``n`` qubits: each maximal run of
    CX/SWAP/X becomes its (forward, backward) index maps; every other
    gate stays."""
    steps: list[Gate | tuple[np.ndarray, np.ndarray]] = []
    run: list[Gate] = []
    for g in gates:
        if g.kind in PERMUTATION_KINDS:
            run.append(g)
            continue
        if run:
            steps.append(permutation_sources(n, run))
            run = []
        steps.append(g)
    if run:
        steps.append(permutation_sources(n, run))
    return steps


def _stacked(angle):
    """Per-sample angles for a [state; costate] buffer: the block twice."""
    return np.concatenate((angle, angle)) if isinstance(angle, np.ndarray) else angle


def _sweep_block(steps: list, n: int, thetas: np.ndarray, cost_qubit: int, grads: np.ndarray) -> None:
    """Forward/backward sweep of one row block; adds its gradients into ``grads``.

    The forward pass caches the final state psi. The backward pass
    un-applies each step from the stacked buffer [psi; lambda], lambda
    starting as Z_cost psi, and reads off each occurrence's shift-rule
    value as Im<lambda|Pauli|psi> before un-applying its gate.
    """
    rows = thetas.shape[0]
    angles: list[np.ndarray | float | None] = []
    for step in steps:
        if isinstance(step, tuple) or step.param is None:
            angles.append(None)
        elif isinstance(step.param, Affine):
            angles.append(step.param.coeff * thetas[:, step.param.symbol] + step.param.offset)
        else:
            angles.append(step.param.angle)

    psi = zero_states(rows, n)
    for step, angle in zip(steps, angles):
        if isinstance(step, tuple):
            psi = psi[:, step[0]]
        else:
            psi = apply_kind(psi, n, step.kind, step.qubits, angle)
    buf = np.concatenate((psi, apply_pauli(psi, n, "Z", cost_qubit)))

    for step, angle in zip(reversed(steps), reversed(angles)):
        if isinstance(step, tuple):
            buf = buf[:, step[1]]
            continue
        if isinstance(step.param, Affine):
            psi, lam = buf[:rows], buf[rows:]
            contrib = np.einsum(
                "bi,bi->b", np.conj(lam), apply_pauli(psi, n, _PAULI_OF[step.kind], step.qubits[0])
            ).imag
            grads[:, step.param.symbol] += step.param.coeff * contrib
        buf = apply_kind(buf, n, step.kind, step.qubits, _stacked(angle), inverse=True)


def _gradients_batched(circuit: Circuit, thetas: np.ndarray, cost_qubit: int) -> np.ndarray:
    """Shift-rule gradients for a batch of parameter vectors, shape (B, P).

    Only the cost qubit's backward light cone is swept; a symbol with no
    occurrence in it keeps gradient 0. The batch is split into near-equal
    row blocks of at least ``_BLOCK_BYTES`` of cone state each (the whole
    batch if it is smaller), swept one block at a time.
    """
    if circuit.num_qubits > MAX_QUBITS:
        raise ValueError(f"{circuit.num_qubits} qubits exceeds the {MAX_QUBITS}-qubit simulator cap")
    gates, n, cost_qubit = _light_cone(circuit, cost_qubit)
    steps = _sweep_steps(gates, n)
    batch = thetas.shape[0]
    # At least two rows per block: numpy multiplies a lone complex element
    # in place without the fused multiply-add of its vector loop, so a
    # one-row block at n = 1 would round differently from a larger one.
    rows = max(2, _BLOCK_BYTES // ((1 << n) * 16))
    blocks = max(1, batch // rows)
    bounds = [batch * i // blocks for i in range(blocks + 1)]
    grads = np.zeros((batch, circuit.num_symbols))
    for start, stop in zip(bounds, bounds[1:]):
        _sweep_block(steps, n, thetas[start:stop], cost_qubit, grads[start:stop])
    return grads


def grad_variance(circuit: Circuit, samples: int, seed: int, cost_qubit: int = 0) -> GradStats:
    """GradVar of a circuit: mean per-parameter gradient variance under
    uniform parameter draws. Deterministic in (circuit, samples, seed)."""
    if type(samples) is not int:
        raise ValueError(f"samples must be an int, got {samples!r}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if not 0 <= cost_qubit < circuit.num_qubits:
        raise ValueError(f"cost qubit {cost_qubit} out of range")
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
    per_mean = grads.mean(axis=0)
    return GradStats(
        per_param_var=tuple(float(v) for v in per_var),
        per_param_mean=tuple(float(m) for m in per_mean),
        grad_var=float(per_var.mean()),
        samples=samples,
        seed=seed,
    )


def delta_gradvar(phys: GradStats, log: GradStats) -> float:
    """Trainability shift: positive means amplification after transpilation."""
    return phys.grad_var - log.grad_var
