"""Semantic equivalence checks between logical and transpiled circuits."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import Circuit, bind
from .sim import simulate
from .transpiler import TranspiledCircuit


def embedded_overlap(logical_state: np.ndarray, t: TranspiledCircuit, physical_state: np.ndarray) -> complex:
    """Overlap <expected|physical> where the expected state embeds the logical
    state at the final-layout positions and |0> on every other active qubit."""
    n = int(np.log2(len(logical_state)))
    positions = [t.compact_index(t.final_layout[l]) for l in range(n)]
    idx = np.arange(len(logical_state))
    mapped = np.zeros_like(idx)
    for l, pos in enumerate(positions):
        mapped |= ((idx >> l) & 1) << pos
    return complex(np.vdot(logical_state, physical_state[mapped]))


def logical_physical_fidelity(logical: Circuit, t: TranspiledCircuit, theta: Sequence[float]) -> float:
    """|<psi_log|psi_phys>|^2 after undoing the final-layout permutation.

    The physical circuit is over the logical symbols and binds from the
    same ``theta``, so a fidelity of 1 certifies the whole pipeline
    preserved the semantics of the logical circuit up to global phase.
    """
    psi_log = simulate(bind(logical, theta))
    psi_phys = simulate(bind(t.physical, theta))
    return abs(embedded_overlap(psi_log, t, psi_phys)) ** 2
