"""Semantic equivalence checks between logical and transpiled circuits.

A compiled circuit numbers its qubits in logical order with the ancillas
last, so the logical state is the physical state's first 2^n amplitudes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import Circuit, bind
from .sim import simulate
from .transpiler import TranspiledCircuit


def logical_physical_fidelity(logical: Circuit, t: TranspiledCircuit, theta: Sequence[float]) -> float:
    """|<psi_log|psi_phys[:2^n]>|^2, which is 1 only if every ancilla ends in |0>.

    The physical circuit is over the logical symbols and binds from the
    same ``theta``, so a fidelity of 1 certifies the whole pipeline
    preserved the semantics of the logical circuit up to global phase.
    """
    psi_log = simulate(bind(logical, theta))
    psi_phys = simulate(bind(t.physical, theta))
    return abs(np.vdot(psi_log, psi_phys[: len(psi_log)])) ** 2
