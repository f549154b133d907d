"""Trainability laboratory for variational quantum circuits.

Build logical ansatz circuits, compile them to hardware-constrained
physical circuits (SWAP routing, native-basis decomposition, peephole
optimization), and measure how compilation reshapes parameter-shift
gradient statistics and structural cost.
"""

from .ansatz import AnsatzKind, build_ansatz, build_efficient_su2, build_real_amplitudes, build_ttn
from .backend import (
    BackendModel,
    load_backend,
    make_heavy_hex,
    make_line,
    resolve_backend,
    save_backend,
)
from .circuit import (
    Affine,
    Circuit,
    Const,
    Gate,
    GateKind,
    StructuralMetrics,
    bind,
    circuit_from_text,
    circuit_to_text,
    dag_depth,
    free_all_angles,
    gate_counts,
    load_circuit,
    normalize_angle,
    save_circuit,
    structural_metrics,
)
from .grad import (
    GradStats,
    ReparamMode,
    delta_gradvar,
    grad_variance,
    param_shift_gradient,
    reparameterize,
    sample_thetas,
)
from .harness import (
    SweepConfig,
    SweepRecord,
    default_sweep_config,
    emit_csv,
    emit_heatmap_svg,
    read_csv,
    run_sweep,
)
from .sim import expect_z, simulate, state_expect_z
from .transpiler import (
    OverheadReport,
    TranspiledCircuit,
    check_constraints,
    decompose_to_native,
    optimize,
    overhead,
    route,
    transpile,
)
from .verify import logical_physical_fidelity

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "AnsatzKind",
    "BackendModel",
    "Circuit",
    "Const",
    "Gate",
    "GateKind",
    "GradStats",
    "OverheadReport",
    "ReparamMode",
    "StructuralMetrics",
    "SweepConfig",
    "SweepRecord",
    "TranspiledCircuit",
    "bind",
    "build_ansatz",
    "build_efficient_su2",
    "build_real_amplitudes",
    "build_ttn",
    "check_constraints",
    "circuit_from_text",
    "circuit_to_text",
    "dag_depth",
    "decompose_to_native",
    "default_sweep_config",
    "delta_gradvar",
    "emit_csv",
    "emit_heatmap_svg",
    "expect_z",
    "free_all_angles",
    "gate_counts",
    "grad_variance",
    "load_backend",
    "load_circuit",
    "logical_physical_fidelity",
    "make_heavy_hex",
    "make_line",
    "normalize_angle",
    "optimize",
    "overhead",
    "param_shift_gradient",
    "read_csv",
    "reparameterize",
    "resolve_backend",
    "route",
    "run_sweep",
    "sample_thetas",
    "save_backend",
    "save_circuit",
    "simulate",
    "state_expect_z",
    "structural_metrics",
    "transpile",
]
