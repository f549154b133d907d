"""Bit-for-bit pins on the gradient engine.

The digests below were computed by the fused light-cone sweep: the
blocked adjoint sweep run on the gates and qubits of the cost qubit's
backward light cone, its state held on a register of the cone qubits that
have left |0>, which a step grows by reading only the |0> columns of its
U. A CX or SWAP that meets a |0> qubit is dropped, joins it or relabels
it; every other is a gather, which moves chunks of up to four
amplitudes and parks finished qubits on the register's low bits. A run
that a two-qubit gate or the end of the circuit flushes takes a second
complete run into its step, a 4x4 U_hi kron U_lo (the run on the gate's
other wire whenever one is held); a run left without one is a 2x2 on the
top bit. Each step is applied by one dgemm on float64 planes, and every
occurrence is read off the 2x2 transition matrix of its own wire, once
per call for the whole batch. Every exact rewrite of the engine must
reproduce them, and must give the same bits at any block size.
Each grad_var stays within 1e-14 relative of every engine version the
pins replaced, which ``HISTORY`` records.

A cone whose every gate is real (the logical ttn and real_amplitudes
circuits) is swept in one real plane; any other in two, its real and
imaginary parts, each step one dgemm by a real block of U. So the bits
depend on the dgemm kernel alone that numpy's bundled OpenBLAS picks for
the CPU. The pins are computed in a child interpreter started with
``OPENBLAS_CORETYPE=Haswell``, a kernel that every x86-64-v3 CPU runs,
and the kernel loaded here only has to agree within 1e-14 relative; CI
runs this module again under OpenBLAS's Sandybridge kernel. The logical
ttn n=10 L=1 row pins one plane across several row blocks, the
efficient_su2 and compiled rows two.
"""

import hashlib
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from vqclab import grad
from vqclab.ansatz import build_ansatz
from vqclab.backend import make_line, resolve_backend
from vqclab.circuit import Affine, Circuit, Const, Gate, GateKind
from vqclab.grad import ReparamMode, grad_variance, reparameterize
from vqclab.harness import emit_csv, run_sweep
from vqclab.transpiler import transpile

from cases import (
    assert_equals_literal_shift_rule,
    block_heavy_circuits,
    cell_arms,
    circuits,
    gradients_in_blocks,
    run_heavy_circuits,
)

ROOT = Path(__file__).resolve().parent.parent


def stats_digest(stats) -> str:
    values = (*stats.per_param_var, *stats.per_param_mean, stats.grad_var)
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()


# (family, n, reps) on heavy-hex:5,11 at B=200, seed 42 -> mode -> (grad_var.hex(), digest),
# under OpenBLAS's Haswell kernel. n=10 runs in several row blocks at the
# default block size; n=4 runs in one. Every logical ttn row is a real cone.
FROZEN = {
    ("efficient_su2", 10, 1): {
        "logical": ("0x1.b125e98b23735p-7", "6f11c04b88ef99f63128d5cd8fafd6f92ce3346007e7cfdfcf8978320a38b493"),
        "all-angles": ("0x1.b129b3f0adefap-7", "2fc7d676f764722dfb9543176bc4effa7e3c60c9aeb134cf6f2a9f0e73bda60a"),
        "symbol-derived": ("0x1.b125e98b23736p-7", "2709c9b3a867fc5ab271200522661d60e5a89deef9cac3cf7803f940ba8b0bf2"),
    },
    ("ttn", 10, 1): {
        "logical": ("0x1.73a5165790127p-5", "cc417686c47f5fb036f057ff4d0399229f90ab05ae3e93e21d962427c7e4e0d2"),
        "all-angles": ("0x1.ddf1e661e2c22p-8", "891b5255b5d754876eadb2c54c87fb88bf227d3525a8d99b4ef7b767385511dd"),
        "symbol-derived": ("0x1.73a5165790123p-5", "c2bc3efac14b82e2d2296818ba8ae88c19cf9a116b82642590bed18224744152"),
    },
    ("ttn", 4, 2): {
        "logical": ("0x1.ca4c30ab555bdp-4", "a561eb23b0a3211cdf85fc318084a7d3fd88775b67719b532a6012f96578e889"),
        "all-angles": ("0x1.3e7de162a7caap-5", "1ac38eba4ae7c12a4d1a4ac19af46bbddf953620bc62c91f035bcfc431850eb2"),
        "symbol-derived": ("0x1.ca4c30ab555b8p-4", "b4753a9d7a37004bbcc8f89eff0939ec24f8570d6ce251da7351b3d2b9c71a36"),
    },
}

# The last line of tests/stock_bits.py under the same kernel: the sha256 of
# all 279 stock arms' bits, which CI checks. A re-pin updates it with FROZEN
# and with test_seeded_layout_cell_within_rounding_of_gate_by_gate's values.
STOCK_BITS = "279 arms, sha256 a8a5f5606ddd39002ddebc23d56c34e1b557255b59c0137a8366e14fe960c15d"

PINNED_KERNEL = "Haswell"


def frozen_rows() -> list[dict[str, list[str]]]:
    """The FROZEN rows, in order, as this interpreter computes them."""
    rows = []
    for family, n, reps in FROZEN:
        row = {}
        for mode, circuit, cost_qubit in cell_arms(family, n, reps, resolve_backend("heavy-hex:5,11")):
            stats = grad_variance(circuit, 200, 42, cost_qubit)
            row[mode] = [stats.grad_var.hex(), stats_digest(stats)]
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def pinned_kernel_rows():
    """The FROZEN rows computed by a child interpreter on the pinned kernel.

    Fails, rather than skips, where that kernel cannot run: OpenBLAS's
    Haswell kernel needs an x86-64 CPU with the x86-64-v3 features (AVX2,
    FMA3, BMI2), and numpy's own complex loops round the same way only
    from x86-64-v3 up.
    """
    from numpy._core._multiarray_umath import __cpu_features__  # the pins need numpy 2

    machine = platform.machine()
    if machine.lower() not in ("x86_64", "amd64"):
        pytest.fail(f"the pins need OpenBLAS's {PINNED_KERNEL} kernel, which runs on x86-64 only; this is {machine}")
    missing = [f for f in ("X86_V3", "AVX2", "FMA3", "BMI2") if not __cpu_features__.get(f)]
    if missing:
        pytest.fail(f"the pins need an x86-64-v3 CPU for OpenBLAS's {PINNED_KERNEL} kernel; missing {missing}")
    src = str(Path(grad.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": PINNED_KERNEL,
        "OPENBLAS_VERBOSE": "2",
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600, check=False
    )
    assert proc.returncode == 0, proc.stderr
    # OPENBLAS_VERBOSE=2 makes OpenBLAS name the core it loaded
    assert f"Core: {PINNED_KERNEL}" in proc.stdout + proc.stderr, (
        f"the child did not run OpenBLAS's {PINNED_KERNEL} kernel:\n{proc.stderr}"
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("cell", list(FROZEN), ids=lambda c: f"{c[0]}-n{c[1]}-L{c[2]}")
def test_gradstats_frozen_digests(cell, pinned_kernel_rows):
    got = pinned_kernel_rows[list(FROZEN).index(cell)]
    assert {mode: tuple(v) for mode, v in got.items()} == FROZEN[cell]


@pytest.fixture(scope="module")
def loaded_kernel_rows():
    return frozen_rows()


@pytest.mark.parametrize("cell", list(FROZEN), ids=lambda c: f"{c[0]}-n{c[1]}-L{c[2]}")
def test_loaded_kernel_within_rounding_of_pins(cell, loaded_kernel_rows):
    # whatever dgemm kernel this process loaded, its grad_var stays within
    # 1e-14 relative of the pinned kernel's
    got = loaded_kernel_rows[list(FROZEN).index(cell)]
    for mode, (pinned, _) in FROZEN[cell].items():
        new, old = float.fromhex(got[mode][0]), float.fromhex(pinned)
        assert abs(new - old) <= 1e-14 * abs(old)


# Every engine version the pins replaced: its name -> (what it was, and
# {cell: {mode: grad_var.hex()}} as it computed the FROZEN cells). Each
# grad_var stays within 1e-14 relative of FROZEN's. A re-pin that moves a
# grad_var adds the replaced engine's entry here.
HISTORY = {
    "full-register": (
        "grad_var.hex() of the cells above that the light cone moved, as the "
        "full-register sweep computed them.",
        {
            ("efficient_su2", 10, 1): {
                "logical": "0x1.b125e98b2373ap-7",
                "all-angles": "0x1.b129b3f0adefap-7",
                "symbol-derived": "0x1.b125e98b2373ap-7",
            },
        },
    ),
    "gate-by-gate": (
        "grad_var.hex() of the cells above as the gate-by-gate light-cone sweep, "
        "before single-qubit runs were fused, computed them.",
        {
            ("efficient_su2", 10, 1): {
                "logical": "0x1.b125e98b23736p-7",
                "all-angles": "0x1.b129b3f0adefap-7",
                "symbol-derived": "0x1.b125e98b23738p-7",
            },
            ("ttn", 4, 2): {
                "logical": "0x1.ca4c30ab555bdp-4",
                "all-angles": "0x1.3e7de162a7cabp-5",
                "symbol-derived": "0x1.ca4c30ab555bep-4",
            },
        },
    ),
    "elementwise-runs": (
        "grad_var.hex() of the cells above as the fused sweep computed them when "
        "each run was applied elementwise on its own qubit's bit, before runs "
        "moved to the top bit and became one BLAS matmul.",
        {
            ("efficient_su2", 10, 1): {
                "logical": "0x1.b125e98b23736p-7",
                "all-angles": "0x1.b129b3f0adefap-7",
                "symbol-derived": "0x1.b125e98b23735p-7",
            },
            ("ttn", 4, 2): {
                "logical": "0x1.ca4c30ab555bep-4",
                "all-angles": "0x1.3e7de162a7caap-5",
                "symbol-derived": "0x1.ca4c30ab555b8p-4",
            },
        },
    ),
    "top-bit-runs": (
        "grad_var.hex() of the cells above as the sweep computed them when every "
        "run was its own 2x2 step on the top bit, before a CX and the runs on its "
        "two wires became one 4x4 block (the same under the SkylakeX and Haswell "
        "kernels).",
        {
            ("efficient_su2", 10, 1): {
                "logical": "0x1.b125e98b23736p-7",
                "all-angles": "0x1.b129b3f0adefap-7",
                "symbol-derived": "0x1.b125e98b23736p-7",
            },
            ("ttn", 4, 2): {
                "logical": "0x1.ca4c30ab555bdp-4",
                "all-angles": "0x1.3e7de162a7caap-5",
                "symbol-derived": "0x1.ca4c30ab555b8p-4",
            },
        },
    ),
    "fused-cx": (
        "grad_var.hex() of the cells above as the sweep computed them when only a "
        "CX or SWAP fused two runs into one step, before two runs with no gate "
        "between them became one U_hi kron U_lo step (under the Haswell kernel).",
        {
            ("efficient_su2", 10, 1): {
                "logical": "0x1.b125e98b23738p-7",
                "all-angles": "0x1.b129b3f0adefap-7",
                "symbol-derived": "0x1.b125e98b23736p-7",
            },
            ("ttn", 4, 2): {
                "logical": "0x1.ca4c30ab555bdp-4",
                "all-angles": "0x1.3e7de162a7caap-5",
                "symbol-derived": "0x1.ca4c30ab555b9p-4",
            },
        },
    ),
    "gated-blocks": (
        "grad_var.hex() of the cells above as the sweep computed them when a CX or "
        "SWAP that met runs on both its wires was fused with them into one "
        "row-permuted 4x4 step, before every CX and SWAP joined a gather (under "
        "the Haswell kernel).",
        {
            ("efficient_su2", 10, 1): {
                "logical": "0x1.b125e98b23736p-7",
                "all-angles": "0x1.b129b3f0adefap-7",
                "symbol-derived": "0x1.b125e98b23736p-7",
            },
            ("ttn", 10, 1): {
                "logical": "0x1.73a5165790126p-5",
                "all-angles": "0x1.ddf1e661e2c23p-8",
                "symbol-derived": "0x1.73a5165790123p-5",
            },
            ("ttn", 4, 2): {
                "logical": "0x1.ca4c30ab555bdp-4",
                "all-angles": "0x1.3e7de162a7caap-5",
                "symbol-derived": "0x1.ca4c30ab555b7p-4",
            },
        },
    ),
    "device-order": (
        "grad_var.hex() of the cells above whose compiled arms moved, as the sweep "
        "computed them when the compiler numbered its qubits in ascending device "
        "order, before it numbered them in logical order (under the Haswell kernel).",
        {
            ("ttn", 10, 1): {
                "all-angles": "0x1.ddf1e661e2c23p-8",
                "symbol-derived": "0x1.73a5165790123p-5",
            },
            ("ttn", 4, 2): {
                "all-angles": "0x1.3e7de162a7caap-5",
                "symbol-derived": "0x1.ca4c30ab555b9p-4",
            },
        },
    ),
    "zgemm": (
        "grad_var.hex() of the complex arms above as the complex128 sweep computed "
        "them with zgemm, before complex cones ran as two float64 planes (under the "
        "Haswell kernel; their digests moved, their grad_var kept its bits).",
        {
            ("efficient_su2", 10, 1): {
                "logical": "0x1.b125e98b23736p-7",
                "all-angles": "0x1.b129b3f0adefap-7",
                "symbol-derived": "0x1.b125e98b23736p-7",
            },
            ("ttn", 10, 1): {
                "all-angles": "0x1.ddf1e661e2c22p-8",
                "symbol-derived": "0x1.73a5165790123p-5",
            },
            ("ttn", 4, 2): {
                "all-angles": "0x1.3e7de162a7caap-5",
                "symbol-derived": "0x1.ca4c30ab555b9p-4",
            },
        },
    ),
    "whole-cone": (
        "grad_var.hex() of the cells above as the sweep computed them when its state "
        "held every qubit of the light cone from the first step, before the register "
        "grew from none of them as they left |0> (under the Haswell kernel).",
        {
            ("efficient_su2", 10, 1): {
                "logical": "0x1.b125e98b23736p-7",
                "all-angles": "0x1.b129b3f0adefap-7",
                "symbol-derived": "0x1.b125e98b23736p-7",
            },
            ("ttn", 10, 1): {
                "logical": "0x1.73a5165790127p-5",
                "all-angles": "0x1.ddf1e661e2c22p-8",
                "symbol-derived": "0x1.73a5165790123p-5",
            },
            ("ttn", 4, 2): {
                "logical": "0x1.ca4c30ab555bdp-4",
                "all-angles": "0x1.3e7de162a7caap-5",
                "symbol-derived": "0x1.ca4c30ab555b9p-4",
            },
        },
    ),
    "unparked": (
        "grad_var.hex() of the cells above as the sweep computed them when the first "
        "qubits to join the register stayed on its low bits, before its gathers "
        "parked finished qubits there (under the Haswell kernel).",
        {
            ("efficient_su2", 10, 1): {
                "logical": "0x1.b125e98b23736p-7",
                "all-angles": "0x1.b129b3f0adefap-7",
                "symbol-derived": "0x1.b125e98b23736p-7",
            },
            ("ttn", 10, 1): {
                "logical": "0x1.73a5165790127p-5",
                "all-angles": "0x1.ddf1e661e2c22p-8",
                "symbol-derived": "0x1.73a5165790123p-5",
            },
            ("ttn", 4, 2): {
                "logical": "0x1.ca4c30ab555bdp-4",
                "all-angles": "0x1.3e7de162a7caap-5",
                "symbol-derived": "0x1.ca4c30ab555b8p-4",
            },
        },
    ),
}


@pytest.mark.parametrize(
    "version,cell,mode",
    [(version, cell, mode) for version, (_, table) in HISTORY.items() for cell, row in table.items() for mode in row],
    ids=lambda v: v if isinstance(v, str) else f"{v[0]}-n{v[1]}-L{v[2]}",
)
def test_history_within_rounding_of_frozen(version, cell, mode):
    new, old = float.fromhex(FROZEN[cell][mode][0]), float.fromhex(HISTORY[version][1][cell][mode])
    assert abs(new - old) <= 1e-14 * abs(old)


def test_seeded_layout_cell_within_rounding_of_gate_by_gate():
    # ttn n=4 L=1 on line:8 under layout seed 3, symbol-derived, as
    # tests/test_cli.py's gradvar tests read it
    t = transpile(build_ansatz("ttn", 4, 1), make_line(8), layout_seed=3)
    grad_var = grad_variance(reparameterize(t, ReparamMode.SYMBOL_DERIVED), 20, 42, 0).grad_var
    # the bits follow the dgemm kernel, and this set is the third record of
    # them beside FROZEN and STOCK_BITS: ...853 under OpenBLAS's Haswell,
    # Zen and SkylakeX kernels, ...850 under Sandybridge, with parked qubits
    # as without them (the whole-cone sweep read ...856 under SkylakeX and
    # ...853 under the other three, the complex128 sweep ...853 under all four)
    assert grad_var in (0.1600764457060885, 0.16007644570608853)
    # the gate-by-gate sweep, before single-qubit runs were fused, gave
    gate_by_gate = 0.16007644570608856
    assert abs(grad_var - gate_by_gate) <= 1e-14 * gate_by_gate


def test_block_size_engages_at_ten_qubits():
    # the n=10 pins above must run in more than one row block, the n=4 pin
    # in one; their light cones span every qubit of each circuit
    assert 200 // (grad._BLOCK_BYTES // ((1 << 10) * 16)) > 1
    assert 200 // (grad._BLOCK_BYTES // ((1 << 4) * 16)) == 0
    for family, n, reps in FROZEN:
        for _, circuit, cost_qubit in cell_arms(family, n, reps, resolve_backend("heavy-hex:5,11")):
            assert len(grad._light_cone(circuit, cost_qubit)[1]) == circuit.num_qubits == n


def test_demo_sweep_csv_regenerates_byte_identical(tmp_path):
    spec = importlib.util.spec_from_file_location("demo_sweep", ROOT / "demos" / "04_sweep_heatmaps.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    out = tmp_path / "sweep.csv"
    emit_csv(run_sweep(demo.CONFIG), out)
    assert out.read_bytes() == (ROOT / "demos" / "output" / "sweep.csv").read_bytes()


# ---------------------------------------------------------------------------
# Property tests over random circuits on the full gate set

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# One qubit, so the whole circuit is one run of 12 gates; symbol 0 occurs
# four times, twice with coeff -1.
ONE_RUN = (
    Circuit(1, tuple(Gate(kind, (0,), param) for kind, param in (
        (GateKind.SX, None), (GateKind.RZ, Affine(0, 1, 0.3)), (GateKind.H, None),
        (GateKind.RY, Affine(0, -1, 1.1)), (GateKind.X, None), (GateKind.RX, Const(2.0)),
        (GateKind.RZ, Affine(1, 1, 0.0)), (GateKind.SX, None), (GateKind.RX, Affine(0, -1, 4.0)),
        (GateKind.RZ, Const(math.pi)), (GateKind.RY, Affine(0, 1, 5.5)), (GateKind.H, None),
    )), 2),
    0, 5, 11,
)


# Runs with no ``Affine`` gate, whose 2x2 is shared by every sample: a lone
# X, SX.H in a step with a sampled RY, and a lone H. B = 5, so one-row
# blocks reach rows past a shared matrix's two.
FIXED_RUNS = (
    Circuit(2, (
        Gate(GateKind.X, (0,)), Gate(GateKind.CX, (0, 1)),
        Gate(GateKind.RY, (1,), Affine(0, 1, 0.4)), Gate(GateKind.SX, (0,)), Gate(GateKind.H, (0,)),
        Gate(GateKind.SWAP, (1, 0)),
        Gate(GateKind.H, (1,)), Gate(GateKind.CX, (1, 0)), Gate(GateKind.RX, (0,), Affine(0, -1, 2.0)),
    ), 1),
    0, 5, 3,
)

# Two-run steps with a fixed run: SX.H beside a sampled RY, and RX(0.8)
# beside X, a step whose 4x4 is shared by every sample.
FIXED_RUN_BLOCKS = (
    Circuit(3, (
        Gate(GateKind.SX, (1,)), Gate(GateKind.H, (1,)), Gate(GateKind.RY, (0,), Affine(0, 1, 0.4)),
        Gate(GateKind.CX, (1, 0)),
        Gate(GateKind.X, (2,)), Gate(GateKind.RX, (0,), Const(0.8)), Gate(GateKind.SWAP, (0, 2)),
        Gate(GateKind.RZ, (1,), Affine(1, -1, 1.7)), Gate(GateKind.H, (2,)), Gate(GateKind.CX, (2, 1)),
        Gate(GateKind.RY, (1,), Affine(1, 1, 0.3)),
    ), 2),
    1, 4, 5,
)


# Two gateless pairs: CX(0, 1) meets a held run on qubit 0 only, and takes
# the complete run on qubit 2 into its step; CX(2, 0) then meets RY on
# qubit 0 only, and takes RX on qubit 1. Both symbols occur on both wires
# of a pair.
GATELESS_PAIRS = (
    Circuit(3, (
        Gate(GateKind.RY, (2,), Affine(0, 1, 0.6)), Gate(GateKind.SX, (2,)),
        Gate(GateKind.RZ, (0,), Affine(1, -1, 1.2)), Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1)),
        Gate(GateKind.RX, (1,), Affine(0, 1, 2.5)), Gate(GateKind.RY, (0,), Affine(1, 1, 0.9)),
        Gate(GateKind.CX, (2, 0)), Gate(GateKind.CX, (1, 0)),
    ), 2),
    0, 5, 13,
)


# Five-qubit cones that end the cost qubit on bit 3 of a five-qubit
# register, not the top bit, so the costate starts on a middle bit: in two
# planes, and in one (RX on qubit 1 is outside the second cone). Each
# rotation has its own symbol. The leading H gates take qubits out of |0>
# early: without them, CXs whose control is |0> would be dropped and SWAPs
# with a |0> qubit relabelled, and the register would end at two qubits.
COST_BIT_THREE_TWO_PLANES = (
    Circuit(5, (
        Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,)),
        Gate(GateKind.SWAP, (1, 0)), Gate(GateKind.CX, (0, 2)), Gate(GateKind.RX, (4,), Affine(0, 1, 0.0)),
        Gate(GateKind.CX, (1, 3)), Gate(GateKind.SWAP, (0, 4)), Gate(GateKind.RX, (0,), Affine(1, 1, 0.0)),
        Gate(GateKind.RY, (1,), Affine(2, 1, 0.0)), Gate(GateKind.RZ, (3,), Affine(3, 1, 0.0)),
        Gate(GateKind.RZ, (2,), Affine(4, 1, 0.0)), Gate(GateKind.CX, (1, 0)),
    ), 5),
    0, 5, 3,
)
COST_BIT_THREE_ONE_PLANE = (
    Circuit(5, (
        Gate(GateKind.H, (2,)),
        Gate(GateKind.CX, (2, 3)), Gate(GateKind.SWAP, (3, 2)), Gate(GateKind.CX, (3, 0)), Gate(GateKind.CX, (0, 1)),
        Gate(GateKind.RY, (4,), Affine(0, 1, 0.0)), Gate(GateKind.RY, (0,), Affine(1, 1, 0.0)),
        Gate(GateKind.RX, (1,), Affine(2, 1, 0.0)), Gate(GateKind.CX, (4, 0)), Gate(GateKind.SWAP, (3, 4)),
        Gate(GateKind.CX, (4, 2)),
    ), 3),
    0, 5, 3,
)


@pytest.mark.parametrize(
    "case,planes", [(COST_BIT_THREE_TWO_PLANES, 2), (COST_BIT_THREE_ONE_PLANE, 1)], ids=["two-planes", "one-plane"]
)
def test_cost_bit_three_examples_keep_their_plan(case, planes):
    circuit, cost_qubit, _, _ = case
    n, steps, cost_bit, got_planes = grad._plan(circuit, cost_qubit)
    register = sum(step[1] for step in steps if not isinstance(step, np.ndarray))
    assert (n, register, cost_bit, got_planes) == (5, 5, 3, planes)


# A finished qubit parked on bit 0: RX on qubit 2 joins it on bit 2 and
# CX(2, 1) is its last gate, while qubit 1 sits on bit 0 with CX(1, 0)
# ahead. The gather before RY on qubit 0 trades bits 0 and 2, so the
# last gather, CX(1, 0), moves two-amplitude chunks.
PARKED_QUBIT = (
    Circuit(3, (
        Gate(GateKind.RY, (1,), Affine(0, 1, 0.3)), Gate(GateKind.RY, (0,), Affine(1, -1, 1.1)),
        Gate(GateKind.CX, (1, 0)), Gate(GateKind.RX, (2,), Affine(2, 1, 0.4)), Gate(GateKind.CX, (2, 1)),
        Gate(GateKind.RY, (0,), Affine(0, 1, 2.0)), Gate(GateKind.CX, (1, 0)),
        Gate(GateKind.RX, (0,), Affine(2, -1, 0.7)),
    ), 3),
    0, 5, 23,
)


def test_parked_qubit_example_keeps_its_plan():
    circuit, cost_qubit, _, _ = PARKED_QUBIT
    _, steps, cost_bit, _ = grad._plan(circuit, cost_qubit)
    gathers = [step for step in steps if isinstance(step, np.ndarray)]
    # chunks of one amplitude at a = 2 and 3 (the trade itself), then of two
    assert [g.shape[1] for g in gathers] == [4, 8, 4] and cost_bit == 2


@PROPERTY_SETTINGS
@given(circuits())
@example(FIXED_RUNS)
@example(FIXED_RUN_BLOCKS)
@example(GATELESS_PAIRS)
@example(COST_BIT_THREE_TWO_PLANES)
@example(COST_BIT_THREE_ONE_PLANE)
@example(PARKED_QUBIT)
def test_batched_equals_literal_shift_rule(case):
    circuit, cost_qubit, batch, seed = case
    assert_equals_literal_shift_rule(circuit, grad.sample_thetas(seed, batch, circuit.num_symbols), cost_qubit)


@PROPERTY_SETTINGS
@given(run_heavy_circuits())
@example(ONE_RUN)
@example(FIXED_RUNS)
def test_fused_runs_equal_literal_shift_rule(case):
    circuit, cost_qubit, batch, seed = case
    assert_equals_literal_shift_rule(circuit, grad.sample_thetas(seed, batch, circuit.num_symbols), cost_qubit)


# Two two-run steps: CX(1, 0) after runs on both wires, then SWAP(0, 2)
# after a run on qubit 2 and another on qubit 0; symbol 0 occurs on three
# wires.
TWO_BLOCKS = (
    Circuit(3, (
        Gate(GateKind.RY, (0,), Affine(0, 1, 0.2)), Gate(GateKind.SX, (1,)),
        Gate(GateKind.RZ, (1,), Affine(0, -1, 1.3)), Gate(GateKind.CX, (1, 0)),
        Gate(GateKind.RX, (2,), Const(0.7)), Gate(GateKind.RY, (2,), Affine(1, -1, 2.0)),
        Gate(GateKind.H, (0,)), Gate(GateKind.RZ, (0,), Affine(0, 1, 3.1)), Gate(GateKind.SWAP, (0, 2)),
        Gate(GateKind.RY, (1,), Affine(1, 1, 0.0)),
    ), 2),
    1, 5, 7,
)


@PROPERTY_SETTINGS
@given(block_heavy_circuits())
@example(TWO_BLOCKS)
@example(FIXED_RUN_BLOCKS)
def test_blocks_equal_literal_shift_rule(case):
    circuit, cost_qubit, batch, seed = case
    assert_equals_literal_shift_rule(circuit, grad.sample_thetas(seed, batch, circuit.num_symbols), cost_qubit)


@PROPERTY_SETTINGS
@given(block_heavy_circuits())
@example(TWO_BLOCKS)
@example(FIXED_RUN_BLOCKS)
def test_blocks_block_size_never_changes_bits(case):
    assert_block_size_never_changes_bits(case)


@PROPERTY_SETTINGS
@given(circuits())
@example(FIXED_RUNS)
@example(FIXED_RUN_BLOCKS)
@example(GATELESS_PAIRS)
def test_block_size_never_changes_bits(case):
    assert_block_size_never_changes_bits(case)


@PROPERTY_SETTINGS
@given(run_heavy_circuits())
@example(ONE_RUN)
@example(FIXED_RUNS)
def test_fused_runs_block_size_never_changes_bits(case):
    assert_block_size_never_changes_bits(case)


def assert_block_size_never_changes_bits(case):
    circuit, cost_qubit, batch, seed = case
    thetas = grad.sample_thetas(seed, batch, circuit.num_symbols)
    row_bytes = (1 << len(grad._light_cone(circuit, cost_qubit)[1])) * 16
    # one row per block, blocks of 3 rows or more (unequal sizes unless 3
    # divides B), one block
    results = [
        gradients_in_blocks(block_bytes, circuit, thetas, cost_qubit)
        for block_bytes in (row_bytes, 3 * row_bytes, batch * row_bytes)
    ]
    for other in results[1:]:
        assert np.array_equal(results[0], other)


if __name__ == "__main__":
    # the child interpreter of ``pinned_kernel_rows``
    print(json.dumps(frozen_rows()))
