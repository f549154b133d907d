"""One benchmark round of one workload, in a fresh interpreter.

run.py starts this script once per set-up sample and once per round, so
rounds never share heap or caches:

    python3 perfbench/worker.py --workload W --seed N --phase setup
    python3 perfbench/worker.py --workload W --seed N --phase round [--trace] [--check]

The last line of standard output is one JSON object: set-up time; wall
and CPU time per timed unit and their sums; the times of the host-speed
probe (probe.py), run before and after every timed unit; peak RSS without
the probe's buffers; one digest per op,
which run.py compares across rounds; the failed ops with their reasons;
and, with --trace, the per-layer totals. --check adds the checks against
fixed references (the committed golden CSV, the literal parameter-shift
rule).
Only the calls into the library are timed, never the checks.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # set-up time includes the library import

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import vqclab
from vqclab import ansatz, backend, grad, harness, sim, transpiler, verify

from probe import PROBES, Probe
from tracer import Tracer, patch

if not Path(vqclab.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"vqclab was imported from {vqclab.__file__}, not from {ROOT / 'src'}")

HERE = Path(__file__).resolve().parent
GOLDEN_CSV = HERE / "golden" / "sweep_default_seed42.csv"
GOLDEN_SHA256 = "797b12f3e232b2dd2d578fd3272fd8e2da7b9d3e9c106dcb8ce162195febe5c3"

# Memory guard: every (B, 2**n) complex128 buffer the engine allocates is
# refused above this size. The adjoint sweep keeps about five such
# buffers alive, so this caps a call near 320 MiB. Without it, a circuit
# routed onto 23 heavy-hex qubits asks for 27 GB per buffer at B=200.
BUFFER_BUDGET_BYTES = 64 << 20

# sweep_default: the stock config cut to reps 1 and 2 (30 of its 90 cells,
# all families, n = 2..10): ~12 s a round, where the full sweep takes ~110 s.
SWEEP_REPS = [1, 2]
# Cells per family checked byte for byte against the golden CSV at seed 42.
GOLDEN_CHECK_QUBITS = 2

# gradvar_n12: B=200 states of 12 qubits are 13 MB per buffer, past the
# per-core L2, so the kernels move bytes rather than dispatch calls. Each
# transpile is also certified by statevector fidelity (B=1, dispatch-bound).
GRADVAR_BACKEND = "line:12"
GRADVAR_FAMILIES = ("ttn", "real_amplitudes")
GRADVAR_QUBITS = 12
GRADVAR_REPS = 1
GRADVAR_SAMPLES = 200
FIDELITY_FLOOR = 1 - 1e-10
LITERAL_TOLERANCE = 1e-12


# Probe runs at each point where the host speed is sampled: one probe run
# varies by ~10 %, and the run's scale is the median of all of them.
PROBE_RUNS = 3


class BudgetExceeded(MemoryError):
    pass


def check_budget(batch: int, qubits: int) -> None:
    need = batch * (1 << qubits) * 16
    if need > BUFFER_BUDGET_BYTES:
        raise BudgetExceeded(
            f"refused: {batch} x 2^{qubits} x 16 B = {need / 2**20:.0f} MiB per buffer "
            f"exceeds the {BUFFER_BUDGET_BYTES >> 20} MiB budget"
        )


def install_guard() -> None:
    def guard_gradvar(fn):
        def guarded(circuit, samples, *args, **kwargs):
            check_budget(samples, circuit.num_qubits)
            return fn(circuit, samples, *args, **kwargs)

        return guarded

    def guard_simulate(fn):
        def guarded(circuit, *args, **kwargs):
            check_budget(1, circuit.num_qubits)
            return fn(circuit, *args, **kwargs)

        return guarded

    patch(grad, "grad_variance", guard_gradvar)
    patch(sim, "simulate", guard_simulate)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Round:
    """Outcome of one round: time per timed unit, a digest per op and a
    reason per failed op. With a probe, the probe runs before each timed
    unit; the caller runs it once more after the last."""

    def __init__(self, probe: Probe | None = None) -> None:
        self.probe = probe
        self.probes: list[tuple[float, float]] = []  # (wall_s, cpu_s) of each probe run
        self.times: dict[str, list[float]] = {}  # unit -> [wall_s, cpu_s]
        self.ops: dict[str, str | None] = {}
        self.failures: dict[str, str] = {}
        self.notes: dict = {}

    def run_probe(self) -> None:
        if self.probe is not None:
            self.probes += [self.probe.run() for _ in range(PROBE_RUNS)]

    @contextlib.contextmanager
    def timed(self, unit: str):
        self.run_probe()
        w, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.times[unit] = [time.perf_counter() - w, time.process_time() - c]

    def fail(self, op: str, reason: str) -> None:
        self.ops.setdefault(op, None)
        self.failures.setdefault(op, reason)


# ---------------------------------------------------------------------------
# sweep_default


def read_rows(path: Path) -> tuple[str, dict[tuple[str, str, str], str]]:
    """CSV header and data rows keyed by (ansatz, n, reps)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], {tuple(line.split(",")[:3]): line for line in lines[1:]}


def golden_rows() -> tuple[str, dict[tuple[str, str, str], str]]:
    if hashlib.sha256(GOLDEN_CSV.read_bytes()).hexdigest() != GOLDEN_SHA256:
        raise SystemExit(f"{GOLDEN_CSV} does not hash to {GOLDEN_SHA256}")
    return read_rows(GOLDEN_CSV)


def sweep_setup(seed: int, out: Path):
    config = harness.default_sweep_config(base_seed=seed, reps=SWEEP_REPS, out_jsonl=str(out / "sweep.jsonl"))
    backend.resolve_backend(config.backend)
    return config


def sweep_round(config, out: Path, result: Round) -> None:
    cells = harness.enumerate_cells(config)
    try:
        with result.timed("sweep"):
            records = harness.run_sweep(config)
            harness.emit_csv(records, out / "sweep.csv")
            for family in config.ansatz:
                harness.emit_heatmap_svg(records, family, out / f"delta_gradvar_{family}.svg")
    except Exception as e:  # noqa: BLE001 - a broken sweep fails every cell, the run goes on
        for _, kind, n, reps, _ in cells:
            result.fail(f"{kind}:{n}:{reps}", f"{type(e).__name__}: {e}")
        return

    golden_header, golden = golden_rows()
    header, rows = read_rows(out / "sweep.csv")
    errors = {(r.ansatz, str(r.n), str(r.reps)): r.error for r in records if r.error}
    jsonl_lines = len((out / "sweep.jsonl").read_text(encoding="utf-8").splitlines())
    svgs = [out / f"delta_gradvar_{f}.svg" for f in config.ansatz]
    emitted_ok = (
        header == golden_header
        and jsonl_lines == len(cells)
        and all(p.is_file() and p.stat().st_size > 0 for p in svgs)
    )
    for _, kind, n, reps, seed in cells:
        key = (kind, str(n), str(reps))
        op = ":".join(key)
        row = rows.get(key)
        if key in errors:
            result.fail(op, errors[key])
        elif row is None:
            result.fail(op, "no CSV row")
        elif not emitted_ok:
            result.fail(op, f"bad header, {jsonl_lines} JSONL lines or a missing SVG")
        else:
            fields, ref = row.split(","), golden[key].split(",")
            # structure columns do not depend on the seed; the seed column must follow the cell index
            if fields[:15] != ref[:15] or fields[20] != str(seed):
                result.fail(op, f"row {row!r} disagrees with golden {golden[key]!r} outside the GradVar columns")
            result.ops[op] = sha(row)
    result.notes["jsonl_bytes"] = (out / "sweep.jsonl").stat().st_size


def sweep_golden_check(out: Path, result: Round) -> None:
    """Rerun the first GOLDEN_CHECK_QUBITS qubit counts of every family at the
    golden seed, with cell seeds aligned to the full sweep, and require
    their CSV rows to equal the golden rows byte for byte."""
    golden_header, golden = golden_rows()
    full = harness.default_sweep_config()
    per_family = len(full.qubits) * len(full.reps)
    for k, family in enumerate(full.ansatz):
        config = harness.default_sweep_config(
            ansatz=[family],
            qubits=full.qubits[:GOLDEN_CHECK_QUBITS],
            base_seed=full.base_seed + harness.CELL_SEED_STRIDE * per_family * k,
        )
        path = out / f"golden_{family}.csv"
        try:
            harness.emit_csv(harness.run_sweep(config), path)
            header, rows = read_rows(path)
        except Exception as e:  # noqa: BLE001 - reported as failed ops below
            header, rows = f"{type(e).__name__}: {e}", {}
        for _, kind, n, reps, _ in harness.enumerate_cells(config):
            key = (kind, str(n), str(reps))
            op = "golden:" + ":".join(key)
            result.ops[op] = sha(rows.get(key, ""))
            if header != golden_header or rows.get(key) != golden[key]:
                result.fail(op, f"seed-42 row {rows.get(key)!r} != golden {golden[key]!r} (header {header!r})")


# ---------------------------------------------------------------------------
# gradvar_n12


def gradvar_setup(seed: int, out: Path):
    device = backend.resolve_backend(GRADVAR_BACKEND)
    transpiled, circuits = [], []
    for family in GRADVAR_FAMILIES:
        logical = ansatz.build_ansatz(family, GRADVAR_QUBITS, GRADVAR_REPS)
        t = transpiler.transpile(logical, device)
        theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, logical.num_symbols)
        transpiled.append((f"{family}:certify", logical, t, theta))
        circuits.append((f"{family}:logical", logical, 0))
        for mode in grad.ReparamMode:
            circuits.append((f"{family}:{mode.value}", grad.reparameterize(t, mode), t.cost_qubit))
    return seed, transpiled, circuits


def stats_digest(stats) -> str:
    values = (*stats.per_param_var, *stats.per_param_mean, stats.grad_var)
    return sha(",".join(float(v).hex() for v in values))


def gradvar_round(state, out: Path, result: Round) -> None:
    seed, transpiled, circuits = state
    for op, logical, t, theta in transpiled:
        try:
            with result.timed(op):
                fidelity = verify.logical_physical_fidelity(logical, t, theta)
        except Exception as e:  # noqa: BLE001 - one bad call is one failed op
            result.fail(op, f"{type(e).__name__}: {e}")
            continue
        result.ops[op] = float(fidelity).hex()
        if not fidelity >= FIDELITY_FLOOR:
            result.fail(op, f"fidelity {fidelity!r} < {FIDELITY_FLOOR!r}")
    for op, circuit, cost_qubit in circuits:
        try:
            with result.timed(op):
                stats = grad.grad_variance(circuit, GRADVAR_SAMPLES, seed, cost_qubit)
        except Exception as e:  # noqa: BLE001 - one bad call is one failed op
            result.fail(op, f"{type(e).__name__}: {e}")
            continue
        result.ops[op] = stats_digest(stats)


def literal_gradient_check(circuits, seed: int, result: Round) -> None:
    """The batched engine's gradient of each of two samples must equal the
    literal parameter-shift rule to LITERAL_TOLERANCE.

    Through the public API a two-sample ``grad_variance`` gives the mean
    m and variance v = (g0 - g1)^2 / 2 of the two gradients, so
    g0,1 = m +- sign(p0 - p1) sqrt(v / 2) with p the literal gradients.
    """
    for op, circuit, cost_qubit in circuits:
        try:
            stats = grad.grad_variance(circuit, 2, seed, cost_qubit)
            thetas = grad.sample_thetas(seed, 2, circuit.num_symbols)
            p0, p1 = (grad.param_shift_gradient(circuit, th, cost_qubit) for th in thetas)
        except Exception as e:  # noqa: BLE001
            result.fail(op, f"literal check raised {type(e).__name__}: {e}")
            continue
        mean = np.array(stats.per_param_mean)
        half = np.sqrt(np.maximum(np.array(stats.per_param_var), 0.0) / 2) * np.sign(p0 - p1)
        err = float(max(np.max(np.abs(mean + half - p0)), np.max(np.abs(mean - half - p1))))
        if not err <= LITERAL_TOLERANCE:
            result.fail(op, f"batched gradient differs from the literal shift rule by {err:.3g}")


# ---------------------------------------------------------------------------


SETUPS = {"sweep_default": sweep_setup, "gradvar_n12": gradvar_setup}
ROUNDS = {"sweep_default": sweep_round, "gradvar_n12": gradvar_round}


def run(workload: str, seed: int, phase: str, trace: bool, check: bool, out: Path) -> dict:
    install_guard()
    tracer = Tracer()
    if trace:
        tracer.install()
        tracer.enabled = True
    state = SETUPS[workload](seed, out)
    setup_s = time.perf_counter() - SETUP_START
    probe = Probe(*PROBES[workload][:2])
    result = Round(probe)
    if phase == "round":
        ROUNDS[workload](state, out, result)
    result.run_probe()
    tracer.enabled = False
    report: dict = {"setup_s": setup_s, "probes": result.probes}
    if phase == "setup":
        return report
    if check and workload == "sweep_default":
        sweep_golden_check(out, result)
    if check and workload == "gradvar_n12":
        literal_gradient_check(state[2], seed, result)

    wall_s = sum(t[0] for t in result.times.values())
    report.update(
        wall_s=wall_s,
        cpu_s=sum(t[1] for t in result.times.values()),
        times=result.times,
        peak_rss_mib=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - probe.nbytes) / 2**20,
        ops=result.ops,
        failures=result.failures,
    )
    if trace:
        layers = tracer.totals()
        if workload == "sweep_default":
            layers["harness.jsonl_bytes"] = result.notes.get("jsonl_bytes", 0)
        report["layers"] = layers
        report["top_cells"] = tracer.top_cells()
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SETUPS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "round"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    out = ROOT / ".perfbench_out" / str(os.getpid())
    out.mkdir(parents=True)
    try:
        report = run(args.workload, args.seed, args.phase, args.trace, args.check, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
