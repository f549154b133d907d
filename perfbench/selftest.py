"""Self-test of the benchmark's output checks (takes about a minute).

    python3 perfbench/selftest.py

Injects faults from outside the library and requires each to be counted
as a failed op: one flipped CSV byte, one perturbed gradient, and a
circuit over the memory budget. Then runs the full 90-cell default sweep
at base seed 42 and requires the CSV sha256 to equal the golden one.
Exits non-zero if any check does not hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import worker
from tracer import patch
from worker import ansatz, backend, grad, harness, transpiler

OUT = worker.ROOT / ".perfbench_out" / "selftest"


@contextlib.contextmanager
def patched(home, name, make_wrapper):
    saved = [(m, getattr(m, name)) for k, m in sys.modules.items() if k.split(".")[0] == "vqclab" and hasattr(m, name)]
    patch(home, name, make_wrapper)
    try:
        yield
    finally:
        for module, value in saved:
            setattr(module, name, value)


def flip_gradvar_byte(emit):
    """emit_csv that flips one digit of the last row's gradvar_log field."""

    def emit_flipped(records, path):
        emit(records, path)
        data = bytearray(Path(path).read_bytes())
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        pos = start + len(b",".join(bytes(data[start:]).split(b",")[:15])) + 1
        while not chr(data[pos]).isdigit() or data[pos] == ord("0"):
            pos += 1
        data[pos] = ord(str((int(chr(data[pos])) + 1) % 10))
        Path(path).write_bytes(bytes(data))

    return emit_flipped


def perturb_first_mean(fn):
    def perturbed(*args, **kwargs):
        stats = fn(*args, **kwargs)
        means = (stats.per_param_mean[0] + 1e-9, *stats.per_param_mean[1:])
        return dataclasses.replace(stats, per_param_mean=means)

    return perturbed


def fresh_dir() -> Path:
    return Path(tempfile.mkdtemp(dir=OUT))


def failures(rounds) -> int:
    return len(run.tally(rounds)[1])


def sweep_rounds(fault: bool) -> list:
    rounds = []
    for i in range(2):
        out = fresh_dir()
        config = harness.default_sweep_config(base_seed=1, qubits=[2, 4], reps=[1, 2], out_jsonl=str(out / "sweep.jsonl"))
        result = worker.Round()
        if fault and i == 1:
            with patched(harness, "emit_csv", flip_gradvar_byte):
                worker.sweep_round(config, out, result)
        else:
            worker.sweep_round(config, out, result)
        rounds.append({"ops": result.ops, "failures": result.failures})
    return rounds


def golden_round(fault: bool) -> list:
    out = fresh_dir()
    result = worker.Round()
    if fault:
        with patched(harness, "emit_csv", flip_gradvar_byte):
            worker.sweep_golden_check(out, result)
    else:
        worker.sweep_golden_check(out, result)
    return [{"ops": result.ops, "failures": result.failures}]


def small_circuits():
    logical = ansatz.build_ansatz("ttn", 4, 1)
    t = transpiler.transpile(logical, backend.resolve_backend("line:4"))
    return [("logical", logical, 0), ("physical", grad.reparameterize(t, grad.ReparamMode.ALL_ANGLES), t.cost_qubit)]


def gradvar_rounds(fault: bool) -> list:
    rounds = []
    for i in range(2):
        result = worker.Round()
        state = (7, [], small_circuits())
        if fault and i == 1:
            with patched(grad, "grad_variance", perturb_first_mean):
                worker.gradvar_round(state, OUT, result)
        else:
            worker.gradvar_round(state, OUT, result)
        rounds.append({"ops": result.ops, "failures": result.failures})
    return rounds


def literal_round(fault: bool) -> list:
    result = worker.Round()
    if fault:
        with patched(grad, "grad_variance", perturb_first_mean):
            worker.literal_gradient_check(small_circuits(), 7, result)
    else:
        worker.literal_gradient_check(small_circuits(), 7, result)
    return [{"ops": result.ops, "failures": result.failures}]


def over_budget_round() -> list:
    result = worker.Round()
    big = ansatz.build_ansatz("ttn", 20, 1)
    worker.gradvar_round((7, [], [("n20", big, 0)]), OUT, result)
    return [{"ops": {"n20": None}, "failures": result.failures}]


def full_golden_sha() -> str:
    path = OUT / "full.csv"
    start = time.perf_counter()
    harness.emit_csv(harness.run_sweep(harness.default_sweep_config()), path)
    print(f"full default sweep: {time.perf_counter() - start:.1f} s wall at VQCLAB_THREADS={os.environ.get('VQCLAB_THREADS', 'unset')}")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    worker.install_guard()
    checks = [
        ("sweep rounds agree", lambda: failures(sweep_rounds(False)) == 0),
        ("flipped CSV byte fails across rounds", lambda: failures(sweep_rounds(True)) >= 1),
        ("seed-42 rows equal golden", lambda: failures(golden_round(False)) == 0),
        ("flipped CSV byte fails against golden", lambda: failures(golden_round(True)) >= 1),
        ("gradvar rounds agree", lambda: failures(gradvar_rounds(False)) == 0),
        ("perturbed gradient fails across rounds", lambda: failures(gradvar_rounds(True)) >= 1),
        ("batched gradient equals literal rule", lambda: failures(literal_round(False)) == 0),
        ("perturbed gradient fails literal rule", lambda: failures(literal_round(True)) >= 1),
        ("over-budget call is refused and fails", lambda: failures(over_budget_round()) == 1),
        ("full default sweep hashes to golden", lambda: full_golden_sha() == worker.GOLDEN_SHA256),
    ]
    ok = True
    try:
        for name, check in checks:
            passed = check()
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {name}", flush=True)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
