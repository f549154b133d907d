"""vqclab benchmark: end-to-end and per-layer metrics for two workloads.

    python3 perfbench/run.py --workload sweep_default --seed 1 --seconds 60 --trace 0

Workloads, metric names and units live in BENCHMARK.json at the repo root.
Each round of a workload runs in a fresh interpreter (perfbench/worker.py)
at VQCLAB_THREADS=1. With --trace 0 the run times set-up several times,
then runs untraced rounds until --seconds is used up; wall and CPU time are
sums over timed units of each unit's median over rounds, set-up and peak
RSS are medians. Times are scaled to reference host speed by a fixed
numpy probe run around every timed unit (perfbench/probe.py); the raw
times are printed beside them. Workers run with numpy's transparent huge
page advice off. With --trace 1 it runs one untraced round, one traced
round and, for sweep_default, one round on the thread pool, and reports
the per-layer metrics. Ops whose output disagrees across rounds, or with a
fixed reference, count as failed. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import PROBES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pool_threads() -> int:
    """Workers for the pooled sweep round: VQCLAB_THREADS if set, else nproc."""
    value = os.environ.get("VQCLAB_THREADS")
    if not value:
        return nproc()
    threads = int(value)
    if threads < 1:
        raise SystemExit(f"VQCLAB_THREADS must be >= 1, got {value!r}")
    if threads > nproc():
        print(f"warning: VQCLAB_THREADS={threads} exceeds nproc={nproc()}", file=sys.stderr)
    return threads


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return out.stdout.strip() or None


def worker(workload: str, seed: int, phase: str, *, threads=1, trace=False, check=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--phase", phase]
    cmd += ["--trace"] * trace + ["--check"] * check
    # Whether the kernel grants a huge page to numpy's large arrays depends
    # on how fragmented memory is, which other tenants change: it moves
    # GradVar at n = 12 by ~20 % and adds compaction stalls. Without the
    # advice every buffer takes 4 KiB pages, the same on every run.
    env = dict(os.environ, VQCLAB_THREADS=str(threads), NUMPY_MADVISE_HUGEPAGE="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(cmd[2:])} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(rounds: list[dict]) -> tuple[int, dict[str, str]]:
    """Attempted ops and failures over rounds; an op whose digest differs
    from the first round that produced one fails in the differing round."""
    attempted = 0
    failures: dict[str, str] = {}
    reference: dict[str, str] = {}
    for i, r in enumerate(rounds):
        attempted += len(r["ops"])
        for op, reason in r["failures"].items():
            failures[f"round{i}:{op}"] = reason
        for op, digest in r["ops"].items():
            if digest is None:
                continue
            ref = reference.setdefault(op, digest)
            if digest != ref:
                failures.setdefault(f"round{i}:{op}", f"output digest {digest[:12]} != {ref[:12]} of an earlier round")
    return attempted, failures


def sum_of_medians(rounds: list[dict], column: int) -> float:
    """Sum over timed units (the whole sweep, one GradVar or fidelity call)
    of the unit's median over rounds: a stall during one unit of one round
    does not move the result."""
    units = {u for r in rounds for u in r["times"]}
    return sum(statistics.median(r["times"][u][column] for r in rounds if u in r["times"]) for u in units)


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    setups = [worker(workload, seed, "setup") for _ in range(SETUP_REPEATS)]
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(worker(workload, seed, "round", check=not rounds))
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    processes = setups + rounds
    raw = {
        "wall_s": sum_of_medians(rounds, 0),
        "cpu_s": sum_of_medians(rounds, 1),
        "setup_s": statistics.median(r["setup_s"] for r in processes),
        "probe_wall_s": statistics.median(p[0] for r in processes for p in r["probes"]),
        "probe_cpu_s": statistics.median(p[1] for r in processes for p in r["probes"]),
    }
    print("raw " + json.dumps(raw))
    reference_s = PROBES[workload][2]
    wall_scale, cpu_scale = reference_s / raw["probe_wall_s"], reference_s / raw["probe_cpu_s"]
    metrics = {
        "wall_ref_s": raw["wall_s"] * wall_scale,
        "cpu_ref_s": raw["cpu_s"] * cpu_scale,
        "setup_s": raw["setup_s"] * wall_scale,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
    }
    return metrics, rounds


def traced(workload: str, seed: int, threads: int) -> tuple[dict, list[dict]]:
    plain = worker(workload, seed, "round", check=True)
    trace = worker(workload, seed, "round", trace=True)
    rounds = [plain, trace]
    layers = dict(trace["layers"])
    layers["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    if workload == "sweep_default":
        pooled = worker(workload, seed, "round", threads=threads)
        rounds.append(pooled)
        layers["harness.serial_wall_s"] = plain["wall_s"]
        layers["harness.pool_speedup"] = plain["wall_s"] / pooled["wall_s"]
        layers["harness.pool_efficiency"] = layers["harness.pool_speedup"] / threads
        print("top cells (traced s): " + "; ".join(f"{name} {s:.3f}" for s, name in trace["top_cells"]))
    return layers, rounds


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vqclab" / "__init__.py").is_file():
        print(f"no vqclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = pool_threads()
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": nproc(),
        "VQCLAB_THREADS": {"timed_rounds": 1, "pooled_round": threads},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": git_commit(),
    }
    print("env " + json.dumps(env))

    if args.trace:
        values, rounds = traced(args.workload, args.seed, threads)
        wanted = spec["per_layer"]
    else:
        values, rounds = untraced(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    attempted, failures = tally(rounds)
    for op, reason in sorted(failures.items()):
        print(f"FAILED {op}: {reason}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(rounds)}  ops_failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
