"""Command-line interface.

Subcommands: build, transpile, expect, gradvar, sweep. Circuits travel as
the line-based text format, backends as ``line:n`` / ``heavy-hex:R,C`` /
JSON path references, and provenance as a JSON map from physical symbol
id to its origin.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .ansatz import build_ansatz
from .backend import resolve_backend
from .circuit import Affine, Circuit, bind, free_all_angles, load_circuit, save_circuit
from .grad import ReparamMode, grad_variance
from .harness import SweepConfig, emit_csv, emit_heatmap_svg, run_sweep
from .sim import expect_z
from .transpiler import load_provenance, overhead, rebind_symbol_derived, save_provenance, transpile


def _cmd_build(args: argparse.Namespace) -> int:
    circuit = build_ansatz(args.ansatz, args.qubits, args.reps)
    save_circuit(circuit, args.out)
    print(f"wrote {args.out}: {circuit.num_qubits} qubits, {len(circuit.gates)} gates, "
          f"{circuit.num_symbols} parameters")
    return 0


def _cmd_transpile(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.inp)
    backend = resolve_backend(args.backend)
    t = transpile(circuit, backend, layout_seed=args.layout_seed)
    save_circuit(t.physical, args.out)
    if args.provenance:
        save_provenance(t.provenance, args.provenance)
    report = overhead(t, args.reps or 0)
    after = t.metrics_after
    print(f"wrote {args.out}: {after.g1q} 1q + {after.g2q} 2q gates, depth {after.dag_depth}, "
          f"{after.num_symbols} physical parameters")
    print(f"deltas: g1q {report.delta_g1q:+d}, g2q {report.delta_g2q:+d}, depth {report.delta_depth_dag:+d}")
    if args.reps:
        print(f"depth vs repetitions: {report.delta_depth_paper:+d}")
    print(f"final layout: {list(t.final_layout)}")
    return 0


def _read_theta(path: str) -> list[float]:
    return [float(tok) for tok in Path(path).read_text(encoding="utf-8").split()]


def _cmd_expect(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.inp)
    theta = _read_theta(args.theta) if args.theta else []
    print(f"{expect_z(bind(circuit, theta), args.qubit)!r}")
    return 0


def _symbol_derived(circuit: Circuit, provenance_path: str) -> Circuit:
    """The physical circuit over the logical symbols its provenance file names."""
    provenance = load_provenance(provenance_path)
    num_logical = 1 + max((o.symbol for o in provenance if isinstance(o, Affine)), default=-1)
    return rebind_symbol_derived(circuit, provenance, num_logical)


def _cmd_gradvar(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.inp)
    mode = ReparamMode(args.mode)
    if mode is ReparamMode.ALL_ANGLES:
        circuit = free_all_angles(circuit)
    elif not args.provenance:
        raise ValueError("--mode symbol-derived needs --provenance, the origin map written by transpile")
    else:
        circuit = _symbol_derived(circuit, args.provenance)
    stats = grad_variance(circuit, args.samples, args.seed, args.cost_qubit)
    payload = asdict(stats)
    payload["stderr"] = stats.stderr
    print(json.dumps(payload, indent=2))
    return 0


def _load_sweep_config(args: argparse.Namespace) -> SweepConfig:
    """The JSON config with the flags that were given merged in, validated once."""
    payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{args.config}: a sweep config must be a JSON object, got {type(payload).__name__}")
    flags = {"out_csv": args.out_csv, "out_dir": args.out_dir, "meta_seeds": args.meta_seeds}
    payload.update({name: value for name, value in flags.items() if value is not None})
    try:
        return SweepConfig(**payload)
    except TypeError as e:  # an unknown or missing field, or a value of the wrong type
        raise ValueError(f"{args.config}: {e}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_sweep_config(args)

    def progress(record, done, total):
        status = f"error: {record.error}" if record.error else (
            f"dGradVar {record.delta_gradvar:+.3g} dG2q {record.delta_g2q:+d}"
        )
        print(f"[{done}/{total}] {record.ansatz} n={record.n} L={record.reps} {status} "
              f"({record.wall_time:.1f}s)")

    records = run_sweep(config, resume=args.resume, progress=progress)
    if config.out_csv:
        emit_csv(records, config.out_csv)
        print(f"wrote {config.out_csv}")
    if config.out_dir:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for kind in config.ansatz:
            path = out_dir / f"delta_gradvar_{kind}.svg"
            emit_heatmap_svg(records, kind, path)
            print(f"wrote {path}")
    failures = [r for r in records if r.error]
    if failures:
        print(f"{len(failures)} cell(s) failed; see the JSONL checkpoint for details")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="vqclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an ansatz circuit and write it as text")
    p.add_argument("--ansatz", required=True, choices=["efficient_su2", "ttn", "real_amplitudes"])
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("transpile", help="compile a circuit text file for a backend")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--backend", required=True, help="line:n, heavy-hex:R,C or a JSON path")
    p.add_argument("--out", required=True)
    p.add_argument("--provenance", help="write the physical-symbol origin map as JSON")
    p.add_argument("--layout-seed", type=int, default=None)
    p.add_argument("--reps", type=int, default=None, help="repetition count for the depth delta")
    p.set_defaults(func=_cmd_transpile)

    p = sub.add_parser("expect", help="evaluate <Z_qubit> for a bound circuit")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--theta", help="whitespace-separated parameter file")
    p.add_argument("--qubit", type=int, default=0)
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("gradvar", help="gradient variance of a circuit text file")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mode", choices=[m.value for m in ReparamMode], default=ReparamMode.ALL_ANGLES.value)
    p.add_argument("--cost-qubit", type=int, default=0)
    p.add_argument("--provenance", help="origin map JSON for symbol-derived mode")
    p.set_defaults(func=_cmd_gradvar)

    p = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-csv")
    p.add_argument("--out-dir")
    p.add_argument("--meta-seeds", type=int, default=None)
    p.add_argument("--resume", action="store_true", help="reuse cells from the JSONL checkpoint")
    p.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
