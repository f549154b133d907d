"""Command-line interface.

Subcommands: build, transpile, expect, gradvar, sweep. Circuits travel as
the line-based text format, backends as ``line:n`` / ``heavy-hex:R,C`` /
JSON path references. A compiled circuit keeps the logical symbols and
the logical qubit order, so it binds from the logical parameter file and
holds logical qubit q on qubit q, the cost qubit 0 included.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .ansatz import AnsatzKind, build_ansatz
from .backend import SPEC_PREFIXES, resolve_backend
from .circuit import bind, free_all_angles, load_circuit, parse_float, parse_int, save_circuit
from .grad import ReparamMode, grad_variance
from .harness import SweepConfig, emit_csv, emit_heatmap_svg, run_sweep
from .sim import expect_z
from .transpiler import overhead, transpile


def _cmd_build(args: argparse.Namespace) -> int:
    circuit = build_ansatz(args.ansatz, args.qubits, args.reps)
    save_circuit(circuit, args.out)
    print(f"wrote {args.out}: {circuit.num_qubits} qubits, {len(circuit.gates)} gates, "
          f"{circuit.num_symbols} parameters")
    return 0


def _cmd_transpile(args: argparse.Namespace) -> int:
    if args.reps is not None and args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    circuit = load_circuit(args.inp)
    backend = resolve_backend(args.backend)
    t = transpile(circuit, backend, layout_seed=args.layout_seed)
    save_circuit(t.physical, args.out)
    report = overhead(t, args.reps or 0)
    after = t.metrics_after
    print(f"wrote {args.out}: {after.g1q} 1q + {after.g2q} 2q gates, depth {after.dag_depth}, "
          f"{free_all_angles(t.physical).num_symbols} physical parameters")
    print(f"deltas: g1q {report.delta_g1q:+d}, g2q {report.delta_g2q:+d}, depth {report.delta_depth_dag:+d}")
    if args.reps:
        print(f"depth vs repetitions: {report.delta_depth_paper:+d}")
    print(f"final layout: {list(t.final_layout)}")
    return 0


def _read_theta(path: str) -> list[float]:
    try:
        return [parse_float(tok) for tok in Path(path).read_text(encoding="utf-8").split()]
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _cmd_expect(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.inp)
    theta = _read_theta(args.theta) if args.theta else []
    print(f"{expect_z(bind(circuit, theta), args.qubit)!r}")
    return 0


def _cmd_gradvar(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.inp)
    if ReparamMode(args.mode) is ReparamMode.ALL_ANGLES:
        circuit = free_all_angles(circuit)
    stats = grad_variance(circuit, args.samples, args.seed, args.cost_qubit)
    payload = asdict(stats)
    payload["stderr"] = stats.stderr
    print(json.dumps(payload, indent=2))
    return 0


def _load_sweep_config(args: argparse.Namespace) -> SweepConfig:
    """The JSON config, validated once. With ``--out-csv`` the sweep
    checkpoints to the ``.jsonl`` next to the CSV, unless the config names
    its own ``out_jsonl``."""
    try:
        payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise TypeError(f"a sweep config must be a JSON object, got {type(payload).__name__}")
        if args.out_csv and payload.get("out_jsonl") is None:
            payload["out_jsonl"] = str(Path(args.out_csv).with_suffix(".jsonl"))
        return SweepConfig(**payload)
    except (TypeError, ValueError) as e:  # bad JSON, an unknown or missing field, or a bad value
        raise ValueError(f"{args.config}: {e}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_sweep_config(args)
    # the CSV and the checkpoint are two files, and neither is an input: the
    # config or a backend file. Checked before run_sweep, which appends to the
    # checkpoint and may truncate its last line
    csv, checkpoint = (Path(p).resolve() if p else None for p in (args.out_csv, config.out_jsonl))
    if csv is not None and csv == checkpoint:
        raise ValueError(f"--out-csv {args.out_csv} is the checkpoint {config.out_jsonl}; name another CSV")
    inputs = {Path(args.config).resolve(): f"the config {args.config}"}
    if not config.backend.startswith(SPEC_PREFIXES):
        inputs.setdefault(Path(config.backend).resolve(), f"the backend {config.backend}")
    for path, name in inputs.items():
        if csv == path:
            raise ValueError(f"--out-csv {args.out_csv} is {name}; name another CSV")
        if checkpoint == path:
            raise ValueError(f"the checkpoint {config.out_jsonl} is {name}; name another out_jsonl")

    def progress(record, done, total):
        status = f"error: {record.error}" if record.error else (
            f"dGradVar {record.delta_gradvar:+.3g} dG2q {record.delta_g2q:+d}"
        )
        print(f"[{done}/{total}] {record.ansatz} n={record.n} L={record.reps} {status} "
              f"({record.wall_time:.1f}s)")

    records = run_sweep(config, resume=args.resume, progress=progress)
    if args.out_csv:
        emit_csv(records, args.out_csv)
        print(f"wrote {args.out_csv}")
    failures = [r for r in records if r.error]
    if failures:
        where = (f"see the JSONL checkpoint {config.out_jsonl} for details" if config.out_jsonl
                 else "no checkpoint was kept, so each reason is on its progress line above")
        print(f"{len(failures)} cell(s) failed; {where}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for kind in config.ansatz:
            path = out_dir / f"delta_gradvar_{kind}.svg"
            emit_heatmap_svg(records, kind, path)
            print(f"wrote {path}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="vqclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an ansatz circuit and write it as text")
    p.add_argument("--ansatz", required=True, choices=[k.value for k in AnsatzKind])
    p.add_argument("--qubits", type=parse_int, required=True)
    p.add_argument("--reps", type=parse_int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("transpile", help="compile a circuit text file for a backend")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--backend", required=True, help="line:n, heavy-hex:R,C or a JSON path")
    p.add_argument("--out", required=True)
    p.add_argument("--layout-seed", type=parse_int, default=None)
    p.add_argument("--reps", type=parse_int, default=None, help="repetition count for the depth delta")
    p.set_defaults(func=_cmd_transpile)

    p = sub.add_parser("expect", help="evaluate <Z_qubit> for a bound circuit")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--theta",
                   help="whitespace-separated parameter file; a compiled circuit takes the logical one")
    p.add_argument("--qubit", type=parse_int, required=True,
                   help="a compiled circuit holds logical qubit q on qubit q")
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("gradvar", help="gradient variance of a circuit text file")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--samples", type=parse_int, default=200)
    p.add_argument("--seed", type=parse_int, default=42)
    p.add_argument("--mode", choices=[m.value for m in ReparamMode], default=ReparamMode.ALL_ANGLES.value)
    p.add_argument("--cost-qubit", type=parse_int, default=0, help="a compiled circuit holds logical qubit 0 on qubit 0")
    p.set_defaults(func=_cmd_gradvar)

    p = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-csv")
    p.add_argument("--out-dir")
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
