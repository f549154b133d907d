#!/usr/bin/env python3
"""End-to-end sweep: trainability shift across sizes, CSV plus heatmaps.

A reduced grid keeps this demo fast (about a second). The full-size
configuration used by the acceptance suite is `default_sweep_config()`;
the same artifacts can also be produced with the CLI:

    vqclab sweep --config sweep.json --out-csv results.csv --out-dir maps/
"""

from pathlib import Path

from vqclab import SweepConfig, emit_csv, emit_heatmap_svg, run_sweep

OUT = Path(__file__).parent / "output"

CONFIG = SweepConfig(
    ansatz=["efficient_su2", "ttn", "real_amplitudes"],
    qubits=[2, 4, 6],
    reps=[1, 2, 4],
    samples=200,
    base_seed=42,
    backend="heavy-hex:5,11",
)


def main():
    OUT.mkdir(exist_ok=True)

    def progress(record, done, total):
        tag = f"error: {record.error}" if record.error else f"dGradVar {record.delta_gradvar:+.3e}"
        print(f"  [{done:2d}/{total}] {record.ansatz:<16} n={record.n} L={record.reps}  {tag}")

    records = run_sweep(CONFIG, progress=progress)

    csv_path = OUT / "sweep.csv"
    emit_csv(records, csv_path)
    print(f"\nwrote {csv_path}")
    for kind in CONFIG.ansatz:
        path = OUT / f"delta_gradvar_{kind}.svg"
        emit_heatmap_svg(records, kind, path)
        print(f"wrote {path}")

    print("\nstructural growth (delta 2q gates) by cell:")
    for kind in CONFIG.ansatz:
        row = [r for r in records if r.ansatz == kind]
        cells = " ".join(f"n{r.n}L{r.reps}:{r.delta_g2q:+d}" for r in row)
        print(f"  {kind:<16} {cells}")


if __name__ == "__main__":
    main()
