"""Experiment orchestration: sweeps over (ansatz, qubits, repetitions).

Each cell builds the logical circuit, transpiles it (so a cell that does
not fit the backend fails before any gradient work), re-parameterizes,
measures gradient variance on the logical and the physical cost qubit,
and records structural deltas alongside the trainability shift.
Cells run in a thread pool capped by the VQCLAB_THREADS environment
variable; per-cell seeding makes parallel and serial runs emit identical
results. The sweep takes the results in canonical cell order, so the
JSONL checkpoint lines and the progress calls come in that order at any
thread count. A config with ``out_csv`` checkpoints to the ``.jsonl``
file next to it unless it names ``out_jsonl``. Failures are captured per
cell and never abort the sweep.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from .ansatz import build_ansatz
from .backend import BackendModel, resolve_backend
from .circuit import Circuit
from .grad import ReparamMode, grad_variance, reparameterize
from .transpiler import overhead, transpile

CELL_SEED_STRIDE = 1000003


@dataclass
class SweepConfig:
    ansatz: list[str]
    qubits: list[int]
    reps: list[int]
    samples: int = 200
    base_seed: int = 42
    backend: str = "heavy-hex:5,11"
    mode: str = ReparamMode.ALL_ANGLES.value
    meta_seeds: int = 1
    out_csv: str | None = None
    out_dir: str | None = None
    out_jsonl: str | None = None

    def __post_init__(self) -> None:
        if not self.ansatz or not self.qubits or not self.reps:
            raise ValueError("ansatz, qubits and reps lists must be non-empty")
        if any(n < 2 for n in self.qubits):
            raise ValueError("qubit counts must be >= 2")
        if any(r < 1 for r in self.reps):
            raise ValueError("repetition counts must be >= 1")
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        if self.meta_seeds < 1:
            raise ValueError("meta_seeds must be >= 1")
        ReparamMode(self.mode)
        if self.out_jsonl is None and self.out_csv:
            self.out_jsonl = str(Path(self.out_csv).with_suffix(".jsonl"))


def default_sweep_config(**overrides) -> SweepConfig:
    """The stock sweep: all three families over a heavy-hex device."""
    base = dict(
        ansatz=["efficient_su2", "ttn", "real_amplitudes"],
        qubits=[2, 4, 6, 8, 10],
        reps=[1, 2, 4, 6, 8, 10],
        samples=200,
        base_seed=42,
        backend="heavy-hex:5,11",
    )
    base.update(overrides)
    return SweepConfig(**base)


@dataclass
class SweepRecord:
    ansatz: str
    n: int
    reps: int
    p_log: int = 0
    p_phys: int = 0
    g1q_log: int = 0
    g1q_phys: int = 0
    g2q_log: int = 0
    g2q_phys: int = 0
    depth_log: int = 0
    depth_phys: int = 0
    delta_g1q: int = 0
    delta_g2q: int = 0
    delta_depth_dag: int = 0
    delta_depth_paper: int = 0
    gradvar_log: float = 0.0
    gradvar_phys: float = 0.0
    delta_gradvar: float = 0.0
    stderr_log: float = 0.0
    stderr_phys: float = 0.0
    seed: int = 0
    wall_time: float = 0.0
    error: str | None = None


# The CSV columns: every SweepRecord field but the two that describe the
# run rather than the result, each with the type that parses it.
_CSV_COLUMNS = [
    (f.name, {"str": str, "int": int, "float": float}[f.type])
    for f in fields(SweepRecord)
    if f.name not in ("wall_time", "error")
]
CSV_HEADER = ",".join({"p_log": "P_log", "p_phys": "P_phys"}.get(name, name) for name, _ in _CSV_COLUMNS)

# Config fields that decide a cell's result beyond its own (ansatz, n, reps,
# seed), with the value a checkpoint line that lacks the field stands for.
_RUN_FIELDS = {"samples": None, "mode": None, "backend": None, "meta_seeds": 1}


def _gradvar_with_meta(
    circuit: Circuit, samples: int, seed: int, cost_qubit: int, meta_seeds: int
) -> tuple[float, float]:
    """GradVar and its standard error, averaging over meta seeds when asked.

    With one meta seed the stderr falls back to the analytic
    grad_var * sqrt(2/(samples-1)) approximation; with several it is the
    empirical standard error of the per-seed GradVar values.
    """
    stats = grad_variance(circuit, samples, seed, cost_qubit)
    if meta_seeds == 1:
        return stats.grad_var, stats.stderr
    values = [stats.grad_var]
    values += [
        grad_variance(circuit, samples, seed + r, cost_qubit).grad_var for r in range(1, meta_seeds)
    ]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var / len(values))


def cell_seed(base_seed: int, cell_index: int) -> int:
    return base_seed + CELL_SEED_STRIDE * cell_index


def enumerate_cells(config: SweepConfig) -> list[tuple[int, str, int, int, int]]:
    """Canonical cell order: ansatz-major, then qubits, then reps."""
    cells = []
    index = 0
    for kind in config.ansatz:
        for n in config.qubits:
            for reps in config.reps:
                cells.append((index, kind, n, reps, cell_seed(config.base_seed, index)))
                index += 1
    return cells


def run_cell(config: SweepConfig, backend: BackendModel, kind: str, n: int, reps: int, seed: int) -> SweepRecord:
    start = time.perf_counter()
    try:
        logical = build_ansatz(kind, n, reps)
        t = transpile(logical, backend)
        physical = reparameterize(t, ReparamMode(config.mode))
        gv_log, se_log = _gradvar_with_meta(logical, config.samples, seed, 0, config.meta_seeds)
        gv_phys, se_phys = _gradvar_with_meta(
            physical, config.samples, seed, t.cost_qubit, config.meta_seeds
        )
        before, after = t.metrics_before, t.metrics_after
        return SweepRecord(
            ansatz=kind,
            n=n,
            reps=reps,
            p_log=before.num_symbols,
            p_phys=physical.num_symbols,
            g1q_log=before.g1q,
            g1q_phys=after.g1q,
            g2q_log=before.g2q,
            g2q_phys=after.g2q,
            depth_log=before.dag_depth,
            depth_phys=after.dag_depth,
            **asdict(overhead(t, reps)),
            gradvar_log=gv_log,
            gradvar_phys=gv_phys,
            delta_gradvar=gv_phys - gv_log,
            stderr_log=se_log,
            stderr_phys=se_phys,
            seed=seed,
            wall_time=time.perf_counter() - start,
        )
    except Exception as e:  # noqa: BLE001 - cell isolation is the contract
        return SweepRecord(
            ansatz=kind, n=n, reps=reps, seed=seed, wall_time=time.perf_counter() - start, error=str(e)
        )


def _worker_count(num_cells: int) -> int:
    env = os.environ.get("VQCLAB_THREADS")
    if not env:
        return max(1, min(8, os.cpu_count() or 1, num_cells))
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"VQCLAB_THREADS must be a positive integer, got {env!r}")
    return min(cap, num_cells)


def _drop_torn_tail(path: Path) -> None:
    """Cut an unterminated last line (a crash mid-write) off the checkpoint
    stream, so it is neither parsed nor glued to the next record."""
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    keep = data.rfind(b"\n") + 1
    warnings.warn(
        f"{path}: dropping an unterminated last line ({len(data) - keep} bytes) left by an interrupted write",
        RuntimeWarning,
        stacklevel=3,
    )
    with open(path, "r+b") as f:
        f.truncate(keep)


def _load_checkpoints(config: SweepConfig) -> dict[tuple, SweepRecord]:
    loaded: dict[tuple, SweepRecord] = {}
    path = Path(config.out_jsonl)
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{lineno}: malformed checkpoint line: {e}") from e
        if any(payload.get(name, absent) != getattr(config, name) for name, absent in _RUN_FIELDS.items()):
            continue
        record = SweepRecord(**payload["record"])
        if record.error is None:
            # a cell's identity within one run; the run fields matched above
            loaded[(record.ansatz, record.n, record.reps, record.seed)] = record
    return loaded


def run_sweep(
    config: SweepConfig,
    *,
    resume: bool = False,
    progress: Callable[[SweepRecord, int, int], None] | None = None,
) -> list[SweepRecord]:
    """Run every cell of the sweep and return records in canonical order.

    Cells run in a pool of worker threads, but their checkpoint lines,
    ``progress`` calls and records all come out in canonical cell order:
    a finished cell waits for every earlier one before it is written. So
    a crash can lose finished but unwritten work of up to (workers - 1)
    times the longest cell's time.
    """
    if resume and not config.out_jsonl:
        raise ValueError("resume needs out_jsonl, the JSONL checkpoint to resume from")
    cells = enumerate_cells(config)
    workers = _worker_count(len(cells))
    backend = resolve_backend(config.backend)
    done: dict[tuple, SweepRecord] = {}
    if config.out_jsonl and Path(config.out_jsonl).exists():
        _drop_torn_tail(Path(config.out_jsonl))
        if resume:
            done = _load_checkpoints(config)

    def work(cell: tuple[int, str, int, int, int]) -> tuple[SweepRecord, bool]:
        _, kind, n, reps, seed = cell
        cached = done.get((kind, n, reps, seed))
        if cached is not None:
            return cached, False
        return run_cell(config, backend, kind, n, reps, seed), True

    records: list[SweepRecord] = []
    with ExitStack() as stack:
        jsonl = stack.enter_context(open(config.out_jsonl, "a", encoding="utf-8")) if config.out_jsonl else None
        # One worker runs the cells in the caller's thread: a pool thread
        # gets its own malloc arena, which raised the peak RSS of the
        # 30-cell benchmark sweep from 44.9 to 48.3 MiB.
        mapper = stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map if workers > 1 else map
        for record, fresh in mapper(work, cells):
            if fresh and jsonl is not None:
                payload = {"record": asdict(record), **{name: getattr(config, name) for name in _RUN_FIELDS}}
                jsonl.write(json.dumps(payload, sort_keys=True) + "\n")
                jsonl.flush()
            records.append(record)
            if progress is not None:
                progress(record, len(records), len(cells))
    return records


# ---------------------------------------------------------------------------
# CSV


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def emit_csv(records: Sequence[SweepRecord], path: str | Path) -> None:
    """Write records as CSV (canonical order, 9 significant digits).

    Error records carry no numbers and are omitted; they stay visible in
    the JSONL checkpoint stream.
    """
    lines = [CSV_HEADER]
    for r in records:
        if r.error is not None:
            continue
        lines.append(",".join((_fmt if parse is float else str)(getattr(r, name)) for name, parse in _CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: str | Path) -> list[SweepRecord]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        values = line.split(",")
        if len(values) != len(_CSV_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected {len(_CSV_COLUMNS)} columns, got {len(values)}")
        try:
            records.append(SweepRecord(**{name: parse(v) for (name, parse), v in zip(_CSV_COLUMNS, values)}))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    return records


# ---------------------------------------------------------------------------
# Heatmap SVG


def _diverging_color(value: float, vmax: float) -> str:
    """Blue below zero, white at zero, red above; symmetric scale."""
    t = 0.0 if vmax <= 0 else max(-1.0, min(1.0, value / vmax))
    mid = (247, 247, 247)
    end = (33, 102, 172) if t < 0 else (178, 24, 43)
    a = abs(t)
    rgb = tuple(round(m + (e - m) * a) for m, e in zip(mid, end))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def emit_heatmap_svg(records: Sequence[SweepRecord], ansatz: str, path: str | Path) -> None:
    """Render the trainability-shift grid for one ansatz family.

    Repetitions run along x, qubit counts along y; each cell is colored on
    a diverging scale centered at zero (blue = suppression, red =
    amplification) and annotated with its value. The grid must be
    complete; missing cells raise with an explicit list.
    """
    recs = [r for r in records if r.ansatz == ansatz and r.error is None]
    if not recs:
        raise ValueError(f"no records for ansatz {ansatz!r}")
    ns = sorted({r.n for r in recs})
    ls = sorted({r.reps for r in recs})
    by_cell = {(r.n, r.reps): r for r in recs}
    missing = [(n, l) for n in ns for l in ls if (n, l) not in by_cell]
    if missing:
        raise ValueError(f"incomplete grid for ansatz {ansatz!r}; missing cells (n, reps): {missing}")

    vmax = max(abs(r.delta_gradvar) for r in recs)
    cell_w, cell_h = 86, 48
    left, top, right, bottom = 84, 56, 24, 72
    width = left + cell_w * len(ls) + right
    height = top + cell_h * len(ns) + bottom

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">'
        f"delta GradVar (physical - logical): {ansatz}</text>",
    ]
    for yi, n in enumerate(ns):
        for xi, l in enumerate(ls):
            r = by_cell[(n, l)]
            x, y = left + xi * cell_w, top + yi * cell_h
            color = _diverging_color(r.delta_gradvar, vmax)
            strong = vmax > 0 and abs(r.delta_gradvar) / vmax > 0.6
            text_color = "#ffffff" if strong else "#000000"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                f'fill="{color}" stroke="#888888"/>'
            )
            parts.append(
                f'<text x="{x + cell_w / 2:.1f}" y="{y + cell_h / 2 + 4:.1f}" text-anchor="middle" '
                f'font-size="12" fill="{text_color}">{r.delta_gradvar:.3g}</text>'
            )
    for yi, n in enumerate(ns):
        parts.append(
            f'<text x="{left - 10}" y="{top + yi * cell_h + cell_h / 2 + 4:.1f}" '
            f'text-anchor="end" font-size="12">{n}</text>'
        )
    for xi, l in enumerate(ls):
        parts.append(
            f'<text x="{left + xi * cell_w + cell_w / 2:.1f}" y="{top + cell_h * len(ns) + 18}" '
            f'text-anchor="middle" font-size="12">{l}</text>'
        )
    parts.append(
        f'<text x="{left + cell_w * len(ls) / 2:.1f}" y="{height - 34}" text-anchor="middle" '
        f'font-size="13">repetitions</text>'
    )
    parts.append(
        f'<text x="20" y="{top + cell_h * len(ns) / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 20 {top + cell_h * len(ns) / 2:.1f})">qubits</text>'
    )
    parts.append(
        f'<text x="{left}" y="{height - 12}" font-size="11">scale: +-{vmax:.3g} '
        f"(blue = suppression, red = amplification)</text>"
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
