"""Per-layer spans and counters, recorded from outside the library.

Every wrapper here replaces a public vqclab function in each module that
bound it, so calls the library makes internally (harness -> grad ->
sim) are seen too. Nothing inside ``src/`` is touched. Traced rounds run
at VQCLAB_THREADS=1, so one set of totals suffices.

Bytes are computed, not measured: one kernel pass over a (B, 2**n)
complex128 batch counts B * 2**n * 16 bytes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

def patch(home, name: str, make_wrapper) -> None:
    """Replace ``home.name`` by ``make_wrapper(home.name)`` in every vqclab
    module that holds the same function object."""
    original = getattr(home, name)
    wrapper = functools.wraps(original)(make_wrapper(original))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "vqclab" and getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


class Tracer:
    """Accumulates time and counts per layer while ``enabled`` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.acc: defaultdict = defaultdict(float)
        self._physical: dict[int, object] = {}  # circuits returned by reparameterize
        self.cells: list[tuple[float, str]] = []

    def totals(self) -> dict[str, float]:
        out = defaultdict(float, self.acc)
        for total in ("calls", "bytes"):
            out[f"sim.{total}"] = sum(v for k, v in self.acc.items() if k.startswith("sim.") and k.endswith(f".{total}"))
        out["sim.bytes_per_s"] = out["sim.bytes"] / out["sim.s"] if out["sim.s"] else 0.0
        out["transpiler.other_s"] = out["transpiler.transpile_s"] - (
            out["transpiler.route_s"] + out["transpiler.decompose_s"] + out["transpiler.optimize_s"]
        )
        return dict(out)

    def top_cells(self, k: int = 5) -> list[tuple[float, str]]:
        return sorted(self.cells, reverse=True)[:k]

    # -- wrappers -----------------------------------------------------------

    def _timed(self, key: str, count=None):
        """Wrapper factory: add the call's duration to ``key`` and, when
        ``count(args, result)`` is given, its value to the matching counter."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                acc = self.acc
                acc[key] += time.perf_counter() - t0
                if count is not None:
                    for counter, value in count(args, out).items():
                        acc[counter] += value
                return out

            return wrapper

        return make

    def _kernel(self, label_of):
        def make(fn):
            def wrapper(states, n, *args, **kwargs):
                if not self.enabled:
                    return fn(states, n, *args, **kwargs)
                t0 = time.perf_counter()
                out = fn(states, n, *args, **kwargs)
                dt = time.perf_counter() - t0
                label = label_of(args)
                acc = self.acc
                acc[f"sim.{label}.calls"] += 1
                acc[f"sim.{label}.s"] += dt
                acc[f"sim.{label}.bytes"] += states.shape[0] * (1 << n) * 16
                acc["sim.s"] += dt
                return out

            return wrapper

        return make

    def _gradvar(self, fn):
        def wrapper(circuit, samples, *args, **kwargs):
            if not self.enabled:
                return fn(circuit, samples, *args, **kwargs)
            acc = self.acc
            sim_before = acc["sim.s"]
            t0 = time.perf_counter()
            out = fn(circuit, samples, *args, **kwargs)
            dt = time.perf_counter() - t0
            side = "phys" if id(circuit) in self._physical else "log"
            acc["grad.gradvar_s"] += dt
            acc[f"grad.gradvar_{side}_s"] += dt
            acc["grad.self_s"] += dt - (acc["sim.s"] - sim_before)
            acc["grad.samples"] += samples
            acc["grad.components"] += samples * circuit.num_symbols
            return out

        return wrapper

    def _reparameterize(self, fn):
        timed = self._timed("grad.reparam_s")(fn)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            self._physical[id(out)] = out
            return out

        return wrapper

    def _run_cell(self, fn):
        def wrapper(config, backend, kind, n, reps, seed):
            if not self.enabled:
                return fn(config, backend, kind, n, reps, seed)
            t0 = time.perf_counter()
            out = fn(config, backend, kind, n, reps, seed)
            dt = time.perf_counter() - t0
            acc = self.acc
            acc["harness.cells"] += 1
            acc["harness.cell_s_sum"] += dt
            self.cells.append((dt, f"{kind} n={n} reps={reps}"))
            return out

        return wrapper

    def install(self) -> None:
        from vqclab import ansatz, backend, circuit, grad, harness, sim, transpiler, verify
        from vqclab.circuit import GateKind

        patch(sim, "apply_kind", self._kernel(lambda a: a[0].value))
        patch(sim, "apply_pauli", self._kernel(lambda a: "pauli"))
        patch(sim, "simulate", self._timed("sim.simulate_s"))

        patch(grad, "grad_variance", self._gradvar)
        patch(grad, "reparameterize", self._reparameterize)
        patch(grad, "sample_thetas", self._timed("grad.sample_s"))

        def gates_io(args, out):
            return {"transpiler.gates_in": len(args[0].gates), "transpiler.gates_out": len(out.physical.gates)}

        def swaps(args, out):
            return {"transpiler.swaps": sum(g.kind is GateKind.SWAP for g in out[0].gates)}

        def removed(args, out):
            return {"transpiler.peephole_removed": len(args[0].gates) - len(out.gates)}

        patch(transpiler, "transpile", self._timed("transpiler.transpile_s", gates_io))
        patch(transpiler, "route", self._timed("transpiler.route_s", swaps))
        patch(transpiler, "decompose_to_native", self._timed("transpiler.decompose_s"))
        patch(transpiler, "optimize", self._timed("transpiler.optimize_s", removed))
        patch(transpiler, "check_constraints", self._timed("transpiler.check_s"))

        patch(ansatz, "build_ansatz", self._timed("ansatz.build_s", lambda a, out: {"ansatz.gates": len(out.gates)}))
        patch(circuit, "structural_metrics", self._timed("circuit.metrics_s"))
        patch(backend, "resolve_backend", self._timed("backend.resolve_s"))
        patch(verify, "logical_physical_fidelity", self._timed("verify.fidelity_s", lambda a, out: {"verify.checks": 1}))

        patch(harness, "run_cell", self._run_cell)
        patch(harness, "emit_csv", self._timed("harness.emit_s"))
        patch(harness, "emit_heatmap_svg", self._timed("harness.emit_s"))
