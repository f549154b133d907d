"""Hardware backend model: physical qubits, coupling graph, native gates.

Backends are undirected, connected coupling graphs plus the native gate
sets the transpiler must target. ``BackendModel.distances`` is the one
graph search: the connectivity check and the router's shortest paths
both read its hop counts. The JSON file format is

    {"num_physical": 7, "edges": [[0, 1], ...],
     "native_1q": ["RZ", "SX", "X"], "native_2q": ["CX"]}

with integer counts and endpoints. Backend references of the form
``line:n``, ``heavy-hex:R,C`` or a file path are accepted wherever a
backend is configured.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .circuit import GateKind, as_index

DEFAULT_NATIVE_1Q = frozenset({GateKind.RZ, GateKind.SX, GateKind.X})
DEFAULT_NATIVE_2Q = frozenset({GateKind.CX})


@dataclass(frozen=True)
class BackendModel:
    num_physical: int
    edges: frozenset[tuple[int, int]]
    native_1q: frozenset[GateKind] = field(default=DEFAULT_NATIVE_1Q)
    native_2q: frozenset[GateKind] = field(default=DEFAULT_NATIVE_2Q)

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_physical", as_index(self.num_physical, "num_physical"))
        norm = set()
        for e in self.edges:
            a, b = as_index(e[0], "edge endpoint"), as_index(e[1], "edge endpoint")
            if a == b:
                raise ValueError(f"self-loop edge ({a},{b})")
            if not (0 <= a < self.num_physical and 0 <= b < self.num_physical):
                raise ValueError(f"edge ({a},{b}) outside 0..{self.num_physical - 1}")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))
        adj: list[list[int]] = [[] for _ in range(self.num_physical)]
        for a, b in sorted(norm):
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(ns)) for ns in adj))
        if self.num_physical < 1:
            raise ValueError("backend needs at least one qubit")
        if len(self.distances(0)) != self.num_physical:
            raise ValueError("disconnected coupling graph")

    def distances(self, src: int) -> dict[int, int]:
        """Hop counts from ``src`` to every qubit it reaches (breadth-first)."""
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in self.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adj[q]  # type: ignore[attr-defined]

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges


def make_line(n: int) -> BackendModel:
    """Chain topology 0-1-...-(n-1)."""
    if n < 2:
        raise ValueError(f"line backend needs n >= 2, got {n}")
    return BackendModel(n, frozenset((i, i + 1) for i in range(n - 1)))


def make_heavy_hex(rows: int, cols: int) -> BackendModel:
    """Heavy-hex style lattice: chained rows joined by degree-2 bridge qubits.

    Row qubit (r, c) has index r*cols + c. Between rows r and r+1 a bridge
    qubit sits at every column with c mod 4 == 2*(r mod 2), connected to
    (r, c) and (r+1, c). Bridges are indexed after all row qubits in
    (r, c) lexicographic order. Max vertex degree is 3.
    """
    if rows < 2:
        raise ValueError(f"heavy-hex needs rows >= 2, got {rows}")
    if cols < 3 or cols % 4 != 3:
        raise ValueError(f"heavy-hex needs cols >= 3 with cols % 4 == 3, got {cols}")
    edges = set()
    for r in range(rows):
        for c in range(cols - 1):
            edges.add((r * cols + c, r * cols + c + 1))
    bridge = rows * cols
    for r in range(rows - 1):
        for c in range(cols):
            if c % 4 == 2 * (r % 2):
                edges.add((r * cols + c, bridge))
                edges.add(((r + 1) * cols + c, bridge))
                bridge += 1
    return BackendModel(bridge, frozenset(edges))


def backend_payload(model: BackendModel) -> dict:
    return {
        "num_physical": model.num_physical,
        "edges": sorted([a, b] for a, b in model.edges),
        "native_1q": sorted(k.value for k in model.native_1q),
        "native_2q": sorted(k.value for k in model.native_2q),
    }


def save_backend(model: BackendModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(backend_payload(model), indent=2) + "\n", encoding="utf-8")


def load_backend(path: str | Path) -> BackendModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a backend file must be a JSON object, got {type(payload).__name__}")
    try:
        num_physical, edges = payload["num_physical"], payload["edges"]
        natives = [frozenset(GateKind(k) for k in payload[key]) for key in ("native_1q", "native_2q")]
    except KeyError as e:
        raise ValueError(f"{path}: missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: native gate sets must be lists of gate names: {e}") from None
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ValueError(f"{path}: edges must be a list of [a, b] pairs, got {edges!r}")
    try:
        # a tuple, not a set: the constructor checks each endpoint before hashing it
        return BackendModel(num_physical, tuple(map(tuple, edges)), *natives)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def resolve_backend(ref: str) -> BackendModel:
    """Build a backend from ``line:n``, ``heavy-hex:R,C`` or a JSON file path."""
    if ref.startswith(("line:", "heavy-hex:")):
        m = re.fullmatch("line:([0-9]+)|heavy-hex:([0-9]+),([0-9]+)", ref)
        if m is None:
            raise ValueError(f"bad backend {ref!r}: expected line:n, heavy-hex:R,C or a JSON file path")
        return make_line(int(m[1])) if m[1] else make_heavy_hex(int(m[2]), int(m[3]))
    return load_backend(ref)
