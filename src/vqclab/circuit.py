"""Circuit intermediate representation.

Gates carry either a fixed angle or a single-symbol affine expression
``coeff * theta[symbol] + offset`` with ``coeff`` restricted to +1/-1.
Angles must be finite (a NaN or infinite angle raises ``ValueError``) and
are kept in the canonical interval [0, 2*pi) so that rewrite passes can
compare expressions for equality. Circuits are immutable
values; every pass builds a new one.

Text format (one gate per line, used by the CLI):

    qubits:<n> symbols:<P>
    KIND q[,q] [const:<float> | affine:<sym>:<+1|-1>:<float>]

with each integer in ASCII digits, a leading minus allowed, and each
float in ASCII with no underscore (``parse_int`` and ``parse_float``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from enum import Enum, unique
from pathlib import Path
from typing import Iterable, Sequence, Union

TWO_PI = 2.0 * math.pi


def normalize_angle(x: float) -> float:
    """Reduce an angle to [0, 2*pi); a NaN or infinite angle raises ``ValueError``."""
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    r = x % TWO_PI
    # x slightly below zero can round up to exactly 2*pi
    return 0.0 if r == TWO_PI else r


@unique
class GateKind(Enum):
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    SX = "SX"
    X = "X"
    H = "H"
    CX = "CX"
    SWAP = "SWAP"


def as_index(value, what: str) -> int:
    """``value`` as a Python int; a float or bool raises ``ValueError``.

    Integers of any type that implements ``__index__`` (numpy's included)
    are accepted, so a fractional index cannot be truncated silently.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


ROTATION_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})
TWO_QUBIT_KINDS = frozenset({GateKind.CX, GateKind.SWAP})


@dataclass(frozen=True)
class Const:
    """Fixed angle in radians, normalized to [0, 2*pi)."""

    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", normalize_angle(float(self.angle)))


@dataclass(frozen=True)
class Affine:
    """Angle expression ``coeff * theta[symbol] + offset`` with coeff +1 or -1."""

    symbol: int
    coeff: int
    offset: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbol", as_index(self.symbol, "symbol id"))
        if self.symbol < 0:
            raise ValueError(f"negative symbol id {self.symbol}")
        object.__setattr__(self, "coeff", as_index(self.coeff, "affine coeff"))
        if self.coeff not in (1, -1):
            raise ValueError(f"affine coeff must be +1 or -1, got {self.coeff}")
        object.__setattr__(self, "offset", normalize_angle(float(self.offset)))


ParamExpr = Union[Const, Affine]


@dataclass(frozen=True)
class Gate:
    """A single gate: kind, qubit operands, optional angle expression.

    Rotation kinds (RX, RY, RZ) require a parameter; all other kinds
    forbid one. Two-qubit kinds act on an ordered pair of distinct
    qubits (control first for CX).
    """

    kind: GateKind
    qubits: tuple[int, ...]
    param: ParamExpr | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(as_index(q, "qubit index") for q in self.qubits))
        arity = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind.value} expects {arity} qubit(s), got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"{self.kind.value} qubits must be distinct, got {self.qubits}")
        if self.kind in ROTATION_KINDS:
            if self.param is None:
                raise ValueError(f"{self.kind.value} requires a parameter")
        elif self.param is not None:
            raise ValueError(f"{self.kind.value} takes no parameter")


def _referenced_symbols(gates: Iterable[Gate]) -> set[int]:
    return {g.param.symbol for g in gates if isinstance(g.param, Affine)}


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``num_qubits`` qubits with ``num_symbols`` free angles.

    Invariants checked on construction: all gate qubits lie in range, and
    the referenced symbol ids are exactly 0..num_symbols-1. A circuit with
    ``num_symbols == 0`` is concrete (every angle is a Const) and can be
    simulated directly.
    """

    num_qubits: int
    gates: tuple[Gate, ...]
    num_symbols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "num_qubits", as_index(self.num_qubits, "num_qubits"))
        object.__setattr__(self, "num_symbols", as_index(self.num_symbols, "num_symbols"))
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        if self.num_symbols < 0:
            raise ValueError(f"num_symbols must be >= 0, got {self.num_symbols}")
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(f"gate {g.kind.value} on {g.qubits} exceeds {self.num_qubits} qubits")
        refs = _referenced_symbols(self.gates)
        if refs != set(range(self.num_symbols)):
            raise ValueError(
                f"symbol ids must be exactly 0..{self.num_symbols - 1} each used at least once, "
                f"found {sorted(refs)}"
            )


def gate_counts(circuit: Circuit) -> tuple[int, int]:
    """Return (single-qubit gate count, two-qubit gate count).

    A SWAP counts as one two-qubit gate; decomposition into CX gates
    happens later in the pipeline.
    """
    g2q = sum(1 for g in circuit.gates if g.kind in TWO_QUBIT_KINDS)
    return len(circuit.gates) - g2q, g2q


def dag_depth(circuit: Circuit) -> int:
    """Longest dependency chain, where gates conflict iff they share a qubit."""
    frontier = [0] * circuit.num_qubits
    for g in circuit.gates:
        d = 1 + max(frontier[q] for q in g.qubits)
        for q in g.qubits:
            frontier[q] = d
    return max(frontier, default=0) if circuit.num_qubits else 0


@dataclass(frozen=True)
class StructuralMetrics:
    g1q: int
    g2q: int
    dag_depth: int
    num_symbols: int


def structural_metrics(circuit: Circuit) -> StructuralMetrics:
    g1q, g2q = gate_counts(circuit)
    return StructuralMetrics(g1q=g1q, g2q=g2q, dag_depth=dag_depth(circuit), num_symbols=circuit.num_symbols)


def bind(circuit: Circuit, theta: Sequence[float]) -> Circuit:
    """Substitute concrete angles for every symbol.

    Every ``Affine(s, c, b)`` becomes ``Const(c * theta[s] + b)`` normalized
    to [0, 2*pi); gate order and qubit assignments are unchanged.
    """
    if len(theta) != circuit.num_symbols:
        raise ValueError(
            f"parameter count mismatch: circuit has {circuit.num_symbols} symbols, got {len(theta)}"
        )
    gates = []
    for g in circuit.gates:
        if isinstance(g.param, Affine):
            a = g.param
            gates.append(replace(g, param=Const(a.coeff * float(theta[a.symbol]) + a.offset)))
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates), 0)


def free_all_angles(circuit: Circuit) -> Circuit:
    """Give every rotation gate its own fresh symbol (coeff +1, offset 0)."""
    gates: list[Gate] = []
    count = 0
    for g in circuit.gates:
        if g.kind in ROTATION_KINDS:
            gates.append(replace(g, param=Affine(count, 1, 0.0)))
            count += 1
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates), count)


# ---------------------------------------------------------------------------
# Text serialization


def format_expr(expr: ParamExpr) -> str:
    """The text-format token of an angle; ``repr`` keeps floats exact."""
    if isinstance(expr, Const):
        return f"const:{expr.angle!r}"
    sign = "+1" if expr.coeff == 1 else "-1"
    return f"affine:{expr.symbol}:{sign}:{expr.offset!r}"


def parse_int(token: str) -> int:
    """An integer as text: ASCII digits, a leading minus allowed. ``int()``
    alone also takes a plus sign, underscores, spaces and other scripts' digits."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"invalid literal for an integer: {token!r}")
    return int(token)


def parse_float(token: str) -> float:
    """A float as text: ASCII with no underscore, then ``float()``, which
    alone also takes underscores and other scripts' digits."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"invalid literal for a float: {token!r}")
    return float(token)


def parse_expr(token: str) -> ParamExpr:
    """Inverse of ``format_expr``."""
    parts = token.split(":")
    try:
        if parts[0] == "const" and len(parts) == 2:
            return Const(parse_float(parts[1]))
        if parts[0] == "affine" and len(parts) == 4:
            if parts[2] not in ("+1", "-1"):
                raise ValueError
            return Affine(parse_int(parts[1]), int(parts[2]), parse_float(parts[3]))
    except ValueError:
        pass
    raise ValueError(f"malformed parameter expression {token!r}")


def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"qubits:{circuit.num_qubits} symbols:{circuit.num_symbols}"]
    for g in circuit.gates:
        qubits = ",".join(str(q) for q in g.qubits)
        if g.param is None:
            lines.append(f"{g.kind.value} {qubits}")
        else:
            lines.append(f"{g.kind.value} {qubits} {format_expr(g.param)}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise ValueError("line 1: empty circuit file")
    header = lines[0].split()
    try:
        fields = dict(part.split(":") for part in header)
        if len(header) != 2 or fields.keys() != {"qubits", "symbols"}:
            raise ValueError
        num_qubits = parse_int(fields["qubits"])
        num_symbols = parse_int(fields["symbols"])
    except ValueError:
        raise ValueError(f"line 1: malformed header {lines[0]!r}") from None
    gates = []
    for i, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {i}: malformed gate line {ln!r}")
        try:
            kind = GateKind(parts[0])
        except ValueError:
            raise ValueError(f"line {i}: unknown gate kind {parts[0]!r}") from None
        try:
            qubits = tuple(parse_int(q) for q in parts[1].split(","))
            gates.append(Gate(kind, qubits, parse_expr(parts[2]) if len(parts) == 3 else None))
        except ValueError as e:
            raise ValueError(f"line {i}: {e}") from None
    return Circuit(num_qubits, tuple(gates), num_symbols)


def save_circuit(circuit: Circuit, path: str | Path) -> None:
    Path(path).write_text(circuit_to_text(circuit), encoding="utf-8")


def load_circuit(path: str | Path) -> Circuit:
    """Read a circuit text file; a malformed file raises a ``ValueError`` that
    names it."""
    try:
        return circuit_from_text(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
