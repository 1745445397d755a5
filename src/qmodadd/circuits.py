"""Gate-level IR for reversible circuits over {X, CNOT, TOFFOLI, RESET},
and its resource accounting (`analyze`).

A circuit is a fixed wire count plus an ordered gate list.  Layering
(greedy as-soon-as-possible) gives a deterministic depth.  Per-kind depth
comes in two measures, and `analyze` uses one for each kind:

* the layer measure (`depth_by_kind`) layers the subcircuit of that kind
  alone.  CNOT depth uses it: 26 -> 14 at n = 4, the paper's 46.15 %
  drop, where the path measure gives 32 -> 17 (46.88 %).  The paper's
  full text is not at hand, so this choice rests on that one figure.
* the path measure (`path_depth`) counts the gates of that kind along
  the longest path of the full circuit's wire dependencies, so gates of
  other kinds (resets included) still order the ones it counts.  Toffoli
  depth uses it (Amy et al., arXiv:1206.0758): a Toffoli-only layering
  would run the NOR gadget's Toffoli beside the CNOTs that still write
  one of its controls.  The static adders' Toffoli depths then equal
  their counts, 4n+3 and 3n+2, so depth drops by the same share as count
  from QMA1 to QMA2, as the paper reports.

One walk over the gates (`_walk`) gives both measures, the gate counts
and the total depth; `analyze` takes all four from it.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from decimal import Decimal, ROUND_HALF_EVEN
from enum import Enum
from fractions import Fraction

from .errors import ArityMismatch, DuplicateOperand, EmptyInput, OperandOutOfRange


class GateKind(Enum):
    """Gate kind; the value is the QASM statement name, `arity` the operand count."""

    X = ("x", 1)
    CNOT = ("cx", 2)
    TOFFOLI = ("ccx", 3)
    RESET = ("reset", 1)

    def __new__(cls, name: str, arity: int):
        member = object.__new__(cls)
        member._value_ = name
        member.arity = arity
        return member

    # Members are singletons; Enum's own __hash__ runs Python code per call.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class Gate:
    """One operation: kind plus ordered operand wires.

    For CNOT the operands are (control, target); for TOFFOLI
    (control, control, target).  Operands must be pairwise distinct.
    """

    kind: GateKind
    operands: tuple[int, ...]

    def __post_init__(self):
        if type(self.operands) is not tuple:
            object.__setattr__(self, "operands", tuple(self.operands))
        if len(self.operands) != self.kind.arity:
            raise ArityMismatch(
                f"{self.kind.name} takes {self.kind.arity} operands, "
                f"got {len(self.operands)}"
            )
        if len(set(self.operands)) != len(self.operands):
            raise DuplicateOperand(f"repeated wire in {self.kind.name}{self.operands}")


def x(wire: int) -> Gate:
    return Gate(GateKind.X, (wire,))


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def toffoli(control_a: int, control_b: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (control_a, control_b, target))


def reset(wire: int) -> Gate:
    return Gate(GateKind.RESET, (wire,))


@dataclass(frozen=True)
class Circuit:
    """Immutable ordered gate sequence over `width` wires.  A `Gate` is a
    frozen value, so one object may sit at several positions."""

    width: int
    gates: tuple[Gate, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            for wire in gate.operands:
                if not 0 <= wire < self.width:
                    raise OperandOutOfRange(
                        f"wire {wire} outside [0, {self.width}) in "
                        f"{gate.kind.name}{gate.operands}"
                    )

    def count(self, kind: GateKind) -> int:
        return sum(1 for g in self.gates if g.kind is kind)


def compute_layering(circuit: Circuit) -> tuple[tuple[int, ...], ...]:
    """Greedy ASAP layering: layers of wire-disjoint gate indices.

    Each gate goes to the earliest layer strictly after every earlier
    gate that shares one of its wires.  Deterministic in the gate order.
    """
    frontier: dict[int, int] = {}  # wire -> first layer free for use
    layers: list[list[int]] = []
    for index, gate in enumerate(circuit.gates):
        layer = max((frontier.get(w, 0) for w in gate.operands), default=0)
        for w in gate.operands:
            frontier[w] = layer + 1
        if layer == len(layers):
            layers.append([])
        layers[layer].append(index)
    return tuple(tuple(layer) for layer in layers)


def depth_by_kind(circuit: Circuit, kind: GateKind) -> int:
    """Depth of the subcircuit keeping only gates of `kind`."""
    return _walk(circuit, kind, kind)[1]


def path_depth(circuit: Circuit, kind: GateKind) -> int:
    """Largest number of `kind` gates on any path of the dependency DAG,
    which has one node per gate of every kind and an edge from each gate
    to the next gate on each of its wires."""
    return _walk(circuit, kind, kind)[2]


def total_depth(circuit: Circuit) -> int:
    """ASAP layer count of the whole circuit: its longest dependency path."""
    return _walk(circuit, None, None)[3]


def _walk(
    circuit: Circuit, path_kind: GateKind | None, layer_kind: GateKind | None
) -> tuple[dict[GateKind, int], int, int, int]:
    """Every resource tally of `circuit` from one pass over its gates:
    (count of each kind, depth of the `layer_kind`-only subcircuit, most
    `path_kind` gates on one dependency path, total depth)."""
    counts = dict.fromkeys(GateKind, 0)
    total = [0] * circuit.width  # wire -> longest path ending on it so far
    path = [0] * circuit.width  # wire -> most path_kind gates on such a path
    layer = [0] * circuit.width  # wire -> depth among layer_kind gates only
    for gate in circuit.gates:
        kind, wires = gate.kind, gate.operands
        counts[kind] += 1
        step = kind is path_kind
        if len(wires) == 2:  # unrolled by arity: plain reads, no calls or loop
            a, b = wires
            da, db = total[a], total[b]
            total[a] = total[b] = (da if da > db else db) + 1
            da, db = path[a], path[b]
            path[a] = path[b] = (da if da > db else db) + step
            if kind is layer_kind:
                da, db = layer[a], layer[b]
                layer[a] = layer[b] = (da if da > db else db) + 1
        elif len(wires) == 3:
            a, b, c = wires
            da, db, dc = total[a], total[b], total[c]
            da = da if da > db else db
            total[a] = total[b] = total[c] = (da if da > dc else dc) + 1
            da, db, dc = path[a], path[b], path[c]
            da = da if da > db else db
            path[a] = path[b] = path[c] = (da if da > dc else dc) + step
            if kind is layer_kind:
                da, db, dc = layer[a], layer[b], layer[c]
                da = da if da > db else db
                layer[a] = layer[b] = layer[c] = (da if da > dc else dc) + 1
        else:
            a = wires[0]
            total[a] += 1
            path[a] += step
            layer[a] += kind is layer_kind
    return counts, max(layer, default=0), max(path, default=0), max(total, default=0)


@dataclass(frozen=True)
class ResourceReport:
    """Exact tallies for one circuit.

    fom is width times Toffoli depth; lower is better.  toffoli_depth is
    the largest Toffoli count on any path of the full dependency DAG;
    cnot_depth is the ASAP layer count of the CNOT-only subcircuit;
    total_depth is the ASAP layer count of the whole circuit.
    """

    label: str
    width: int
    cnot_count: int
    toffoli_count: int
    x_count: int
    reset_count: int
    cnot_depth: int
    toffoli_depth: int
    total_depth: int
    fom: int

    def as_dict(self) -> dict:
        return asdict(self)


#: Report fields that participate in percentage comparisons.
COMPARE_FIELDS = (
    "width",
    "cnot_count",
    "toffoli_count",
    "reset_count",
    "cnot_depth",
    "toffoli_depth",
    "total_depth",
    "fom",
)


def analyze(circuit: Circuit) -> ResourceReport:
    counts, cnot_depth, toffoli_depth, total_depth = _walk(
        circuit, GateKind.TOFFOLI, GateKind.CNOT
    )
    return ResourceReport(
        label=circuit.label,
        width=circuit.width,
        cnot_count=counts[GateKind.CNOT],
        toffoli_count=counts[GateKind.TOFFOLI],
        x_count=counts[GateKind.X],
        reset_count=counts[GateKind.RESET],
        cnot_depth=cnot_depth,
        toffoli_depth=toffoli_depth,
        total_depth=total_depth,
        fom=circuit.width * toffoli_depth,
    )


def round2(value: Fraction) -> Decimal:
    """Exact ratio -> two decimals, banker's rounding."""
    return (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_EVEN
    )


def compare(reports: list[ResourceReport]) -> list[dict]:
    """Percentage reduction of each field relative to the first report.

    delta = 100 * (first - value) / first, rounded to two decimals
    half-even; positive means the report improves on the first.  Fields
    whose first value is zero come back as None (undefined).
    """
    if not reports:
        raise EmptyInput("no reports to compare")
    base = reports[0]
    rows = []
    for report in reports:
        row: dict = {"label": report.label}
        for name in COMPARE_FIELDS:
            base_value = getattr(base, name)
            value = getattr(report, name)
            if base_value == 0:
                row[name] = Decimal("0.00") if value == 0 else None
            else:
                row[name] = round2(Fraction(100 * (base_value - value), base_value))
        rows.append(row)
    return rows
