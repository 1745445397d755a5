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
and the total depth; `analyze` takes all four from it, once per circuit,
which keeps the report.  `fork` makes circuits that open with the same
gates: it walks those once, continues each circuit from a copy of that
walk, and leaves each with its report, so `analyze` walks nothing.  A
`Gate` keeps its QASM statement, formatted once, and hashes by it.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from decimal import Decimal, ROUND_HALF_EVEN
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import (ArityMismatch, DuplicateOperand, EmptyInput, LengthMismatch,
                     OperandOutOfRange, UnknownOption)


class GateKind(Enum):
    """Gate kind; the value is the QASM statement name, `arity` the operand
    count, `template` the statement with a `q[%s]` per operand."""

    X = ("x", 1)
    CNOT = ("cx", 2)
    TOFFOLI = ("ccx", 3)
    RESET = ("reset", 1)

    def __new__(cls, name: str, arity: int):
        member = object.__new__(cls)
        member._value_ = name
        member.arity = arity
        member.template = f"{name} {', '.join(['q[%s]'] * arity)};"
        return member

    # Members are singletons; Enum's own __hash__ runs Python code per call.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """One operation: kind plus ordered operand wires.

    For CNOT the operands are (control, target); for TOFFOLI
    (control, control, target).  Operands must be pairwise distinct, and
    `operator.index` makes each an exact `int`: a bool or numpy integer
    is taken, a float is not.  `statement`, the filled template, is left
    out of eq and repr; being a function of kind and operands, it is the
    hash, which a `str` computes once.
    """

    kind: GateKind
    operands: tuple[int, ...]
    statement: str = field(init=False, repr=False, compare=False)

    def __init__(self, kind: GateKind, operands: tuple[int, ...]):
        if type(kind) is not GateKind:
            raise UnknownOption(f"gate kind {kind!r} is not a GateKind")
        try:
            wires = tuple(map(operator.index, operands))
        except TypeError:
            raise OperandOutOfRange(
                f"{kind.name} wires {operands!r} are not integers") from None
        if len(wires) != kind.arity:
            raise ArityMismatch(
                f"{kind.name} takes {kind.arity} operands, got {len(wires)}")
        if len(set(wires)) != len(wires):
            raise DuplicateOperand(f"repeated wire in {kind.name}{wires}")
        setattr_ = object.__setattr__
        setattr_(self, "kind", kind)
        setattr_(self, "operands", wires)
        setattr_(self, "statement", kind.template % wires)

    def __hash__(self) -> int:
        return hash(self.statement)


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
    """Immutable ordered gate sequence over `width` wires, an int >= 0
    (through `operator.index`), of `Gate`s with wires in [0, width).  A
    `Gate` is a frozen value, so one object may sit at several positions."""

    width: int
    gates: tuple[Gate, ...] = ()
    label: str = ""

    def __post_init__(self):
        try:
            width = operator.index(self.width)
        except TypeError:
            width = -1  # refused with the negative widths
        if width < 0:
            raise LengthMismatch(f"circuit width {self.width!r} is not an int >= 0")
        gates = tuple(self.gates)
        if not set(map(type, gates)) <= {Gate}:
            raise UnknownOption(f"circuit holds non-Gates: {set(map(type, gates)) - {Gate}}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "gates", gates)
        for gate in gates:
            for wire in gate.operands:
                if not 0 <= wire < width:
                    raise OperandOutOfRange(
                        f"wire {wire} outside [0, {width}) in {gate.statement}")

    @cached_property
    def _report(self) -> ResourceReport:
        """`analyze`'s report, from one `_walk` on first use unless the
        circuit was made by `fork`, which keeps it from the start."""
        return _report_from(self, _walk(self.gates, self.width, GateKind.TOFFOLI, GateKind.CNOT))


def fork(first: list[Gate], seconds: list[tuple[int, list[Gate], str]]) -> list[Circuit]:
    """One `Circuit(width, (*first, *second), label)` per entry of
    `seconds`, each keeping its report: `first` is walked once, and each
    second stage from a copy of that walk, which gives the report a walk
    of the whole circuit would."""
    circuits = [Circuit(width, (*first, *second), label) for width, second, label in seconds]
    if not circuits:
        return circuits
    kinds = GateKind.TOFFOLI, GateKind.CNOT
    start = _walk(first, min(c.width for c in circuits), *kinds)
    for circuit, (_, second, _) in zip(circuits, seconds):
        vars(circuit)["_report"] = _report_from(
            circuit, _walk(second, circuit.width, *kinds, start))
    return circuits


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
    """Depth of the subcircuit keeping only gates of `kind`, a `GateKind`."""
    return max(_walk(circuit.gates, circuit.width, kind, kind)[3], default=0)


def path_depth(circuit: Circuit, kind: GateKind) -> int:
    """Largest number of `kind` gates on any path of the dependency DAG,
    which has one node per gate of every kind and an edge from each gate
    to the next gate on each of its wires."""
    return max(_walk(circuit.gates, circuit.width, kind, kind)[2], default=0)


def total_depth(circuit: Circuit) -> int:
    """ASAP layer count of the whole circuit: its longest dependency path."""
    return analyze(circuit).total_depth


def _walk(
    gates: Iterable[Gate], width: int, path_kind: GateKind,
    layer_kind: GateKind, start: tuple | None = None,
) -> tuple[dict[GateKind, int], list[int], list[int], list[int]]:
    """Every resource tally of `gates` on `width` wires from one pass:
    (count of each kind, and per wire the longest dependency path ending
    on it, the most `path_kind` gates on such a path, and the depth of
    the `layer_kind`-only subcircuit there).  The pass begins from
    `start`, such a tally of gates that come before on no more wires,
    which it copies and leaves unchanged."""
    for kind in (path_kind, layer_kind):
        if type(kind) is not GateKind:
            raise UnknownOption(f"gate kind {kind!r} is not a GateKind")
    if start is None:
        counts = dict.fromkeys(GateKind, 0)
        total, path, layer = [0] * width, [0] * width, [0] * width
    else:
        counts = dict(start[0])
        pad = [0] * (width - len(start[1]))
        total, path, layer = (wires + pad for wires in start[1:])
    for gate in gates:
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
    return counts, total, path, layer


def _report_from(circuit: Circuit, tally: tuple) -> ResourceReport:
    """The report of `circuit` from its `_walk` with Toffoli paths and
    CNOT layers."""
    counts, total, path, layer = tally
    toffoli_depth = max(path, default=0)
    return ResourceReport(
        label=circuit.label, width=circuit.width, cnot_count=counts[GateKind.CNOT],
        toffoli_count=counts[GateKind.TOFFOLI], x_count=counts[GateKind.X],
        reset_count=counts[GateKind.RESET], cnot_depth=max(layer, default=0),
        toffoli_depth=toffoli_depth, total_depth=max(total, default=0),
        fom=circuit.width * toffoli_depth,
    )


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
    """The circuit's report; it walks the gates the first time only."""
    return circuit._report


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
