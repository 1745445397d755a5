"""Gate-level IR for reversible circuits over {X, CNOT, TOFFOLI, RESET}.

A circuit is a fixed wire count plus an ordered gate list.  Layering
(greedy as-soon-as-possible) gives a deterministic depth.  Per-kind depth
comes in two measures: `depth_by_kind` layers the subcircuit of that kind
alone, and `path_depth` counts the gates of that kind along the longest
path of the full circuit's wire dependencies, so gates of other kinds
(resets included) still order the ones it counts.  Both measures, the
gate counts and the total depth all come from one walk over the gates.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ArityMismatch, DuplicateOperand, OperandOutOfRange


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
    """Largest number of `kind` gates on any path of the dependency DAG.

    The DAG has one node per gate of every kind and an edge from each
    gate to the next gate on each of its wires, so a gate of `kind` is
    never counted as running before a gate of another kind that it
    depends on.  This is the T-depth style count of Amy, Maslov, Mosca
    and Roetteler (arXiv:1206.0758).
    """
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
