"""Constructors for the four modulo (2**n + 1) adders and their gadgets.

`build_qma` answers from one build of all four variants of its n, made in
one body, because the paper derives each from the one before.  They
share the first stage: a ripple adder that leaves the regular sum on the
a-register (plus a carry wire) while reverse computing the b-register
back to its input.  A NOR gadget folds the two top sum bits into a
correction bit on the first result wire.  The paper's steps are then
three branches: QMA1's second stage is a full adder, the others use a
half-adder increment; QMA3 resets and reuses b wires as the result
register; QMA4 resets each of them twice and shares QMA3's tail after
the resets.  The full adder builds each distinct gate once and appends
that one object at every position where it occurs.

Wire budget per variant, for operand size n:

    QMA1  3n+5   a | b | carry | zero register | spill wire
    QMA2  3n+4   a | b | carry | result register (fresh)
    QMA3  2n+4   a | b | carry | one fresh wire; b wires reset and reused
    QMA4  2n+4   same as QMA3 with every reset doubled

Gate emission order is deliberate: the per-kind depths of the finished
circuits are part of the public resource contract.  CNOT depth is the
ASAP layering of the CNOT-only subcircuit, which depends on the order;
Toffoli depth follows the full circuit's wire dependencies, which the
order also fixes.  Reorder with care.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .circuits import Circuit, Gate, cnot, reset, toffoli, x
from .errors import DuplicateOperand, InvalidN, LengthMismatch


class AdderVariant(Enum):
    QMA1 = "qma1"
    QMA2 = "qma2"
    QMA3 = "qma3"
    QMA4 = "qma4"


@dataclass(frozen=True)
class RegisterLayout:
    """Role -> wire map for a built adder.

    a_wires / b_wires are the operand registers at time zero.  sum_wires
    carry the regular sum, least significant first (QMA1 appends one
    always-zero spill wire kept for reversibility).  mod_wires carry the
    modulo sum.  preserved_roles names registers still holding their
    advertised value when the circuit ends.
    """

    n: int
    a_wires: tuple[int, ...]
    b_wires: tuple[int, ...]
    sum_wires: tuple[int, ...]
    mod_wires: tuple[int, ...]
    preserved_roles: frozenset[str]


@dataclass(frozen=True)
class BuiltAdder:
    circuit: Circuit
    layout: RegisterLayout
    variant: AdderVariant

    @property
    def n(self) -> int:
        return self.layout.n

    def encode(self, a: int, b: int) -> list[int]:
        """Input bits: bit i of a on a_wires[i], of b on b_wires[i], rest 0.
        Integer arrays a and b give one lane per input on their wires."""
        bits = [0] * self.circuit.width
        for wires, value in ((self.layout.a_wires, a), (self.layout.b_wires, b)):
            for i, wire in enumerate(wires):
                bits[wire] = (value >> i) & 1
        return bits


def decode(bits: list[int], wires: Iterable[int]) -> int:
    """The integer held on `wires`, least significant bit first.
    Broadcasts over lanes of an integer type wide enough for the shifts."""
    return sum(bits[w] << i for i, w in enumerate(wires))


def _require_distinct(wires: list[int], what: str) -> None:
    if len(set(wires)) != len(wires):
        raise DuplicateOperand(f"{what} wires must be distinct: {wires}")


def build_nor_gadget(x_wire: int, y_wire: int, target: int) -> list[Gate]:
    """target ^= NOT(x or y); controls are restored.

    One Toffoli wrapped in four NOTs; target is assumed |0>.  The Toffoli
    holds all three wires, so it refuses a repeated one.
    """
    flips = [x(x_wire), x(y_wire)]
    return [*flips, toffoli(x_wire, y_wire, target), *flips]


def build_full_adder(
    a_wires: list[int], b_wires: list[int], carry_out: int
) -> list[Gate]:
    """Ripple adder: |a>|b>|0> -> |a+b mod 2^w>|b>|carry>.

    The sum overwrites the a-register; the b-register is reverse computed
    back to its input.  For w >= 2 this uses exactly 2w-1 Toffolis and
    5(w-1) CNOTs, with the Toffolis forming a single dependency chain.

    Carries ripple on the b-register: a descending CNOT cascade puts each
    b wire into a prefix-pair state, an ascending Toffoli pass turns that
    into carry form, and a descending pass extracts the carry into the
    a-register while uncomputing.  The carry-out wire is completed by the
    very last CNOT, after the whole uncompute chain, so a later gate that
    reads it (the NOR gadget's Toffoli in the larger adders) cannot start
    early in the CNOT layering or on the Toffoli dependency path.
    """
    w = len(a_wires)
    if len(b_wires) != w:
        raise LengthMismatch(f"register sizes differ: {w} vs {len(b_wires)}")
    if w < 1:
        raise LengthMismatch("empty registers")
    _require_distinct([*a_wires, *b_wires, carry_out], "full adder")

    recv, keep = a_wires, b_wires
    if w == 1:
        return [toffoli(keep[0], recv[0], carry_out), cnot(keep[0], recv[0])]

    # Each distinct gate is built once and appended wherever it occurs.
    sums = [cnot(k, r) for k, r in zip(keep, recv)]
    cascade = {i: cnot(keep[i], keep[i + 1]) for i in range(1, w - 1)}
    carries = [toffoli(keep[i], recv[i], keep[i + 1]) for i in range(w - 1)]
    gates: list[Gate] = []
    # Descending ripple: parity onto the receiver, prefix cascade on keep.
    for i in range(w - 1, 0, -1):
        gates.append(sums[i])
        if i in cascade:
            gates.append(cascade[i])
    # Ascending carry computation.
    gates += carries
    gates.append(toffoli(keep[w - 1], recv[w - 1], carry_out))
    # Descending carry extraction and uncomputation.
    for i in range(w - 1, 0, -1):
        gates.append(sums[i])
        gates.append(carries[i - 1])
    # Ascending finish: sum bits and cascade undo, woven.
    for i in range(w):
        gates.append(sums[i])
        if i in cascade:
            gates.append(cascade[i])
    # Carry-out completion; must come after keep[w-1] is restored.
    gates.append(cnot(keep[w - 1], carry_out))
    return gates


def build_half_adder_increment(
    v_wires: list[int], c_wire: int, fresh_wires: list[int]
) -> list[Gate]:
    """Add the single bit on c_wire to the value on v_wires.

    v_wires are read-only; the result lands on [c_wire, *fresh_wires]
    (carry-then-sum order).  fresh_wires are assumed |0> and there must
    be len(v_wires) - 1 of them.  Uses w-1 Toffolis and w CNOTs.
    """
    w = len(v_wires)
    if len(fresh_wires) != w - 1:
        raise LengthMismatch(
            f"need {w - 1} fresh wires for {w} value wires, got {len(fresh_wires)}"
        )
    _require_distinct([*v_wires, c_wire, *fresh_wires], "half adder")
    out = [c_wire, *fresh_wires]
    gates: list[Gate] = []
    for i in range(w - 1):
        gates.append(toffoli(v_wires[i], out[i], out[i + 1]))
        gates.append(cnot(v_wires[i], out[i]))
    gates.append(cnot(v_wires[w - 1], out[w - 1]))
    return gates


@functools.lru_cache(maxsize=1, typed=True)
def _build_all(n: int) -> dict[AdderVariant, BuiltAdder]:
    """QMA1-QMA4 for operand size n, in the paper's order (see above)."""
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n}")
    w = n + 1
    a = list(range(w))
    b = list(range(w, 2 * w))
    carry = 2 * w
    fresh = 2 * w + 1  # first wire after the shared registers
    spill = fresh + w  # QMA1's always-zero carry out, kept for reversibility
    folded = [*a[:n], carry]
    # Static adders: n + 1 fresh wires, the correction bit first.
    static = list(range(fresh, spill))
    # QMA3/QMA4: n of the b wires plus one fresh wire are reset and reused
    # as the result register; one b wire is left untouched.  Reused b wires
    # take the heavy result bits: their resets land late in the schedule,
    # so they idle least before use.  The fresh wire has no predecessors,
    # resets at the very start, and therefore takes a light bit.  The
    # truncation drops b[n] when n == 1 (two result wires suffice);
    # otherwise b[n-1] is the wire that keeps its value.
    reused = ([b[0], fresh] + b[1 : n - 1] + [b[n]])[:w]

    def increment(result: list[int]) -> list[Gate]:
        return [
            *build_nor_gadget(carry, a[n], result[0]),
            *build_half_adder_increment(folded, result[0], result[1:]),
        ]

    first = build_full_adder(a, b, carry)
    sums = a + [carry]
    tail = increment(reused)
    seconds = {
        # QMA1's second stage is a full adder with the result register as
        # the receiving side, so the regular sum survives on its own wires.
        AdderVariant.QMA1: (static, sums + [spill], [
            *build_nor_gadget(carry, a[n], static[0]),
            *build_full_adder(static, folded, spill),
        ]),
        AdderVariant.QMA2: (static, sums, increment(static)),
        AdderVariant.QMA3: (reused, sums, [*map(reset, reused), *tail]),
        AdderVariant.QMA4: (
            reused, sums, [g for wire in reused for g in [reset(wire)] * 2] + tail),
    }
    built = {}
    for variant, (result, sum_wires, second) in seconds.items():
        layout = RegisterLayout(
            n=n,
            a_wires=tuple(a),
            b_wires=tuple(b),
            sum_wires=tuple(sum_wires),
            mod_wires=tuple(result),
            preserved_roles=frozenset(
                {"sum", "mod"} if result is reused else {"b", "sum", "mod"}),
        )
        # Wires are numbered densely, so the last one is a sum or result wire.
        width = max(sum_wires + result) + 1
        circuit = Circuit(width, (*first, *second), variant.value)
        built[variant] = BuiltAdder(circuit, layout, variant)
    return built


def build_qma(variant: AdderVariant, n: int) -> BuiltAdder:
    """Build one adder variant for operand size n >= 1.

    For every valid basis input (a, b) with 0 <= a, b <= 2^n, exact
    simulation reads (a + b + 1) mod (2^n + 1) on mod_wires and a + b on
    sum_wires.  QMA1/QMA2 also restore b.

    The result is a shared frozen value: a call builds all four variants
    of its n, a process keeps the four adders of the last n, and a
    repeated call returns the same object.
    """
    return _build_all(n)[variant]
