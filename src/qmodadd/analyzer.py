"""Resource accounting: gate counts, per-kind depths, width, figure of merit.

The two per-kind depths use different measures.  Toffoli depth is the
path measure (`circuits.path_depth`): the largest number of Toffolis on
any path of the full dependency DAG.  The kind-filtered layering would
let a Toffoli run beside the CNOTs that still write one of its controls
(the NOR gadget's Toffoli beside the uncompute chain that completes the
carry).  The path measure makes the static adders' Toffoli depths equal
their counts, 4n+3 and 3n+2, so depth drops by the same share as count
from QMA1 to QMA2, as the paper reports.  CNOT depth is the ASAP layer
count of the CNOT-only subcircuit (`circuits.depth_by_kind`): it gives
26 -> 14 at n = 4, the paper's 46.15 % drop, where the path measure
would give 32 -> 17 (46.88 %).  The paper's full text is not at hand,
so the CNOT choice rests on that one figure.

`analyze` makes one walk over the gates (`circuits._walk`), which gives
all four tallies at once: the count of each kind, the CNOT-only layer
depth, the Toffoli path depth and the total depth.  `depth_by_kind`,
`path_depth` and `total_depth` are views of the same walk.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction

from .circuits import Circuit, GateKind, _walk
from .errors import EmptyInput


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
