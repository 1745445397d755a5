"""OpenQASM 3 subset interchange: x / cx / ccx / reset on one flat register.

Export is deterministic byte-for-byte.  A structured leading comment
(`// layout: {...}`) carries the register roles so a parsed file can be
simulated and scored without rebuilding.  The parser is one hand-rolled
scanner that never raises anything but the diagnostic error types,
whatever the input bytes.  It reads each distinct line of a text once, so
equal statements share one `Gate` object, as the builders' gates do; the
export-form statements are also shared across calls, through `_RECENT`.
"""
from __future__ import annotations

import json
import operator
import re

from .builders import AdderVariant, BuiltAdder, RegisterLayout
from .circuits import Circuit, Gate, GateKind
from .errors import (
    ArityMismatch,
    DuplicateOperand,
    QasmSyntaxError,
    QmodaddError,
    SubsetViolation,
    WidthMismatch,
)

#: Widest `qubit[...]` declaration `parse_qasm` accepts.  The widest built
#: adder needs 3n + 5 wires (293 at n = 96); a wider declaration raises
#: SubsetViolation before anything of that size is allocated.
MAX_WIDTH = 1 << 16

#: statement name -> kind; the names are GateKind's values.  A dict, since
#: GateKind(name) costs about 1 us per parsed statement.
_KINDS = {kind.value: kind for kind in GateKind}

#: gate names that are real OpenQASM but outside the supported subset
_KNOWN_FOREIGN = {
    "h", "y", "z", "s", "sdg", "t", "tdg", "sx", "rx", "ry", "rz",
    "cz", "cp", "swap", "cswap", "u", "u1", "u2", "u3", "measure",
    "barrier", "id", "p", "crx", "cry", "crz",
}


def export_qasm(built: BuiltAdder) -> str:
    """Serialize a built adder; metadata comment first, then the program."""
    layout = built.layout
    meta = {
        "variant": built.variant.name,
        "n": layout.n,
        "a_wires": list(layout.a_wires),
        "b_wires": list(layout.b_wires),
        "sum_wires": list(layout.sum_wires),
        "mod_wires": list(layout.mod_wires),
        "preserved_roles": sorted(layout.preserved_roles),
    }
    comment = f"// layout: {json.dumps(meta, sort_keys=True)}\n"
    return comment + export_circuit(built.circuit)


def export_circuit(circuit: Circuit) -> str:
    """Serialize a bare circuit (no layout metadata)."""
    gates = circuit.gates
    lines = ["OPENQASM 3.0;", f"qubit[{circuit.width}] q;"]
    lines += map(operator.mod, map(_TEMPLATES.__getitem__, map(_KIND, gates)),
                 map(_OPERANDS, gates))
    return "\n".join(lines) + "\n"


#: kind -> its statement with one `q[%s]` per operand, e.g. "cx q[%s], q[%s];"
_TEMPLATES = {k: f"{k.value} {', '.join(['q[%s]'] * k.arity)};" for k in GateKind}
_KIND, _OPERANDS = operator.attrgetter("kind"), operator.attrgetter("operands")

_LAYOUT_RE = re.compile(r"^//\s*layout:\s*(\{.*\})\s*$")
_STMT_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?P<args>[^;]*);\s*(?://.*)?$"
)
#: the layout's roles, each with its `<role>_wires` field
_ROLES = ("a", "b", "sum", "mod")
_OPERAND_RE = re.compile(r"^q\[([0-9]+)\]$")
_QUBIT_RE = re.compile(r"^qubit\[([0-9]+)\]\s+([A-Za-z_][A-Za-z0-9_]*)\s*;\s*(?://.*)?$")
#: a statement in export form; its digits are ASCII and bounded, so int()
#: never meets its digit limit
_DIGITS = f"([0-9]{{1,{len(str(MAX_WIDTH))}}})"
_EXPORTED_STMT = re.compile(
    rf"({'|'.join(_KINDS)}) q\[{_DIGITS}\](?:, q\[{_DIGITS}\](?:, q\[{_DIGITS}\])?)?;"
)

#: export-form statement line -> (its Gate, its highest wire), shared by
#: every parse_qasm call, since the four variants of one n repeat most of
#: each other's statements.  Emptied when it reaches _RECENT_MAX lines; the
#: digits are bounded, so an entry is a few hundred bytes.
_RECENT: dict[str, tuple[Gate, int]] = {}
_RECENT_MAX = 1 << 11


def parse_qasm(text: str) -> tuple[Circuit, RegisterLayout | None]:
    """Parse the subset back into a circuit (and layout if present).

    Lines end at LF, CRLF or CR only.  The header lines are read in order,
    and the one register must be named `q`; then each distinct body line
    is read once, and equal statements share one `Gate` object.  A line in
    `export_qasm`'s form is accepted by one match or found among the
    `_RECENT_MAX` kept by earlier calls, and is taken if its highest wire
    is below the width.  Any other line goes to the statement parser, the
    only source of diagnostics, so earlier calls never change a result.

    The first layout comment is all or nothing: only a usable one (see
    `_parse_layout`) yields the layout and sets the label to the variant.

    Raises QasmSyntaxError / SubsetViolation / WidthMismatch /
    DuplicateOperand with 1-based line positions.
    """
    if not isinstance(text, str):
        raise QasmSyntaxError("input is not text", 1, 1)
    # str.splitlines would also end a line, even inside a comment, at
    # U+2028, NEL, VT, FF and the like.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    blob = None
    saw_version = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            match = _LAYOUT_RE.match(line)
            if match and blob is None:
                blob = match.group(1)
            continue
        if not saw_version:
            if not re.match(r"^OPENQASM\s+3(\.[0-9]+)?\s*;\s*(?://.*)?$", line):
                raise QasmSyntaxError(
                    f"expected OPENQASM 3 version line, got {line!r}", line_no, 1
                )
            saw_version = True
            continue
        match = _QUBIT_RE.match(line)
        if not match:
            raise QasmSyntaxError(f"expected qubit declaration, got {line!r}", line_no, 1)
        if match.group(2) != "q":
            raise SubsetViolation(f"register {match.group(2)!r} is not named 'q'", line_no, 1)
        try:
            width = int(match.group(1))
        except ValueError:  # past int()'s digit limit
            width = MAX_WIDTH + 1
        if width > MAX_WIDTH:
            raise SubsetViolation(
                f"register wider than the supported {MAX_WIDTH} qubits", line_no, 1
            )
        break
    else:
        if not saw_version:
            raise QasmSyntaxError("empty program: missing version line", 1, 1)
        raise QasmSyntaxError("missing qubit declaration", 1, 1)

    # A body line's reading depends only on its text and the width, so the
    # first distinct line that fails is the file's first failing line.
    body = lines[line_no:]
    table = dict.fromkeys(body)
    recent = _RECENT
    for raw in table:
        entry = recent.get(raw)
        if entry is None and (match := _EXPORTED_STMT.fullmatch(raw)):
            name, a, b, c = match.groups()
            operands = (int(a),) if b is None else (
                (int(a), int(b)) if c is None else (int(a), int(b), int(c)))
            try:
                entry = Gate(_KINDS[name], operands), max(operands)
            except (ArityMismatch, DuplicateOperand):
                pass
            else:
                if len(recent) >= _RECENT_MAX:
                    recent.clear()
                recent[raw] = entry
        if entry is not None and entry[1] < width:
            table[raw] = entry[0]
            continue
        line = raw.strip()
        if not line or line.startswith("//"):
            match = _LAYOUT_RE.match(line)
            if match and blob is None:
                blob = match.group(1)
            continue  # stays None: no gate
        try:
            table[raw] = _parse_statement(line, 0, width)
        except QmodaddError:  # again, for the diagnostic with its line
            _parse_statement(line, line_no + body.index(raw) + 1, width)
    gates = tuple(filter(None, map(table.__getitem__, body)))
    meta = None if blob is None else _parse_layout(blob, width)
    if meta is None:
        return Circuit(width, gates), None
    layout, variant = meta
    return Circuit(width, gates, label=variant.value), layout


def _parse_statement(line: str, line_no: int, width: int) -> Gate:
    match = _STMT_RE.match(line)
    if not match:
        raise QasmSyntaxError(f"unparseable statement {line!r}", line_no, 1)
    name = match.group("name")
    kind = _KINDS.get(name)
    if kind is None:
        if name in _KNOWN_FOREIGN or name == "qubit":
            raise SubsetViolation(
                f"statement {name!r} is outside the x/cx/ccx/reset subset",
                line_no,
                1,
            )
        raise QasmSyntaxError(f"unknown statement {name!r}", line_no, 1)
    args = [piece.strip() for piece in match.group("args").split(",") if piece.strip()]
    operands = []
    for piece in args:
        operand_match = _OPERAND_RE.match(piece)
        if not operand_match:
            raise QasmSyntaxError(f"bad operand {piece!r}", line_no, 1)
        digits = operand_match.group(1)
        try:
            operands.append(int(digits))
        except ValueError:  # past int()'s digit limit, so past any width
            raise WidthMismatch(
                f"operand index of {len(digits)} digits outside register of "
                f"size {width}",
                line_no,
                1,
            )
    if len(operands) != kind.arity:
        raise QasmSyntaxError(
            f"{name} takes {kind.arity} operand(s), got {len(operands)}",
            line_no,
            1,
        )
    for wire in operands:
        if wire >= width:
            raise WidthMismatch(
                f"operand q[{wire}] outside register of size {width}", line_no, 1
            )
    if len(set(operands)) != len(operands):
        raise DuplicateOperand(f"{line_no}:1: repeated operand in {line!r}")
    return Gate(kind, tuple(operands))


def _parse_layout(blob: str, width: int) -> tuple[RegisterLayout, AdderVariant] | None:
    """Layout and variant, or None unless the JSON decodes, names a known
    variant, has an integer n >= 1, n + 1 wires for a, b and mod, at least
    n + 2 for sum, keeps every role's wires integers in [0, width), with
    no wire twice among a and b or among sum and mod, and gives
    preserved_roles, if at all, as a list of those role names."""
    try:
        data = json.loads(blob)
        variant = AdderVariant[data["variant"]]
        n, roles = data["n"], data.get("preserved_roles", [])
        a, b, sums, mods = (tuple(data[f"{role}_wires"]) for role in _ROLES)
    except (KeyError, TypeError, ValueError, RecursionError):
        # Malformed metadata is not fatal; the program may still parse.
        return None
    if type(n) is not int or n < 1:
        return None
    if (len(a), len(b), len(mods)) != (n + 1,) * 3 or len(sums) < n + 2:
        return None
    if not all(type(w) is int and 0 <= w < width for w in a + b + sums + mods):
        return None
    if len({*a, *b}) != 2 * n + 2 or len({*sums, *mods}) != len(sums) + len(mods):
        return None
    if type(roles) is not list or not all(role in _ROLES for role in roles):
        return None
    return RegisterLayout(n, a, b, sums, mods, frozenset(roles)), variant
