"""OpenQASM 3 subset interchange: x / cx / ccx / reset on one flat register.

Export is deterministic byte-for-byte.  A structured leading comment
(`// layout: {...}`) carries the register roles so a parsed file can be
simulated and scored without rebuilding.  The parser is one hand-rolled
scanner that never raises anything but the diagnostic error types,
whatever the input bytes.  It reads each distinct line of a text once, so
equal statements share one `Gate` object, as the builders' gates do.
`export_circuit` joins the `Gate.statement`s, each formatted once, and
keeps them, each with its `Gate`, in `_RECENT`, so a text this process
exported is read back without building a `Gate`; parsing never writes there.
Every other line goes to the one statement parser: the export format is
defined only by `GateKind.template`, and the reader knows only the
subset's grammar.
"""
from __future__ import annotations

import json
import re
from itertools import islice, repeat

from .builders import AdderVariant, BuiltAdder, RegisterLayout
from .circuits import Circuit, Gate, GateKind
from .errors import (
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
    """Serialize a bare circuit (no layout metadata).

    The body joins each gate's `statement`, formatted once when it was
    built.  Each distinct statement is also kept in `_RECENT` with its
    own `Gate`, which, as `Gate` and `Circuit` admit only int wires and
    widths, is the gate the reader would build from the line; a later
    `parse_qasm` of the text builds none.
    """
    gates, width = circuit.gates, circuit.width
    body = [gate.statement for gate in gates]
    kept = dict(zip(body, gates))
    if len(_RECENT) + len(kept) > _RECENT_MAX:
        _RECENT.clear()
    _RECENT.update(islice(zip(kept, zip(kept.values(), repeat(width - 1))), _RECENT_MAX))
    return "\n".join(["OPENQASM 3.0;", f"qubit[{width}] q;", *body, ""])


#: OpenQASM's whitespace, the only blank the patterns and line strips allow
_BLANK = " \t"
_LAYOUT_RE = re.compile(r"^//[ \t]*layout:[ \t]*(\{.*\})[ \t]*$")
_STMT_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)[ \t]*(?P<args>[^;]*);[ \t]*(?://.*)?$"
)
#: the layout's roles, each with its `<role>_wires` field
_ROLES = ("a", "b", "sum", "mod")
_OPERAND_RE = re.compile(r"^q\[([0-9]+)\]$")
_QUBIT_RE = re.compile(
    r"^qubit\[([0-9]+)\][ \t]+([A-Za-z_][A-Za-z0-9_]*)[ \t]*;[ \t]*(?://.*)?$"
)

#: statement line -> (its Gate, a bound on its highest wire), written by
#: every export_circuit call only, with the circuit's width - 1 as the
#: bound, and read by every parse_qasm call.  Emptied when an export would
#: take it past _RECENT_MAX lines; an entry is a few hundred bytes.
_RECENT: dict[str, tuple[Gate, int]] = {}
_RECENT_MAX = 1 << 11


def parse_qasm(text: str) -> tuple[Circuit, RegisterLayout | None]:
    """Parse the subset back into a circuit (and layout if present).

    Lines end at LF, CRLF or CR only, and the only blanks are ASCII space
    and tab, as in OpenQASM.  The header lines are read in order,
    and the one register must be named `q`; then each distinct body line
    is read once, and equal statements share one `Gate` object.  A line
    kept by an earlier `export_circuit` is one lookup, with no new `Gate`,
    taken if its bound (the exporting width - 1) is below the width.  Any
    other line goes to the statement parser, the only source of
    diagnostics.  A kept line maps to a `Gate` equal to the one the
    statement parser would build, and parsing keeps nothing, so earlier
    calls never change a result.  Operands are separated by single
    commas: an empty one is a syntax error, but one trailing comma, as
    OpenQASM 3 allows, is not.

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
        line = raw.strip(_BLANK)
        if not line:
            continue
        if line.startswith("//"):
            match = _LAYOUT_RE.match(line)
            if match and blob is None:
                blob = match.group(1)
            continue
        if not saw_version:
            if not re.match(r"^OPENQASM[ \t]+3(\.[0-9]+)?[ \t]*;[ \t]*(?://.*)?$", line):
                raise QasmSyntaxError(
                    f"expected OPENQASM 3 version line, got {line!r}", line_no, 1)
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
                f"register wider than the supported {MAX_WIDTH} qubits", line_no, 1)
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
        if entry is not None and entry[1] < width:
            table[raw] = entry[0]
            continue
        line = raw.strip(_BLANK)
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
                f"statement {name!r} is outside the x/cx/ccx/reset subset", line_no, 1)
        raise QasmSyntaxError(f"unknown statement {name!r}", line_no, 1)
    pieces = [piece.strip(_BLANK) for piece in match.group("args").split(",")]
    if not pieces[-1]:  # no operands, or OpenQASM's optional trailing comma
        pieces.pop()
    operands = []
    for piece in pieces:
        operand_match = _OPERAND_RE.match(piece)
        if not operand_match:
            raise QasmSyntaxError(f"bad operand {piece!r}", line_no, 1)
        digits = operand_match.group(1)
        try:
            operands.append(int(digits))
        except ValueError:  # past int()'s digit limit, so past any width
            raise WidthMismatch(f"operand index of {len(digits)} digits outside "
                                f"register of size {width}", line_no, 1)
    if len(operands) != kind.arity:
        raise QasmSyntaxError(
            f"{name} takes {kind.arity} operand(s), got {len(operands)}", line_no, 1)
    for wire in operands:
        if wire >= width:
            raise WidthMismatch(
                f"operand q[{wire}] outside register of size {width}", line_no, 1)
    if len(set(operands)) != len(operands):
        raise DuplicateOperand(f"{line_no}:1: repeated operand in {line!r}")
    return Gate(kind, operands)


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
    wires = a + b + sums + mods
    if not set(map(type, wires)) <= {int} or min(wires) < 0 or max(wires) >= width:
        return None
    if len({*a, *b}) != 2 * n + 2 or len({*sums, *mods}) != len(sums) + len(mods):
        return None
    if type(roles) is not list or not all(role in _ROLES for role in roles):
        return None
    return RegisterLayout(n, a, b, sums, mods, frozenset(roles)), variant
