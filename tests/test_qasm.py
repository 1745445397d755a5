import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from qmodadd import qasm
from qmodadd.builders import AdderVariant, build_qma
from qmodadd.circuits import Circuit, GateKind, x
from qmodadd.errors import (
    DuplicateOperand,
    QasmError,
    QasmSyntaxError,
    QmodaddError,
    SubsetViolation,
    WidthMismatch,
)
from qmodadd.qasm import MAX_WIDTH, export_circuit, export_qasm, parse_qasm


def test_single_gate_export():
    text = export_circuit(Circuit(1, (x(0),)))
    lines = text.strip().splitlines()
    assert lines == ["OPENQASM 3.0;", "qubit[1] q;", "x q[0];"]


def test_export_is_deterministic():
    built = build_qma(AdderVariant.QMA2, 4)
    assert export_qasm(built) == export_qasm(built)
    assert export_qasm(built) == export_qasm(build_qma(AdderVariant.QMA2, 4))


def test_qma3_export_has_five_resets():
    text = export_qasm(build_qma(AdderVariant.QMA3, 4))
    resets = [line for line in text.splitlines() if line.startswith("reset ")]
    assert len(resets) == 5


def test_round_trip_with_layout():
    built = build_qma(AdderVariant.QMA2, 4)
    text = export_qasm(built)
    # Older files carry an always-empty "ancilla_wires" key; it is ignored.
    legacy = text.replace('"b_wires"', '"ancilla_wires": [], "b_wires"', 1)
    assert legacy != text
    # The first layout comment counts wherever it stands.
    lines = text.splitlines()
    moved = "\n".join(lines[1:4] + [lines[0], '// layout: {"n": 1}'] + lines[4:])
    for source in (text, legacy, moved):
        circuit, layout = parse_qasm(source)
        assert circuit.width == built.circuit.width
        assert circuit.gates == built.circuit.gates
        assert layout == built.layout
        assert circuit.label == "qma2"


def test_parse_without_metadata():
    circuit, layout = parse_qasm("OPENQASM 3.0;\nqubit[2] q;\ncx q[0], q[1];\n")
    assert layout is None
    assert circuit.gates[0].kind is GateKind.CNOT


def test_subset_violation_names_gate():
    bad = "OPENQASM 3.0;\nqubit[2] q;\nh q[0];\n"
    with pytest.raises(SubsetViolation) as err:
        parse_qasm(bad)
    assert "'h'" in str(err.value)
    assert err.value.line == 3


def test_duplicate_operand_reported_with_line():
    bad = "OPENQASM 3.0;\nqubit[2] q;\ncx q[1], q[1];\n"
    with pytest.raises(DuplicateOperand) as err:
        parse_qasm(bad)
    assert "3:1" in str(err.value)


def test_width_mismatch():
    bad = "OPENQASM 3.0;\nqubit[3] q;\nccx q[0], q[1], q[9];\n"
    with pytest.raises(WidthMismatch):
        parse_qasm(bad)


def test_register_width_is_capped():
    header = "// a comment\nOPENQASM 3.0;\nqubit[{}] q;\n"
    assert parse_qasm(header.format(MAX_WIDTH))[0].width == MAX_WIDTH
    # Past the cap, and past int()'s default digit limit, nothing is built.
    for width in (MAX_WIDTH + 1, "9" * 20, "9" * 5000):
        with pytest.raises(SubsetViolation) as err:
            parse_qasm(header.format(width))
        assert err.value.line == 3
        assert str(MAX_WIDTH) in str(err.value)


@pytest.mark.parametrize("body", ["x q[0];\n", "x r[0];\n"])
def test_register_must_be_named_q(body):
    with pytest.raises(SubsetViolation) as err:
        parse_qasm("OPENQASM 3.0;\nqubit[2] r;\n" + body)
    assert err.value.line == 2
    assert "'r'" in str(err.value)


@pytest.mark.parametrize(
    "char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
)
def test_only_lf_crlf_and_cr_end_a_line(char):
    text = export_qasm(build_qma(AdderVariant.QMA2, 1))
    expected = parse_qasm(text)
    # A comment holding the character, then a statement: all one comment,
    # in the header, mid-body and last.
    comment = f"// note{char}x q[0];\n"
    lines = text.splitlines(keepends=True)
    commented = "".join([lines[0], comment, *lines[1:4], comment, *lines[4:], comment])
    for newline in ("\n", "\r\n", "\r"):
        assert parse_qasm(commented.replace("\n", newline)) == expected


def test_huge_operand_is_a_width_mismatch():
    operand = "q[" + "9" * 5000 + "]"
    with pytest.raises(WidthMismatch) as err:
        parse_qasm(f"OPENQASM 3.0;\nqubit[2] q;\nx {operand};\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "source",
    [
        "",
        "qubit[2] q;\n",
        "OPENQASM 3.0;\n",
        "OPENQASM 3.0;\nqubit[2] q;\ncx q[0] q[1];\n",
        "OPENQASM 3.0;\nqubit[2] q;\ncx q[0], q[1]\n",
        "OPENQASM 2.0;\nqreg q[2];\n",
        pytest.param(b"OPENQASM 3.0;\n", id="bytes-not-text"),
        # Numbers are ASCII digits; int() would read any Unicode digit.
        pytest.param("OPENQASM 3.\u0660;\nqubit[2] q;\n", id="arabic-indic-version"),
        pytest.param("OPENQASM 3.0;\nqubit[\u0663] q;\n", id="arabic-indic-width"),
        pytest.param("OPENQASM 3.0;\nqubit[2] q;\nx q[\u0661];\n", id="arabic-indic-operand"),
        pytest.param("OPENQASM 3.0;\nqubit[2] q;\ncx q[\uff10], q[1];\n", id="fullwidth-operand"),
    ],
)
def test_syntax_errors(source):
    with pytest.raises(QasmSyntaxError):
        parse_qasm(source)


@pytest.mark.parametrize(
    "old, new",
    [
        ('"variant": "QMA2"', '"variant": "QMA9"'),
        ('"a_wires": [0, 1]', '"a_wires": [0, 99]'),
        ('"a_wires": [0, 1]', '"a_wires": [0, -1]'),
        ('"n": 1', '"n": 0'),
        ('"n": 1', '"n": Infinity'),
        ('"n": 1', '"n": 2'),
        ('"a_wires": [0, 1]', '"a_wires": [0]'),
        ('"n": 1', '"n": "1"'),
        ('"n": 1', '"n": 1.9'),
        ('"n": 1', '"n": true'),
        ('"a_wires": [0, 1]', '"a_wires": [false, true]'),
        ('"preserved_roles": ["b", "mod", "sum"]', '"preserved_roles": "bsum"'),
        ('"preserved_roles": ["b", "mod", "sum"]', '"preserved_roles": ["zzz"]'),
        ('"mod_wires": [5, 6]', '"mod_wires": [5, 6, 4]'),
        ('"sum_wires": [0, 1, 4]', '"sum_wires": [0, 1]'),
        ('"b_wires": [2, 3]', '"b_wires": [0, 1]'),
        ('"a_wires": [0, 1]', '"a_wires": [0, 0]'),
        ('"mod_wires": [5, 6]', '"mod_wires": [4, 5]'),
        pytest.param('"a_wires": [0, 1]', '"a_wires": ' + "[" * 100_000 + "]" * 100_000,
                     id="too-deep-for-json"),
    ],
)
def test_unusable_layout_parses_as_no_layout(old, new):
    text = export_qasm(build_qma(AdderVariant.QMA2, 1))
    assert old in text
    circuit, layout = parse_qasm(text.replace(old, new))
    assert layout is None
    assert circuit.label == ""
    assert circuit.gates == build_qma(AdderVariant.QMA2, 1).circuit.gates


def test_malformed_layout_comment_is_not_fatal():
    text = "// layout: {broken json\nOPENQASM 3.0;\nqubit[1] q;\nx q[0];\n"
    circuit, layout = parse_qasm(text)
    assert layout is None
    assert len(circuit.gates) == 1


def test_fuzz_never_crashes():
    rng = random.Random(20240817)
    alphabet = "qcx[]();,0123456789 \n\t/OPENQASM3.halt*-+"
    for _ in range(2000):
        blob = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        try:
            parse_qasm(blob)
        except QmodaddError:
            pass


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_fuzz_arbitrary_text(blob):
    try:
        parse_qasm(blob)
    except QmodaddError:
        pass


@given(st.binary(max_size=120))
@settings(max_examples=200, deadline=None)
def test_fuzz_arbitrary_bytes_decoded(blob):
    try:
        parse_qasm(blob.decode("latin-1"))
    except QmodaddError:
        pass


def _outcome(text):
    """parse_qasm's result, or the type and message of what it raised."""
    try:
        return parse_qasm(text)
    except QmodaddError as err:
        return type(err), str(err)


#: what the differential fuzz inserts: whitespace, every separator that
#: str.splitlines() breaks on (of which only "\n" and "\r" end a line),
#: comments, punctuation, operands and a non-ASCII digit
_INSERTS = (
    " ", "\t", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", "// c\n", "//", ";", ",", "[", "]", "{", "}", "q[0]",
    ", q[1]", "123456", "9" * 5000, "\u0663",
)


def _mutate(rng, text, width):
    for _ in range(rng.randrange(1, 4)):
        pos = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.5:
            text = text[:pos] + rng.choice(_INSERTS) + text[pos:]
        elif roll < 0.7:
            text = text[:pos] + text[pos + rng.randrange(1, 4):]
        else:
            # Rewrite the width or one operand: out of range, repeated,
            # too wide or gone.
            pattern = r"qubit\[(\d+)\]" if rng.random() < 0.2 else r"(?:, )?q\[(\d+)\]"
            targets = list(re.finditer(pattern, text))
            if not targets:
                continue
            match = rng.choice(targets)
            new = rng.choice([
                str(width), str(width - 1), "0", "00", str(MAX_WIDTH + 1),
                "123456", "9" * 5000, targets[0].group(1), None,
            ])
            if new is None:
                text = text[:match.start()] + text[match.end():]
            else:
                text = text[:match.start(1)] + new + text[match.end(1):]
    return text


def _count_parsed(monkeypatch, counts):
    """Make every `_parse_statement` call add one to `counts[-1]`."""
    parse_statement = qasm._parse_statement

    def counted(*args):
        counts[-1] += 1
        return parse_statement(*args)

    monkeypatch.setattr(qasm, "_parse_statement", counted)


def test_fast_path_agrees_with_the_line_parser(monkeypatch):
    rng = random.Random(11)
    sources = [export_qasm(build_qma(v, n)) for v in AdderVariant for n in (1, 2)]
    sources += [export_circuit(build_qma(v, 1).circuit) for v in AdderVariant]
    texts = []
    for _ in range(5000):
        source = rng.choice(sources)
        width = int(re.search(r"qubit\[(\d+)\]", source).group(1))
        texts.append(_mutate(rng, source, width) if rng.random() < 0.9 else source)
    # Edges of splitting the body into lines: no final newline, a blank
    # line between the last two statements, and "\r\n" line ends.
    for source in sources:
        lines = source.split("\n")
        texts += [
            source[:-1],
            "\n".join(lines[:-2] + [""] + lines[-2:]),
            source.replace("\n", "\r\n"),
        ]
    counts = []
    _count_parsed(monkeypatch, counts)
    outcomes = []
    for text in texts:
        counts.append(0)
        outcomes.append(_outcome(text))
    # Every statement line through the statement parser: no export-form
    # match, and no statement kept from earlier calls.
    monkeypatch.setattr(qasm, "_EXPORTED_STMT", re.compile("(?!)"))
    monkeypatch.setattr(qasm, "_RECENT", {})
    counts.append(0)
    mismatches = [
        text for text, got in zip(texts, outcomes) if _outcome(text) != got
    ]
    assert mismatches == []
    assert counts.pop() > len(texts)
    assert qasm._RECENT == {}
    # Both branches were exercised: texts read without the statement parser,
    # and texts where it read some lines.
    unparsed = sum(isinstance(got[0], Circuit) and not count
                   for got, count in zip(outcomes, counts))
    assert 500 < unparsed < 4000
    assert sum(map(bool, counts)) > 500


def test_earlier_calls_do_not_change_a_result(monkeypatch):
    rng = random.Random(21)
    source = export_qasm(build_qma(AdderVariant.QMA1, 4))
    # Narrower declarations reuse the export's lines, some of them now
    # out of range.
    texts = [source] + [source.replace("qubit[17]", f"qubit[{width}]")
                        for width in (16, 9, 2)]
    texts += [_mutate(rng, source, 17) for _ in range(40)]
    monkeypatch.setattr(qasm, "_RECENT", {})
    in_order = [_outcome(text) for text in texts]
    in_reverse = [_outcome(text) for text in reversed(texts)][::-1]
    alone = []
    for text in texts:
        qasm._RECENT.clear()
        alone.append(_outcome(text))
    assert in_order == in_reverse == alone
    assert isinstance(in_order[0][0], Circuit)
    # A kept statement whose wire is out of range raises at its line.
    parse_qasm(source)
    first = next(no for no, line in enumerate(source.splitlines(), start=1)
                 if "q[16]" in line)
    assert source.splitlines()[first - 1] in qasm._RECENT
    with pytest.raises(WidthMismatch) as err:
        parse_qasm(texts[1])
    assert err.value.line == first


def test_kept_statements_are_bounded(monkeypatch):
    monkeypatch.setattr(qasm, "_RECENT", {})
    wires = qasm._RECENT_MAX + 100
    header = f"OPENQASM 3.0;\nqubit[{wires}] q;\n"
    circuit = parse_qasm(header + "".join(f"x q[{w}];\n" for w in range(wires)))[0]
    assert len(circuit.gates) == wires
    assert 0 < len(qasm._RECENT) <= qasm._RECENT_MAX
    qasm._RECENT.clear()
    comment = "// " + "c" * 100_000
    # Only export-form statements that build a gate are kept.
    kept = ["x q[0];", "cx q[0], q[1];"]
    lines = [comment, "cx q[0],q[1];", "h q[0];"]
    with pytest.raises(SubsetViolation):
        parse_qasm(header + "\n".join(kept + lines))
    assert list(qasm._RECENT) == kept
    for line in ("cx q[1], q[1];", "x q[0], q[1];"):
        with pytest.raises(QmodaddError):
            parse_qasm(header + line)
    assert list(qasm._RECENT) == kept


@pytest.mark.parametrize("n", [1, 4, 12])
def test_equal_statements_share_one_gate(n):
    for variant in AdderVariant:
        text = export_qasm(build_qma(variant, n))
        gates = parse_qasm(text)[0].gates
        statements = set(text.splitlines()[3:])
        assert len({id(gate) for gate in gates}) == len(statements)


def test_equal_statements_share_one_gate_off_the_export_form():
    built = build_qma(AdderVariant.QMA1, 4)
    text = export_qasm(built)
    statements = set(text.splitlines()[3:])
    for copy in (text.replace("\n", "\r\n"), text.replace(";\n", "; // c\n")):
        assert copy != text
        circuit, layout = parse_qasm(copy)
        assert (circuit.gates, layout) == (built.circuit.gates, built.layout)
        assert len({id(gate) for gate in circuit.gates}) == len(statements)


def test_fast_path_reads_every_export(monkeypatch):
    counts = [0]
    _count_parsed(monkeypatch, counts)
    for n in range(1, 97):
        for variant in AdderVariant:
            built = build_qma(variant, n)
            circuit, layout = parse_qasm(export_qasm(built))
            assert (circuit, layout) == (built.circuit, built.layout)
    bare = Circuit(built.circuit.width, built.circuit.gates)
    assert parse_qasm(export_circuit(bare)) == (bare, None)
    assert counts == [0]
