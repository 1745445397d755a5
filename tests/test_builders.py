import hashlib
import operator

import pytest

from qmodadd import cli
from qmodadd.builders import (
    AdderVariant,
    _build_all,
    build_full_adder,
    build_half_adder_increment,
    build_nor_gadget,
    build_qma,
    decode,
)
from qmodadd.circuits import Circuit, GateKind
from qmodadd.errors import DuplicateOperand, InvalidN, LengthMismatch
from qmodadd.oracle import mod_add_plus_one
from qmodadd.qasm import export_qasm
from qmodadd.sim import run_exact

#: sha256 of export_qasm(build_qma(v, n)) concatenated over the variants in
#: declaration order, n = 1..8 within each.  Emission order is part of the
#: resource contract (see the builders module docstring); any change to a
#: gate, its operands or its position changes this digest.
_GOLDEN_BUILD_SHA256 = (
    "9b0cc113e0d403b7a82a7203b23bbc7b2ee0dd955044a17bbff82e309ceb3fa5"
)


def _run(width, gates, bits):
    return run_exact(Circuit(width, tuple(gates)), list(bits))


class TestNorGadget:
    def test_truth_table_and_restoration(self):
        gates = build_nor_gadget(0, 1, 2)
        for x_in in (0, 1):
            for y_in in (0, 1):
                out = _run(3, gates, [x_in, y_in, 0])
                assert out == [x_in, y_in, 1 - (x_in | y_in)]

    def test_gate_census(self):
        gates = build_nor_gadget(3, 1, 0)
        kinds = [g.kind for g in gates]
        assert kinds.count(GateKind.TOFFOLI) == 1
        assert kinds.count(GateKind.X) == 4
        assert kinds.count(GateKind.CNOT) == 0

    def test_distinct_wires_required(self):
        with pytest.raises(DuplicateOperand):
            build_nor_gadget(0, 0, 1)


class TestFullAdder:
    def test_small_examples(self):
        w = 5
        gates = build_full_adder(list(range(w)), list(range(w, 2 * w)), 2 * w)
        out = _run(2 * w + 1, gates, [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0])
        assert decode(out, range(w)) == 2           # 1 + 1
        assert decode(out, range(w, 2 * w)) == 1    # b restored
        assert out[2 * w] == 0
        out = _run(2 * w + 1, gates, [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0])
        assert decode(out, range(w)) == 0           # 16 + 16 wraps
        assert out[2 * w] == 1

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_exhaustive_against_integer_addition(self, w):
        gates = build_full_adder(list(range(w)), list(range(w, 2 * w)), 2 * w)
        for a in range(1 << w):
            for b in range(1 << w):
                bits = [(a >> i) & 1 for i in range(w)]
                bits += [(b >> i) & 1 for i in range(w)]
                bits += [0]
                out = _run(2 * w + 1, gates, bits)
                total = a + b
                assert decode(out, range(w)) == total % (1 << w)
                assert decode(out, range(w, 2 * w)) == b
                assert out[2 * w] == total >> w

    @pytest.mark.parametrize("w", [2, 3, 5, 8])
    def test_gate_counts(self, w):
        gates = build_full_adder(list(range(w)), list(range(w, 2 * w)), 2 * w)
        kinds = [g.kind for g in gates]
        assert kinds.count(GateKind.TOFFOLI) == 2 * w - 1
        assert kinds.count(GateKind.CNOT) == 5 * (w - 1)
        assert kinds.count(GateKind.X) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            build_full_adder([0, 1], [2], 3)
        with pytest.raises(LengthMismatch):
            build_full_adder([], [], 0)
        with pytest.raises(DuplicateOperand):
            build_full_adder([0, 1], [1, 2], 3)


class TestHalfAdderIncrement:
    def test_examples(self):
        w = 5
        v = list(range(w))
        gates = build_half_adder_increment(v, w, list(range(w + 1, 2 * w)))
        bits = [(12 >> i) & 1 for i in range(w)] + [1] + [0] * (w - 1)
        out = _run(2 * w, gates, bits)
        assert decode(out, [w] + list(range(w + 1, 2 * w))) == 13
        assert decode(out, v) == 12  # value register read-only
        bits = [(7 >> i) & 1 for i in range(w)] + [0] + [0] * (w - 1)
        out = _run(2 * w, gates, bits)
        assert decode(out, [w] + list(range(w + 1, 2 * w))) == 7

    def test_exhaustive_w4(self):
        w = 4
        gates = build_half_adder_increment(
            list(range(w)), w, list(range(w + 1, 2 * w))
        )
        for value in range(1 << w):
            for c in (0, 1):
                bits = [(value >> i) & 1 for i in range(w)] + [c] + [0] * (w - 1)
                out = _run(2 * w, gates, bits)
                got = decode(out, [w] + list(range(w + 1, 2 * w)))
                assert got == (value + c) % (1 << w)
                assert decode(out, range(w)) == value

    def test_counts_and_validation(self):
        w = 6
        gates = build_half_adder_increment(
            list(range(w)), w, list(range(w + 1, 2 * w))
        )
        kinds = [g.kind for g in gates]
        assert kinds.count(GateKind.TOFFOLI) == w - 1
        assert kinds.count(GateKind.CNOT) == w
        with pytest.raises(LengthMismatch):
            build_half_adder_increment([0, 1, 2], 3, [4])


class TestBuildQma:
    def test_golden_build_digest(self):
        digest = hashlib.sha256()
        for variant in AdderVariant:
            for n in range(1, 9):
                digest.update(export_qasm(build_qma(variant, n)).encode())
        assert digest.hexdigest() == _GOLDEN_BUILD_SHA256

    @pytest.mark.parametrize("n", range(1, 7))
    def test_each_distinct_gate_is_one_object(self, n):
        for variant in AdderVariant:
            gates = build_qma(variant, n).circuit.gates
            assert len({id(gate) for gate in gates}) == len(set(gates))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_variants_of_one_n_share_their_common_stages(self, n):
        gates = {v: build_qma(v, n).circuit.gates for v in AdderVariant}
        stage = len(build_full_adder(list(range(n + 1)), list(range(n + 1, 2 * n + 2)),
                                     2 * n + 2))
        first = gates[AdderVariant.QMA1][:stage]
        for variant in AdderVariant:
            assert all(map(operator.is_, gates[variant][:stage], first))
        # QMA3 and QMA4 differ only in their resets; the tail after them is shared.
        tail = len(gates[AdderVariant.QMA2]) - stage
        qma3, qma4 = gates[AdderVariant.QMA3][-tail:], gates[AdderVariant.QMA4][-tail:]
        assert all(map(operator.is_, qma3, qma4))
        assert GateKind.RESET not in {gate.kind for gate in qma3}

    def test_repeated_build_is_one_shared_value(self):
        assert build_qma(AdderVariant.QMA2, 3) is build_qma(AdderVariant.QMA2, 3)
        # The cache is typed: an equal float is not answered from it.
        with pytest.raises(TypeError):
            build_qma(AdderVariant.QMA2, 3.0)

    def test_experiment_all_builds_each_adder_once(self, capsys):
        # The call asks for each adder three times: its work check,
        # run_experiment and run_sweep's resource report.  The first
        # builds all four.
        _build_all.cache_clear()
        assert cli.main(["experiment", "--all", "--n", "2", "--shots", "5"]) == 0
        assert _build_all.cache_info().misses == 1

    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            build_qma(AdderVariant.QMA1, 0)

    def test_register_codec_convention(self):
        built = build_qma(AdderVariant.QMA2, 4)
        layout = built.layout
        bits = built.encode(5, 7)
        ones = {layout.a_wires[0], layout.a_wires[2], *layout.b_wires[:3]}
        assert {w for w, bit in enumerate(bits) if bit} == ones
        assert len(bits) == built.circuit.width
        assert decode(bits, layout.a_wires) == 5
        assert decode(bits, layout.b_wires) == 7

    @pytest.mark.parametrize("variant", list(AdderVariant))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_oracle_exhaustively(self, variant, n):
        built = build_qma(variant, n)
        layout = built.layout
        for a in range((1 << n) + 1):
            for b in range((1 << n) + 1):
                out = run_exact(built.circuit, built.encode(a, b))
                assert decode(out, layout.mod_wires) == mod_add_plus_one(n, a, b)
                assert decode(out, layout.sum_wires) == a + b
                if "b" in layout.preserved_roles:
                    assert decode(out, layout.b_wires) == b

    def test_static_variants_are_reset_free(self):
        for variant in (AdderVariant.QMA1, AdderVariant.QMA2):
            built = build_qma(variant, 3)
            assert sum(g.kind is GateKind.RESET for g in built.circuit.gates) == 0

    def test_qma1_n4_headline_counts(self):
        circuit = build_qma(AdderVariant.QMA1, 4).circuit
        assert circuit.width == 17
        assert sum(g.kind is GateKind.CNOT for g in circuit.gates) == 40
        assert sum(g.kind is GateKind.TOFFOLI for g in circuit.gates) == 19

    def test_qma3_n4_width_and_resets(self):
        circuit = build_qma(AdderVariant.QMA3, 4).circuit
        assert circuit.width == 12
        assert sum(g.kind is GateKind.RESET for g in circuit.gates) == 5

    def test_qma4_doubles_resets_only(self):
        qma3 = build_qma(AdderVariant.QMA3, 4).circuit
        qma4 = build_qma(AdderVariant.QMA4, 4).circuit
        assert sum(g.kind is GateKind.RESET for g in qma4.gates) == 10
        for kind in (GateKind.CNOT, GateKind.TOFFOLI, GateKind.X):
            assert (sum(g.kind is kind for g in qma3.gates)
                    == sum(g.kind is kind for g in qma4.gates))

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_structural_delta_qma4_vs_qma3(self, n):
        """qma4 = qma3 plus one extra reset right after each existing one."""
        qma3 = list(build_qma(AdderVariant.QMA3, n).circuit.gates)
        qma4 = list(build_qma(AdderVariant.QMA4, n).circuit.gates)
        assert len(qma4) == len(qma3) + n + 1
        position = 0
        extras = 0
        for gate in qma4:
            if (
                gate.kind is GateKind.RESET
                and position > 0
                and qma3[position - 1] == gate
                and (position >= len(qma3) or qma3[position] != gate)
            ):
                extras += 1
                continue
            assert qma3[position] == gate
            position += 1
        assert position == len(qma3)
        assert extras == n + 1

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_layout_role_coverage(self, n):
        for variant in AdderVariant:
            built = build_qma(variant, n)
            layout = built.layout
            assert set(layout.a_wires) | set(layout.b_wires) | set(
                layout.sum_wires
            ) | set(layout.mod_wires) == set(
                range(built.circuit.width)
            )
            assert not set(layout.a_wires) & set(layout.b_wires)
            assert not set(layout.sum_wires) & set(layout.mod_wires)
