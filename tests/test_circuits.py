import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qmodadd.builders import AdderVariant, build_qma
from qmodadd.circuits import (
    Circuit,
    Gate,
    GateKind,
    analyze,
    cnot,
    compute_layering,
    depth_by_kind,
    path_depth,
    reset,
    toffoli,
    total_depth,
    x,
)
from qmodadd.errors import (
    ArityMismatch, DuplicateOperand, LengthMismatch, OperandOutOfRange, UnknownOption,
)
from qmodadd.sim import run_exact


def test_gate_kind_values_and_arities():
    assert GateKind("cx") is GateKind.CNOT
    assert {kind.name: (kind.value, kind.arity) for kind in GateKind} == {
        "X": ("x", 1),
        "CNOT": ("cx", 2),
        "TOFFOLI": ("ccx", 3),
        "RESET": ("reset", 1),
    }


def test_gate_is_a_frozen_value():
    gate = Gate(GateKind.CNOT, [0, 1])
    assert gate.operands == (0, 1)
    assert type(gate.operands) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        gate.operands = (1, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gate.kind = GateKind.X
    assert gate == cnot(0, 1)
    assert hash(gate) == hash(cnot(0, 1))
    assert len({gate, cnot(0, 1), Gate(GateKind.CNOT, (1, 0))}) == 2
    with pytest.raises(ArityMismatch):
        Gate(GateKind.TOFFOLI, [0, 1])
    with pytest.raises(DuplicateOperand):
        Gate(GateKind.CNOT, [3, 3])


def test_gate_arity_checked():
    with pytest.raises(ArityMismatch):
        Gate(GateKind.CNOT, (0,))
    with pytest.raises(ArityMismatch):
        Gate(GateKind.X, (0, 1))


def test_duplicate_operand_rejected():
    with pytest.raises(DuplicateOperand):
        cnot(2, 2)
    with pytest.raises(DuplicateOperand):
        toffoli(0, 1, 0)


def test_circuit_rejects_out_of_range_operands():
    assert len(Circuit(3, (x(0),)).gates) == 1
    with pytest.raises(OperandOutOfRange):
        Circuit(3, (x(0), toffoli(0, 1, 5)))
    with pytest.raises(OperandOutOfRange):
        Circuit(3, (x(-1),))


class _DuckGate:
    def __init__(self, kind, operands):
        self.kind, self.operands = kind, operands


@pytest.mark.parametrize("make, error", [
    (lambda: Gate(GateKind.CNOT, (1.0, 2)), OperandOutOfRange),
    (lambda: Gate(GateKind.X, (np.float64(0),)), OperandOutOfRange),
    (lambda: Gate(GateKind.X, ("0",)), OperandOutOfRange),
    (lambda: Gate(GateKind.X, 0), OperandOutOfRange),
    (lambda: Gate("x", (0,)), UnknownOption),
    (lambda: Circuit(2.5), LengthMismatch),
    (lambda: Circuit(-1), LengthMismatch),
    (lambda: Circuit("3"), LengthMismatch),
    (lambda: Circuit(3, (x(0), _DuckGate(GateKind.X, (1,)))), UnknownOption),
    (lambda: Circuit(3, ("x q[0];",)), UnknownOption),
], ids=["float-wire", "numpy-float-wire", "str-wire", "int-operands", "str-kind",
        "width-2.5", "width-minus-1", "str-width", "duck-gate", "str-gate"])
def test_malformed_gates_and_circuits_are_refused_where_made(make, error):
    with pytest.raises(error):
        make()


def test_bool_and_numpy_wires_and_widths_become_ints():
    gate = Gate(GateKind.CNOT, (True, np.int64(2)))
    assert gate.operands == (1, 2) and set(map(type, gate.operands)) == {int}
    assert gate == cnot(1, 2) and gate.statement == "cx q[1], q[2];"
    circuit = Circuit(np.uint8(3), [gate])
    assert type(circuit.width) is int and circuit == Circuit(3, (cnot(1, 2),))
    assert Circuit(True).width == 1 and Circuit(0).gates == ()
    with pytest.raises(DuplicateOperand):
        Gate(GateKind.CNOT, (True, 1))


@pytest.mark.parametrize(
    "gates,layers",
    [
        ([cnot(0, 1), cnot(2, 3)], 1),
        ([cnot(0, 1), cnot(1, 2)], 2),
    ],
)
def test_layering_examples(gates, layers):
    assert len(compute_layering(Circuit(4, tuple(gates)))) == layers


def _min_depth_brute_force(gates):
    """Smallest layer count over every schedule that keeps order on shared
    wires and wire-disjointness within a layer.  Exponential; tiny inputs only."""
    n = len(gates)
    best = n
    for assignment in itertools.product(range(n), repeat=n):
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                shared = set(gates[i].operands) & set(gates[j].operands)
                if shared and assignment[i] >= assignment[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = min(best, len(set(assignment)))
    return best


def test_layering_matches_brute_force_minimum():
    gates = (x(0), toffoli(0, 1, 2), x(0))
    assert _min_depth_brute_force(gates) == 3
    assert len(compute_layering(Circuit(3, gates))) == 3


def test_depth_by_kind_absent_kind_is_zero():
    circuit = Circuit(3, (cnot(0, 1), x(2)))
    assert depth_by_kind(circuit, GateKind.TOFFOLI) == 0


def test_depth_by_kind_filters_before_layering():
    # The X between the CNOTs does not force them apart once filtered out.
    circuit = Circuit(3, (cnot(0, 1), x(2), cnot(0, 2)))
    assert depth_by_kind(circuit, GateKind.CNOT) == 2
    assert total_depth(circuit) == 2


def test_path_depth_keeps_dependencies_through_other_kinds():
    # Filtered, the two CNOTs share no wire; the X on wire 1 and the
    # Toffoli on wires 1, 2, 3 still chain them.
    circuit = Circuit(4, (cnot(0, 1), x(1), toffoli(1, 2, 3), cnot(3, 2)))
    assert depth_by_kind(circuit, GateKind.CNOT) == 1
    assert path_depth(circuit, GateKind.CNOT) == 2
    # A reset is an edge too.
    circuit = Circuit(5, (cnot(0, 1), reset(1), toffoli(1, 2, 3), cnot(3, 4)))
    assert depth_by_kind(circuit, GateKind.CNOT) == 1
    assert path_depth(circuit, GateKind.CNOT) == 2
    assert path_depth(circuit, GateKind.TOFFOLI) == 1
    assert path_depth(circuit, GateKind.X) == 0
    assert path_depth(Circuit(0), GateKind.CNOT) == 0


_WIRES = st.integers(min_value=0, max_value=5)


@st.composite
def _random_gate(draw, kinds=(GateKind.X, GateKind.CNOT, GateKind.TOFFOLI)):
    kind = draw(st.sampled_from(kinds))
    wires = draw(
        st.lists(_WIRES, min_size=kind.arity, max_size=kind.arity, unique=True)
    )
    return Gate(kind, tuple(wires))


@st.composite
def reset_free_circuits(draw):
    gates = draw(st.lists(_random_gate(), max_size=25))
    return Circuit(6, tuple(gates))


@st.composite
def circuits_with_resets(draw):
    gates = draw(st.lists(_random_gate(tuple(GateKind)), max_size=25))
    return Circuit(6, tuple(gates))


def _dag_longest_path(gates, weight):
    """Brute force: the heaviest path of the DAG with an edge i -> j for
    every i < j whose gates share a wire, a node weighing weight(gate)."""
    best = []
    for j, gate in enumerate(gates):
        before = [best[i] for i in range(j)
                  if set(gates[i].operands) & set(gate.operands)]
        best.append(max(before, default=0) + weight(gate))
    return max(best, default=0)


@given(circuits_with_resets())
@example(Circuit(3, (reset(0), cnot(0, 1), reset(1), reset(1), toffoli(1, 2, 0), x(2))))
@settings(max_examples=150, deadline=None)
def test_depths_are_the_longest_paths_of_the_dependency_dag(circuit):
    gates = circuit.gates
    everything = _dag_longest_path(gates, lambda gate: 1)
    assert total_depth(circuit) == len(compute_layering(circuit)) == everything
    for kind in GateKind:
        counted = _dag_longest_path(gates, lambda gate: gate.kind is kind)
        assert path_depth(circuit, kind) == counted
        kept = [gate for gate in gates if gate.kind is kind]
        assert depth_by_kind(circuit, kind) == _dag_longest_path(kept, lambda gate: 1)
    _assert_one_walk_agrees(circuit)


def _assert_one_walk_agrees(circuit):
    """Every analyze field equals its one-purpose view, and each view equals
    the brute-force DAG path or a plain count."""
    gates = circuit.gates
    report = analyze(circuit)
    assert analyze(circuit) is report  # kept: one walk per circuit
    counts = [sum(gate.kind is kind for gate in gates) for kind in GateKind]
    assert [report.x_count, report.cnot_count, report.toffoli_count,
            report.reset_count] == counts
    cnots = [gate for gate in gates if gate.kind is GateKind.CNOT]
    assert report.cnot_depth == depth_by_kind(circuit, GateKind.CNOT) == (
        _dag_longest_path(cnots, lambda gate: 1))
    assert report.toffoli_depth == path_depth(circuit, GateKind.TOFFOLI) == (
        _dag_longest_path(gates, lambda gate: gate.kind is GateKind.TOFFOLI))
    assert report.total_depth == total_depth(circuit) == (
        _dag_longest_path(gates, lambda gate: 1))
    assert (report.label, report.width) == (circuit.label, circuit.width)
    assert report.fom == circuit.width * report.toffoli_depth


@pytest.mark.parametrize("variant", list(AdderVariant))
def test_analyze_agrees_with_the_views_on_every_adder(variant):
    for n in range(1, 13):
        _assert_one_walk_agrees(build_qma(variant, n).circuit)


@given(reset_free_circuits())
@settings(max_examples=60, deadline=None)
def test_reset_free_circuits_are_permutations(circuit):
    outputs = set()
    for value in range(1 << circuit.width):
        bits = [(value >> i) & 1 for i in range(circuit.width)]
        out = run_exact(circuit, bits)
        outputs.add(tuple(out))
    assert len(outputs) == 1 << circuit.width


@given(reset_free_circuits())
@settings(max_examples=100, deadline=None)
def test_layering_invariants(circuit):
    layers = compute_layering(circuit)
    # every gate in exactly one layer
    assignment = {index: depth for depth, layer in enumerate(layers) for index in layer}
    assert sorted(assignment) == list(range(len(circuit.gates)))
    assert sum(map(len, layers)) == len(circuit.gates)
    # wire-disjointness inside each layer
    for layer in layers:
        used = []
        for index in layer:
            used.extend(circuit.gates[index].operands)
        assert len(used) == len(set(used))
    # order respected on shared wires
    for i, gi in enumerate(circuit.gates):
        for j in range(i + 1, len(circuit.gates)):
            gj = circuit.gates[j]
            if set(gi.operands) & set(gj.operands):
                assert assignment[i] < assignment[j]
    # deterministic
    again = compute_layering(circuit)
    assert again == layers


@given(reset_free_circuits(), _random_gate())
@settings(max_examples=100, deadline=None)
def test_depth_never_decreases_when_appending(circuit, gate):
    bigger = Circuit(circuit.width, circuit.gates + (gate,))
    assert total_depth(bigger) >= total_depth(circuit)
    for kind in GateKind:
        assert depth_by_kind(bigger, kind) >= depth_by_kind(circuit, kind)
        assert path_depth(bigger, kind) >= path_depth(circuit, kind)


@given(reset_free_circuits())
@settings(max_examples=100, deadline=None)
def test_path_depth_bounds(circuit):
    # Every chain of the filtered layering is a path of the full DAG, and
    # no path holds more gates of a kind than the circuit does.
    for kind in GateKind:
        assert depth_by_kind(circuit, kind) <= path_depth(circuit, kind)
        assert path_depth(circuit, kind) <= sum(g.kind is kind for g in circuit.gates)
