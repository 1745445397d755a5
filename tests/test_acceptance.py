"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Each criterion runs at its published tolerance; a terminal summary block
(see conftest) prints one PASS/FAIL line per criterion.  Known state:
all nine criteria pass.  Toffoli depth is counted along the full
circuit's dependency paths and CNOT depth on the CNOT-only layering;
the circuits module docstring gives the reasons.
"""
import json
import math
import random

from qmodadd.builders import AdderVariant, build_qma, decode
from qmodadd.circuits import GateKind, analyze, round2
from qmodadd.cli import main
from qmodadd.errors import QmodaddError
from qmodadd.metrics import run_experiment
from qmodadd.oracle import mod_add_plus_one
from qmodadd.qasm import export_qasm, parse_qasm
from qmodadd.sim import (
    DEFAULT_NOISE,
    NoiseModel,
    effective_reset_error,
    run_exact,
    run_noisy,
)

ALL = list(AdderVariant)
ORDERING_SEEDS = (7, 8, 9, 10, 11)


def test_criterion_1_functional_correctness():
    """Exact simulation equals the oracle on every valid input, n = 1..6."""
    mismatches = []
    for n in range(1, 7):
        for variant in ALL:
            built = build_qma(variant, n)
            layout = built.layout
            for a in range((1 << n) + 1):
                for b in range((1 << n) + 1):
                    out = run_exact(built.circuit, built.encode(a, b))
                    mod = decode(out, layout.mod_wires)
                    total = decode(out, layout.sum_wires)
                    if mod != mod_add_plus_one(n, a, b) or total != a + b:
                        mismatches.append((variant.name, n, a, b, mod, total))
    assert not mismatches, mismatches[:10]


TABLE_FORMULAS = {
    AdderVariant.QMA1: dict(
        width=lambda n: 3 * n + 5,
        cnot_count=lambda n: 10 * n,
        toffoli_count=lambda n: 4 * n + 3,
        cnot_depth=lambda n: 6 * n + 2,
        toffoli_depth=lambda n: 4 * n + 3,
        reset_count=lambda n: 0,
    ),
    AdderVariant.QMA2: dict(
        width=lambda n: 3 * n + 4,
        cnot_count=lambda n: 6 * n + 1,
        toffoli_count=lambda n: 3 * n + 2,
        cnot_depth=lambda n: 3 * n + 2,
        toffoli_depth=lambda n: 3 * n + 2,
        reset_count=lambda n: 0,
    ),
    AdderVariant.QMA3: dict(
        width=lambda n: 2 * n + 4,
        cnot_count=lambda n: 6 * n + 1,
        toffoli_count=lambda n: 3 * n + 2,
        cnot_depth=lambda n: 3 * n + 2,
        toffoli_depth=lambda n: 3 * n + 2,
        reset_count=lambda n: n + 1,
    ),
    AdderVariant.QMA4: dict(
        width=lambda n: 2 * n + 4,
        cnot_count=lambda n: 6 * n + 1,
        toffoli_count=lambda n: 3 * n + 2,
        cnot_depth=lambda n: 3 * n + 2,
        toffoli_depth=lambda n: 3 * n + 2,
        reset_count=lambda n: 2 * n + 2,
    ),
}


def test_criterion_2_resource_formulas_exact():
    """Closed-form resource table, exact integer equality for n = 1..8."""
    bad = []
    for n in range(1, 9):
        for variant in ALL:
            report = analyze(build_qma(variant, n).circuit)
            for field, formula in TABLE_FORMULAS[variant].items():
                got = getattr(report, field)
                want = formula(n)
                if got != want:
                    bad.append(f"{variant.name} n={n} {field}: {got} != {want}")
    assert not bad, "; ".join(bad)


def test_criterion_3_headline_reductions_at_n4():
    """Named n=4 deltas, percentages to two decimals, half-even."""
    from fractions import Fraction

    reports = {v: analyze(build_qma(v, 4).circuit) for v in ALL}
    bad = []

    def check(label, got, want):
        if str(got) != str(want):
            bad.append(f"{label}: {got} != {want}")

    check("qma1 cnot count", reports[AdderVariant.QMA1].cnot_count, 40)
    check("qma2 cnot count", reports[AdderVariant.QMA2].cnot_count, 25)
    check("cnot count drop",
          round2(Fraction(100 * (40 - 25), 40)), "37.50")
    check("qma1 cnot depth", reports[AdderVariant.QMA1].cnot_depth, 26)
    check("qma2 cnot depth", reports[AdderVariant.QMA2].cnot_depth, 14)
    check("cnot depth drop",
          round2(Fraction(100 * (26 - 14), 26)), "46.15")
    check("toffoli count drop",
          round2(Fraction(100 * (19 - 14), 19)), "26.32")
    check("qubit drop qma2->qma3",
          round2(Fraction(100 * (16 - 12), 16)), "25.00")
    check("qma1 fom", reports[AdderVariant.QMA1].fom, 323)
    check("qma2 fom", reports[AdderVariant.QMA2].fom, 224)
    check("qma3 fom", reports[AdderVariant.QMA3].fom, 168)
    check("fom drop qma1->qma2",
          round2(Fraction(100 * (323 - 224), 323)), "30.65")
    check("fom drop qma2->qma3 (rel. first)",
          round2(Fraction(100 * (224 - 168), 323)), "17.34")
    assert not bad, "; ".join(bad)


def test_criterion_4_nmed_ordering_under_default_noise():
    """Strict error ordering at n=4, 1000 shots, five seeds."""
    failures = []
    for seed in ORDERING_SEEDS:
        nmeds = [
            float(run_experiment(v, 4, DEFAULT_NOISE, 1000, seed).nmed)
            for v in ALL
        ]
        gaps = [nmeds[i] - nmeds[i + 1] for i in range(3)]
        if not all(gap > 0 for gap in gaps):
            failures.append((seed, nmeds))
    assert not failures, failures


def test_criterion_5_reset_purification_law():
    """k back-to-back resets leave |1> at the purified rate (3-sigma,
    one million shots, all nine (delta, k) combinations)."""
    from qmodadd.circuits import Circuit, reset

    shots = 1_000_000
    out_of_band = []
    for delta in (0.05, 0.1, 0.2):
        for k in (1, 2, 3):
            circuit = Circuit(1, tuple(reset(0) for _ in range(k)))
            hist = run_noisy(
                circuit, [0], NoiseModel(delta_reset=delta), shots,
                seed=1000 * k + int(delta * 100),
            )
            p = effective_reset_error(delta, k)
            sigma = math.sqrt(p * (1 - p) / shots)
            observed = hist.get(1, 0) / shots
            if abs(observed - p) > 3 * sigma:
                out_of_band.append((delta, k, observed, p))
    assert not out_of_band, out_of_band


def test_criterion_6_noiseless_exactness():
    """All-zero noise means zero error distance everywhere, n = 1..6."""
    quiet = NoiseModel()
    for n in range(1, 7):
        for variant in ALL:
            report = run_experiment(variant, n, quiet, shots=1, seed=0)
            assert report.nmed == 0, (variant, n)


def test_criterion_7_reversibility():
    """Static adders: no resets; bijective on the full basis for small
    widths and injective on the valid subspace up to n = 6."""
    for variant in (AdderVariant.QMA1, AdderVariant.QMA2):
        for n in (1, 2):
            built = build_qma(variant, n)
            assert sum(g.kind is GateKind.RESET for g in built.circuit.gates) == 0
            width = built.circuit.width
            if width <= 12:
                seen = set()
                for value in range(1 << width):
                    bits = [(value >> i) & 1 for i in range(width)]
                    seen.add(tuple(run_exact(built.circuit, bits)))
                assert len(seen) == 1 << width, (variant, n)
        for n in range(1, 7):
            built = build_qma(variant, n)
            outputs = set()
            for a in range((1 << n) + 1):
                for b in range((1 << n) + 1):
                    outputs.add(tuple(run_exact(built.circuit, built.encode(a, b))))
            assert len(outputs) == ((1 << n) + 1) ** 2, (variant, n)


def test_criterion_8_qasm_round_trip_and_fuzz():
    for n in range(1, 9):
        for variant in ALL:
            built = build_qma(variant, n)
            circuit, layout = parse_qasm(export_qasm(built))
            assert circuit.gates == built.circuit.gates, (variant, n)
            assert circuit.width == built.circuit.width
            assert layout == built.layout
            assert analyze(circuit) == analyze(built.circuit)

    rng = random.Random(8)
    pieces = [
        "OPENQASM 3.0;", "qubit[", "] q;", "cx q[", "ccx q[", "reset q[",
        "x q[", "]", ";", ",", " ", "\n", "//", "h q[0];", "measure",
        "0", "1", "7", "q", "{", "}",
    ]
    for _ in range(10_000):
        blob = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 40)))
        try:
            parse_qasm(blob)
        except QmodaddError:
            continue


def test_criterion_9_determinism_byte_identical_json(capsys):
    argv = [
        "experiment", "--all", "--n", "4", "--shots", "1000", "--seed", "7",
        "--check-ordering",
    ]
    assert main(list(argv)) == 0  # exit 0 also certifies the NMED ordering
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == 1
    nmeds = [row["nmed_float"] for row in payload["rows"]]
    assert len(nmeds) == 4
    assert all(a > b for a, b in zip(nmeds, nmeds[1:]))
