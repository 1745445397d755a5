import math

import numpy as np
import pytest
from hypothesis import given, settings

from test_circuits import reset_free_circuits

from qmodadd.builders import AdderVariant, build_qma, decode
from qmodadd.circuits import Circuit, cnot, reset, toffoli, x
from qmodadd.errors import InvalidProbability, InvalidShots, LengthMismatch
from qmodadd.sim import (
    NoiseModel,
    ShotHistogram,
    effective_reset_error,
    most_frequent,
    run_exact,
    run_noisy,
)

ZERO = NoiseModel()


def test_run_exact_gate_semantics():
    assert run_exact(Circuit(1, (x(0),)), [0]) == [1]
    assert run_exact(Circuit(3, (toffoli(0, 1, 2),)), [1, 1, 0]) == [1, 1, 1]
    assert run_exact(Circuit(3, (toffoli(0, 1, 2),)), [1, 0, 0]) == [1, 0, 0]
    assert run_exact(Circuit(2, (cnot(0, 1),)), [1, 0]) == [1, 1]
    assert run_exact(Circuit(1, (x(0), reset(0))), [0]) == [0]


def test_run_exact_length_check():
    with pytest.raises(LengthMismatch):
        run_exact(Circuit(2), [0])


def test_run_exact_reads_adder_output():
    built = build_qma(AdderVariant.QMA2, 4)
    out = run_exact(built.circuit, built.encode(5, 7))
    mod = decode(out, built.layout.mod_wires)
    assert mod == 13  # (5 + 7 + 1) mod 17


@pytest.mark.parametrize("variant", [AdderVariant.QMA3, AdderVariant.QMA4])
def test_run_exact_lanes_match_single_inputs(variant):
    # The dynamic adders reset wires, which writes the int 0 into lanes.
    built = build_qma(variant, 2)
    a, b = np.divmod(np.arange(25), 5)
    bits = built.encode(a, b)
    kept = [np.copy(row) for row in bits]
    lanes = run_exact(built.circuit, bits)
    for i in range(25):
        single = run_exact(built.circuit, built.encode(int(a[i]), int(b[i])))
        assert [int(np.broadcast_to(row, a.shape)[i]) for row in lanes] == single
    assert all(np.array_equal(row, before) for row, before in zip(bits, kept))


@given(reset_free_circuits())
@settings(max_examples=60, deadline=None)
def test_run_exact_lanes_match_single_inputs_on_random_circuits(circuit):
    values = np.arange(1 << circuit.width)
    bits = [(values >> i) & 1 for i in range(circuit.width)]
    kept = [np.copy(row) for row in bits]
    lanes = run_exact(circuit, bits)
    for value in values.tolist():
        single = run_exact(circuit, [(value >> i) & 1 for i in range(circuit.width)])
        assert [int(row[value]) for row in lanes] == single
    assert all(np.array_equal(row, before) for row, before in zip(bits, kept))


class TestEffectiveResetError:
    def test_single_reset_is_raw(self):
        assert effective_reset_error(0.1, 1) == pytest.approx(0.1)

    def test_zero_delta_stays_pure(self):
        for k in (1, 2, 5):
            assert effective_reset_error(0.0, k) == 0.0

    def test_two_resets(self):
        assert effective_reset_error(0.1, 2) == pytest.approx(0.01 / 0.82)

    def test_bounds(self):
        with pytest.raises(InvalidProbability):
            effective_reset_error(0.5, 1)
        with pytest.raises(InvalidProbability):
            effective_reset_error(-0.1, 1)
        with pytest.raises(InvalidShots):
            effective_reset_error(0.1, 0)


def test_noise_model_probability_bounds():
    with pytest.raises(InvalidProbability):
        NoiseModel(p_cnot=0.5)
    with pytest.raises(InvalidProbability):
        NoiseModel(delta_reset=0.7)


def test_noiseless_monte_carlo_degenerates_to_exact():
    built = build_qma(AdderVariant.QMA1, 2)
    bits = [0] * built.circuit.width
    bits[built.layout.a_wires[0]] = 1
    hist = run_noisy(built.circuit, bits, ZERO, shots=100, seed=1)
    exact = run_exact(built.circuit, bits)
    value = decode(exact, range(len(exact)))
    assert hist.counts == {value: 100}


def test_reset_run_collapses_to_purified_error():
    circuit = Circuit(1, (reset(0), reset(0)))
    shots = 100_000
    hist = run_noisy(circuit, [0], NoiseModel(delta_reset=0.1), shots, seed=11)
    p = effective_reset_error(0.1, 2)
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(hist.counts.get(1, 0) / shots - p) <= 3 * sigma


def test_independent_reset_model_keeps_raw_error():
    circuit = Circuit(1, (reset(0), reset(0)))
    shots = 100_000
    hist = run_noisy(
        circuit, [0], NoiseModel(delta_reset=0.1), shots, seed=11,
        reset_model="independent",
    )
    sigma = math.sqrt(0.1 * 0.9 / shots)
    assert abs(hist.counts.get(1, 0) / shots - 0.1) <= 3 * sigma


def test_interrupted_reset_runs_do_not_collapse():
    # A gate on the same wire splits the run; both resets err independently.
    circuit = Circuit(2, (reset(0), cnot(0, 1), reset(0)))
    hist = run_noisy(
        circuit, [0, 0], NoiseModel(delta_reset=0.2), 50_000, seed=5,
        readout=[0],
    )
    sigma = math.sqrt(0.2 * 0.8 / 50_000)
    assert abs(hist.counts.get(1, 0) / 50_000 - 0.2) <= 4 * sigma


def test_error_rate_monotone_in_noise_parameter():
    circuit = Circuit(2, (cnot(0, 1),))
    rates = []
    for p in (0.01, 0.05):
        hist = run_noisy(
            circuit, [0, 0], NoiseModel(p_cnot=p), 100_000, seed=3, readout=[1]
        )
        rates.append(hist.counts.get(1, 0))
    assert rates[1] > rates[0]
    rates = []
    for p in (0.01, 0.05):
        # wire 1 idles for the single layer
        hist = run_noisy(
            Circuit(2, (x(0),)), [0, 0], NoiseModel(p_idle=p), 100_000,
            seed=3, readout=[1],
        )
        rates.append(hist.counts.get(1, 0))
    assert rates[1] > rates[0]


def test_seed_determinism():
    built = build_qma(AdderVariant.QMA3, 3)
    noise = NoiseModel(0.001, 0.002, 0.005, 0.012, 0.12)
    bits = [0] * built.circuit.width
    a = run_noisy(built.circuit, bits, noise, 500, seed=42,
                  readout=list(built.layout.mod_wires))
    b = run_noisy(built.circuit, bits, noise, 500, seed=42,
                  readout=list(built.layout.mod_wires))
    assert a == b
    c = run_noisy(built.circuit, bits, noise, 500, seed=43,
                  readout=list(built.layout.mod_wires))
    assert a != c


def test_run_noisy_validation():
    circuit = Circuit(2, (cnot(0, 1),))
    with pytest.raises(InvalidShots):
        run_noisy(circuit, [0, 0], ZERO, 0, seed=0)
    with pytest.raises(LengthMismatch):
        run_noisy(circuit, [0], ZERO, 1, seed=0)
    with pytest.raises(LengthMismatch):
        run_noisy(circuit, [0, 0], ZERO, 1, seed=0, readout=[5])
    with pytest.raises(InvalidProbability):
        run_noisy(circuit, [0, 0], ZERO, 1, seed=0, reset_model="other")


def test_exact_simulation_scales_to_wide_adders():
    # Per-input cost is linear in the gate count, so spot checks on a
    # 16-bit adder are quick even though the full domain is astronomical.
    import random
    import time

    n = 16
    built = build_qma(AdderVariant.QMA2, n)
    rng = random.Random(1)
    start = time.monotonic()
    for _ in range(500):
        a = rng.randrange((1 << n) + 1)
        b = rng.randrange((1 << n) + 1)
        out = run_exact(built.circuit, built.encode(a, b))
        mod = decode(out, built.layout.mod_wires)
        assert mod == (a + b + 1) % ((1 << n) + 1)
    assert time.monotonic() - start < 60


def test_most_frequent_tie_breaks_to_smallest():
    hist = ShotHistogram(counts={0b01101: 900, 0b01100: 100}, shots=1000,
                         seed=0, readout=(0, 1, 2, 3, 4))
    assert most_frequent(hist) == 0b01101
    hist = ShotHistogram(counts={6: 500, 3: 500}, shots=1000, seed=0,
                         readout=(0, 1, 2))
    assert most_frequent(hist) == 3
