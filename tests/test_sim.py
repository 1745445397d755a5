import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_circuits import reset_free_circuits

from qmodadd.builders import AdderVariant, build_qma, decode
from qmodadd.circuits import (
    Circuit, Gate, GateKind, compute_layering, cnot, reset, toffoli, x,
)
from qmodadd.errors import (
    DomainError, EmptyInput, InvalidProbability, InvalidShots, LengthMismatch,
    QmodaddError, UnknownOption,
)
from qmodadd.sim import (
    DEFAULT_NOISE,
    NoiseModel,
    _BLOCK_LANES,
    _lane_keys,
    _modes,
    _schedule,
    _tally,
    effective_reset_error,
    noisy_modes,
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
        with pytest.raises(DomainError):
            effective_reset_error(0.1, 0)

    def test_long_runs_do_not_underflow_to_a_crash(self):
        # 0.4^1500 and 0.6^1500 both underflow to 0.0; the ratio does not.
        p = effective_reset_error(0.4, 1500)
        assert 0.0 < p == pytest.approx(math.exp(1500 * math.log(2 / 3)), rel=1e-9)
        assert effective_reset_error(0.001, 10**6) == 0.0
        hist = run_noisy(Circuit(1, (reset(0),) * 1500), [1],
                         NoiseModel(delta_reset=0.4), 100, seed=0)
        assert hist == {0: 100}

    @pytest.mark.parametrize("delta", [0.001, 0.12, 0.3, 0.4, 0.49])
    def test_finite_values_keep_the_direct_formula(self, delta):
        # Bit for bit: any other rounding would move the random stream.
        for k in (1, 2, 3, 10, 100, 1000):
            hi, lo = delta**k, (1.0 - delta) ** k
            if lo > 0.0:
                assert effective_reset_error(delta, k) == hi / (hi + lo)


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
    assert hist == {value: 100}


def test_reset_run_collapses_to_purified_error():
    circuit = Circuit(1, (reset(0), reset(0)))
    shots = 100_000
    hist = run_noisy(circuit, [0], NoiseModel(delta_reset=0.1), shots, seed=11)
    p = effective_reset_error(0.1, 2)
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(hist.get(1, 0) / shots - p) <= 3 * sigma


def test_independent_reset_model_keeps_raw_error():
    circuit = Circuit(1, (reset(0), reset(0)))
    shots = 100_000
    hist = run_noisy(
        circuit, [0], NoiseModel(delta_reset=0.1), shots, seed=11,
        reset_model="independent",
    )
    sigma = math.sqrt(0.1 * 0.9 / shots)
    assert abs(hist.get(1, 0) / shots - 0.1) <= 3 * sigma


def test_interrupted_reset_runs_do_not_collapse():
    # A gate on the same wire splits the run; both resets err independently.
    circuit = Circuit(2, (reset(0), cnot(0, 1), reset(0)))
    hist = run_noisy(
        circuit, [0, 0], NoiseModel(delta_reset=0.2), 50_000, seed=5,
        readout=[0],
    )
    sigma = math.sqrt(0.2 * 0.8 / 50_000)
    assert abs(hist.get(1, 0) / 50_000 - 0.2) <= 4 * sigma


def test_error_rate_monotone_in_noise_parameter():
    circuit = Circuit(2, (cnot(0, 1),))
    rates = []
    for p in (0.01, 0.05):
        hist = run_noisy(
            circuit, [0, 0], NoiseModel(p_cnot=p), 100_000, seed=3, readout=[1]
        )
        rates.append(hist.get(1, 0))
    assert rates[1] > rates[0]
    rates = []
    for p in (0.01, 0.05):
        # wire 1 idles for the single layer
        hist = run_noisy(
            Circuit(2, (x(0),)), [0, 0], NoiseModel(p_idle=p), 100_000,
            seed=3, readout=[1],
        )
        rates.append(hist.get(1, 0))
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


def test_readout_wires_are_integers_as_gate_wires_are():
    built = build_qma(AdderVariant.QMA3, 2)
    bits = built.encode(3, 2)
    mod_wires = list(built.layout.mod_wires)
    noise = NoiseModel(p_idle=0.05)
    for readout in ([0.0], ["1"], [np.float64(1)], 1.0):
        with pytest.raises(QmodaddError):
            run_noisy(built.circuit, bits, noise, 50, seed=3, readout=readout)
    # A bool reads as its int, as a bool wire does in a Gate.
    assert (run_noisy(built.circuit, bits, noise, 50, seed=3, readout=[True])
            == run_noisy(built.circuit, bits, noise, 50, seed=3, readout=[1]))
    want = run_noisy(built.circuit, bits, noise, 50, seed=3, readout=mod_wires)
    assert run_noisy(built.circuit, bits, noise, 50, seed=3,
                     readout=np.array(mod_wires)) == want


def test_run_noisy_validation():
    circuit = Circuit(2, (cnot(0, 1),))
    with pytest.raises(InvalidShots):
        run_noisy(circuit, [0, 0], ZERO, 0, seed=0)
    with pytest.raises(LengthMismatch):
        run_noisy(circuit, [0], ZERO, 1, seed=0)
    with pytest.raises(LengthMismatch):
        run_noisy(circuit, [0, 0], ZERO, 1, seed=0, readout=[5])
    with pytest.raises(UnknownOption):
        run_noisy(circuit, [0, 0], ZERO, 1, seed=0, reset_model="other")
    with pytest.raises(DomainError, match="seed=-1"):
        run_noisy(circuit, [0, 0], ZERO, 1, seed=-1)
    with pytest.raises(DomainError, match="seed=-1"):
        noisy_modes(circuit, [np.array([0, 1]), 0], ZERO, 1, seed=-1)
    with pytest.raises(LengthMismatch, match="differ in length"):
        noisy_modes(circuit, [np.array([0, 1]), np.array([0, 1, 1])], ZERO, 1, seed=0)
    with pytest.raises(LengthMismatch):  # keys and readout values fit 63 bits
        run_noisy(Circuit(65), [0] * 65, ZERO, 1, seed=0)
    with pytest.raises(LengthMismatch, match="noisy_modes"):  # one input only
        run_noisy(Circuit(1, (x(0),)), [np.array([0, 1])], ZERO, 3, seed=1)



def test_readout_values_fit_int64():
    # noisy_modes returns int64: at 64 wires its all-ones value came back
    # as -1 while run_noisy gave 2**64 - 1.
    for function in (noisy_modes, run_noisy):
        with pytest.raises(LengthMismatch, match="63-bit"):
            function(Circuit(64, tuple(x(i) for i in range(64))), [0] * 64, ZERO, 3, 0)
    circuit = Circuit(63, tuple(x(i) for i in range(63)))
    assert noisy_modes(circuit, [0] * 63, ZERO, 3, 0).tolist() == [2**63 - 1]
    assert run_noisy(circuit, [0] * 63, ZERO, 3, 0) == {2**63 - 1: 3}

@pytest.mark.parametrize("bad", [2, -1, 256, 0.5])
def test_noisy_engine_rejects_values_that_are_not_bits(bad):
    # A uint8 cast would wrap these into readout values: 2 gave {6: 3},
    # -1 gave {511: 3}, 256 gave {0: 3} and 0.5 truncated to 0.
    circuit = Circuit(2, (cnot(0, 1),))
    with pytest.raises(DomainError, match="0 or 1"):
        run_noisy(circuit, [bad, 0], NoiseModel(), 3, 0)
    with pytest.raises(DomainError, match="0 or 1"):
        noisy_modes(circuit, [np.array([0, 1, bad]), 0], NoiseModel(), 3, 0)


def test_noisy_modes_rejects_lane_arrays_of_two_dimensions():
    circuit = Circuit(2, (cnot(0, 1),))
    with pytest.raises(LengthMismatch, match="1-D"):
        noisy_modes(circuit, [np.zeros((2, 2), dtype=int), 0], NoiseModel(), 3, 0)


@pytest.mark.parametrize("circuit, bits", [
    (Circuit(1), [np.array([], dtype=int)]),  # numpy: "need at least one array"
    (Circuit(0), []),  # numpy: "cannot reshape array of size 0"
], ids=["no-inputs", "no-wires"])
def test_noisy_modes_refuses_empty_input(circuit, bits):
    with pytest.raises(EmptyInput):
        noisy_modes(circuit, bits, NoiseModel(), 3, 0)


def test_flips_outside_the_readout_light_cone_are_not_drawn():
    # Wire 1 idles but is never read, so its flips are left out: the run
    # draws nothing and matches the noiseless one for the same seed.
    circuit = Circuit(2, (x(0),))
    loud = run_noisy(circuit, [0, 0], NoiseModel(p_idle=0.3), 1000, seed=4, readout=[0])
    assert loud == run_noisy(circuit, [0, 0], ZERO, 1000, seed=4, readout=[0])
    assert loud == {1: 1000}


def _permute(vector, gate, width):
    """A probability vector over basis states after one gate."""
    states = np.arange(vector.size)
    after = run_exact(Circuit(width, (gate,)), [(states >> w) & 1 for w in range(width)])
    index = sum(np.broadcast_to(bit, states.shape) << w for w, bit in enumerate(after))
    return np.bincount(index, weights=vector, minlength=vector.size)


def _flip(vector, wire, p):
    return (1.0 - p) * vector + p * vector[np.arange(vector.size) ^ (1 << wire)]


def _marginal(vector, readout):
    states = np.arange(vector.size)
    index = sum((((states >> w) & 1) << i for i, w in enumerate(readout)),
                np.zeros_like(states))
    return np.bincount(index, weights=vector, minlength=1 << len(readout))


def _reference_marginal(circuit, noise, reset_model, readout, start):
    """README's rule, layer by layer: after each ASAP layer of the
    effective gates, each wire a gate touches flips with its kind's p (a
    purified run of k resets with effective_reset_error(delta, k)), and
    each other wire with p_idle."""
    kept, runs, open_runs = [], [], {}
    for gate in circuit.gates:
        wire = gate.operands[0]
        purify = reset_model == "purify" and gate.kind is GateKind.RESET
        if purify and wire in open_runs:
            runs[open_runs[wire]] += 1
            continue
        for w in gate.operands:
            open_runs.pop(w, None)
        if purify:
            open_runs[wire] = len(kept)
        kept.append(gate)
        runs.append(1)
    p = {GateKind.X: noise.p_x, GateKind.CNOT: noise.p_cnot,
         GateKind.TOFFOLI: noise.p_toffoli, GateKind.RESET: noise.delta_reset}
    vector = start
    for layer in compute_layering(Circuit(circuit.width, tuple(kept))):
        idle = set(range(circuit.width))
        for index in layer:
            vector = _permute(vector, kept[index], circuit.width)
        for index in layer:
            gate = kept[index]
            flip = p[gate.kind] if runs[index] == 1 else effective_reset_error(
                noise.delta_reset, runs[index])
            for wire in gate.operands:
                vector = _flip(vector, wire, flip)
            idle -= set(gate.operands)
        for wire in idle:
            vector = _flip(vector, wire, noise.p_idle)
    return _marginal(vector, readout)


@st.composite
def _noisy_runs(draw):
    width = draw(st.integers(1, 5))
    wires = st.integers(0, width - 1)
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from([k for k in GateKind if k.arity <= width]))
        gates.append(Gate(kind, tuple(draw(
            st.lists(wires, min_size=kind.arity, max_size=kind.arity, unique=True)))))
    noise = NoiseModel(*(draw(st.just(0.0) | st.floats(0.0, 0.49)) for _ in range(5)))
    reset_model = draw(st.sampled_from(["purify", "independent"]))
    readout = draw(st.none() | st.lists(wires, max_size=width, unique=True))
    weights = draw(st.lists(st.integers(0, 9), min_size=1 << width,
                            max_size=1 << width).filter(any))
    start = np.array(weights, dtype=float) / sum(weights)
    return Circuit(width, tuple(gates)), noise, reset_model, readout, start


@given(_noisy_runs())
@settings(max_examples=200, deadline=None)
def test_schedule_is_exact_on_the_readout(run):
    # Seed-free: both sides propagate a probability vector over all 2^W
    # basis states, so the readout laws must agree to rounding.
    circuit, noise, reset_model, readout, start = run
    read = range(circuit.width) if readout is None else readout
    steps = _schedule(circuit, noise, reset_model, tuple(read))
    vector = start
    for gates, flips in steps:
        for gate in gates:
            vector = _permute(vector, gate, circuit.width)
        for q, wires in flips:
            for wire in wires.tolist():
                vector = _flip(vector, wire, q)
    expected = _reference_marginal(circuit, noise, reset_model, read, start)
    assert np.abs(_marginal(vector, read) - expected).max() <= 1e-12
    # No flip survives that the next gate on its wire resets, or that the
    # circuit ends on without a read: the light cone drops both.
    for index, (_, flips) in enumerate(steps):
        for _, wires in flips:
            for wire in wires.tolist():
                later = [gate for gates, _ in steps[index + 1:] for gate in gates
                         if wire in gate.operands]
                if later:
                    assert later[0].kind is not GateKind.RESET
                else:
                    assert wire in read


def test_schedule_cache_tells_noise_models_apart():
    # One circuit and seed under two noise models, run in both orders on
    # a cold cache: a schedule cached by circuit alone would leak the
    # first model's probabilities into the second run.
    circuit, loud = Circuit(2, (x(0),)), NoiseModel(p_idle=0.3)
    seen = []
    for order in ((loud, ZERO), (ZERO, loud)):
        _schedule.cache_clear()
        seen.append({noise: run_noisy(circuit, [0, 0], noise, 2000, seed=8)
                     for noise in order})
    assert seen[0] == seen[1]
    assert seen[0][ZERO] == {0b01: 2000}
    assert set(seen[0][loud]) == {0b01, 0b11}  # wire 1 idles and flips


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
    # Keys are input << 5 | value, sorted, as the engine hands them over.
    keys = np.array([0b01100, 0b01101, 1 << 5 | 3, 1 << 5 | 6], dtype=np.uint64)
    counts = np.array([100, 900, 500, 500])
    assert _modes(keys, counts, 5).tolist() == [0b01101, 3]


@pytest.mark.parametrize("p", [0.3, 0.01])
def test_idle_flip_rate_is_exactly_bernoulli(p):
    # Wire 1 idles for the one layer.  Drawing positions with replacement
    # and XOR-ing would flip at (1 - exp(-2p)) / 2, 0.226 for p = 0.3.
    shots = 1_000_000
    hist = run_noisy(Circuit(2, (x(0),)), [0, 0], NoiseModel(p_idle=p), shots,
                     seed=17, readout=[1])
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(hist.get(1, 0) / shots - p) <= 3 * sigma


@pytest.mark.parametrize("p", [0.3, 0.01])
def test_flips_spread_evenly_over_a_block(p):
    # Lanes are input-major, so input i holds slice i % 16 of block i // 16.
    slices, blocks = 16, 16
    shots = _BLOCK_LANES // slices
    inputs = np.zeros(slices * blocks, dtype=np.int64)
    _, keys, counts = _tally(Circuit(2, (x(0),)), [inputs, inputs],
                             NoiseModel(p_idle=p), shots, 23, [1], "purify")
    flipped = (keys & np.uint64(1)).astype(bool)
    per_input = np.bincount((keys[flipped] >> np.uint64(1)).astype(np.int64),
                            weights=counts[flipped], minlength=inputs.size)
    observed = per_input.reshape(blocks, slices).sum(axis=0)
    expected = blocks * shots * p
    chi2 = float(((observed - expected) ** 2 / (expected * (1 - p))).sum())
    assert chi2 < 37.7  # 15 degrees of freedom, upper 0.1 % point


def test_run_noisy_memory_is_bounded_by_blocks():
    # Unblocked, QMA1's 17 wires x 10^6 uint8 lanes alone take 17 MB; in
    # blocks the peak is about 1.7 MiB and does not grow with the shots.
    built = build_qma(AdderVariant.QMA1, 4)
    tracemalloc.start()
    try:
        hist = run_noisy(built.circuit, built.encode(5, 7), DEFAULT_NOISE, 1_000_000,
                         seed=3, readout=list(built.layout.mod_wires))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    # 10^6 shots span 31 blocks of _BLOCK_LANES; their counts add up to the shots.
    assert sum(hist.values()) == 1_000_000


def test_noisy_modes_match_run_noisy_on_one_input():
    built = build_qma(AdderVariant.QMA3, 2)
    readout = list(built.layout.mod_wires)
    for a, b in ((0, 0), (3, 4)):
        bits = built.encode(a, b)
        hist = run_noisy(built.circuit, bits, DEFAULT_NOISE, 300, seed=5,
                         readout=readout)
        best = max(hist.values())
        mode = min(v for v, c in hist.items() if c == best)
        assert noisy_modes(built.circuit, bits, DEFAULT_NOISE, 300, 5,
                           readout=readout).tolist() == [mode]



def test_flips_of_a_many_wire_group_land_on_their_own_rows():
    # Wires 1 and 2 idle through the one layer and share one flip group, so
    # each cell of the group's gathered rows is one (wire, lane): the two
    # readout bits flip independently, each with probability p.
    shots, p = 1_000_000, 0.3
    assert [wires.tolist() for _, wires in
            _schedule(Circuit(3, (x(0),)), NoiseModel(p_idle=p), "purify", (1, 2))[0][1]
            ] == [[1, 2]]
    hist = run_noisy(Circuit(3, (x(0),)), [0, 0, 0], NoiseModel(p_idle=p), shots,
                     seed=29, readout=[1, 2])
    for value, want in ((0, (1 - p) ** 2), (1, p * (1 - p)), (2, p * (1 - p)), (3, p * p)):
        sigma = math.sqrt(want * (1 - want) / shots)
        assert abs(hist.get(value, 0) / shots - want) <= 4 * sigma


def test_blocks_counted_by_a_sort_are_pinned():
    # At one shot, each block's 25 lanes are QMA2's 25 inputs at n = 2, and
    # 7 readout bits give 25 << 7 possible keys: more than the block has
    # lanes, so its keys are sorted, not tabled.  As for
    # test_random_stream_is_pinned, a change here changes the stream.
    built = build_qma(AdderVariant.QMA2, 2)
    a, b = np.divmod(np.arange(25), 5)
    readout = list(built.layout.mod_wires) + list(built.layout.sum_wires)
    modes = {
        seed: noisy_modes(built.circuit, built.encode(a, b), DEFAULT_NOISE, 1, seed,
                          readout=readout).tolist()
        for seed in (1, 2)
    }
    assert modes == {
        1: [3, 10, 21, 82, 32, 10, 18, 28, 119, 91, 19, 29, 33, 105, 118, 28, 59,
            86, 32, 28, 33, 59, 54, 60, 98],
        2: [10, 10, 0, 100, 36, 10, 0, 63, 38, 109, 23, 29, 41, 45, 95, 91, 32,
            43, 0, 86, 32, 60, 50, 56, 78],
    }


@pytest.mark.parametrize("shots, start, stop", [
    (1, 0, 25), (1, 3, 20),  # 7 readout bits span more keys than lanes: sort
    (1000, 0, 25_000), (1000, 1500, 20_000),  # a table, cut inputs at both ends
])
def test_block_keys_are_sorted_unique_and_absolute(shots, start, stop):
    built = build_qma(AdderVariant.QMA2, 2)
    a, b = np.divmod(np.arange(25), 5)
    bits = built.encode(a, b)
    readout = list(built.layout.mod_wires) + list(built.layout.sum_wires)
    table = np.array(np.broadcast_arrays(*bits), dtype=np.uint8)
    rng = np.random.default_rng(0)
    keys, counts = _lane_keys(table, start, stop, shots,
                              _schedule(built.circuit, DEFAULT_NOISE, "purify",
                                        tuple(readout)), rng, readout)
    assert keys.dtype == np.uint64 and (np.diff(keys) > 0).all()
    assert counts.min() > 0 and counts.sum() == stop - start
    assert keys[0] >> np.uint64(7) == start // shots
    assert keys[-1] >> np.uint64(7) == (stop - 1) // shots
    # Noiseless, each input's lanes give one key: its exact readout.
    keys, counts = _lane_keys(table, start, stop, shots,
                              _schedule(built.circuit, ZERO, "purify", tuple(readout)),
                              rng, readout)
    inputs = np.arange(start // shots, (stop - 1) // shots + 1)
    exact = decode(run_exact(built.circuit, [np.asarray(w)[inputs] if np.ndim(w) else w
                                             for w in bits]), readout)
    assert keys.tolist() == ((inputs << 7) | exact).tolist()
    lanes = np.minimum(stop, (inputs + 1) * shots) - np.maximum(start, inputs * shots)
    assert counts.tolist() == lanes.tolist()
