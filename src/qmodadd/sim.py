"""Exact and noisy evaluation of circuits.

Every gate in the IR permutes computational basis states, so exact
simulation is classical bit pushing.  The noisy simulator is a Monte
Carlo bit-flip model: independent flips after gates, idle flips per
layer, and an error channel for |0> resets.  Phase noise is invisible to
basis-state readout, so bit flips are the whole observable story.

Both apply gates through one kernel, `_apply`, to a state indexed by
wire; a wire holds an int or an integer array with one lane per input
(`run_exact`) or per (input, shot) pair (the noisy engine), or an int bit
plane whose bit L is lane L (`run_exact` with `one=-1`, as `verify` runs
it).  Only the noisy engine uses numpy; its functions import it where
they run, so `run_exact` works without it.

The noisy engine, `noisy_modes` for many inputs and `run_noisy` for
one, runs every (input x shot) lane of a call together: input-major
lanes in blocks of at most `_BLOCK_LANES`, a wire-major uint8 state
whose rows are padded to a power of two.  A block may cut through one
input's shots; the counts add up across blocks.  It draws from a
schedule compiled once per (circuit, noise, reset model, readout) that
holds one flip per wire segment inside the readout's light cone
(`_schedule`), so the readout's law is the per-layer model's, with
fewer draws.  The cells (wire, lane) of each group that shares a flip
probability q draw k ~ Binomial(cells, q) and flip a uniform k-subset
chosen without replacement, which flips every cell independently with
probability exactly q.  The k cells index the group's rows read as one
flat array, so they are flipped on those rows alone, gathered first
when the group has more than one wire.  A block counts its (input,
readout value) keys in a table of every possible key when that table
is no larger than the block, else by a sort.  One generator,
`SeedSequence(seed)`, serves the whole call.  This random stream
replaced a per-layer one in version 0.3.0 and a per-input, dense-draw
one in version 0.2.0.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache

from .circuits import Circuit, Gate, GateKind, compute_layering
from .errors import (
    DomainError, EmptyInput, InvalidProbability, InvalidShots, LengthMismatch,
    UnknownOption,
)


def run_exact(circuit: Circuit, bits: list, one=1) -> list:
    """Apply the gate sequence to a basis state; returns a new list.
    Each wire is an int or an integer array with one lane per input, or
    an int bit plane whose bit L is lane L; X XORs in `one`, which is -1,
    Python's all-ones int, for bit planes."""
    if len(bits) != circuit.width:
        raise LengthMismatch(
            f"state length {len(bits)} != circuit width {circuit.width}"
        )
    state = list(bits)
    for gate in circuit.gates:
        _apply(state, gate, one)
    return state


def _apply(state, gate: Gate, one=1) -> None:
    """Apply one gate; X XORs in `one`.  Updates replace the target row,
    never `^=` it, so ints, bit planes, lane arrays and wire-major rows
    all work and no caller row is written through."""
    kind, ops = gate.kind, gate.operands
    target = ops[-1]
    if kind is GateKind.X:
        state[target] = state[target] ^ one
    elif kind is GateKind.CNOT:
        state[target] = state[target] ^ state[ops[0]]
    elif kind is GateKind.TOFFOLI:
        state[target] = state[target] ^ (state[ops[0]] & state[ops[1]])
    else:  # RESET
        state[target] = 0


@dataclass(frozen=True)
class NoiseModel:
    """Bit-flip probabilities for the Monte Carlo simulator.

    p_x / p_cnot / p_toffoli apply independently to every wire a gate of
    that kind touches, right after the gate.  p_idle applies per wire per
    layer in which no gate touches the wire.  delta_reset is the chance a
    single reset leaves |1> instead of |0>.
    """

    p_x: float = 0.0
    p_cnot: float = 0.0
    p_toffoli: float = 0.0
    p_idle: float = 0.0
    delta_reset: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0.0 <= value < 0.5:
                raise InvalidProbability(f"{field.name}={value} outside [0, 0.5)")
            # -0.0 == 0.0, and equal models must print alike.
            object.__setattr__(self, field.name, value + 0.0)


#: Frozen defaults for the experiment harness and the CLI.  Majority
#: readout at 1000 shots only registers errors once per-wire flip rates
#: approach one half, so the regime is decoherence-dominant: idling is
#: the main channel, state preparation errs at delta, and gate noise is
#: a light overlay with Toffolis costlier than CNOTs.  With these values
#: the four adders separate cleanly and stably at n=4.  Override per run
#: as needed.
DEFAULT_NOISE = NoiseModel(
    p_x=0.001,
    p_cnot=0.002,
    p_toffoli=0.005,
    p_idle=0.012,
    delta_reset=0.12,
)


def effective_reset_error(delta: float, k: int) -> float:
    """Residual |1> probability after k back-to-back resets.

    The k-fold preparation leaves the one-qubit mixture proportional to
    (1-delta)^k |0><0| + delta^k |1><1|; normalizing gives
    delta^k / (delta^k + (1-delta)^k).
    """
    if not 0.0 <= delta < 0.5:
        raise InvalidProbability(f"delta={delta} outside [0, 0.5)")
    if k < 1:
        raise DomainError(f"reset count k={k} must be >= 1")
    if delta == 0.0:
        return 0.0
    hi = delta**k
    lo = (1.0 - delta) ** k
    if lo == 0.0:  # both underflow: divide through by (1 - delta)^k
        hi, lo = (delta / (1.0 - delta)) ** k, 1.0
    return hi / (hi + lo)


#: Lanes simulated together; bounds the state at width x this many bytes.
#: Twice as many ran the n = 4, 1000-shot sweep 7 % faster but raised its
#: peak RSS from 40.5 to 41.2 MiB.
_BLOCK_LANES = 1 << 15

#: What `experiment` output records about the engine and its random stream.
ENGINE = (f"input-major input x shot lanes, {_BLOCK_LANES} per block, "
          "rows padded to a power of two")
RNG_SCHEME = (
    "PCG64(SeedSequence(seed)) per call; one flip per wire segment in the "
    "readout's light cone; per step and flip probability q: "
    "k ~ Binomial(cells, q), then k cells without replacement"
)


#: The NoiseModel field that gives each gate kind's flip probability.
_CHANNEL = {GateKind.X: "p_x", GateKind.CNOT: "p_cnot",
            GateKind.TOFFOLI: "p_toffoli", GateKind.RESET: "delta_reset"}


@lru_cache(maxsize=64)
def _schedule(circuit: Circuit, noise: NoiseModel, reset_model: str,
              readout: tuple[int, ...]):
    """Steps of `(gates, ((q, wires), ...))`: after a step's gates, each
    group's wires flip with probability q, resolved here once.  Step 0 has
    no gates; step L + 1 holds ASAP layer L of the effective gate list.

    A wire's segment runs from a layer where a gate touches it (or from
    the start) to the next such layer (or the end).  Its flips commute
    with every gate in between, so their XOR is one flip, put in the
    step that opens the segment: q = (1 - (1 - 2 p_open)(1 - 2 p_idle)^m)
    / 2 for m idle layers, where p_open is the opening gate kind's
    NoiseModel field, effective_reset_error(delta, k) for a run of k
    resets, or 0 at the start.  k counts same-wire resets, no other gate
    on that wire between, under "purify", else k = 1.  A segment is left
    out if q = 0 or its wire is outside the light cone of `readout` at its
    flip: no later gate carries the wire's value into the readout before a
    reset erases it."""
    import numpy as np
    if reset_model not in ("purify", "independent"):
        raise UnknownOption(f"unknown reset model {reset_model!r}")
    steps: list[tuple[Gate, int]] = []
    open_runs: dict[int, int] = {}  # wire -> index of its reset run in `steps`
    for gate in circuit.gates:
        if reset_model == "purify" and gate.kind is GateKind.RESET:
            wire = gate.operands[0]
            if wire in open_runs:
                start = open_runs[wire]
                steps[start] = (gate, steps[start][1] + 1)
                continue
            open_runs[wire] = len(steps)
        else:
            for wire in gate.operands:
                open_runs.pop(wire, None)
        steps.append((gate, 1))
    layers = [[steps[index] for index in layer]
              for layer in compute_layering(Circuit(circuit.width, tuple(g for g, _ in steps)))]
    # Walk back from the readout: `cone` holds the wires whose value after
    # the current step can reach it, ends[w] the step that closes wire w's
    # segment.
    cone = set(readout)
    ends = [len(layers) + 1] * circuit.width
    groups: list[dict[float, list[int]]] = [{} for _ in range(len(layers) + 1)]
    idle = math.log1p(-2.0 * noise.p_idle)

    def segment(step: int, wire: int, p_open: float) -> None:
        # -expm1(log1p(.)) / 2 keeps q accurate where q is tiny.
        q = -math.expm1(math.log1p(-2.0 * p_open) + (ends[wire] - step - 1) * idle) / 2.0
        if q > 0.0 and wire in cone:
            groups[step].setdefault(q, []).append(wire)
        ends[wire] = step

    for step in range(len(layers), 0, -1):
        for gate, run in layers[step - 1]:
            p = getattr(noise, _CHANNEL[gate.kind])
            if run > 1:  # a purified reset run
                p = effective_reset_error(p, run)
            for wire in gate.operands:
                segment(step, wire, p)
            # The layer's gates share no wire, so the cone may change gate by gate.
            target = gate.operands[-1]
            if target in cone:
                if gate.kind is GateKind.RESET:
                    cone.discard(target)
                else:
                    cone.update(gate.operands)
    for wire in range(circuit.width):
        segment(0, wire, 0.0)
    schedule = []
    for gates, flips in zip([()] + [tuple(g for g, _ in layer) for layer in layers], groups):
        resolved = []
        for q, wires in flips.items():
            wires = np.array(wires)
            wires.flags.writeable = False  # the cache hands it to every call
            resolved.append((q, wires))
        if gates or resolved:
            schedule.append((gates, tuple(resolved)))
    return tuple(schedule)


def _tally(circuit, bits, noise, shots, seed, readout, reset_model):
    """Run `shots` lanes per input, input-major, in blocks of at most
    _BLOCK_LANES.  Returns the readout wires, the sorted keys
    `input << len(readout) | value` of every (input, readout value) seen,
    and their counts."""
    import numpy as np
    if len(bits) != circuit.width:
        raise LengthMismatch(
            f"state length {len(bits)} != circuit width {circuit.width}"
        )
    if shots < 1:
        raise InvalidShots(f"shots={shots} must be >= 1")
    if seed < 0:
        raise DomainError(f"seed={seed} is negative (a seed must be >= 0)")
    readout = range(circuit.width) if readout is None else readout
    try:
        readout = list(map(operator.index, readout))
    except TypeError:
        raise LengthMismatch(f"readout wires {readout!r} are not integers") from None
    if not set(readout) <= set(range(circuit.width)):
        raise LengthMismatch(f"readout wires {readout} outside circuit")
    if not circuit.width:
        raise EmptyInput("a circuit of no wires has no input to run")
    try:
        lanes = np.broadcast_arrays(*bits)
    except ValueError:  # numpy's "shape mismatch"
        raise LengthMismatch("input lane arrays differ in length") from None
    if lanes[0].size == 0:
        raise EmptyInput("no inputs to run")
    # Checked before the uint8 cast, which would wrap them.  A compare with
    # a scalar adds 128 KiB to peak RSS on first use; min and max add none.
    if lanes[0].ndim > 1:
        raise LengthMismatch(f"input lanes have shape {lanes[0].shape}; want 1-D")
    for lane in lanes:
        if lane.dtype.kind not in "biu" or (
            lane.size and not 0 <= lane.min() <= lane.max() <= 1
        ):
            raise DomainError("input bits must be integers 0 or 1")
    table = np.array(lanes, dtype=np.uint8).reshape(len(bits), -1)
    # 63 bits, so every key, and every value noisy_modes returns, fits int64.
    if len(readout) + (table.shape[1] - 1).bit_length() > 63:
        raise LengthMismatch(
            f"{len(readout)} readout wires x {table.shape[1]} inputs overflow 63-bit keys"
        )
    schedule = _schedule(circuit, noise, reset_model, tuple(readout))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total = table.shape[1] * shots
    blocks = [
        _lane_keys(table, start, min(start + _BLOCK_LANES, total), shots,
                   schedule, rng, readout)
        for start in range(0, total, _BLOCK_LANES)
    ]
    # Only an input cut by a block edge repeats a key; merge once at the end.
    keys, inverse = np.unique(np.concatenate([k for k, _ in blocks]), return_inverse=True)
    counts = np.bincount(
        inverse, weights=np.concatenate([c for _, c in blocks]), minlength=keys.size
    ).astype(np.int64)
    return readout, keys, counts


def _lane_keys(table, start, stop, shots, schedule, rng,
               readout) -> tuple[np.ndarray, np.ndarray]:
    """Simulate lanes start..stop of the input-major lanes of `table`
    (wire x input bits); returns the sorted keys `input << len(readout) |
    value` seen in them, and their counts.  Rows are padded to 2**shift
    lanes, copies of the last that nothing reads, so flat cell `row <<
    shift | lane` of a group's rows is that row's lane."""
    import numpy as np
    lanes = stop - start
    shift = (lanes - 1).bit_length()
    inputs = np.arange(start // shots, (stop - 1) // shots + 1)
    repeats = np.minimum(stop, (inputs + 1) * shots) - np.maximum(start, inputs * shots)
    padded = repeats.copy()
    padded[-1] += (1 << shift) - lanes
    state = np.repeat(table[:, inputs[0]:inputs[-1] + 1], padded, axis=1)
    for gates, flips in schedule:
        for gate in gates:
            _apply(state, gate)
        for q, wires in flips:
            # k ~ Binomial(N, q) cells out of N, then a uniform k-subset:
            # every cell flips independently with probability exactly q.
            hit = rng.choice(
                wires.size << shift, rng.binomial(wires.size << shift, q),
                replace=False, shuffle=False,
            )
            if wires.size == 1:
                state[wires[0]][hit] ^= 1
            else:  # the gathered rows are contiguous: hit is row << shift | lane
                rows = state[wires]
                rows.reshape(-1)[hit] ^= 1
                state[wires] = rows
    # Keys relative to the block's first input: they span `inputs.size <<
    # len(readout)`, a count table no larger than the block when that fits.
    keys = np.repeat(np.arange(inputs.size, dtype=np.int64), repeats)
    for wire in reversed(readout):  # in place: no lane-sized temporaries
        keys <<= 1
        keys |= state[wire, :lanes]
    span = inputs.size << len(readout)
    if span <= lanes:
        counts = np.bincount(keys, minlength=span)
        keys = np.flatnonzero(counts)
        counts = counts[keys]
    else:
        keys, counts = np.unique(keys, return_counts=True)
    return keys.astype(np.uint64) + np.uint64(int(inputs[0]) << len(readout)), counts


def _modes(keys: np.ndarray, counts: np.ndarray, width: int) -> np.ndarray:
    """The most frequent value of each input, in input order, from sorted
    keys `input << width | value`; ties go to the smallest value."""
    import numpy as np
    inputs = keys >> np.uint64(width)
    order = np.lexsort((keys, -counts, inputs))
    ranked = inputs[order]
    first = order[np.r_[True, ranked[1:] != ranked[:-1]]]
    return (keys[first] & np.uint64((1 << width) - 1)).astype(np.int64)


def noisy_modes(
    circuit: Circuit,
    bits: list,
    noise: NoiseModel,
    shots: int,
    seed: int,
    readout: list[int] | None = None,
    reset_model: str = "purify",
) -> np.ndarray:
    """Most frequent readout value of each input over `shots` noisy runs.

    `bits` holds, per wire, an int or an integer array with one entry per
    input, as for `run_exact`.  Ties go to the smallest value.  The noise
    and the random stream are those of `run_noisy`, which is this engine
    at one input; deterministic in the arguments.
    """
    readout, keys, counts = _tally(circuit, bits, noise, shots, seed, readout, reset_model)
    return _modes(keys, counts, len(readout))


def run_noisy(
    circuit: Circuit,
    bits: list[int],
    noise: NoiseModel,
    shots: int,
    seed: int,
    readout: list[int] | None = None,
    reset_model: str = "purify",
) -> dict[int, int]:
    """Monte Carlo evaluation of one input under the bit-flip noise model;
    returns the count of each readout value seen, `{value: count}`.

    Gates are applied layer by layer (ASAP schedule of the effective gate
    list); each wire a gate touches then flips with its kind's
    probability, and each wire untouched in a layer with p_idle.  In the
    default "purify" reset model, runs of k consecutive resets on one
    wire act as a single preparation with error effective_reset_error(
    delta, k); in "independent" mode every reset errs on its own.  The
    readout follows this model in law; the draws are one flip per wire
    segment (module docstring).  Deterministic in (circuit, bits, noise,
    shots, seed).
    """
    import numpy as np
    if any(np.ndim(bit) for bit in bits):
        raise LengthMismatch("run_noisy takes one input; use noisy_modes for many")
    _, keys, counts = _tally(circuit, bits, noise, shots, seed, readout, reset_model)
    return dict(zip(keys.tolist(), counts.tolist()))
