"""Exact and noisy evaluation of circuits.

Every gate in the IR permutes computational basis states, so exact
simulation is classical bit pushing.  The noisy simulator is a Monte
Carlo bit-flip model: independent flips after gates, idle flips per
layer, and an error channel for |0> resets.  Phase noise is invisible to
basis-state readout, so bit flips are the whole observable story.

Both apply gates through one kernel, `_apply`, to a state indexed by
wire; a wire holds an int or an integer array with one lane per input
(`run_exact`) or per shot (`run_noisy`, on a schedule compiled once).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Circuit, Gate, GateKind, compute_layering
from .errors import InvalidProbability, InvalidShots, LengthMismatch


def run_exact(circuit: Circuit, bits: list) -> list:
    """Apply the gate sequence to a basis state; returns a new list.
    Each wire is an int or an integer array with one lane per input."""
    if len(bits) != circuit.width:
        raise LengthMismatch(
            f"state length {len(bits)} != circuit width {circuit.width}"
        )
    state = list(bits)
    for gate in circuit.gates:
        _apply(state, gate)
    return state


def _apply(state, gate: Gate) -> None:
    """Apply one gate.  Updates replace the target row, never `^=` it, so
    ints, lane arrays and wire-major rows all work and no caller row
    is written through."""
    kind, ops = gate.kind, gate.operands
    target = ops[-1]
    if kind is GateKind.X:
        state[target] = state[target] ^ 1
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
        for name in ("p_x", "p_cnot", "p_toffoli", "p_idle", "delta_reset"):
            value = getattr(self, name)
            if not 0.0 <= value < 0.5:
                raise InvalidProbability(f"{name}={value} outside [0, 0.5)")


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
        raise InvalidShots(f"reset count k={k} must be >= 1")
    if delta == 0.0:
        return 0.0
    hi = delta**k
    lo = (1.0 - delta) ** k
    return hi / (hi + lo)


@dataclass(frozen=True)
class ShotHistogram:
    """Readout counts keyed by the integer value of the readout wires."""

    counts: dict[int, int]
    shots: int
    seed: int
    readout: tuple[int, ...]

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise InvalidShots("histogram counts do not sum to shots")


def most_frequent(histogram: ShotHistogram) -> int:
    """Outcome with the highest count; ties go to the smallest value."""
    best = None
    best_count = -1
    for value in sorted(histogram.counts):
        count = histogram.counts[value]
        if count > best_count:
            best, best_count = value, count
    return best


@lru_cache(maxsize=64)
def _schedule(circuit: Circuit, reset_model: str):
    """ASAP layers of `(steps, idle wires)`; a step is `(gate, run)`.
    Under "purify" a run of same-wire resets, no other gate on that wire
    in between, is one step with its length; else every run is 1."""
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
    effective = Circuit(circuit.width, tuple(gate for gate, _ in steps))
    layers = []
    for layer in compute_layering(effective).layers:
        busy = {wire for index in layer for wire in steps[index][0].operands}
        idle = np.flatnonzero([wire not in busy for wire in range(circuit.width)])
        idle.flags.writeable = False  # the cache hands it to every call
        layers.append((tuple(steps[index] for index in layer), idle))
    return tuple(layers)


def run_noisy(
    circuit: Circuit,
    bits: list[int],
    noise: NoiseModel,
    shots: int,
    seed: int,
    readout: list[int] | None = None,
    reset_model: str = "purify",
) -> ShotHistogram:
    """Monte Carlo evaluation under the bit-flip noise model.

    Gates are applied layer by layer (ASAP schedule of the effective gate
    list); wires untouched in a layer take an idle flip with p_idle.  In
    the default "purify" reset model, runs of k consecutive resets on one
    wire act as a single preparation with error effective_reset_error(
    delta, k); in "independent" mode every reset errs on its own.
    Deterministic in (circuit, bits, noise, shots, seed).
    """
    if len(bits) != circuit.width:
        raise LengthMismatch(
            f"state length {len(bits)} != circuit width {circuit.width}"
        )
    if shots < 1:
        raise InvalidShots(f"shots={shots} must be >= 1")
    if reset_model not in ("purify", "independent"):
        raise InvalidProbability(f"unknown reset model {reset_model!r}")
    if readout is None:
        readout = list(range(circuit.width))
    for wire in readout:
        if not 0 <= wire < circuit.width:
            raise LengthMismatch(f"readout wire {wire} outside circuit")

    p_gate = {
        GateKind.X: noise.p_x,
        GateKind.CNOT: noise.p_cnot,
        GateKind.TOFFOLI: noise.p_toffoli,
    }
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # Row w holds wire w across the shots.  Draws keep the shot-major
    # shape (shots, k), transposed onto the rows, to keep the stream.
    state = np.repeat(np.asarray(bits, dtype=np.uint8)[:, None], shots, axis=1)
    for steps, idle in _schedule(circuit, reset_model):
        for gate, run in steps:
            _apply(state, gate)
            if gate.kind is GateKind.RESET:
                # A reset draws even when its error is 0.
                p = (
                    effective_reset_error(noise.delta_reset, run)
                    if reset_model == "purify"
                    else noise.delta_reset
                )
            else:
                p = p_gate[gate.kind]
                if p == 0.0:
                    continue
            ops = list(gate.operands)
            state[ops] ^= (rng.random((shots, len(ops))) < p).T
        if noise.p_idle > 0.0 and idle.size:
            state[idle] ^= (rng.random((shots, idle.size)) < noise.p_idle).T

    weights = 1 << np.arange(len(readout), dtype=np.uint64)
    values = weights @ state[readout].astype(np.uint64)
    uniques, tallies = np.unique(values, return_counts=True)
    counts = {int(v): int(c) for v, c in zip(uniques, tallies)}
    return ShotHistogram(counts=counts, shots=shots, seed=seed, readout=tuple(readout))
