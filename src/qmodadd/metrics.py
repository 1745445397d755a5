"""Error-distance metrics and the input-sweep experiment harness.

An experiment builds one adder, runs every valid operand pair through
the noisy simulator in one batched call, takes the most frequent
readout per input, and aggregates the error distances.  All
aggregation is exact rational arithmetic; floats only appear at
serialization time.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .builders import AdderVariant, build_qma
from .circuits import ResourceReport, analyze, round2
from .errors import EmptyInput, InvalidSMax, UnknownOption
from .oracle import mod_add_plus_one
from .sim import NoiseModel, noisy_modes


def error_distance(ideal, observed):
    """|ideal - observed|, for ints or elementwise for integer arrays."""
    return abs(ideal - observed)


def aggregate(eds, s_max: int) -> tuple[Fraction, Fraction]:
    """Mean error distance and its normalization by s_max, both exact;
    `eds` is a list or an integer array."""
    import numpy as np
    if len(eds) == 0:
        raise EmptyInput("no error distances to aggregate")
    if s_max < 1:
        raise InvalidSMax(f"s_max={s_max} must be >= 1")
    med = Fraction(int(np.sum(eds)), len(eds))
    return med, med / s_max


@dataclass(frozen=True)
class ErrorReport:
    variant: AdderVariant
    n: int
    #: One int64 row per input, in input order: the columns a, b, ideal,
    #: observed, ed.  Unscored `full_basis` rows hold -1 as ideal and ed.
    per_input: np.ndarray
    med: Fraction
    nmed: Fraction
    n_inputs: int
    s_max: int
    shots: int
    seed: int
    ideal_convention: str
    sum_med: Fraction | None = None  # only with score_sum

    def as_dict(self) -> dict:
        return {
            "variant": self.variant.name,
            "n": self.n,
            "med": str(self.med),
            "nmed": str(self.nmed),
            "nmed_float": float(self.nmed),
            "n_inputs": self.n_inputs,
            "s_max": self.s_max,
            "shots": self.shots,
            "seed": self.seed,
            "ideal_convention": self.ideal_convention,
            "sum_med": None if self.sum_med is None else str(self.sum_med),
            "per_input": self.per_input,
        }


def run_experiment(
    variant: AdderVariant,
    n: int,
    noise: NoiseModel,
    shots: int,
    seed: int,
    reset_model: str = "purify",
    ideal_convention: str = "plus-one",
    full_basis: bool = False,
    score_sum: bool = False,
) -> ErrorReport:
    """Sweep all valid inputs of one adder under noise and score them.

    The scored domain is 0 <= a, b <= 2^n; with full_basis=True every
    register pattern is run, but only domain-valid rows are scored.  The
    default convention scores the modulo register against
    (a + b + 1) mod (2^n + 1); "pre-decrement" decrements a (mod 2^n + 1)
    before encoding and scores against (a + b) mod (2^n + 1).
    """
    import numpy as np
    if ideal_convention not in ("plus-one", "pre-decrement"):
        raise UnknownOption(f"unknown ideal convention {ideal_convention!r}")
    built = build_qma(variant, n)
    limit = 1 << n
    span = 2 * limit if full_basis else limit + 1
    a, b = np.divmod(np.arange(span * span), span)
    in_domain = (a <= limit) & (b <= limit)
    pre_decrement = ideal_convention == "pre-decrement"
    encoded_a = np.where(in_domain & pre_decrement, (a + limit) % (limit + 1), a)
    mod_wires = list(built.layout.mod_wires)
    sum_wires = list(built.layout.sum_wires)
    winners = noisy_modes(
        built.circuit,
        built.encode(encoded_a, b),
        noise,
        shots,
        seed,
        readout=mod_wires + (sum_wires if score_sum else []),
        reset_model=reset_model,
    )

    mod_bits = len(mod_wires)
    ideal = np.full_like(a, -1)
    ideal[in_domain] = mod_add_plus_one(n, encoded_a[in_domain], b[in_domain])
    observed = winners & ((1 << mod_bits) - 1)
    ed = np.where(in_domain, error_distance(ideal, observed), -1)
    med, nmed = aggregate(ed[in_domain], limit)
    sum_med = None
    if score_sum:
        sum_ed = error_distance(encoded_a + b, winners >> mod_bits)
        sum_med, _ = aggregate(sum_ed[in_domain], limit)
    return ErrorReport(
        variant=variant,
        n=n,
        per_input=np.column_stack((a, b, ideal, observed, ed)),
        med=med,
        nmed=nmed,
        n_inputs=int(in_domain.sum()),
        s_max=limit,
        shots=shots,
        seed=seed,
        ideal_convention=ideal_convention,
        sum_med=sum_med,
    )


@dataclass(frozen=True)
class SweepRow:
    error: ErrorReport
    resources: ResourceReport
    nmed_drop_pct: Decimal | None  # None when the baseline is error-free


def run_sweep(
    variants: list[AdderVariant],
    n: int,
    noise: NoiseModel,
    shots: int,
    seed: int,
    **kwargs,
) -> list[SweepRow]:
    """Joint error/resource table; drops are relative to the first variant."""
    if not variants:
        raise EmptyInput("no variants to sweep")
    reports = [
        run_experiment(v, n, noise, shots, seed, **kwargs) for v in variants
    ]
    base = reports[0].nmed
    rows = []
    for report in reports:
        if base == 0:
            drop = None
        else:
            drop = round2(100 * (base - report.nmed) / base)
        rows.append(
            SweepRow(
                error=report,
                resources=analyze(build_qma(report.variant, n).circuit),
                nmed_drop_pct=drop,
            )
        )
    return rows
