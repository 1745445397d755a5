import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qmodadd.builders import AdderVariant
from qmodadd.cli import main
from qmodadd.errors import EmptyInput, InvalidSMax, UnknownOption
from qmodadd.metrics import aggregate, error_distance, run_experiment, run_sweep
from qmodadd.oracle import mod_add, mod_add_plus_one
from qmodadd.sim import DEFAULT_NOISE, NoiseModel

ZERO = NoiseModel()
DELTA_ONLY = NoiseModel(delta_reset=0.2)
# The columns of ErrorReport.per_input.
A, B, IDEAL, OBSERVED, ED = range(5)


def test_error_distance():
    assert error_distance(13, 13) == 0
    assert error_distance(13, 9) == 4
    assert error_distance(0, 16) == 16


def test_aggregate_exact_rationals():
    assert aggregate([0, 0, 0], 16) == (0, 0)
    med, nmed = aggregate([4, 0, 2], 16)
    assert med == Fraction(2)
    assert nmed == Fraction(1, 8)
    med, nmed = aggregate([16] * 289, 16)
    assert (med, nmed) == (16, 1)


def test_aggregate_accepts_integer_arrays():
    med, nmed = aggregate(np.array([4, 0, 2]), 16)
    assert (med, nmed) == (Fraction(2), Fraction(1, 8))
    assert type(med) is Fraction and type(nmed) is Fraction
    with pytest.raises(EmptyInput):
        aggregate(np.array([], dtype=np.int64), 16)


def test_aggregate_validation():
    with pytest.raises(EmptyInput):
        aggregate([], 16)
    with pytest.raises(InvalidSMax):
        aggregate([1], 0)


@pytest.mark.parametrize("variant", list(AdderVariant))
def test_noiseless_experiment_is_exact(variant):
    report = run_experiment(variant, 2, ZERO, shots=3, seed=9)
    assert report.nmed == 0
    assert report.med == 0
    assert report.n_inputs == 25
    assert (report.per_input[:, ED] == 0).all()


def test_delta_only_channel_separates_dynamic_variants():
    # Static adders contain no resets, so a pure preparation-error channel
    # leaves them exact; doubled resets beat single resets.
    nmeds = {}
    for variant in AdderVariant:
        report = run_experiment(variant, 4, DELTA_ONLY, shots=1, seed=7)
        nmeds[variant] = report.nmed
    assert nmeds[AdderVariant.QMA1] == 0
    assert nmeds[AdderVariant.QMA2] == 0
    assert nmeds[AdderVariant.QMA4] < nmeds[AdderVariant.QMA3]


def test_pre_decrement_convention_scores_plain_modular_sum():
    report = run_experiment(
        AdderVariant.QMA2, 3, ZERO, shots=1, seed=0,
        ideal_convention="pre-decrement",
    )
    assert report.nmed == 0
    # ideal column now follows (a + b) mod (2^n + 1)
    by_input = {(row[A], row[B]): row[IDEAL] for row in report.per_input.tolist()}
    assert by_input[(8, 1)] == 0
    assert by_input[(3, 4)] == 7


def test_unknown_ideal_convention_is_rejected():
    with pytest.raises(UnknownOption, match="pre_decrement"):
        run_experiment(AdderVariant.QMA2, 1, ZERO, shots=1, seed=0,
                       ideal_convention="pre_decrement")


def test_full_basis_reports_unscored_rows():
    n = 2
    report = run_experiment(AdderVariant.QMA2, n, ZERO, shots=1, seed=0,
                            full_basis=True)
    total = (1 << (n + 1)) ** 2
    valid = ((1 << n) + 1) ** 2
    assert len(report.per_input) == total
    assert report.n_inputs == valid
    unscored = report.per_input[report.per_input[:, IDEAL] == -1]
    assert len(unscored) == total - valid
    assert (unscored[:, ED] == -1).all()


@pytest.mark.parametrize("full_basis", [False, True])
@pytest.mark.parametrize(
    "convention, oracle", [("plus-one", mod_add_plus_one), ("pre-decrement", mod_add)]
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_printed_rows_match_the_oracle(capsys, n, convention, oracle, full_basis):
    # Scored ideals come from the array oracle on the encoded a; the int
    # oracles judge them.  Unscored rows print as null (JSON) and "" (CSV).
    argv = ["experiment", "qma3", "--n", str(n), "--shots", "1", "--seed", "4",
            "--ideal-convention", convention] + (["--full-basis"] if full_basis else [])
    assert main(argv) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    limit = 1 << n
    span = 2 * limit if full_basis else limit + 1
    assert len(row["per_input"]) == len(lines) == span * span
    scored = 0
    for cells, line in zip(row["per_input"], lines):
        a, b, ideal, observed, ed = cells
        if a <= limit and b <= limit:
            assert ideal == oracle(n, a, b)
            assert ed == abs(ideal - observed)
            scored += 1
        else:
            assert ideal is None and ed is None
        assert line.split(",") == ["qma3"] + ["" if c is None else str(c) for c in cells]
    assert scored == row["n_inputs"] == (limit + 1) ** 2


def test_score_sum_register():
    report = run_experiment(AdderVariant.QMA1, 2, ZERO, shots=1, seed=0,
                            score_sum=True)
    assert report.sum_med == 0


def test_sweep_single_variant_has_zero_drop():
    rows = run_sweep([AdderVariant.QMA3], 2, DELTA_ONLY, shots=1, seed=5)
    assert len(rows) == 1
    assert rows[0].nmed_drop_pct == Decimal("0.00")


def test_sweep_zero_noise_drops_undefined():
    rows = run_sweep(list(AdderVariant), 2, ZERO, shots=1, seed=5)
    assert [row.nmed_drop_pct for row in rows] == [None] * 4
    assert [row.resources.fom for row in rows][2:] == [64, 64]


def test_sweep_requires_variants():
    with pytest.raises(EmptyInput):
        run_sweep([], 2, ZERO, shots=1, seed=0)


def test_reported_metrics_match_raw_rows():
    # no cached-value drift: the aggregates recompute from per-input rows
    rows = run_sweep([AdderVariant.QMA3, AdderVariant.QMA4], 3, DELTA_ONLY,
                     shots=1, seed=13)
    from qmodadd.circuits import round2

    base = rows[0].error.nmed
    assert base > 0
    for row in rows:
        eds = [r[ED] for r in row.error.per_input.tolist()]
        med, nmed = aggregate(eds, row.error.s_max)
        assert (med, nmed) == (row.error.med, row.error.nmed)
        assert row.nmed_drop_pct == round2(100 * (base - nmed) / base)


@pytest.mark.slow
def test_nmed_converges_with_more_shots():
    # Majority readout resolves toward the exact output as shots grow, so
    # the measured error falls monotonically and flattens.  At the frozen
    # defaults the 10^3-shot point is still fluctuation-driven (that is
    # what makes the variant ordering observable), so convergence is
    # checked one decade further out.
    from qmodadd.sim import DEFAULT_NOISE

    nmeds = [
        float(run_experiment(AdderVariant.QMA2, 4, DEFAULT_NOISE, shots, seed=7).nmed)
        for shots in (1000, 10_000, 30_000)
    ]
    assert nmeds[0] > nmeds[1] > nmeds[2]
    assert abs(nmeds[1] - nmeds[2]) < 0.05


@pytest.mark.parametrize(
    "noise, expected",
    [
        (DEFAULT_NOISE, {"QMA1": "7/50", "QMA2": "1/20", "QMA3": "0", "QMA4": "0"}),
        # Error-free resets draw nothing, and QMA4's doubled resets collapse
        # onto QMA3's layers, so the two agree draw for draw.
        (
            NoiseModel(p_idle=0.1),
            {"QMA1": "77/100", "QMA2": "1/2", "QMA3": "11/20", "QMA4": "11/20"},
        ),
    ],
)
def test_random_stream_is_pinned(noise, expected):
    # A change to these values is a change of the random stream, to be
    # made and recorded on purpose.
    nmeds = {
        variant.name: str(run_experiment(variant, 2, noise, 64, 3).nmed)
        for variant in AdderVariant
    }
    assert nmeds == expected
