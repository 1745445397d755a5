from decimal import Decimal
from fractions import Fraction

import pytest

from qmodadd.circuits import analyze, compare, round2
from qmodadd.builders import AdderVariant, build_qma
from qmodadd.circuits import Circuit, cnot, toffoli
from qmodadd.errors import EmptyInput


def test_empty_circuit_report():
    report = analyze(Circuit(5))
    assert report.width == 5
    assert report.cnot_count == report.toffoli_count == 0
    assert report.x_count == report.reset_count == 0
    assert report.cnot_depth == report.toffoli_depth == report.total_depth == 0
    assert report.fom == 0


@pytest.mark.parametrize("variant", list(AdderVariant))
@pytest.mark.parametrize("n", [1, 3, 5])
def test_report_internal_consistency(variant, n):
    report = analyze(build_qma(variant, n).circuit)
    assert report.fom == report.width * report.toffoli_depth
    assert report.cnot_depth <= report.cnot_count
    assert report.toffoli_depth <= report.toffoli_count
    assert report.total_depth >= max(report.cnot_depth, report.toffoli_depth)


@pytest.mark.parametrize("n", range(1, 9))
def test_qma3_and_qma4_share_fom(n):
    a = analyze(build_qma(AdderVariant.QMA3, n).circuit)
    b = analyze(build_qma(AdderVariant.QMA4, n).circuit)
    assert a.fom == b.fom
    assert (a.width, a.toffoli_depth) == (b.width, b.toffoli_depth)


def test_compare_identical_reports_all_zero():
    report = analyze(build_qma(AdderVariant.QMA2, 3).circuit)
    rows = compare([report, report])
    for row in rows:
        for key, value in row.items():
            if key != "label":
                assert value == Decimal("0.00")


def test_toffoli_depth_follows_dependencies_through_cnots():
    # The CNOT carries the first Toffoli's result into the second one's
    # control, so the Toffolis cannot share a layer.
    report = analyze(Circuit(6, (toffoli(0, 1, 2), cnot(2, 3), toffoli(3, 4, 5))))
    assert report.toffoli_depth == 2
    assert report.cnot_depth == 1
    assert report.fom == 12


def test_compare_headline_cnot_reduction():
    reports = [
        analyze(build_qma(AdderVariant.QMA1, 4).circuit),
        analyze(build_qma(AdderVariant.QMA2, 4).circuit),
    ]
    rows = compare(reports)
    assert rows[1]["cnot_count"] == Decimal("37.50")
    assert rows[1]["cnot_depth"] == Decimal("46.15")
    assert rows[1]["toffoli_count"] == Decimal("26.32")
    assert rows[1]["toffoli_depth"] == Decimal("26.32")


def test_compare_undefined_when_baseline_zero():
    reports = [
        analyze(build_qma(AdderVariant.QMA1, 2).circuit),  # zero resets
        analyze(build_qma(AdderVariant.QMA3, 2).circuit),  # some resets
    ]
    rows = compare(reports)
    assert rows[0]["reset_count"] == Decimal("0.00")
    assert rows[1]["reset_count"] is None


def test_compare_requires_reports():
    with pytest.raises(EmptyInput):
        compare([])


def test_round2_is_half_even():
    assert round2(Fraction(1, 8)) == Decimal("0.12")   # 0.125 rounds to even
    assert round2(Fraction(3, 8)) == Decimal("0.38")   # 0.375 rounds to even
    assert round2(Fraction(100 * (19 - 14), 19)) == Decimal("26.32")
