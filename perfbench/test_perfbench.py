"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Check, PassResult, check_scan, check_verify, guarded_pass, readme_table,
    scan_pass, verify_pass,
)

#: The tiny sizes of the two halves of verify_scan.
TINY_VERIFY = WORKLOADS["verify_scan"].sizes["tiny"]["verify"]
TINY_SCAN = WORKLOADS["verify_scan"].sizes["tiny"]["scan"]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str, trace: bool) -> dict:
    report = worker.measure(WORKLOADS[name], "tiny", 7, 0.0, trace)
    report["setup_s"] = [0.1]
    return report


def _check(name: str, result: PassResult, context: dict | None = None) -> Check:
    workload = WORKLOADS[name]
    check = Check()
    workload.check(workload.sizes["tiny"], result, check, {} if context is None else context)
    return check


def test_spec_lists_the_workloads_and_metrics_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracer.PER_LAYER.items()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_tiny_run_reports_every_end_to_end_metric(name):
    report = _tiny(name, trace=False)
    line = json.loads(json.dumps(run.result_line(report, trace=False)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())
    text = "\n".join(run.describe({**report, "env": {**report["env"], "git_rev": None,
                                                     "src_sha256": "x"}}, trace=False))
    for metric, unit in run.END_TO_END.items():
        assert f"{metric} = " in text and f" {unit}" in text
    for item in WORKLOADS[name].counts(WORKLOADS[name].sizes["tiny"]):
        assert f"{item}_per_s = " in text
    assert "fail_ratio = 0.000000" in text


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_tiny_run_gives_calls_to_every_exercised_layer(name):
    report = _tiny(name, trace=True)
    line = run.result_line(report, trace=True)
    assert line["correct"]
    assert set(line["metrics"]) == set(tracer.PER_LAYER)
    assert report["zero_call_layers"] == [] and report["warnings"] == []
    for prefix in WORKLOADS[name].exercised:
        assert any(k == prefix or k.startswith(prefix + ".") for k in report["split"])
    assert (ROOT / report["spans_file"]).is_file()


def test_tampered_observed_value_fails_one_noisy_row():
    workload = WORKLOADS["noisy_sweep"]
    result = guarded_pass(workload, workload.sizes["tiny"], 3)
    code, out = result.outputs
    payload = json.loads(out)
    payload["rows"][2]["per_input"][5][3] += 1
    result.outputs = (code, json.dumps(payload))
    check = _check("noisy_sweep", result)
    assert (check.attempted, check.failed) == (4, 1)


def test_noisy_output_that_changes_between_passes_fails():
    workload = WORKLOADS["noisy_sweep"]
    context: dict = {}
    first = guarded_pass(workload, workload.sizes["tiny"], 3)
    assert _check("noisy_sweep", first, context).failed == 0
    code, out = first.outputs
    first.outputs = (code, out.replace('"seed": 3', '"seed": 3 '))
    assert _check("noisy_sweep", first, context).failed == 4


def test_wrong_depth_cell_fails_one_circuit():
    result = scan_pass(TINY_SCAN, 3)
    n, (code, out, err), builds = result.outputs[0]
    payload = json.loads(out)
    payload["reports"][1]["cnot_depth"] += 1
    result.outputs[0] = (n, (code, json.dumps(payload), err), builds)
    check = Check()
    check_scan(TINY_SCAN, result, check, {})
    assert check.failed == 1 and check.attempted == 12


def test_scan_is_checked_against_the_readme_table(tmp_path):
    readme = (ROOT / "README.md").read_text()
    assert readme_table()["qma1"][5] == (4, 2)
    moved = readme.replace("| 4n+2 †", "| 4n+3  ", 1)
    (tmp_path / "README.md").write_text(moved)
    table = readme_table(tmp_path / "README.md")
    assert table["qma1"][5] == (4, 3) and table["qma2"] == readme_table()["qma2"]
    check = Check()
    check_scan(TINY_SCAN, scan_pass(TINY_SCAN, 3), check, {"table": table})
    assert check.failed == 3 and check.attempted == 12
    (tmp_path / "README.md").write_text(readme.replace("| 10n ", "| 10m ", 1))
    with pytest.raises(ValueError):
        readme_table(tmp_path / "README.md")


def test_missing_ok_line_fails_one_verdict():
    result = verify_pass(TINY_VERIFY, 3)
    code, out = result.outputs
    result.outputs = (code, out.replace("ok qma2 n=2", "FAIL qma2 n=2"))
    check = Check()
    check_verify(TINY_VERIFY, result, check, {})
    assert (check.attempted, check.failed) == (8, 1)


def test_pass_that_raises_counts_every_operation_as_failed():
    broken = PassResult(None, 0, error="Traceback...\nValueError: boom\n")
    for name, attempted in (("noisy_sweep", 4), ("verify_scan", 8 + 12)):
        check = _check(name, broken)
        assert check.attempted == check.failed == attempted


def test_missing_binding_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "BINDINGS", tracer.BINDINGS + (
        ("qmodadd.cli", "no_such_function", "cli.no_such_function"),
    ))
    report = worker.measure(WORKLOADS["verify_scan"], "tiny", 1, 0.0, True)
    assert report["failed"] == 0
    assert report["warnings"] == ["binding qmodadd.cli.no_such_function missing"]
    assert report["layers"]["sim.run_exact.calls"] > 0


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans[:] = [
        ["cli.main", -1, 0, 0.0, 10.0, 0],
        ["sim.run_exact", 0, 0, 1.0, 4.0, 7],
        ["oracle.mod_add", 0, 0, 5.0, 6.0, 0],
        ["sim.run_exact", -1, 1, 11.0, 12.0, 3],
    ]
    summary = t.summary()
    assert summary["cli.main"] == {"calls": 1, "self_s": 6.0, "work": 0}
    assert summary["sim.run_exact"] == {"calls": 2, "self_s": 4.0, "work": 10}
    assert tracer.layer_metrics(summary, 0)["sim.exact_gate_evals_per_s"] == 2.5
    assert tracer.zero_call_layers(summary, ("cli", "sim.run_noisy")) == ["sim.run_noisy"]


def test_speed_probe_leaves_out_its_own_time():
    with speed.SpeedProbe() as probe:
        began = speed.perf_counter()
        while speed.perf_counter() - began < 0.1:
            pass
        wall = speed.perf_counter() - began
    assert len(probe.samples) >= 3 and 0 < probe.spent_s < wall / 10
    scale = speed.REFERENCE_S / speed.statistics.median(probe.samples)
    assert probe.scaled(wall) == pytest.approx((wall - probe.spent_s) * scale)
    with speed.SpeedProbe() as short:
        pass
    assert len(short.samples) == speed.MIN_SAMPLES and short.spent_s == 0


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noisy_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
