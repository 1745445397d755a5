import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qmodadd
from qmodadd import circuits, cli
from qmodadd.builders import AdderVariant, BuiltAdder, _build_all, build_qma, decode
from qmodadd.circuits import GateKind, analyze
from qmodadd.cli import main
from qmodadd.errors import QmodaddError
from qmodadd.oracle import mod_add_plus_one
from qmodadd.qasm import MAX_WIDTH, export_qasm, parse_qasm
from qmodadd.sim import DEFAULT_NOISE, ENGINE, RNG_SCHEME, NoiseModel, run_exact


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_file_and_summary(tmp_path, capsys):
    out = tmp_path / "qma2.qasm"
    code, stdout, stderr = run_cli(
        capsys, "build", "qma2", "--n", "4", "-o", str(out)
    )
    assert code == 0
    assert "width=16 cnot=25 toffoli=14" in stderr
    assert out.read_text().startswith("// layout:")


def test_build_rejects_n_zero(capsys):
    code, _, stderr = run_cli(capsys, "build", "qma1", "--n", "0")
    assert code == 2
    assert "n must be >= 1" in stderr


def test_build_unwritable_path_exits_1(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "build", "qma1", "--n", "2", "-o", str(tmp_path)
    )
    assert code == 1
    assert "error" in stderr


def test_build_qma4_stdout_has_ten_resets(capsys):
    code, stdout, _ = run_cli(capsys, "build", "qma4", "--n", "4")
    assert code == 0
    assert stdout.count("reset ") == 10


def test_analyze_all_csv(capsys):
    code, stdout, _ = run_cli(capsys, "analyze", "--all", "--n", "4",
                              "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in stdout.strip().splitlines()]
    assert rows[0][:3] == ["variant", "n", "qubits"]
    assert [row[2] for row in rows[1:]] == ["17", "16", "12", "12"]


def test_analyze_reduction_json(capsys):
    code, stdout, _ = run_cli(capsys, "analyze", "qma1", "qma2", "--n", "4",
                              "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["schema"] == 1
    assert payload["reduction_pct_vs_first"][1]["cnot_count"] == "37.50"


def test_analyze_requires_selection(capsys):
    code, _, stderr = run_cli(capsys, "analyze", "--n", "4")
    assert code == 2
    assert "no adders selected" in stderr


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, "analyze", "--all", "--n", "4", "--frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, stdout, _ = run_cli(capsys, "--help")
    assert code == 0


def _src_env() -> dict[str, str]:
    """This environment with the package under test first on PYTHONPATH."""
    src = str(Path(qmodadd.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _parsed(parser, argv):
    """vars() of the Namespace `parser` makes of argv, or the SystemExit code."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code


def _first_call_in_fresh_process(argv, env) -> tuple[int, str, str]:
    script = "import sys; from qmodadd.cli import main; sys.exit(main(sys.argv[1:]))"
    # Bytes, decoded without newline translation: csv output ends rows in \r\n.
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_repeated_main_calls_share_no_state(tmp_path, capsys, monkeypatch):
    """main shares one parser across calls; no call may leak into the next."""
    monkeypatch.delenv("QMA_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the same width everywhere
    qasm_path = tmp_path / "qma3.qasm"
    qasm_path.write_text(export_qasm(build_qma(AdderVariant.QMA3, 2)))
    experiment = ["experiment", "qma1", "--n", "1", "--shots", "2"]
    sequence = [
        [*experiment, "--noise", "idle=0.2"], experiment,
        ["verify", "--qasm", str(qasm_path)], ["verify", "--all", "--n", "1..2"],
        ["verify", "--all", "--n", "2..1"], ["analyze", "qma2", "--n", "3"],
        ["--help"], ["build", "qma4", "--n", "2"],
    ]
    runs = [run_cli(capsys, *argv) for argv in sequence]
    assert [code for code, _, _ in runs] == [0, 0, 0, 0, 2, 0, 0, 0]
    assert cli.build_parser() is cli.build_parser()
    shared, fresh = cli.build_parser(), cli.build_parser.__wrapped__()
    env = _src_env()
    for argv, run in zip(sequence, runs):
        assert _parsed(shared, argv) == _parsed(fresh, argv), argv
        assert run == _first_call_in_fresh_process(argv, env), argv


_NUMPY_PROBE = """
import contextlib, io, json, sys
import qmodadd
from qmodadd.circuits import GateKind, analyze
from qmodadd.cli import main
good, cut = sys.argv[1:]
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in (
        ["build", "qma3", "--n", "2"], ["analyze", "--all", "--n", "4", "--format", "json"],
        ["verify", "--all", "--n", "1..3"], ["verify", "--qasm", good], ["verify", "--qasm", cut],
    )]
    qmodadd.parse_qasm(open(good).read())
    qmodadd.mod_add(4, 16, 1)
    before = loaded()
    codes.append(main(["experiment", "qma1", "--n", "1", "--shots", "2"]))
print(json.dumps({"codes": codes, "before": before, "after": bool(loaded())}))
"""


def test_numpy_loads_only_for_the_noisy_engine(tmp_path):
    text = export_qasm(build_qma(AdderVariant.QMA4, 3))
    good, cut = tmp_path / "good.qasm", tmp_path / "cut.qasm"
    good.write_text(text)
    cut.write_text("".join(text.splitlines(keepends=True)[:-1]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(good), str(cut)],
                          env=_src_env(), capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0, 4, 0], "before": [], "after": True}


def test_numpy_submodules_import_after_the_package():
    script = ("import qmodadd; from numpy.linalg import norm; import numpy as np; "
              "print(norm([3, 4]), np.arange(3).sum())")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "5.0 3\n"


_FIRST_NOISY_CALLS_IN_THREADS = """
import json, threading
from qmodadd import DEFAULT_NOISE, AdderVariant, build_qma, noisy_modes
built = build_qma(AdderVariant.QMA2, 1)
barrier, results = threading.Barrier(2), {}
def first_call(name):
    barrier.wait()
    try:
        results[name] = noisy_modes(built.circuit, built.encode(2, 1), DEFAULT_NOISE,
                                    50, 7).tolist()
    except Exception as exc:
        results[name] = repr(exc)
threads = [threading.Thread(target=first_call, args=(name,)) for name in "ab"]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(json.dumps({"alive": [t.is_alive() for t in threads], **results}))
"""


def test_first_noisy_calls_in_two_threads_agree():
    """Two threads that make a process's first noisy call at once both see
    all of numpy: README calls the simulators safe to share across threads."""
    proc = subprocess.run([sys.executable, "-c", _FIRST_NOISY_CALLS_IN_THREADS],
                          env=_src_env(), capture_output=True, text=True, check=True,
                          timeout=120)
    result = json.loads(proc.stdout)
    assert result["alive"] == [False, False]
    assert isinstance(result["a"], list) and result["a"] == result["b"]


_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import qmodadd
from qmodadd.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in (
        ["verify", "--all", "--n", "1..3"], ["analyze", "--all", "--n", "4", "--format", "json"],
        ["build", "qma3", "--n", "2"],
    )]
built = qmodadd.build_qma(qmodadd.AdderVariant.QMA3, 2)
circuit, _ = qmodadd.parse_qasm(qmodadd.export_qasm(built))
parsed = circuit.gates == built.circuit.gates
raised = []
for _ in range(2):
    try:
        qmodadd.noisy_modes(built.circuit, built.encode(1, 2), qmodadd.DEFAULT_NOISE, 2, 0)
    except Exception as exc:
        raised.append(type(exc).__name__)
print(json.dumps({"codes": codes, "parsed": parsed, "raised": raised}))
"""


def test_commands_without_numpy_run_and_the_noisy_engine_says_why():
    # A None entry in sys.modules makes each import of numpy raise
    # ModuleNotFoundError, the ImportError for a missing module.
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {
        "codes": [0, 0, 0], "parsed": True,
        "raised": ["ModuleNotFoundError", "ModuleNotFoundError"]}


def test_experiment_zero_noise(capsys):
    code, stdout, _ = run_cli(
        capsys, "experiment", "qma1", "--n", "1", "--shots", "20",
        "--seed", "3", "--noise", "zero",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["rows"][0]["nmed_float"] == 0.0


def test_experiment_is_deterministic(capsys):
    args = ("experiment", "--all", "--n", "1", "--shots", "50", "--seed", "7")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_experiment_records_engine_meta(capsys):
    args = ("experiment", "qma2", "--n", "1", "--shots", "5", "--seed", "7")
    first, second = (run_cli(capsys, *args)[1] for _ in range(2))
    assert first == second
    assert json.loads(first)["meta"] == {
        "version": qmodadd.__version__, "engine": ENGINE, "rng": RNG_SCHEME,
    }


def test_experiment_ordering_check(capsys):
    args = (
        "experiment", "qma3", "qma4", "--n", "2", "--shots", "1",
        "--seed", "7", "--noise", "gate=0", "idle=0", "delta=0.2",
        "--check-ordering",
    )
    code, stdout, _ = run_cli(capsys, *args)
    assert code == 0
    # reversed order violates the strict decrease
    args = (
        "experiment", "qma4", "qma3", "--n", "2", "--shots", "1",
        "--seed", "7", "--noise", "gate=0", "idle=0", "delta=0.2",
        "--check-ordering",
    )
    code, _, stderr = run_cli(capsys, *args)
    assert code == 3
    assert "ordering check failed" in stderr


def test_experiment_csv_rows(capsys):
    code, stdout, _ = run_cli(
        capsys, "experiment", "qma2", "--n", "1", "--shots", "5",
        "--seed", "1", "--noise", "zero", "--format", "csv",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "variant,a,b,ideal,observed,ed"
    assert len(lines) == 1 + 9


def test_experiment_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("QMA_SEED", "123")
    code, stdout, _ = run_cli(
        capsys, "experiment", "qma2", "--n", "1", "--shots", "5",
        "--noise", "zero",
    )
    assert code == 0
    assert json.loads(stdout)["seed"] == 123


@pytest.mark.parametrize("source", ["flag", "env", "env-not-int"])
def test_experiment_negative_seed_is_usage_error(capsys, monkeypatch, source):
    argv = ["experiment", "qma1", "--n", "1", "--shots", "2"]
    if source == "flag":
        argv += ["--seed", "-1"]
        message = "error: --seed=-1 is negative (a seed must be >= 0)\n"
    elif source == "env":
        monkeypatch.setenv("QMA_SEED", "-3")
        message = "error: QMA_SEED=-3 is negative (a seed must be >= 0)\n"
    else:
        monkeypatch.setenv("QMA_SEED", "abc")
        message = "error: QMA_SEED='abc' is not an integer\n"
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout, stderr) == (2, "", message)


def test_experiment_config_option_is_gone(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("seed = 55\n")
    code, stdout, stderr = run_cli(
        capsys, "experiment", "qma1", "--n", "1", "--config", str(config),
    )
    assert code == 2
    assert stdout == ""
    assert "unrecognized arguments: --config" in stderr
    assert "Traceback" not in stderr


def test_experiment_noise_is_order_free(capsys):
    base = ("experiment", "qma1", "--n", "1", "--shots", "2", "--noise")
    blocks = []
    for tokens in (("gate=0.1", "x=0.2"), ("x=0.2", "gate=0.1")):
        code, stdout, _ = run_cli(capsys, *base, *tokens)
        assert code == 0
        blocks.append(json.loads(stdout)["noise"])
    assert blocks[0] == blocks[1]
    assert blocks[0]["p_x"] == 0.2 and blocks[0]["p_cnot"] == 0.1
    code, stdout, stderr = run_cli(capsys, *base, "x=0.1", "X=0.2")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: noise key 'x' given twice\n"


@pytest.mark.parametrize("key, fields", [
    ("x", ["p_x"]), ("cnot", ["p_cnot"]), ("toffoli", ["p_toffoli"]),
    ("idle", ["p_idle"]), ("delta", ["delta_reset"]),
    ("gate", ["p_x", "p_cnot", "p_toffoli"]),
])
def test_experiment_noise_key_sets_its_fields(capsys, key, fields):
    code, stdout, _ = run_cli(capsys, "experiment", "qma1", "--n", "1",
                              "--shots", "2", "--noise", f"{key}=0.25")
    assert code == 0
    expected = dataclasses.asdict(DEFAULT_NOISE)
    expected.update(dict.fromkeys(fields, 0.25))
    assert json.loads(stdout)["noise"] == expected


def test_equal_noise_models_print_alike(capsys):
    base = ("experiment", "qma1", "--n", "1", "--shots", "50", "--seed", "3", "--noise")
    for tokens in (["idle=0"], ["idle=-0.0"]), (["gate=0", "delta=0"], ["gate=-0", "delta=-0.0"]):
        runs = [run_cli(capsys, *base, *spec) for spec in tokens]
        assert runs[0][0] == 0
        assert runs[0] == runs[1]
    assert math.copysign(1, NoiseModel(p_idle=-0.0).p_idle) == 1


_EXPERIMENT = ["experiment", "--all", "--n", "2", "--shots", "50", "--seed", "3"]
_GOLDEN_ARGV = (
    [["analyze", "--all", "--n", str(n), "--format", fmt]
     for n in range(1, 9) for fmt in ("json", "csv", "table")]
    + [["verify", "--all", "--n", "1..4"]]
    + [_EXPERIMENT + ["--format", fmt] + extra
       for fmt in ("json", "csv")
       for extra in ([], ["--noise", "zero"], ["--noise", "gate=0.1", "x=0.2"],
                     ["--noise", "x=0", "delta=0"],
                     ["--reset-model", "independent", "--full-basis", "--score-sum"])]
    + [["verify", "--n", "1", "--qasm", "/nonexistent.qasm"],
       ["verify", "--n", "1", "--qasm", "/"],
       ["build", "qma1", "--n", "2", "-o", "/"]]
    + [["experiment", "qma1", "--n", "1", "--shots", "2", "--noise", *tokens]
       for tokens in (["idle=2"], ["delta=-1"], ["foo=1"], ["x"], ["x=abc"],
                      ["x=0.1", "X=0.2"], ["zero", "x=0.1"])]
)


def test_golden_cli_digest(capsys):
    """One sha256 over (argv, exit code, stdout, stderr) of a fixed argv set.
    Change the digest only together with a stated change of output."""
    runs = [[argv, *run_cli(capsys, *argv)] for argv in _GOLDEN_ARGV]
    digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
    assert digest == "833f32ee99109014ed8087938ac67b71ab416dd299d2c04f6c24c1691fb68790"


def test_analyze_then_build_walk_each_adder_once(capsys, monkeypatch):
    walked = []
    walk = circuits._walk
    monkeypatch.setattr(circuits, "_walk", lambda *args: walked.append(args[0]) or walk(*args))
    _build_all.cache_clear()
    assert run_cli(capsys, "analyze", "--all", "--n", "5", "--format", "json")[0] == 0
    for variant in AdderVariant:
        assert run_cli(capsys, "build", variant.value, "--n", "5")[0] == 0
    assert run_cli(capsys, "analyze", "--all", "--n", "5", "--format", "table")[0] == 0
    assert len(walked) == len(set(map(id, walked))) == 4


@pytest.mark.parametrize("variant", list(AdderVariant))
def test_build_summary_is_the_report(capsys, variant):
    for n in range(1, 13):
        code, _, stderr = run_cli(capsys, "build", variant.value, "--n", str(n))
        circuit = build_qma(variant, n).circuit
        report = analyze(circuit)
        counts = [sum(gate.kind is kind for gate in circuit.gates)
                  for kind in (GateKind.CNOT, GateKind.TOFFOLI, GateKind.RESET)]
        assert [report.cnot_count, report.toffoli_count, report.reset_count] == counts
        cnot, toffoli, resets = counts
        assert (code, stderr) == (0, f"{variant.value}: width={circuit.width} "
                                     f"cnot={cnot} toffoli={toffoli} resets={resets}\n")


def test_verify_all_small(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--all", "--n", "1..2")
    assert code == 0
    assert stdout.count("ok ") == 8
    assert "(9 inputs)" in stdout and "(25 inputs)" in stdout


def test_verify_builds_each_adder_once(capsys):
    # One build of the four adders per n in the loop, and one more at the
    # top n for the work check: verify holds no builds of its own, and
    # the cache keeps only the last n, which the loop reaches last.
    _build_all.cache_clear()
    code, stdout, _ = run_cli(capsys, "verify", "--all", "--n", "1..7")
    assert (code, stdout.count("ok ")) == (0, 28)
    assert _build_all.cache_info().misses == 8


def test_verify_catches_corrupted_circuit(tmp_path, capsys):
    built = build_qma(AdderVariant.QMA2, 2)
    text = export_qasm(built)
    # slip in a stray NOT on the low operand bit; still parses fine
    lines = text.splitlines()
    decl = next(i for i, line in enumerate(lines) if line.startswith("qubit["))
    lines.insert(decl + 1, "x q[0];")
    bad = tmp_path / "bad.qasm"
    bad.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run_cli(capsys, "verify", "--qasm", str(bad), "--n", "2..2")
    assert code == 4
    assert "FAIL" in stdout and "expected" in stdout


@pytest.mark.parametrize("wires", [
    "[0, 99]", "[0, -1]", "[0, 0]", "[2, 3]",
    pytest.param("[" * 100_000 + "]" * 100_000, id="too-deep-for-json"),
])
def test_verify_rejects_layout_wires_outside_register(tmp_path, capsys, wires):
    text = export_qasm(build_qma(AdderVariant.QMA2, 1))
    bad = tmp_path / "bad.qasm"
    bad.write_text(text.replace('"a_wires": [0, 1]', f'"a_wires": {wires}'))
    code, stdout, stderr = run_cli(capsys, "verify", "--qasm", str(bad), "--n", "1..1")
    assert code == 2
    assert stdout == ""
    assert "no usable layout metadata" in stderr


def test_verify_rejects_layout_n_that_disagrees_with_registers(tmp_path, capsys):
    # Read with n = 2, the correct n = 1 circuit would fail the n = 2 oracle.
    text = export_qasm(build_qma(AdderVariant.QMA2, 1))
    bad = tmp_path / "bad.qasm"
    bad.write_text(text.replace('"n": 1', '"n": 2'))
    code, stdout, stderr = run_cli(capsys, "verify", "--qasm", str(bad), "--n", "1..1")
    assert code == 2
    assert stdout == ""
    assert "no usable layout metadata" in stderr


def test_verify_non_utf8_qasm_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_bytes(b"OPENQASM 3.0;\n\xff\xfe\n")
    code, stdout, stderr = run_cli(capsys, "verify", "--n", "1", "--qasm", str(bad))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {bad} is not UTF-8 text (byte 14)\n"


def test_verify_skips_one_byte_order_mark(tmp_path, capsys):
    # Some editors start a UTF-8 file with U+FEFF; an error's byte offset
    # still counts from the first byte of the file.
    bom = b"\xef\xbb\xbf"
    good = tmp_path / "bom.qasm"
    good.write_bytes(bom + export_qasm(build_qma(AdderVariant.QMA2, 2)).encode())
    assert run_cli(capsys, "verify", "--qasm", str(good)) == (0, f"ok {good} (25 inputs)\n", "")
    bad = tmp_path / "bad.qasm"
    bad.write_bytes(bom + b"OPENQASM 3.0;\n\xff\n")
    assert run_cli(capsys, "verify", "--qasm", str(bad)) == (
        2, "", f"error: {bad} is not UTF-8 text (byte 17)\n")
    twice = tmp_path / "twice.qasm"
    twice.write_bytes(bom + good.read_bytes())
    code, stdout, stderr = run_cli(capsys, "verify", "--qasm", str(twice))
    assert (code, stdout) == (2, "")
    assert "expected OPENQASM 3 version line" in stderr


def test_verify_oversized_register_is_usage_error(tmp_path, capsys):
    text = export_qasm(build_qma(AdderVariant.QMA2, 1))
    bad = tmp_path / "big.qasm"
    bad.write_text(text.replace("qubit[7] q;", "qubit[99999999999999999999] q;"))
    code, stdout, stderr = run_cli(capsys, "verify", "--n", "1", "--qasm", str(bad))
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"error: 3:1: register wider than the supported {MAX_WIDTH} qubits\n"
    )


@pytest.mark.parametrize("n_flag", [[], ["--n", "1"], ["--n", "3..5"]])
def test_verify_qasm_needs_no_n_and_ignores_one(tmp_path, capsys, n_flag):
    good = tmp_path / "good.qasm"
    good.write_text(export_qasm(build_qma(AdderVariant.QMA3, 2)))
    result = run_cli(capsys, "verify", "--qasm", str(good), *n_flag)
    assert result == (0, f"ok {good} (25 inputs)\n", "")


def test_verify_without_n_or_qasm_is_usage_error(capsys):
    result = run_cli(capsys, "verify", "--all")
    assert result == (2, "", "error: verify needs --n LO..HI or --qasm FILE\n")


@pytest.fixture
def no_runs(monkeypatch):
    """Fail at once if a simulation starts: the runs below must not."""
    def started(*args, **kwargs):
        raise AssertionError("an oversized run was started")
    monkeypatch.setattr(cli, "run_sweep", started)
    monkeypatch.setattr(cli, "_check_adder", started)


@pytest.mark.parametrize("argv", [
    ["build", "qma1", "--n", "99999999999999999999"],
    ["analyze", "qma1", "--n", "99999999999999999999"],
    ["experiment", "qma1", "--n", "1", "--shots", "99999999999999999999"],
    ["build", "qma1", "--n", str((MAX_WIDTH - 5) // 3 + 1)],
    ["verify", "--all", "--n", "1..99999999999999999999"],
    ["verify", "--all", "--n", "1..14"],
    # Over MAX_ROWS inputs per adder, though under MAX_WORK:
    ["experiment", "qma1", "--n", "10", "--shots", "1"],
    ["experiment", "qma1", "--n", "9", "--shots", "1", "--full-basis"],
    # (2^8 + 1)^2 x 1000 x 119 gates is 7.9e9, under MAX_WORK, but the
    # (2^9)^2 register patterns that --full-basis runs make it 3.1e10.
    ["experiment", "qma1", "--n", "8", "--shots", "1000", "--full-basis"],
])
def test_oversized_run_is_refused_before_it_starts(capsys, no_runs, argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and "too large" in stderr


def test_run_bounds_admit_the_largest_experiments():
    for n, full_basis in ((9, False), (8, True)):
        circuits = [build_qma(v, n).circuit for v in AdderVariant]
        cli._check_work(n, 1, circuits, full_basis=full_basis, max_rows=cli.MAX_ROWS)
    cli._check_work(8, 1000, [build_qma(AdderVariant.QMA1, 8).circuit],
                    max_rows=cli.MAX_ROWS)


def _peak_rss(*argv) -> int:
    """Peak RSS of one `qmodadd` run in a fresh process, output discarded."""
    script = ("import resource, sys; from qmodadd.cli import main; "
              "code = main(sys.argv[1:]); sys.stdout.flush(); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
              "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=_src_env(), check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return int(proc.stderr.split()[-1])


@pytest.mark.slow
def test_experiment_memory_does_not_grow_with_the_adder_count():
    # Rows are held per adder as arrays and written one adder at a time,
    # so --all peaks near a single adder's run (it was 1.77x at n = 7).
    one = _peak_rss("experiment", "qma1", "--n", "7", "--shots", "1")
    every = _peak_rss("experiment", "--all", "--n", "7", "--shots", "1")
    assert every < 1.3 * one


def test_width_check_admits_the_widest_n_that_parses_back():
    cli._check_width((MAX_WIDTH - 5) // 3)


def test_work_check_bounds_its_own_n():
    # Called alone, it must not compute (2^n + 1)^2 for a huge n.
    with pytest.raises(QmodaddError, match="too large"):
        cli._check_work(10**20, 1, [])


def test_verify_qasm_of_a_large_adder_is_refused_before_it_runs(
    tmp_path, capsys, no_runs
):
    big = tmp_path / "n20.qasm"
    big.write_text(export_qasm(build_qma(AdderVariant.QMA2, 20)))
    code, stdout, stderr = run_cli(capsys, "verify", "--qasm", str(big))
    assert (code, stdout) == (2, "")
    assert "n=20, shots=1" in stderr and "too large" in stderr


def test_verify_in_small_chunks_prints_the_same(capsys, monkeypatch):
    argv = ("verify", "--all", "--n", "1..3")
    default = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_VERIFY_LANES", 7)
    assert run_cli(capsys, *argv) == default
    assert default[0] == 0


def _without_gate(text: str, index: int) -> str:
    lines = text.splitlines()
    decl = next(i for i, line in enumerate(lines) if line.startswith("qubit["))
    del lines[decl + 1 + index]
    return "\n".join(lines) + "\n"


def _first_failure(built) -> tuple | None:
    """Reference: one run_exact call per pair, in a-major order; the first
    failing (a, b, want, got), mod checked before sum."""
    side = (1 << built.n) + 1
    for a in range(side):
        for b in range(side):
            out = run_exact(built.circuit, built.encode(a, b))
            got, want = decode(out, built.layout.mod_wires), mod_add_plus_one(built.n, a, b)
            if got != want:
                return a, b, want, got
            got = decode(out, built.layout.sum_wires)
            if got != a + b:
                return a, b, a + b, got
    return None


@pytest.mark.parametrize("variant", list(AdderVariant))
def test_verify_chunks_report_the_first_failure_in_a_major_order(
    tmp_path, capsys, monkeypatch, variant
):
    monkeypatch.setattr(cli, "_VERIFY_LANES", 7)
    built = build_qma(variant, 2)
    bad = tmp_path / "bad.qasm"
    for index in range(0, len(built.circuit.gates), 5):
        text = _without_gate(export_qasm(built), index)
        bad.write_text(text)
        code, stdout, _ = run_cli(capsys, "verify", "--qasm", str(bad), "--n", "2..2")
        circuit, layout = parse_qasm(text)
        first = _first_failure(BuiltAdder(circuit, layout, variant))
        if first is None:
            assert (code, stdout) == (0, f"ok {bad} (25 inputs)\n")
        else:
            a, b, want, got = first
            assert (code, stdout) == (4, f"FAIL {bad} a={a} b={b}: expected {want}, got {got}\n")


def _mutants(built):
    """The adder with one gate deleted, for each gate, and with two
    adjacent gates swapped, for each pair."""
    gates = built.circuit.gates
    for index in range(len(gates)):
        yield gates[:index] + gates[index + 1:]
    for index in range(len(gates) - 1):
        yield gates[:index] + (gates[index + 1], gates[index]) + gates[index + 2:]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bit_plane_check_agrees_with_one_run_per_pair(monkeypatch, n):
    side = (1 << n) + 1
    failures = 0
    for variant in AdderVariant:
        built = build_qma(variant, n)
        for gates in _mutants(built):
            mutant = dataclasses.replace(
                built, circuit=dataclasses.replace(built.circuit, gates=gates))
            first = _first_failure(mutant)
            failures += first is not None
            for lanes in (1, 7, side, 1024):
                monkeypatch.setattr(cli, "_VERIFY_LANES", lanes)
                assert cli._check_adder(mutant) == first, (variant, gates, lanes)
    assert failures  # the mutants reach the failure path


@pytest.mark.parametrize("lanes", [1, 7, 10, 1024])
def test_lane_chunks_hold_every_pair_and_its_sums(lanes):
    for n in range(1, 6):
        side = (1 << n) + 1
        seen = 0
        for start, stop, *planes in cli._lane_chunks(n, lanes):
            assert start == seen and stop == min(start + lanes, side * side)
            seen = stop
            for lane in range(stop - start):
                a, b, mod, total = (decode([(p >> lane) & 1 for p in group], range(len(group)))
                                    for group in planes)
                assert (a, b) == divmod(start + lane, side)
                assert (mod, total) == (mod_add_plus_one(n, a, b), a + b)
        assert seen == side * side


def test_verify_all_prints_one_ok_line_per_adder(capsys):
    want = "".join(f"ok {variant.value} n={n} ({((1 << n) + 1) ** 2} inputs)\n"
                   for n in range(1, 8) for variant in AdderVariant)
    assert run_cli(capsys, "verify", "--all", "--n", "1..7") == (0, want, "")


def test_verify_gateless_qasm_fails_at_the_first_pair(tmp_path, capsys):
    # No gate writes the QMA2 mod wires, so they read as the int 0.
    text = export_qasm(build_qma(AdderVariant.QMA2, 2))
    header = [line for line in text.splitlines() if not line.endswith("];")]
    bad = tmp_path / "empty.qasm"
    bad.write_text("\n".join(header) + "\n")
    code, stdout, stderr = run_cli(capsys, "verify", "--qasm", str(bad), "--n", "2..2")
    assert code == 4
    assert stdout == f"FAIL {bad} a=0 b=0: expected 1, got 0\n"
    assert stderr == ""


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Files for the CLI fuzz: a good build, a non-UTF-8 file, an oversized
    declaration, a directory and a missing path; plus an output path."""
    root = tmp_path_factory.mktemp("fuzz")
    text = export_qasm(build_qma(AdderVariant.QMA2, 1))
    files = {
        "good.qasm": text.encode(),
        "binary.qasm": b"OPENQASM 3.0;\n\xff\xfe\n",
        "big.qasm": text.replace("qubit[7]", "qubit[99999999999999999999]").encode(),
    }
    for name, blob in files.items():
        (root / name).write_bytes(blob)
    inputs = [str(root / name) for name in files] + [str(root), str(root / "missing")]
    return inputs, str(root / "out.qasm")


_COMMANDS = ["build", "analyze", "experiment", "verify", "bogus"]
_SELECTIONS = [[], ["--all"], ["qma1"], ["qma9"], ["qma3", "qma4"]]
_BARE = ["--all", "--full-basis", "--score-sum", "--check-ordering", "--help",
         "qma2", "--frobnicate"]
_COUNTS = ["-1", "0", "1", "3", "abc", "99999999999999999999"]
_VALUES = {
    "--n": ["-1", "0", "1", "2", "x", "1..2", "2..1", "99999999999999999999"],
    "--shots": _COUNTS,
    "--seed": _COUNTS,
    "--noise": ["zero", "gate=0.1", "x=0.2", "idle=2", "delta=-1", "foo=1", "x"],
    "--format": ["csv", "json", "table", "xml"],
    "--reset-model": ["purify", "independent", "bogus"],
    "--ideal-convention": ["plus-one", "pre-decrement", "bogus"],
}
_ITEMS = st.one_of(
    st.sampled_from(_BARE).map(lambda token: [token]),
    st.sampled_from(sorted(_VALUES)).flatmap(
        lambda flag: st.sampled_from(_VALUES[flag]).map(lambda value: [flag, value])
    ),
    st.integers(0, 4).map(lambda index: ["--qasm", index]),
    st.just(["-o"]),
)


@given(
    command=st.sampled_from(_COMMANDS),
    selection=st.sampled_from(_SELECTIONS),
    n=st.sampled_from(_VALUES["--n"]),
    items=st.lists(_ITEMS, max_size=5),
)
# The three inputs that once escaped main as tracebacks.
@example(command="experiment", selection=["qma1"], n="1",
         items=[["--shots", "1"], ["--seed", "-1"]])
@example(command="verify", selection=[], n="1", items=[["--qasm", 1]])
@example(command="verify", selection=[], n="1", items=[["--qasm", 2]])
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_with_a_documented_code(fuzz_paths, command, selection, n, items):
    """Any argv over the token set ends in an exit code 0..4, never a raise."""
    inputs, output = fuzz_paths
    argv = [command, *selection, "--n", n]
    for item in items:
        if item[0] == "--qasm":
            item = ["--qasm", inputs[item[1]]]
        elif item == ["-o"]:
            item = ["-o", output]
        argv += item
    assert main(argv) in range(5)
