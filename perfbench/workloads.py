"""The two benchmark workloads: their commands, one pass each, and the output checks.

Every workload drives the public command line in-process through
`qmodadd.cli.main(argv)` with stdout and stderr captured, so argument
parsing and serialization are part of the measured work.  The seed given
to the benchmark only reorders or re-seeds the inputs; the amount of work
in one pass is the same for every seed.

A workload's operations are the units its check accepts or rejects:
one (variant) row of the noisy sweep; one (variant, n) verdict of the
exact verification and one (variant, n) circuit of the resource scan,
the two halves of `verify_scan`.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import re
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
VARIANTS = ("qma1", "qma2", "qma3", "qma4")

#: Size of the headline noisy sweep; the NMED band is derived at this size.
NOISY_N = 4
NOISY_SHOTS = 1000


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Call `qmodadd.cli.main` in-process; returns (exit code, stdout, stderr).

    `main` is looked up on every call so that a tracer wrapping
    `qmodadd.cli.main` sees the call.
    """
    from qmodadd import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class PassResult:
    """What one pass produced; `outputs` is whatever the workload's check reads."""

    outputs: object
    output_bytes: int
    error: str | None = None  # traceback if the pass raised
    #: seconds spent on the part of the pass that produced each kind of
    #: work unit, where a pass has more than one part
    part_s: dict | None = None


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


# --------------------------------------------------------------- noisy_sweep


def noisy_argv(params: dict, seed: int) -> list[str]:
    return ["experiment", "--all", "--n", str(params["n"]),
            "--shots", str(params["shots"]), "--seed", str(seed)]


def noisy_pass(params: dict, seed: int) -> PassResult:
    code, out, _ = run_cli(noisy_argv(params, seed))
    return PassResult((code, out), len(out))


def noisy_counts(params: dict) -> dict:
    inputs = len(VARIANTS) * ((1 << params["n"]) + 1) ** 2
    return {"lanes": inputs * params["shots"], "inputs": inputs}


def check_noisy(params: dict, result: PassResult, check: Check, context: dict) -> None:
    """Score every row of one `experiment` pass.

    A row fails if any of its per-input cells disagrees with the
    arithmetic, if its NMED is not exactly mean ED / 2^n, or, at the
    headline size, if the NMED leaves the band derived from the seed
    commit.  If the whole pass is unusable (exit code, JSON, row count,
    or bytes differing from the first pass of this process, which ran the
    same seed), every row counts as failed.
    """
    n = params["n"]
    limit = 1 << n
    code, out = result.outputs if result.error is None else (None, "")
    problem = None
    rows = []
    if result.error is not None:
        problem = "pass raised: " + result.error.strip().splitlines()[-1]
    elif code != 0:
        problem = f"experiment exited {code}"
    elif context.setdefault("reference", out) != out:
        problem = "output differs from an earlier pass with the same seed"
    else:
        try:
            rows = json.loads(out)["rows"]
        except (ValueError, KeyError, TypeError):
            problem = "experiment output is not the expected JSON"
        else:
            if [row.get("variant") for row in rows] != [v.upper() for v in VARIANTS]:
                problem = f"expected {len(VARIANTS)} rows QMA1..QMA4"
    if problem is not None:
        for variant in VARIANTS:
            check.record(False, f"{variant}: {problem}")
        return
    band = None
    if n == NOISY_N and params["shots"] == NOISY_SHOTS:
        band = json.loads((HERE / "nmed_band.json").read_text())["variants"]
    domain = {(a, b) for a in range(limit + 1) for b in range(limit + 1)}
    for row in rows:
        try:
            why = _noisy_row_problem(row, n, limit, domain, band)
        except (KeyError, TypeError, ValueError) as exc:
            why = f"malformed row: {exc!r}"
        check.record(why is None, f"{row['variant']}: {why}")


def _noisy_row_problem(row, n, limit, domain, band) -> str | None:
    cells = row["per_input"]
    if len(cells) != len(domain) or {(c[0], c[1]) for c in cells} != domain:
        return f"expected {len(domain)} inputs covering 0..2^n squared"
    total_ed = 0
    for a, b, ideal, observed, ed in cells:
        if ideal != (a + b + 1) % (limit + 1):
            return f"ideal {ideal} wrong for a={a} b={b}"
        if ed != abs(ideal - observed):
            return f"ed {ed} != |{ideal} - {observed}| for a={a} b={b}"
        total_ed += ed
    nmed = Fraction(total_ed, len(cells)) / limit
    if row["n_inputs"] != len(domain) or Fraction(row["nmed"]) != nmed:
        return f"nmed {row['nmed']} != mean ED / 2^{n} = {nmed}"
    if band is not None:
        lo, hi = band[row["variant"]]["lo"], band[row["variant"]]["hi"]
        if not lo <= float(nmed) <= hi:
            return f"nmed {float(nmed):.5f} outside band [{lo}, {hi}]"
    return None


# ------------------------------------------- verify_scan, first half: verify


def _verify_argv(params: dict, seed: int) -> list[str]:
    variants = list(VARIANTS)
    random.Random(seed).shuffle(variants)
    return ["verify", *variants, "--n", f"1..{params['n_max']}"]


def verify_pass(params: dict, seed: int) -> PassResult:
    code, out, _ = run_cli(_verify_argv(params, seed))
    return PassResult((code, out), len(out))


def verify_counts(params: dict) -> dict:
    pairs = sum(((1 << n) + 1) ** 2 for n in range(1, params["n_max"] + 1))
    return {"inputs": pairs * len(VARIANTS)}


def check_verify(params: dict, result: PassResult, check: Check, context: dict) -> None:
    """One `ok` line per (variant, n), with the right input count, and exit 0."""
    code, out = result.outputs if result.error is None else (None, "")
    lines = set(out.splitlines())
    for n in range(1, params["n_max"] + 1):
        for variant in VARIANTS:
            want = f"ok {variant} n={n} ({((1 << n) + 1) ** 2} inputs)"
            ok = code == 0 and want in lines
            check.record(ok, f"{variant} n={n}: missing {want!r} (exit {code})")


# ---------------------------------------- verify_scan, second half: the scan

_REPORT_KEYS = ("width", "reset_count", "cnot_count", "toffoli_count",
                "cnot_depth", "toffoli_depth")
#: The README "Resource profile" columns holding _REPORT_KEYS, in order.
_README_HEADERS = ("qubits", "resets", "CNOTs", "Toffolis", "CNOT depth", "Toffoli depth")
#: a*n+b, a*n, n+b, n or b.
_CLOSED_FORM = re.compile(r"^(?:(\d*)n(?:\+(\d+))?|(\d+))$")
_BUILD_SUMMARY = re.compile(r"^qma\d: width=.*$", re.M)


def readme_table(readme: Path = ROOT / "README.md") -> dict:
    """The closed forms of the README "Resource profile" table.

    Returns {variant: (width, resets, CNOTs, Toffolis, CNOT depth,
    Toffoli depth)}, each entry a pair (a, b) meaning a*n + b.  The table
    is read, not copied, so a change of convention that updates the
    README is checked against the README.  Raises ValueError if the
    table is missing or a cell is not of the form `3n+5`, `n+1`, `10n`
    or `0` (a trailing footnote mark is ignored).
    """
    text = readme.read_text() if readme.is_file() else ""
    section = text.partition("## Resource profile")[2].partition("\n## ")[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines() if line.lstrip().startswith("|")
    ]
    if len(rows) < 2:
        raise ValueError("README.md has no Resource profile table")
    header, body = rows[0], rows[2:]
    try:
        columns = [header.index(name) for name in _README_HEADERS]
    except ValueError:
        raise ValueError(f"README resource table header is {header}") from None
    table = {}
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"README resource table row {row} has the wrong width")
        forms = []
        for column in columns:
            cell = row[column].rstrip("†* ").replace(" ", "")
            match = _CLOSED_FORM.match(cell)
            if match is None:
                raise ValueError(f"README resource table cell {row[column]!r} "
                                 "is not a closed form in n")
            coef, const, alone = match.groups()
            if alone is not None:
                forms.append((0, int(alone)))
            else:
                forms.append((int(coef or 1), int(const or 0)))
        table[row[0].lower()] = tuple(forms)
    if sorted(table) != sorted(VARIANTS):
        raise ValueError(f"README resource table rows are {sorted(table)}")
    return table


def _scan_plan(params: dict, seed: int) -> list[tuple[int, list[str]]]:
    rng = random.Random(seed)
    ns = list(range(1, params["n_max"] + 1))
    rng.shuffle(ns)
    plan = []
    for n in ns:
        variants = list(VARIANTS)
        rng.shuffle(variants)
        plan.append((n, variants))
    return plan


def scan_pass(params: dict, seed: int) -> PassResult:
    import qmodadd

    outputs = []
    out_bytes = 0
    for n, variants in _scan_plan(params, seed):
        analysis = run_cli(["analyze", "--all", "--n", str(n), "--format", "json"])
        builds = {}
        for variant in variants:
            code, text, err = run_cli(["build", variant, "--n", str(n)])
            builds[variant] = (code, err, hash(qmodadd.parse_qasm(text)))
            out_bytes += len(text)
        outputs.append((n, analysis, builds))
        out_bytes += len(analysis[1])
    return PassResult(outputs, out_bytes)


def scan_counts(params: dict) -> dict:
    return {"circuits": params["n_max"] * len(VARIANTS)}


def check_scan(params: dict, result: PassResult, check: Check, context: dict) -> None:
    """Compare every circuit with the README table and with a fresh build.

    The pass keeps only the hash of each parsed circuit.  The fresh
    builds are made outside the timed region, once per process, and
    `context` keeps only their hashes too, so neither inflates the
    process's peak memory.  If the README table cannot be read, every
    circuit fails.
    """
    from qmodadd import AdderVariant, build_qma

    outputs = result.outputs if result.error is None else []
    if "table" not in context:
        try:
            context["table"] = readme_table()
        except ValueError as exc:
            context["table"] = str(exc)
    table = context["table"]
    if isinstance(table, str):
        for n in range(1, params["n_max"] + 1):
            for variant in VARIANTS:
                check.record(False, f"{variant} n={n}: {table}")
        return
    seen = set()
    for n, (code, out, _), builds in outputs:
        try:
            reports = {r["label"]: r for r in json.loads(out)["reports"]}
        except (ValueError, KeyError, TypeError):
            reports = {}
        for variant in VARIANTS:
            seen.add((variant, n))
            want = tuple(a * n + b for a, b in table[variant])
            report = reports.get(variant)
            got = None if report is None else tuple(report.get(k) for k in _REPORT_KEYS)
            problem = None
            if code != 0 or got != want:
                problem = f"analyze gave {got}, README table says {want}"
            elif report.get("fom") != want[0] * want[5]:
                problem = f"fom {report.get('fom')} != width x Toffoli depth"
            elif variant not in builds or builds[variant][0] != 0:
                problem = "build failed"
            else:
                _, err, parsed_hash = builds[variant]
                summary = _BUILD_SUMMARY.search(err)
                expected = f"{variant}: width={want[0]} cnot={want[2]} toffoli={want[3]} resets={want[1]}"
                hashes = context.setdefault("built", {})
                if (variant, n) not in hashes:
                    built = build_qma(AdderVariant(variant), n)
                    hashes[variant, n] = hash((built.circuit, built.layout))
                if summary is None or summary.group(0) != expected:
                    problem = f"build summary is not {expected!r}"
                elif parsed_hash != hashes[variant, n]:
                    problem = "parse_qasm(export) differs from the built circuit"
            check.record(problem is None, f"{variant} n={n}: {problem}")
    for n in range(1, params["n_max"] + 1):
        for variant in VARIANTS:
            if (variant, n) not in seen:
                check.record(False, f"{variant} n={n}: not scanned")


# --------------------------------------------------------------- verify_scan


def verify_scan_pass(params: dict, seed: int) -> PassResult:
    """The exact verification, then the resource scan, timed apart."""
    began = perf_counter()
    verify = verify_pass(params["verify"], seed)
    middle = perf_counter()
    scan = scan_pass(params["scan"], seed)
    return PassResult(
        (verify, scan), verify.output_bytes + scan.output_bytes,
        part_s={"inputs": middle - began, "circuits": perf_counter() - middle},
    )


def verify_scan_counts(params: dict) -> dict:
    return {**verify_counts(params["verify"]), **scan_counts(params["scan"])}


def check_verify_scan(params: dict, result: PassResult, check: Check, context: dict) -> None:
    verify, scan = result.outputs if result.error is None else (result, result)
    check_verify(params["verify"], verify, check, context)
    check_scan(params["scan"], scan, check, context)


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: object  # (params, seed) -> PassResult
    check: object  # (params, PassResult, Check, context) -> None
    counts: object  # params -> work units of one pass: lanes, inputs or circuits
    sizes: dict  # "full" / "tiny" -> params
    #: span-name prefixes that must get calls on this workload
    exercised: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "noisy_sweep", noisy_pass, check_noisy, noisy_counts,
            {"full": {"n": NOISY_N, "shots": NOISY_SHOTS}, "tiny": {"n": 2, "shots": 8}},
            ("cli", "metrics", "sim.run_noisy", "sim.most_frequent", "builders",
             "analyzer.analyze", "circuits", "oracle"),
        ),
        Workload(
            "verify_scan", verify_scan_pass, check_verify_scan, verify_scan_counts,
            {"full": {"verify": {"n_max": 7}, "scan": {"n_max": 96}},
             "tiny": {"verify": {"n_max": 2}, "scan": {"n_max": 3}}},
            ("cli", "builders", "sim.run_exact", "oracle", "analyzer.analyze",
             "analyzer.compare", "circuits", "qasm.export_qasm", "qasm.parse_qasm"),
        ),
    )
}


def guarded_pass(workload: Workload, params: dict, seed: int) -> PassResult:
    """Run one pass; an exception from the program becomes a failed pass."""
    try:
        return workload.run_pass(params, seed)
    except Exception:  # the benchmark must report, not crash, on a program fault
        return PassResult(None, 0, error=traceback.format_exc())
