"""qmodadd benchmark: one workload, measured end to end or traced per layer.

Run from the root of a source checkout (nothing needs to be installed or
built; the benchmark imports the package from src/):

    python3 perfbench/run.py --workload noisy_sweep --seed 1 --seconds 60 --trace 0

The workloads are defined in perfbench/workloads.py and explained in
perfbench/README.md.  Each run

1. times SETUP_RUNS fresh processes that import qmodadd.cli and run the
   workload's tiny warm-up pass, one after another (setup_s is their
   median);
2. starts one fresh worker process (perfbench/worker.py) pinned to one
   thread, which warms up and then repeats the workload's pass for
   --seconds, checking every output (norm_pass_s is the median pass);
   both times are scaled to a reference host speed that perfbench/speed.py
   samples while they run, because the host's own speed drifts;
3. prints the figures by name with their units, then, as the last line,
   one JSON object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.

It writes the full record of the run, including the git revision, the
Python and numpy versions, the platform and nproc, to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 9
#: A worker gets this long beyond --seconds before it is stopped.
WORKER_GRACE_S = 100

END_TO_END = {
    "setup_s": "s",
    "norm_pass_s": "s",
    "peak_rss_mb": "MiB",
}

#: Libraries that could start their own thread pools read these.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(args: list[str], timeout: float) -> dict:
    """Run perfbench/worker.py in a fresh process and return its JSON result."""
    env = {**os.environ, **SINGLE_THREAD}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def source_revision() -> dict:
    """Git revision if this is a git checkout, and a hash of the package source.

    git is only asked when the checkout itself holds .git, so that it
    never reports the revision of some repository around the checkout.
    """
    rev = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            rev = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmodadd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setup = [
        _worker([*common, "--setup-probe"], timeout=60)["setup_s"]
        for _ in range(SETUP_RUNS)
    ]
    report = _worker(
        [*common, "--seconds", str(seconds), "--trace", str(int(trace))],
        timeout=seconds + WORKER_GRACE_S,
    )
    report["setup_s"] = setup
    report["env"].update(source_revision())
    return report


def end_to_end(report: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(report["setup_s"]),
        "norm_pass_s": statistics.median(report["norm_pass_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def describe(report: dict, trace: bool) -> list[str]:
    """Human-readable lines: every figure by name and unit, and what went wrong."""
    env = report["env"]
    walls = report["wall_s"]
    lines = [
        f"# {report['workload']} ({report['size']}) seed={report['seed']} "
        f"rev={env['git_rev'] or 'none'} src={env['src_sha256']} python={env['python']} "
        f"numpy={env['numpy']} platform={env['platform']} nproc={env['nproc']}",
        f"norm_pass_s = {statistics.median(report['norm_pass_s']):.4f} s  (median of "
        f"{len(walls)} passes, each scaled to the reference host speed)",
        f"wall_s = {statistics.median(walls):.4f} s  (as measured: median of {len(walls)} "
        f"passes, min {min(walls):.4f}, max {max(walls):.4f})",
        f"setup_s = {statistics.median(report['setup_s']):.4f} s  "
        f"(median of {len(report['setup_s'])} fresh processes, scaled the same way)",
    ]
    lines += [f"{key}_per_s = {value:.2f} 1/s" for key, value in sorted(report["per_s"].items())]
    lines.append(f"peak_rss_mb = {report['peak_rss_mb']:.2f} MiB")
    ratio = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    lines.append(f"fail_ratio = {ratio:.6f}  ({report['failed']} of {report['attempted']} "
                 "operations failed the output check)")
    lines += [f"check failed: {note}" for note in report["notes"]]
    if trace:
        traced = statistics.median(report["traced_wall_s"])
        lines.append(f"trace overhead = {traced - statistics.median(walls):.4f} s per pass "
                     f"(traced wall_s {traced:.4f} s, {len(report['traced_wall_s'])} passes)")
        lines.append("split of the last traced pass (span: calls, self time):")
        for name, row in sorted(report["split"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name}: {row['calls']} calls, {row['self_s']:.4f} s")
        for name, value in report["layers"].items():
            lines.append(f"{name} = {value:.6g} {PER_LAYER[name][0]}")
        lines += [f"trace: layer {name} got zero calls" for name in report["zero_call_layers"]]
        lines += [f"trace: {warning}" for warning in report["warnings"]]
        lines.append(f"spans written to {report['spans_file']}")
    return lines


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name][0]}
            for name, value in report["layers"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in end_to_end(report).items()
        }
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmodadd" / "cli.py").is_file():
        print(f"error: no qmodadd source under {ROOT / 'src'}; "
              "run from the root of a qmodadd checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        report = run(args.workload, args.seed, args.seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(describe(report, trace)))
    print(json.dumps(result_line(report, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
