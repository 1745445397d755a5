"""Run one benchmark workload in this (fresh, single-threaded) process.

Started by perfbench/run.py, never more than one at a time.  Prints one
JSON object on stdout: the pass times, as measured and scaled to the
reference host speed (see speed.py), the check tallies, the peak
resident memory and, for a traced run, the per-layer metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-probe

With --setup-probe it instead times the import of qmodadd.cli plus the
workload's tiny warm-up pass, and prints that time scaled to the
reference host speed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, layer_metrics, zero_call_layers  # noqa: E402
from workloads import WORKLOADS, Check, guarded_pass  # noqa: E402

#: Fewest timed passes of each kind, whatever --seconds says; two are
#: needed to compare the bytes of two passes with the same seed.
MIN_PASSES = 2
OUT_DIR = HERE / "out"


def setup_probe(workload, seed: int) -> float:
    with SpeedProbe() as probe:
        start = perf_counter()
        import qmodadd.cli  # noqa: F401

        guarded_pass(workload, workload.sizes["tiny"], seed)
        elapsed = perf_counter() - start
    return probe.scaled(elapsed)


def measure(workload, size: str, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, then run timed passes until `seconds` have gone by.

    With `trace`, untraced and traced passes alternate; the end-to-end
    figures come from the untraced ones only.  Only untraced passes run
    under the speed probe, so that it adds nothing to a layer's self time.
    """
    check = Check()
    tiny = workload.sizes["tiny"]
    workload.check(tiny, guarded_pass(workload, tiny, seed), check, {})

    params = workload.sizes[size]
    counts = workload.counts(params)
    context: dict = {}
    walls: dict[bool, list[float]] = {False: [], True: []}
    scaled: list[float] = []
    per_s: dict[str, list[float]] = {}
    layers: list[dict] = []
    zero_calls: set[str] = set()
    warnings: set[str] = set()
    tracer = None
    kinds = (False, True) if trace else (False,)
    start = perf_counter()
    while True:
        for traced in kinds:
            gc.collect()
            tracer = Tracer() if traced else tracer
            probe = SpeedProbe()
            with tracer.installed() if traced else probe:
                began = perf_counter()
                result = guarded_pass(workload, params, seed)
                wall = perf_counter() - began
            walls[traced].append(wall)
            workload.check(params, result, check, context)
            if traced:
                summary = tracer.summary()
                layers.append(layer_metrics(summary, result.output_bytes))
                zero_calls.update(zero_call_layers(summary, workload.exercised))
                warnings.update(tracer.warnings)
                summary = None
            else:
                scaled.append(probe.scaled(wall))
                parts = result.part_s or {}
                for key, count in counts.items():
                    per_s.setdefault(key, []).append(count / parts.get(key, wall))
            # Drop this pass's outputs before the next pass starts, so that
            # peak_rss_mb holds one pass, not two.
            result = None
        elapsed = perf_counter() - start
        round_s = sum(statistics.median(w) for w in walls.values() if w)
        if len(walls[False]) >= MIN_PASSES and elapsed + round_s > seconds:
            break

    report = {
        "workload": workload.name,
        "size": size,
        "seed": seed,
        "wall_s": walls[False],
        "norm_pass_s": scaled,
        "per_s": {key: statistics.median(values) for key, values in per_s.items()},
        "attempted": check.attempted,
        "failed": check.failed,
        "notes": check.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if trace:
        report["traced_wall_s"] = walls[True]
        report["layers"] = {
            name: statistics.median(row[name] for row in layers) for name in layers[0]
        }
        report["split"] = tracer.summary()
        report["zero_call_layers"] = sorted(zero_calls)
        report["warnings"] = sorted(warnings)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload.name}-{size}-seed{seed}.tsv.gz"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(HERE.parent))
    return report


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(workload, args.seed)}))
    else:
        print(json.dumps(measure(workload, "full", args.seed, args.seconds,
                                 bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
