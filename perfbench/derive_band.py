"""Derive the NMED acceptance band that the noisy_sweep check uses.

Runs `experiment --all --n 4 --shots 1000 --seed S` for seeds 1000..1023
and writes, per variant, the mean and standard deviation of the NMED
together with the band [mean - K*sd, mean + K*sd] (clipped at 0) to
perfbench/nmed_band.json.  The band is a statistical range, not a set of
exact values, so a change to how the simulator draws its random numbers
passes as long as the NMED distribution stays the same.

Usage, from the repository root:
    python3 perfbench/derive_band.py
"""
from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import NOISY_N, NOISY_SHOTS, noisy_argv, run_cli  # noqa: E402

#: Half-width of the band in standard deviations of the per-seed NMED.
K = 4.5
SEEDS = range(1000, 1024)


def main() -> int:
    samples: dict[str, list[float]] = {}
    for seed in SEEDS:
        code, out, _ = run_cli(noisy_argv({"n": NOISY_N, "shots": NOISY_SHOTS}, seed))
        if code != 0:
            print(f"experiment exited {code} for seed {seed}", file=sys.stderr)
            return 1
        for row in json.loads(out)["rows"]:
            samples.setdefault(row["variant"], []).append(float(Fraction(row["nmed"])))
        print(f"seed {seed}: " + " ".join(
            f"{v}={s[-1]:.5f}" for v, s in samples.items()), file=sys.stderr)
    band = {}
    for variant, floats in samples.items():
        mean, sd = statistics.fmean(floats), statistics.stdev(floats)
        band[variant] = {
            "mean": round(mean, 6),
            "sd": round(sd, 6),
            "min": round(min(floats), 6),
            "max": round(max(floats), 6),
            "lo": round(max(0.0, mean - K * sd), 6),
            "hi": round(mean + K * sd, 6),
        }
    payload = {
        "command": f"experiment --all --n {NOISY_N} --shots {NOISY_SHOTS} --seed S",
        "seeds": f"{SEEDS.start}..{SEEDS.stop - 1}",
        "k_sd": K,
        "variants": band,
    }
    (HERE / "nmed_band.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
