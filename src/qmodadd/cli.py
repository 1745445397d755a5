"""Command-line front end.

Subcommands: build, analyze, experiment, verify.  Machine-readable
output goes to stdout (csv or json, selectable); diagnostics go to
stderr.  Exit codes: 0 success, 1 I/O failure, 2 usage error,
3 ordering self-check failed, 4 verification mismatch.  `main(argv)`
returns the exit code and may be called repeatedly in one process; its
parser is built on first use and shared, so callers must not mutate it.
`verify` checks bit planes of Python ints; only `experiment` imports
numpy, so the other subcommands run where numpy cannot be imported.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import os
import sys

from . import __version__
from .builders import AdderVariant, BuiltAdder, build_qma, decode
from .circuits import analyze, compare
from .errors import QmodaddError
from .metrics import run_sweep
from .oracle import mod_add_plus_one
from .qasm import MAX_WIDTH, export_qasm, parse_qasm
from .sim import DEFAULT_NOISE, ENGINE, RNG_SCHEME, NoiseModel, run_exact

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_ORDERING = 3
EXIT_VERIFY = 4

SCHEMA_VERSION = 1

#: What each JSON payload records about the program that wrote it.
_META = {"version": __version__, "engine": ENGINE, "rng": RNG_SCHEME}

#: `--noise` key -> NoiseModel field; 'gate' sets the three gate keys.
_NOISE_KEYS = {"x": "p_x", "cnot": "p_cnot", "toffoli": "p_toffoli",
               "idle": "p_idle", "delta": "delta_reset"}

#: Inputs per `run_exact` call in `verify`; more lanes cost peak memory.
_VERIFY_LANES = 1024

#: Most work per adder, inputs x shots x gates, that `experiment` or
#: `verify` starts; a larger run exits 2 before it starts.  The inputs
#: are (2^n + 1)^2, or (2^(n+1))^2 under `--full-basis`.  The largest
#: documented runs are far below it: `experiment --all --n 4 --shots 1000`
#: is about 1.8e7 for QMA1 and `verify` at n = 7 about 1.7e6 for QMA1.
MAX_WORK = 10**10

#: Most rows per adder, one per input, that `experiment` holds and prints;
#: a larger run exits 2 before it starts.  It admits n <= 9, or n <= 8
#: under `--full-basis`.  Every adder's rows are held as integer arrays,
#: but only one adder's rows exist as Python lists while they are written,
#: so the bound is per adder and not per run.  `verify` checks its inputs
#: in chunks and has no such bound.
MAX_ROWS = 2**19


def _variant(token: str) -> AdderVariant:
    try:
        return AdderVariant(token.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown adder {token!r} (choose from qma1..qma4)"
        )


def _parse_noise(tokens: list[str] | None) -> NoiseModel:
    """Noise spec: key=value tokens over DEFAULT_NOISE, or the single
    token 'zero'.

    Keys: those of _NOISE_KEYS, and 'gate' as shorthand for x+cnot+toffoli
    together.  A specific key wins over 'gate' in any order; a key given
    twice is an error.
    """
    if tokens == ["zero"]:
        return NoiseModel()
    given: dict[str, float] = {}
    for token in tokens or ():
        if "=" not in token:
            raise QmodaddError(f"noise token {token!r} is not key=value")
        key, _, raw = token.partition("=")
        key = key.strip().lower()
        try:
            value = float(raw)
        except ValueError:
            raise QmodaddError(f"noise value {raw!r} is not a number")
        if key != "gate" and key not in _NOISE_KEYS:
            raise QmodaddError(f"unknown noise key {key!r}")
        if key in given:
            raise QmodaddError(f"noise key {key!r} given twice")
        given[key] = value
    if "gate" in given:
        gate = given.pop("gate")
        given = {"x": gate, "cnot": gate, "toffoli": gate, **given}
    return dataclasses.replace(
        DEFAULT_NOISE, **{_NOISE_KEYS[key]: value for key, value in given.items()}
    )


def _default_seed(args) -> int:
    """--seed, else env QMA_SEED, else 0; negative seeds are rejected."""
    if args.seed is not None:
        name, seed = "--seed", args.seed
    else:
        name, raw = "QMA_SEED", os.environ.get("QMA_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise QmodaddError(f"QMA_SEED={raw!r} is not an integer")
    if seed < 0:
        raise QmodaddError(f"{name}={seed} is negative (a seed must be >= 0)")
    return seed


def _check_width(n: int) -> None:
    """Usage error for an n whose widest adder, QMA1 with 3n + 5 wires,
    declares more qubits than `parse_qasm` reads back."""
    if 3 * n + 5 > MAX_WIDTH:
        raise QmodaddError(
            f"n={n} is too large: its widest adder has {3 * n + 5} wires, "
            f"over qasm.MAX_WIDTH={MAX_WIDTH}"
        )


def _check_work(n: int, shots: int, circuits, full_basis: bool = False,
                max_rows: int | None = None) -> None:
    """Usage error for an n over `_check_width`'s bound (checked first, so
    no arithmetic meets a huge n), a run over MAX_WORK, or over `max_rows`
    inputs per adder.  `circuits` is only drawn from when inputs x shots
    alone fits, so the adders built to count gates stay small."""
    _check_width(n)
    if n < 1:
        return  # build_qma rejects it
    if full_basis:  # every register pattern, as run_experiment runs them
        inputs, basis = (2 << n) ** 2, "(2^(n+1))^2"
    else:
        inputs, basis = ((1 << n) + 1) ** 2, "(2^n + 1)^2"
    if max_rows is not None and inputs > max_rows:
        raise QmodaddError(
            f"run too large: {inputs} rows per adder at n={n} is over MAX_ROWS={max_rows}"
        )
    lanes = inputs * shots
    if lanes > MAX_WORK or lanes * max(len(c.gates) for c in circuits) > MAX_WORK:
        raise QmodaddError(
            f"run too large: {basis} x shots x gates at n={n}, shots={shots} "
            f"is over MAX_WORK={MAX_WORK:.0e}"
        )


def _rows(per_input) -> list[list[int | None]]:
    """An `ErrorReport.per_input` array as output rows, with None for the
    -1 that marks an unscored ideal or ed."""
    return [[None if cell < 0 else cell for cell in row] for row in per_input.tolist()]


def _selected_variants(args) -> list[AdderVariant]:
    if getattr(args, "all", False):
        return list(AdderVariant)
    if not args.variants:
        raise QmodaddError("no adders selected (pass names or --all)")
    return args.variants


def cmd_build(args) -> int:
    _check_width(args.n)
    built = build_qma(args.variant, args.n)
    text = export_qasm(built)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise OSError(f"cannot write {args.output}: {err}")
    else:
        sys.stdout.write(text)
    report = analyze(built.circuit)  # kept on the circuit: walked once
    print(
        f"{built.variant.value}: width={report.width} cnot={report.cnot_count} "
        f"toffoli={report.toffoli_count} resets={report.reset_count}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    variants = _selected_variants(args)
    _check_width(args.n)
    reports = [analyze(build_qma(v, args.n).circuit) for v in variants]
    deltas = compare(reports)
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "meta": _META,
            "n": args.n,
            "reports": [r.as_dict() for r in reports],
            "reduction_pct_vs_first": [
                {k: (None if v is None else str(v)) for k, v in row.items()}
                for row in deltas
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        header = [
            "variant", "n", "qubits", "resets", "cnot_depth",
            "toffoli_depth", "cnot_count", "toffoli_count", "fom",
        ]
        table = [
            [
                report.label, args.n, report.width, report.reset_count,
                report.cnot_depth, report.toffoli_depth,
                report.cnot_count, report.toffoli_count, report.fom,
            ]
            for report in reports
        ]
        if args.format == "csv":
            writer = csv.writer(sys.stdout)
            writer.writerow(header)
            writer.writerows(table)
        else:
            widths = [
                max(len(str(cell)) for cell in column)
                for column in zip(header, *table)
            ]
            for row in [header] + table:
                print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
            print()
            print("reduction % vs first row:")
            for row in deltas:
                cells = "  ".join(
                    f"{name}={row[name]}"
                    for name in ("cnot_count", "toffoli_count", "cnot_depth",
                                 "toffoli_depth", "fom")
                )
                print(f"  {row['label']}: {cells}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    variants = _selected_variants(args)
    noise = _parse_noise(args.noise)
    seed = _default_seed(args)
    _check_work(args.n, args.shots, (build_qma(v, args.n).circuit for v in variants),
                full_basis=args.full_basis, max_rows=MAX_ROWS)
    rows = run_sweep(
        variants,
        args.n,
        noise,
        args.shots,
        seed,
        reset_model=args.reset_model,
        ideal_convention=args.ideal_convention,
        full_basis=args.full_basis,
        score_sum=args.score_sum,
    )
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["variant", "a", "b", "ideal", "observed", "ed"])
        for row in rows:  # csv writes None as ""
            variant = row.error.variant.value
            writer.writerows([variant, *cells] for cells in _rows(row.error.per_input))
    else:
        payload = {
            "schema": SCHEMA_VERSION,
            "meta": _META,
            "n": args.n,
            "shots": args.shots,
            "seed": seed,
            "reset_model": args.reset_model,
            "noise": dataclasses.asdict(noise),
            "rows": [
                {
                    **row.error.as_dict(),
                    "resources": row.resources.as_dict(),
                    "nmed_drop_pct_vs_first": (
                        None if row.nmed_drop_pct is None else str(row.nmed_drop_pct)
                    ),
                }
                for row in rows
            ],
        }
        # Each `per_input` array becomes rows only as it is written.
        json.dump(payload, sys.stdout, indent=2, sort_keys=True, default=_rows)
        sys.stdout.write("\n")
    if args.check_ordering:
        nmeds = [row.error.nmed for row in rows]
        if any(late >= early for early, late in zip(nmeds, nmeds[1:])):
            print(
                "ordering check failed: "
                + " ".join(f"{row.error.variant.value}={float(row.error.nmed):.6f}"
                           for row in rows),
                file=sys.stderr,
            )
            return EXIT_ORDERING
    return EXIT_OK


def cmd_verify(args) -> int:
    """Check each adder, read from `--qasm` or built for each n of `--n`,
    on every input; `_check_work` first bounds the file's n or the top n.
    Stops at the first failing adder with exit 4."""
    if args.qasm:
        built = _load_qasm(args.qasm)
        _check_work(built.n, 1, [built.circuit])
        adders = [(args.qasm, built)]
    elif args.n_range:
        lo, hi = args.n_range
        variants = _selected_variants(args)
        _check_work(hi, 1, (build_qma(v, hi).circuit for v in variants))
        adders = ((f"{v.value} n={n}", build_qma(v, n))
                  for n in range(lo, hi + 1) for v in variants)
    else:
        raise QmodaddError("verify needs --n LO..HI or --qasm FILE")
    for label, built in adders:
        failure = _check_adder(built)
        if failure:
            a, b, want, got = failure
            print(f"FAIL {label} a={a} b={b}: expected {want}, got {got}")
            return EXIT_VERIFY
        print(f"ok {label} ({(2**built.n + 1) ** 2} inputs)")
    return EXIT_OK


def _check_adder(built) -> tuple | None:
    """First failing (a, b, want, got) in a-major order, or None.  Each
    chunk of `_lane_chunks` runs as one bit plane per wire and is checked
    plane by plane; only its first failing lane is read back as ints, mod
    before sum."""
    layout = built.layout
    for start, stop, a_planes, b_planes, mods, sums in _lane_chunks(layout.n, _VERIFY_LANES):
        bits = [0] * built.circuit.width
        for wires, planes in ((layout.a_wires, a_planes), (layout.b_wires, b_planes)):
            for wire, plane in zip(wires, planes):
                bits[wire] = plane
        out = run_exact(built.circuit, bits, one=-1)
        failed = 0
        for wires, planes in ((layout.mod_wires, mods), (layout.sum_wires, sums)):
            # A plane past the wires must be 0, a wire past the planes too.
            for wire, plane in itertools.zip_longest(wires, planes):
                failed |= (0 if wire is None else out[wire]) ^ (plane or 0)
        failed &= (1 << (stop - start)) - 1
        if failed:
            lane = (failed & -failed).bit_length() - 1
            a, b = divmod(start + lane, (1 << layout.n) + 1)
            lane_bits = [(plane >> lane) & 1 for plane in out]
            got = decode(lane_bits, layout.mod_wires)
            if got != (want := mod_add_plus_one(layout.n, a, b)):
                return a, b, want, got
            return a, b, a + b, decode(lane_bits, layout.sum_wires)
    return None


def _lane_chunks(n: int, lanes: int):
    """The pairs of [0, 2^n]^2 in a-major order, `lanes` at a time, as bit
    planes: yields (start, stop, a, b, mod, sum), where bit L - start of
    each plane is lane L, the pair (a, b) = divmod(L, 2^n + 1), and mod
    and sum are the planes of (a + b + 1) mod (2^n + 1) and a + b, least
    significant first.  Bits past stop - start may be anything."""
    side = (1 << n) + 1
    pairs = side * side
    row = (1 << side) - 1
    # Bit b of b_row[i] is bit i of b: one row of each b plane.
    b_row = [sum(((b >> i) & 1) << b for b in range(side)) for i in range(n + 1)]
    # The n + 2 low bits of -(2^n + 1), as constant planes.
    minus_side = [-((-side >> i) & 1) for i in range(n + 2)]
    for start in range(0, pairs, lanes):
        stop = min(start + lanes, pairs)
        rows = range(start // side, (stop - 1) // side + 1)
        skip = start - rows[0] * side
        # One set bit where each row of the chunk starts, counted from rows[0].
        heads = sum(1 << (a - rows[0]) * side for a in rows)
        a_planes = [
            row * sum(1 << (a - rows[0]) * side for a in rows if (a >> i) & 1) >> skip
            for i in range(n + 1)
        ]
        b_planes = [pattern * heads >> skip for pattern in b_row]
        plus_one = _ripple(a_planes, b_planes, -1)
        *less, wraps = _ripple(plus_one, minus_side, 0)  # wraps: a + b + 1 >= 2^n + 1
        mods = [t ^ ((t ^ d) & wraps) for t, d in zip(plus_one, less)]
        yield start, stop, a_planes, b_planes, mods, _ripple(a_planes, b_planes, 0)


def _ripple(xs: list[int], ys: list[int], carry: int) -> list[int]:
    """Bit planes of xs + ys + carry, lane by lane, least significant
    first and one plane longer than xs: the last is the carry out."""
    out = []
    for x, y in zip(xs, ys):
        out.append(x ^ y ^ carry)
        carry = (x & y) | (carry & (x ^ y))
    return out + [carry]


def _load_qasm(path: str) -> BuiltAdder:
    try:
        # Skip one byte-order mark (utf-8-sig would miscount error bytes).
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read().removeprefix("\ufeff")
    except OSError as err:
        raise OSError(f"cannot read {path}: {err}")
    except UnicodeDecodeError as err:
        raise QmodaddError(f"{path} is not UTF-8 text (byte {err.start})")
    circuit, layout = parse_qasm(text)
    if layout is None:
        raise QmodaddError("file has no usable layout metadata")
    return BuiltAdder(circuit, layout, AdderVariant(circuit.label))


def _range_pair(token: str) -> tuple[int, int]:
    if ".." in token:
        lo, _, hi = token.partition("..")
    else:
        lo = hi = token
    try:
        pair = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {token!r} (want LO..HI)")
    if pair[0] < 1 or pair[1] < pair[0]:
        raise argparse.ArgumentTypeError(f"bad range {token!r}")
    return pair


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared: do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="qmodadd",
        description="Build, analyze, simulate, and verify modulo (2^n + 1) adders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit one adder as OpenQASM 3")
    p_build.add_argument("variant", type=_variant)
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("-o", "--output", help="target .qasm path (default stdout)")
    p_build.set_defaults(func=cmd_build)

    p_analyze = sub.add_parser("analyze", help="resource report incl. reductions")
    p_analyze.add_argument("variants", nargs="*", type=_variant)
    p_analyze.add_argument("--all", action="store_true")
    p_analyze.add_argument("--n", type=int, required=True)
    p_analyze.add_argument(
        "--format", choices=("csv", "json", "table"), default="csv"
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_exp = sub.add_parser("experiment", help="noisy sweep over all valid inputs")
    p_exp.add_argument("variants", nargs="*", type=_variant)
    p_exp.add_argument("--all", action="store_true")
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--shots", type=int, default=1000)
    p_exp.add_argument("--seed", type=int, default=None,
                       help="default: env QMA_SEED, else 0")
    p_exp.add_argument("--noise", nargs="*", default=None, metavar="KEY=VALUE",
                       help="noise overrides, or the single word 'zero'")
    p_exp.add_argument("--format", choices=("json", "csv"), default="json")
    p_exp.add_argument("--reset-model", choices=("purify", "independent"),
                       default="purify")
    p_exp.add_argument("--ideal-convention", choices=("plus-one", "pre-decrement"),
                       default="plus-one")
    p_exp.add_argument("--full-basis", action="store_true")
    p_exp.add_argument("--score-sum", action="store_true")
    p_exp.add_argument("--check-ordering", action="store_true",
                       help="exit 3 unless NMED strictly decreases across variants")
    p_exp.set_defaults(func=cmd_experiment)

    p_verify = sub.add_parser("verify", help="exhaustive oracle check")
    p_verify.add_argument("variants", nargs="*", type=_variant)
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--n", dest="n_range", type=_range_pair, metavar="LO..HI")
    p_verify.add_argument("--qasm", default=None,
                          help="verify a circuit from a .qasm file instead; "
                               "any --n is then ignored")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except QmodaddError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
