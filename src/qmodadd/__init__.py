"""Modulo (2**n + 1) adder construction, analysis, and simulation toolkit."""

from .builders import (
    AdderVariant,
    BuiltAdder,
    RegisterLayout,
    build_full_adder,
    build_half_adder_increment,
    build_nor_gadget,
    build_qma,
    decode,
)
from .circuits import (
    Circuit,
    Gate,
    GateKind,
    ResourceReport,
    analyze,
    cnot,
    compare,
    compute_layering,
    depth_by_kind,
    reset,
    toffoli,
    total_depth,
    x,
)
from .metrics import ErrorReport, aggregate, error_distance, run_experiment, run_sweep
from .oracle import mod_add, mod_add_plus_one
from .qasm import export_circuit, export_qasm, parse_qasm
from .sim import (
    DEFAULT_NOISE,
    NoiseModel,
    effective_reset_error,
    noisy_modes,
    run_exact,
    run_noisy,
)

__version__ = "0.3.0"

__all__ = [
    "AdderVariant",
    "BuiltAdder",
    "Circuit",
    "DEFAULT_NOISE",
    "ErrorReport",
    "Gate",
    "GateKind",
    "NoiseModel",
    "RegisterLayout",
    "ResourceReport",
    "aggregate",
    "analyze",
    "build_full_adder",
    "build_half_adder_increment",
    "build_nor_gadget",
    "build_qma",
    "cnot",
    "compare",
    "compute_layering",
    "decode",
    "depth_by_kind",
    "effective_reset_error",
    "error_distance",
    "export_circuit",
    "export_qasm",
    "mod_add",
    "mod_add_plus_one",
    "noisy_modes",
    "parse_qasm",
    "reset",
    "run_exact",
    "run_experiment",
    "run_noisy",
    "run_sweep",
    "toffoli",
    "total_depth",
    "x",
]
