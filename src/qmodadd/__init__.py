"""Modulo (2**n + 1) adder construction, analysis, and simulation toolkit.

Only the noisy engine needs numpy, so importing the package does not load
it: unless numpy is already imported, `sys.modules["numpy"]` starts as a
lazy module, and numpy's own code runs on the first lookup of a name the
module lacks, such as `np.arange`, or on the import of a submodule.
"""

import sys
import types
from importlib.util import find_spec, module_from_spec


class _LazyModule(types.ModuleType):
    """A package that runs its code on the first lookup of a name it lacks,
    `__path__` included, so importing one of its submodules loads it first.

    importlib.util.LazyLoader's modules load on any lookup, and `import
    numpy` itself reads `__spec__`; this one answers that from the
    attributes it already has."""

    def __getattr__(self, name):
        self.__class__ = types.ModuleType
        self.__path__ = self.__spec__.submodule_search_locations
        self.__spec__.loader.exec_module(self)
        return getattr(self, name)


if "numpy" not in sys.modules and (_spec := find_spec("numpy")) is not None:
    sys.modules["numpy"] = _numpy = module_from_spec(_spec)
    del _numpy.__path__
    _numpy.__class__ = _LazyModule

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
