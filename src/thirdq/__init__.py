"""thirdq: spectra, steady states and dynamics of quadratic bosonic
open systems with linear bath couplings, cross-validated against a
brute-force truncated-Fock solver."""

__version__ = "0.1.0"

import importlib.util as _importlib_util
import sys as _sys

from .errors import (
    AsymmetricZ,
    CapError,
    CutoffTooLarge,
    DefectiveX,
    DegenerateZeroEigenvalue,
    DimensionCap,
    DimensionMismatch,
    HermiticityViolation,
    IllConditioned,
    IndexOutOfRange,
    InputError,
    NonSymmetricInitial,
    NotRealSimilar,
    NotStable,
    NumericalError,
    ResonantSpectrum,
    SchemaError,
    StabilityError,
    SymmetryViolation,
    SymplecticityViolation,
    ThirdQError,
    TruncationInsufficient,
)
from .model import (
    BathMatrices,
    BosonicModel,
    bath_matrices,
    validate_model,
)
from .structure import StructureMatrices, build_structure, realify
from .spectral import (
    DecaySpectrum,
    RapiditySpectrum,
    Stability,
    build_V,
    classify_stability,
    liouville_spectrum,
    rapidities,
    require_diagonalizable,
    spectral_gap,
)
from .lyapunov import (
    LyapunovSolution,
    Method,
    residual_norm,
    solve,
    solve_eigenbasis,
    solve_schur,
)
from .ness import (
    NessSolution,
    mean_source,
    moment_steps,
    physical_correlators,
    require_state_moments,
    steady_mean,
    wick_moment,
)

# The oracle (which loads scipy.sparse) and verify are registered as lazy
# modules: they sit in sys.modules, where bench/tracing.py finds every
# thirdq module, but run only when first used, which only ``verify`` does.
_LAZY = {
    "oracle": (
        "FockOperators",
        "Liouvillean",
        "OracleSteadyState",
        "OracleTrajectory",
        "build_fock_operators",
        "build_liouvillean_matrix",
        "oracle_evolve",
        "oracle_spectrum",
        "oracle_steady_state",
        "vacuum_state",
    ),
    "verify": ("default_cutoff", "run_verification"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def _register_lazy(short: str):
    spec = _importlib_util.find_spec(f"{__name__}.{short}")
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


oracle = _register_lazy("oracle")
verify = _register_lazy("verify")


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAZY_NAMES[name]], name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))


__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY_NAMES))
