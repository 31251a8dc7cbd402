"""thirdq: spectra, steady states and dynamics of quadratic bosonic
open systems with linear bath couplings, cross-validated against a
brute-force truncated-Fock solver."""

__version__ = "0.1.0"

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
    LindbladChannel,
    bath_matrices,
    validate_model,
)
from .structure import StructureMatrices, build_structure, realify
from .spectral import (
    DecaySpectrum,
    RapiditySpectrum,
    Stability,
    SymplecticV,
    build_V,
    classify_stability,
    liouville_spectrum,
    rapidities,
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
    MomentTrajectory,
    NessSolution,
    mean_source,
    moment_trajectory,
    physical_correlators,
    steady_mean,
    wick_moment,
)
from .oracle import (
    FockOperators,
    Liouvillean,
    OracleSteadyState,
    OracleTrajectory,
    build_fock_operators,
    build_liouvillean_matrix,
    oracle_evolve,
    oracle_spectrum,
    oracle_steady_state,
    vacuum_state,
)
from .verify import default_cutoff, run_verification

__all__ = [name for name in dir() if not name.startswith("_")]
