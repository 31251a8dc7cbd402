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

# Importing thirdq loads no scipy, which is slow to import: the oracle and
# the Schur route of the Lyapunov solve import it inside their functions.
__all__ = sorted(name for name in globals() if not name.startswith("_"))
