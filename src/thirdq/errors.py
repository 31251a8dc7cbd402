"""Exception hierarchy shared by all thirdq modules.

Every error carries an ``exit_code`` so the command line front end can map
failures onto its exit-code contract, which the "Exit codes" table of the
README states.
"""


class ThirdQError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(ThirdQError):
    exit_code = 2


class DimensionMismatch(InputError):
    pass


class HermiticityViolation(InputError):
    pass


class SymmetryViolation(InputError):
    pass


class SchemaError(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


class NonSymmetricInitial(InputError):
    pass


class NumericalError(ThirdQError):
    exit_code = 3


class DefectiveX(NumericalError):
    pass


class NotRealSimilar(NumericalError):
    pass


class IllConditioned(NumericalError):
    pass


class SymplecticityViolation(NumericalError):
    pass


class AsymmetricZ(NumericalError):
    pass


class DegenerateZeroEigenvalue(NumericalError):
    pass


class StabilityError(ThirdQError):
    exit_code = 4


class NotStable(StabilityError):
    pass


class ResonantSpectrum(StabilityError):
    pass


class CapError(ThirdQError):
    exit_code = 5


class CutoffTooLarge(CapError):
    pass


class DimensionCap(CapError):
    pass


class TruncationInsufficient(CapError):
    pass
