"""Exception hierarchy for the gbcbound library.

The branch that matters to callers is ``InputError``: the caller handed
us something invalid (bad scenario, malformed schedule, out-of-range
index ...).  The CLI maps these to exit code 2.
"""


class GbcBoundError(Exception):
    """Base class for all gbcbound errors."""


class InputError(GbcBoundError, ValueError):
    """Invalid input; CLI exit code 2."""


class NonPositiveParameter(InputError):
    """Power, bandwidth, source variance, or a noise variance is <= 0."""


class NonDecreasingNoises(InputError):
    """Noise variances are not strictly decreasing."""


class IndexOutOfRange(InputError):
    """Receiver index outside 1..K."""


class InvalidDistortion(InputError):
    """Distortion tuple violates 0 < D_k <= source variance (or wrong length)."""


class InvalidTauSchedule(InputError):
    """Schedule entries are negative, NaN, or the last entry is not 0."""


class NonMonotoneTau(InvalidTauSchedule):
    """Schedule entries increase somewhere (must be nonincreasing)."""


class ZeroP(InputError):
    """Power sum requested with exponent p = 0."""


class InvalidP(InputError):
    """Minkowski check requested with p <= 0 or p too close to 1."""


class LengthMismatch(InputError):
    """Vectors of different lengths (or empty) where equal length is required."""


class InvalidSplit(InputError):
    """Power split is not a nonnegative vector summing to 1."""


class DimensionMismatch(InputError):
    """Scenarios with different receiver counts in a containment check."""


class InvalidCapacities(InputError):
    """Capacity pair does not satisfy 0 < C_1 < C_2."""


class DistortionAtSourceVariance(InputError):
    """Virtual channel requested for D_k = N_S (infinite virtual noise)."""


class NonStrictOrdering(InputError):
    """Virtual channel requires strictly decreasing distortions."""


class BandwidthNotOne(InputError):
    """Analog simulation is defined only for bandwidth factor b = 1."""


class InfeasibleEverywhere(GbcBoundError):
    """Boundary trace found no feasible distortion in the search range."""
