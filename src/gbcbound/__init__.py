"""Outer bounds on the distortion region for Gaussian broadcast of a Gaussian source.

The library evaluates the schedule-indexed family of outer-bound
inequalities, decides region membership by maximizing over schedules,
traces region boundaries, cross-validates membership against capacity
region containment of the induced virtual broadcast channel, checks the
Minkowski inequality machinery the analysis rests on, and verifies by
Monte Carlo that uncoded transmission achieves the per-receiver optima
at matched bandwidth.

Import what you use from its module (``gbcbound.membership``,
``gbcbound.bound``, ...): the package root holds only the version, so
``import gbcbound`` stays cheap.
"""

__version__ = "0.1.0"
