"""Minkowski inequality checker over extended nonnegative reals.

For vectors x, y >= 0 (entries may be +inf) and 0 < p < 1,

    (sum x_i^p)^(1/p) + (sum y_i^p)^(1/p) <= (sum (x_i + y_i)^p)^(1/p),

and the inequality reverses for p > 1.  Equality holds exactly when the
two vectors are positively linearly dependent (y = lambda * x for some
lambda >= 0, or x identically zero) or some entry is infinite.

This doubles as the sanity oracle behind the compression-case proof of
the outer-bound degeneracy: the key algebraic step is one application of
this inequality to a specific pair of two-entry vectors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidP, LengthMismatch, ZeroP

__all__ = ["MinkowskiCheck", "power_sum", "check_minkowski", "equality_condition"]

EQUALITY_REL_TOL = 1e-9
RATIO_REL_TOL = 1e-12
MIN_P_GAP = 1e-3


def _validated(entries: Sequence[float], what: str) -> tuple[float, ...]:
    vals = tuple(map(float, entries))
    if not vals:
        raise LengthMismatch(f"{what} must have at least one entry")
    for v in vals:
        if not v >= 0.0:  # negative or NaN
            raise LengthMismatch(f"{what} entries must be >= 0 or +inf, got {v}")
    return vals


def _logsumexp(logs: list[float]) -> float:
    m = max(logs)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum([math.exp(v - m) for v in logs]))


def power_sum(entries: Sequence[float], p: float) -> float:
    """(sum_i x_i^p)^(1/p) computed in the log domain for finite entries.

    For p > 0 any +inf entry dominates and the result is +inf; zeros
    simply drop out.  For p < 0 the roles flip: a zero entry forces the
    result to 0, infinite entries drop out.
    """
    x = _validated(entries, "power_sum input")
    if p == 0.0:
        raise ZeroP("power sum undefined at p = 0")
    return _power_sum(x, p)


def _power_sum(x: tuple[float, ...], p: float) -> float:
    """``power_sum`` on entries already validated, at p != 0."""
    if p > 0.0:
        if math.inf in x:
            return math.inf
        logs = [p * math.log(v) for v in x if v > 0.0]
        if not logs:
            return 0.0
    else:
        if 0.0 in x:
            return 0.0
        logs = [p * math.log(v) for v in x if v < math.inf]
        if not logs:
            return math.inf
    return math.exp(_logsumexp(logs) / p)


@dataclass(frozen=True)
class MinkowskiCheck:
    direction_holds: bool
    equality: bool
    lhs: float  # power_sum(x, p) + power_sum(y, p)
    rhs: float  # power_sum(x + y, p)


def check_minkowski(
    x: Sequence[float], y: Sequence[float], p: float
) -> MinkowskiCheck:
    """Check the inequality (and its reversal for p > 1) on one pair.

    p must be positive, away from 0, and at least MIN_P_GAP away from 1;
    at p = 1 both directions coincide and equality classification is
    numerically ill-posed.
    """
    xv = _validated(x, "x")
    yv = _validated(y, "y")
    if len(xv) != len(yv):
        raise LengthMismatch(f"length mismatch: {len(xv)} vs {len(yv)}")
    if not p > 0.0:
        raise InvalidP(f"p must be > 0, got {p}")
    if abs(p - 1.0) < MIN_P_GAP:
        raise InvalidP(f"p must satisfy |p - 1| >= {MIN_P_GAP}, got {p}")
    lhs = _power_sum(xv, p) + _power_sum(yv, p)
    rhs = _power_sum(tuple(map(operator.add, xv, yv)), p)
    if math.isinf(lhs) and math.isinf(rhs):
        return MinkowskiCheck(direction_holds=True, equality=True, lhs=lhs, rhs=rhs)
    tol = EQUALITY_REL_TOL * max(1.0, rhs if math.isfinite(rhs) else 1.0)
    if p < 1.0:
        direction = lhs <= rhs + tol
    else:
        direction = lhs >= rhs - tol
    equality = abs(lhs - rhs) <= tol
    return MinkowskiCheck(direction_holds=direction, equality=equality, lhs=lhs, rhs=rhs)


def equality_condition(x: Sequence[float], y: Sequence[float]) -> bool:
    """True iff equality must hold for every valid p.

    That is: y = lambda * x componentwise for some lambda >= 0, or x is
    all-zero, or either vector has an infinite entry.  Ratio consistency
    is judged to RATIO_REL_TOL on entries where x is nonzero; the zero
    pattern must match exactly.
    """
    xv = _validated(x, "x")
    yv = _validated(y, "y")
    if len(xv) != len(yv):
        raise LengthMismatch(f"length mismatch: {len(xv)} vs {len(yv)}")
    if any(math.isinf(v) for v in xv + yv):
        return True
    if all(v == 0.0 for v in xv):
        return True
    lam = None
    for a, b in zip(xv, yv):
        if a == 0.0:
            if b != 0.0:
                return False
            continue
        r = b / a
        if lam is None:
            lam = r
        elif abs(r - lam) > RATIO_REL_TOL * max(abs(lam), abs(r)):
            return False
    return True
