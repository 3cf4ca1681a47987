"""Gaussian broadcast capacity regions, containment, and the virtual channel.

The degraded K-user Gaussian broadcast channel with power P and noises
N_1 > ... > N_K has the superposition-coding region.  With a power split
alpha (alpha_k >= 0, sum 1) and cumulative residual power
beta_k = sum_{j>k} alpha_j * P (beta_0 = P), the dominant face is

    R_k = (b/2) * log2((beta_{k-1} + N_k) / (beta_k + N_k)),

where b scales rates from per-channel-use to per-source-sample.  Rates
are in bits (log base 2 throughout; the base cancels in every
containment verdict).

A source with variance N_S reconstructed at distortions D_1 > ... > D_K
induces a *virtual* broadcast channel with power N_S and noises
N_S * D_k / (N_S - D_k); the distortion tuple can be achievable only if
the virtual region fits inside the physical one scaled by the bandwidth
factor.  That containment is checked here by dense sampling of the
dominant face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import BroadcastScenario, DistortionTuple, check_channel, validate_scenario
from .errors import (
    DimensionMismatch,
    DistortionAtSourceVariance,
    InvalidCapacities,
    InvalidSplit,
    NonPositiveParameter,
    NonStrictOrdering,
)

__all__ = [
    "GaussianBC",
    "RatePoint",
    "ContainmentResult",
    "boundary_rates",
    "rate_membership",
    "virtual_channel",
    "containment",
    "scenario_from_capacities",
    "split_grid",
    "point_to_point_capacity",
]

RATE_TOL_BITS = 1e-7
BETA_REL_TOL = 1e-9
SPLIT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class GaussianBC:
    """Degraded Gaussian broadcast channel: power and strictly decreasing noises."""

    power: float
    noises: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "noises", tuple(float(n) for n in self.noises))
        check_channel(self.power, self.noises)

    @property
    def num_receivers(self) -> int:
        return len(self.noises)


@dataclass(frozen=True)
class RatePoint:
    """Per-receiver rates in bits per source sample, all nonnegative."""

    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "rates", vals)
        for r in vals:
            if math.isnan(r) or r < 0.0:
                raise InvalidSplit(f"rates must be >= 0, got {r}")

    def __len__(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class ContainmentResult:
    contained: bool
    witness: RatePoint | None = None
    witness_split: tuple[float, ...] | None = None
    samples_checked: int = 0


def point_to_point_capacity(ch: GaussianBC, k: int, bandwidth: float) -> float:
    """Single-user capacity (b/2) * log2(1 + P / N_k), 1-based k."""
    nk = ch.noises[k - 1]
    return 0.5 * bandwidth * math.log2(1.0 + ch.power / nk)


def _validated_split(ch: GaussianBC, split: Sequence[float]) -> tuple[float, ...]:
    vals = tuple(float(a) for a in split)
    if len(vals) != ch.num_receivers:
        raise InvalidSplit(f"split length {len(vals)} != {ch.num_receivers} receivers")
    for a in vals:
        if math.isnan(a) or a < 0.0:
            raise InvalidSplit(f"split shares must be >= 0, got {a}")
    total = math.fsum(vals)
    if abs(total - 1.0) > SPLIT_SUM_TOL:
        raise InvalidSplit(f"split must sum to 1, got {total}")
    return vals


def boundary_rates(ch: GaussianBC, split: Sequence[float], bandwidth: float) -> RatePoint:
    """Dominant-face rate point for one power split."""
    if not bandwidth > 0.0:
        raise NonPositiveParameter(f"bandwidth must be > 0, got {bandwidth}")
    alphas = _validated_split(ch, split)
    beta = ch.power  # residual power before layer k
    rates = []
    for k in range(ch.num_receivers):
        beta_next = ch.power * math.fsum(alphas[k + 1 :]) if k + 1 < len(alphas) else 0.0
        nk = ch.noises[k]
        rates.append(0.5 * bandwidth * math.log2((beta + nk) / (beta_next + nk)))
        beta = beta_next
    return RatePoint(tuple(rates))


def rate_membership(
    ch: GaussianBC, point: RatePoint, bandwidth: float, beta_tol: float = BETA_REL_TOL
) -> bool:
    """Is a rate point inside the (b-scaled) capacity region?

    Greedy layer-by-layer inversion of the superposition boundary:
    beta_k = (beta_{k-1} + N_k) * 2^(-2 R_k / b) - N_k is the residual
    power after serving receiver k with the least possible consumption,
    which is exact for degraded regions.  Membership iff every residual
    stays >= -beta_tol * P.
    """
    if not bandwidth > 0.0:
        raise NonPositiveParameter(f"bandwidth must be > 0, got {bandwidth}")
    if len(point) != ch.num_receivers:
        raise DimensionMismatch(
            f"rate point has {len(point)} entries for {ch.num_receivers} receivers"
        )
    floor = -beta_tol * ch.power
    beta = ch.power
    for k in range(ch.num_receivers):
        nk = ch.noises[k]
        beta = (beta + nk) * 2.0 ** (-2.0 * point.rates[k] / bandwidth) - nk
        if beta < floor:
            return False
    return True


def virtual_channel(source_var: float, distortions: Sequence[float]) -> GaussianBC:
    """Broadcast channel induced by a source and its reconstructions.

    Power N_S, noises N_S * D_k / (N_S - D_k).  Requires strictly
    decreasing distortions in (0, N_S): D_k = N_S would mean an
    infinite virtual noise and is rejected explicitly.
    """
    if not source_var > 0.0:
        raise NonPositiveParameter(f"source variance must be > 0, got {source_var}")
    d = DistortionTuple.of(distortions)
    for v in d.values:
        if v >= source_var:
            raise DistortionAtSourceVariance(
                f"distortion {v} must be strictly below source variance {source_var}"
            )
    for a, b in zip(d.values, d.values[1:]):
        if not a > b:
            raise NonStrictOrdering(
                f"virtual channel needs strictly decreasing distortions, got {a} before {b}"
            )
    noises = tuple(source_var * v / (source_var - v) for v in d.values)
    return GaussianBC(power=source_var, noises=noises)


def split_grid(num_receivers: int, samples: int) -> list[tuple[float, ...]]:
    """Power-split sample grid covering the dominant face.

    K = 1 has a single point; K = 2 uses a uniform line; K >= 3 uses the
    lattice of integer compositions (a Dirichlet-style simplex grid)
    sized to at least ``samples`` points.
    """
    if samples < 1:
        raise InvalidSplit(f"need at least one sample, got {samples}")
    if num_receivers == 1:
        return [(1.0,)]
    if num_receivers == 2:
        if samples == 1:
            return [(0.5, 0.5)]
        step = 1.0 / (samples - 1)
        return [(1.0 - i * step, i * step) for i in range(samples)]
    n = num_receivers - 1
    while math.comb(n + num_receivers - 1, num_receivers - 1) < samples:
        n += 1
    grid = []
    for cuts in combinations(range(n + num_receivers - 1), num_receivers - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(n + num_receivers - 2 - prev)
        grid.append(tuple(p / n for p in parts))
    return grid


def containment(
    inner: GaussianBC,
    outer: GaussianBC,
    bandwidth_inner: float,
    bandwidth_outer: float,
    samples: int = 512,
    rate_tol: float = RATE_TOL_BITS,
) -> ContainmentResult:
    """Is the inner region (sampled on its dominant face) inside the outer one?

    Each sampled boundary point is shrunk by ``rate_tol`` bits per
    receiver before the membership probe, so verdicts are robust to
    round-off at the stated tolerance.  Returns the first violating
    boundary point as a witness.
    """
    if inner.num_receivers != outer.num_receivers:
        raise DimensionMismatch(
            f"{inner.num_receivers} vs {outer.num_receivers} receivers"
        )
    checked = 0
    for split in split_grid(inner.num_receivers, samples):
        point = boundary_rates(inner, split, bandwidth_inner)
        probe = RatePoint(tuple(max(r - rate_tol, 0.0) for r in point.rates))
        checked += 1
        if not rate_membership(outer, probe, bandwidth_outer):
            return ContainmentResult(
                contained=False, witness=point, witness_split=split, samples_checked=checked
            )
    return ContainmentResult(contained=True, samples_checked=checked)


def scenario_from_capacities(c1: float, c2: float, bandwidth: float) -> BroadcastScenario:
    """Two-user scenario pinned to given point-to-point capacities.

    Fixes P = 1 (every bound verdict is invariant under joint scaling of
    P and the noises) and solves (b/2) log2(1 + P/N_k) = C_k for the
    noises: N_k = P / (2^(2 C_k / b) - 1).
    """
    if not (math.isfinite(c1) and math.isfinite(c2) and 0.0 < c1 < c2):
        raise InvalidCapacities(f"need 0 < C_1 < C_2, got ({c1}, {c2})")
    if not bandwidth > 0.0:
        raise NonPositiveParameter(f"bandwidth must be > 0, got {bandwidth}")
    power = 1.0
    noises = tuple(power / (2.0 ** (2.0 * c / bandwidth) - 1.0) for c in (c1, c2))
    return validate_scenario(power, noises, bandwidth)
