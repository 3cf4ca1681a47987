"""Gaussian broadcast capacity regions, containment, and the virtual channel.

A capacity region is fixed by a ``BroadcastScenario``'s power P, noises
N_1 > ... > N_K and bandwidth factor b; its source variance plays no part.
With a power split alpha (alpha_k >= 0, sum 1) and cumulative residual
power beta_k = sum_{j>k} alpha_j * P (beta_0 = P), the dominant face of
the superposition-coding region is

    R_k = (b/2) * log2((beta_{k-1} + N_k) / (beta_k + N_k)),

where b scales rates from per-channel-use to per-source-sample.  Rates
are in bits (log base 2 throughout; the base cancels in every
containment verdict).

A source with variance N_S reconstructed at distortions D_1 > ... > D_K
induces a *virtual* broadcast channel with power N_S, noises
N_S * D_k / (N_S - D_k) and b = 1; the distortion tuple can be achievable
only if the virtual region fits inside the physical one.  That
containment is checked here by dense sampling of the dominant face.
Whether one two-user region nests strictly inside another (``nesting``)
adds a search for the power the narrower one lacks to hold a boundary
point of the wider one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import BroadcastScenario, DistortionTuple
from .errors import (
    DimensionMismatch,
    DistortionAtSourceVariance,
    InvalidCapacities,
    InvalidSplit,
    NonPositiveParameter,
    NonStrictOrdering,
)

__all__ = [
    "RatePoint",
    "ContainmentResult",
    "NestingResult",
    "boundary_rates",
    "rate_membership",
    "virtual_channel",
    "containment",
    "nesting",
    "scenario_from_capacities",
    "split_grid",
    "point_to_point_capacity",
]

RATE_TOL_BITS = 1e-7
BETA_REL_TOL = 1e-9
SPLIT_SUM_TOL = 1e-9


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
    samples_checked: int = 0


@dataclass(frozen=True)
class NestingResult:
    """``nesting``'s verdict; ``narrow`` lacks ``lack`` to hold ``witness``,
    ``wide``'s boundary point at ``split``."""

    contained: bool
    strict: bool
    lack: float
    split: tuple[float, float]
    witness: RatePoint


def point_to_point_capacity(sc: BroadcastScenario, k: int) -> float:
    """Single-user capacity (b/2) * log2(1 + P / N_k), 1-based k."""
    nk = sc.noises[k - 1]
    return 0.5 * sc.bandwidth * math.log2(1.0 + sc.power / nk)


def _validated_split(sc: BroadcastScenario, split: Sequence[float]) -> tuple[float, ...]:
    vals = tuple(float(a) for a in split)
    if len(vals) != sc.num_receivers:
        raise InvalidSplit(f"split length {len(vals)} != {sc.num_receivers} receivers")
    for a in vals:
        if math.isnan(a) or a < 0.0:
            raise InvalidSplit(f"split shares must be >= 0, got {a}")
    total = math.fsum(vals)
    if abs(total - 1.0) > SPLIT_SUM_TOL:
        raise InvalidSplit(f"split must sum to 1, got {total}")
    return vals


def boundary_rates(sc: BroadcastScenario, split: Sequence[float]) -> RatePoint:
    """Dominant-face rate point for one power split."""
    alphas = _validated_split(sc, split)
    beta = sc.power  # residual power before layer k
    rates = []
    for k in range(sc.num_receivers):
        beta_next = sc.power * math.fsum(alphas[k + 1 :]) if k + 1 < len(alphas) else 0.0
        nk = sc.noises[k]
        rates.append(0.5 * sc.bandwidth * math.log2((beta + nk) / (beta_next + nk)))
        beta = beta_next
    return RatePoint(tuple(rates))


def rate_membership(sc: BroadcastScenario, point: RatePoint) -> bool:
    """Is a rate point inside the capacity region?

    Membership iff the least residual power of the greedy inversion
    (``_residual_power``) stays >= -BETA_REL_TOL * P.
    """
    return _residual_power(sc, point) >= -BETA_REL_TOL * sc.power


def _residual_power(sc: BroadcastScenario, point: RatePoint) -> float:
    """Least residual power over the greedy layer-by-layer inversion.

    beta_k = (beta_{k-1} + N_k) * 2^(-2 R_k / b) - N_k is the residual
    power after serving receiver k with the least possible consumption,
    which is exact for degraded regions; a negative minimum is the power
    the channel lacks to serve ``point``.
    """
    if len(point) != sc.num_receivers:
        raise DimensionMismatch(
            f"rate point has {len(point)} entries for {sc.num_receivers} receivers"
        )
    beta = least = sc.power
    for k in range(sc.num_receivers):
        nk = sc.noises[k]
        beta = (beta + nk) * 2.0 ** (-2.0 * point.rates[k] / sc.bandwidth) - nk
        least = min(least, beta)
    return least


def virtual_channel(source_var: float, distortions: Sequence[float]) -> BroadcastScenario:
    """Broadcast channel induced by a source and its reconstructions.

    Power N_S, noises N_S * D_k / (N_S - D_k), and b = 1: its rates are
    per source sample.  Its source variance is left at the default; this
    module reads only power, noises and bandwidth.  Requires strictly
    decreasing distortions in (0, N_S): D_k = N_S would mean an infinite
    virtual noise and is rejected explicitly.
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
    return BroadcastScenario(source_var, noises, 1.0)


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


def _lack(inner: BroadcastScenario, outer: BroadcastScenario, split: Sequence[float]) -> float:
    """Power ``outer`` lacks to hold ``inner``'s boundary point at ``split``,
    shrunk by ``RATE_TOL_BITS`` per receiver so that verdicts are robust to
    round-off: minus the residual power of ``rate_membership``'s inversion."""
    point = boundary_rates(inner, split)
    probe = RatePoint(tuple(max(r - RATE_TOL_BITS, 0.0) for r in point.rates))
    return -_residual_power(outer, probe)


def containment(
    inner: BroadcastScenario, outer: BroadcastScenario, samples: int = 512
) -> ContainmentResult:
    """Is the inner region (sampled on its dominant face) inside the outer one?

    A sampled boundary point is inside when the outer channel lacks at most
    ``BETA_REL_TOL * outer.power`` to hold it (``_lack``).  Returns the
    first violating boundary point as a witness.
    """
    if inner.num_receivers != outer.num_receivers:
        raise DimensionMismatch(f"{inner.num_receivers} vs {outer.num_receivers} receivers")
    tol = BETA_REL_TOL * outer.power
    checked = 0
    for split in split_grid(inner.num_receivers, samples):
        checked += 1
        if not _lack(inner, outer, split) <= tol:
            witness = boundary_rates(inner, split)
            return ContainmentResult(contained=False, witness=witness, samples_checked=checked)
    return ContainmentResult(contained=True, samples_checked=checked)


def nesting(wide: BroadcastScenario, narrow: BroadcastScenario, samples: int) -> NestingResult:
    """Does the two-user region ``narrow`` nest strictly inside ``wide``?

    ``contained`` is ``containment(narrow, wide, samples)``.  ``strict`` is
    searched, not sampled: the most power ``narrow`` lacks to hold a boundary
    point of ``wide`` must exceed ``BETA_REL_TOL * narrow.power``.  The lack
    is scanned on the ``samples`` splits (1 - s, s) and then maximized by
    golden-section search on s between the best split's neighbours, so a
    poke-out narrower than the grid (near s = 0, say) is still found.
    """
    def lack(s: float) -> float:
        return _lack(wide, narrow, (1.0 - s, s))

    contained = containment(narrow, wide, samples).contained
    shares = [split[1] for split in split_grid(2, samples)]
    lacks = [lack(s) for s in shares]
    best = max(range(len(shares)), key=lacks.__getitem__)
    a, b = shares[max(best - 1, 0)], shares[min(best + 1, len(shares) - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    lack_c, lack_d = lack(c), lack(d)
    while b - a > 1e-12:
        if lack_c > lack_d:
            b, d, lack_d = d, c, lack_c
            c = b - ratio * (b - a)
            lack_c = lack(c)
        else:
            a, c, lack_c = c, d, lack_d
            d = a + ratio * (b - a)
            lack_d = lack(d)
    most, share = max((lacks[best], shares[best]), (lack_c, c), (lack_d, d))
    split = (1.0 - share, share)
    strict = most > BETA_REL_TOL * narrow.power
    return NestingResult(contained, strict, most, split, boundary_rates(wide, split))


def scenario_from_capacities(c1: float, c2: float, bandwidth: float) -> BroadcastScenario:
    """Two-user scenario pinned to given point-to-point capacities.

    Fixes P = 1 (every bound verdict is invariant under joint scaling of
    P and the noises) and solves (b/2) log2(1 + P/N_k) = C_k for the
    noises: N_k = P / (2^(2 C_k / b) - 1).  Requires finite 0 < C_1 < C_2
    and finite b > 0, with each 2 C_k / b in the float range.
    """
    if not (math.isfinite(c1) and math.isfinite(c2) and 0.0 < c1 < c2):
        raise InvalidCapacities(f"need 0 < C_1 < C_2, got ({c1}, {c2})")
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise NonPositiveParameter(f"bandwidth must be finite and > 0, got {bandwidth}")
    power = 1.0
    try:
        noises = tuple(power / (2.0 ** (2.0 * c / bandwidth) - 1.0) for c in (c1, c2))
    except (OverflowError, ZeroDivisionError) as exc:
        msg = f"noise variances must be finite and > 0: 2 C_k / b out of range at b = {bandwidth}"
        raise NonPositiveParameter(msg) from exc
    return BroadcastScenario(power, noises, bandwidth)
