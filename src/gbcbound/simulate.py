"""Monte Carlo check that uncoded transmission hits the per-receiver optima at b = 1.

The scheme is memoryless: each source sample S ~ N(0, N_S) is scaled to
the power constraint, X = sqrt(P / N_S) * S, every receiver sees
Y_k = X + Z_k with Z_k ~ N(0, N_k), and reconstructs with the linear
MMSE coefficient, S_hat_k = (sqrt(P * N_S) / (P + N_k)) * Y_k.  The
expected squared error is exactly the point-to-point optimum
N_S * N_k / (P + N_k), so the empirical distortions certify the
matched-bandwidth tightness of the outer bound.

Randomness comes from numpy's counter-based Philox generator, which is
bit-exact across platforms; runs are fully determined by the seed.  The
sample loop is chunked with a fixed chunk size, so the reduction order
(and therefore the report) never depends on available memory or worker
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BroadcastScenario, trivial_distortions
from .errors import BandwidthNotOne, NonPositiveParameter

__all__ = ["SimConfig", "SimReport", "run_analog", "GENERATOR_NAME"]

GENERATOR_NAME = "philox"
_CHUNK = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """Analog-transmission run: matched-bandwidth scenario, sample count, seed."""

    scenario: BroadcastScenario
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.scenario.bandwidth != 1.0:
            raise BandwidthNotOne(
                f"analog simulation requires b = 1, got {self.scenario.bandwidth}"
            )
        if int(self.samples) < 1:
            raise NonPositiveParameter(f"need at least one sample, got {self.samples}")
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < 2**64:
            raise NonPositiveParameter("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class SimReport:
    """Empirical distortions vs the point-to-point optima.

    ``std_err`` entries are standard errors of the empirical means
    (infinite when samples == 1).  ``empirical_power`` tracks the mean
    of X^2 against the power constraint.
    """

    empirical: tuple[float, ...]
    theoretical: tuple[float, ...]
    std_err: tuple[float, ...]
    empirical_power: float
    power_std_err: float
    samples: int
    seed: int
    generator: str = GENERATOR_NAME


def _std_err(total: float, total_sq: float, count: int) -> float:
    if count < 2:
        return math.inf
    mean = total / count
    var = max((total_sq - count * mean * mean) / (count - 1), 0.0)
    return math.sqrt(var / count)


def run_analog(cfg: SimConfig) -> SimReport:
    """Run the uncoded scheme and report per-receiver average squared errors."""
    sc = cfg.scenario
    k_total = sc.num_receivers
    ns = sc.source_var
    p = sc.power
    scale_in = math.sqrt(p / ns)
    gains = np.array([math.sqrt(p * ns) / (p + nk) for nk in sc.noises])
    noise_sd = np.sqrt(np.asarray(sc.noises))

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    err_sum = np.zeros(k_total)
    err_sq_sum = np.zeros(k_total)
    pow_sum = 0.0
    pow_sq_sum = 0.0
    remaining = cfg.samples
    while remaining > 0:
        m = min(_CHUNK, remaining)
        s = rng.standard_normal(m) * math.sqrt(ns)
        z = rng.standard_normal((k_total, m)) * noise_sd[:, None]
        x = scale_in * s
        y = x[None, :] + z
        est = gains[:, None] * y
        sq = (s[None, :] - est) ** 2
        err_sum += sq.sum(axis=1)
        err_sq_sum += (sq * sq).sum(axis=1)
        x2 = x * x
        pow_sum += float(x2.sum())
        pow_sq_sum += float((x2 * x2).sum())
        remaining -= m

    n = cfg.samples
    empirical = tuple(float(v) / n for v in err_sum)
    std_err = tuple(_std_err(float(t), float(t2), n) for t, t2 in zip(err_sum, err_sq_sum))
    return SimReport(
        empirical=empirical,
        theoretical=trivial_distortions(sc).values,
        std_err=std_err,
        empirical_power=pow_sum / n,
        power_std_err=_std_err(pow_sum, pow_sq_sum, n),
        samples=n,
        seed=cfg.seed,
    )
