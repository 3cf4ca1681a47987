"""Domain types and closed-form quantities shared by every other module.

Conventions
-----------
* Receivers are indexed k = 1..K.  Receiver 1 has the *worst* channel
  (largest noise variance): N_1 > N_2 > ... > N_K > 0.
* The bandwidth mismatch factor b is channel uses per source sample;
  b = 1 is the matched case.
* Extended nonnegative reals are plain Python floats where ``math.inf``
  encodes +infinity.  NaN is never representable: every validation
  boundary rejects it.
* All distortions are absolute (units of variance).  The source variance
  N_S is carried explicitly and defaults to 1; nothing is silently
  normalised.

All types are immutable after construction and all operations are pure,
so everything here is safe to use from concurrent workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .errors import (
    IndexOutOfRange,
    InputError,
    InvalidDistortion,
    InvalidTauSchedule,
    NonDecreasingNoises,
    NonMonotoneTau,
    NonPositiveParameter,
)

__all__ = [
    "BroadcastScenario",
    "TauSchedule",
    "DistortionTuple",
    "scenario_from_dict",
    "scenario_to_dict",
    "json_safe",
    "load_scenario",
    "trivial_distortion",
    "trivial_distortions",
    "step_schedule",
]


def _require_ext_real(value: float, what: str) -> float:
    """Validate one extended nonnegative real (finite >= 0, or +inf)."""
    x = float(value)
    if math.isnan(x):
        raise InvalidTauSchedule(f"{what} must not be NaN")
    if x < 0.0:
        raise InvalidTauSchedule(f"{what} must be nonnegative, got {x}")
    return x


@dataclass(frozen=True)
class BroadcastScenario:
    """A Gaussian source broadcast over a K-user Gaussian channel.

    Attributes
    ----------
    power:      channel input power P > 0.
    noises:     noise variances (N_1, ..., N_K), strictly decreasing.
    bandwidth:  channel uses per source sample, b > 0.
    source_var: source variance N_S > 0 (default 1).
    """

    power: float
    noises: tuple[float, ...]
    bandwidth: float
    source_var: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "noises", tuple(float(n) for n in self.noises))
        object.__setattr__(self, "bandwidth", float(self.bandwidth))
        object.__setattr__(self, "source_var", float(self.source_var))
        for name in ("power", "bandwidth", "source_var"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise NonPositiveParameter(f"{name} must be finite and > 0, got {v}")
        if not self.noises:
            raise NonPositiveParameter("at least one receiver is required")
        for n in self.noises:
            if not math.isfinite(n) or n <= 0.0:
                raise NonPositiveParameter(f"noise variances must be finite and > 0, got {n}")
        for a, b in zip(self.noises, self.noises[1:]):
            if not a > b:
                raise NonDecreasingNoises(
                    f"noise variances must be strictly decreasing, got {a} before {b}"
                )
        # formed once: every evaluator built on the scenario reads it; not a field,
        # so equality, hashing, repr and asdict see only the four parameters
        noises = self.noises
        object.__setattr__(self, "_delta_noises",
                           tuple(a - b for a, b in zip(noises, noises[1:])) + noises[-1:])

    @property
    def num_receivers(self) -> int:
        return len(self.noises)

    def delta_noise(self, k: int) -> float:
        """N_k - N_{k+1} for k < K, and N_K for k = K (1-based k)."""
        self._check_index(k)
        return self._delta_noises[k - 1]

    def delta_noises(self) -> tuple[float, ...]:
        """``delta_noise(k)`` for k = 1..K."""
        return self._delta_noises

    def scaled(self, c: float) -> "BroadcastScenario":
        """Scenario with (P, N_1..N_K) multiplied by c > 0 (b, N_S unchanged)."""
        if not c > 0.0:
            raise NonPositiveParameter("scale factor must be > 0")
        return BroadcastScenario(
            power=c * self.power,
            noises=tuple(c * n for n in self.noises),
            bandwidth=self.bandwidth,
            source_var=self.source_var,
        )

    def _check_index(self, k: int) -> None:
        if not 1 <= k <= self.num_receivers:
            raise IndexOutOfRange(f"receiver index {k} outside 1..{self.num_receivers}")


@dataclass(frozen=True)
class TauSchedule:
    """Ordered auxiliary parameters 0 = tau_K <= ... <= tau_1 <= +inf.

    ``taus[0]`` is tau_1 (largest), ``taus[-1]`` is tau_K and must be
    exactly 0.  Infinite entries, when present, form a prefix.
    """

    taus: tuple[float, ...]

    def __post_init__(self) -> None:
        entries = tuple(_require_ext_real(t, "tau entry") for t in self.taus)
        object.__setattr__(self, "taus", entries)
        if not entries:
            raise InvalidTauSchedule("schedule must have at least one entry")
        for a, b in zip(entries, entries[1:]):
            if b > a:
                raise NonMonotoneTau(
                    f"entries must be nonincreasing, got {a} before {b}"
                )
        if entries[-1] != 0.0:
            raise InvalidTauSchedule(f"last entry must be exactly 0, got {entries[-1]}")

    @classmethod
    def of(cls, taus: Union["TauSchedule", Sequence[float]]) -> "TauSchedule":
        if isinstance(taus, TauSchedule):
            return taus
        return cls(tuple(taus))

    def __len__(self) -> int:
        return len(self.taus)

    def __iter__(self):
        return iter(self.taus)


@dataclass(frozen=True)
class DistortionTuple:
    """Per-receiver mean squared error targets (D_1, ..., D_K).

    Positivity and finiteness are enforced here; the upper cap
    D_k <= N_S is checked against a concrete scenario by the operations
    that consume the tuple.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise InvalidDistortion("distortion tuple must be nonempty")
        for v in vals:
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidDistortion(f"distortions must be finite and > 0, got {v}")

    @classmethod
    def of(cls, values: Union["DistortionTuple", Sequence[float]]) -> "DistortionTuple":
        if isinstance(values, DistortionTuple):
            return values
        return cls(tuple(values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def check_distortions(
    scenario: BroadcastScenario, distortions: Union[DistortionTuple, Sequence[float]]
) -> DistortionTuple:
    """Validate a distortion tuple against a scenario (length and D_k <= N_S)."""
    d = DistortionTuple.of(distortions)
    if len(d) != scenario.num_receivers:
        raise InvalidDistortion(
            f"expected {scenario.num_receivers} distortions, got {len(d)}"
        )
    for v in d:
        if v > scenario.source_var:
            raise InvalidDistortion(
                f"distortion {v} exceeds source variance {scenario.source_var}"
            )
    return d


def scenario_from_dict(raw: Mapping) -> BroadcastScenario:
    """Scenario from a flat key-value mapping (the scenario file format) of numbers.

    Shape errors raise the base ``InputError``, range errors their own classes."""
    try:
        power = raw["power"]
        noises = raw["noises"]
        bandwidth = raw["bandwidth"]
    except KeyError as exc:
        raise InputError(f"scenario file missing field {exc}") from exc
    source_var = raw.get("source_var", 1.0)
    if not isinstance(noises, (list, tuple)):
        raise InputError("'noises' must be an array")
    for v in (power, *noises, bandwidth, source_var):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InputError(f"scenario values must be numbers, got {v!r}")
    return BroadcastScenario(power, noises, bandwidth, source_var)


def scenario_to_dict(scenario: BroadcastScenario) -> dict:
    return {
        "power": scenario.power,
        "noises": list(scenario.noises),
        "bandwidth": scenario.bandwidth,
        "source_var": scenario.source_var,
    }


def json_safe(value):
    """``value`` as strict JSON data: scenarios as ``scenario_to_dict``, tuples
    as lists, and non-finite floats as the strings "inf", "-inf" and "nan"."""
    if isinstance(value, BroadcastScenario):
        value = scenario_to_dict(value)
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def load_scenario(path) -> BroadcastScenario:
    """Load a scenario from a JSON file with fields power, noises, bandwidth, source_var.

    A path that yields no scenario raises ``InputError``: missing, unreadable,
    not UTF-8, not JSON, or not a valid scenario."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError as exc:
        raise InputError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario file is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read scenario file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("scenario file must contain a JSON object")
    return scenario_from_dict(raw)


def trivial_distortion(scenario: BroadcastScenario, k: int) -> float:
    """Point-to-point optimum for receiver k: N_S * (N_k / (P + N_k))^b.

    No broadcast code can beat this per-receiver floor, whatever the
    other receivers get.
    """
    scenario._check_index(k)
    nk = scenario.noises[k - 1]
    return scenario.source_var * (nk / (scenario.power + nk)) ** scenario.bandwidth


def trivial_distortions(scenario: BroadcastScenario) -> DistortionTuple:
    """The full tuple (D_1*, ..., D_K*) of point-to-point optima."""
    return DistortionTuple(
        tuple(trivial_distortion(scenario, k) for k in range(1, scenario.num_receivers + 1))
    )


def step_schedule(num_receivers: int, k: int) -> TauSchedule:
    """Schedule with tau_K..tau_k = 0 and tau_{k-1}..tau_1 = +inf.

    Evaluating the bound at this schedule isolates receiver k: the
    inequality collapses to the point-to-point constraint D_k >= D_k*.
    """
    if num_receivers < 1:
        raise IndexOutOfRange("need at least one receiver")
    if not 1 <= k <= num_receivers:
        raise IndexOutOfRange(f"receiver index {k} outside 1..{num_receivers}")
    return TauSchedule((math.inf,) * (k - 1) + (0.0,) * (num_receivers - k + 1))
