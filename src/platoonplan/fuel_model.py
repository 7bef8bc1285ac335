"""Affine fuel-per-distance model for solo/lead and platoon-follower driving.

All internal units are SI: meters, seconds, kilograms. Config files carry
speeds in km/h and are converted on load. `FuelModel.clamp_speed` (and its
array form `clamp_speeds`) is the package's one rounding guard on speeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

KMH = 1.0 / 3.6  # multiply km/h by this to get m/s

# Affine fit of a heavy-truck consumption model around 80 km/h,
# in kg diesel per meter as a function of speed in m/s.
DEFAULT_A0 = 8.4159e-6
DEFAULT_B0 = 4.8021e-5
DEFAULT_AP = 5.0495e-6
DEFAULT_BP = 8.5426e-5
DEFAULT_V_MIN_KMH = 70.0
DEFAULT_V_MAX_KMH = 90.0
DEFAULT_V_DEFAULT_KMH = 80.0


@dataclass(frozen=True)
class FuelModel:
    """Fuel per distance: f0(v) = a0*v + b0 solo/lead, fp(v) = ap*v + bp follower.

    a0, ap >= 0 keeps f(W/T)*W convex in the traversal time T, which the
    joint optimizer relies on. The follower curve must not exceed the solo
    curve anywhere in [v_min, v_max].
    """

    a0: float = DEFAULT_A0
    b0: float = DEFAULT_B0
    ap: float = DEFAULT_AP
    bp: float = DEFAULT_BP
    v_min: float = DEFAULT_V_MIN_KMH * KMH
    v_max: float = DEFAULT_V_MAX_KMH * KMH
    v_default: float = DEFAULT_V_DEFAULT_KMH * KMH

    def __post_init__(self) -> None:
        values = (self.a0, self.b0, self.ap, self.bp, self.v_min, self.v_max, self.v_default)
        if not all(math.isfinite(x) for x in values):
            raise ValueError("fuel model parameters must be finite")
        if self.a0 < 0 or self.ap < 0:
            raise ValueError("slope coefficients must be nonnegative")
        if not (0 < self.v_min <= self.v_max):
            raise ValueError("need 0 < v_min <= v_max")
        if not (self.v_min <= self.v_default <= self.v_max):
            raise ValueError("v_default must lie in [v_min, v_max]")
        # Affine curves: checking both endpoints covers the whole interval.
        for v in (self.v_min, self.v_max):
            if self.follower_rate(v) > self.solo_rate(v):
                raise ValueError(
                    f"follower consumption exceeds solo consumption at v={v:.3f} m/s"
                )

    def clamp_speed(self, v: float) -> Optional[float]:
        """v snapped into [v_min, v_max], or None if it misses by more than
        1e-9 * v_max (the rounding of closed-form and solver speeds); NaN
        misses."""
        guard = 1e-9 * self.v_max
        if not self.v_min - guard <= v <= self.v_max + guard:
            return None
        return min(max(v, self.v_min), self.v_max)

    def clamp_speeds(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """clamp_speed over an array: (snapped speeds, mask of speeds it accepts)."""
        guard = 1e-9 * self.v_max
        ok = (self.v_min - guard <= v) & (v <= self.v_max + guard)
        return np.minimum(np.maximum(v, self.v_min), self.v_max), ok

    def solo_rate(self, v: float) -> float:
        """kg/m when driving alone or leading a platoon."""
        return self.a0 * v + self.b0

    def follower_rate(self, v: float) -> float:
        """kg/m when trailing in a platoon."""
        return self.ap * v + self.bp

    @classmethod
    def from_config(cls, block: dict) -> "FuelModel":
        """Build from a config block with km/h speed fields; an unknown key or
        a value that is not a finite JSON number (true and "95" are not) is a ValueError."""
        from .scenario import require_real  # scenario imports this module

        rest = {key: require_real(f"fuel.{key}", value) for key, value in block.items()}
        model = cls(
            a0=float(rest.pop("a0", DEFAULT_A0)),
            b0=float(rest.pop("b0", DEFAULT_B0)),
            ap=float(rest.pop("ap", DEFAULT_AP)),
            bp=float(rest.pop("bp", DEFAULT_BP)),
            v_min=float(rest.pop("v_min_kmh", DEFAULT_V_MIN_KMH)) * KMH,
            v_max=float(rest.pop("v_max_kmh", DEFAULT_V_MAX_KMH)) * KMH,
            v_default=float(rest.pop("v_default_kmh", DEFAULT_V_DEFAULT_KMH)) * KMH,
        )
        if rest:
            raise ValueError(f"unknown fuel config keys: {sorted(rest)}")
        return model


def per_distance(model: FuelModel, v: float, follower: bool) -> float:
    """Fuel consumption in kg per meter at speed v (m/s).

    Raises ValueError for speeds that `FuelModel.clamp_speed` rejects.
    """
    if model.clamp_speed(v) is None:
        raise ValueError(
            f"speed {v:.6f} m/s outside [{model.v_min:.6f}, {model.v_max:.6f}]"
        )
    return model.follower_rate(v) if follower else model.solo_rate(v)


def plan_fuel(model: FuelModel, plan) -> float:
    """Total fuel in kg of a piecewise-constant-speed vehicle plan.

    Sum over pieces of f(v_i, p_i) * v_i * (t_{i+1} - t_i), i.e. rate times
    distance of each piece.
    """
    total = 0.0
    times = plan.times
    for i, v in enumerate(plan.speeds):
        dist = v * (times[i + 1] - times[i])
        total += per_distance(model, v, bool(plan.follower_flags[i])) * dist
    return total
