"""Run configuration with the package-wide defaults.

Values can come from an optional JSON config file and be overridden by CLI
flags; flags win. A malformed file raises ConfigError naming the file.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

__all__ = ["ConfigError", "RunConfig"]

STRATEGIES = ("diagonal", "uniform", "gaussian_regression", "gaussian_kernel")
POINT_METRICS = ("mean", "mode", "median")
METRICS = POINT_METRICS + ("probability",)
STATISTICS = ("LR", "Q")
RWMSE_FORMS = ("printed", "squared")
REGRESSION_STDS = ("printed", "sqrt")
CLIP_MODES = ("saturate", "drop")


class ConfigError(ValueError):
    """A config file, value or flag is malformed, or a needed flag is missing."""


@dataclass(frozen=True)
class RunConfig:
    n_max: int = 15
    alpha1: float = 0.05
    alpha2: float = 0.05
    horizon_minutes: float = 20.0
    trend_metric: str = "median"
    jump_metric: str = "probability"
    minutes_metric: str = "mean"
    strategy: str = "gaussian_kernel"
    statistic: str = "Q"
    rwmse_form: str = "printed"
    regression_std: str = "printed"
    clip_mode: str = "saturate"
    seed: int = 0

    def __post_init__(self) -> None:
        if type(self.n_max) is not int or self.n_max < 1:
            raise ConfigError(f"n_max must be a positive integer, got {self.n_max!r}")
        for name, high in (("alpha1", 1), ("alpha2", 1), ("horizon_minutes", math.inf)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < high:
                raise ConfigError(f"{name} must be a number in (0, {high}), got {value!r}")
        choices = {
            "strategy": STRATEGIES,
            "statistic": STATISTICS,
            "rwmse_form": RWMSE_FORMS,
            "regression_std": REGRESSION_STDS,
            "clip_mode": CLIP_MODES,
            "trend_metric": METRICS,
            "jump_metric": METRICS,
            "minutes_metric": POINT_METRICS,
        }
        for name, allowed in choices.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"unknown {name} {value!r}; choose from {', '.join(allowed)}")

    @classmethod
    def load(cls, path=None, **overrides) -> "RunConfig":
        """Build a config from an optional JSON file plus explicit overrides."""
        values: dict = {}
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    file_values = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"config {path} is not JSON: {exc}") from None
            if not isinstance(file_values, dict):
                raise ConfigError(f"config {path} is not a JSON object")
            unknown = set(file_values) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
            values.update(file_values)
        values.update({k: v for k, v in overrides.items() if v is not None})
        try:
            return cls(**values)
        except ConfigError as exc:
            if path is None:
                raise
            raise ConfigError(f"config {path}: {exc}") from None
