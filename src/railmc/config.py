"""Run configuration with the package-wide defaults.

Values can come from an optional JSON config file and be overridden by CLI
flags; flags win.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

__all__ = ["RunConfig"]

STRATEGIES = ("diagonal", "uniform", "gaussian_regression", "gaussian_kernel")
POINT_METRICS = ("mean", "mode", "median")
METRICS = POINT_METRICS + ("probability",)


@dataclass(frozen=True)
class RunConfig:
    n_max: int = 15
    alpha1: float = 0.05
    alpha2: float = 0.05
    epsilon: float = 0.1
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
        choices = {
            "strategy": STRATEGIES,
            "statistic": ("LR", "Q"),
            "rwmse_form": ("printed", "squared"),
            "trend_metric": METRICS,
            "jump_metric": METRICS,
            "minutes_metric": POINT_METRICS,
        }
        for name, allowed in choices.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}; choose from {', '.join(allowed)}")

    @classmethod
    def load(cls, path=None, **overrides) -> "RunConfig":
        """Build a config from an optional JSON file plus explicit overrides."""
        values: dict = {}
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
            known = {f.name for f in dataclasses.fields(cls)}
            unknown = set(file_values) - known
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            values.update(file_values)
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)
