"""Run configuration with the package-wide defaults.

Values can come from an optional JSON config file and be overridden by CLI
flags; flags win. Each RunConfig field is the one declaration of its setting:
its default, the values it accepts, its help text and its flag, from which
both the validation below and the CLI's flags are built. A malformed file
raises ConfigError naming the file.
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
RWMSE_FORMS = ("printed", "squared")
REGRESSION_STDS = ("printed", "sqrt")
CLIP_MODES = ("saturate", "drop")


class ConfigError(ValueError):
    """A config file, value or flag is malformed, or a needed flag is missing."""


def _setting(default, help_text: str, *, choices: tuple[str, ...] = (), minimum: int = 0,
             below: float = math.inf, flag: str | None = ""):
    """A RunConfig field. A str setting takes one of `choices`; an int one an
    integer >= `minimum`; a float one a number in (0, `below`). `flag` is the
    command-line flag: "" derives it from the field name, None leaves the
    setting to the config file."""
    return dataclasses.field(default=default, metadata={
        "help": help_text, "choices": choices, "minimum": minimum, "below": below, "flag": flag,
    })


@dataclass(frozen=True)
class RunConfig:
    n_max: int = _setting(15, "delay bound N", minimum=1)
    alpha1: float = _setting(0.05, "level for the zero-order test", below=1)
    alpha2: float = _setting(0.05, "level for the first-order test", below=1)
    horizon_minutes: float = _setting(20.0, "prediction horizon in minutes", flag="--horizon")
    trend_metric: str = _setting("median", "metric for the trend prediction", choices=METRICS)
    jump_metric: str = _setting("probability", "metric for the jump prediction", choices=METRICS)
    minutes_metric: str = _setting("mean", "metric for the minutes prediction", choices=POINT_METRICS)
    strategy: str = _setting("gaussian_kernel", "matrix recovery strategy", choices=STRATEGIES)
    rwmse_form: str = _setting("printed", "error form under the RWMSE root", choices=RWMSE_FORMS)
    regression_std: str = _setting(
        "printed", "spread form of the gaussian_regression fill", choices=REGRESSION_STDS, flag=None)
    clip_mode: str = _setting("saturate", "out-of-range delay handling", choices=CLIP_MODES)
    seed: int = _setting(0, "seed of the synthetic corpus; only synth draws random numbers")

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if meta["choices"]:
                if value not in meta["choices"]:
                    raise ConfigError(
                        f"unknown {f.name} {value!r}; choose from {', '.join(meta['choices'])}")
            elif isinstance(f.default, int):
                if type(value) is not int or value < meta["minimum"]:
                    kind = "positive" if meta["minimum"] == 1 else "non-negative"
                    raise ConfigError(f"{f.name} must be a {kind} integer, got {value!r}")
            elif (isinstance(value, bool) or not isinstance(value, (int, float))
                  or not 0 < value < meta["below"]):
                raise ConfigError(f"{f.name} must be a number in (0, {meta['below']}), got {value!r}")
            elif meta["below"] == 1 and 1.0 - value == 1.0:  # a level; 1 - level is the test's p
                raise ConfigError(f"{f.name} {value!r} is too small: 1 - {f.name} rounds to 1")

    @classmethod
    def load(cls, path=None, **overrides) -> "RunConfig":
        """Build a config from an optional JSON file plus explicit overrides."""
        values: dict = {}
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    file_values = json.load(fh)
            except ValueError as exc:  # a JSON syntax error or a byte that is not UTF-8
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
