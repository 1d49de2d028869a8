"""Run configuration with the package-wide defaults.

Values can come from an optional JSON config file and be overridden by CLI
flags; flags win. Each RunConfig field is the one declaration of its setting:
its default, the values it accepts, its help text, the commands that read it
and its flag, from which both the validation below and the CLI's flags are
built: each command gets a flag for every setting it reads, and for no other.
A config file may hold any field, so that one file can serve the whole
pipeline. A malformed file or value raises InputError, naming the file when
there is one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .core import InputError, load_json

__all__ = ["RunConfig"]

STRATEGIES = ("diagonal", "uniform", "gaussian_regression", "gaussian_kernel")
POINT_METRICS = ("mean", "mode", "median")
METRICS = POINT_METRICS + ("probability",)
RWMSE_FORMS = ("printed", "squared")
REGRESSION_STDS = ("printed", "sqrt")
CLIP_MODES = ("saturate", "drop")
# the widest delay grid: k = 2 * 240 + 1 = 481 states, 1.8 MB per float64 matrix
N_MAX_LIMIT = 240


def _setting(default, help_text: str, commands: tuple[str, ...], *, choices: tuple[str, ...] = (),
             minimum: int = 0, maximum: float = math.inf, below: float = math.inf, flag: str = ""):
    """A RunConfig field read by the CLI `commands`, each of which gets its flag.
    A str setting takes one of `choices`; an int one an integer in [`minimum`,
    `maximum`]; a float one a number in (0, `below`). `flag` is the command-line
    flag, derived from the field name when empty."""
    return dataclasses.field(default=default, metadata=dict(
        help=help_text, commands=commands, choices=choices, minimum=minimum, maximum=maximum,
        below=below, flag=flag))


@dataclass(frozen=True)
class RunConfig:
    n_max: int = _setting(15, "delay bound N", ("synth", "ingest", "train"),
                          minimum=1, maximum=N_MAX_LIMIT)
    alpha1: float = _setting(0.05, "level for the zero-order test", ("test",), below=1)
    alpha2: float = _setting(0.05, "level for the first-order test", ("test",), below=1)
    horizon_minutes: float = _setting(20.0, "prediction horizon in minutes",
                                      ("forecast", "evaluate"), flag="--horizon")
    trend_metric: str = _setting("median", "metric for the trend prediction",
                                 ("forecast", "evaluate"), choices=METRICS)
    jump_metric: str = _setting("probability", "metric for the jump prediction",
                                ("forecast", "evaluate"), choices=METRICS)
    minutes_metric: str = _setting("mean", "metric for the minutes prediction",
                                   ("forecast", "evaluate"), choices=POINT_METRICS)
    strategy: str = _setting("gaussian_kernel", "matrix recovery strategy", ("train",),
                             choices=STRATEGIES)
    rwmse_form: str = _setting("printed", "error form under the RWMSE root", ("evaluate",),
                               choices=RWMSE_FORMS)
    regression_std: str = _setting("printed", "spread form of the gaussian_regression fill",
                                   ("train",), choices=REGRESSION_STDS)
    clip_mode: str = _setting("saturate", "out-of-range delay handling", ("ingest",),
                              choices=CLIP_MODES)
    seed: int = _setting(0, "seed of the synthetic corpus", ("synth",))

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if meta["choices"]:
                if value not in meta["choices"]:
                    raise InputError(
                        f"unknown {f.name} {value!r}; choose from {', '.join(meta['choices'])}")
            elif isinstance(f.default, int):
                if type(value) is not int or not meta["minimum"] <= value <= meta["maximum"]:
                    kind = "positive" if meta["minimum"] == 1 else "non-negative"
                    limit = "" if meta["maximum"] == math.inf else f"; the limit is {meta['maximum']}"
                    raise InputError(f"{f.name} must be a {kind} integer, got {value!r}{limit}")
            elif (isinstance(value, bool) or not isinstance(value, (int, float))
                  or not 0 < value < meta["below"]):
                raise InputError(f"{f.name} must be a number in (0, {meta['below']}), got {value!r}")
            elif meta["below"] == 1 and 1.0 - value == 1.0:  # a level; 1 - level is the test's p
                raise InputError(f"{f.name} {value!r} is too small: 1 - {f.name} rounds to 1")

    @classmethod
    def load(cls, path=None, **overrides) -> "RunConfig":
        """Build a config from an optional JSON file plus explicit overrides."""
        values: dict = {}
        if path is not None:
            try:
                file_values = load_json(path)
            except InputError as exc:
                raise InputError(f"config {exc}") from None
            if not isinstance(file_values, dict):
                raise InputError(f"config {path}: not a JSON object")
            unknown = set(file_values) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise InputError(f"config {path}: unknown keys {sorted(unknown)}")
            values.update(file_values)
        values.update({k: v for k, v in overrides.items() if v is not None})
        try:
            return cls(**values)
        except InputError as exc:
            if path is None:
                raise
            raise InputError(f"config {path}: {exc}") from None
