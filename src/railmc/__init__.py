"""Non-homogeneous Markov chain models of train delay evolution.

Provides the Markov property test for sparse transition counts, four
transition-matrix recovery strategies (including Gaussian kernel density
estimation), Chapman-Kolmogorov delay forecasting, and the composite
F1/RWMSE prediction score, plus a CLI tying them together.
"""

from .config import RunConfig
from .core import (
    CountTensor,
    FrequencyEstimates,
    StateSpace,
    build_count_tensor,
    estimate_frequencies,
)

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "StateSpace",
    "CountTensor",
    "FrequencyEstimates",
    "build_count_tensor",
    "estimate_frequencies",
    "__version__",
]
