"""Transition-matrix recovery from sparse counts.

Four strategies build fully-defined row-stochastic matrices:

* empirical counts + diagonal filling of unobserved rows
* empirical counts + uniform filling
* Gaussian-regression filling (per-row Gaussians with linearly regressed
  mean and standard deviation)
* bivariate Gaussian kernel density estimation over (previous, current)
  delay pairs, normalized row-wise into a transition matrix

A matrix is a plain (k, k) float array. `empirical_matrix` returns the
count ratios with unobserved rows NaN; each fill replaces exactly the NaN
rows in one assignment and passes observed rows through untouched. The KDE
strategy replaces *every* row with the kernel estimate.

The KDE draws no random numbers. Delays are integers, so the estimate is a
count-weighted kernel sum over at most (2N+1)^2 distinct pairs; a ridge, not
noise, keeps the covariance of correlated pairs invertible. Its rows are
normalized by a numpy row log-sum-exp that repeats scipy's operation order,
so this module needs no scipy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import CountTensor, StateSpace, _conditional

__all__ = [
    "KdeModel",
    "empirical_matrix",
    "diagonal_fill",
    "uniform_fill",
    "gaussian_regression_fill",
    "kde_fit",
    "kde_density",
    "kde_matrix",
    "format_matrix_text",
]

_SINGULAR_DET = 1e-12
_RIDGE = 1e-6
LOG_2PI = np.log(2.0 * np.pi)


def empirical_matrix(counts: CountTensor) -> np.ndarray:
    """Count-ratio rows; rows with no observations stay undefined (NaN)."""
    if counts.station_index < 2:
        raise ValueError("transition counts need station index t >= 2")
    return _conditional(counts.n2)


def _undefined(partial: np.ndarray) -> np.ndarray:
    return np.isnan(partial).any(axis=1)


def diagonal_fill(partial: np.ndarray) -> np.ndarray:
    """Unobserved rows become unit mass on the diagonal (delay unchanged)."""
    filled = partial.copy()
    rows = _undefined(partial)
    filled[rows] = np.eye(len(partial))[rows]
    return filled


def uniform_fill(partial: np.ndarray) -> np.ndarray:
    """Unobserved rows become uniform over the whole state space."""
    filled = partial.copy()
    filled[_undefined(partial)] = 1.0 / len(partial)
    return filled


def _gaussian_rows(
    mu: np.ndarray, sigma: np.ndarray, own: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """One discretized Gaussian row per (mu, sigma), normalized over the states.

    A row with sigma <= 0 is unit mass on its own state index; a row whose
    density underflows everywhere puts its mass on the state nearest mu.
    """
    k = len(states)
    rows = np.eye(k)[own]
    fit = sigma > 0.0
    mu, sigma = mu[fit, None], sigma[fit, None]
    dens = np.exp(-0.5 * ((states - mu) / sigma) ** 2)
    total = dens.sum(axis=1)[:, None]
    nearest = np.eye(k)[np.argmin(np.abs(states - mu), axis=1)]
    ok = (total > 0.0) & np.isfinite(total)
    rows[fit] = np.divide(dens, total, out=nearest, where=ok)
    return rows


def gaussian_regression_fill(
    partial: np.ndarray,
    counts: CountTensor,
    space: StateSpace,
    std_form: str = "printed",
) -> np.ndarray:
    """Fill unobserved rows with Gaussians whose mean/spread follow fitted lines.

    Per observed row i the count-weighted mean is fitted; the spread uses the
    count-weighted sum of squared deviations divided by (count - 1), which is
    a variance-form expression (`std_form="printed"`), or its square root
    (`std_form="sqrt"`). Rows whose fitted spread is <= 0 become unit diagonal
    rows. With fewer than two observed rows regression is impossible and the
    fill falls back to the diagonal strategy.
    """
    if std_form not in ("printed", "sqrt"):
        raise ValueError(f"unknown std_form {std_form!r}")
    states = space.states()
    n2 = counts.n2
    tot = n2.sum(axis=1)
    observed = tot > 0
    if observed.sum() < 2:
        warnings.warn("fewer than two observed rows; falling back to diagonal fill")
        return diagonal_fill(partial)

    spread_rows = tot > 1
    if not spread_rows.any():
        warnings.warn("no rows support a spread estimate; falling back to diagonal fill")
        return diagonal_fill(partial)
    with np.errstate(invalid="ignore"):
        mean = n2 @ states / tot
    dev = states[None, :] - mean[spread_rows, None]
    spread = (n2[spread_rows] * dev**2).sum(axis=1) / (tot[spread_rows] - 1)
    if std_form == "sqrt":
        spread = np.sqrt(spread)

    mi, ms = np.polynomial.polynomial.polyfit(states[observed], mean[observed], 1)
    if len(spread) >= 2:
        si, ss_ = np.polynomial.polynomial.polyfit(states[spread_rows], spread, 1)
    else:
        si, ss_ = spread[0], 0.0

    filled = partial.copy()
    rows = np.flatnonzero(_undefined(partial))
    i = states[rows]
    filled[rows] = _gaussian_rows(mi + ms * i, si + ss_ * i, rows, states)
    return filled


@dataclass(frozen=True)
class KdeModel:
    """Fitted bivariate Gaussian kernel density over (d(t-1), d(t)) pairs."""

    points: np.ndarray          # distinct observed pairs, shape (p, 2)
    weights: np.ndarray         # how often each distinct pair was observed, shape (p,)
    cov: np.ndarray
    cov_inv: np.ndarray
    log_det: float
    bandwidth: float            # h = m^(-1/6)

    @property
    def m(self) -> int:
        return int(self.weights.sum())


def kde_fit(observations: np.ndarray) -> KdeModel:
    """Estimate the sample covariance and bandwidth over all m pairs.

    Every pair, duplicates included, enters the mean, the covariance and
    h = m^(-1/6); the model then keeps each distinct pair with its count. A
    near-singular covariance (perfectly correlated or identical pairs) gets
    an escalating ridge. With a single observation the covariance is
    undefined and the identity is used.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 2 or obs.shape[1] != 2:
        raise ValueError(f"observations must have shape (m, 2), got {obs.shape}")
    m = len(obs)
    if m == 0:
        raise ValueError("no observations to fit")

    if m == 1:
        warnings.warn("single observation: substituting identity covariance")
        cov = np.eye(2)
    else:
        centered = obs - obs.mean(axis=0)
        cov = centered.T @ centered / (m - 1)
        ridge = _RIDGE
        while np.linalg.det(cov) <= _SINGULAR_DET:
            cov = cov + ridge * np.eye(2)
            ridge *= 10.0

    points, weights = np.unique(obs, axis=0, return_counts=True)
    det = float(np.linalg.det(cov))
    return KdeModel(
        points=points,
        weights=weights,
        cov=cov,
        cov_inv=np.linalg.inv(cov),
        log_det=float(np.log(det)),
        bandwidth=float(m ** (-1.0 / 6.0)),
    )


def _log_density_at(model: KdeModel, x, y) -> np.ndarray:
    """log f-hat at the points (x, y), broadcast against each other.

    Each distinct pair's kernel is weighted by its count, so the cost follows
    the distinct pairs, not m. The weighted log-sum-exp runs in place on the
    one (..., p) array of kernel exponents, which stays the largest buffer.
    """
    dx = np.asarray(x, dtype=float)[..., None] - model.points[:, 0]
    dy = np.asarray(y, dtype=float)[..., None] - model.points[:, 1]
    c = model.cov_inv / (-2.0 * model.bandwidth**2)
    log_terms = c[0, 0] * dx * dx + (c[0, 1] + c[1, 0]) * dx * dy + c[1, 1] * dy * dy
    peak = log_terms.max(axis=-1, keepdims=True)
    log_terms -= peak
    np.exp(log_terms, out=log_terms)
    log_norm = -(np.log(model.m) + 2.0 * np.log(model.bandwidth) + 0.5 * model.log_det + LOG_2PI)
    return np.log(log_terms @ model.weights) + peak[..., 0] + log_norm


def kde_density(model: KdeModel, x) -> float:
    """Evaluate the fitted density at one point; strictly positive for finite x."""
    x0, x1 = np.asarray(x, dtype=float).reshape(2)
    return float(np.exp(_log_density_at(model, x0, x1)))


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a finite 2-D array, as a (rows, 1) column.

    The operation order is scipy.special.logsumexp's (1.17), so the result is
    bit-equal to it: the entries tied at the row peak are counted, not summed,
    and the rest enter as log1p of their shifted sum over that count. A plain
    max-shift differs in the last bits.
    """
    peak = a.max(axis=1, keepdims=True)
    at_peak = a == peak
    count = at_peak.sum(axis=1, keepdims=True).astype(float)
    shifted = np.exp(a - peak)
    shifted[at_peak] = 0.0
    rest = shifted.sum(axis=1, keepdims=True) / count
    return np.log1p(rest) + np.log(count) + peak


def kde_matrix(model: KdeModel, space: StateSpace) -> np.ndarray:
    """Evaluate the density on the full state grid and normalize each row.

    Row i holds f((i, j)) / sum_k f((i, k)); every row is defined. Rows are
    normalized in log-space so far-tail underflow never produces NaN.
    """
    states = space.states().astype(float)
    logf = _log_density_at(model, states[:, None], states[None, :])
    probs = np.exp(logf - _row_logsumexp(logf))
    return probs / probs.sum(axis=1, keepdims=True)


def format_matrix_text(matrix: np.ndarray, space: StateSpace) -> str:
    """Render a matrix as an aligned text grid (a poor man's heatmap table)."""
    states = space.states()
    width = 6
    header = " " * 4 + "".join(f"{s:>{width}}" for s in states)
    lines = [header]
    for r, row in enumerate(matrix):
        cells = "".join(f"{p:>{width}.2f}" if p >= 0.005 else " " * (width - 1) + "." for p in row)
        lines.append(f"{states[r]:>4}" + cells)
    return "\n".join(lines)
