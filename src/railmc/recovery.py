"""Transition-matrix recovery from sparse counts.

Four strategies build fully-defined row-stochastic matrices:

* empirical counts + diagonal filling of unobserved rows
* empirical counts + uniform filling
* Gaussian-regression filling (per-row Gaussians with linearly regressed
  mean and standard deviation)
* bivariate Gaussian kernel density estimation over (previous, current)
  delay pairs, normalized row-wise into a transition matrix

A matrix is a plain (k, k) float array. `empirical_matrix` returns the
count ratios of every station of a count tensor as a (stations, k, k) stack,
with unobserved rows NaN; each fill takes such a stack (or one matrix),
replaces exactly the NaN rows and passes observed rows through untouched.
The KDE strategy replaces *every* row with the kernel estimate.

The KDE draws no random numbers. Delays are integers, so the estimate is a
count-weighted kernel sum over the observed (d(t-1), d(t)) cells of n2, at
most (2N+1)^2 distinct pairs; a ridge, not noise, keeps the covariance of
correlated pairs invertible, and its 2x2 inverse is closed-form. Pairs and
grid cells both lie on the integer lattice, so `kde_matrix` evaluates the
density from one (at most (4N+1)^2) table of kernel exponents and one matmul
per station, whatever the number of pairs. Each row the table cannot certify
(and every row of a ridged, single-observation or off-lattice fit) is the
exact pair sum instead. Either way a row is normalized from max-shifted
exponentials, so far-tail underflow never produces NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import RunConfig
from .core import CountTensor, StateSpace, _conditional

__all__ = [
    "KdeModel",
    "empirical_matrix",
    "diagonal_fill",
    "uniform_fill",
    "gaussian_regression_fill",
    "kde_fit",
    "kde_matrix",
    "kde_recover",
    "format_matrix_text",
]

_SINGULAR_DET = 1e-12
_SINGULAR_REL = 1e-12  # a singular covariance's a*d - b*c rounds to a few ulps of a*d
_RIDGE = 1e-6
LOG_2PI = np.log(2.0 * np.pi)
_FLUSH = -708.0         # exp() of a smaller exponent is subnormal: taken as 0
_ROW_FLOOR = 2.0**-512  # a certified lattice row's largest cell is at least this
_LOG_BOUND = 512.0      # and its log-density lies within this of 0


def empirical_matrix(counts: CountTensor) -> np.ndarray:
    """Count-ratio rows, one (k, k) matrix per station of counts; rows with no
    observations stay undefined (NaN)."""
    if (counts.stations < 2).any():
        raise ValueError("transition counts need station index t >= 2")
    return _conditional(counts.n2)


def _undefined(partial: np.ndarray) -> np.ndarray:
    return np.isnan(partial).any(axis=-1)


def diagonal_fill(partial: np.ndarray) -> np.ndarray:
    """Unobserved rows become unit mass on the diagonal (delay unchanged)."""
    return np.where(_undefined(partial)[..., None], np.eye(partial.shape[-1]), partial)


def uniform_fill(partial: np.ndarray) -> np.ndarray:
    """Unobserved rows become uniform over the whole state space."""
    return np.where(_undefined(partial)[..., None], 1.0 / partial.shape[-1], partial)


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
    config: RunConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill each station's unobserved rows with Gaussians whose mean/spread
    follow lines fitted to that station's counts, for every station at once;
    returns the filled stack and the mask of the stations that fell back.

    Per observed row i the count-weighted mean is fitted; the spread uses the
    count-weighted sum of squared deviations divided by (count - 1), which is
    a variance-form expression (`config.regression_std` "printed"), or its
    square root ("sqrt"). Rows whose fitted spread is <= 0 become unit diagonal
    rows. A station with fewer than two observed rows, or with no row that
    supports a spread, cannot be regressed and gets the diagonal fill.
    """
    states = space.states()
    tot = counts.n2.sum(axis=2)
    observed, spread_rows = tot > 0, tot > 1
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = counts.n2 @ states / tot
        dev = states - mean[..., None]
        spread = (counts.n2 * dev**2).sum(axis=2) / (tot - 1)
        if config.regression_std == "sqrt":
            spread = np.sqrt(spread)
    mi, ms = _lines(states, mean, observed)
    si, ss_ = _lines(states, spread, spread_rows)

    fallback = (observed.sum(axis=1) < 2) | ~spread_rows.any(axis=1)
    filled = diagonal_fill(partial)
    s, rows = np.nonzero(_undefined(partial) & ~fallback[:, None])
    i = states[rows]
    filled[s, rows] = _gaussian_rows(mi[s] + ms[s] * i, si[s] + ss_[s] * i, rows, states)
    return filled, fallback


def _lines(x: np.ndarray, y: np.ndarray, used: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intercepts and slopes of the least-squares lines y = a + b x through the
    used points (x, y[s]) of each row s of y; a row using one point gets the
    constant line through it, a row using none NaN."""
    with np.errstate(invalid="ignore"):
        n = used.sum(axis=1)
        x_mean = np.where(used, x, 0).sum(axis=1) / n
        y_mean = np.where(used, y, 0.0).sum(axis=1) / n
        dx = np.where(used, x - x_mean[:, None], 0.0)
        dy = np.where(used, y - y_mean[:, None], 0.0)
        sxx = (dx * dx).sum(axis=1)
        slope = np.divide((dx * dy).sum(axis=1), sxx, out=np.zeros_like(sxx), where=sxx > 0)
    return y_mean - slope * x_mean, slope


@dataclass(frozen=True)
class KdeModel:
    """Fitted bivariate Gaussian kernel density over (d(t-1), d(t)) pairs."""

    points: np.ndarray          # distinct observed pairs, shape (p, 2)
    weights: np.ndarray         # how often each distinct pair was observed, shape (p,)
    cov: np.ndarray
    cov_inv: np.ndarray
    log_det: float
    bandwidth: float            # h = m^(-1/6)
    ridge: float = 0.0          # added to the covariance's diagonal; 0 when it was invertible

    @property
    def m(self) -> int:
        return int(self.weights.sum())


def kde_fit(points: np.ndarray, weights: np.ndarray) -> KdeModel:
    """Estimate the sample covariance and bandwidth over all m pairs, given as
    the distinct pairs `points` (p, 2) and how often each was observed.

    Every pair, duplicates included, enters the mean, the covariance and
    h = m^(-1/6) with m = sum(weights). A near-singular covariance (perfectly
    correlated or identical pairs) gets an escalating ridge until its
    determinant a*d - b*c reaches both 1e-12 and 1e-12 * a*d. With a single
    observation the covariance is undefined and the identity is used. The
    inverse and the log-determinant of the 2x2 covariance are closed-form.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights)
    if points.ndim != 2 or points.shape[1] != 2 or weights.shape != points.shape[:1]:
        raise ValueError(f"points must have shape (p, 2) with one weight each, got "
                         f"{points.shape} and {weights.shape}")
    m = int(weights.sum())
    if m == 0:
        raise ValueError("no observations to fit")

    ridge = 0.0
    if m == 1:
        cov = np.eye(2)
    else:
        centered = points - weights @ points / m
        cov = (centered.T * weights) @ centered / (m - 1)
        step = _RIDGE
        while (ad := cov[0, 0] * cov[1, 1]) - cov[0, 1] * cov[1, 0] < max(_SINGULAR_DET,
                                                                       _SINGULAR_REL * ad):
            cov = cov + step * np.eye(2)
            ridge += step
            step *= 10.0

    (a, b), (c, d) = cov
    det = a * d - b * c
    return KdeModel(
        points=points,
        weights=weights,
        cov=cov,
        cov_inv=np.array([[d, -b], [-c, a]]) / det,
        log_det=float(np.log(det)),
        bandwidth=float(m ** (-1.0 / 6.0)),
        ridge=ridge,
    )


def _kernel_exponents(model: KdeModel, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """A kernel's exponent at the offsets (dx, dy), broadcast against each
    other; both density paths compute it in this one operation order."""
    c = model.cov_inv / (-2.0 * model.bandwidth**2)
    return c[0, 0] * dx * dx + (c[0, 1] + c[1, 0]) * dx * dy + c[1, 1] * dy * dy


def _log_density_at(model: KdeModel, x, y) -> np.ndarray:
    """log f-hat at the points (x, y), broadcast against each other.

    Each distinct pair's kernel is weighted by its count, so the cost follows
    the distinct pairs, not m. The weighted log-sum-exp runs in place on the
    one (..., p) array of kernel exponents, which stays the largest buffer.
    """
    dx = np.asarray(x, dtype=float)[..., None] - model.points[:, 0]
    dy = np.asarray(y, dtype=float)[..., None] - model.points[:, 1]
    log_terms = _kernel_exponents(model, dx, dy)
    peak = log_terms.max(axis=-1, keepdims=True)
    log_terms -= peak
    np.exp(log_terms, out=log_terms)
    return np.log(log_terms @ model.weights) + peak[..., 0] + _log_norm(model)


def _log_norm(model: KdeModel) -> float:
    return -(np.log(model.m) + 2.0 * np.log(model.bandwidth) + 0.5 * model.log_det + LOG_2PI)


def _pair_sum_rows(model: KdeModel, x: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The exact rows: the density at (x_r, every state) from the pair sum,
    each row shifted by its peak log-density before it is exponentiated and
    divided by its sum."""
    logf = _log_density_at(model, x[:, None], states[None, :])
    probs = np.exp(logf - logf.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True)


def _on_lattice(model: KdeModel, n_max: int) -> bool:
    """Whether the lattice may serve the model: an unridged fit to more than
    one pair, whose pairs are integer states of [-n_max, n_max]."""
    points = model.points
    return (model.ridge == 0.0 and model.m > 1 and bool((points == np.rint(points)).all())
            and bool((np.abs(points) <= n_max).all()))


def _lattice_rows(model: KdeModel, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The normalized density rows from one table of kernel exponents, and
    which of them the table certifies.

    Pairs and grid cells are integers in [-N, N], so every exponent is an
    entry T[a, b] of one table over the offsets a = x - px, b = y - py the
    pairs' bounding box needs (at most (4N+1)^2 of them), computed in the
    pair sum's operation order. Each offset row a is shifted by its maximum
    M[a] and exponentiated once. A Toeplitz view of the table (no copy) then
    meets the count grid W in one matmul: g[a, h, j] = sum_l W[h, l] E[a, j - l].
    Output row i sums its source rows h with the factors exp(M[i - h] - S_i),
    where S_i is the largest of its M[i - h].

    A row is certified when its sum is finite, its largest cell is at least
    `_ROW_FLOOR` and its log-density lies within `_LOG_BOUND` of 0. The floor
    bounds what underflow dropped: each term flushed to zero is below
    2^-1022 times its count. Past the bound, the pair sum's own rounding of
    a log-density, eps * |log f|, exceeds 1e-13 of the row.
    """
    k = 2 * n_max + 1
    pairs = model.points.astype(np.intp) + n_max   # state indices (h, l)
    (h0, l0), (h1, l1) = pairs.min(axis=0), pairs.max(axis=0)
    counts = np.zeros((h1 - h0 + 1, l1 - l0 + 1))
    counts[pairs[:, 0] - h0, l1 - pairs[:, 1]] = model.weights  # columns reversed: the view reads j - l
    sources = np.flatnonzero(counts.any(axis=1))
    table = _kernel_exponents(model, np.arange(-h1, k - h0, dtype=float)[:, None],
                              np.arange(-l1, k - l0, dtype=float))
    shift = table.max(axis=1)
    table -= shift[:, None]
    table[table < _FLUSH] = -np.inf                 # no subnormal reaches the matmul
    np.exp(table, out=table)
    # toeplitz[a, s, j] = table[a, s + j]; sliding_window_view builds the same
    # view, but its argument checks cost a sparse station about 7% of its time
    row, cell = table.strides
    toeplitz = as_strided(table, (len(table), counts.shape[1], k), (row, cell, cell),
                          writeable=False)
    g = counts[sources] @ toeplitz
    offset = np.arange(k)[:, None] + (h1 - h0) - sources      # (k, sources): a = i - h
    source_shift = shift[offset]
    row_shift = source_shift.max(axis=1)
    scale = np.exp(source_shift - row_shift[:, None])
    rows = (scale[:, None, :] @ g[offset, np.arange(len(sources))])[:, 0, :]
    total = rows.sum(axis=1)
    peak = rows.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        certified = (np.isfinite(total) & (peak >= _ROW_FLOOR)
                     & (np.abs(np.log(peak) + row_shift + _log_norm(model)) <= _LOG_BOUND))
        return rows / total[:, None], certified


def kde_matrix(model: KdeModel, space: StateSpace) -> np.ndarray:
    """Evaluate the density on the full state grid and normalize each row.

    Row i holds f((i, j)) / sum_k f((i, k)); every row is defined, and
    far-tail underflow never produces NaN. Rows the lattice certifies come
    from one exponent table and one matmul (`_lattice_rows`), at a cost set
    by N, not by the distinct pairs. Every other row, and every row of a
    ridged, single-observation or off-lattice model, is the pair sum: each
    row shifted by its peak log-density before exponentiating.
    """
    states = space.states().astype(float)
    if not _on_lattice(model, space.n_max):
        return _pair_sum_rows(model, states, states)
    probs, certified = _lattice_rows(model, space.n_max)
    if not certified.all():
        probs[~certified] = _pair_sum_rows(model, states[~certified], states)
    return probs


def kde_recover(counts: CountTensor, space: StateSpace) -> np.ndarray:
    """The KDE matrix of every station of counts, as a (stations, k, k) stack,
    each fitted to its station's (d(t-1), d(t)) pairs: the nonzero n2 cells,
    in row-major order, weighted by their counts."""
    states = space.states()
    stack = np.empty(counts.n2.shape)
    for s, n2 in enumerate(counts.n2):
        i, j = np.nonzero(n2)
        stack[s] = kde_matrix(kde_fit(np.column_stack((states[i], states[j])), n2[i, j]), space)
    return stack


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
