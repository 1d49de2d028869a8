import math
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from railmc.config import RunConfig
from railmc.core import StateSpace, build_count_tensor
from railmc.recovery import (
    _RIDGE,
    _SINGULAR_DET,
    _SINGULAR_REL,
    KdeModel,
    _gaussian_rows,
    _lattice_rows,
    _lines,
    _log_density_at,
    _on_lattice,
    diagonal_fill,
    empirical_matrix,
    gaussian_regression_fill,
    kde_fit,
    kde_matrix,
    kde_recover,
    uniform_fill,
)
from railmc.synth import near_diagonal_spec, sample_delays

from test_core import sampled, series


def kde_fit_pairs(observations):
    """The raw-pair fit: mean and covariance over all m rows, duplicates
    included, then each distinct pair kept with its count. The oracle of the
    count-based `kde_fit`."""
    obs = np.asarray(observations, dtype=float)
    m = len(obs)
    if m == 1:
        cov = np.eye(2)
    else:
        centered = obs - obs.mean(axis=0)
        cov = centered.T @ centered / (m - 1)
        ridge = _RIDGE
        while (cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
               < max(_SINGULAR_DET, _SINGULAR_REL * cov[0, 0] * cov[1, 1])):
            cov = cov + ridge * np.eye(2)
            ridge *= 10.0
    points, weights = np.unique(obs, axis=0, return_counts=True)
    return KdeModel(
        points=points,
        weights=weights,
        cov=cov,
        cov_inv=np.linalg.inv(cov),
        log_det=float(np.log(np.linalg.det(cov))),
        bandwidth=float(m ** (-1.0 / 6.0)),
    )


def fit_observations(obs):
    """`kde_fit` of continuous observations: their distinct rows with counts."""
    return kde_fit(*np.unique(obs, axis=0, return_counts=True))


def kde_density(model, x) -> float:
    """The fitted density at one point; strictly positive for finite x."""
    x0, x1 = np.asarray(x, dtype=float).reshape(2)
    return float(np.exp(_log_density_at(model, x0, x1)))


def station2_kde(spec, count, space):
    """The KDE matrix of station 2 from `count` journeys drawn from `spec`,
    fitted through the count pass, and the (d(1), d(2)) pairs it was fitted to."""
    delays, lengths = sampled(spec, count)
    (mat,) = kde_recover(build_count_tensor(delays, lengths, 2, space), space)
    return mat, delays[:, :2]


@st.composite
def integer_pair_sets(draw):
    """A state space and a non-empty multiset of integer delay pairs on it."""
    n_max = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(-n_max, n_max), st.integers(-n_max, n_max))
    return StateSpace(n_max), draw(st.lists(pair, min_size=1, max_size=60))


@st.composite
def singular_pair_sets(draw):
    """Distinct integer pairs whose sample covariance is exactly singular, and
    their counts: two pairs (possibly equal), or 3-5 distinct collinear pairs."""
    coord = st.integers(-15, 15)
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=2))
    else:
        x0, y0 = draw(st.tuples(coord, coord))
        dx, dy = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any))
        steps = draw(st.lists(st.integers(-6, 6), min_size=3, max_size=5, unique=True))
        pairs = [(x0 + k * dx, y0 + k * dy) for k in steps]
    counts = Counter()
    for pair, weight in zip(pairs, draw(st.lists(st.integers(1, 40), min_size=len(pairs),
                                                  max_size=len(pairs)))):
        counts[pair] += weight
    return list(counts), list(counts.values())


def exact_covariance(pairs, weights) -> tuple[Fraction, Fraction, Fraction]:
    """The sample covariance (sxx, sxy, syy) of the weighted integer pairs, exactly."""
    m = sum(weights)
    mx = Fraction(sum(w * x for (x, _), w in zip(pairs, weights)), m)
    my = Fraction(sum(w * y for (_, y), w in zip(pairs, weights)), m)
    dev = [(x - mx, y - my, w) for (x, y), w in zip(pairs, weights)]
    sxx = sum(w * dx * dx for dx, _, w in dev) / (m - 1)
    sxy = sum(w * dx * dy for dx, dy, w in dev) / (m - 1)
    syy = sum(w * dy * dy for _, dy, w in dev) / (m - 1)
    return sxx, sxy, syy


def kde_matrix_decimal(model: KdeModel, space: StateSpace) -> np.ndarray:
    """`kde_matrix` of the same model (its float covariance, bandwidth, pairs
    and counts taken exactly) evaluated with 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        (a, b), (c, d) = ([Decimal(float(x)) for x in row] for row in model.cov)
        det = a * d - b * c
        two_h2 = 2 * Decimal(float(model.bandwidth)) ** 2
        points = [(Decimal(float(x)), Decimal(float(y)), int(w))
                  for (x, y), w in zip(model.points, model.weights)]
        rows = []
        for i in space.states().tolist():
            exponents = [[(-(d * (i - x) ** 2 - (b + c) * (i - x) * (j - y) + a * (j - y) ** 2)
                           / det / two_h2, w) for x, y, w in points]
                         for j in space.states().tolist()]
            peak = max(e for cell in exponents for e, _ in cell)
            f = [sum(w * (e - peak).exp() for e, w in cell) for cell in exponents]
            total = sum(f)
            rows.append([float(v / total) for v in f])
    return np.array(rows)


class TestEmpiricalMatrix:
    def test_observed_row_ratios(self):
        space = StateSpace(2)
        c = build_count_tensor(*series((0, -1), (0, -1), (0, 1), (0, 2)), 2, space)
        (mat,) = empirical_matrix(c)
        row = mat[space.index(0)]
        assert row[space.index(-1)] == pytest.approx(0.5)
        assert row[space.index(1)] == pytest.approx(0.25)
        assert row[space.index(2)] == pytest.approx(0.25)
        assert not np.isnan(row).any()

    def test_unobserved_rows_undefined(self):
        space = StateSpace(2)
        c = build_count_tensor(*series((0, 1)), 2, space)
        (mat,) = empirical_matrix(c)
        assert np.isnan(mat[space.index(1)]).all()
        assert np.isnan(mat).all(axis=1).sum() == space.cardinality - 1

    def test_station_index_validation(self):
        with pytest.raises(ValueError):
            empirical_matrix(build_count_tensor(*series((0,)), 1, StateSpace(2)))


class TestFills:
    def test_diagonal_fill(self):
        space = StateSpace(2)
        c = build_count_tensor(*series((0, 1)), 2, space)
        (mat,) = diagonal_fill(empirical_matrix(c))
        r = space.index(2)
        assert mat[r, r] == 1.0
        assert mat[r].sum() == 1.0
        assert np.isnan(empirical_matrix(c)[0, r]).all()  # the fill recovered an undefined row
        # observed row untouched
        assert mat[space.index(0), space.index(1)] == 1.0

    def test_uniform_fill(self):
        space = StateSpace(2)
        c = build_count_tensor(*series((0, 1)), 2, space)
        (mat,) = uniform_fill(empirical_matrix(c))
        r = space.index(-2)
        assert np.allclose(mat[r], 1.0 / 5.0)

    def test_all_rows_defined_after_fill(self):
        space = StateSpace(3)
        c = build_count_tensor(*series((0, 1), (1, 0)), 2, space)
        for fill in (diagonal_fill, uniform_fill):
            (mat,) = fill(empirical_matrix(c))
            assert np.isfinite(mat).all()
            assert np.allclose(mat.sum(axis=1), 1.0)


class TestStationStack:
    def test_one_pass_equals_each_station_alone(self):
        # the count fills of a whole train's stack equal each station's own fill
        space = StateSpace(4)
        delays = sample_delays(near_diagonal_spec(space, 6, 2.0, seed=5), 12)
        lengths = np.array([6, 6, 5, 5, 4, 3, 6, 2, 6, 5, 4, 6])
        stations = range(2, 7)
        every = build_count_tensor(delays, lengths, stations, space)
        partial = empirical_matrix(every)
        fills = {
            "diagonal": lambda p, c: diagonal_fill(p),
            "uniform": lambda p, c: uniform_fill(p),
            "gaussian_regression": lambda p, c: gaussian_regression_fill(p, c, space, RunConfig())[0],
        }
        for name, fill in fills.items():
            stack = fill(partial, every)
            assert stack.shape == (len(stations), space.cardinality, space.cardinality)
            for at, t in enumerate(stations):
                alone = build_count_tensor(delays, lengths, t, space)
                assert np.array_equal(stack[at], fill(empirical_matrix(alone), alone)[0]), (name, t)


class TestGaussianRegressionFill:
    def _symmetric_counts(self, space, rows=(-1, 0, 1)):
        # from each observed row i: one transition each to i-1, i, i+1, so the
        # fitted mean is exactly i and the variance-form spread is
        # (1 + 0 + 1) / (3 - 1) = 1 for every row
        s = []
        for i in rows:
            s += [(i, i - 1), (i, i), (i, i + 1)]
        return build_count_tensor(*series(*s), 2, space)

    def test_constant_spread_line(self):
        space = StateSpace(5)
        c = self._symmetric_counts(space)
        (mat,), _ = gaussian_regression_fill(empirical_matrix(c), c, space, RunConfig())
        states = space.states()
        # filled row 3: Gaussian with mean 3, spread 1, discretized and normalized
        expected = np.exp(-0.5 * (states - 3.0) ** 2)
        expected /= expected.sum()
        assert np.allclose(mat[space.index(3)], expected, atol=1e-12)
        # observed rows pass through as count ratios
        assert mat[space.index(0), space.index(0)] == pytest.approx(1 / 3)

    def test_sqrt_form_matches_printed_here(self):
        # with unit variance both spread conventions coincide
        space = StateSpace(5)
        c = self._symmetric_counts(space)
        printed, sqrt = (RunConfig(regression_std=form) for form in ("printed", "sqrt"))
        (a,), _ = gaussian_regression_fill(empirical_matrix(c), c, space, printed)
        (b,), _ = gaussian_regression_fill(empirical_matrix(c), c, space, sqrt)
        assert np.allclose(a, b)

    def test_negative_fitted_spread_becomes_unit_diagonal(self):
        # spreads 3 at row -2 and 1 at row 0 regress to sigma(i) = 2 - i,
        # which is negative for i >= 3
        space = StateSpace(5)
        s = []
        # rows with controlled printed spreads: row -2 -> dests {-4, -2, 0}
        # gives ss = 4+0+4 = 8, spread 8/2 = 4; row 2 -> dests {1, 2, 3} gives 1.
        for j in (-4, -2, 0):
            s.append((-2, j))
        for j in (1, 2, 3):
            s.append((2, j))
        c = build_count_tensor(*series(*s), 2, space)
        (mat,), _ = gaussian_regression_fill(empirical_matrix(c), c, space, RunConfig())
        # fitted line: sigma(i) = 2.5 - 0.75 i, negative from i = 4 on
        r = space.index(4)
        assert mat[r, r] == 1.0
        assert mat[r].sum() == 1.0
        # a mid-range unobserved row still gets a proper Gaussian
        assert (mat[space.index(0)] > 0).sum() > 1

    def test_single_observed_row_falls_back_to_diagonal(self):
        space = StateSpace(3)
        c = build_count_tensor(*series((0, 1), (0, -1)), 2, space)
        (mat,), fell_back = gaussian_regression_fill(empirical_matrix(c), c, space, RunConfig())
        assert fell_back.tolist() == [True]
        r = space.index(2)
        assert mat[r, r] == 1.0

    def test_rows_sum_to_one(self):
        space = StateSpace(10)
        spec = near_diagonal_spec(space, 2, 1.5, seed=4)
        c = build_count_tensor(*sampled(spec, 50), 2, space)
        (mat,), _ = gaussian_regression_fill(empirical_matrix(c), c, space, RunConfig())
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_per_row_reference(self):
        # the stacked fill must equal the row-by-row construction from the
        # station's own fitted lines exactly
        space = StateSpace(15)
        spec = near_diagonal_spec(space, 2, 4.0, seed=9)
        c = build_count_tensor(*sampled(spec, 40), 2, space)
        (partial,) = empirical_matrix(c)
        (mat,), _ = gaussian_regression_fill(partial[None], c, space, RunConfig())
        states = space.states()
        (n2,) = c.n2
        tot = n2.sum(axis=1)
        observed, spread_rows = tot > 0, tot > 1
        mean = np.full(len(states), np.nan)
        mean[observed] = n2[observed] @ states / tot[observed]
        dev = states[None, :] - mean[spread_rows, None]
        spread = np.full(len(states), np.nan)
        spread[spread_rows] = (n2[spread_rows] * dev**2).sum(axis=1) / (tot[spread_rows] - 1)
        (mi,), (ms,) = _lines(states, mean[None], observed[None])
        (si,), (ss_,) = _lines(states, spread[None], spread_rows[None])
        undefined = np.flatnonzero(~observed)
        assert len(undefined) > 0
        for r in undefined:
            i = states[r]
            sigma = si + ss_ * i
            if sigma <= 0.0:
                want = np.eye(len(states))[r]
            else:
                dens = np.exp(-0.5 * ((states - (mi + ms * i)) / sigma) ** 2)
                want = dens / dens.sum()
            assert np.array_equal(mat[r], want), r
        assert np.array_equal(mat[observed], partial[observed])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 15).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.booleans(), min_size=2 * n + 1, max_size=2 * n + 1).filter(lambda u: sum(u) >= 2),
        st.lists(st.floats(-100.0, 100.0), min_size=2 * n + 1, max_size=2 * n + 1),
    )))
    def test_lines_match_polyfit(self, drawn):
        # the closed-form least-squares line equals numpy's polynomial fit
        n_max, used, y = drawn
        states = StateSpace(n_max).states()
        used, y = np.array(used), np.array(y)
        y[~used] = np.nan  # unused points are never read
        (a,), (b,) = _lines(states, y[None], used[None])
        want_a, want_b = np.polynomial.polynomial.polyfit(states[used], y[used], 1)
        scale = 1.0 + np.abs(y[used]).max()
        np.testing.assert_allclose([a, b], [want_a, want_b], rtol=1e-9, atol=1e-9 * scale)

    def test_lines_through_one_point_or_none(self):
        states = StateSpace(2).states()
        used = np.array([[False, False, True, False, False], [False] * 5])
        a, b = _lines(states, np.full((2, 5), 3.5), used)
        assert a[0] == 3.5 and b[0] == 0.0
        assert np.isnan(a[1])

    def test_fallback_mask_names_the_stations(self):
        # stations 2 and 3 each see one observed row; station 4 regresses
        space = StateSpace(3)
        delays, lengths = series((0, 1, 1, 0), (0, 1, 1, 2), (0, 1, 0, 1))
        c = build_count_tensor(delays, lengths, range(2, 5), space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fallback is data, not a warning
            mat, fell_back = gaussian_regression_fill(empirical_matrix(c), c, space, RunConfig())
        assert fell_back.tolist() == [True, True, False]
        assert np.array_equal(mat[:2], diagonal_fill(empirical_matrix(c))[:2])

    def test_row_branches(self):
        # a proper Gaussian, sigma <= 0 (own state), and far-tail underflow (nearest state)
        states = StateSpace(2).states()
        rows = _gaussian_rows(
            np.array([0.0, 1.0, 500.0]), np.array([1.0, -0.5, 0.1]), np.array([2, 0, 4]), states
        )
        gauss = np.exp(-0.5 * states.astype(float) ** 2)
        assert np.array_equal(rows[0], gauss / gauss.sum())
        assert np.array_equal(rows[1], [1.0, 0, 0, 0, 0])
        assert np.array_equal(rows[2], [0, 0, 0, 0, 1.0])


class TestKdeFit:
    def test_bandwidth_rule(self):
        rng = np.random.default_rng(0)
        obs = rng.normal(size=(64, 2))
        model = fit_observations(obs)
        assert model.bandwidth == pytest.approx(64 ** (-1 / 6))
        assert model.bandwidth == pytest.approx(0.5)

    def test_single_point_density(self):
        # m = 1: identity covariance, h = 1, so the density at the
        # observation is exactly 1 / (2 pi)
        model = kde_fit(np.array([[3.0, -2.0]]), [1])
        assert model.m == 1 and np.array_equal(model.cov, np.eye(2))
        assert kde_density(model, [3.0, -2.0]) == pytest.approx(1 / (2 * math.pi), rel=1e-12)

    def test_degenerate_pairs_still_invertible(self):
        # perfectly correlated pairs: the first ridge step, not noise, makes the
        # covariance invertible, and the pairs themselves stay as observed
        obs = np.array([[float(i), float(i)] for i in range(-5, 6)])
        model = kde_fit(obs, np.ones(len(obs), dtype=int))
        np.testing.assert_allclose(model.cov - np.cov(obs.T), _RIDGE * np.eye(2), rtol=1e-6, atol=1e-12)
        assert np.array_equal(model.points, obs)
        assert np.linalg.det(model.cov) > 1e-12
        assert np.isfinite(model.log_det)

    def test_identical_pairs_get_a_ridge(self):
        # a zero sample covariance becomes a ridge times the identity
        model = kde_fit([[2.0, 3.0]], [5])
        assert model.cov[0, 1] == model.cov[1, 0] == 0.0
        assert model.cov[0, 0] == model.cov[1, 1] >= _RIDGE
        assert np.linalg.det(model.cov) > 1e-12
        assert model.points.tolist() == [[2.0, 3.0]] and model.weights.tolist() == [5]

    def test_positivity_far_from_data(self):
        obs = np.random.default_rng(3).normal(size=(30, 2))
        model = fit_observations(obs)
        assert kde_density(model, [50.0, -50.0]) >= 0.0
        assert np.isfinite(kde_density(model, [50.0, -50.0]))

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(7)
        obs = rng.normal(scale=2.0, size=(40, 2))
        model = fit_observations(obs)
        # Riemann sum on a wide grid
        grid = np.linspace(-15, 15, 151)
        step = grid[1] - grid[0]
        xx, yy = np.meshgrid(grid, grid)
        pts = np.column_stack((xx.ravel(), yy.ravel()))
        total = sum(kde_density(model, p) for p in pts) * step * step
        assert total == pytest.approx(1.0, abs=0.02)

    def test_matches_analytic_gaussian(self):
        # with many samples from a known Gaussian the KDE tracks its density
        rng = np.random.default_rng(11)
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        obs = rng.multivariate_normal([0.0, 0.0], cov, size=20_000)
        model = fit_observations(obs)
        inv = np.linalg.inv(cov)
        det = np.linalg.det(cov)

        def truth(x):
            x = np.asarray(x)
            return math.exp(-0.5 * x @ inv @ x) / (2 * math.pi * math.sqrt(det))

        for point in ([0.0, 0.0], [1.0, 0.5], [-1.0, 1.0]):
            assert kde_density(model, point) == pytest.approx(truth(point), rel=0.10)

    def test_determinism(self):
        obs = np.random.default_rng(1).normal(size=(25, 2))
        a = fit_observations(obs)
        b = fit_observations(obs)
        assert np.array_equal(a.points, b.points)
        assert kde_density(a, [0.3, 0.4]) == kde_density(b, [0.3, 0.4])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kde_fit(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            kde_fit(np.zeros((4, 3)), np.ones(4, dtype=int))
        with pytest.raises(ValueError):
            kde_fit(np.zeros((4, 2)), np.ones(3, dtype=int))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(singular_pair_sets())
    @example(([(1, -10), (11, 5)], [1, 1]))  # LU rounds its zero determinant to 1.07e-12
    @example(([(2, 3)], [5]))                 # all pairs identical
    def test_ridge_applies_to_every_singular_covariance(self, drawn):
        pairs, weights = drawn
        sxx, sxy, syy = exact_covariance(pairs, weights)
        assert sxx * syy - sxy * sxy == 0
        model = kde_fit(np.array(pairs, dtype=float), np.array(weights))
        assert (np.diag(model.cov) - [float(sxx), float(syy)] >= _RIDGE * (1 - 1e-6)).all()
        assert model.cov[0, 1] == pytest.approx(float(sxy), rel=1e-12, abs=1e-12)
        # a ridge r >= 1e-6 bounds the inverse by about 1 / r
        assert np.abs(model.cov_inv).max() <= 1.01 / _RIDGE

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(integer_pair_sets())
    def test_ridge_applies_only_to_singular_covariances(self, drawn):
        _space, pairs = drawn
        counts = Counter(pairs)
        assume(len(pairs) > 1)  # one observation takes the identity
        sxx, sxy, syy = exact_covariance(list(counts), list(counts.values()))
        model = kde_fit(np.array(list(counts), dtype=float), np.array(list(counts.values())))
        ridge = np.diag(model.cov) - [float(sxx), float(syy)]
        if sxx * syy - sxy * sxy == 0:
            assert (ridge >= _RIDGE * (1 - 1e-6)).all()
        else:
            np.testing.assert_allclose(ridge, 0.0, atol=1e-12 * float(max(sxx, syy)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(integer_pair_sets())
    @example((StateSpace(11), [(1, -10), (11, 5)]))             # LU misses the singularity
    @example((StateSpace(3), [(2, -1)]))                        # m = 1
    @example((StateSpace(3), [(1, 1)] * 7))                     # all pairs identical
    @example((StateSpace(3), [(i, i) for i in range(-3, 4)]))   # perfectly correlated
    @example((StateSpace(3), [(i, -i) for i in range(-3, 4)] * 2))
    def test_matches_raw_pair_fit(self, drawn):
        # the fit to the counted n2 cells equals the fit over every raw pair
        space, pairs = drawn
        c = build_count_tensor(*series(*pairs), 2, space)
        (n2,) = c.n2
        i, j = np.nonzero(n2)
        states = space.states()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # one observation is data (m == 1), not a warning
            model = kde_fit(np.column_stack((states[i], states[j])), n2[i, j])
        raw = kde_fit_pairs(pairs)
        assert np.array_equal(model.points, raw.points)
        assert np.array_equal(model.weights, raw.weights)
        assert model.m == raw.m == len(pairs)
        assert model.bandwidth == raw.bandwidth
        # an entry that is 0 in exact arithmetic is rounding in both: relative to the scale
        np.testing.assert_allclose(model.cov, raw.cov, rtol=1e-12, atol=1e-12 * np.abs(raw.cov).max())
        # a ridged covariance is near-singular: one rounding of the sums it was
        # built from moves its inverse, and so the kernel, by cond(cov) ulps
        atol = max(1e-12, 1e-15 * np.linalg.cond(raw.cov))
        np.testing.assert_allclose(kde_matrix(model, space), kde_matrix(raw, space), rtol=0, atol=atol)
        (stack,) = kde_recover(c, space)
        assert np.array_equal(stack, kde_matrix(model, space))


class TestKdeMatrix:
    def test_rows_are_distributions(self):
        space = StateSpace(15)
        spec = near_diagonal_spec(space, 2, 2.0, seed=6)
        mat, _ = station2_kde(spec, 500, space)
        assert mat.shape == (31, 31)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)
        assert (mat > 0).all()
        assert np.isfinite(mat).all()

    def test_near_diagonal_mass_stays_near_diagonal(self):
        space = StateSpace(15)
        spec = near_diagonal_spec(space, 2, 1.0, seed=8)
        mat, pairs = station2_kde(spec, 2000, space)
        observed_rows = sorted({int(p[0]) for p in pairs})
        for i in observed_rows:
            j_star = space.states()[np.argmax(mat[space.index(i)])]
            assert abs(j_star - i) <= 2

    def test_matches_naive_sum_over_all_pairs(self):
        # 300 integer pairs on 25 cells: the count-weighted sum over distinct
        # pairs must equal the per-pair kernel sum over all m rows
        space = StateSpace(4)
        pairs = np.random.default_rng(5).integers(-2, 3, size=(300, 2)).astype(float)
        model = kde_fit(*np.unique(pairs, axis=0, return_counts=True))
        assert model.m == 300 and len(model.points) <= 25
        np.testing.assert_allclose(model.cov, np.cov(pairs.T), rtol=1e-12)
        assert model.bandwidth == pytest.approx(300 ** (-1 / 6), rel=1e-12)

        h2 = model.bandwidth**2
        norm = 300 * 2 * math.pi * h2 * math.sqrt(np.linalg.det(model.cov))

        def naive_density(x):
            return sum(math.exp(-0.5 * (x - p) @ model.cov_inv @ (x - p) / h2) for p in pairs) / norm

        states = space.states()
        grid = np.array([[naive_density(np.array([i, j], dtype=float)) for j in states] for i in states])
        for x in ([0.0, 0.0], [2.0, -1.0], [4.0, 4.0]):
            assert kde_density(model, x) == pytest.approx(naive_density(np.array(x)), rel=1e-12)
        naive = grid / grid.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(kde_matrix(model, space), naive, rtol=0, atol=1e-12)


RIDGED_STATIONS = [
    # unridged, row d(t-1) = 4 put [0.562, 0.438] on d(t) = -6, -5; 60 digits give ~[0.5, 0.5]
    ([[1, -10], [11, 5]], [1, 1], 15),
    ([[-4, -3], [0, -1], [8, 3]], [1, 2, 3], 10),
    ([[-6, 9], [-4, 6], [-2, 3], [0, 0], [2, -3]], [3, 1, 4, 1, 5], 15),
]
RIDGED_IDS = ["two_pairs", "three_collinear", "five_collinear"]


class TestKdeDecimalOracle:
    """Ridged stations' KDE matrices against a 60-digit evaluation of the
    same model.

    Bound: eps * cond(cov). A ridged covariance is nearly singular. Rounding
    in `np.linalg.inv` and in the exponent sums acts like a relative error of
    about eps * cond(cov) in its smallest eigenvalue, so every kernel
    exponent across the line of the pairs moves by that relative amount. The
    cells that carry a row's mass have exponents within O(1) of each other,
    so their probabilities move by about eps * cond(cov) too. The stations
    below stay within 0.12 of the bound.
    """

    @pytest.mark.parametrize("pairs, weights, n_max", RIDGED_STATIONS, ids=RIDGED_IDS)
    def test_ridged_station_matches_60_digits(self, pairs, weights, n_max):
        model = kde_fit(np.array(pairs, dtype=float), np.array(weights))
        space = StateSpace(n_max)
        want = kde_matrix_decimal(model, space)
        bound = np.finfo(float).eps * np.linalg.cond(model.cov)
        assert 1e6 < np.linalg.cond(model.cov) < 1e9  # ridged, so the bound is meaningful
        np.testing.assert_allclose(kde_matrix(model, space), want, rtol=0, atol=bound)



def pair_sum_matrix(model: KdeModel, space: StateSpace) -> np.ndarray:
    """The pair sum: every cell's log-density from every distinct pair, each
    row shifted by its peak before it is exponentiated and divided by its sum.
    The oracle of the lattice rows of `kde_matrix`."""
    states = space.states().astype(float)
    logf = _log_density_at(model, states[:, None], states[None, :])
    probs = np.exp(logf - logf.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True)


@st.composite
def small_pair_sets(draw):
    """A state space with N in 1..15, and 1-5 distinct integer pairs on it with counts 1-5."""
    n_max = draw(st.integers(1, 15))
    coord = st.integers(-n_max, n_max)
    pairs = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(pairs), max_size=len(pairs)))
    return n_max, pairs, weights


class TestLatticeOracle:
    """`kde_matrix` against the pair sum, within atol 1e-12: the rows the
    exponent table certifies, and the pair-sum rows of every other row."""

    @staticmethod
    def assert_matches_pair_sum(model, space):
        got = kde_matrix(model, space)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, pair_sum_matrix(model, space), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_max", [2, 15])
    def test_dense_station(self, n_max, seed):
        space = StateSpace(n_max)
        model = fit_observations(sample_delays(near_diagonal_spec(space, 2, 1.5, seed), 2000)[:, :2])
        assert _on_lattice(model, n_max) and _lattice_rows(model, n_max)[1].all()
        self.assert_matches_pair_sum(model, space)

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_station(self, seed):
        space = StateSpace(15)
        model = fit_observations(sample_delays(near_diagonal_spec(space, 2, 4.0, seed), 20)[:, :2])
        assert len(model.points) <= 20 and _on_lattice(model, 15)
        self.assert_matches_pair_sum(model, space)

    @pytest.mark.parametrize("pairs, weights, n_max", RIDGED_STATIONS, ids=RIDGED_IDS)
    def test_ridged_station_takes_the_pair_sum(self, pairs, weights, n_max):
        model = kde_fit(np.array(pairs, dtype=float), np.array(weights))
        assert model.ridge > 0 and not _on_lattice(model, n_max)
        assert np.array_equal(kde_matrix(model, StateSpace(n_max)), pair_sum_matrix(model, StateSpace(n_max)))

    def test_off_lattice_and_single_pair_models_take_the_pair_sum(self):
        space = StateSpace(3)
        single = kde_fit([[1.0, -1.0]], [1])
        between = kde_fit([[0.5, 1.0], [1.0, -2.0], [-1.0, 0.0]], [1, 1, 1])
        outside = kde_fit([[4.0, 1.0], [1.0, -2.0], [-1.0, 0.0]], [1, 1, 1])
        for model in (single, between, outside):
            assert not _on_lattice(model, space.n_max)
            assert np.array_equal(kde_matrix(model, space), pair_sum_matrix(model, space))

    def test_rows_that_underflow_in_the_table_take_the_pair_sum(self):
        # far from these three pairs every term of rows d(t-1) = -5, 3, 4, 5
        # underflows in the table, which leaves 0 / 0 there
        model = kde_fit(np.array([[-2.0, -5.0], [0.0, 3.0], [0.0, 4.0]]), np.array([1, 2, 8]))
        with np.errstate(invalid="ignore"):
            lattice, certified = _lattice_rows(model, 5)
        empty = np.isnan(lattice).any(axis=1)
        assert np.flatnonzero(empty).tolist() == [0, 8, 9, 10] and not certified[empty].any()
        self.assert_matches_pair_sum(model, StateSpace(5))

    def test_rows_far_out_in_log_density_take_the_pair_sum(self):
        # a nearly singular, unridged covariance: rows d(t-1) < 14 sit hundreds
        # to thousands below 0 in log-density, where the pair sum rounds each
        # log f by about eps * |log f|. There the table (closer to a 60-digit
        # evaluation) and the pair sum differ by up to 4e-10, so only the two
        # rows next to the pairs are certified.
        model = kde_fit(np.array([[14.0, -4.0], [14.0, -2.0], [15.0, -3.0]]), np.array([1466, 891, 1]))
        space = StateSpace(15)
        lattice, certified = _lattice_rows(model, 15)
        assert model.ridge == 0 and np.flatnonzero(certified).tolist() == [29, 30]
        assert np.abs(lattice - pair_sum_matrix(model, space)).max() > 1e-10
        self.assert_matches_pair_sum(model, space)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_pair_sets())
    @example((5, [(-2, -5), (0, 3), (0, 4)], [1, 2, 8]))  # four rows underflow in the table
    @example((1, [(0, 0), (1, 1)], [1, 1]))                # ridged
    @example((3, [(1, -1)], [1]))                          # m = 1
    def test_random_small_pair_sets(self, drawn):
        n_max, pairs, weights = drawn
        space = StateSpace(n_max)
        model = kde_fit(np.array(pairs, dtype=float), np.array(weights))
        want = pair_sum_matrix(model, space)
        if _on_lattice(model, n_max):
            # a row the lattice gets wrong (NaN included) is never certified
            with np.errstate(invalid="ignore"):
                lattice, certified = _lattice_rows(model, n_max)
            wrong = ~(np.abs(lattice - want) <= 1e-12).all(axis=1)
            assert not (certified & wrong).any()
        self.assert_matches_pair_sum(model, space)

class TestRowLogSumExp:
    """Each kde_matrix row, its max-shifted exponential over its sum, is
    exp(logf - logsumexp(logf)) up to rounding.

    The scipy row is divided by its sum as well: where a ridged covariance
    puts logf near -1e7, logsumexp itself rounds by about 1e-9, which scales
    the whole row by one factor that the division removes.
    """

    @staticmethod
    def assert_matches_scipy(model, space):
        states = space.states().astype(float)
        logf = _log_density_at(model, states[:, None], states[None, :])
        want = np.exp(logf - logsumexp(logf, axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(kde_matrix(model, space), want, rtol=0, atol=1e-15)
        return logf

    def test_ties_at_the_max(self):
        # two pairs mirrored about d(t) = 0 put each row's peak at both -1 and 1
        logf = self.assert_matches_scipy(kde_fit([[0.0, -1.0], [0.0, 1.0]], [3, 3]), StateSpace(3))
        assert ((logf == logf.max(axis=1, keepdims=True)).sum(axis=1) > 1).all()

    def test_tails_that_underflow_exp(self):
        # one pair seen 5 times gets a ridged covariance of 1e-6 I, so each
        # row keeps its mass next to the pair and the rest underflows to zero
        logf = self.assert_matches_scipy(kde_fit([[1.0, -1.0]], [5]), StateSpace(15))
        assert (np.exp(logf - logf.max(axis=1, keepdims=True)) == 0.0).any()

    def test_single_distinct_pair(self):
        model = kde_fit([[1.0, -1.0]], [1])
        assert len(model.points) == 1 and model.m == 1
        self.assert_matches_scipy(model, StateSpace(2))

    @pytest.mark.parametrize("n_max", [1, 2, 15])
    def test_kde_matrix_grids(self, n_max):
        space = StateSpace(n_max)
        spec = near_diagonal_spec(space, 2, 1.5, seed=n_max)
        self.assert_matches_scipy(fit_observations(sample_delays(spec, 400)[:, :2]), space)
