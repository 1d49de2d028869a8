import math

import numpy as np
import pytest
from scipy.special import logsumexp

from railmc.core import StateSpace, build_count_tensor
from railmc.recovery import (
    _RIDGE,
    _gaussian_rows,
    _log_density_at,
    _row_logsumexp,
    diagonal_fill,
    empirical_matrix,
    gaussian_regression_fill,
    kde_density,
    kde_fit,
    kde_matrix,
    uniform_fill,
)
from railmc.synth import near_diagonal_spec, sample_delays

from test_core import sampled, series


def transition_pairs(delays):
    """The (station 1, station 2) delay pair of every journey."""
    return delays[:, :2].astype(float)


class TestEmpiricalMatrix:
    def test_observed_row_ratios(self):
        space = StateSpace(2)
        c = build_count_tensor(*series((0, -1), (0, -1), (0, 1), (0, 2)), 2, space)
        mat = empirical_matrix(c)
        row = mat[space.index(0)]
        assert row[space.index(-1)] == pytest.approx(0.5)
        assert row[space.index(1)] == pytest.approx(0.25)
        assert row[space.index(2)] == pytest.approx(0.25)
        assert not np.isnan(row).any()

    def test_unobserved_rows_undefined(self):
        space = StateSpace(2)
        c = build_count_tensor(*series((0, 1)), 2, space)
        mat = empirical_matrix(c)
        assert np.isnan(mat[space.index(1)]).all()
        assert np.isnan(mat).all(axis=1).sum() == space.cardinality - 1

    def test_station_index_validation(self):
        with pytest.raises(ValueError):
            empirical_matrix(build_count_tensor(*series((0,)), 1, StateSpace(2)))


class TestFills:
    def test_diagonal_fill(self):
        space = StateSpace(2)
        c = build_count_tensor(*series((0, 1)), 2, space)
        mat = diagonal_fill(empirical_matrix(c))
        r = space.index(2)
        assert mat[r, r] == 1.0
        assert mat[r].sum() == 1.0
        assert np.isnan(empirical_matrix(c)[r]).all()  # the fill recovered an undefined row
        # observed row untouched
        assert mat[space.index(0), space.index(1)] == 1.0

    def test_uniform_fill(self):
        space = StateSpace(2)
        c = build_count_tensor(*series((0, 1)), 2, space)
        mat = uniform_fill(empirical_matrix(c))
        r = space.index(-2)
        assert np.allclose(mat[r], 1.0 / 5.0)

    def test_all_rows_defined_after_fill(self):
        space = StateSpace(3)
        c = build_count_tensor(*series((0, 1), (1, 0)), 2, space)
        for fill in (diagonal_fill, uniform_fill):
            mat = fill(empirical_matrix(c))
            assert np.isfinite(mat).all()
            assert np.allclose(mat.sum(axis=1), 1.0)


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
        mat = gaussian_regression_fill(empirical_matrix(c), c, space)
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
        a = gaussian_regression_fill(empirical_matrix(c), c, space, std_form="printed")
        b = gaussian_regression_fill(empirical_matrix(c), c, space, std_form="sqrt")
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
        mat = gaussian_regression_fill(empirical_matrix(c), c, space)
        # fitted line: sigma(i) = 2.5 - 0.75 i, negative from i = 4 on
        r = space.index(4)
        assert mat[r, r] == 1.0
        assert mat[r].sum() == 1.0
        # a mid-range unobserved row still gets a proper Gaussian
        assert (mat[space.index(0)] > 0).sum() > 1

    def test_single_observed_row_falls_back_to_diagonal(self):
        space = StateSpace(3)
        c = build_count_tensor(*series((0, 1), (0, -1)), 2, space)
        with pytest.warns(UserWarning):
            mat = gaussian_regression_fill(empirical_matrix(c), c, space)
        r = space.index(2)
        assert mat[r, r] == 1.0

    def test_rows_sum_to_one(self):
        space = StateSpace(10)
        spec = near_diagonal_spec(space, 2, 1.5, seed=4)
        c = build_count_tensor(*sampled(spec, 50), 2, space)
        mat = gaussian_regression_fill(empirical_matrix(c), c, space)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_per_row_reference(self):
        # the one-assignment fill must equal the row-by-row construction exactly
        space = StateSpace(15)
        spec = near_diagonal_spec(space, 2, 4.0, seed=9)
        c = build_count_tensor(*sampled(spec, 40), 2, space)
        partial = empirical_matrix(c)
        mat = gaussian_regression_fill(partial, c, space)
        states = space.states()
        n2, tot = c.n2, c.n2.sum(axis=1)
        observed, spread_rows = tot > 0, tot > 1
        mean = n2[observed] @ states / tot[observed]
        dev = states[None, :] - (n2[spread_rows] @ states / tot[spread_rows])[:, None]
        spread = (n2[spread_rows] * dev**2).sum(axis=1) / (tot[spread_rows] - 1)
        mi, ms = np.polynomial.polynomial.polyfit(states[observed], mean, 1)
        si, ss_ = np.polynomial.polynomial.polyfit(states[spread_rows], spread, 1)
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

    def test_unknown_std_form(self):
        space = StateSpace(2)
        c = build_count_tensor(*series((0, 1), (1, 0)), 2, space)
        with pytest.raises(ValueError):
            gaussian_regression_fill(empirical_matrix(c), c, space, std_form="bogus")


class TestKdeFit:
    def test_bandwidth_rule(self):
        rng = np.random.default_rng(0)
        obs = rng.normal(size=(64, 2))
        model = kde_fit(obs)
        assert model.bandwidth == pytest.approx(64 ** (-1 / 6))
        assert model.bandwidth == pytest.approx(0.5)

    def test_single_point_density(self):
        # m = 1: identity covariance, h = 1, so the density at the
        # observation is exactly 1 / (2 pi)
        with pytest.warns(UserWarning):
            model = kde_fit(np.array([[3.0, -2.0]]))
        assert kde_density(model, [3.0, -2.0]) == pytest.approx(1 / (2 * math.pi), rel=1e-12)

    def test_degenerate_pairs_still_invertible(self):
        # perfectly correlated pairs: the first ridge step, not noise, makes the
        # covariance invertible, and the pairs themselves stay as observed
        obs = np.array([[float(i), float(i)] for i in range(-5, 6)])
        model = kde_fit(obs)
        np.testing.assert_allclose(model.cov - np.cov(obs.T), _RIDGE * np.eye(2), rtol=1e-6, atol=1e-12)
        assert np.array_equal(model.points, obs)
        assert np.linalg.det(model.cov) > 1e-12
        assert np.isfinite(model.log_det)

    def test_identical_pairs_get_a_ridge(self):
        # a zero sample covariance becomes a ridge times the identity
        model = kde_fit(np.tile([2.0, 3.0], (5, 1)))
        assert model.cov[0, 1] == model.cov[1, 0] == 0.0
        assert model.cov[0, 0] == model.cov[1, 1] >= _RIDGE
        assert np.linalg.det(model.cov) > 1e-12
        assert model.points.tolist() == [[2.0, 3.0]] and model.weights.tolist() == [5]

    def test_positivity_far_from_data(self):
        obs = np.random.default_rng(3).normal(size=(30, 2))
        model = kde_fit(obs)
        assert kde_density(model, [50.0, -50.0]) >= 0.0
        assert np.isfinite(kde_density(model, [50.0, -50.0]))

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(7)
        obs = rng.normal(scale=2.0, size=(40, 2))
        model = kde_fit(obs)
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
        model = kde_fit(obs)
        inv = np.linalg.inv(cov)
        det = np.linalg.det(cov)

        def truth(x):
            x = np.asarray(x)
            return math.exp(-0.5 * x @ inv @ x) / (2 * math.pi * math.sqrt(det))

        for point in ([0.0, 0.0], [1.0, 0.5], [-1.0, 1.0]):
            assert kde_density(model, point) == pytest.approx(truth(point), rel=0.10)

    def test_determinism(self):
        obs = np.random.default_rng(1).normal(size=(25, 2))
        a = kde_fit(obs)
        b = kde_fit(obs)
        assert np.array_equal(a.points, b.points)
        assert kde_density(a, [0.3, 0.4]) == kde_density(b, [0.3, 0.4])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kde_fit(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            kde_fit(np.zeros((4, 3)))


class TestKdeMatrix:
    def test_rows_are_distributions(self):
        space = StateSpace(15)
        spec = near_diagonal_spec(space, 2, 2.0, seed=6)
        pairs = transition_pairs(sample_delays(spec, 500))
        mat = kde_matrix(kde_fit(pairs), space)
        assert mat.shape == (31, 31)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)
        assert (mat > 0).all()
        assert np.isfinite(mat).all()

    def test_near_diagonal_mass_stays_near_diagonal(self):
        space = StateSpace(15)
        spec = near_diagonal_spec(space, 2, 1.0, seed=8)
        pairs = transition_pairs(sample_delays(spec, 2000))
        mat = kde_matrix(kde_fit(pairs), space)
        observed_rows = sorted({int(p[0]) for p in pairs})
        for i in observed_rows:
            j_star = space.states()[np.argmax(mat[space.index(i)])]
            assert abs(j_star - i) <= 2

    def test_matches_naive_sum_over_all_pairs(self):
        # 300 integer pairs on 25 cells: the count-weighted sum over distinct
        # pairs must equal the per-pair kernel sum over all m rows
        space = StateSpace(4)
        pairs = np.random.default_rng(5).integers(-2, 3, size=(300, 2)).astype(float)
        model = kde_fit(pairs)
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


def _kde_grid(model, space):
    states = space.states().astype(float)
    return _log_density_at(model, states[:, None], states[None, :])


class TestRowLogSumExp:
    """The numpy row log-sum-exp must be bit-equal to scipy's, or bundles change."""

    @staticmethod
    def assert_matches_scipy(a):
        expected = logsumexp(a, axis=1, keepdims=True)
        assert np.array_equal(_row_logsumexp(a), expected)

    def test_ties_at_the_max(self):
        rng = np.random.default_rng(11)
        a = rng.integers(-3, 2, size=(200, 9)).astype(float) * 0.7
        a[:50, :3] = a[:50].max(axis=1, keepdims=True)
        a[50] = -1.25  # every entry ties
        assert ((a == a.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        self.assert_matches_scipy(a)

    def test_tails_that_underflow_exp(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(100, 31)) * 800.0
        a[0] = [0.0] + [-1000.0] * 30  # the whole rest underflows to zero
        a[1, :2] = 5.0
        a[1, 2:] = -900.0
        assert (np.exp(a - a.max(axis=1, keepdims=True)) == 0.0).any()
        self.assert_matches_scipy(a)

    def test_single_distinct_pair(self):
        model = kde_fit(np.full((5, 2), [1.0, -1.0]))
        assert len(model.points) == 1
        self.assert_matches_scipy(_kde_grid(model, StateSpace(2)))

    @pytest.mark.parametrize("n_max", [1, 2, 15])
    def test_kde_matrix_grids(self, n_max):
        space = StateSpace(n_max)
        spec = near_diagonal_spec(space, 2, 1.5, seed=n_max)
        model = kde_fit(transition_pairs(sample_delays(spec, 400)))
        logf = _kde_grid(model, space)
        self.assert_matches_scipy(logf)
        probs = np.exp(logf - logsumexp(logf, axis=1, keepdims=True))
        assert np.array_equal(kde_matrix(model, space), probs / probs.sum(axis=1, keepdims=True))
