import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from railmc import mctest
from railmc.config import RunConfig
from railmc.core import (
    CountTensor,
    StateSpace,
    build_count_tensor,
    estimate_frequencies,
)
from railmc.mctest import (
    TIE_BAND,
    _gamma_pq,
    _ladders,
    aggregate_reports,
    chi_square_cdf,
    chi_square_quantile,
    first_order_statistics,
    markov_property_test,
    zero_order_statistics,
)
from railmc.synth import ChainSpec

from test_core import cells, sampled, series

SPACE = StateSpace(15)


def h0_verdicts(stats, df, alpha):
    """The H0(0) verdicts of one statistic at stations of one df: `_ladders` on
    a (1, n) row with no order-one statistic, both levels `alpha`."""
    n = len(stats)
    (h0,), _ = _ladders(np.array([stats], dtype=float), np.full(n, df), np.zeros((1, n)),
                        np.zeros(n, dtype=np.int64), alpha, alpha)
    return h0


def chi2_cdf_by_quadrature(x, df):
    """Numerical-integration oracle for the chi-square CDF."""

    def density(u):
        return math.exp((df / 2 - 1) * math.log(u) - u / 2) / (
            2 ** (df / 2) * math.gamma(df / 2)
        )

    val, _err = quad(density, 0.0, x, limit=200)
    return val


class TestChiSquareFunctions:
    def test_cdf_at_zero(self):
        for df in (1, 3, 10, 100):
            assert chi_square_cdf(0.0, df) == 0.0

    @pytest.mark.parametrize("x,df", [(3.841, 1), (11.070, 5), (18.307, 10)])
    def test_cdf_against_quadrature_oracle(self, x, df):
        assert chi_square_cdf(x, df) == pytest.approx(0.950, abs=1e-3)
        assert chi_square_cdf(x, df) == pytest.approx(chi2_cdf_by_quadrature(x, df), abs=1e-9)

    def test_quantile_95_df1(self):
        assert chi_square_quantile(0.95, 1) == pytest.approx(3.841, abs=1e-3)

    def test_quantile_small_p_goes_to_zero(self):
        assert chi_square_quantile(1e-12, 4) < 1e-4

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = float(rng.uniform(0.01, 0.99))
            df = int(rng.integers(1, 200))
            assert chi_square_cdf(chi_square_quantile(p, df), df) == pytest.approx(p, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi_square_cdf(1.0, 0)
        with pytest.raises(ValueError, match="x must be >= 0, got -1.0"):
            chi_square_cdf(-1.0, 3)
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            chi_square_cdf(float("nan"), 3)
        with pytest.raises(ValueError):
            chi_square_quantile(0.0, 3)
        with pytest.raises(ValueError):
            chi_square_quantile(1.0, 3)
        with pytest.raises(ValueError):
            chi_square_quantile(0.95, 0)

    def test_memoized_quantile_equals_direct(self):
        # the (level, df) pairs the statistic fixtures below reach, at two levels
        fixtures = [
            series((0, 0), (0, 0), (1, 1), (1, 1)),
            series(*[(i, j) for i in (-2, -1, 0, 1) for j in (0, 1, 2)]),
            series((0, 0, 0), (0, 0, 0), (1, 0, 1), (1, 0, 1)),
            series(*[(h, i, j) for h in (0, 1, 2) for i in (0, 1) for j in (0, 1, 2, 3)]),
        ]
        dfs = set()
        for delays, lengths in fixtures:
            for t in range(2, lengths.max() + 1):
                counts = build_count_tensor(delays, lengths, t, SPACE)
                f = estimate_frequencies(counts)
                dfs.add(zero_order_statistics(f, counts)[0][2])
                if t >= 3:
                    dfs.add(first_order_statistics(f, counts)[0][2])
        pairs = {(1.0 - alpha, df) for alpha in (0.05, 0.01) for df in dfs if df >= 1}
        assert {df for _, df in pairs} >= {1, 6, 12}
        for p, df in sorted(pairs):
            direct = chi_square_quantile.__wrapped__(p, df)
            assert chi_square_quantile(p, df) == direct
            hits = chi_square_quantile.cache_info().hits
            assert chi_square_quantile(p, df) == direct
            assert chi_square_quantile.cache_info().hits == hits + 1


class TestQuantileBounds:
    """The two bounds `_below_quantile` decides by before it needs a quantile."""

    DFS = np.unique(np.r_[np.arange(1, 2001), np.geomspace(2000, 1.2e8, 60).round()])

    def test_bounds_bracket_the_quantile(self):
        from scipy import special

        for p in (1e-12, 0.01, 0.3, 0.5, 0.7, 0.95, 0.99, 1 - 1e-6, 1 - 1e-12):
            q = 2.0 * special.gammaincinv(self.DFS / 2.0, p)
            x = -math.log1p(-p)
            assert (q < self.DFS + 2.0 * np.sqrt(self.DFS * x) + 2.0 * x).all(), p
            if p >= 0.5:  # the median exceeds df - 2/3
                assert (q > self.DFS - 1.0).all(), p

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 400), st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.95, 0.99]),
           st.floats(0.0, 3.0))
    def test_verdicts_equal_those_of_the_quantile(self, df, p, scale):
        # statistics across both bounds and the quantile, decided with and without them
        stat = np.array([scale * df, df - 1.0, np.nextafter(df - 1.0, 0.0), 0.0])
        x = -math.log1p(-p)
        upper = df + 2.0 * math.sqrt(df * x) + 2.0 * x
        stat = np.r_[stat, upper, np.nextafter(upper, np.inf), 2.0 * upper]
        q = chi_square_quantile(p, df)
        far = np.abs(stat - q) > TIE_BAND * q
        got = mctest._below_quantile(stat, p, np.full(len(stat), df))
        assert (got[far] == (stat[far] < q)).all()


class TestQuantileEstimate:
    ALPHAS = (1e-12, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.5)

    def test_matches_scipy(self):
        from scipy import special

        dfs = np.unique(np.r_[np.arange(1, 301), np.geomspace(300, 250_000, 12).round()])
        for alpha in self.ALPHAS:
            p = 1.0 - alpha
            direct = 2.0 * special.gammaincinv(dfs / 2.0, p)
            est = np.array([chi_square_quantile.__wrapped__(p, int(df)) for df in dfs])
            assert np.abs(est / direct - 1.0).max() < 1e-11, alpha

    def test_lower_tail_matches_scipy(self):
        # a level above 0.5 puts the quantile in the lower tail
        from scipy import special

        for p in (0.3, 1e-3, 2.0**-53):
            for df in (1, 2, 5, 40, 3000):
                direct = float(2.0 * special.gammaincinv(df / 2.0, p))
                assert chi_square_quantile(p, df) == pytest.approx(direct, rel=1e-11)

    @staticmethod
    def _count_tail_calls(monkeypatch):
        """Record each (a, x) the ladder passes to the incomplete gamma."""
        calls = []

        def counted(a, x):
            calls.append((a, x))
            return _gamma_pq(a, x)

        monkeypatch.setattr(mctest, "_gamma_pq", counted)
        return calls

    @pytest.mark.parametrize("df", [1, 6, 12, 100, 27_900])
    @pytest.mark.parametrize("offset", [0.0, -1e-12, 1e-12, -1e-14, 1e-14])
    def test_near_tie_consults_scipy(self, monkeypatch, df, offset):
        # the statistic's own tail decides a near tie, once, and at a nonzero
        # offset agrees with scipy's quantile; an exact tie (offset 0) has no
        # oracle, since scipy's gammaincc and gammaincinv disagree on some
        from scipy import special

        for alpha in (0.05, 0.7):  # the upper and the lower tail
            p = 1.0 - alpha
            q = float(2.0 * special.gammaincinv(df / 2.0, p))
            stat = q * (1.0 + offset)
            chi_square_quantile(p, df)  # memoized before counting: Newton calls the tail too
            calls = self._count_tail_calls(monkeypatch)
            (verdict,) = h0_verdicts([stat], df, alpha)
            assert calls == [(df / 2.0, stat / 2.0)], alpha
            if offset:
                assert verdict == ("not_rejected" if stat < q else "rejected"), alpha

    @pytest.mark.parametrize("df", [1, 12, 27_900])
    def test_failed_newton_leaves_the_verdict_to_the_tail(self, monkeypatch, df):
        p = 1.0 - 0.05
        q = chi_square_quantile(p, df)
        monkeypatch.setattr(mctest, "chi_square_quantile", lambda p, df: math.nan)
        calls = self._count_tail_calls(monkeypatch)
        verdicts = h0_verdicts([q * (1.0 - 1e-3), q * (1.0 + 1e-3)], df, 0.05)
        assert verdicts == ["not_rejected", "rejected"]
        assert len(calls) == 2

    @pytest.mark.parametrize("df", [1, 6, 12, 100, 27_900])
    @pytest.mark.parametrize("offset", [-1e-6, 1e-6])
    def test_clear_verdict_skips_scipy(self, monkeypatch, df, offset):
        # a statistic far from the memoized quantile is decided without its tail
        p = 1.0 - 0.01
        q = chi_square_quantile(p, df)
        assert abs(offset) > 100 * TIE_BAND
        calls = self._count_tail_calls(monkeypatch)
        expected = "not_rejected" if offset < 0 else "rejected"
        assert h0_verdicts([q * (1.0 + offset)], df, 0.01) == [expected]
        assert calls == []


def direct_summation_zero_order(counts):
    """Independent oracle: materialize dense arrays and sum term by term."""
    n2 = cells(counts.n2[0])
    states = sorted({i for i, _ in n2} | {j for _, j in n2})
    pos = {s: k for k, s in enumerate(states)}
    n = np.zeros((len(states), len(states)))
    for (i, j), c in n2.items():
        n[pos[i], pos[j]] = c
    row = n.sum(axis=1)
    col = n.sum(axis=0)
    p_j = col / n.sum()
    lr = q = 0.0
    for a in range(len(states)):
        for b in range(len(states)):
            if n[a, b] > 0:
                p_ij = n[a, b] / row[a]
                lr += 2 * n[a, b] * math.log(p_ij / p_j[b])
                q += row[a] * (p_ij - p_j[b]) ** 2 / p_j[b]
    df = (int((row > 0).sum()) - 1) * (int((col > 0).sum()) - 1)
    return lr, q, df


class TestZeroOrderStatistics:
    def test_two_state_hand_case(self):
        c = build_count_tensor(*series((0, 0), (0, 0), (1, 1), (1, 1)), 2, SPACE)
        f = estimate_frequencies(c)
        ((lr0, q0, df0),) = zero_order_statistics(f, c)
        assert q0 == pytest.approx(2.0, abs=1e-12)
        assert lr0 == pytest.approx(8 * math.log(2), abs=1e-12)
        assert df0 == 1
        oracle = direct_summation_zero_order(c)
        assert lr0 == pytest.approx(oracle[0], abs=1e-12)
        assert q0 == pytest.approx(oracle[1], abs=1e-12)
        assert df0 == oracle[2]

    def test_exact_null_gives_zero(self):
        # product counts: identical conditional rows for every i
        s = []
        for i in (0, 1):
            for j, reps in ((0, 3), (1, 1)):
                s += [(i, j)] * reps
        c = build_count_tensor(*series(*s), 2, SPACE)
        f = estimate_frequencies(c)
        ((lr0, q0, _df),) = zero_order_statistics(f, c)
        assert lr0 == pytest.approx(0.0, abs=1e-12)
        assert q0 == pytest.approx(0.0, abs=1e-12)

    def test_df_arithmetic(self):
        # 4 observed source states, 3 observed destination states
        s = [(i, j) for i in (-2, -1, 0, 1) for j in (0, 1, 2)]
        c = build_count_tensor(*series(*s), 2, SPACE)
        f = estimate_frequencies(c)
        ((_lr, _q, df0),) = zero_order_statistics(f, c)
        assert df0 == 6

    def test_truncation_invariance(self):
        # relabeling through unobserved states changes nothing
        journeys = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]
        a = build_count_tensor(*series(*journeys), 2, SPACE)
        shifted = [tuple(5 * d - 3 for d in j) for j in journeys]
        b = build_count_tensor(*series(*shifted), 2, SPACE)
        (ra,) = zero_order_statistics(estimate_frequencies(a), a)
        (rb,) = zero_order_statistics(estimate_frequencies(b), b)
        assert ra == pytest.approx(rb)

    def test_random_counts_match_oracle(self):
        space = StateSpace(2)
        spec = ChainSpec(
            space, 2, 1,
            np.full(5, 0.2), seed=17,
            matrices=(np.array([
                [0.5, 0.2, 0.1, 0.1, 0.1],
                [0.1, 0.5, 0.2, 0.1, 0.1],
                [0.1, 0.1, 0.5, 0.2, 0.1],
                [0.1, 0.1, 0.2, 0.5, 0.1],
                [0.2, 0.1, 0.1, 0.1, 0.5],
            ]),),
        )
        c = build_count_tensor(*sampled(spec, 400), 2, SPACE)
        f = estimate_frequencies(c)
        (got,) = zero_order_statistics(f, c)
        expect = direct_summation_zero_order(c)
        assert got[0] == pytest.approx(expect[0], abs=1e-10)
        assert got[1] == pytest.approx(expect[1], abs=1e-10)
        assert got[2] == expect[2]


class TestFirstOrderStatistics:
    def test_hand_case(self):
        c = build_count_tensor(*series((0, 0, 0), (0, 0, 0), (1, 0, 1), (1, 0, 1)), 3, SPACE)
        f = estimate_frequencies(c)
        ((lr1, q1, df1),) = first_order_statistics(f, c)
        assert q1 == pytest.approx(2.0, abs=1e-12)
        assert lr1 == pytest.approx(8 * math.log(2), abs=1e-12)
        assert df1 == 1

    def test_exact_first_order_null_gives_zero(self):
        # p(j | h, i) == p(j | i): h has no effect
        s = []
        for h in (0, 1):
            for i in (0, 1):
                s += [(h, i, 0), (h, i, 1)]
        c = build_count_tensor(*series(*s), 3, SPACE)
        f = estimate_frequencies(c)
        ((lr1, q1, _df),) = first_order_statistics(f, c)
        assert lr1 == pytest.approx(0.0, abs=1e-12)
        assert q1 == pytest.approx(0.0, abs=1e-12)

    def test_df_arithmetic(self):
        # |A(t-2)|=3, |A(t-1)|=2, |A(t)|=4 -> df1 = 2*2*3 = 12
        s = [(h, i, j) for h in (0, 1, 2) for i in (0, 1) for j in (0, 1, 2, 3)]
        c = build_count_tensor(*series(*s), 3, SPACE)
        f = estimate_frequencies(c)
        assert first_order_statistics(f, c)[0][2] == 12


# The dense per-station algorithm the order test ran before it moved to the
# observed cells of one count pass per train: k^3 tallies, frequencies and
# statistics for one station. It is the oracle of the property below.

def dense_tally(idx, order, k):
    """Dense counts of the last `order` state-index columns, shape (k,) * order."""
    shape = (k,) * order
    if idx.shape[1] < order:
        return np.zeros(shape, dtype=np.int64)
    flat = np.ravel_multi_index(tuple(idx[:, -order:].T), shape)
    return np.bincount(flat, minlength=k**order).reshape(shape)


def dense_conditional(n):
    """n divided by its sum over the last axis; rows summing to zero are NaN."""
    rows = n.reshape(-1, n.shape[-1])
    tot = rows.sum(axis=1)
    defined = tot > 0
    p = np.full(rows.shape, np.nan)
    p[defined] = rows[defined] / tot[defined, None]
    return p.reshape(n.shape)


def dense_lr_q(n, p, p_null, tot):
    obs = n > 0
    p_null = np.broadcast_to(p_null, n.shape)[obs]
    p = p[obs]
    lr = (2.0 * n[obs] * np.log(p / p_null)).sum()
    q = (np.broadcast_to(tot, n.shape)[obs] * (p - p_null) ** 2 / p_null).sum()
    return float(lr), float(q)


def dense_zero_order(n2, p1, p2):
    row_tot = n2.sum(axis=1)
    rows = row_tot > 0
    n = n2[rows]
    lr, q = dense_lr_q(n, p2[rows], p1, row_tot[rows, None])
    df = (np.count_nonzero(rows) - 1) * (np.count_nonzero(n.any(axis=0)) - 1)
    return lr, q, int(df)


def dense_first_order(n3, p2, p3):
    pair_tot = n3.sum(axis=2)
    pairs = pair_tot > 0
    n = n3[pairs]
    _h, i = np.nonzero(pairs)
    lr, q = dense_lr_q(n, p3[pairs], p2[i], pair_tot[pairs, None])
    sup_h = np.count_nonzero(pairs.any(axis=1))
    sup_i = np.count_nonzero(pairs.any(axis=0))
    sup_j = np.count_nonzero(n.any(axis=0))
    return lr, q, int((sup_h - 1) * sup_i * (sup_j - 1))


def dense_order_test(delays, lengths, t, space):
    """The row fields of station t: lr0, q0, df0, lr1, q1, df1."""
    idx = space.index(delays[lengths >= t, max(t - 3, 0):t])
    n1, n2, n3 = (dense_tally(idx, order, space.cardinality) for order in (1, 2, 3))
    if t < 2 or not n2.any():
        return (None,) * 6
    p1, p2, p3 = (dense_conditional(n) for n in (n1, n2, n3))
    lr0, q0, df0 = dense_zero_order(n2, p1, p2)
    lr1 = q1 = df1 = None
    if t >= 3 and n3.any():
        lr1, q1, df1 = dense_first_order(n3, p2, p3)
    return lr0, q0, df0, lr1, q1, df1


def dense_ladders(fields, alpha1, alpha2):
    """Each station's LR and Q ladders from its `dense_order_test` fields, all
    decided by one `_ladders` call on the (2, n) rows of LR and Q; a missing
    statistic reads 0 with df 0."""
    lr0, q0, df0, lr1, q1, df1 = (np.array([0 if x is None else x for x in column])
                                  for column in zip(*fields))
    (lr_h0, q_h0), (lr_h1, q_h1) = _ladders(np.array([lr0, q0], dtype=float), df0.astype(np.int64),
                                            np.array([lr1, q1], dtype=float), df1.astype(np.int64),
                                            alpha1, alpha2)
    return [{"LR": [a, b], "Q": [c, d]} if f[2] is not None else
            {"LR": ["untestable", None], "Q": ["untestable", None]}
            for f, a, b, c, d in zip(fields, lr_h0, lr_h1, q_h0, q_h1)]


@st.composite
def ragged_trains(draw):
    """A state space, one train's journeys of mixed lengths, and levels.

    Delays come from a window of the space, so cells repeat; the stations run
    two past the longest journey, so some are reached by no series, the last
    reached ones often by one, and the first ones by many."""
    space = StateSpace(draw(st.sampled_from([1, 2, 15])))
    reach = draw(st.integers(0, space.n_max))
    journeys = draw(st.lists(
        st.lists(st.integers(-reach, reach), min_size=1, max_size=7), max_size=40))
    levels = draw(st.sampled_from([(0.05, 0.05), (0.5, 0.9), (0.2, 0.01)]))
    return space, journeys, levels


class TestDenseOracle:
    @settings(max_examples=150, deadline=None)
    @given(ragged_trains())
    def test_every_station_equals_dense_oracle(self, drawn):
        space, journeys, (alpha1, alpha2) = drawn
        delays, lengths = series(*journeys)
        stations = range(1, lengths.max(initial=0) + 3)
        counts = build_count_tensor(delays, lengths, stations, space)
        config = RunConfig(alpha1=alpha1, alpha2=alpha2)
        rows = markov_property_test(counts, config)
        assert [r["t"] for r in rows] == list(stations)
        every = [dense_order_test(delays, lengths, t, space) for t in stations]
        for t, row, fields, ladders in zip(stations, rows, every, dense_ladders(every, alpha1, alpha2)):
            got = tuple(row[k] for k in ("lr0", "q0", "df0", "lr1", "q1", "df1"))
            assert got == fields, t  # bit-equal, not approximately
            assert row["verdicts"] == ladders, t
            assert (row["alpha1"], row["alpha2"]) == (alpha1, alpha2), t
            # the row is what order.json holds: it survives a JSON round trip
            assert json.loads(json.dumps(row)) == row, t
            # a one-station count pass gives the same row
            (alone,) = markov_property_test(build_count_tensor(delays, lengths, t, space), config)
            assert alone == row, t
        recount = {name: {f"reject_h0_{k}": sum(r["verdicts"][name][k] == "rejected" for r in rows)
                          for k in (0, 1)} for name in ("LR", "Q")}
        assert aggregate_reports(rows) == {
            "total_stations": len(rows), "alpha1": alpha1, "alpha2": alpha2, "statistics": recount}


class TestMarkovPropertyTest:
    def test_hand_case_not_rejected(self):
        c = build_count_tensor(*series((0, 0), (0, 0), (1, 1), (1, 1)), 2, SPACE)
        (row,) = markov_property_test(c, RunConfig(alpha1=0.05))
        # q0 = 2 < 3.841 at df = 1
        assert row["verdicts"]["Q"] == ["not_rejected", None]

    def test_first_order_chain_detected(self):
        space = StateSpace(1)
        diag = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        spec = ChainSpec(
            space, 3, 1, np.array([1 / 3, 1 / 3, 1 / 3]), seed=23,
            matrices=(diag, diag),
        )
        c = build_count_tensor(*sampled(spec, 10_000), 3, SPACE)
        (row,) = markov_property_test(c, RunConfig())
        assert row["verdicts"]["Q"] == ["rejected", "not_rejected"]
        assert row["verdicts"]["LR"] == ["rejected", "not_rejected"]

    def test_degenerate_support_untestable(self):
        c = build_count_tensor(*series((0, 0), (0, 0)), 2, SPACE)
        assert markov_property_test(c, RunConfig())[0]["verdicts"]["Q"][0] == "untestable"

    def test_no_rows_untestable(self):
        c = build_count_tensor(*series(), 2, SPACE)
        assert markov_property_test(c, RunConfig())[0]["verdicts"]["Q"][0] == "untestable"

    def test_statistics_agree_near_null(self):
        # LR and Q coincide to first order; their relative gap shrinks with
        # the size of the departure from independence. Use exact expected
        # counts so the comparison is deterministic.
        base = np.array([0.5, 0.3, 0.2])
        bump_dirs = np.array(
            [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
        )
        gaps = []
        for eps in (0.05, 0.01, 0.002):
            joint = (base[None, :] + eps * bump_dirs) / 3.0
            n2 = 10_000.0 * joint  # states -1..1
            none = np.zeros(0, dtype=np.int64)
            c = CountTensor(np.array([2]), n2.sum(axis=0)[None], n2[None], none, none)
            f = estimate_frequencies(c)
            ((lr0, q0, _),) = zero_order_statistics(f, c)
            gaps.append(abs(q0 - lr0) / q0)
        assert gaps[0] > gaps[1] > gaps[2]


class TestReporting:
    def test_report_roundtrips_to_dict(self):
        c = build_count_tensor(*series((0, 0), (0, 0), (1, 1), (1, 1)), 2, SPACE)
        (row,) = markov_property_test(c, RunConfig())
        assert json.loads(json.dumps(row)) == row
        assert row["t"] == 2 and row["df0"] == 1
        assert row["verdicts"]["Q"][0] == "not_rejected"

    def test_aggregate_shape(self):
        counts = build_count_tensor(*series((0, 0), (0, 0), (1, 1), (1, 1)), 2, SPACE)
        rows = markov_property_test(counts, RunConfig())
        agg = aggregate_reports(rows)
        assert agg["total_stations"] == 1
        assert agg["statistics"]["Q"] == {"reject_h0_0": 0, "reject_h0_1": 0}
        assert agg["alpha1"] == 0.05
