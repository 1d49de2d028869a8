import collections
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railmc.core import (
    StateSpace,
    build_count_tensor,
    check_transition_matrix,
    context_totals,
    estimate_frequencies,
)
from railmc.synth import ChainSpec, sample_delays


SPACE = StateSpace(15)


def series(*journeys):
    """Journeys of mixed lengths as one train's zero-padded delay array plus lengths."""
    lengths = np.array([len(j) for j in journeys], dtype=np.int64)
    delays = np.zeros((len(journeys), lengths.max(initial=0)), dtype=np.int64)
    for row, journey in zip(delays, journeys):
        row[:len(journey)] = journey
    return delays, lengths


def sampled(spec, count):
    """`count` full journeys drawn from `spec`, as a delay array plus lengths."""
    return sample_delays(spec, count), np.full(count, spec.length)


def cells(n):
    """Positive cells of a dense tally as {delay tuple: count}.

    The state space is read off the array shape (k = 2N + 1)."""
    n_max = (n.shape[0] - 1) // 2
    return {tuple(int(i) - n_max for i in ix): n[ix].item() for ix in zip(*np.nonzero(n))}


def cells3(counts, s=0, values=None):
    """The observed n_hij cells of station position s as {(h, i, j) delays: count},
    or {...: value} for a vector of `values` aligned with the cells."""
    n_max = (counts.n1.shape[1] - 1) // 2
    values = counts.n3 if values is None else values
    return {
        (h - n_max, i - n_max, j - n_max): v
        for (at, h, i, j), v in zip(zip(*(x.tolist() for x in counts.cells())), values.tolist())
        if at == s
    }


def check_aggregation(c):
    """The count-aggregation relations over the contributing series: counts are
    positive, n_j(t) = sum_i n_ij(t) for t >= 2 and n_ij(t) = sum_h n_hij(t) for t >= 3."""
    assert (c.n1 >= 0).all() and (c.n2 >= 0).all() and (c.n3 > 0).all()
    assert np.array_equal(np.unique(c.n3_cells), c.n3_cells)  # sorted, no repeat
    s, _h, i, j = c.cells()
    n2_from_n3 = np.zeros_like(c.n2)
    np.add.at(n2_from_n3, (s, i, j), c.n3)
    for at, t in enumerate(c.stations.tolist()):
        if t >= 2:
            assert np.array_equal(c.n2[at].sum(axis=0), c.n1[at])
        if t >= 3:
            assert np.array_equal(n2_from_n3[at], c.n2[at])
        else:
            assert not n2_from_n3[at].any()


@st.composite
def series_sets(draw):
    """A state space, a group of journeys of mixed lengths on it, and a station."""
    n_max = draw(st.integers(1, 4))
    journeys = st.lists(st.integers(-n_max, n_max), min_size=1, max_size=6)
    return StateSpace(n_max), draw(st.lists(journeys, max_size=40)), draw(st.integers(1, 7))


class TestStateSpace:
    def test_index_bijection(self):
        space = StateSpace(15)
        assert space.cardinality == 31
        for d in range(-15, 16):
            assert space.states()[space.index(d)] == d
        assert space.index(-15) == 0
        assert space.index(0) == 15
        assert space.index(15) == 30

    def test_bounds(self):
        space = StateSpace(3)
        with pytest.raises(ValueError):
            space.index(4)
        with pytest.raises(ValueError):
            StateSpace(0)
        assert np.clip(40, space.states()[0], space.states()[-1]) == 3
        assert np.clip(-40, space.states()[0], space.states()[-1]) == -3


class TestBuildCountTensor:
    def test_direct_tally(self):
        c = build_count_tensor(*series((0, 0), (0, 1)), 2, SPACE)
        assert cells(c.n2[0]) == {(0, 0): 1, (0, 1): 1}
        assert cells(c.n1[0]) == {(0,): 1, (1,): 1}
        assert cells3(c) == {}
        assert c.n1.shape == (1, 31) and c.n2.shape == (1, 31, 31)
        assert c.n3_cells.shape == c.n3.shape == (0,)

    def test_empty_set(self):
        c = build_count_tensor(*series(), 3, SPACE)
        assert not c.n1.any() and not c.n2.any() and not c.n3.any()

    def test_short_series_contribute_lower_orders_only(self):
        # length-1 series counts at t=1 but not at t=2
        c1 = build_count_tensor(*series((5,), (5, 6)), 1, SPACE)
        assert cells(c1.n1[0]) == {(5,): 2}
        c2 = build_count_tensor(*series((5,), (5, 6)), 2, SPACE)
        assert cells(c2.n1[0]) == {(6,): 1}
        assert cells(c2.n2[0]) == {(5, 6): 1}

    @pytest.mark.parametrize("t, kwargs, reason", [
        ([2, 0], {}, "station index must be >= 1, got 0"),
        (2, {"series_train": np.zeros(2, dtype=np.int64)}, "series_train and station_train go together"),
    ], ids=["station_below_1", "series_train_alone"])
    def test_bad_arguments_rejected(self, t, kwargs, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            build_count_tensor(*series((0, 0), (0, 1)), t, SPACE, **kwargs)

    def test_out_of_domain_delay_rejected(self):
        # -4 would index row -1, the last row, without an error
        with pytest.raises(ValueError, match="delay -4"):
            build_count_tensor(*series((0, 0, 0), (0, -4, 1)), 3, StateSpace(3))

    @settings(max_examples=80, deadline=None)
    @given(series_sets())
    def test_matches_independent_recount_oracle(self, drawn):
        space, journeys, t = drawn
        c = build_count_tensor(*series(*journeys), t, space)
        check_aggregation(c)
        # one pass over stations 1..8 holds the same counts at t
        every = build_count_tensor(*series(*journeys), range(1, 9), space)
        check_aggregation(every)
        # independent single-pass tally
        n1 = collections.Counter()
        n2 = collections.Counter()
        n3 = collections.Counter()
        for d in journeys:
            if len(d) >= t:
                n1[(d[t - 1],)] += 1
                if t >= 2:
                    n2[(d[t - 2], d[t - 1])] += 1
                if t >= 3:
                    n3[(d[t - 3], d[t - 2], d[t - 1])] += 1
        for tally, at in ((c, 0), (every, t - 1)):
            assert dict(n1) == cells(tally.n1[at])
            assert dict(n2) == cells(tally.n2[at])
            assert dict(n3) == cells3(tally, at)

    def test_total_count_equals_long_enough_series(self):
        journeys = [(0,), (0, 1), (1, 1, 1), (0, 0, 1, 1)]
        for t in (1, 2, 3, 4):
            c = build_count_tensor(*series(*journeys), t, SPACE)
            assert c.n1.sum() == sum(1 for x in journeys if len(x) >= t)

    def test_pair_counts_consistent_with_n3(self):
        c = build_count_tensor(*series((0, 0, 0), (0, 0, 1), (1, 0, 1)), 3, SPACE)
        pair_tot = collections.Counter()
        for (h, i, _j), n in cells3(c).items():
            pair_tot[(h, i)] += n
        assert dict(pair_tot) == {(0, 0): 2, (1, 0): 1}
        # context_totals gives each cell its pair's total
        assert cells3(c, values=context_totals(c)) == {
            (0, 0, 0): 2, (0, 0, 1): 2, (1, 0, 1): 1}


class TestEstimateFrequencies:
    def test_ratio_row(self):
        c = build_count_tensor(*series((0, -1), (0, -1), (0, 1), (0, 1)), 2, SPACE)
        f = estimate_frequencies(c)
        assert cells(f.p2[0, SPACE.index(0)]) == {(-1,): 0.5, (1,): 0.5}

    def test_zero_row_undefined(self):
        # an unobserved row is NaN throughout; an observed row's unseen cells are 0
        c = build_count_tensor(*series((0, 1)), 2, SPACE)
        f = estimate_frequencies(c)
        assert np.isnan(f.p2[0, SPACE.index(1)]).all()  # state 1 never seen at t-1
        assert f.p2[0, SPACE.index(0), SPACE.index(0)] == 0.0

    def test_defined_rows_are_exactly_support(self):
        c = build_count_tensor(*series((0, 1), (2, 1), (2, 2)), 2, SPACE)
        f = estimate_frequencies(c)
        defined = ~np.isnan(f.p2[0]).all(axis=1)
        assert set(SPACE.states()[defined]) == {0, 2}
        assert set(SPACE.states()[f.p1[0] > 0]) == {1, 2}

    def test_rows_sum_to_one(self):
        space = StateSpace(2)
        spec = ChainSpec(
            space,
            3,
            1,
            np.full(5, 0.2),
            seed=3,
            matrices=tuple(np.full((5, 5), 0.2) for _ in range(2)),
        )
        c = build_count_tensor(*sampled(spec, 500), 3, space)
        f = estimate_frequencies(c)
        assert abs(f.p1.sum() - 1.0) < 1e-12
        # the observed p_hij cells, as dense rows over j per (h, i)
        _s, h, i, j = c.cells()
        p3 = np.full((space.cardinality,) * 3, np.nan)
        p3[h, i] = 0.0
        p3[h, i, j] = f.p3
        for p in (f.p2, p3):
            rows = p.reshape(-1, space.cardinality)
            defined = rows[~np.isnan(rows).all(axis=1)]
            assert len(defined) and np.abs(defined.sum(axis=1) - 1.0).max() < 1e-12

    def test_monte_carlo_convergence(self):
        space = StateSpace(1)
        truth = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        spec = ChainSpec(
            space, 2, 1, np.array([1 / 3, 1 / 3, 1 / 3]), seed=11, matrices=(truth,)
        )
        c = build_count_tensor(*sampled(spec, 10_000), 2, space)
        f = estimate_frequencies(c)
        assert np.abs(f.p2[0] - truth).max() < 0.05

    def test_permutation_invariance(self):
        s = [(0, 1, 0), (1, 1, 1), (0, 0, 1), (1, 0, 0)]
        shuffled = s[:]
        random.Random(5).shuffle(shuffled)
        ca = build_count_tensor(*series(*s), 3, SPACE)
        cb = build_count_tensor(*series(*shuffled), 3, SPACE)
        a, b = estimate_frequencies(ca), estimate_frequencies(cb)
        assert np.array_equal(ca.n3_cells, cb.n3_cells)
        for pa, pb in ((a.p1, b.p1), (a.p2, b.p2), (a.p3, b.p3)):
            assert np.array_equal(pa, pb, equal_nan=True)


class TestCheckTransitionMatrix:
    def test_accepts_row_stochastic(self):
        space = StateSpace(1)
        check_transition_matrix(np.array([[[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]]]), space)

    @pytest.mark.parametrize("p, reason", [
        (np.eye(5), r"shape \(5, 5\), expected \(3, 3\)"),
        (np.array([[np.nan] * 3, [0, 1, 0], [0, 0, 1]]), "NaN"),
        (np.array([[-0.5, 1.5, 0], [0, 1, 0], [0, 0, 1]]), "negative"),
        (np.array([[1, 0, 0], [0, 1, 0], [0, 0.5, 0.4]]), "row 2 sums to"),
    ])
    def test_rejects(self, p, reason):
        with pytest.raises(ValueError, match=reason):
            check_transition_matrix(np.asarray(p, dtype=float)[None], StateSpace(1))
