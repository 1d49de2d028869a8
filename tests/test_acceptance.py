"""Acceptance gate: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or in
captured output on failure) in addition to the usual pytest verdict. Numeric
tolerances are pinned; loosening them to get green is not an option.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from railmc.cli import main as cli_main
from railmc.config import RunConfig
from railmc.core import StateSpace, build_count_tensor, estimate_frequencies
from railmc.evaluate import rwmse, total_score
from railmc.forecast import point_delay, propagate
from railmc.mctest import (
    chi_square_cdf,
    chi_square_quantile,
    first_order_statistics,
    markov_property_test,
    zero_order_statistics,
)
from railmc.pipeline import evaluate_store, train_bundle
from railmc.recovery import kde_recover
from railmc.synth import ChainSpec, near_diagonal_spec, sample_delays

from test_core import cells, cells3, sampled, series  # shared fixture helpers


def criterion(label):
    """Emit one pass/fail line per acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")
            return result

        return wrapper

    return deco


@criterion("score arithmetic reproduces the published total scores")
def test_score_arithmetic():
    assert total_score(0.56716, 0.57231, 2.88631) == pytest.approx(5.64684, abs=1e-5)
    assert total_score(0.48485, 0.56947, 3.04482) == pytest.approx(4.65101, abs=1e-4)


def _dense_zero_order(counts):
    n2 = cells(counts.n2[0])
    states = sorted({i for i, _ in n2} | {j for _, j in n2})
    pos = {s: k for k, s in enumerate(states)}
    n = np.zeros((len(states), len(states)))
    for (i, j), c in n2.items():
        n[pos[i], pos[j]] = c
    row, col = n.sum(axis=1), n.sum(axis=0)
    p_j = col / n.sum()
    lr = q = 0.0
    for a, b in itertools.product(range(len(states)), repeat=2):
        if n[a, b] > 0:
            p_ij = n[a, b] / row[a]
            lr += 2 * n[a, b] * math.log(p_ij / p_j[b])
            q += row[a] * (p_ij - p_j[b]) ** 2 / p_j[b]
    df = (int((row > 0).sum()) - 1) * (int((col > 0).sum()) - 1)
    return lr, q, df


def _dense_first_order(counts):
    n3 = cells3(counts)
    pair_tot = {}
    dest_tot = {}
    for (h, i, j), c in n3.items():
        pair_tot[(h, i)] = pair_tot.get((h, i), 0) + c
        dest_tot[(i, j)] = dest_tot.get((i, j), 0) + c
    row_tot = {}
    for (i, j), c in dest_tot.items():
        row_tot[i] = row_tot.get(i, 0) + c
    lr = q = 0.0
    for (h, i, j), c in n3.items():
        p_hij = c / pair_tot[(h, i)]
        p_ij = dest_tot[(i, j)] / row_tot[i]
        lr += 2 * c * math.log(p_hij / p_ij)
        q += pair_tot[(h, i)] * (p_hij - p_ij) ** 2 / p_ij
    h_support = len({h for h, _, _ in n3})
    i_support = len({i for _, i, _ in n3})
    j_support = len({j for _, _, j in n3})
    df = (h_support - 1) * i_support * (j_support - 1)
    return lr, q, df


@criterion("order-test statistic hand fixtures match the direct-summation oracle")
def test_statistic_fixtures():
    c2 = build_count_tensor(*series((0, 0), (0, 0), (1, 1), (1, 1)), 2, StateSpace(15))
    f2 = estimate_frequencies(c2)
    ((lr0, q0, df0),) = zero_order_statistics(f2, c2)
    assert q0 == pytest.approx(2.0, abs=1e-12)
    assert lr0 == pytest.approx(8 * math.log(2), abs=1e-12)
    assert df0 == 1
    o_lr, o_q, o_df = _dense_zero_order(c2)
    assert lr0 == pytest.approx(o_lr, abs=1e-12)
    assert q0 == pytest.approx(o_q, abs=1e-12)
    assert df0 == o_df

    c3 = build_count_tensor(*series((0, 0, 0), (0, 0, 0), (1, 0, 1), (1, 0, 1)), 3, StateSpace(15))
    f3 = estimate_frequencies(c3)
    ((lr1, q1, df1),) = first_order_statistics(f3, c3)
    assert q1 == pytest.approx(2.0, abs=1e-12)
    assert lr1 == pytest.approx(8 * math.log(2), abs=1e-12)
    assert df1 == 1
    o_lr1, o_q1, o_df1 = _dense_first_order(c3)
    assert lr1 == pytest.approx(o_lr1, abs=1e-12)
    assert q1 == pytest.approx(o_q1, abs=1e-12)
    assert df1 == o_df1


def _order0_spec(seed):
    space = StateSpace(1)
    marg = np.array([0.5, 0.3, 0.2])
    return ChainSpec(space, 5, 0, marg, seed=seed, marginals=(marg,) * 5)


def _order1_spec(seed):
    space = StateSpace(1)
    diag = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    return ChainSpec(
        space, 5, 1, np.full(3, 1 / 3), seed=seed, matrices=(diag,) * 4
    )


def _order2_spec(seed):
    space = StateSpace(1)
    diag = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    tensor = np.full((3, 3, 3), 0.1 / 3)
    for a, b in itertools.product(range(3), repeat=2):
        tensor[a, b, b] += 0.6
        tensor[a, b, a] += 0.3
    return ChainSpec(
        space, 5, 2, np.full(3, 1 / 3), seed=seed,
        matrices=(diag,), tensors=(tensor,) * 3,
    )


def _rejection_rates(make_spec, reps=500, m=2000, t=3):
    h00 = h01 = 0
    for rep in range(reps):
        spec = make_spec(1000 + rep)
        counts = build_count_tensor(*sampled(spec, m), t, spec.space)
        (row,) = markov_property_test(counts)
        h0_0, h0_1 = row["verdicts"]["Q"]
        h00 += h0_0 == "rejected"
        h01 += h0_1 == "rejected"
    return h00 / reps, h01 / reps


@criterion("order test holds its size on order-0 data and its power on order-1/2 data")
def test_order_test_power_and_size():
    from scipy.stats import binom

    reps = 500
    rate0, _ = _rejection_rates(_order0_spec, reps=reps)
    lo = binom.ppf(0.005, reps, 0.05) / reps
    hi = binom.ppf(0.995, reps, 0.05) / reps
    assert lo <= rate0 <= hi, f"size {rate0} outside 99% band [{lo}, {hi}]"

    rate1_h00, rate1_h01 = _rejection_rates(_order1_spec, reps=reps)
    assert rate1_h00 >= 0.95, f"order-1 power {rate1_h00}"
    assert rate1_h01 <= 0.10, f"order-1 false H0(1) rejection {rate1_h01}"

    _, rate2_h01 = _rejection_rates(_order2_spec, reps=reps)
    assert rate2_h01 >= 0.90, f"order-2 power {rate2_h01}"


@criterion("KDE recovery converges to the true matrix at 1e5 transitions")
def test_kde_recovery_convergence():
    space = StateSpace(15)
    spec = near_diagonal_spec(space, 2, 2.0, seed=42)
    delays, lengths = sampled(spec, 100_000)
    (mat,) = kde_recover(build_count_tensor(delays, lengths, 2, space), space)
    truth = spec.matrices[0]
    tv = 0.5 * np.abs(mat - truth).sum(axis=1).max()
    assert tv <= 0.1, f"max row TV {tv}"
    assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-9
    (again,) = kde_recover(build_count_tensor(delays, lengths, 2, space), space)
    assert np.array_equal(mat, again)


def _store_from(delays, n_max=15):
    return {
        "n_max": n_max,
        "trains": {
            "T001": {
                "stations": [[f"S{t:02d}", "V"] for t in range(1, delays.shape[1] + 1)],
                "series": [
                    {"date": f"d{n:05d}", "delays": row, "clipped": 0}
                    for n, row in enumerate(delays.tolist())
                ],
            }
        },
    }


@criterion("Gaussian-kernel recovery outscores every fill strategy on sparse data")
def test_recovery_ranking():
    space = StateSpace(15)
    train_store = _store_from(sample_delays(near_diagonal_spec(space, 5, 1.5, seed=22), 200))
    eval_store = _store_from(sample_delays(near_diagonal_spec(space, 5, 1.5, seed=7799), 1000))
    scores = {}
    for strategy in ("gaussian_kernel", "diagonal", "uniform", "gaussian_regression"):
        config = RunConfig(strategy=strategy, seed=7)
        bundle = train_bundle(train_store, config)
        report, _ = evaluate_store(
            eval_store, config, bundle=bundle, from_station=1, target=5
        )
        scores[strategy] = report.score
    kernel = scores.pop("gaussian_kernel")
    for strategy, score in scores.items():
        assert kernel >= score, f"kernel {kernel} < {strategy} {score}"


@criterion("propagation matches path enumeration and preserves normalization")
def test_propagation_oracle():
    space = StateSpace(1)
    rng = np.random.default_rng(33)

    def random_chain(steps):
        rows = rng.random((steps, 3, 3)) + 1e-3
        return rows / rows.sum(axis=2, keepdims=True)

    chain = random_chain(5)
    V = point_delay([0], space)
    (got,) = propagate(V, chain)
    want = np.zeros(3)
    for path in itertools.product(range(3), repeat=6):
        p = V[0, path[0]]
        for step, mat in enumerate(chain):
            p *= mat[path[step], path[step + 1]]
        want[path[-1]] += p
    assert np.abs(got - want).max() <= 1e-12

    for _ in range(1000):
        steps = int(rng.integers(1, 6))
        (out,) = propagate(V, random_chain(steps))
        assert abs(out.sum() - 1.0) <= 1e-9
        assert (out >= 0).all()


@criterion("RWMSE weights form a unit mass and the hand value is sqrt(1.8)")
def test_rwmse_validity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        actual = [int(d) for d in rng.integers(-15, 16, size=int(rng.integers(2, 60)))]
        small = sum(1 for d in actual if abs(d) <= 1)
        large = len(actual) - small
        if not (small and large):
            continue
        assert small * (0.2 / small) + large * (0.8 / large) == pytest.approx(1.0, abs=1e-12)
    assert rwmse([1.0, 7.0], [0, 5]) == pytest.approx(1.3416, abs=1e-4)
    assert rwmse([1.0, 7.0], [0, 5]) == pytest.approx(math.sqrt(1.8), abs=1e-12)


@criterion("chi-square cdf/quantile round-trip and match numerical integration")
def test_chi_square_functions():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = float(rng.uniform(0.01, 0.99))
        df = int(rng.integers(1, 150))
        assert chi_square_cdf(chi_square_quantile(p, df), df) == pytest.approx(p, abs=1e-9)

    def cdf_by_quadrature(x, df):
        def density(u):
            return math.exp((df / 2 - 1) * math.log(u) - u / 2) / (
                2 ** (df / 2) * math.gamma(df / 2)
            )

        return quad(density, 0.0, x, limit=200)[0]

    for x, df in ((3.841, 1), (11.070, 5), (18.307, 10)):
        assert chi_square_cdf(x, df) == pytest.approx(cdf_by_quadrature(x, df), abs=1e-3)
        assert chi_square_cdf(x, df) == pytest.approx(0.950, abs=1e-3)


@criterion("the full pipeline is byte-identical across two same-seed runs")
def test_end_to_end_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        tt, rz = d / "tt.csv", d / "rz.csv"
        store, report, bundle, scores = (
            d / n for n in ("store.json", "report.json", "bundle.json", "scores.json")
        )
        assert cli_main([
            "synth", "--series", "60", "--trains", "2", "--length", "4",
            "--out-timetable", str(tt), "--out-realization", str(rz), "--seed", "5",
        ]) == 0
        assert cli_main([
            "ingest", "--timetable", str(tt), "--realization", str(rz),
            "--out", str(store),
        ]) == 0
        assert cli_main(["test", "--store", str(store), "--out", str(report)]) == 0
        assert cli_main([
            "train", "--store", str(store), "--out", str(bundle), "--seed", "5",
        ]) == 0
        assert cli_main([
            "evaluate", "--store", str(store), "--bundle", str(bundle),
            "--target", "4", "--out", str(scores), "--seed", "5",
        ]) == 0
        outputs.append([p.read_bytes() for p in (tt, rz, store, report, bundle, scores)])
    assert outputs[0] == outputs[1]
