import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta as beta_dist
from scipy.stats import kstest, norm

from latent_ising import (
    BetaMarginal,
    EmpiricalCdf,
    EmpiricalMarginal,
    GraphTopology,
    generate_copula,
    grid_city,
    knn_predictor,
    median_predictor,
    pair_topology,
    regular_tree_topology,
    sample,
)
from latent_ising.copula_lab import exact_predictor_batch, latent_values
from oracles import degree, dense_exact_predictor, exact_predictor, random_tree_edges


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.7, 0.3), (2.0, 3.0), (0.5, 0.5)])
def test_beta_marginal_matches_scipy_stats(a, b):
    marginal = BetaMarginal(a, b)
    x = np.linspace(-0.5, 1.5, 20_001)  # includes points outside the support
    q = np.linspace(0.0, 1.0, 10_001)
    np.testing.assert_array_equal(marginal.cdf(x), beta_dist.cdf(x, a, b))
    np.testing.assert_array_equal(marginal.quantile(q), beta_dist.ppf(q, a, b))
    assert marginal.median() == beta_dist.ppf(0.5, a, b)


@pytest.mark.parametrize("a,b", [(-1.0, 2.0), (0.0, 0.0), (np.nan, 1.0),
                                 (1.0, np.inf)])
def test_beta_marginal_rejects_invalid_shape(a, b):
    with pytest.raises(ValueError, match="finite a, b > 0"):
        BetaMarginal(a, b)


def test_exact_predictor_gaussian_transforms_match_scipy_stats():
    # with beta(1, 1) marginals the predictor is ndtr / ndtri around a solve
    model = generate_copula(pair_topology(), seed=20, overrides={(0, 1): -0.5})
    x = np.linspace(0.0, 1.0, 2_001)[1:-1]
    corr = model.correlation[0, 1]
    got = [exact_predictor(model, {0: float(v)})[1] for v in x]
    np.testing.assert_array_equal(got, norm.cdf(corr * norm.ppf(x)))


def test_pair_override_precision_and_correlation():
    model = generate_copula(pair_topology(), seed=0, overrides={(0, 1): -0.6})
    np.testing.assert_allclose(model.precision, [[1, -0.6], [-0.6, 1]])
    assert model.correlation[0, 1] == pytest.approx(0.6)
    np.testing.assert_allclose(np.diag(model.correlation), 1.0)


def test_empty_edge_set_gives_identity():
    topo = GraphTopology(4, ())
    model = generate_copula(topo, seed=1)
    np.testing.assert_allclose(model.precision, np.eye(4))
    np.testing.assert_allclose(model.correlation, np.eye(4))


def test_strong_star_is_repaired_to_positive_definite():
    topo = GraphTopology(7, tuple((0, i) for i in range(1, 7)))
    overrides = {(0, i): 0.9 for i in range(1, 7)}
    model = generate_copula(topo, seed=2, overrides=overrides)
    assert np.linalg.eigvalsh(model.precision)[0] > 0.0
    # the repair shrank at least one spoke below the requested 0.9
    offs = [model.precision[0, i] for i in range(1, 7)]
    assert max(abs(v) for v in offs) < 0.9


def test_precision_support_matches_graph():
    rng_edges = ((0, 1), (1, 2), (2, 3))
    topo = GraphTopology(4, rng_edges)
    model = generate_copula(topo, seed=3)
    prec = model.precision
    np.testing.assert_allclose(np.diag(prec), 1.0)
    for i in range(4):
        for j in range(i + 1, 4):
            if (i, j) in rng_edges:
                assert 0.2 <= abs(prec[i, j]) <= 1.0
            else:
                assert prec[i, j] == 0.0
    np.testing.assert_allclose(prec, prec.T)


def test_sampling_is_deterministic_given_seed():
    model = generate_copula(pair_topology(), seed=4, overrides={(0, 1): -0.5})
    a = sample(model, 100, seed=11).values
    b = sample(model, 100, seed=11).values
    np.testing.assert_array_equal(a, b)


def test_beta11_sampling_is_uniform():
    model = generate_copula(pair_topology(), seed=5, overrides={(0, 1): -0.5})
    data = sample(model, 10_000, seed=6)
    for col in range(2):
        stat = kstest(data.values[:, col], "uniform").statistic
        assert stat <= 0.02


def test_skewed_beta_marginal_ks():
    topo = GraphTopology(1, ())
    model = generate_copula(topo, seed=7, marginals=[BetaMarginal(0.7, 0.3)])
    data = sample(model, 10_000, seed=8)
    stat = kstest(data.values[:, 0], lambda x: beta_dist.cdf(x, 0.7, 0.3)).statistic
    assert stat <= 0.02


def test_copula_correlation_matches_analytic():
    model = generate_copula(pair_topology(), seed=9, overrides={(0, 1): -0.9})
    data = sample(model, 100_000, seed=10)
    expected = 6 / np.pi * np.arcsin(0.45)
    observed = np.corrcoef(data.values.T)[0, 1]
    assert observed == pytest.approx(expected, abs=0.01)


def test_exact_predictor_bivariate_formula():
    model = generate_copula(pair_topology(), seed=11, overrides={(0, 1): -0.9})
    x1 = float(norm.cdf(1.0))  # observation whose latent coordinate is 1.0
    preds = exact_predictor(model, {0: x1})
    assert preds[1] == pytest.approx(float(norm.cdf(0.9)), abs=1e-9)
    assert preds[0] == x1  # observed node passes through


def test_exact_predictor_independent_returns_median():
    topo = GraphTopology(2, ())
    model = generate_copula(topo, seed=12, marginals=[BetaMarginal(2, 3)] * 2)
    preds = exact_predictor(model, {0: 0.9})
    assert preds[1] == pytest.approx(BetaMarginal(2, 3).median())


class _OwnMarginal:
    """A marginal that groups only with itself (hashed by identity)."""

    def __init__(self, marginal):
        self.marginal = marginal

    def cdf(self, x):
        return self.marginal.cdf(x)

    def quantile(self, q):
        return self.marginal.quantile(q)


def test_exact_predictor_groups_equal_marginals_by_value(monkeypatch):
    # every city node holds its own BetaMarginal object, with 2 distinct values
    topo, ring = grid_city()
    ring_set = set(ring)
    truth = generate_copula(
        topo, seed=31, corr_range=((-1.0, -0.5), (0.5, 1.0)),
        marginals=[BetaMarginal(2.0, 3.0) if i in ring_set else BetaMarginal(1.0, 1.0)
                   for i in range(topo.n_nodes)],
    )
    rng = np.random.default_rng(14)
    obs_idx = np.sort(
        [np.concatenate([ring[:2], rng.choice(np.setdiff1d(range(92), ring), 28,
                                              replace=False)])
         for _ in range(4)], axis=1)
    obs_vals = rng.uniform(0.05, 0.95, size=obs_idx.shape)
    one_by_one = dataclasses.replace(
        truth, marginals=tuple(_OwnMarginal(m) for m in truth.marginals))
    expected = exact_predictor_batch(one_by_one, obs_idx, obs_vals)[0]

    calls = Counter()
    for method in ("cdf", "quantile"):
        def counted(self, x, _method=method, _fn=getattr(BetaMarginal, method)):
            calls[_method, self.a, self.b] += 1
            return _fn(self, x)
        monkeypatch.setattr(BetaMarginal, method, counted)
    got = exact_predictor_batch(truth, obs_idx, obs_vals)[0]

    assert calls == {("cdf", 2.0, 3.0): 1, ("cdf", 1.0, 1.0): 1,
                     ("quantile", 2.0, 3.0): 1, ("quantile", 1.0, 1.0): 1}
    np.testing.assert_array_equal(got, expected)


def test_marginal_groups_are_computed_once_per_model():
    cdf = EmpiricalCdf(np.linspace(0.0, 1.0, 11))
    marginals = (BetaMarginal(1.0, 1.0), EmpiricalMarginal(cdf), BetaMarginal(1.0, 1.0),
                 EmpiricalMarginal(cdf), EmpiricalMarginal(EmpiricalCdf([0.2, 0.4])))
    truth = generate_copula(regular_tree_topology(2, 5), seed=3, marginals=marginals)
    group_of, reps = truth.marginal_groups
    np.testing.assert_array_equal(group_of, [0, 1, 0, 1, 2])
    assert reps == marginals[:2] + marginals[4:]
    assert truth.marginal_groups is truth.marginal_groups
    obs_idx = np.array([[0, 3], [1, 2]])
    obs_vals = np.array([[0.3, 0.6], [0.5, 0.1]])
    one_by_one = dataclasses.replace(
        truth, marginals=tuple(_OwnMarginal(m) for m in marginals))
    np.testing.assert_array_equal(exact_predictor_batch(truth, obs_idx, obs_vals)[0],
                                  exact_predictor_batch(one_by_one, obs_idx, obs_vals)[0])


def test_exact_predictor_requires_observations():
    model = generate_copula(pair_topology(), seed=13)
    with pytest.raises(ValueError):
        exact_predictor(model, {})


def _lab_truth(rng, kind):
    """A random truth on a tree, on a forest with several components and
    isolated nodes, or on a grid (the loopy path), with mixed beta
    marginals."""
    if kind == "grid":
        rows, cols = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        n = rows * cols
        edges = [(r * cols + c, r * cols + c + 1) for r in range(rows)
                 for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1)
                  for c in range(cols)]
    else:
        n = int(rng.integers(2, 13))
        edges = random_tree_edges(rng, n)
        if kind == "forest":
            edges = [e for e in edges if rng.random() < 0.6]
        edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
    shapes = [BetaMarginal(1.0, 1.0), BetaMarginal(2.0, 3.0), BetaMarginal(0.7, 1.5)]
    marginals = [shapes[i] for i in rng.integers(0, len(shapes), n)]
    return generate_copula(GraphTopology(n, tuple(edges)),
                           seed=int(rng.integers(2**31)), marginals=marginals)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["tree", "forest", "grid"]))
def test_exact_predictor_matches_dense_oracle(seed, kind):
    """Every k from 1 to n - 1, with up to two nodes in every observation
    set, against the dense path through the correlation matrix; batch rows
    equal one-row calls bit for bit."""
    rng = np.random.default_rng(seed)
    truth = _lab_truth(rng, kind)
    n = truth.n_nodes
    always = rng.permutation(n)[:int(rng.integers(0, min(2, n - 1) + 1))]
    rest = np.setdiff1d(np.arange(n), always)
    outcomes = sample(truth, 3, seed=int(rng.integers(2**31))).values
    for k in range(1, n):
        head = always[:k]
        obs_idx = np.sort([np.concatenate([head, rng.permutation(rest)[:k - len(head)]])
                           for _ in range(3)], axis=1)
        obs_vals = np.take_along_axis(outcomes, obs_idx, axis=1)
        got, _ = exact_predictor_batch(truth, obs_idx, obs_vals)
        np.testing.assert_allclose(got, dense_exact_predictor(truth, obs_idx, obs_vals),
                                   rtol=0, atol=1e-12)
        for r in range(3):
            one, _ = exact_predictor_batch(truth, obs_idx[r:r + 1], obs_vals[r:r + 1])
            np.testing.assert_array_equal(one, got[r:r + 1])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["tree", "forest", "grid"]))
def test_exact_predictor_warm_reveals_equal_cold_calls(seed, kind):
    """Down a reveal sequence, a call warm-started from the previous step
    and given the outcomes lifted once returns the cold call's bits."""
    rng = np.random.default_rng(seed)
    truth = _lab_truth(rng, kind)
    n = truth.n_nodes
    outcomes = sample(truth, 4, seed=int(rng.integers(2**31))).values
    latent = latent_values(truth, np.broadcast_to(np.arange(n), outcomes.shape), outcomes)
    reveal = np.array([rng.permutation(n) for _ in range(4)])
    state = None
    for k in range(1, n + 1):
        obs_idx = np.sort(reveal[:, :k], axis=1)
        obs_vals = np.take_along_axis(outcomes, obs_idx, axis=1)
        cold, _ = exact_predictor_batch(truth, obs_idx, obs_vals)
        warm, state = exact_predictor_batch(
            truth, obs_idx, obs_vals, np.take_along_axis(latent, obs_idx, axis=1), state)
        np.testing.assert_array_equal(warm, cold)


@pytest.mark.parametrize("cycle", [False, True])  # tree path, loopy path
def test_exact_predictor_stays_finite_at_the_edge_of_the_support(cycle):
    # beta(0.7, 0.3) samples round onto x = 1, whose CDF of 1 lifts to inf
    assert BetaMarginal(0.7, 0.3).quantile(1.0 - 1e-5) == 1.0
    edges = ((0, 1), (1, 2), (2, 3), (3, 4)) + (((4, 0),) if cycle else ())
    truth = generate_copula(GraphTopology(5, edges), seed=19,
                            marginals=[BetaMarginal(0.7, 0.3)] * 5)
    obs_idx = np.array([[1, 3], [1, 3]])
    obs_vals = np.array([[0.0, 0.5], [1.0, 0.5]])
    got, _ = exact_predictor_batch(truth, obs_idx, obs_vals)
    assert np.isfinite(got).all() and ((got >= 0.0) & (got <= 1.0)).all()
    assert np.isfinite(latent_values(truth, [[0, 1, 2, 3, 4]],
                                     [[0.0, 1.0, 0.5, 1.0, 0.0]])).all()


def test_exact_predictor_forest_means_use_the_precision():
    # the tree path never reads the correlation matrix
    truth = generate_copula(regular_tree_topology(3, 30), seed=16)
    obs_idx = np.array([[0, 4, 17], [2, 3, 29]])
    obs_vals = np.array([[0.2, 0.5, 0.9], [0.6, 0.1, 0.4]])
    expected, _ = exact_predictor_batch(truth, obs_idx, obs_vals)
    blind = dataclasses.replace(truth, correlation=np.full((30, 30), np.nan))
    np.testing.assert_array_equal(exact_predictor_batch(blind, obs_idx, obs_vals)[0],
                                  expected)


@pytest.mark.parametrize("obs_idx,obs_vals,warm,message", [
    ([[0, 5]], [[0.5, 0.5]], None, r"observed node id outside 0\.\.4"),
    ([[-1, 2]], [[0.5, 0.5]], None, r"observed node id outside 0\.\.4"),
    ([[1, 1]], [[0.5, 0.5]], None, "repeated observed node id in a row"),
    ([[2, 1]], [[0.5, 0.5]], None, "observed node ids not ascending in a row"),
    (np.zeros((1, 0), dtype=int), np.zeros((1, 0)), None,
     r"observation count 0 outside 1\.\.5"),
    ([list(range(6))], [[0.5] * 6], None, r"observation count 6 outside 1\.\.5"),
    ([[0, 2]], [[0.5]], None, r"observed values shaped \(1, 1\), node ids \(1, 2\)"),
    ([[0.0, 2.0]], [[0.5, 0.5]], None, "observed node ids must be integers"),
    ([0, 2], [0.5, 0.5], None, r"must be an \(R, k\) array"),
    ([[0, 2]], [[0.5, 0.5]], (np.zeros((1, 4)), np.zeros((1, 4))),
     r"warm state must be two \(1, 5\) arrays"),
    ([[0, 2]], [[0.5, 0.5]], (np.zeros((1, 5)),), r"warm state must be two"),
])
@pytest.mark.parametrize("n_edges", [4, 5])  # tree path, loopy path
def test_exact_predictor_rejects_malformed_rows(obs_idx, obs_vals, warm, message,
                                                n_edges):
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))[:n_edges]
    truth = generate_copula(GraphTopology(5, edges), seed=17)
    with pytest.raises(ValueError, match=message):
        exact_predictor_batch(truth, np.asarray(obs_idx), obs_vals, warm=warm)


def test_exact_predictor_rejects_misshaped_latent_values():
    truth = generate_copula(pair_topology(), seed=18)
    with pytest.raises(ValueError, match=r"latent values shaped \(1, 2\)"):
        exact_predictor_batch(truth, [[0]], [[0.5]], latent=[[0.0, 0.1]])


def test_knn_full_history_is_column_mean():
    rng = np.random.default_rng(14)
    history = rng.uniform(size=(40, 3))
    preds = knn_predictor(history, {0: 0.5}, k=40)
    assert preds[1] == pytest.approx(history[:, 1].mean())
    assert preds[2] == pytest.approx(history[:, 2].mean())


def test_knn_exact_row_match():
    rng = np.random.default_rng(15)
    history = rng.uniform(size=(30, 3))
    row = history[17]
    preds = knn_predictor(history, {0: row[0], 1: row[1]}, k=1)
    assert preds[2] == pytest.approx(row[2])


def test_knn_k_too_large():
    with pytest.raises(ValueError, match="history"):
        knn_predictor(np.zeros((5, 2)), {0: 0.0}, k=6)
    with pytest.raises(ValueError, match="at least 1"):
        knn_predictor(np.zeros((5, 2)), {0: 0.0}, k=0)


def test_median_predictor():
    topo = GraphTopology(3, ())
    marginals = [
        BetaMarginal(1, 1),
        BetaMarginal(0.5, 0.5),
        EmpiricalMarginal(EmpiricalCdf([1.0, 2.0, 7.0])),
    ]
    model = generate_copula(topo, seed=16, marginals=marginals)
    preds = median_predictor(model, [0, 1, 2])
    assert preds[0] == pytest.approx(0.5)
    assert preds[1] == pytest.approx(0.5)
    assert preds[2] == 2.0


def test_exact_predictor_dominates_on_l1():
    model = generate_copula(pair_topology(), seed=17, overrides={(0, 1): -0.7})
    data = sample(model, 4000, seed=18).values
    history = sample(model, 2000, seed=19)
    errs = {"exact": 0.0, "median": 0.0, "knn": 0.0}
    for row in data:
        obs = {0: float(row[0])}
        errs["exact"] += abs(exact_predictor(model, obs)[1] - row[1])
        errs["median"] += abs(median_predictor(model, [1])[1] - row[1])
        errs["knn"] += abs(knn_predictor(history, obs, k=50)[1] - row[1])
    assert errs["exact"] < errs["median"]
    assert errs["exact"] < errs["knn"]


def test_regular_tree_topology_shape():
    topo = regular_tree_topology(3, 100)
    assert topo.n_nodes == 100
    assert topo.n_edges == 99  # connected acyclic
    assert degree(topo, 0) == 3
    assert max(degree(topo, i) for i in range(100)) == 3


def test_regular_tree_rejects_degenerate_args():
    with pytest.raises(ValueError):
        regular_tree_topology(1, 10)
    with pytest.raises(ValueError):
        regular_tree_topology(3, 1)


def test_grid_city_line_graph_shape():
    topo, ring = grid_city()
    assert topo.n_nodes == 92   # 84 street segments + 8 ring segments
    assert topo.n_edges == 238  # pairs of segments sharing an intersection
    assert len(ring) == 8
    ring_set = set(ring)
    assert all(0 <= r < 92 for r in ring)
    # each ring segment touches at least one other segment
    for r in ring_set:
        assert degree(topo, r) >= 2
