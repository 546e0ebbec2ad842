import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_ising import EmpiricalCdf


def test_eval_counting():
    F = EmpiricalCdf([0.1, 0.4, 0.7, 0.9])
    assert F.evaluate(0.4) == 0.5
    assert F.evaluate(0.05) == 0.0
    assert F.evaluate(0.9) == 1.0


def test_single_sample():
    F = EmpiricalCdf([5])
    assert F.evaluate(4.9) == 0.0
    assert F.evaluate(5) == 1.0


def test_unsorted_input():
    F = EmpiricalCdf([3, 1, 2])
    assert F.evaluate(2) == pytest.approx(2 / 3)


def test_ties_accumulate_mass():
    F = EmpiricalCdf([1, 2, 2, 3])
    assert F.evaluate(2) == 0.75
    assert F.evaluate(1.99) == 0.25


def test_quantile_steps():
    F = EmpiricalCdf([0.1, 0.4, 0.7, 0.9])
    assert F.quantile(0.5) == 0.4
    assert F.quantile(1.0) == 0.9
    # brute-force scan of the step function for q = 0.51
    expected = min(s for s in F.sorted_samples if F.evaluate(s) >= 0.51)
    assert F.quantile(0.51) == expected == 0.7


def test_quantile_zero_returns_minimum():
    F = EmpiricalCdf([2.0, 5.0, 9.0])
    assert F.quantile(0.0) == 2.0


def test_median_conventions():
    assert EmpiricalCdf([1, 2, 3]).median() == 2
    assert EmpiricalCdf([1, 2, 3, 4]).median() == 2
    assert EmpiricalCdf([7]).median() == 7


def test_errors():
    with pytest.raises(ValueError, match="no samples"):
        EmpiricalCdf([])
    with pytest.raises(ValueError, match="invalid sample"):
        EmpiricalCdf([1.0, np.nan])
    with pytest.raises(ValueError, match="invalid sample"):
        EmpiricalCdf([np.inf])
    with pytest.raises(ValueError, match="invalid probability"):
        EmpiricalCdf([1.0]).quantile(1.5)
    with pytest.raises(ValueError, match="invalid probability"):
        EmpiricalCdf([1.0]).quantile(-0.1)
    with pytest.raises(ValueError, match="invalid probability"):
        EmpiricalCdf([1.0, 2.0]).quantile(np.nan)


def test_vectorized_paths():
    F = EmpiricalCdf([1, 2, 3, 4])
    np.testing.assert_allclose(F.evaluate(np.array([0.5, 2.0, 9.0])), [0, 0.5, 1])
    np.testing.assert_allclose(F.quantile(np.array([0.25, 0.5, 1.0])), [1, 2, 4])


@given(
    samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
    q=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_galois_property(samples, q):
    F = EmpiricalCdf(samples)
    x = F.quantile(q)
    assert F.evaluate(x) >= q or q == 0.0
    # every sample strictly below x has eval < q
    for s in F.sorted_samples:
        if s < x and q > 0.0:
            assert F.evaluate(s) < q
    assert F.quantile(F.evaluate(x)) <= x


@given(
    samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
    q1=st.floats(0.0, 1.0),
    q2=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_quantile_monotone(samples, q1, q2):
    F = EmpiricalCdf(samples)
    lo, hi = min(q1, q2), max(q1, q2)
    assert F.quantile(lo) <= F.quantile(hi)


@given(
    n=st.integers(1, 2000),
    distinct=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_quantile_matches_searchsorted_and_galois(n, distinct, seed):
    rng = np.random.default_rng(seed)
    # at most `distinct` values among n samples forces ties when n > distinct
    F = EmpiricalCdf(rng.integers(0, distinct, n) * 0.37 - 5.0)
    k = np.arange(n + 1) / n
    q = np.concatenate([
        [0.0, 1.0], k, np.nextafter(k, 0.0), np.nextafter(k, 1.0),
        rng.uniform(size=200),
    ])
    q = q[(q >= 0.0) & (q <= 1.0)]
    x = F.quantile(q)
    reference = F.sorted_samples[
        np.minimum(np.searchsorted(F._ranks, q, side="left"), n - 1)
    ]
    np.testing.assert_array_equal(x, reference)
    # evaluate is non-decreasing, so evaluate(y) >= q <=> y >= x holds for
    # every y once it holds at x and at the float just below x
    q, x = q[q > 0.0], x[q > 0.0]
    assert np.all(F.evaluate(x) >= q)
    assert np.all(F.evaluate(np.nextafter(x, -np.inf)) < q)


def test_round_trip_uniform_dkw_scale():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=100_000)
    F = EmpiricalCdf(x)
    grid = np.linspace(0, 1, 2001)
    assert np.max(np.abs(F.evaluate(grid) - grid)) <= 0.02


def test_eval_right_continuous_at_sample_points():
    F = EmpiricalCdf([1.0, 2.0, 2.0, 5.0])
    eps = 1e-12
    for s in np.unique(F.sorted_samples):
        assert F.evaluate(s) == F.evaluate(s + eps * max(1.0, abs(s)))
