import numpy as np
import pytest

from latent_ising import (
    AlphaSearchConfig,
    GraphTopology,
    PairwiseMarginal,
    assemble,
    calibrate,
    deviation,
)

from oracles import random_consistent_marginals, random_tree_edges


def _tree_model(rng, n=8, alpha=1.0):
    edges = random_tree_edges(rng, n)
    _, ms = random_consistent_marginals(rng, edges, n)
    return assemble(GraphTopology(n, tuple(edges)), ms, alpha)


def _saturated_cycle(p11=0.5 - 1e-9, length=4):
    edges = tuple((i, (i + 1) % length) for i in range(length))
    ms = [PairwiseMarginal(0.5, 0.5, p11)] * length
    return assemble(GraphTopology(length, edges), ms, 1.0)


def test_deviation_exactly_zero_at_alpha_zero():
    rng = np.random.default_rng(0)
    model = _tree_model(rng, alpha=0.0)
    assert deviation(model) == 0.0


def test_deviation_tiny_on_tree_at_alpha_one():
    rng = np.random.default_rng(1)
    model = _tree_model(rng, alpha=1.0)
    assert deviation(model) <= 1e-8


def test_deviation_detects_saturated_cycle():
    model = _saturated_cycle()
    assert deviation(model) > 0.05


def test_calibrate_tree_returns_one():
    rng = np.random.default_rng(2)
    model = _tree_model(rng)
    assert calibrate(model) >= 0.99


def test_calibrate_saturated_cycle_interior():
    model = _saturated_cycle()
    alpha = calibrate(model)
    assert 0.0 < alpha < 1.0
    assert deviation(model.with_alpha(alpha)) <= 0.05


def test_synthetic_predicate_bisection():
    calls = []

    def fake_deviation(alpha):
        calls.append(alpha)
        return 0.0 if alpha <= 0.36 else 1.0

    alpha = calibrate(lambda a: a, AlphaSearchConfig(), deviation_fn=fake_deviation)
    assert alpha == pytest.approx(0.36, abs=0.01)
    assert len(calls) <= int(np.ceil(np.log2(1 / 0.01))) + 2 == 9


def test_bisection_bounded_even_for_nonmonotone_deviation():
    calls = []

    def weird_deviation(alpha):
        calls.append(alpha)
        # infeasible pocket strictly inside the feasible region
        return 1.0 if 0.3 < alpha <= 0.6 or alpha > 0.8 else 0.0

    alpha = calibrate(lambda a: a, AlphaSearchConfig(), deviation_fn=weird_deviation)
    assert len(calls) <= 9
    assert 0.0 <= alpha <= 1.0
    assert weird_deviation(alpha) == 0.0


def test_inconsistent_at_zero_raises():
    def broken_deviation(alpha):
        return 1.0

    with pytest.raises(ValueError, match="alpha=0"):
        calibrate(lambda a: a, AlphaSearchConfig(), deviation_fn=broken_deviation)


def test_config_validation():
    with pytest.raises(ValueError):
        AlphaSearchConfig(precision=0.0)
    with pytest.raises(ValueError):
        AlphaSearchConfig(tau=1.5)
    for precision in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="precision must be positive and finite"):
            AlphaSearchConfig(precision=precision)


def test_nonconvergence_counts_as_past_transition():
    model = _saturated_cycle()
    # at alpha = 1 the saturated cycle does not settle: deviation is inf
    assert deviation(model.with_alpha(1.0)) == np.inf
