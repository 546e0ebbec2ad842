import numpy as np
import pytest

from latent_ising import (
    PairSamples,
    PairwiseMarginal,
    build_encoder,
    em_fit,
    log_likelihood,
)
from latent_ising.pairwise_em import em_iterates


def _uniform_pair(rng, n, rho):
    from scipy.stats import norm

    y1 = rng.standard_normal(n)
    y2 = rho * y1 + np.sqrt(1 - rho * rho) * rng.standard_normal(n)
    return norm.cdf(y1), norm.cdf(y2)


def test_pairwise_marginal_domain_and_table():
    m = PairwiseMarginal(0.6, 0.3, 0.25)
    assert m.domain() == (0.0, 0.3)
    table = m.table()
    assert table.sum() == pytest.approx(1.0)
    assert table[1, 1] == 0.25
    assert table[1, 0] == pytest.approx(0.35)
    assert table[0, 1] == pytest.approx(0.05)
    m.validate()
    with pytest.raises(ValueError):
        PairwiseMarginal(0.6, 0.3, 0.5).validate()


def test_pair_samples_validation():
    with pytest.raises(ValueError):
        PairSamples(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        PairSamples(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PairSamples(np.array([1.0]), np.array([1.0, 2.0]))


def test_median_step_em_is_frequency_count_in_one_iteration():
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=200)
    x2 = np.where(rng.uniform(size=200) < 0.6, x1, rng.normal(size=200))
    enc1 = build_encoder("median-step", x1)
    enc2 = build_encoder("median-step", x2)
    s1 = np.asarray(enc1.encode(x1))
    s2 = np.asarray(enc2.encode(x2))
    freq = float(np.mean(s1 * s2))
    lo, hi = max(0, enc1.p1 + enc2.p1 - 1), min(enc1.p1, enc2.p1)
    assert lo < freq < hi  # interior case

    pair = PairSamples(x1, x2)
    one_step = em_fit(pair, enc1, enc2, max_iter=1)
    converged = em_fit(pair, enc1, enc2)
    assert one_step.p_ij11 == pytest.approx(freq, abs=1e-9)
    assert converged.p_ij11 == pytest.approx(freq, abs=1e-9)


def test_median_step_frequency_for_any_interior_init():
    rng = np.random.default_rng(1)
    x1 = rng.normal(size=150)
    x2 = 0.5 * x1 + rng.normal(size=150)
    enc1 = build_encoder("median-step", x1)
    enc2 = build_encoder("median-step", x2)
    s1, s2 = np.asarray(enc1.encode(x1)), np.asarray(enc2.encode(x2))
    freq = float(np.mean(s1 * s2))
    lo, hi = max(0, enc1.p1 + enc2.p1 - 1), min(enc1.p1, enc2.p1)
    pair = PairSamples(x1, x2)
    for init in np.linspace(lo + 0.01, hi - 0.01, 5):
        fit = em_fit(pair, enc1, enc2, init=float(init), max_iter=1)
        assert fit.p_ij11 == pytest.approx(freq, abs=1e-9)


@pytest.mark.parametrize("kind", ["cdf", "median-step"])
def test_em_iterates_with_codes_follows_the_same_trajectory(kind):
    rng = np.random.default_rng(4)
    x1, x2 = _uniform_pair(rng, 500, 0.6)
    enc1, enc2 = build_encoder(kind, x1), build_encoder(kind, x2)
    pair = PairSamples(x1, x2)
    codes = (enc1.encode(x1), enc2.encode(x2))
    plain = list(em_iterates(pair, enc1, enc2))
    coded = list(em_iterates(pair, enc1, enc2, codes=codes))
    assert len(plain) > 2
    assert coded == plain
    assert em_fit(pair, enc1, enc2, codes=codes) == plain[-1]
    for bad in ((codes[0][:-1], codes[1]), (codes[0], codes[1][:, None])):
        with pytest.raises(ValueError, match="shape of the samples"):
            list(em_iterates(pair, enc1, enc2, codes=bad))


def test_independent_data_near_fixed_point():
    rng = np.random.default_rng(2)
    x1 = rng.uniform(size=10_000)
    x2 = rng.uniform(size=10_000)
    enc1 = build_encoder("cdf", x1)
    enc2 = build_encoder("cdf", x2)
    fit = em_fit(PairSamples(x1, x2), enc1, enc2)
    assert abs(fit.p_ij11 - 0.25) <= 0.02


def test_comonotone_data_saturates_at_upper_bound():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=10_000)
    enc1 = build_encoder("cdf", x)
    enc2 = build_encoder("cdf", x)
    fit = em_fit(PairSamples(x, x), enc1, enc2)
    lo, hi = fit.domain()
    assert fit.p_ij11 == pytest.approx(hi, abs=1e-6)
    # grid search confirms the likelihood climbs toward the corner
    pair = PairSamples(x, x)
    grid = np.linspace(0.26, hi - 1e-9, 30)
    lls = [
        log_likelihood(pair, enc1, enc2, PairwiseMarginal(enc1.p1, enc2.p1, t))
        for t in grid
    ]
    assert np.all(np.diff(lls) > 0)


def test_em_monotone_likelihood_random_datasets():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(30, 400))
        rho = float(rng.uniform(-0.95, 0.95))
        u1, u2 = _uniform_pair(rng, n, rho)
        kind1, kind2 = rng.choice(["cdf", "median-step"], size=2)
        enc1 = build_encoder(kind1, u1 ** rng.uniform(0.4, 2.5))
        enc2 = build_encoder(kind2, u2 ** rng.uniform(0.4, 2.5))
        pair = PairSamples(u1 ** 1.0, u2 ** 1.0)
        prev = None
        for iters in range(1, 14):
            fit = em_fit(pair, enc1, enc2, max_iter=iters)
            ll = log_likelihood(pair, enc1, enc2, fit)
            if prev is not None:
                assert ll >= prev - 1e-12
            prev = ll


def test_symmetry_under_swap():
    rng = np.random.default_rng(5)
    u1, u2 = _uniform_pair(rng, 500, 0.4)
    enc1 = build_encoder("cdf", u1)
    enc2 = build_encoder("median-step", u2)
    fit_a = em_fit(PairSamples(u1, u2), enc1, enc2)
    fit_b = em_fit(PairSamples(u2, u1), enc2, enc1)
    assert fit_a.p_ij11 == pytest.approx(fit_b.p_ij11, abs=1e-12)


def test_outputs_inside_domain():
    rng = np.random.default_rng(6)
    for _ in range(25):
        rho = float(rng.uniform(-0.99, 0.99))
        u1, u2 = _uniform_pair(rng, 300, rho)
        enc1 = build_encoder("cdf", u1)
        enc2 = build_encoder("cdf", u2)
        fit = em_fit(PairSamples(u1, u2), enc1, enc2)
        lo, hi = fit.domain()
        assert lo < fit.p_ij11 < hi


def test_em_errors():
    rng = np.random.default_rng(7)
    u1, u2 = _uniform_pair(rng, 100, 0.2)
    enc1 = build_encoder("cdf", u1)
    enc2 = build_encoder("cdf", u2)
    with pytest.raises(ValueError, match="outside"):
        em_fit(PairSamples(u1, u2), enc1, enc2, init=0.9)


def test_log_likelihood_zero_at_independence():
    rng = np.random.default_rng(8)
    u1, u2 = _uniform_pair(rng, 200, 0.5)
    enc1 = build_encoder("cdf", u1)
    enc2 = build_encoder("cdf", u2)
    m = PairwiseMarginal(enc1.p1, enc2.p1, enc1.p1 * enc2.p1)
    assert log_likelihood(PairSamples(u1, u2), enc1, enc2, m) == pytest.approx(
        0.0, abs=1e-9
    )


def test_log_likelihood_favors_dependence_on_comonotone_data():
    rng = np.random.default_rng(9)
    x = rng.uniform(size=2000)
    enc1 = build_encoder("cdf", x)
    enc2 = build_encoder("cdf", x)
    pair = PairSamples(x, x)
    indep = PairwiseMarginal(enc1.p1, enc2.p1, enc1.p1 * enc2.p1)
    hi = min(enc1.p1, enc2.p1) - 1e-6
    strong = PairwiseMarginal(enc1.p1, enc2.p1, hi)
    assert log_likelihood(pair, enc1, enc2, strong) > log_likelihood(
        pair, enc1, enc2, indep
    )
