import numpy as np
import pytest

from latent_ising import (
    EmpiricalCdf,
    build_decoder,
    build_encoder,
    conditional_cdfs,
    jeffrey_update,
    marginal_p1,
)
from latent_ising.coding import (
    DECODER_KINDS,
    BatchDecoder,
    BayesMedianStep,
    BayesQuadCdf,
    InverseCdf,
    bayes_quad_level,
    encode_training,
    median_step_level,
)

SQ2 = np.sqrt(2) / 2


class IdentityCdf:
    """Exact uniform[0,1] cdf; lets decoder formulas be checked analytically."""

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q < 0) or np.any(q > 1):
            raise ValueError("invalid probability")
        return float(q) if q.ndim == 0 else q

    def median(self):
        return 0.5


# --- encoders ----------------------------------------------------------------

def test_cdf_encoder_near_identity_on_uniform():
    rng = np.random.default_rng(0)
    enc = build_encoder("cdf", rng.uniform(size=100_000))
    assert enc.encode(0.3) == pytest.approx(0.3, abs=5e-3)


def test_median_step_encoder_threshold_closed_on_right():
    enc = build_encoder("median-step", [0.0, 0.25, 0.5, 0.75, 1.0])
    assert enc.threshold == 0.5
    assert enc.encode(0.49) == 0.0
    assert enc.encode(0.5) == 1.0


def test_cdf_encoder_counting():
    enc = build_encoder("cdf", [1, 2, 3])
    assert enc.encode(2) == pytest.approx(2 / 3)


def test_encode_rejects_nonfinite():
    enc = build_encoder("cdf", [1, 2, 3])
    with pytest.raises(ValueError):
        enc.encode(np.nan)


def test_marginal_p1_median_step():
    enc = build_encoder("median-step", [1, 2, 3, 4])
    assert enc.p1 == 0.75
    assert marginal_p1(enc, [1, 2, 3, 4]) == 0.75


def test_marginal_p1_cdf_uniform_half():
    rng = np.random.default_rng(1)
    enc = build_encoder("cdf", rng.uniform(size=100_000))
    assert enc.p1 == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("kind", ["cdf", "median-step"])
def test_encode_training_returns_the_codes_p1_averages(kind):
    samples = np.random.default_rng(2).normal(size=777)
    enc, codes = encode_training(kind, samples)
    np.testing.assert_array_equal(codes, enc.encode(samples))
    assert codes.dtype == float
    assert enc.p1 == marginal_p1(enc, samples) == build_encoder(kind, samples).p1


@pytest.mark.parametrize("kind", ["cdf", "median-step"])
def test_constant_samples_degenerate(kind):
    with pytest.raises(ValueError, match="degenerate"):
        build_encoder(kind, [2.0] * 10)


@pytest.mark.parametrize("kind", ["cdf", "median-step"])
def test_encode_monotone(kind):
    rng = np.random.default_rng(2)
    enc = build_encoder(kind, rng.normal(size=501))
    xs = np.sort(rng.normal(size=200))
    vals = enc.encode(xs)
    assert np.all(np.diff(vals) >= 0)


# --- conditional cdfs and the Jeffrey mixture --------------------------------

def test_conditional_cdfs_cdf_encoder_quarters():
    # continuous-limit values: F1 = F^2 and F0 = F(2-F) give 1/4 and 3/4
    # at the median
    grid = np.linspace(0.0005, 0.9995, 2001)
    enc = build_encoder("cdf", grid)
    cond = conditional_cdfs(enc)
    med = enc.cdf.median()
    assert cond.f1(med) == pytest.approx(0.25, abs=2e-3)
    assert cond.f0(med) == pytest.approx(0.75, abs=2e-3)


def test_conditional_cdfs_median_step_restriction():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=401)
    enc = build_encoder("median-step", samples)
    cond = conditional_cdfs(enc)
    above = np.sort(samples[samples >= enc.threshold])
    assert cond.f1(enc.threshold - 1e-9) == 0.0
    for x in np.quantile(samples, [0.55, 0.7, 0.9]):
        expected = np.searchsorted(above, x, side="right") / above.size
        assert cond.f1(x) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", ["cdf", "median-step"])
def test_mixture_identity(kind):
    rng = np.random.default_rng(4)
    samples = rng.gamma(2.0, size=1000)
    enc = build_encoder(kind, samples)
    cond = conditional_cdfs(enc)
    p1 = enc.p1
    mix = p1 * cond.f1(samples) + (1 - p1) * cond.f0(samples)
    np.testing.assert_allclose(mix, enc.cdf.evaluate(samples), atol=1e-12)


@pytest.mark.parametrize("kind", ["cdf", "median-step"])
def test_stochastic_ordering(kind):
    rng = np.random.default_rng(5)
    for _ in range(20):
        samples = rng.normal(size=rng.integers(11, 300)) ** 3
        enc = build_encoder(kind, samples)
        cond = conditional_cdfs(enc)
        F = enc.cdf.evaluate(samples)
        assert np.all(cond.f1(samples) <= F + 1e-12)
        assert np.all(F <= cond.f0(samples) + 1e-12)


def test_jeffrey_update_recovers_cdf_at_p1():
    rng = np.random.default_rng(6)
    samples = rng.normal(size=800)
    enc = build_encoder("cdf", samples)
    cond = conditional_cdfs(enc)
    mix = jeffrey_update(cond, enc.p1)
    np.testing.assert_allclose(
        mix.evaluate(samples), enc.cdf.evaluate(samples), atol=1e-12
    )


def test_jeffrey_update_extremes():
    rng = np.random.default_rng(7)
    enc = build_encoder("median-step", rng.normal(size=501))
    cond = conditional_cdfs(enc)
    xs = np.linspace(-3, 3, 50)
    np.testing.assert_allclose(jeffrey_update(cond, 1.0).evaluate(xs), cond.f1(xs))
    np.testing.assert_allclose(jeffrey_update(cond, 0.0).evaluate(xs), cond.f0(xs))


def test_jeffrey_half_close_to_cdf_for_cdf_encoder():
    # p1 is 1/2 up to discreteness, so b = 0.5 nearly restores F
    grid = np.linspace(0.0005, 0.9995, 2001)
    enc = build_encoder("cdf", grid)
    mix = jeffrey_update(conditional_cdfs(enc), 0.5)
    xs = np.linspace(0.01, 0.99, 99)
    assert np.max(np.abs(mix.evaluate(xs) - enc.cdf.evaluate(xs))) < 2e-3


# --- decoders ----------------------------------------------------------------

def test_bayes_quad_endpoints_analytic():
    dec = BayesQuadCdf(IdentityCdf())
    assert dec.decode(0.0) == pytest.approx(1 - SQ2, abs=1e-9)
    assert dec.decode(1.0) == pytest.approx(SQ2, abs=1e-9)


def test_bayes_median_step_endpoints_analytic():
    dec = BayesMedianStep(IdentityCdf())
    assert dec.decode(0.0) == pytest.approx(0.25, abs=1e-9)
    assert dec.decode(1.0) == pytest.approx(0.75, abs=1e-9)


def test_quad_level_limit_at_half():
    assert bayes_quad_level(0.5) == 0.5
    assert bayes_quad_level(0.5 + 1e-9) == pytest.approx(0.5, abs=1e-8)
    assert median_step_level(0.5) == 0.5


def test_bayes_quad_decode_half_is_median():
    rng = np.random.default_rng(8)
    enc = build_encoder("cdf", rng.normal(size=333))
    dec = build_decoder("bayes-quad", enc)
    assert dec.decode(0.5) == enc.cdf.median()


def test_inverse_cdf_decode():
    rng = np.random.default_rng(9)
    enc = build_encoder("cdf", rng.normal(size=333))
    dec = build_decoder("inverse-cdf", enc)
    assert dec.decode(0.37) == enc.cdf.quantile(0.37)
    assert dec.decode(0.5) == enc.cdf.median()


def test_contextless_prediction_is_median_odd_n():
    rng = np.random.default_rng(10)
    enc = build_encoder("cdf", rng.normal(size=501))
    dec = build_decoder("inverse-cdf", enc)
    assert dec.decode(enc.p1) == enc.cdf.median()


def test_bayes_mean_step_decoder():
    rng = np.random.default_rng(11)
    samples = rng.normal(size=400)
    enc = build_encoder("median-step", samples)
    cond = conditional_cdfs(enc)
    dec = build_decoder("bayes-mean-step", enc)
    assert dec.decode(1.0) == pytest.approx(cond.mean1)
    assert dec.decode(0.0) == pytest.approx(cond.mean0)
    assert dec.decode(0.3) == pytest.approx(0.3 * cond.mean1 + 0.7 * cond.mean0)


@pytest.mark.parametrize(
    "kind", ["inverse-cdf", "bayes-quad", "bayes-median-step", "bayes-mean-step"]
)
def test_decoders_monotone_and_in_support(kind):
    rng = np.random.default_rng(12)
    samples = rng.gamma(3.0, size=700)
    enc = build_encoder("median-step" if "step" in kind else "cdf", samples)
    dec = build_decoder(kind, enc)
    grid = np.linspace(0, 1, 1000)
    vals = np.array([dec.decode(b) for b in grid])
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals.min() >= samples.min() - 1e-12
    assert vals.max() <= samples.max() + 1e-12


def test_conservativeness_of_bayes_decoders():
    rng = np.random.default_rng(13)
    samples = rng.normal(size=800)
    cdf = EmpiricalCdf(samples)
    grid = np.linspace(0, 1, 401)

    quad_vals = [BayesQuadCdf(cdf).decode(b) for b in grid]
    assert min(quad_vals) >= cdf.quantile(1 - SQ2)
    assert max(quad_vals) <= cdf.quantile(SQ2)

    step_vals = [BayesMedianStep(cdf).decode(b) for b in grid]
    assert min(step_vals) >= cdf.quantile(0.25)
    assert max(step_vals) <= cdf.quantile(0.75)

    inv_vals = [InverseCdf(cdf).decode(b) for b in grid]
    assert min(inv_vals) == cdf.min
    assert max(inv_vals) == cdf.max


@pytest.mark.parametrize(
    "kind", ["inverse-cdf", "bayes-quad", "bayes-median-step", "bayes-mean-step"]
)
def test_decode_rejects_invalid_belief(kind):
    enc = build_encoder("median-step" if "step" in kind else "cdf", [1, 2, 3, 4, 5])
    dec = build_decoder(kind, enc)
    for b in (1.2, -0.1, np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match="invalid probability"):
            dec.decode(b)


@pytest.mark.parametrize("kind", ["cdf", "median-step"])
def test_encode_training_codes_with_ties(kind):
    # a tie's code is the count at or below it, the right end of its run
    samples = np.round(np.random.default_rng(3).normal(size=2001), 1)
    enc, codes = encode_training(kind, samples)
    assert len(np.unique(samples)) < 100
    np.testing.assert_array_equal(codes, np.asarray(enc.encode(samples)))
    if kind == "cdf":
        np.testing.assert_array_equal(codes, enc.cdf.evaluate(samples))
    assert enc.p1 == float(np.mean(codes))


# --- batched decoders ----------------------------------------------------------

# equal counts take the shared rank table, unequal ones the per-node ranks
SAMPLE_COUNTS = {"equal": (40, 40, 40, 40), "ragged": (5, 17, 40, 333)}


def _encoders(enc_kind, counts):
    rng = np.random.default_rng(21)
    # rounding leaves ties, so the quantile's step down is exercised
    return [build_encoder(enc_kind, np.round(rng.gamma(2.0, size=n), 1))
            for n in counts]


def _beliefs(counts):
    """Per node: 0, 1, every rank i / n of its ECDF and uniform draws."""
    rng = np.random.default_rng(22)
    rows = max(counts) + 20
    b = rng.uniform(size=(rows, len(counts)))
    for p, n in enumerate(counts):
        b[:n + 1, p] = np.arange(n + 1) / n
        b[-2:, p] = (0.0, 1.0)
    return b


@pytest.mark.parametrize("layout", sorted(SAMPLE_COUNTS))
@pytest.mark.parametrize("kind", sorted(DECODER_KINDS))
def test_batch_decoder_matches_node_by_node(kind, layout):
    counts = SAMPLE_COUNTS[layout]
    encoders = _encoders(DECODER_KINDS[kind], counts)
    b = _beliefs(counts)
    expected = np.column_stack(
        [build_decoder(kind, enc).decode(b[:, p]) for p, enc in enumerate(encoders)]
    )
    dec = BatchDecoder(kind, encoders)
    np.testing.assert_array_equal(dec.decode(b), expected)
    nodes = np.array([3, 1])
    np.testing.assert_array_equal(dec.decode(b[:, nodes], nodes), expected[:, nodes])
    np.testing.assert_array_equal(dec.decode(b[7]), expected[7])
    assert dec.decode(b[7, 2], 2) == expected[7, 2]


@pytest.mark.parametrize("layout", sorted(SAMPLE_COUNTS))
@pytest.mark.parametrize("kind", sorted(DECODER_KINDS))
def test_batch_decoder_rejects_invalid_belief(kind, layout):
    counts = SAMPLE_COUNTS[layout]
    dec = BatchDecoder(kind, _encoders(DECODER_KINDS[kind], counts))
    for bad in (np.nan, -0.1, 1.1):
        b = np.full((3, len(counts)), 0.5)
        b[1, 2] = bad
        with pytest.raises(ValueError, match="invalid probability"):
            dec.decode(b)


def test_batch_decoder_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown decoder kind"):
        BatchDecoder("mode", _encoders("cdf", (10,)))


@pytest.mark.parametrize("kind", sorted(DECODER_KINDS))
def test_batch_decoder_rejects_encoders_it_does_not_invert(kind):
    # each decoder inverts one encoder kind; the first node of another
    # kind is named, whether every node or only one is at fault
    own = DECODER_KINDS[kind]
    other = "median-step" if own == "cdf" else "cdf"
    wrong = _encoders(other, (10, 10))
    mixed = _encoders(own, (10, 10, 10))[:2] + wrong[:1]
    for encoders, node in ((wrong, 0), (mixed, 2)):
        with pytest.raises(ValueError, match=f"^decoder '{kind}' needs '{own}' "
                           f"encoders: node {node} has '{other}'$"):
            BatchDecoder(kind, encoders)
