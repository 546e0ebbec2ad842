"""Encoding and decoding between real observations and binary latent states.

An encoder maps an observation x to the success probability of a latent
binary variable; a decoder maps a belief b back to a real prediction.
Two encoder families are provided:

* ``cdf``          -- the node's own CDF (max-entropy choice),
* ``median-step``  -- the indicator of x lying at or above the median
                      (max mutual-information choice).

Decoders either invert the CDF directly (``inverse-cdf``) or take a
statistic of the belief-reweighted mixture of the two conditional
distributions (``bayes-quad``, ``bayes-median-step``, ``bayes-mean-step``).
``DECODER_KINDS`` names the encoder kind that each decoder kind inverts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ecdf import EmpiricalCdf

__all__ = [
    "CdfEncoder",
    "MedianStepEncoder",
    "ConditionalCdfs",
    "JeffreyMixtureCdf",
    "InverseCdf",
    "BayesQuadCdf",
    "BayesMedianStep",
    "BayesMeanStep",
    "build_encoder",
    "encode_training",
    "build_decoder",
    "BatchDecoder",
    "marginal_p1",
    "conditional_cdfs",
    "jeffrey_update",
    "bayes_quad_level",
    "median_step_level",
    "ENCODER_KINDS",
    "DECODER_KINDS",
]


def _check_finite(x):
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite observation")


def _check_probability(b):
    b = np.asarray(b)
    if not ((b >= 0.0) & (b <= 1.0)).all():  # NaN fails too
        raise ValueError("invalid probability")


class CdfEncoder:
    """Encode x as F(x): the latent success probability equals the quantile."""

    kind = "cdf"
    __slots__ = ("cdf", "p1")

    def __init__(self, cdf: EmpiricalCdf, p1: float):
        self.cdf = cdf
        self.p1 = float(p1)

    def encode(self, x):
        _check_finite(x)
        return self.cdf.evaluate(x)


class MedianStepEncoder:
    """Encode x as the indicator of x >= median (closed on the right)."""

    kind = "median-step"
    __slots__ = ("cdf", "p1", "threshold")

    def __init__(self, cdf: EmpiricalCdf, p1: float):
        self.cdf = cdf
        self.p1 = float(p1)
        self.threshold = cdf.median()

    def encode(self, x):
        _check_finite(x)
        out = np.asarray(x, dtype=float) >= self.threshold
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out.astype(float)


ENCODER_KINDS = {"cdf": CdfEncoder, "median-step": MedianStepEncoder}


def marginal_p1(encoder, training_samples) -> float:
    """Empirical mean of the encoding over the training samples.

    Raises if the result is degenerate (0 or 1): such a node carries no
    usable latent information.
    """
    samples = np.asarray(training_samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples")
    return _mean_code(encoder.encode(samples))


def _mean_code(codes) -> float:
    p1 = float(np.mean(codes))
    if p1 <= 0.0 or p1 >= 1.0:
        raise ValueError("degenerate latent variable")
    return p1


def build_encoder(kind: str, samples):
    """Build an encoder of the given kind from training samples.

    The marginal p1 is the empirical mean of the encoding over the same
    samples; degenerate nodes (p1 in {0, 1}) are rejected.
    """
    return encode_training(kind, samples)[0]


def encode_training(kind: str, samples):
    """``build_encoder`` that also returns the codes of its own training
    samples, as a float array: the one encoding p1 is the mean of."""
    if kind not in ENCODER_KINDS:
        raise ValueError(f"unknown encoder kind: {kind!r}")
    cdf = EmpiricalCdf(samples)
    enc = ENCODER_KINDS[kind](cdf, 0.5)  # placeholder p1
    samples = np.asarray(samples, dtype=float)
    if kind == "cdf":
        codes = _training_cdf_codes(cdf, samples)
    else:
        codes = np.asarray(enc.encode(samples), dtype=float)
    enc.p1 = _mean_code(codes)
    return enc, codes


def _training_cdf_codes(cdf: EmpiricalCdf, samples: np.ndarray) -> np.ndarray:
    """``cdf.evaluate(samples)`` for the samples the cdf was built from,
    without a search: a sample's count of samples at or below it is the
    right end of its run of equal values in ``cdf.sorted_samples``, and an
    argsort puts each count back at its sample."""
    s = cdf.sorted_samples
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True)) + 1
    codes = np.empty(cdf.n)
    codes[np.argsort(samples, axis=None)] = (
        np.repeat(ends, np.diff(ends, prepend=0)) / cdf.n
    )
    return codes.reshape(samples.shape)


@dataclass(frozen=True)
class ConditionalCdfs:
    """Step CDFs of (X | sigma=1) and (X | sigma=0) over the sample grid.

    Jump weights at a sample s are Lambda(s)/(n*p1) for state 1 and
    (1-Lambda(s))/(n*(1-p1)) for state 0, so the p1-weighted mixture of
    the two restores the plain ECDF exactly.
    """

    support: np.ndarray   # sorted sample values
    cum1: np.ndarray      # cumulative state-1 mass at each support point
    cum0: np.ndarray
    mean1: float
    mean0: float
    p1: float

    def f1(self, x):
        idx = np.searchsorted(self.support, x, side="right")
        out = np.where(idx > 0, self.cum1[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def f0(self, x):
        idx = np.searchsorted(self.support, x, side="right")
        out = np.where(idx > 0, self.cum0[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if np.ndim(x) == 0 else out


def conditional_cdfs(encoder) -> ConditionalCdfs:
    """Split the encoder's CDF into the two conditional step CDFs."""
    p1 = encoder.p1
    if p1 <= 0.0 or p1 >= 1.0:
        raise ValueError("degenerate latent variable")
    support = encoder.cdf.sorted_samples
    n = encoder.cdf.n
    lam = np.asarray(encoder.encode(support), dtype=float)
    w1 = lam / (n * p1)
    w0 = (1.0 - lam) / (n * (1.0 - p1))
    return ConditionalCdfs(
        support=support,
        cum1=np.cumsum(w1),
        cum0=np.cumsum(w0),
        mean1=float(np.dot(support, w1)),
        mean0=float(np.dot(support, w0)),
        p1=p1,
    )


@dataclass(frozen=True)
class JeffreyMixtureCdf:
    """b * F1 + (1-b) * F0: the belief-updated distribution of X."""

    cond: ConditionalCdfs
    b: float

    def evaluate(self, x):
        return self.b * self.cond.f1(x) + (1.0 - self.b) * self.cond.f0(x)


def jeffrey_update(cond: ConditionalCdfs, b: float) -> JeffreyMixtureCdf:
    if not 0.0 <= b <= 1.0:
        raise ValueError("invalid probability")
    return JeffreyMixtureCdf(cond, float(b))


# --- decoders ---------------------------------------------------------------

def bayes_quad_level(b):
    """Quantile level solving the belief-updated median equation for the
    cdf encoder: the reachable root of ((2b-1)F - 2(b-1))F = 1/2.

    The singularity at b = 1/2 is removable; its limit is 1/2.
    """
    b = np.asarray(b, dtype=float)
    u = 2.0 * b - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        level = (u - 1.0 + np.sqrt(u * u + 1.0)) / (2.0 * u)
    level = np.where(np.abs(u) < 1e-12, 0.5, level)
    return float(level) if level.ndim == 0 else level


def median_step_level(b):
    """Quantile level of the belief-updated median for the median-step
    encoder: 1/(4(1-b)) below b = 1/2, (4b-1)/(4b) above."""
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        level = np.where(b <= 0.5, 1.0 / (4.0 * (1.0 - b)), (4.0 * b - 1.0) / (4.0 * b))
    return float(level) if level.ndim == 0 else level


class InverseCdf:
    """Decode b as the b-quantile (the maximum-likelihood style inverse)."""

    kind = "inverse-cdf"
    __slots__ = ("cdf",)

    def __init__(self, cdf):
        self.cdf = cdf

    def decode(self, b):
        return self.cdf.quantile(b)  # rejects invalid b, NaN included


class BayesQuadCdf:
    """Bayesian median decoder paired with the cdf encoder."""

    kind = "bayes-quad"
    __slots__ = ("cdf",)

    def __init__(self, cdf):
        self.cdf = cdf

    def decode(self, b):
        _check_probability(b)
        return self.cdf.quantile(bayes_quad_level(b))


class BayesMedianStep:
    """Bayesian median decoder paired with the median-step encoder."""

    kind = "bayes-median-step"
    __slots__ = ("cdf",)

    def __init__(self, cdf):
        self.cdf = cdf

    def decode(self, b):
        _check_probability(b)
        return self.cdf.quantile(median_step_level(b))


class BayesMeanStep:
    """L2-style decoder: b * E[X|sigma=1] + (1-b) * E[X|sigma=0]."""

    kind = "bayes-mean-step"
    __slots__ = ("mean0", "mean1")

    def __init__(self, mean0: float, mean1: float):
        self.mean0 = float(mean0)
        self.mean1 = float(mean1)

    def decode(self, b):
        _check_probability(b)
        b = np.asarray(b, dtype=float)
        out = b * self.mean1 + (1.0 - b) * self.mean0
        return float(out) if out.ndim == 0 else out


# decoder kind -> the encoder kind whose code it inverts
DECODER_KINDS = {
    "inverse-cdf": "cdf",
    "bayes-quad": "cdf",
    "bayes-median-step": "median-step",
    "bayes-mean-step": "median-step",
}


def build_decoder(kind: str, encoder):
    """Build a decoder of the given kind for a fitted encoder."""
    if kind == "inverse-cdf":
        return InverseCdf(encoder.cdf)
    if kind == "bayes-quad":
        return BayesQuadCdf(encoder.cdf)
    if kind == "bayes-median-step":
        return BayesMedianStep(encoder.cdf)
    if kind == "bayes-mean-step":
        cond = conditional_cdfs(encoder)
        return BayesMeanStep(cond.mean0, cond.mean1)
    raise ValueError(f"unknown decoder kind: {kind!r}")


class BatchDecoder:
    """One decoder kind over every node of a model: ``decode`` maps a whole
    belief array at once, its last axis running over the nodes.

    The result is bit for bit what each node's ``build_decoder`` decoder
    gives, and an invalid belief (NaN included) raises ``ValueError`` as
    there.  Every node's sorted ECDF samples sit in one flat float64 block,
    node p's from ``starts[p]``, as ``model_io`` stores them.  The quantile
    is ``EmpiricalCdf.quantile``'s, as one gather into that block.  When all
    nodes hold n samples, which fitted and loaded models do, the one rank
    table of n samples serves every node; otherwise each node's rank is
    recomputed as ``i / n_p``, the float that its own table stores.
    ``bayes-mean-step`` keeps the two conditional means of every node.
    Every node must carry the encoder kind that ``kind`` inverts
    (``DECODER_KINDS``); otherwise ``ValueError`` names the first node that
    does not.
    """

    __slots__ = ("kind", "_level", "_samples", "_starts", "_n", "_below",
                 "_mean0", "_mean1")

    def __init__(self, kind: str, encoders):
        if kind not in DECODER_KINDS:
            raise ValueError(f"unknown decoder kind: {kind!r}")
        code = DECODER_KINDS[kind]
        for i, enc in enumerate(encoders):
            if enc.kind != code:
                raise ValueError(f"decoder {kind!r} needs {code!r} encoders: "
                                 f"node {i} has {enc.kind!r}")
        self.kind = kind
        if kind == "bayes-mean-step":
            conds = [conditional_cdfs(enc) for enc in encoders]
            self._mean0 = np.array([c.mean0 for c in conds])
            self._mean1 = np.array([c.mean1 for c in conds])
            return
        # quantile level of each belief; inverse-cdf takes the belief itself
        self._level = {"bayes-quad": bayes_quad_level,
                       "bayes-median-step": median_step_level}.get(kind)
        cdfs = [enc.cdf for enc in encoders]
        counts = np.array([cdf.n for cdf in cdfs])
        self._samples = np.concatenate([cdf.sorted_samples for cdf in cdfs])
        self._starts = np.cumsum(counts) - counts
        if np.all(counts == cdfs[0].n):
            self._n = cdfs[0].n
            self._below = cdfs[0]._below
        else:
            self._n = counts
            self._below = None

    def decode(self, b, nodes=None):
        """Predictions for beliefs ``b``, whose last axis runs over
        ``nodes`` (an index array; every node when omitted)."""
        b = np.asarray(b, dtype=float)
        if nodes is None:
            nodes = slice(None)
        if self.kind == "bayes-mean-step":
            _check_probability(b)
            return b * self._mean1[nodes] + (1.0 - b) * self._mean0[nodes]
        if self._level is not None:
            _check_probability(b)
            b = np.asarray(self._level(b))
        return self._quantile(b, nodes)

    def _quantile(self, q, nodes):
        _check_probability(q)
        n = self._n if self._below is not None else self._n[nodes]
        idx = np.asarray((q * n).astype(np.intp))
        np.minimum(idx, n - 1, out=idx)
        if self._below is not None:
            idx -= self._below[idx] >= q
        else:
            idx -= np.where(idx > 0, idx / n, -1.0) >= q
        idx += self._starts[nodes]
        return self._samples[idx]
