"""EM estimation of the success-success probability of a latent pair.

Each edge carries a 2x2 latent law determined by the two node marginals
(held fixed at their encoder values) plus one free parameter: the joint
success probability p11.  p11 must lie in the Frechet interval

    D(p_i, p_j) = [max(0, p_i + p_j - 1), min(p_i, p_j)],

and the likelihood of paired observations is maximized by EM.  The E-step
weights each observation by the current latent posterior; the M-step
maximizes the expected complete-data log-likelihood over p11 alone, which
is a one-dimensional strictly concave problem solved to root-finder
precision.  When the posterior cell frequencies happen to match the pinned
margins (always the case for indicator encoders), that maximizer is exactly
the averaged posterior mass on (1, 1).

The per-sample likelihood is density-free: unknown sample densities cancel
between the two latent hypotheses, leaving the ratio weights
Lambda^{s}(x) / p^{s}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

# PairwiseMarginal is re-exported; it lives in ising, which needs no scipy
from .ising import PairwiseMarginal, pair_tables

_EPS = 1e-9  # clamp shrink keeping couplings finite when p11 saturates

__all__ = ["PairSamples", "PairwiseMarginal", "em_fit", "em_iterates", "log_likelihood"]


@dataclass(frozen=True)
class PairSamples:
    """Paired observations (x_i^k, x_j^k) for one edge."""

    xi: np.ndarray
    xj: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        xj = np.asarray(self.xj, dtype=float)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "xj", xj)
        if xi.shape != xj.shape or xi.ndim != 1:
            raise ValueError("paired samples must be equal-length 1-d arrays")
        if xi.size == 0:
            raise ValueError("no samples")
        if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(xj))):
            raise ValueError("invalid sample")

    @property
    def count(self) -> int:
        return int(self.xi.size)


def _cell_products(samples: PairSamples, enc_i, enc_j, codes=None):
    if codes is None:
        codes = (enc_i.encode(samples.xi), enc_j.encode(samples.xj))
    ui, uj = (np.asarray(u, dtype=float) for u in codes)
    if ui.shape != samples.xi.shape or uj.shape != samples.xj.shape:
        raise ValueError("codes must have the shape of the samples")
    # a[s_i][s_j][k] = Lambda_i^{s_i}(x_i^k) * Lambda_j^{s_j}(x_j^k)
    return np.array([[(1 - ui) * (1 - uj), (1 - ui) * uj], [ui * (1 - uj), ui * uj]])


def em_iterates(
    samples: PairSamples,
    enc_i,
    enc_j,
    init: float | None = None,
    max_iter: int = 500,
    tol: float = 1e-9,
    *,
    codes=None,
):
    """Yield the EM trajectory: the initial marginal, then one marginal per
    iteration, stopping once the parameter moves by less than ``tol`` or
    after ``max_iter`` iterations.

    Every iterate is clamped into the Frechet interval shrunk by 1e-9 so
    couplings built from it stay finite.  ``codes``, if given, is the pair
    ``(enc_i.encode(samples.xi), enc_j.encode(samples.xj))`` already
    computed by the caller; it must have the shape of the samples.
    """
    pi, pj = enc_i.p1, enc_j.p1
    if not (0.0 < pi < 1.0 and 0.0 < pj < 1.0):
        raise ValueError("degenerate latent variable")

    lo, hi = max(0.0, pi + pj - 1.0), min(pi, pj)
    lo_c, hi_c = lo + _EPS, hi - _EPS
    if lo_c >= hi_c:
        raise ValueError("degenerate Frechet interval")

    t = pi * pj if init is None else float(init)
    if not lo < t < hi:
        raise ValueError("init outside the Frechet interval")
    t = min(max(t, lo_c), hi_c)

    a = _cell_products(samples, enc_i, enc_j, codes)
    n = samples.count
    yield PairwiseMarginal(pi, pj, t, n_obs=n)

    for _ in range(max_iter):
        psi = pair_tables(pi, pj, t)[1]
        z = np.einsum("ab,abk->k", psi, a)
        # posterior cell frequencies
        r = np.einsum("ab,abk->ab", psi, a / z) / n
        t_new = _maximize_expected(r, pi, pj, lo_c, hi_c)
        done = abs(t_new - t) < tol
        t = t_new
        yield PairwiseMarginal(pi, pj, t, n_obs=n)
        if done:
            return


def em_fit(
    samples: PairSamples,
    enc_i,
    enc_j,
    init: float | None = None,
    max_iter: int = 500,
    tol: float = 1e-9,
    *,
    codes=None,
) -> PairwiseMarginal:
    """Fit p11 by EM, keeping the node marginals fixed at the encoder values.

    Returns the final iterate of :func:`em_iterates`; ``codes`` is passed
    on to it.
    """
    result = None
    for result in em_iterates(samples, enc_i, enc_j, init, max_iter, tol,
                              codes=codes):
        pass
    return result


def _maximize_expected(r: np.ndarray, pi: float, pj: float, lo: float, hi: float) -> float:
    """Maximize sum_s r[s] log p_t(s) over t in [lo, hi].

    Strictly concave in t, so the derivative is strictly decreasing and
    has at most one interior root.
    """

    def slope(t):
        return (
            r[1, 1] / t
            - r[1, 0] / (pi - t)
            - r[0, 1] / (pj - t)
            + r[0, 0] / (1.0 - pi - pj + t)
        )

    if slope(lo) <= 0.0:
        return lo
    if slope(hi) >= 0.0:
        return hi
    return float(brentq(slope, lo, hi, xtol=1e-15, rtol=8.9e-16))


def log_likelihood(samples: PairSamples, enc_i, enc_j, m: PairwiseMarginal) -> float:
    """Density-free log-likelihood: sum_k log Z(x_i^k, x_j^k).

    Independence (p11 = p_i1 * p_j1) gives exactly 0; along EM iterates the
    value never decreases.
    """
    m.validate()
    a = _cell_products(samples, enc_i, enc_j)
    z = np.einsum("ab,abk->k", m.ratio(), a)
    if np.any(z <= 0.0):
        raise ValueError("zero likelihood for some sample")
    return float(np.log(z).sum())
