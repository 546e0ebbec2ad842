"""Empirical cumulative distribution functions and quantiles.

The step CDF built here is the substrate for every encoder and decoder:
evaluation is right-continuous counting, and the quantile is the
pseudo-inverse ``inf {x : F(x) >= q}``.  Both directions share the same
floating-point comparisons, so the Galois connection

    eval(x) >= q  <=>  x >= quantile(q)        for q in (0, 1]

holds exactly, not just up to rounding.

The quantile needs no search.  The CDF takes the value r_i = fl((i+1)/n)
at the i-th sorted sample (0-based), so quantile(q) is sample t, the
smallest i with r_i >= q.  The code starts from s = floor(fl(q*n)), capped
at n - 1, and steps down once if the rank below s already reaches q.  That
lands on t exactly:

* s >= t.  If t > 0 then q > r_{t-1} = fl(t/n), so q is at least the next
  float after fl(t/n), which lies above t/n.  Hence q*n > t, and as t is a
  float, fl(q*n) >= t.
* s <= t + 1.  q <= r_t <= (t+1)/n * (1 + 2**-53), so fl(q*n) < t + 2.

The step compares q with the stored ranks, the same floats that
``evaluate`` returns, so the Galois connection stays exact.  ``_below`` is
``_ranks`` shifted one place with -1 in front, so the step needs no bounds
test at s = 0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EmpiricalCdf"]


class EmpiricalCdf:
    """Right-continuous step CDF over a finite sample.

    Duplicate samples accumulate mass (a step of height k/n), and
    ``quantile(0)`` returns the minimum sample so that predictions stay
    inside the observed support.

    Parameters
    ----------
    samples : array_like
        Non-empty collection of finite real values (any order).
    """

    __slots__ = ("sorted_samples", "n", "_ranks", "_below")

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1:
            arr = arr.ravel()
        if arr.size == 0:
            raise ValueError("no samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("invalid sample")
        self.sorted_samples = np.sort(arr)
        self.n = int(arr.size)
        # eval value attained at each sorted sample: 1/n, 2/n, ..., 1;
        # _below[i] is the rank of sample i - 1 (-1 before the first)
        self._below = np.empty(self.n + 1)
        self._below[0] = -1.0
        self._below[1:] = np.arange(1, self.n + 1, dtype=float) / self.n
        self._ranks = self._below[1:]

    def evaluate(self, x):
        """F(x) = (#samples <= x) / n.  Accepts scalars or arrays."""
        idx = np.searchsorted(self.sorted_samples, x, side="right")
        out = idx / self.n
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def quantile(self, q):
        """Pseudo-inverse: smallest sample x with F(x) >= q.

        ``q = 0`` returns the minimum sample; q outside [0, 1] or NaN
        raises.  Accepts scalars or arrays.
        """
        qa = np.asarray(q, dtype=float)
        if not ((qa >= 0.0) & (qa <= 1.0)).all():  # NaN fails too
            raise ValueError("invalid probability")
        idx = np.minimum((qa * self.n).astype(np.intp), self.n - 1)
        idx -= self._below[idx] >= qa
        out = self.sorted_samples[idx]
        if np.isscalar(q) or np.ndim(q) == 0:
            return float(out)
        return out

    def median(self):
        return self.quantile(0.5)

    @property
    def min(self) -> float:
        return float(self.sorted_samples[0])

    @property
    def max(self) -> float:
        return float(self.sorted_samples[-1])

    def __repr__(self):
        return f"EmpiricalCdf(n={self.n}, support=[{self.min:g}, {self.max:g}])"
