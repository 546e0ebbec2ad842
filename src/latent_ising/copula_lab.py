"""Synthetic ground truth: Gaussian copulas on a graph, plus baselines.

A model is a sparse precision matrix whose support is the dependency graph
(unit diagonal, random off-diagonal entries, shrunk until positive
definite) together with one marginal distribution per node.  Outcomes are
drawn in the latent Gaussian space and pushed through Phi and the marginal
quantile; the same construction gives an exact conditional-median
predictor, which is the reference every other predictor is measured
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import betainc, betaincinv, ndtr, ndtri

from .ecdf import EmpiricalCdf
from .ising import GraphTopology

__all__ = [
    "BetaMarginal",
    "EmpiricalMarginal",
    "CopulaModel",
    "Dataset",
    "generate_copula",
    "sample",
    "exact_predictor",
    "exact_predictor_batch",
    "knn_predictor",
    "median_predictor",
    "pair_topology",
    "regular_tree_topology",
    "grid_city",
]

DEFAULT_CORR_RANGE = ((-1.0, -0.2), (0.2, 1.0))


@dataclass(frozen=True)
class BetaMarginal:
    """beta(a, b) marginal on [0, 1]; ``a`` and ``b`` must be finite and
    positive."""

    a: float
    b: float

    def __post_init__(self):
        if not all(np.isfinite(v) and v > 0 for v in (self.a, self.b)):
            raise ValueError(
                f"beta marginal needs finite a, b > 0, got a={self.a}, b={self.b}"
            )

    def quantile(self, q):
        return betaincinv(self.a, self.b, q)

    def cdf(self, x):
        # betainc is NaN outside the support, where the cdf is 0 or 1
        return betainc(self.a, self.b, np.clip(x, 0.0, 1.0))

    @cached_property
    def _median(self) -> float:
        return float(betaincinv(self.a, self.b, 0.5))

    def median(self) -> float:
        return self._median

    def spec(self) -> dict:
        return {"kind": "beta", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class EmpiricalMarginal:
    """Marginal backed by observed samples.

    The cdf used for Gaussian-space inversion is clipped away from 0 and 1
    so that Phi^-1 stays finite at the sample extremes.
    """

    ecdf: EmpiricalCdf

    def quantile(self, q):
        return self.ecdf.quantile(q)

    def cdf(self, x):
        n = self.ecdf.n
        raw = self.ecdf.evaluate(x)
        return np.clip(raw, 0.5 / n, 1.0 - 0.5 / n)

    def median(self) -> float:
        return self.ecdf.median()

    def spec(self) -> dict:
        return {"kind": "empirical", "samples": self.ecdf.sorted_samples.tolist()}


@dataclass(frozen=True)
class CopulaModel:
    """Gaussian copula over a graph with per-node marginals.

    ``correlation`` is the inverse of ``precision`` rescaled to unit
    variances; sampling and conditioning use it so that every latent
    coordinate is standard normal, as the marginal transform requires.
    ``always_observed`` marks nodes revealed before any decimation step
    (e.g. a permanently instrumented ring road).
    """

    topology: GraphTopology
    precision: np.ndarray
    correlation: np.ndarray
    marginals: tuple
    always_observed: tuple = ()

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    @cached_property
    def marginal_groups(self) -> tuple[np.ndarray, tuple]:
        """(group id of every node, one marginal per group), computed once
        per model.  Marginals are grouped by value: equal ``BetaMarginal``
        parameters share a group even when the nodes hold separate objects,
        and an ``EmpiricalMarginal`` groups with those sharing its CDF
        object."""
        ids: dict = {}
        group_of = np.array([ids.setdefault(m, len(ids)) for m in self.marginals],
                            dtype=np.intp)
        return group_of, tuple(ids)


@dataclass(frozen=True)
class Dataset:
    """Outcome matrix (one row per outcome, one column per node)."""

    values: np.ndarray
    seed: int | None = None

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


def _sample_magnitude(rng, corr_range) -> float:
    intervals = [tuple(iv) for iv in corr_range]
    lengths = np.array([hi - lo for lo, hi in intervals], dtype=float)
    idx = rng.choice(len(intervals), p=lengths / lengths.sum())
    lo, hi = intervals[idx]
    return float(rng.uniform(lo, hi))


def generate_copula(
    topology: GraphTopology,
    seed: int | None = None,
    corr_range=DEFAULT_CORR_RANGE,
    overrides: dict | None = None,
    marginals=None,
    always_observed=(),
) -> CopulaModel:
    """Random unit-diagonal precision matrix supported on the graph.

    Off-diagonal entries on edges are drawn uniformly from ``corr_range``
    (a union of intervals); ``overrides`` fixes chosen edges to given
    entries before the repair loop.  While the matrix is not positive
    definite, the largest-magnitude off-diagonal entry is multiplied by
    0.95; a matrix still not positive definite after 10 000 such steps
    raises ``ValueError``.
    """
    rng = np.random.default_rng(seed)
    n = topology.n_nodes
    prec = np.eye(n)
    overrides = overrides or {}
    for i, j in topology.edges:
        key = (i, j) if (i, j) in overrides else (j, i)
        value = overrides.get(key)
        if value is None:
            value = _sample_magnitude(rng, corr_range)
        prec[i, j] = prec[j, i] = float(value)

    for _ in range(10_000):
        if _positive_definite(prec):
            break
        off = np.abs(np.triu(prec, k=1))
        i, j = np.unravel_index(np.argmax(off), off.shape)
        prec[i, j] *= 0.95
        prec[j, i] = prec[i, j]
    else:
        raise ValueError("positive-definite repair did not terminate")

    if marginals is None:
        marginals = tuple(BetaMarginal(1.0, 1.0) for _ in range(n))
    return _copula_from_precision(topology, prec, marginals, always_observed)


def _positive_definite(prec: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        return False
    return True


def _copula_from_precision(topology, prec, marginals,
                           always_observed) -> CopulaModel:
    """The copula of a precision matrix, with its correlation; a precision
    matrix that is not n-by-n and positive definite, or a marginal count
    other than n, raises ``ValueError``."""
    n = topology.n_nodes
    if prec.shape != (n, n):
        raise ValueError(f"precision matrix must be {n}x{n}")
    marginals = tuple(marginals)
    if len(marginals) != n:
        raise ValueError("one marginal required per node")
    if not _positive_definite(prec):
        raise ValueError("precision matrix is not positive definite")
    cov = np.linalg.inv(prec)
    scale = 1.0 / np.sqrt(np.diag(cov))
    return CopulaModel(
        topology=topology,
        precision=prec,
        correlation=cov * np.outer(scale, scale),
        marginals=marginals,
        always_observed=tuple(int(i) for i in always_observed),
    )


def sample(model: CopulaModel, n: int, seed: int | None = None) -> Dataset:
    """Draw outcomes: latent Gaussian rows through Phi and the marginal
    quantiles."""
    if n < 1:
        raise ValueError("sample size must be positive")
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(model.correlation)
    y = rng.standard_normal((n, model.n_nodes)) @ chol.T
    u = ndtr(y)
    x = np.empty_like(u)
    # one call per node: grouping equal marginals (_grouped_apply) was
    # slower here, with every node's full column in one call anyway
    for i, marginal in enumerate(model.marginals):
        x[:, i] = marginal.quantile(u[:, i])
    return Dataset(values=x, seed=seed)


def _grouped_apply(model: CopulaModel, nodes, values, method):
    """Apply marginal.cdf / marginal.quantile elementwise, where ``nodes``
    names the node whose marginal each entry of ``values`` belongs to, with
    one vectorized call per group of equal marginals
    (``CopulaModel.marginal_groups``; scalar scipy calls dominate
    otherwise)."""
    group_of, marginals = model.marginal_groups
    groups = group_of[nodes]
    out = np.empty(groups.shape)
    for g, marg in enumerate(marginals):
        mask = groups == g
        if mask.any():
            out[mask] = getattr(marg, method)(values[mask])
    return out


def exact_predictor(model: CopulaModel, observed: dict) -> dict:
    """Conditional median given the observations, exact under the model.

    Observations are lifted to Gaussian space, the conditional mean is the
    usual Gaussian formula, and the result is pushed back through the
    marginal quantile.  Monotonicity of the transforms makes this the
    conditional median of every unobserved coordinate.  Observed nodes are
    returned as-is.
    """
    if not observed:
        raise ValueError("no observations")
    obs_idx = np.array(sorted(observed), dtype=int)
    obs_vals = np.array([observed[int(i)] for i in obs_idx], dtype=float)
    row = exact_predictor_batch(model, obs_idx[None], obs_vals[None])[0]
    return {i: float(v) for i, v in enumerate(row)}


def exact_predictor_batch(model: CopulaModel, obs_idx, obs_vals) -> np.ndarray:
    """``exact_predictor`` for R observation sets of one size at once.

    Row r observes the distinct nodes ``obs_idx[r]``, in ascending order,
    at the values ``obs_vals[r]`` (both shaped (R, k) with k >= 1).  Returns
    an (R, n_nodes) array holding the observed values at observed nodes and
    the exact conditional median everywhere else; every row costs one
    k-by-k solve, batched over the rows.
    """
    obs_idx = np.asarray(obs_idx, dtype=np.intp)
    obs_vals = np.asarray(obs_vals, dtype=float)
    n_rows, k = obs_idx.shape
    if k == 0:
        raise ValueError("no observations")
    rows = np.arange(n_rows)[:, None]
    out = np.empty((n_rows, model.n_nodes))
    out[rows, obs_idx] = obs_vals
    if k == model.n_nodes:
        return out
    hidden = np.ones(out.shape, dtype=bool)
    hidden[rows, obs_idx] = False
    free = np.nonzero(hidden)[1].reshape(n_rows, -1)  # ascending per row
    y_obs = ndtri(_grouped_apply(model, obs_idx, obs_vals, "cdf"))
    corr = model.correlation
    weights = np.linalg.solve(
        corr[obs_idx[:, :, None], obs_idx[:, None, :]], y_obs[..., None]
    )
    u_mean = ndtr((corr[free[:, :, None], obs_idx[:, None, :]] @ weights)[..., 0])
    out[rows, free] = _grouped_apply(model, free, u_mean, "quantile")
    return out


def knn_predictor(history, observed: dict, k: int = 50) -> dict:
    """Mean over the k history rows closest to the observation vector.

    Distance is Euclidean over the observed coordinates only; predictions
    are produced for every other coordinate.
    """
    values = history.values if isinstance(history, Dataset) else np.asarray(history)
    n_rows, n_nodes = values.shape
    if k > n_rows:
        raise ValueError("k exceeds history size")
    if k < 1:
        raise ValueError("k must be at least 1")
    obs_idx = np.array(sorted(observed), dtype=int)
    if obs_idx.size:
        query = np.array([observed[i] for i in obs_idx])
        diff = values[:, obs_idx] - query
        dist = np.einsum("ij,ij->i", diff, diff)
        order = np.argsort(dist, kind="stable")[:k]
    else:
        order = np.arange(k)
    neighbors = values[order]
    return {
        int(i): float(neighbors[:, i].mean())
        for i in range(n_nodes)
        if i not in observed
    }


def median_predictor(model: CopulaModel, unobserved) -> dict:
    """Contextless baseline: each node's marginal median."""
    return {int(i): model.marginals[i].median() for i in unobserved}


# --- scenario topologies -----------------------------------------------------

def pair_topology() -> GraphTopology:
    return GraphTopology(2, ((0, 1),))


def regular_tree_topology(connectivity: int, size: int = 100) -> GraphTopology:
    """Tree grown breadth-first where every interior node has exactly
    ``connectivity`` neighbors."""
    if connectivity < 2:
        raise ValueError("interior connectivity must be at least 2")
    if size < 2:
        raise ValueError("tree needs at least two nodes")
    edges = []
    frontier = [0]
    next_id = 1
    while next_id < size:
        node = frontier.pop(0)
        n_children = connectivity if node == 0 else connectivity - 1
        for _ in range(n_children):
            if next_id >= size:
                break
            edges.append((node, next_id))
            frontier.append(next_id)
            next_id += 1
    return GraphTopology(size, tuple(edges))


def grid_city() -> tuple[GraphTopology, tuple[int, ...]]:
    """Toy urban network: a 7x7 grid of intersections ringed by a road of
    eight segments.

    Variables are the road segments; two segments depend on each other iff
    they meet at an intersection (the line graph of the road network).
    Returns the dependency topology and the ids of the ring segments,
    which the decimation scenario treats as always observed.
    """
    side = 7
    inter = {}

    def node_id(label):
        return inter.setdefault(label, len(inter))

    segments = []  # (intersection_a, intersection_b)
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                segments.append((node_id((r, c)), node_id((r, c + 1))))
            if r + 1 < side:
                segments.append((node_id((r, c)), node_id((r + 1, c))))

    corners = [(0, 0), (0, side - 1), (side - 1, side - 1), (side - 1, 0)]
    ring_ids = []
    for k, corner in enumerate(corners):
        mid = node_id(("ring", k))
        nxt = corners[(k + 1) % 4]
        ring_ids.append(len(segments))
        segments.append((node_id(corner), mid))
        ring_ids.append(len(segments))
        segments.append((mid, node_id(nxt)))

    touching = {}
    for seg_id, (a, b) in enumerate(segments):
        touching.setdefault(a, []).append(seg_id)
        touching.setdefault(b, []).append(seg_id)
    dep_edges = set()
    for seg_ids in touching.values():
        for s1 in seg_ids:
            for s2 in seg_ids:
                if s1 < s2:
                    dep_edges.add((s1, s2))

    topology = GraphTopology(len(segments), tuple(sorted(dep_edges)))
    return topology, tuple(ring_ids)
