"""Synthetic ground truth: Gaussian copulas on a graph, plus baselines.

A model is a sparse precision matrix whose support is the dependency graph
(unit diagonal, random off-diagonal entries, shrunk until positive
definite) together with one marginal distribution per node.  Outcomes are
drawn in the latent Gaussian space and pushed through Phi and the marginal
quantile; the same construction gives an exact conditional-median
predictor, which is the reference every other predictor is measured
against.

On a forest the predictor conditions through the precision, which is
tree-sparse there: its conditional means come from the same tree
elimination (``ising.tree_solve``) as the forest solver's Newton
direction, in O(n) per observation set.  A loopy truth conditions through
a k-by-k solve with the correlation matrix.  Either way the marginal
quantile, the costly step, runs only on the hidden entries whose mean
moved since the previous call (``exact_predictor_batch``'s ``warm``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import betainc, betaincinv, ndtr, ndtri

from .ecdf import EmpiricalCdf
from .ising import GraphTopology, tree_solve

__all__ = [
    "BetaMarginal",
    "EmpiricalMarginal",
    "CopulaModel",
    "Dataset",
    "generate_copula",
    "sample",
    "exact_predictor_batch",
    "knn_predictor",
    "latent_values",
    "median_predictor",
    "pair_topology",
    "regular_tree_topology",
    "grid_city",
]

DEFAULT_CORR_RANGE = ((-1.0, -0.2), (0.2, 1.0))
# the open unit interval's end points, where a CDF value is lifted
_U_MIN, _U_MAX = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


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

    @cached_property
    def tree_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The off-diagonal entries of D⁻¹P on a forest, computed once per
        model: at every non-root breadth-first position c with parent p
        (``GraphTopology.levels``), P[p, c] / P[p, p] and P[c, p] / P[c, c].

        P = S Q S is the precision of the standardised latent vector, with
        Q the model's precision and S = diag(Q⁻¹)^½ the standard
        deviations, and D its diagonal; P is built from Q and not by
        inverting the correlation, so it keeps the graph's support."""
        levels = self.topology.levels
        sd = np.sqrt(np.diag(np.linalg.inv(self.precision)))
        prec = self.precision * np.outer(sd, sd)
        child = levels.order[levels.n_roots:]
        parent = levels.order[levels.parent]
        diag = np.diag(prec)
        return prec[parent, child] / diag[parent], prec[child, parent] / diag[child]


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


def latent_values(model: CopulaModel, obs_idx, obs_vals) -> np.ndarray:
    """The lift of the observations ``obs_vals`` of the nodes ``obs_idx``
    (same shape) that ``exact_predictor_batch`` applies: ndtri(F_i(x)), F_i
    the marginal CDF of node i.  A CDF of exactly 0 or 1 is moved to the
    nearest double inside (0, 1) first: a beta quantile can round onto the
    edge of its support (x = 1 under beta(0.7, 0.3) about once in 10^5
    draws), and an infinite lift would turn the whole row's conditional
    means into NaN."""
    u = _grouped_apply(model, np.asarray(obs_idx), np.asarray(obs_vals, dtype=float),
                       "cdf")
    return ndtri(np.clip(u, _U_MIN, _U_MAX))


def exact_predictor_batch(model: CopulaModel, obs_idx, obs_vals, latent=None,
                          warm=None):
    """Exact conditional medians for R observation sets of one size at once.

    Row r observes the distinct nodes ``obs_idx[r]``, in ascending order,
    at the values ``obs_vals[r]`` (both shaped (R, k), 1 <= k <= n_nodes).
    The observations are lifted to the latent Gaussian space, the hidden
    coordinates take their Gaussian conditional mean, and that is pushed
    back through Phi and the marginal quantile; monotone transforms make
    it the conditional median of every hidden coordinate.  ``latent``
    (R, k), when given, holds the lifted observations (``latent_values``),
    which are otherwise computed here.

    On a forest the means come from the tree-sparse precision:
    mu_H = −P_HH⁻¹ P_HO y_O (Rue & Held 2005, ch. 2), with P the precision
    of the standardised latent vector (``CopulaModel.tree_weights``),
    solved row-scaled by its diagonal with one ``ising.tree_solve``, O(n)
    per row.  On a graph with cycles each row makes one k-by-k solve with
    the correlation matrix, batched over the rows.

    Returns ``(predictions, state)``: predictions (R, n_nodes) hold the
    observed values at observed nodes and the conditional medians
    everywhere else.  Pass ``state`` back as ``warm`` on the next call, as
    with ``Engine.solve``: the quantile then runs only on the hidden
    entries whose mean differs from the state's, and every other entry is
    copied from it, so a warm call returns what a cold one does, bit for
    bit.  Out-of-range or repeated node ids, rows out of ascending order,
    k outside 1..n_nodes, and shapes that do not match raise
    ``ValueError``.
    """
    n = model.n_nodes
    obs_idx = np.asarray(obs_idx)
    obs_vals = np.asarray(obs_vals, dtype=float)
    _check_observations(n, obs_idx, obs_vals, latent, warm)
    obs_idx = obs_idx.astype(np.intp, copy=False)
    n_rows, k = obs_idx.shape
    rows = np.arange(n_rows)[:, None]
    out = np.empty((n_rows, n))
    out[rows, obs_idx] = obs_vals
    mean = np.full((n_rows, n), np.nan)
    if k < n:
        if latent is None:
            latent = latent_values(model, obs_idx, obs_vals)
        hidden = np.ones(out.shape, dtype=bool)
        hidden[rows, obs_idx] = False
        if model.topology.is_forest:
            mean = np.where(hidden, _forest_means(model, obs_idx, latent), np.nan)
        else:
            free = np.nonzero(hidden)[1].reshape(n_rows, -1)  # ascending per row
            corr = model.correlation
            weights = np.linalg.solve(
                corr[obs_idx[:, :, None], obs_idx[:, None, :]],
                np.asarray(latent, dtype=float)[..., None],
            )
            mean[rows, free] = (corr[free[:, :, None], obs_idx[:, None, :]]
                                @ weights)[..., 0]
        moved = hidden
        if warm is not None:
            last_mean, last_out = warm
            kept = mean == last_mean  # never where either is NaN (observed)
            out = np.where(kept, last_out, out)
            moved = hidden & ~kept
        flat = np.flatnonzero(moved)
        out.reshape(-1)[flat] = _grouped_apply(
            model, flat % n, ndtr(mean.reshape(-1)[flat]), "quantile")
    return out, (mean, out)


def _check_observations(n, obs_idx, obs_vals, latent, warm):
    """Raise ``ValueError`` on observation sets that
    ``exact_predictor_batch`` does not take."""
    if obs_idx.ndim != 2:
        raise ValueError(f"observed node ids must be an (R, k) array, "
                         f"got shape {obs_idx.shape}")
    n_rows, k = obs_idx.shape
    if not 1 <= k <= n:
        raise ValueError(f"observation count {k} outside 1..{n}")
    if not np.issubdtype(obs_idx.dtype, np.integer):
        raise ValueError(f"observed node ids must be integers, got {obs_idx.dtype}")
    if obs_vals.shape != obs_idx.shape:
        raise ValueError(f"observed values shaped {obs_vals.shape}, "
                         f"node ids {obs_idx.shape}")
    if latent is not None and np.shape(latent) != obs_idx.shape:
        raise ValueError(f"latent values shaped {np.shape(latent)}, "
                         f"node ids {obs_idx.shape}")
    if obs_idx.size and (obs_idx.min() < 0 or obs_idx.max() >= n):
        raise ValueError(f"observed node id outside 0..{n - 1}")
    step = np.diff(obs_idx, axis=1)
    if (step <= 0).any():
        if (step == 0).any():
            raise ValueError("repeated observed node id in a row")
        raise ValueError("observed node ids not ascending in a row")
    if warm is not None and (len(warm) != 2 or any(np.shape(a) != (n_rows, n)
                                                   for a in warm)):
        raise ValueError(f"warm state must be two ({n_rows}, {n}) arrays")


def _forest_means(model: CopulaModel, obs_idx, latent) -> np.ndarray:
    """Latent conditional means (R, n_nodes) on a forest, meaningful at the
    hidden nodes, of the rows observing ``obs_idx`` at the lifted values
    ``latent``.  Row-scaled by P's diagonal D, the system reads
    (I + W_HH) mu_H = −W_HO y_O, with W = D⁻¹P − I tree-sparse."""
    levels = model.topology.levels
    nr, par = levels.n_roots, levels.parent
    up, down = model.tree_weights
    rows = np.arange(len(obs_idx))[:, None]
    at = levels.position[obs_idx]
    hid = np.ones((len(obs_idx), model.n_nodes), dtype=bool)
    hid[rows, at] = False
    y = np.zeros(hid.shape)
    y[rows, at] = latent
    wy = np.zeros_like(y)
    wy[:, nr:] = down * np.take(y, par, axis=1)
    if levels.heads.size:
        wy[:, levels.heads] += np.add.reduceat(up * y[:, nr:], levels.starts, axis=1)
    hid_edge = hid[:, nr:] & np.take(hid, par, axis=1)
    mean = tree_solve(levels, np.ones(hid.shape), np.where(hid_edge, up, 0.0),
                      np.where(hid_edge, down, 0.0), np.where(hid, -wy, 0.0))
    return np.take(mean, levels.position, axis=1)


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
