"""Latent Ising model assembly from node and pairwise marginals.

The joint law over the binary latent vector is written in tempered
pairwise-ratio form: per edge a coupling table

    psi_ij(s_i, s_j) = (p_ij(s_i, s_j) / (p_i(s_i) p_j(s_j)))**alpha

and per node the field phi_i = (1 - p_i1, p_i1).  At alpha = 1 on trees
this reproduces the joint distribution with the given marginals exactly;
alpha < 1 tempers the couplings to compensate overcounting on loops.
``pair_tables`` is the one form of the tables p_ij and of their ratios
p_ij / (p_i p_j): ``PairwiseMarginal``, ``assemble`` and
``LatentIsingModel.with_alpha`` all call it, so a new temperature is only
a new power of the ratios a model already holds.

``GraphTopology`` holds the graph's one traversal: a breadth-first layout
built on first use and kept with the topology.  The forest test, the exact
forest solver (``propagation.ForestSolver``) and the convergence check by
graph cutting (``propagation.graph_cut_check``) all read it.  Its level
arrays (``GraphTopology.levels``) drive the one tree elimination,
``tree_solve``, and the one tree-sparse product, ``tree_matvec``, which
the forest solver's Newton direction and the copula lab's exact predictor
(``copula_lab.exact_predictor_batch``) share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .coding import BatchDecoder

__all__ = [
    "GraphTopology",
    "LatentIsingModel",
    "PairwiseMarginal",
    "assemble",
    "check_alpha",
    "exact_joint",
    "pair_tables",
    "tree_matvec",
    "tree_solve",
]

_MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class GraphTopology:
    """Undirected graph: node count plus an edge list without duplicates."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        object.__setattr__(self, "edges", edges)
        seen = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge ({i},{j}) out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add(key)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Breadth-first layout ``(order, parent, parent_edge, depth)``,
        computed once per topology and read-only.

        Each component is searched from its lowest node, neighbours taken
        in edge order, and ``order`` is then stably sorted by depth: each
        level is contiguous and grouped by parent, in the order of the
        level above.  ``parent``, ``parent_edge`` and ``depth`` are indexed
        by node; a component's root has parent and parent edge -1 and
        depth 0.  On a graph with cycles the parents span a forest and the
        edges that close cycles are nobody's parent edge.
        """
        n = self.n_nodes
        neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, (i, j) in enumerate(self.edges):
            neighbours[i].append((e, j))
            neighbours[j].append((e, i))
        order, seen = [], [False] * n
        parent, parent_edge, depth = [-1] * n, [-1] * n, [0] * n
        for r in range(n):
            if seen[r]:
                continue
            seen[r] = True
            head = len(order)
            order.append(r)
            while head < len(order):
                u = order[head]
                head += 1
                for e, v in neighbours[u]:
                    if not seen[v]:
                        seen[v] = True
                        parent[v], parent_edge[v], depth[v] = u, e, depth[u] + 1
                        order.append(v)
        order.sort(key=depth.__getitem__)
        arrays = tuple(np.asarray(a, dtype=np.intp)
                       for a in (order, parent, parent_edge, depth))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def levels(self) -> "Levels":
        """The layout's breadth-first positions grouped by level, computed
        once per topology (see ``Levels``)."""
        order, parent, _, depth = self.layout
        position = np.argsort(order)
        n_roots = int(np.count_nonzero(depth == 0))
        par = position[parent[order[n_roots:]]]  # nondecreasing
        starts, heads = _runs(par)
        depths = depth[order]
        bounds = np.searchsorted(depths, np.arange(depths.max(initial=0) + 2))
        per_level = []
        for lo, hi in zip(bounds[1:-1].tolist(), bounds[2:].tolist()):
            lpar = par[lo - n_roots:hi - n_roots]
            lstarts, lheads = _runs(lpar)
            if lheads[-1] - lheads[0] + 1 == lheads.size:  # consecutive parents
                lheads = slice(int(lheads[0]), int(lheads[-1]) + 1)
            per_level.append((lo, hi, lpar, lstarts, lheads))
        levels = Levels(order, position, n_roots, par, starts, heads, tuple(per_level))
        for a in (position, par, starts, heads,
                  *(a for level in per_level for a in level[3:]
                    if isinstance(a, np.ndarray))):
            a.flags.writeable = False
        return levels

    @cached_property
    def is_forest(self) -> bool:
        """True when the graph has no cycle: a spanning forest of the
        layout holds every edge.  Computed once per topology."""
        n_roots = int(np.count_nonzero(self.layout[1] < 0))
        return self.n_edges == self.n_nodes - n_roots

    def factors(self) -> list[tuple[int, ...]]:
        """Edges viewed as pairwise factors of a factor graph."""
        return [tuple(e) for e in self.edges]


class Levels(NamedTuple):
    """A topology's breadth-first positions (``GraphTopology.levels``).

    Position p holds node ``order[p]`` and node i sits at ``position[i]``;
    the first ``n_roots`` positions hold the component roots.  ``parent``
    gives the parent position of every later position, nondecreasing, and
    ``starts``/``heads`` are the ``np.add.reduceat`` starts of its runs
    and the parent of each run.  ``per_level`` holds, per level below the
    roots, ``(lo, hi, parent, starts, heads)``: the level's positions
    ``lo:hi`` and the same three arrays restricted to it, except that
    ``heads`` is a slice where the level's parents are consecutive
    positions (every level of a breadth-first regular tree), so that
    updating them acts on a view in place of a gather and a scatter.
    """

    order: np.ndarray
    position: np.ndarray
    n_roots: int
    parent: np.ndarray
    starts: np.ndarray
    heads: np.ndarray
    per_level: tuple


def _runs(par):
    """reduceat starts of the runs of equal entries of a sorted index
    array, and the entry of each run."""
    if not par.size:
        return np.zeros(0, dtype=np.intp), par
    starts = np.flatnonzero(np.r_[True, par[1:] != par[:-1]])
    return starts, par[starts]


def tree_solve(levels: Levels, diag, up, down, rhs):
    """Solve R tree-sparse linear systems A y = rhs at once, in O(n) each.

    Every array has one row per system and is indexed by breadth-first
    position (``levels``): ``diag`` and ``rhs`` (R, n) hold A's diagonal
    and the right-hand side, ``up`` and ``down`` (R, n − n_roots) hold, at
    every non-root position c with parent p, A[p, c] and A[c, p]; the
    same array may be passed for both.  One leaf-to-root elimination and
    one back-substitution, level by level; a zero entry cuts its edge.
    ``diag`` and ``rhs`` are overwritten.  Returns y (R, n).
    """
    nr = levels.n_roots
    for lo, hi, _, starts, heads in reversed(levels.per_level):
        ratio = up[:, lo - nr:hi - nr] / diag[:, lo:hi]
        diag[:, heads] -= np.add.reduceat(down[:, lo - nr:hi - nr] * ratio, starts,
                                          axis=1)
        rhs[:, heads] -= np.add.reduceat(rhs[:, lo:hi] * ratio, starts, axis=1)
    y = np.empty_like(rhs)
    y[:, :nr] = rhs[:, :nr] / diag[:, :nr]
    for lo, hi, par, _, _ in levels.per_level:
        y[:, lo:hi] = (rhs[:, lo:hi] - down[:, lo - nr:hi - nr]
                       * np.take(y, par, axis=1)) / diag[:, lo:hi]
    return y


def tree_matvec(levels: Levels, diag, up, down, y):
    """A y for R tree-sparse matrices A at once, in O(n) each, with A laid
    out as ``tree_solve`` takes it: ``diag`` (R, n) or a scalar, ``up`` and
    ``down`` (R, n − n_roots) A[p, c] and A[c, p] at every non-root
    position c with parent p, and y (R, n).  Returns A y (R, n)."""
    nr = levels.n_roots
    out = diag * y
    out[:, nr:] += down * np.take(y, levels.parent, axis=1)
    if levels.heads.size:
        out[:, levels.heads] += np.add.reduceat(up * y[:, nr:], levels.starts, axis=1)
    return out


@dataclass(frozen=True)
class PairwiseMarginal:
    """Joint law of a latent pair as (p_i1, p_j1, p_ij11) plus sample count."""

    p_i1: float
    p_j1: float
    p_ij11: float
    n_obs: int = 0

    def domain(self) -> tuple[float, float]:
        lo = max(0.0, self.p_i1 + self.p_j1 - 1.0)
        hi = min(self.p_i1, self.p_j1)
        return lo, hi

    def table(self) -> np.ndarray:
        """2x2 array indexed [s_i][s_j]."""
        return pair_tables(self.p_i1, self.p_j1, self.p_ij11)[0]

    def ratio(self) -> np.ndarray:
        """The table over the product of its node marginals, indexed
        [s_i][s_j]: the untempered coupling."""
        return pair_tables(self.p_i1, self.p_j1, self.p_ij11)[1]

    def validate(self):
        lo, hi = self.domain()
        if not lo <= self.p_ij11 <= hi:
            raise ValueError("p_ij11 outside the Frechet interval")
        if np.any(self.table() < 0.0):
            raise ValueError("negative cell probability")


@dataclass(frozen=True)
class LatentIsingModel:
    """Assembled model: graph, fields, tempered couplings, codecs.

    ``encoders`` is optional: bare models (fields and couplings only) are
    enough for inference tests; fitted models carry one encoder per node,
    which also holds that node's CDF.
    """

    topology: GraphTopology
    node_p1: np.ndarray            # shape (N,)
    marginals: tuple[PairwiseMarginal, ...]
    alpha: float
    phi: np.ndarray                # shape (N, 2), phi[i, s]
    psi: np.ndarray                # shape (E, 2, 2), psi[e, s_i, s_j]
    encoders: tuple | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def decoder(self, kind: str) -> BatchDecoder:
        """The batched decoder of the given kind over every node, built on
        its first use and kept with the model.  A model whose nodes do not
        all carry the encoder kind that ``kind`` inverts
        (``coding.DECODER_KINDS``) raises ``ValueError``."""
        key = ("decoder", kind)
        if key not in self._cache:
            if self.encoders is None:
                raise ValueError("model carries no encoders")
            self._cache[key] = BatchDecoder(kind, self.encoders)
        return self._cache[key]

    @property
    def engine(self):
        """The model's ``propagation.Engine``, built on first use and kept."""
        if "engine" not in self._cache:
            from .propagation import Engine  # propagation imports this module
            self._cache["engine"] = Engine(self)
        return self._cache["engine"]

    @cached_property
    def ratio(self) -> np.ndarray:
        """The untempered couplings p_ij / (p_i p_j) of every edge, shape
        (E, 2, 2), from ``marginals`` by ``pair_tables``; computed once per
        model.  A model without one marginal per edge raises
        ``ValueError``."""
        return pair_tables(*_marginal_columns(self.topology, self.marginals))[1]

    def with_alpha(self, alpha: float) -> "LatentIsingModel":
        """The model at a new temperature: psi = ``ratio`` ** alpha, the same
        ``psi`` that ``assemble`` gives at alpha.  Nothing else changes, so
        the topology, fields, marginals and encoders are this model's own
        objects and are not validated again.  The new model builds its own
        engine and decoders on first use."""
        check_alpha(alpha)
        return replace(self, alpha=float(alpha), psi=self.ratio**alpha)


def check_alpha(alpha: float):
    """Reject a temperature outside [0, 1] (NaN included)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")


def assemble(
    topology: GraphTopology,
    marginals,
    alpha: float,
    encoders=None,
    node_p1=None,
) -> LatentIsingModel:
    """Build the tempered model from per-edge pairwise marginals.

    Node marginals are shared: every edge touching a node must quote the
    same p1 (within 1e-9), either the encoder's value or one inferred from
    the first incident edge.  The couplings are ``pair_tables``' ratios of
    every edge's own (p_i1, p_j1, p_ij11) raised to alpha, all edges at
    once; a pairwise table with a zero cell would give an infinite
    coupling and is rejected, naming the first such edge.
    """
    marginals = tuple(marginals)
    columns = _marginal_columns(topology, marginals)
    check_alpha(alpha)

    n = topology.n_nodes
    p1 = np.full(n, np.nan)
    if encoders is not None:
        if len(encoders) != n:
            raise ValueError("one encoder required per node")
        p1[:] = [enc.p1 for enc in encoders]
    elif node_p1 is not None:
        p1[:] = np.asarray(node_p1, dtype=float)

    for (i, j), m in zip(topology.edges, marginals):
        for node, value in ((i, m.p_i1), (j, m.p_j1)):
            if np.isnan(p1[node]):
                p1[node] = value
            elif abs(p1[node] - value) > _MARGIN_TOL:
                raise ValueError(f"inconsistent node marginals at node {node}")
    if np.any(np.isnan(p1)):
        missing = int(np.flatnonzero(np.isnan(p1))[0])
        raise ValueError(f"no marginal available for node {missing}")
    if np.any(p1 <= 0.0) or np.any(p1 >= 1.0):
        raise ValueError("degenerate node marginal")

    tables, ratio = pair_tables(*columns)
    bad = np.any(tables <= 0.0, axis=(1, 2))
    if bad.any():
        i, j = topology.edges[bad.argmax()]
        raise ValueError(f"infinite coupling on edge ({i},{j})")

    return LatentIsingModel(
        topology=topology,
        node_p1=p1,
        marginals=marginals,
        alpha=float(alpha),
        phi=np.column_stack([1.0 - p1, p1]),
        psi=ratio**alpha,
        encoders=tuple(encoders) if encoders is not None else None,
    )


def pair_tables(pi, pj, p11):
    """Joint tables of latent pairs and their ratios to the products of
    each pair's node marginals: the one coupling formula of the model.

    Takes scalars, or 1-d arrays of equal length E, of p_i1, p_j1 and
    p_ij11 (``pi``, ``pj``, ``p11``), and returns (tables, ratios), each
    shaped (2, 2), or (E, 2, 2) for arrays, indexed [s_i][s_j]:
    p_ij(s_i, s_j) and p_ij(s_i, s_j) / (p_i(s_i) p_j(s_j)), the
    untempered coupling.
    """
    qi, qj = 1.0 - pi, 1.0 - pj
    shape = np.shape(pi) + (2, 2)
    tables = np.array([qi - pj + p11, pj - p11, pi - p11, p11], dtype=float)
    ratios = tables / np.array([qi * qj, qi * pj, pi * qj, pi * pj], dtype=float)
    return tuple(np.ascontiguousarray(a.T).reshape(shape) for a in (tables, ratios))


def _marginal_columns(topology: GraphTopology, marginals) -> np.ndarray:
    """The (p_i1, p_j1, p_ij11) of one marginal per edge of ``topology`` as
    three arrays; another count of marginals raises ``ValueError``."""
    if len(marginals) != topology.n_edges:
        raise ValueError("one pairwise marginal required per edge")
    return np.array([(m.p_i1, m.p_j1, m.p_ij11) for m in marginals]).reshape(-1, 3).T


def exact_joint(model: LatentIsingModel) -> np.ndarray:
    """Brute-force normalized joint table, shape (2,)*N.  Test oracle.

    Refuses more than 20 nodes.
    """
    n = model.topology.n_nodes
    if n > 20:
        raise ValueError("exact joint limited to 20 nodes")
    joint = np.ones((2,) * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = 2
        joint = joint * model.phi[i].reshape(shape)
    for e, (i, j) in enumerate(model.topology.edges):
        shape = [1] * n
        shape[i] = 2
        shape[j] = 2
        if i < j:
            block = model.psi[e]
        else:
            block = model.psi[e].T
        joint = joint * block.reshape(shape)
    total = joint.sum()
    if total <= 0.0:
        raise ValueError("joint table sums to zero")
    return joint / total
