"""Latent Ising model assembly from node and pairwise marginals.

The joint law over the binary latent vector is written in tempered
pairwise-ratio form: per edge a coupling table

    psi_ij(s_i, s_j) = (p_ij(s_i, s_j) / (p_i(s_i) p_j(s_j)))**alpha

and per node the field phi_i = (1 - p_i1, p_i1).  At alpha = 1 on trees
this reproduces the joint distribution with the given marginals exactly;
alpha < 1 tempers the couplings to compensate overcounting on loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coding import BatchDecoder

__all__ = [
    "GraphTopology",
    "LatentIsingModel",
    "PairwiseMarginal",
    "assemble",
    "check_alpha",
    "exact_joint",
]

_MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class GraphTopology:
    """Undirected graph: node count plus an edge list without duplicates."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        object.__setattr__(self, "edges", edges)
        seen = set()
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_nodes)]
        for e, (i, j) in enumerate(edges):
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge ({i},{j}) out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add(key)
            adj[i].append((e, 0))  # (edge index, side of this node)
            adj[j].append((e, 1))
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    @cached_property
    def is_forest(self) -> bool:
        """True when the graph has no cycle; computed once per topology."""
        root = list(range(self.n_nodes))

        def find(v):
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        for i, j in self.edges:
            a, b = find(i), find(j)
            if a == b:
                return False
            root[a] = b
        return True

    def factors(self) -> list[tuple[int, ...]]:
        """Edges viewed as pairwise factors of a factor graph."""
        return [tuple(e) for e in self.edges]


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
        pi, pj, p11 = self.p_i1, self.p_j1, self.p_ij11
        return np.array(
            [[1.0 - pi - pj + p11, pj - p11], [pi - p11, p11]], dtype=float
        )

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

    def with_alpha(self, alpha: float) -> "LatentIsingModel":
        """Reassemble with a new temperature, reusing the fitted marginals."""
        return assemble(self.topology, self.marginals, alpha,
                        encoders=self.encoders, node_p1=self.node_p1)


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
    the first incident edge.  A pairwise table with a zero cell would give
    an infinite coupling and is rejected.
    """
    marginals = tuple(marginals)
    if len(marginals) != topology.n_edges:
        raise ValueError("one pairwise marginal required per edge")
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

    phi = np.column_stack([1.0 - p1, p1])
    psi = np.empty((topology.n_edges, 2, 2))
    for e, ((i, j), m) in enumerate(zip(topology.edges, marginals)):
        table = m.table()
        if np.any(table <= 0.0):
            raise ValueError(f"infinite coupling on edge ({i},{j})")
        ratio = table / np.outer(phi[i], phi[j])
        psi[e] = ratio**alpha

    return LatentIsingModel(
        topology=topology,
        node_p1=p1,
        marginals=marginals,
        alpha=float(alpha),
        phi=phi,
        psi=psi,
        encoders=tuple(encoders) if encoders is not None else None,
    )


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
