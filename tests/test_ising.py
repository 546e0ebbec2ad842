import numpy as np
import pytest

from latent_ising import GraphTopology, PairwiseMarginal, assemble, exact_joint
from latent_ising.ising import tree_solve

from oracles import (
    degree,
    is_forest_union_find,
    node_marginal,
    pair_marginal,
    random_consistent_marginals,
    random_tree_edges,
)


def _random_graph(rng, n):
    """Random edges without duplicates: isolated nodes, several components
    and cycles all occur."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = int(rng.integers(0, min(len(pairs), n + 2) + 1))
    picked = rng.permutation(len(pairs))[:m]
    edges = [pairs[k] if rng.random() < 0.5 else pairs[k][::-1] for k in picked]
    return GraphTopology(n, tuple(edges))


def test_topology_validation():
    with pytest.raises(ValueError, match="self-loop"):
        GraphTopology(3, ((0, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        GraphTopology(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="out of range"):
        GraphTopology(2, ((0, 2),))
    topo = GraphTopology(3, ((0, 1), (1, 2)))
    assert degree(topo, 1) == 2
    assert degree(topo, 0) == 1
    assert topo.factors() == [(0, 1), (1, 2)]


def test_is_forest_matches_union_find():
    rng = np.random.default_rng(40)
    seen = set()
    for _ in range(1500):
        topo = _random_graph(rng, int(rng.integers(1, 12)))
        expected = is_forest_union_find(topo.n_nodes, topo.edges)
        assert topo.is_forest == expected, topo
        seen.add(expected)
    assert seen == {True, False}
    assert GraphTopology(0, ()).is_forest


def test_layout_is_breadth_first_from_each_components_lowest_node():
    rng = np.random.default_rng(41)
    for _ in range(400):
        topo = _random_graph(rng, int(rng.integers(1, 12)))
        n = topo.n_nodes
        order, parent, parent_edge, depth = topo.layout
        assert sorted(order.tolist()) == list(range(n))
        pos = np.argsort(order)
        # levels are contiguous, in order of depth
        assert np.all(np.diff(depth[order]) >= 0)
        # one root per component, its lowest node
        component = {}
        for r in order[depth[order] == 0].tolist():
            stack = [r]
            while stack:
                u = stack.pop()
                if u not in component:
                    component[u] = r
                    stack.extend(v for i, j in topo.edges if u in (i, j)
                                 for v in (i, j) if v != u)
        assert len(component) == n
        assert all(component[r] == r for r in order[depth[order] == 0].tolist())
        assert all(r <= v for v, r in component.items())
        roots = parent < 0
        np.testing.assert_array_equal(roots, depth == 0)
        np.testing.assert_array_equal(roots, parent_edge < 0)
        # every edge spans at most one level, and a parent edge exactly one
        for e, (i, j) in enumerate(topo.edges):
            assert abs(depth[i] - depth[j]) <= 1
        for v in np.flatnonzero(~roots).tolist():
            assert set(topo.edges[parent_edge[v]]) == {v, parent[v]}
            assert depth[v] == depth[parent[v]] + 1
            # discovered by its first neighbour one level up in the order
            ups = [u for i, j in topo.edges if v in (i, j)
                   for u in (i, j) if u != v and depth[u] == depth[v] - 1]
            assert parent[v] == min(ups, key=pos.__getitem__)
        # each level grouped by parent in the order of the level above,
        # each parent's children in edge order
        child = order[roots.sum():]
        key = np.column_stack([pos[parent[child]], parent_edge[child]])
        assert all(tuple(a) < tuple(b) for a, b in zip(key[:-1], key[1:]))
        for a in topo.layout:
            assert not a.flags.writeable


def test_levels_group_the_layout_by_depth():
    rng = np.random.default_rng(47)
    kinds = set()  # a level's heads: a slice where its parents are consecutive
    for _ in range(40):
        topo = _random_graph(rng, int(rng.integers(1, 14)))
        order, parent, _, depth = topo.layout
        levels = topo.levels
        nr = levels.n_roots
        assert levels.order is order and topo.levels is levels
        np.testing.assert_array_equal(order[levels.position], np.arange(topo.n_nodes))
        np.testing.assert_array_equal(order[levels.parent], parent[order[nr:]])
        # one reduceat run per parent
        assert np.all(np.diff(levels.parent) >= 0)
        np.testing.assert_array_equal(levels.heads, levels.parent[levels.starts])
        np.testing.assert_array_equal(levels.heads, np.unique(levels.parent))
        covered = nr
        for lo, hi, par, starts, heads in levels.per_level:
            assert lo == covered and len(set(depth[order[lo:hi]].tolist())) == 1
            np.testing.assert_array_equal(par, levels.parent[lo - nr:hi - nr])
            np.testing.assert_array_equal(np.arange(topo.n_nodes)[heads], par[starts])
            kinds.add(type(heads))
            covered = hi
        assert covered == topo.n_nodes
    assert kinds == {slice, np.ndarray}


def _tree_systems(rng, topo, n_rows, symmetric):
    """R dense systems A = D S on the graph: S symmetric and diagonally
    dominant, D a positive diagonal (the identity when ``symmetric``)."""
    n = topo.n_nodes
    a = np.zeros((n_rows, n, n))
    for i, j in topo.edges:
        a[:, i, j] = a[:, j, i] = rng.uniform(-1.0, 1.0, n_rows)
    idx = np.arange(n)
    a[:, idx, idx] = np.abs(a).sum(axis=2) + rng.uniform(0.1, 1.0, (n_rows, n))
    if not symmetric:
        a *= rng.uniform(0.2, 5.0, (n_rows, n, 1))
    return a


@pytest.mark.parametrize("symmetric", [True, False])
def test_tree_solve_matches_dense_solve(symmetric):
    rng = np.random.default_rng(48)
    cases = []
    for _ in range(60):
        n = int(rng.integers(1, 25))
        edges = [e for e in random_tree_edges(rng, n) if rng.random() < 0.8]
        cases.append((GraphTopology(n, tuple(edges)), None))
    star = GraphTopology(1101, tuple((0, i) for i in range(1, 1101)))
    cases += [(star, "random"), (star, "all"), (star, "one")]
    for topo, masks in cases:
        n, n_rows = topo.n_nodes, 3
        a = _tree_systems(rng, topo, n_rows, symmetric)
        b = rng.normal(size=(n_rows, n))
        hidden = rng.random((n_rows, n)) < 0.6
        if masks in (None, "all"):
            hidden[0] = True
        if masks in (None, "one"):
            hidden[-1] = np.arange(n) == rng.integers(n)
        levels = topo.levels
        order, nr = levels.order, levels.n_roots
        child, parent = order[nr:], order[levels.parent]
        hid = hidden[:, order]
        kept = hid[:, nr:] & hid[:, levels.parent]  # the edges inside H
        up = np.where(kept, a[:, parent, child], 0.0)
        down = np.where(kept, a[:, child, parent], 0.0)
        if symmetric:
            np.testing.assert_array_equal(up, down)
            down = up
        diag = np.where(hid, a[:, order, order], 1.0)
        y = tree_solve(levels, diag, up, down, np.where(hid, b[:, order], 0.0))
        y = y[:, levels.position]
        for r in range(n_rows):
            h = np.flatnonzero(hidden[r])
            if h.size:
                expected = np.linalg.solve(a[r][np.ix_(h, h)], b[r, h])
                np.testing.assert_allclose(y[r, h], expected, rtol=1e-10, atol=1e-12)


def test_alpha_zero_gives_unit_couplings():
    m = PairwiseMarginal(0.5, 0.5, 0.4)
    model = assemble(GraphTopology(2, ((0, 1),)), [m], 0.0)
    np.testing.assert_allclose(model.psi[0], 1.0)
    joint = exact_joint(model)
    np.testing.assert_allclose(joint, np.outer(model.phi[0], model.phi[1]))


def test_single_edge_coupling_table():
    m = PairwiseMarginal(0.5, 0.5, 0.4)
    model = assemble(GraphTopology(2, ((0, 1),)), [m], 1.0)
    np.testing.assert_allclose(model.psi[0], [[1.6, 0.4], [0.4, 1.6]])


def test_independence_marginals_unit_couplings():
    m = PairwiseMarginal(0.3, 0.6, 0.18)
    for alpha in (0.0, 0.37, 1.0):
        model = assemble(GraphTopology(2, ((0, 1),)), [m], alpha)
        np.testing.assert_allclose(model.psi[0], 1.0, atol=1e-12)


def test_phi_fields_normalized():
    m = PairwiseMarginal(0.3, 0.6, 0.25)
    model = assemble(GraphTopology(2, ((0, 1),)), [m], 1.0)
    np.testing.assert_allclose(model.phi.sum(axis=1), 1.0)
    np.testing.assert_allclose(model.phi[:, 1], [0.3, 0.6])


def test_edge_orientation_invariance():
    m_fwd = PairwiseMarginal(0.3, 0.6, 0.25)
    m_rev = PairwiseMarginal(0.6, 0.3, 0.25)
    a = assemble(GraphTopology(2, ((0, 1),)), [m_fwd], 0.7)
    b = assemble(GraphTopology(2, ((1, 0),)), [m_rev], 0.7)
    np.testing.assert_allclose(a.psi[0], b.psi[0].T)
    np.testing.assert_allclose(exact_joint(a), exact_joint(b))


def test_inconsistent_node_marginals_rejected():
    topo = GraphTopology(3, ((0, 1), (1, 2)))
    ms = [PairwiseMarginal(0.5, 0.5, 0.3), PairwiseMarginal(0.45, 0.5, 0.3)]
    with pytest.raises(ValueError, match="inconsistent"):
        assemble(topo, ms, 1.0)


def test_boundary_table_rejected_as_infinite_coupling():
    m = PairwiseMarginal(0.5, 0.5, 0.5)  # zero off-diagonal cells
    with pytest.raises(ValueError, match="infinite coupling"):
        assemble(GraphTopology(2, ((0, 1),)), [m], 1.0)


def test_alpha_out_of_range_rejected():
    m = PairwiseMarginal(0.5, 0.5, 0.3)
    with pytest.raises(ValueError, match="alpha"):
        assemble(GraphTopology(2, ((0, 1),)), [m], 1.5)


def test_with_alpha_reuses_marginals():
    m = PairwiseMarginal(0.5, 0.5, 0.4)
    model = assemble(GraphTopology(2, ((0, 1),)), [m], 1.0)
    half = model.with_alpha(0.5)
    np.testing.assert_allclose(half.psi[0], model.psi[0] ** 0.5)
    assert half.marginals == model.marginals


def test_exact_joint_single_node_is_phi():
    model = assemble(GraphTopology(1, ()), [], 1.0, node_p1=[0.3])
    np.testing.assert_allclose(exact_joint(model), [0.7, 0.3])


def test_exact_joint_size_guard():
    model = assemble(GraphTopology(21, ()), [], 1.0, node_p1=[0.5] * 21)
    with pytest.raises(ValueError, match="20"):
        exact_joint(model)


def test_tree_joint_reproduces_input_marginals():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        edges = random_tree_edges(rng, n)
        p1, marginals = random_consistent_marginals(rng, edges, n)
        model = assemble(GraphTopology(n, tuple(edges)), marginals, 1.0)
        joint = exact_joint(model)
        for i in range(n):
            assert node_marginal(joint, i)[1] == pytest.approx(p1[i], abs=1e-10)
        for (i, j), m in zip(edges, marginals):
            table = pair_marginal(joint, i, j)
            np.testing.assert_allclose(table, m.table(), atol=1e-10)
