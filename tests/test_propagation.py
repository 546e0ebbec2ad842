import dataclasses
import functools
import warnings
from collections import Counter

import numpy as np
import pytest

from latent_ising import (
    Engine,
    ForestSolver,
    GraphTopology,
    LatentIsingModel,
    PairwiseMarginal,
    Schedule,
    assemble,
    bp_run,
    build_encoder,
    exact_joint,
    graph_cut_check,
    impose_observations,
    mbp_run,
    predict,
)
from latent_ising.alpha_calibration import deviation
from latent_ising.coding import bayes_quad_level
from latent_ising.propagation import _LIST_MAX_SLOTS, reveal_tilt

from oracles import (
    edge_state_per_level,
    graph_cut_check_union_find,
    ipf_fit,
    node_marginal,
    pair_marginal,
    random_consistent_marginals,
    random_tree_edges,
)


def _random_tree_model(rng, n, alpha=1.0):
    edges = random_tree_edges(rng, n)
    _, marginals = random_consistent_marginals(rng, edges, n)
    return assemble(GraphTopology(n, tuple(edges)), marginals, alpha)


def _random_loopy_model(rng, n, alpha=1.0):
    """Random tree plus one chord: a single cycle."""
    edges = random_tree_edges(rng, n)
    while True:
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        if (i, j) not in edges:
            break
    edges.append((i, j))
    _, marginals = random_consistent_marginals(rng, edges, n)
    return assemble(GraphTopology(n, tuple(edges)), marginals, alpha)


def _random_init(rng, n_edges):
    init = rng.uniform(0.1, 0.9, size=(n_edges, 2, 2))
    return init / init.sum(axis=2, keepdims=True)


def _raw_model(topology, phi, psi):
    """Model with explicit fields and couplings, bypassing marginals."""
    phi = np.asarray(phi, dtype=float)
    return LatentIsingModel(
        topology=topology,
        node_p1=phi[:, 1].copy(),
        marginals=(),
        alpha=1.0,
        phi=phi,
        psi=np.asarray(psi, dtype=float),
        encoders=None,
    )


# --- plain BP ----------------------------------------------------------------

def test_alpha_zero_converges_first_sweep_to_fields():
    rng = np.random.default_rng(0)
    model = _random_tree_model(rng, 6, alpha=0.0)
    state, report = bp_run(model)
    assert report.converged
    assert report.sweeps <= 2
    np.testing.assert_array_equal(state.node_beliefs, model.phi)


def test_single_edge_beliefs_reproduce_pair_table():
    m = PairwiseMarginal(0.5, 0.5, 0.4)
    model = assemble(GraphTopology(2, ((0, 1),)), [m], 1.0)
    state, report = bp_run(model)
    assert report.converged
    np.testing.assert_allclose(state.node_beliefs, [[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_allclose(state.edge_beliefs[0], m.table())


@pytest.mark.parametrize("alpha", [1.0, 0.55])
def test_bp_matches_exact_marginals_on_random_trees(alpha):
    rng = np.random.default_rng(1)
    for _ in range(15):
        n = int(rng.integers(2, 11))
        model = _random_tree_model(rng, n, alpha=alpha)
        init = _random_init(rng, model.topology.n_edges)
        state, report = bp_run(model, init_messages=init)
        assert report.converged
        joint = exact_joint(model)
        for i in range(n):
            np.testing.assert_allclose(
                state.node_beliefs[i], node_marginal(joint, i), atol=1e-8
            )
        for e, (i, j) in enumerate(model.topology.edges):
            np.testing.assert_allclose(
                state.edge_beliefs[e], pair_marginal(joint, i, j), atol=1e-8
            )


def test_messages_stay_normalized():
    rng = np.random.default_rng(2)
    model = _random_tree_model(rng, 8)
    init = _random_init(rng, model.topology.n_edges)
    state, _ = bp_run(model, init_messages=init, schedule=Schedule(max_sweeps=3))
    np.testing.assert_allclose(state.messages.sum(axis=2), 1.0, atol=1e-12)


def test_nonconvergence_reported_not_raised():
    # strongly coupled 4-cycle, couplings near the boundary
    edges = ((0, 1), (1, 2), (2, 3), (3, 0))
    ms = [PairwiseMarginal(0.5, 0.5, 0.499999)] * 4
    model = assemble(GraphTopology(4, edges), ms, 1.0)
    rng = np.random.default_rng(3)
    init = _random_init(rng, 4)
    state, report = bp_run(model, Schedule(max_sweeps=30), init_messages=init)
    assert not report.converged
    assert report.sweeps == 30
    assert np.isfinite(state.node_beliefs).all()


# --- mirror BP ---------------------------------------------------------------

def test_two_node_mirror_is_conditional_mixture():
    table = np.array([[0.4, 0.1], [0.1, 0.4]])
    m = PairwiseMarginal(0.5, 0.5, 0.4)
    model = assemble(GraphTopology(2, ((0, 1),)), [m], 1.0)
    state, report = mbp_run(model, {0: np.array([0.0, 1.0])})
    assert report.converged
    np.testing.assert_allclose(state.node_beliefs[0], [0.0, 1.0])
    expected = table[1] / table[1].sum()  # p(s_j | s_i = 1)
    np.testing.assert_allclose(state.node_beliefs[1], expected, atol=1e-9)

    # soft constraint: Jeffrey's rule on the pair
    bstar = np.array([0.3, 0.7])
    state, _ = mbp_run(model, {0: bstar})
    cond = table / table.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(state.node_beliefs[1], bstar @ cond, atol=1e-9)


def test_constraining_to_current_belief_changes_nothing():
    rng = np.random.default_rng(4)
    model = _random_tree_model(rng, 7, alpha=0.8)
    free_state, _ = bp_run(model)
    target = free_state.node_beliefs[3].copy()
    state, report = mbp_run(model, {3: target})
    assert report.converged
    np.testing.assert_allclose(state.node_beliefs, free_state.node_beliefs, atol=1e-7)


@pytest.mark.parametrize("alpha", [1.0, 0.6])
def test_mbp_matches_ipf_oracle_on_random_trees(alpha):
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(3, 11))
        model = _random_tree_model(rng, n, alpha=alpha)
        n_cons = int(rng.integers(1, 4))
        nodes = rng.choice(n, size=n_cons, replace=False)
        constraints = {}
        for i in nodes:
            b1 = float(rng.uniform(0.05, 0.95))
            constraints[int(i)] = np.array([1 - b1, b1])
        state, report = mbp_run(model, constraints)
        assert report.converged
        fitted = ipf_fit(exact_joint(model), constraints)
        for i in range(n):
            np.testing.assert_allclose(
                state.node_beliefs[i], node_marginal(fitted, i), atol=1e-6
            )
        for i, b in constraints.items():
            np.testing.assert_array_equal(state.node_beliefs[i], b)


def test_hard_constraint_with_message_flooring():
    rng = np.random.default_rng(6)
    model = _random_tree_model(rng, 6)
    constraints = {0: np.array([1.0, 0.0]), 5: np.array([0.0, 1.0])}
    state, report = mbp_run(model, constraints)
    assert report.converged
    fitted = ipf_fit(exact_joint(model), constraints)
    for i in range(6):
        np.testing.assert_allclose(
            state.node_beliefs[i], node_marginal(fitted, i), atol=1e-6
        )
    # pair beliefs at the pinned nodes put no mass on the excluded state
    pinned_edges = [e for e, (i, j) in enumerate(model.topology.edges)
                    if {i, j} & set(constraints)]
    assert pinned_edges
    for e in pinned_edges:
        i, j = model.topology.edges[e]
        np.testing.assert_allclose(
            state.edge_beliefs[e], pair_marginal(fitted, i, j), atol=1e-6
        )


def test_pair_belief_compatibility_at_fixed_point():
    rng = np.random.default_rng(7)
    model = _random_tree_model(rng, 8, alpha=0.9)
    constraints = {2: np.array([0.8, 0.2])}
    state, report = mbp_run(model, constraints)
    assert report.converged
    for e, (i, j) in enumerate(model.topology.edges):
        np.testing.assert_allclose(
            state.edge_beliefs[e].sum(axis=1), state.node_beliefs[i], atol=1e-7
        )
        np.testing.assert_allclose(
            state.edge_beliefs[e].sum(axis=0), state.node_beliefs[j], atol=1e-7
        )


def test_prop5_chains_converge():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(3, 11))
        edges = tuple((i, i + 1) for i in range(n - 1))
        topo = GraphTopology(n, edges)
        phi = rng.uniform(0.1, 0.9, size=(n, 2))
        phi /= phi.sum(axis=1, keepdims=True)
        psi = rng.uniform(0.05, 1.0, size=(n - 1, 2, 2))
        model = _raw_model(topo, phi, psi)
        b_lo = float(rng.uniform(0.05, 0.95))
        b_hi = float(rng.uniform(0.05, 0.95))
        constraints = {0: np.array([1 - b_lo, b_lo]), n - 1: np.array([1 - b_hi, b_hi])}
        assert graph_cut_check(topo, constraints) == "guaranteed"
        state, report = mbp_run(model, constraints)
        assert report.converged, (n, report.residual)
        np.testing.assert_array_equal(state.node_beliefs[0], constraints[0])


def test_warm_start_reaches_same_fixed_point_faster():
    rng = np.random.default_rng(9)
    model = _random_tree_model(rng, 10)
    c1 = {0: np.array([0.9, 0.1])}
    state1, report1 = mbp_run(model, c1)
    c2 = dict(c1)
    c2[4] = np.array([0.2, 0.8])
    cold, rep_cold = mbp_run(model, c2)
    warm, rep_warm = mbp_run(model, c2, init_messages=state1.messages)
    np.testing.assert_allclose(cold.node_beliefs, warm.node_beliefs, atol=1e-7)
    assert rep_warm.sweeps <= rep_cold.sweeps


def test_batched_sweep_equals_single_runs():
    # each run in a batch keeps its own pins, warm start and damping state
    # and stops at its own convergence sweep
    rng = np.random.default_rng(12)
    n_runs = 16
    # strongly coupled 4-cycle: some runs converge, at different sweeps,
    # and some plateau until damping escalates
    edges = ((0, 1), (1, 2), (2, 3), (3, 0))
    model = assemble(GraphTopology(4, edges),
                     [PairwiseMarginal(0.5, 0.5, 0.499)] * 4, 1.0)
    engine = Engine(model)
    schedule = Schedule(max_sweeps=80, tol=1e-10, auto_damp=True)
    pinned = rng.random((n_runs, 4)) < 0.3
    b1 = rng.integers(1, 64, size=(n_runs, 4)) / 64.0  # sums stay exact
    bstar = np.stack([1.0 - b1, b1], axis=-1)
    init = rng.uniform(0.1, 0.9, size=(n_runs, engine.n_slots, 2))

    messages, converged, sweeps, residual = engine.sweep(
        init, pinned, bstar, schedule
    )
    beliefs = engine.node_beliefs(messages, pinned, bstar)
    pairs = engine.edge_beliefs(messages, pinned, bstar)
    for r in range(n_runs):
        one = slice(r, r + 1)
        m, conv, sw, res = engine.sweep(init[one], pinned[one], bstar[one], schedule)
        np.testing.assert_array_equal(messages[one], m)
        np.testing.assert_array_equal(
            beliefs[one], engine.node_beliefs(m, pinned[one], bstar[one]))
        np.testing.assert_array_equal(
            pairs[one], engine.edge_beliefs(m, pinned[one], bstar[one]))
        assert converged[r] == conv[0]
        assert sweeps[r] == sw[0]
        assert residual[r] == res[0]
    assert len(set(sweeps[converged].tolist())) > 1  # staggered stops
    assert not converged.all()
    undamped = Schedule(max_sweeps=80, tol=1e-10, auto_damp=False)
    assert not np.array_equal(
        engine.sweep(init, pinned, bstar, undamped)[0], messages
    )


def _pinned_query(rng, n):
    """Random pins on about 30 % of the nodes, as (constraints, pinned, bstar)."""
    pinned = rng.random(n) < 0.3
    b1 = rng.integers(1, 64, size=n) / 64.0  # sums stay exact
    bstar = np.where(pinned[:, None], np.stack([1.0 - b1, b1], axis=-1), 0.0)
    constraints = {int(i): bstar[i] for i in np.flatnonzero(pinned)}
    return constraints, pinned, bstar


@pytest.mark.parametrize("n_slots", [_LIST_MAX_SLOTS, _LIST_MAX_SLOTS + 2])
def test_run_picks_the_traversal_from_the_graph_size(n_slots):
    # at or below the constant Engine.run is the list traversal, above it on
    # a loopy graph a one-run Engine.sweep, bit for bit
    rng = np.random.default_rng(15)
    schedule = Schedule()
    for _ in range(5):
        if n_slots <= _LIST_MAX_SLOTS:
            engine = Engine(_random_tree_model(rng, n_slots // 2 + 1))
        else:
            engine = Engine(_random_loopy_model(rng, n_slots // 2))
            assert not engine.model.topology.is_forest
        assert engine.n_slots == n_slots
        constraints, pinned, bstar = _pinned_query(rng, engine.model.topology.n_nodes)
        init = rng.uniform(0.1, 0.9, size=(engine.n_slots, 2))
        state, report = engine.run(constraints, schedule, init_messages=init)
        if n_slots <= _LIST_MAX_SLOTS:
            m, converged, sweeps, residual = engine._sweep_sequential(
                init / init.sum(axis=1, keepdims=True), pinned.tolist(),
                bstar[:, 0].tolist(), bstar[:, 1].tolist(), schedule,
            )
        else:
            m, converged, sweeps, residual = (
                x[0] for x in engine.sweep(init[None], pinned[None], bstar[None],
                                           schedule)
            )
        np.testing.assert_array_equal(state.messages.reshape(-1, 2), m)
        beliefs = engine.node_beliefs(m[None], pinned[None], bstar[None])[0]
        np.testing.assert_array_equal(state.node_beliefs, beliefs)
        assert (report.converged, report.sweeps, report.residual) == (
            converged, sweeps, residual)
        assert report.method == "sweep"


def test_run_solves_constrained_forests_above_the_list_size():
    # a constrained tree of more than _LIST_MAX_SLOTS slots is a one-run
    # ForestSolver.solve from zero tilts, bit for bit; without constraints
    # it still sweeps
    rng = np.random.default_rng(15)
    n = _LIST_MAX_SLOTS // 2 + 2
    for _ in range(5):
        model = _random_tree_model(rng, n, alpha=1.0 - rng.random())
        engine = Engine(model)
        assert engine.n_slots == _LIST_MAX_SLOTS + 2
        constraints, pinned, bstar = _pinned_query(rng, n)
        assert constraints
        state, report = engine.run(constraints)
        beliefs, _, converged, steps, residual = ForestSolver(model).solve(
            pinned[None], bstar[None], np.zeros((1, n)))
        np.testing.assert_array_equal(state.node_beliefs, beliefs[0])
        assert (report.converged, report.sweeps, report.residual, report.method) == (
            converged[0], steps[0], residual[0], "newton")
        assert report.converged
        _, free = engine.run()
        assert free.converged and free.method == "sweep"


def test_traversals_agree_on_trees():
    rng = np.random.default_rng(16)
    schedule = Schedule()
    for n in (2, 7, _LIST_MAX_SLOTS // 2 + 1, 40):
        engine = Engine(_random_tree_model(rng, n))
        _, pinned, bstar = _pinned_query(rng, n)
        init = np.full((engine.n_slots, 2), 0.5)
        listed, list_converged, _, _ = engine._sweep_sequential(
            init, pinned.tolist(), bstar[:, 0].tolist(), bstar[:, 1].tolist(),
            schedule,
        )
        swept, sweep_converged, _, _ = engine.sweep(
            init[None], pinned[None], bstar[None], schedule
        )
        assert list_converged and sweep_converged[0]
        np.testing.assert_allclose(
            engine.node_beliefs(listed[None], pinned[None], bstar[None]),
            engine.node_beliefs(swept, pinned[None], bstar[None]),
            atol=1e-8,
        )


def test_plateau_damping_is_the_default_on_large_loopy_graphs():
    # strongly anticorrelated 5x5 grid: synchronous pure updates oscillate
    # with period 2, plateau damping settles them
    k = 5
    rows = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    cols = [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    edges = tuple(rows + cols)
    model = assemble(GraphTopology(k * k, edges),
                     [PairwiseMarginal(0.5, 0.5, 0.01)] * len(edges), 1.0)
    engine = Engine(model)
    assert engine.n_slots > _LIST_MAX_SLOTS
    init = _random_init(np.random.default_rng(1), len(edges))
    constraints = {0: np.array([0.3, 0.7])}
    _, pure = engine.run(constraints, Schedule(max_sweeps=1000, auto_damp=False),
                         init_messages=init)
    state, damped = engine.run(constraints, Schedule(max_sweeps=1000),
                               init_messages=init)
    assert not pure.converged
    assert damped.converged and damped.sweeps > 40
    np.testing.assert_array_equal(state.node_beliefs[0], constraints[0])
    # escalated damping keeps the fixed point: the pure in-place list
    # traversal settles from the same start to the same beliefs
    pinned = np.zeros(k * k, dtype=bool)
    pinned[0] = True
    bstar = np.zeros((k * k, 2))
    bstar[0] = constraints[0]
    listed, list_converged, _, _ = engine._sweep_sequential(
        init.reshape(-1, 2), pinned.tolist(), bstar[:, 0].tolist(),
        bstar[:, 1].tolist(), Schedule(auto_damp=False),
    )
    assert list_converged
    np.testing.assert_allclose(
        engine.node_beliefs(listed[None], pinned[None], bstar[None])[0],
        state.node_beliefs, atol=1e-7,
    )


@pytest.mark.parametrize("kernel", ["sequential", "synchronous"])
def test_underflowing_node_product_is_not_converged(kernel):
    # the hub's product of 1099 messages near 1/2 underflows to 0, so its
    # outgoing messages are 0/0; a NaN change must never pass as converged
    n = 1101
    edges = tuple((0, i) for i in range(1, n))
    model = assemble(GraphTopology(n, edges),
                     [PairwiseMarginal(0.5, 0.5, 0.3)] * (n - 1), 1.0)
    engine = Engine(model)
    pinned = np.zeros(n, dtype=bool)
    pinned[5] = True
    bstar = np.zeros((n, 2))
    bstar[5] = [0.2, 0.8]
    schedule = Schedule(max_sweeps=3)
    init = np.full((engine.n_slots, 2), 0.5)
    with np.errstate(invalid="ignore"):
        if kernel == "sequential":  # the list traversal, called directly
            m, converged, sweeps, residual = engine._sweep_sequential(
                init, pinned.tolist(), bstar[:, 0].tolist(), bstar[:, 1].tolist(),
                schedule,
            )
        else:  # the synchronous kernel, called directly
            m, converged, sweeps, residual = (
                x[0] for x in engine.sweep(init[None], pinned[None], bstar[None],
                                           schedule)
            )
        beliefs = engine.node_beliefs(m[None], pinned[None], bstar[None])[0]
    assert not converged
    assert sweeps == 3
    assert np.isnan(residual)
    assert not np.isfinite(beliefs).all()


# --- exact forest solver -----------------------------------------------------

def _random_forest_model(rng, n, alpha):
    """Random tree with about a third of its edges cut: several components."""
    edges = random_tree_edges(rng, n)
    p1, marginals = random_consistent_marginals(rng, edges, n)
    keep = rng.random(len(edges)) < 0.7
    return assemble(
        GraphTopology(n, tuple(e for e, k in zip(edges, keep) if k)),
        [m for m, k in zip(marginals, keep) if k], alpha, node_p1=p1,
    )


def _random_evidence(rng, n_runs, n):
    """Observed masks and normalized b* with about 20 % hard 0/1 targets."""
    observed = rng.random((n_runs, n)) < rng.uniform(0.1, 0.9, (n_runs, 1))
    b1 = rng.uniform(0.02, 0.98, (n_runs, n))
    u = rng.random((n_runs, n))
    b1[u < 0.1] = 0.0
    b1[u > 0.9] = 1.0
    return observed, np.stack([1.0 - b1, b1], axis=-1)


def _constraints(observed, bstar):
    return {int(i): bstar[i] for i in np.flatnonzero(observed)}


@pytest.mark.filterwarnings("error")
def test_forest_solver_matches_ipf_oracle():
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 11))
        model = _random_forest_model(rng, n, alpha=1.0 - rng.random())
        observed, bstar = _random_evidence(rng, 1, n)
        beliefs, _, converged, _, residual = ForestSolver(model).solve(observed, bstar)
        assert converged[0] and residual[0] < 1e-12
        fitted = ipf_fit(exact_joint(model), _constraints(observed[0], bstar[0]))
        for i in range(n):
            worst = max(worst, np.abs(beliefs[0, i] - node_marginal(fitted, i)).max())
        np.testing.assert_array_equal(beliefs[observed], bstar[observed])
    assert worst <= 1e-9


def test_forest_solver_matches_converged_mirror_bp():
    rng = np.random.default_rng(17)
    compared = 0
    for _ in range(30):
        n = int(rng.integers(2, 31))
        model = _random_forest_model(rng, n, alpha=1.0 - rng.random())
        observed, bstar = _random_evidence(rng, 1, n)
        beliefs = ForestSolver(model).solve(observed, bstar)[0][0]
        state, report = mbp_run(model, _constraints(observed[0], bstar[0]),
                                Schedule(tol=1e-12, max_sweeps=100_000))
        if report.converged:
            compared += 1
            np.testing.assert_allclose(beliefs, state.node_beliefs, rtol=0, atol=1e-8)
    assert compared >= 20


def test_forest_solver_batch_rows_equal_single_runs():
    rng = np.random.default_rng(18)
    model = _random_forest_model(rng, 60, alpha=0.8)
    solver = ForestSolver(model)
    observed, bstar = _random_evidence(rng, 24, 60)
    observed[0] = False  # nothing observed
    observed[1] = True   # everything observed
    batch = solver.solve(observed, bstar)
    assert batch[2].all()
    assert len(set(batch[3].tolist())) > 1  # runs stop at different steps
    for r in range(24):
        one = solver.solve(observed[r:r + 1], bstar[r:r + 1])
        for a, b in zip(batch, one):
            np.testing.assert_array_equal(a[r:r + 1], b)


def test_forest_solver_warm_and_cold_starts_agree():
    rng = np.random.default_rng(19)
    model = _random_forest_model(rng, 40, alpha=0.9)
    solver = ForestSolver(model)
    observed, bstar = _random_evidence(rng, 12, 40)
    cold = solver.solve(observed, bstar)
    start = cold[1] + rng.normal(0.0, 1.0, cold[1].shape)
    warm = solver.solve(observed, bstar, start)
    assert warm[2].all()
    np.testing.assert_allclose(warm[0], cold[0], rtol=0, atol=1e-10)
    # close to the solution Newton's steps converge quadratically
    near = solver.solve(observed, bstar, cold[1] + rng.normal(0.0, 1e-3, cold[1].shape))
    assert near[2].all()
    assert near[3].max() <= 3


def test_forest_solver_single_observed_node_needs_no_step():
    # a reveal_tilt start from the unobserved marginals tilts a lone
    # observed node exactly onto its target
    rng = np.random.default_rng(20)
    model = _random_tree_model(rng, 12, alpha=0.7)
    solver = ForestSolver(model)
    observed = np.zeros((5, 12), dtype=bool)
    prior = solver.solve(observed[:1], np.full((1, 12, 2), 0.5))[0][..., 1]
    observed[np.arange(5), [0, 3, 5, 7, 11]] = True
    b1 = rng.uniform(0.02, 0.98, (5, 12))
    _, _, converged, iterations, _ = solver.solve(
        observed, np.stack([1.0 - b1, b1], axis=-1), reveal_tilt(b1, prior))
    assert converged.all()
    assert (iterations == 0).all()


def _hub_model(n, p11):
    """Star of n nodes, hub 0, every edge (hub, leaf) with one pair table."""
    return assemble(GraphTopology(n, tuple((0, i) for i in range(1, n))),
                    [PairwiseMarginal(0.5, 0.5, p11)] * (n - 1), 1.0)


def _star_beliefs_in_log_space(model, theta):
    """Beliefs of a star whose leaves carry tilts ``theta`` (n,), with the
    hub's product over its leaves taken in log space."""
    n = model.topology.n_nodes
    leaf = model.phi[1:] * np.stack([np.ones(n - 1), np.exp(theta[1:])], axis=-1)
    to_hub = np.einsum("eab,eb->ea", model.psi, leaf)  # edges are (hub, leaf)
    log_hub = np.log(model.phi[0]) + np.log(to_hub).sum(axis=0)
    hub = np.exp(log_hub - log_hub.max())
    hub /= hub.sum()
    pair = hub[None, :, None] * model.psi * leaf[:, None, :] / to_hub[:, :, None]
    return np.vstack([hub, pair.sum(axis=1)])


@pytest.mark.filterwarnings("error")
def test_forest_solver_on_a_hub_whose_message_product_underflows():
    # 1100 leaves: the product of their sum-normalized messages (near 1/2)
    # underflows; the solver's answer is checked in log space from the
    # tilts it returns
    n = 1101
    model = _hub_model(n, 0.26)
    observed = np.zeros((1, n), dtype=bool)
    observed[0, 1::2] = True
    b1 = np.where(np.arange(n) % 4 == 1, 0.6, 0.45)[None]
    beliefs, theta, converged, _, _ = ForestSolver(model).solve(
        observed, np.stack([1.0 - b1, b1], axis=-1))
    assert converged[0]
    oracle = _star_beliefs_in_log_space(model, theta[0])
    np.testing.assert_allclose(beliefs[0, 0], oracle[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(beliefs[0, 1:], oracle[1:], rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_run_on_a_hub_whose_message_product_underflows():
    # the star on which sweeps report a NaN residual: Engine.run solves it
    # on the forest path, with finite messages and beliefs
    n = 1101
    model = _hub_model(n, 0.3)
    state, report = Engine(model).run({5: np.array([0.2, 0.8])})
    assert report.converged and report.method == "newton"
    for a in (state.messages, state.node_beliefs, state.edge_beliefs):
        assert np.isfinite(a).all()
    # a lone tilted leaf with a flat prior matches its target at
    # theta = logit(0.8)
    theta = np.zeros(n)
    theta[5] = np.log(4.0)
    np.testing.assert_allclose(state.node_beliefs,
                               _star_beliefs_in_log_space(model, theta),
                               rtol=0, atol=1e-9)


def test_edge_state_matches_the_per_level_pass():
    # every edge's pair belief and downward message, formed from the one
    # two-pass evaluation, bit for bit as the per-level pass formed them:
    # random forests with some hard 0/1 targets, a forest whose observed
    # nodes are all hard evidence, and the 1101-node star
    rng = np.random.default_rng(47)
    cases = []
    for _ in range(30):
        n = int(rng.integers(2, 40))
        model = _random_forest_model(rng, n, alpha=1.0 - rng.random())
        cases.append((model, *_random_evidence(rng, 6, n)))
    model = _random_forest_model(rng, 30, alpha=0.8)
    observed = rng.random((4, 30)) < 0.4
    b1 = np.where(rng.random((4, 30)) < 0.5, 0.0, 1.0)
    cases.append((model, observed, np.stack([1.0 - b1, b1], axis=-1)))
    n = 1101
    observed = np.zeros((2, n), dtype=bool)
    observed[0, 1::2] = observed[1, :7] = True
    b1 = np.where(np.arange(n) % 4 == 1, 0.6, 0.45)[None].repeat(2, axis=0)
    cases.append((_hub_model(n, 0.26), observed, np.stack([1.0 - b1, b1], axis=-1)))
    for model, observed, bstar in cases:
        solver = ForestSolver(model)
        theta = solver.solve(observed, bstar)[1]
        got = solver.edge_state(observed, bstar, theta)
        expected = edge_state_per_level(solver, observed, bstar, theta)
        for a, b in zip(got, expected, strict=True):
            np.testing.assert_array_equal(a, b)


def test_run_on_a_constrained_forest_is_row_0_of_solve():
    # Engine.run answers a constrained forest run as a cold one-row
    # Engine.solve, with edge_state at its tilts, bit for bit
    rng = np.random.default_rng(48)
    for engine, observed, _, constraints in _forest_queries(rng, 8):
        state, report = engine.run(constraints)
        bstar = np.zeros(observed.shape + (2,))
        for i, b in constraints.items():
            bstar[0, i] = b / b.sum()
        beliefs, (_, _, theta), converged, steps, residual = engine.solve(observed, bstar)
        pairs, messages = engine.forest.edge_state(observed, bstar, theta)
        for got, expected in ((state.node_beliefs, beliefs), (state.edge_beliefs, pairs),
                              (state.messages, messages)):
            np.testing.assert_array_equal(got, expected[0])
        assert (report.converged, report.sweeps, report.residual, report.method) == (
            converged[0], steps[0], residual[0], "newton")


def _forest_queries(rng, count):
    """Random forests above the list size with several components, alpha
    in (0, 1], and evidence with some hard 0/1 targets: (engine, observed,
    bstar, constraints) per query."""
    for _ in range(count):
        n = int(rng.integers(60, 91))
        engine = Engine(_random_forest_model(rng, n, alpha=1.0 - rng.random()))
        assert engine.n_slots > _LIST_MAX_SLOTS
        assert engine.model.topology.n_edges < n - 1  # several components
        observed, bstar = _random_evidence(rng, 1, n)
        yield engine, observed, bstar, _constraints(observed[0], bstar[0])


def test_run_on_forests_matches_converged_sweeps():
    rng = np.random.default_rng(22)
    hard = 0
    for engine, observed, bstar, constraints in _forest_queries(rng, 12):
        hard += int(np.isin(bstar[observed][:, 1], (0.0, 1.0)).sum())
        state, report = engine.run(constraints)
        assert report.converged and report.method == "newton"
        init = np.full((1, engine.n_slots, 2), 0.5)
        m, converged, _, _ = engine.sweep(init, observed, bstar,
                                          Schedule(tol=1e-12, max_sweeps=20_000))
        assert converged[0]
        np.testing.assert_allclose(state.node_beliefs,
                                   engine.node_beliefs(m, observed, bstar)[0],
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(state.edge_beliefs,
                                   engine.edge_beliefs(m, observed, bstar)[0],
                                   rtol=0, atol=1e-8)
    assert hard > 0


def test_run_on_forests_returns_the_fixed_point():
    # pair beliefs marginalise to the node beliefs, and the messages are
    # the mirror fixed point: a sweep from them stops at its first sweep
    rng = np.random.default_rng(23)
    for engine, observed, bstar, constraints in _forest_queries(rng, 12):
        state, report = engine.run(constraints)
        assert report.converged
        edges = np.asarray(engine.model.topology.edges)
        np.testing.assert_allclose(state.edge_beliefs.sum(axis=2),
                                   state.node_beliefs[edges[:, 0]], rtol=0, atol=1e-9)
        np.testing.assert_allclose(state.edge_beliefs.sum(axis=1),
                                   state.node_beliefs[edges[:, 1]], rtol=0, atol=1e-9)
        np.testing.assert_allclose(state.messages.sum(axis=2), 1.0, rtol=0, atol=1e-12)
        _, converged, sweeps, _ = engine.sweep(
            state.messages.reshape(1, -1, 2), observed, bstar, Schedule())
        assert converged[0] and sweeps[0] == 1


def test_run_on_forests_validates_its_inputs(monkeypatch):
    rng = np.random.default_rng(24)
    engine, _, _, constraints = next(_forest_queries(rng, 1))
    assert constraints  # the run takes the forest path
    n, n_slots = engine.model.topology.n_nodes, engine.n_slots
    bad = np.full((n_slots, 2), 0.5)
    bad[3] = [-0.5, 1.0]
    for init in (bad, np.full((n_slots + 1, 2), 0.5)):
        with pytest.raises(ValueError):
            engine.run(constraints, init_messages=init)
    for node in (-1, n):
        with pytest.raises(ValueError, match=f"node id {node} out of range"):
            engine.run({**constraints, node: np.array([0.5, 0.5])})
    # a constraint that is not two finite, nonnegative weights fails before
    # any sweep or solve on every path of Engine.run: the list traversal
    # (a pair), the forest solver and the sweep kernel (a loopy graph)
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the constraints were checked")

    for owner, name in ((Engine, "_sweep_sequential"), (Engine, "sweep"),
                        (ForestSolver, "solve")):
        monkeypatch.setattr(owner, name, no_run)
    engines = (Engine(_random_tree_model(rng, 2)), engine,
               Engine(_random_loopy_model(rng, _LIST_MAX_SLOTS)))
    for run_engine in engines:
        for b in ([np.nan, 1.0], [np.inf, 1.0], [1.0, np.inf], [np.nan, np.nan],
                  [1.0, -np.inf]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="invalid constraint at node 0"):
                    run_engine.run({**constraints, 0: b} if run_engine is engine
                                   else {0: b})
                with pytest.raises(ValueError, match="invalid constraint at node 0"):
                    mbp_run(run_engine.model, {0: b})
    # so does a non-finite initial message, constrained or not: on the pair
    # the list traversal would overwrite it, the solver would ignore it and
    # the kernel would sweep its NaN to the budget
    for run_engine in engines:
        model = run_engine.model
        pins = constraints if run_engine is engine else {0: np.array([0.3, 0.7])}
        for value in (np.nan, np.inf):
            init = np.full((run_engine.n_slots, 2), 0.5)
            init[-1, 1] = value
            for call in (lambda: run_engine.run(None, init_messages=init),
                         lambda: run_engine.run(pins, init_messages=init),
                         lambda: bp_run(model, init_messages=init),
                         lambda: mbp_run(model, pins, init_messages=init)):
                with pytest.raises(ValueError, match="invalid initial messages"):
                    call()


def _reveal_steps(rng, n_runs, n):
    """Two cumulative reveal steps of R runs in random node orders, as
    boolean masks, and normalized b* with some hard 0/1 targets."""
    order = np.argsort(rng.random((n_runs, n)), axis=1)
    rows = np.arange(n_runs)[:, None]
    masks = []
    for k in (n // 4, n // 2):
        observed = np.zeros((n_runs, n), dtype=bool)
        observed[rows, order[:, :k]] = True
        masks.append(observed)
    return masks, _random_evidence(rng, n_runs, n)[1]


def _solve_models(rng):
    forest = _random_forest_model(rng, 70, alpha=0.8)
    assert 2 * forest.topology.n_edges > _LIST_MAX_SLOTS
    return {"forest": forest, "grid": _grid_model(rng, 5, alpha=0.9)}


def _spread(out):
    """``Engine.solve``'s outputs as a flat tuple of arrays: a forest's
    state (observed, beliefs, tilts) spread out, a grid's messages kept."""
    beliefs, state, *report = out
    return (beliefs, *(state if isinstance(state, tuple) else (state,)), *report)


@pytest.mark.parametrize("graph", ["forest", "grid"])
def test_engine_solve_rows_equal_single_runs(graph):
    # a batch of R runs, cold and then warm, ends row by row exactly where
    # each run ends alone
    rng = np.random.default_rng(27)
    engine = Engine(_solve_models(rng)[graph])
    n_runs, n = 10, engine.model.topology.n_nodes
    (first, second), bstar = _reveal_steps(rng, n_runs, n)
    schedule = Schedule(max_sweeps=60, tol=1e-9)
    cold = engine.solve(first, bstar, None, schedule)
    warm = engine.solve(second, bstar, cold[1], schedule)
    for r in range(n_runs):
        one = slice(r, r + 1)
        cold1 = engine.solve(first[one], bstar[one], None, schedule)
        warm1 = engine.solve(second[one], bstar[one], cold1[1], schedule)
        for batch, single in ((cold, cold1), (warm, warm1)):
            for a, b in zip(_spread(batch), _spread(single), strict=True):
                np.testing.assert_array_equal(a[one], b)


def test_engine_solve_forest_warm_step_starts_at_reveal_tilt():
    # on a forest the state carries the tilts, and a node revealed since the
    # last call starts at reveal_tilt of its target and its last belief
    rng = np.random.default_rng(28)
    engine = Engine(_solve_models(rng)["forest"])
    (first, second), bstar = _reveal_steps(rng, 8, engine.model.topology.n_nodes)
    cold = engine.solve(first, bstar)
    expected = engine.forest.solve(first, bstar)
    np.testing.assert_array_equal(cold[0], expected[0])
    for a, b in zip(cold[2:], expected[2:]):
        np.testing.assert_array_equal(a, b)
    seen, belief, theta = cold[1]
    np.testing.assert_array_equal(seen, first)
    np.testing.assert_array_equal(belief, cold[0][..., 1])
    np.testing.assert_array_equal(theta, expected[1])
    start = np.where(second & ~first, reveal_tilt(bstar[..., 1], belief), theta)
    expected = engine.forest.solve(second, bstar, start)
    warm = engine.solve(second, bstar, cold[1])
    np.testing.assert_array_equal(warm[0], expected[0])
    np.testing.assert_array_equal(warm[1][2], expected[1])
    for a, b in zip(warm[2:], expected[2:]):
        np.testing.assert_array_equal(a, b)
    assert warm[2].all()


def test_model_keeps_one_engine_and_one_solver(monkeypatch):
    # the engine is built on first use and kept with the model, and the
    # engine builds its ForestSolver once, whatever the queries
    builds = Counter()
    for cls in (Engine, ForestSolver):
        def counted(self, model, _init=cls.__init__, _name=cls.__name__):
            builds[_name] += 1
            _init(self, model)
        monkeypatch.setattr(cls, "__init__", counted)
    rng = np.random.default_rng(25)
    model = _random_tree_model(rng, _LIST_MAX_SLOTS // 2 + 2)
    assert not builds
    engine = model.engine
    assert model.engine is engine and engine.model is model
    assert builds == {"Engine": 1}
    for _ in range(3):
        constraints, _, _ = _pinned_query(rng, model.topology.n_nodes)
        assert mbp_run(model, constraints)[1].method == "newton"
        assert bp_run(model)[1].method == "sweep"
        deviation(model)
    assert engine.forest is engine.forest
    assert builds == {"Engine": 1, "ForestSolver": 1}
    other = model.with_alpha(0.5)
    assert other.engine is not engine and other.engine.model is other
    assert "Engine" not in repr(model)


def _grid_model(rng, k, alpha):
    rows = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    cols = [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    edges = rows + cols
    _, marginals = random_consistent_marginals(rng, edges, k * k)
    return assemble(GraphTopology(k * k, tuple(edges)), marginals, alpha)


@pytest.mark.parametrize("graph", ["pair", "tree", "grid"])
def test_reused_engine_matches_fresh_engines(graph):
    # a sequence of different queries through the model's one engine gives,
    # query by query, what a freshly built engine gives: no run leaves
    # state behind for the next
    rng = np.random.default_rng(26)
    if graph == "pair":
        model = _random_tree_model(rng, 2)
    elif graph == "tree":
        model = _random_tree_model(rng, 40, alpha=0.8)
        assert model.engine.n_slots > _LIST_MAX_SLOTS
    else:
        model = _grid_model(rng, 5, alpha=0.6)
        assert not model.topology.is_forest
    n, n_slots = model.topology.n_nodes, model.engine.n_slots
    first, _, _ = _pinned_query(rng, n)
    queries = [
        (first, None, None),
        (None, None, None),
        ({0: np.array([1.0, 0.0]), n - 1: np.array([0.0, 2.0])}, None, None),
        (_pinned_query(rng, n)[0], None, _random_init(rng, n_slots // 2)),
        ({1: np.array([0.3, 0.7])}, Schedule(max_sweeps=3, auto_damp=False), None),
        (None, Schedule(tol=1e-4), _random_init(rng, n_slots // 2)),
        (first, None, None),
    ]
    engine = model.engine
    methods = set()
    for constraints, schedule, init in queries:
        state, report = mbp_run(model, constraints, schedule, init)
        expected, expected_report = Engine(model).run(constraints, schedule, init)
        for name in ("node_beliefs", "edge_beliefs", "messages"):
            np.testing.assert_array_equal(getattr(state, name),
                                          getattr(expected, name))
        assert state.constraints.keys() == expected.constraints.keys()
        assert report == expected_report
        methods.add(report.method)
    assert model.engine is engine
    assert methods == ({"newton", "sweep"} if graph == "tree" else {"sweep"})


def _with_isolated_node(rng, n, edges):
    """Raw model on n nodes whose node n // 2 has no edge; ``edges`` are
    on the other n - 1 nodes, numbered 0..n-2."""
    iso = n // 2
    edges = tuple((i + (i >= iso), j + (j >= iso)) for i, j in edges)
    phi = rng.uniform(0.2, 1.0, size=(n, 2))
    psi = rng.uniform(0.2, 2.0, size=(len(edges), 2, 2))
    return _raw_model(GraphTopology(n, edges), phi, psi), iso


def _product_oracle(engine, messages, pinned, bstar):
    """Node beliefs by one field-times-messages product per node, run by
    run, in reverse slot order: independent of the engine's layout."""
    phi = engine.model.phi
    targets = np.asarray(engine.model.topology.edges, dtype=np.intp).reshape(-1)
    out = np.empty((len(messages),) + phi.shape)
    for r, m in enumerate(messages):
        for i in range(len(phi)):
            b = phi[i].copy()
            for s in np.flatnonzero(targets == i)[::-1]:
                b = b * m[s]
            out[r, i] = np.where(pinned[r, i], bstar[r, i], b / b.sum())
    return out


@pytest.mark.parametrize("graph", ["edgeless", "small-tree", "forest", "loopy"])
def test_engine_on_an_edgeless_graph_and_an_isolated_node(graph):
    # an empty slot layout and an isolated node: the node keeps its
    # field on every path of Engine.run and in the belief read-out; an
    # edgeless graph settles at its first sweep with (0, 2, 2) pair beliefs
    rng = np.random.default_rng(28)
    if graph == "edgeless":
        model, iso = _raw_model(GraphTopology(4, ()), rng.uniform(0.2, 1.0, (4, 2)),
                                np.empty((0, 2, 2))), 2
    elif graph == "small-tree":
        model, iso = _with_isolated_node(rng, 7, random_tree_edges(rng, 6))
    elif graph == "forest":
        model, iso = _with_isolated_node(rng, 31, random_tree_edges(rng, 30))
    else:
        edges = random_tree_edges(rng, 30) + [(0, 29), (3, 17)]
        model, iso = _with_isolated_node(rng, 31, edges)
    engine = Engine(model)
    n, n_edges = model.topology.n_nodes, model.topology.n_edges
    assert (engine.n_slots > _LIST_MAX_SLOTS) == (graph in ("forest", "loopy"))
    field = model.phi[iso] / model.phi[iso].sum()
    methods = set()
    for constraints in (None, {0: np.array([0.3, 0.7])},
                        {0: np.array([0.3, 0.7]), iso: np.array([1.0, 0.0])}):
        state, report = engine.run(constraints)
        assert report.converged
        methods.add(report.method)
        expected = (constraints or {}).get(iso, field)
        np.testing.assert_array_equal(state.node_beliefs[iso], expected)
        assert state.edge_beliefs.shape == (n_edges, 2, 2)
        assert state.messages.shape == (n_edges, 2, 2)
        if graph == "edgeless":
            assert report.sweeps == 1 and report.residual == 0.0
    assert methods == ({"sweep", "newton"} if graph == "forest" else {"sweep"})

    n_runs = 3
    pinned = np.zeros((n_runs, n), dtype=bool)
    pinned[1, 0] = pinned[2, iso] = True
    bstar = np.where(pinned[..., None], np.array([0.25, 0.75]), 0.0)
    init = rng.uniform(0.1, 0.9, size=(n_runs, engine.n_slots, 2))
    m, converged, sweeps, _ = engine.sweep(init, pinned, bstar, Schedule())
    assert converged.all()
    if graph == "edgeless":
        np.testing.assert_array_equal(sweeps, 1)
    beliefs = engine.node_beliefs(m, pinned, bstar)
    np.testing.assert_array_equal(beliefs[:2, iso], [field, field])
    np.testing.assert_array_equal(beliefs[2, iso], [0.25, 0.75])
    np.testing.assert_array_max_ulp(beliefs, _product_oracle(engine, m, pinned, bstar),
                                    maxulp=8)
    assert engine.edge_beliefs(m, pinned, bstar).shape == (n_runs, n_edges, 2, 2)


def test_node_beliefs_are_the_field_times_the_incoming_messages():
    # R runs at once, against a per-node product on random loopy graphs
    rng = np.random.default_rng(29)
    for n in (3, 12, 40):
        engine = Engine(_random_loopy_model(rng, n, alpha=0.8))
        n_runs = 5
        messages = rng.uniform(0.05, 0.95, size=(n_runs, engine.n_slots, 2))
        pinned = rng.random((n_runs, n)) < 0.3
        b1 = rng.uniform(size=(n_runs, n))
        bstar = np.stack([1.0 - b1, b1], axis=-1)
        np.testing.assert_array_max_ulp(
            engine.node_beliefs(messages, pinned, bstar),
            _product_oracle(engine, messages, pinned, bstar), maxulp=8)


def test_list_tables_are_built_only_for_the_list_traversal():
    # a city-sized grid runs every query on the kernel and never builds
    # the list traversal's tables; a pair builds them on its first run
    rng = np.random.default_rng(30)
    city = _grid_model(rng, 12, alpha=0.3)
    engine = city.engine
    assert engine.n_slots > 10 * _LIST_MAX_SLOTS
    n = city.topology.n_nodes
    schedule = Schedule(max_sweeps=200)
    mbp_run(city, {0: np.array([0.2, 0.8]), n - 1: np.array([0.6, 0.4])}, schedule)
    bp_run(city, schedule)
    deviation(city)
    pinned, bstar = np.zeros((2, n), dtype=bool), np.zeros((2, n, 2))
    m = engine.sweep(np.full((2, engine.n_slots, 2), 0.5), pinned, bstar, schedule)[0]
    engine.edge_beliefs(m, pinned, bstar)
    assert "_list_tables" not in vars(engine)
    pair = _random_tree_model(rng, 2)
    assert "_list_tables" not in vars(pair.engine)
    mbp_run(pair, {0: np.array([0.2, 0.8])})
    assert "_list_tables" in vars(pair.engine)


def test_forest_solver_rejects_cycles():
    model = assemble(GraphTopology(3, ((0, 1), (1, 2), (2, 0))),
                     [PairwiseMarginal(0.5, 0.5, 0.3)] * 3, 1.0)
    assert not model.topology.is_forest
    with pytest.raises(ValueError, match="cycle"):
        ForestSolver(model)


def test_forest_solver_orients_psi_as_a_node_loop_does():
    """The solver's edge positions, edge flips and (child, parent) psi
    tables against a per-node loop over the topology's layout."""
    rng = np.random.default_rng(46)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        edges = tuple(e if rng.random() < 0.5 else e[::-1]
                      for e in random_tree_edges(rng, n) if rng.random() < 0.7)
        phi = rng.uniform(0.1, 0.9, (n, 2))
        psi = rng.uniform(0.05, 1.0, (len(edges), 2, 2))
        model = _raw_model(GraphTopology(n, edges), phi / phi.sum(1, keepdims=True), psi)
        solver = ForestSolver(model)
        order, _, parent_edge, _ = model.topology.layout
        nr = model.topology.levels.n_roots
        edge_pos = np.empty(len(edges), dtype=np.intp)
        flip = np.empty(len(edges), dtype=bool)
        oriented = np.ones((n, 2, 2))
        for k in range(nr, n):
            v, e = order[k], parent_edge[order[k]]
            edge_pos[e] = k
            flip[e] = edges[e][1] == v
            oriented[k] = psi[e].T if flip[e] else psi[e]
        np.testing.assert_array_equal(solver._edge_pos, edge_pos)
        np.testing.assert_array_equal(solver._edge_flip, flip)
        for lo, hi, _, _, _, p00, p01, p10, p11 in solver._levels:
            np.testing.assert_array_equal(np.stack([p00, p01, p10, p11], axis=-1),
                                          oriented[lo:hi].reshape(-1, 4))


def test_topology_computes_its_layout_once(monkeypatch):
    """The forest test, every ForestSolver and the models ``with_alpha``
    makes share one breadth-first layout."""
    calls = []
    compute = GraphTopology.layout.func

    def counted(topo):
        calls.append(topo)
        return compute(topo)

    layout = functools.cached_property(counted)
    layout.__set_name__(GraphTopology, "layout")
    monkeypatch.setattr(GraphTopology, "layout", layout)
    rng = np.random.default_rng(44)
    model = _random_tree_model(rng, 12)
    topo = model.topology
    assert topo.is_forest and calls == [topo]
    solver = ForestSolver(model)
    hotter = model.with_alpha(0.5)
    assert hotter.topology is topo
    assert hotter.engine.forest._topology is topo is solver._topology
    assert topo.levels.order is topo.layout[0]
    observed = np.zeros((1, 12), dtype=bool)
    observed[0, 3] = True
    bstar = np.full((1, 12, 2), 0.5)
    model.engine.solve(observed, bstar)
    mbp_run(hotter, {3: np.array([0.4, 0.6])})
    assert calls == [topo]


# --- observation handling ----------------------------------------------------

def _fitted_pair_model():
    rng = np.random.default_rng(11)
    samples = rng.uniform(size=1001)
    encoders = [build_encoder("cdf", samples), build_encoder("cdf", samples + 0.0)]
    m = PairwiseMarginal(encoders[0].p1, encoders[1].p1, encoders[0].p1 * 0.8)
    return assemble(GraphTopology(2, ((0, 1),)), [m], 1.0, encoders=encoders)


def test_impose_observations_cdf():
    model = _fitted_pair_model()
    med = model.encoders[0].cdf.median()
    cons = impose_observations(model, {0: med})
    lam = model.encoders[0].encode(med)
    np.testing.assert_allclose(cons[0], [1 - lam, lam])
    assert abs(lam - 0.5) < 2e-3
    top = impose_observations(model, {0: model.encoders[0].cdf.max})
    np.testing.assert_array_equal(top[0], [0.0, 1.0])


def test_impose_observations_median_step():
    rng = np.random.default_rng(12)
    samples = rng.normal(size=501)
    enc = build_encoder("median-step", samples)
    m = PairwiseMarginal(enc.p1, enc.p1, enc.p1 * enc.p1 + 0.05)
    model = assemble(
        GraphTopology(2, ((0, 1),)), [m], 1.0, encoders=[enc, enc]
    )
    cons = impose_observations(model, {0: enc.threshold + 0.1})
    np.testing.assert_array_equal(cons[0], [0.0, 1.0])
    cons = impose_observations(model, {0: enc.threshold - 0.1})
    np.testing.assert_array_equal(cons[0], [1.0, 0.0])


def test_node_ids_out_of_range_rejected():
    rng = np.random.default_rng(14)
    encoders = [build_encoder("cdf", rng.uniform(size=101)) for _ in range(3)]
    ms = [PairwiseMarginal(enc.p1, enc.p1, 0.3) for enc in encoders[:2]]
    model = assemble(GraphTopology(3, ((0, 1), (1, 2))), ms, 1.0,
                     encoders=encoders)
    for node in (-1, 3):
        with pytest.raises(ValueError, match=f"node id {node} out of range"):
            impose_observations(model, {node: 0.5})
        with pytest.raises(ValueError, match=f"node id {node} out of range"):
            mbp_run(model, {node: np.array([0.5, 0.5])})
    for node in (1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match=f"node id {node!r} is not an integer"):
            impose_observations(model, {node: 0.5})
        with pytest.raises(ValueError, match=f"node id {node!r} is not an integer"):
            mbp_run(model, {node: np.array([0.5, 0.5])})
    assert list(impose_observations(model, {np.int64(2): 0.5})) == [2]


def test_predict_contextless_and_extremes():
    model = _fitted_pair_model()
    state, _ = bp_run(model)
    preds = predict(model, state, decoder="inverse-cdf")
    # b = p1 decodes to the median (odd sample count)
    assert preds[0] == model.encoders[0].cdf.median()

    forced = {0: np.array([0.0, 1.0]), 1: np.array([0.0, 1.0])}
    state, _ = mbp_run(model, forced)
    preds = predict(model, state, decoder="inverse-cdf", observed={})
    assert preds[0] == model.encoders[0].cdf.max

    preds = predict(model, state, decoder="bayes-quad", observed={})
    assert preds[0] == model.encoders[0].cdf.quantile(bayes_quad_level(1.0))


def test_model_decoder_rejects_a_mismatched_encoder_kind():
    # a cdf model has no median-step decoders, and a model that mixes
    # encoder kinds none that fit every node
    model = _fitted_pair_model()
    for kind in ("bayes-median-step", "bayes-mean-step"):
        with pytest.raises(ValueError, match=f"decoder '{kind}' needs 'median-step' "
                           "encoders: node 0 has 'cdf'"):
            model.decoder(kind)
    state, _ = bp_run(model)
    with pytest.raises(ValueError, match="needs 'median-step' encoders"):
        predict(model, state, decoder="bayes-median-step")
    samples = np.random.default_rng(12).uniform(size=501)
    mixed = dataclasses.replace(
        model, encoders=(model.encoders[0], build_encoder("median-step", samples)))
    for kind in ("inverse-cdf", "bayes-quad"):
        with pytest.raises(ValueError, match=f"decoder '{kind}' needs 'cdf' "
                           "encoders: node 1 has 'median-step'"):
            mixed.decoder(kind)
    assert model.decoder("inverse-cdf") is model.decoder("inverse-cdf")


# --- graph cutting -----------------------------------------------------------

def test_graph_cut_chain_single_interior():
    topo = GraphTopology(3, ((0, 1), (1, 2)))
    assert graph_cut_check(topo, {1}) == "guaranteed"


def test_graph_cut_cycle_without_constraints():
    topo = GraphTopology(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    assert graph_cut_check(topo, set()) == "unknown"
    # cutting two opposite nodes opens the cycle into two chains
    assert graph_cut_check(topo, {0, 2}) == "guaranteed"


def test_graph_cut_three_clones_in_one_component():
    # star whose center stays free and three constrained leaves
    topo = GraphTopology(4, ((0, 1), (0, 2), (0, 3)))
    assert graph_cut_check(topo, {1, 2}) == "guaranteed"
    assert graph_cut_check(topo, {1, 2, 3}) == "unknown"


def test_graph_cut_matches_union_find_oracle():
    rng = np.random.default_rng(45)
    seen = Counter()
    for _ in range(3000):
        n_vars = int(rng.integers(1, 9))
        factors = [tuple(rng.integers(0, n_vars, int(rng.integers(0, 5))).tolist())
                   for _ in range(int(rng.integers(0, 7)))]
        constrained = set(np.flatnonzero(rng.random(n_vars) < rng.random()).tolist())
        expected = graph_cut_check_union_find(factors, constrained)
        assert graph_cut_check(factors, constrained) == expected, (factors, constrained)
        repeated = any(len(set(f)) < len(f) for f in factors)
        seen[expected, repeated, bool(constrained)] += 1
    # guaranteed and unknown answers, factors naming a member twice, and
    # empty constraint sets all occur
    assert {("guaranteed", False, False), ("guaranteed", False, True),
            ("unknown", True, False), ("unknown", True, True),
            ("unknown", False, True)} <= set(seen)


def test_graph_cut_higher_arity_factor_graph():
    # factors a={1,2,4,6}, b={2,3,5,7}, c={6,7}; constraining {2,7} cuts the
    # graph into two trees with two clones each; adding 4 makes three clones
    factors = [(1, 2, 4, 6), (2, 3, 5, 7), (6, 7)]
    assert graph_cut_check(factors, {2, 7}) == "guaranteed"
    assert graph_cut_check(factors, {2, 7, 4}) == "unknown"
