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
from latent_ising.coding import bayes_quad_level
from latent_ising.propagation import _LIST_MAX_SLOTS

from oracles import (
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
    # the default start tilts a lone observed node exactly onto its target
    rng = np.random.default_rng(20)
    model = _random_tree_model(rng, 12, alpha=0.7)
    observed = np.zeros((5, 12), dtype=bool)
    observed[np.arange(5), [0, 3, 5, 7, 11]] = True
    b1 = rng.uniform(0.02, 0.98, (5, 12))
    _, _, converged, iterations, _ = ForestSolver(model).solve(
        observed, np.stack([1.0 - b1, b1], axis=-1))
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


def test_run_on_forests_validates_its_inputs():
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


def test_forest_solver_rejects_cycles():
    model = assemble(GraphTopology(3, ((0, 1), (1, 2), (2, 0))),
                     [PairwiseMarginal(0.5, 0.5, 0.3)] * 3, 1.0)
    assert not model.topology.is_forest
    with pytest.raises(ValueError, match="cycle"):
        ForestSolver(model)


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


def test_graph_cut_higher_arity_factor_graph():
    # factors a={1,2,4,6}, b={2,3,5,7}, c={6,7}; constraining {2,7} cuts the
    # graph into two trees with two clones each; adding 4 makes three clones
    factors = [(1, 2, 4, 6), (2, 3, 5, 7), (6, 7)]
    assert graph_cut_check(factors, {2, 7}) == "guaranteed"
    assert graph_cut_check(factors, {2, 7, 4}) == "unknown"
