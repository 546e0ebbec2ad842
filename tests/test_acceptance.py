"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  Every tolerance is stated inline; seeds are fixed so the
whole suite is reproducible bit for bit.
"""

import time

import numpy as np
import pytest

from latent_ising import (
    AlphaSearchConfig,
    GraphTopology,
    BetaMarginal,
    PairSamples,
    Schedule,
    assemble,
    bp_run,
    build_encoder,
    calibrate,
    conditional_cdfs,
    decimate,
    deviation,
    em_fit,
    exact_joint,
    fit_from_copula,
    generate_copula,
    graph_cut_check,
    grid_city,
    log_likelihood,
    mbp_run,
    pair_topology,
    regular_tree_topology,
)
from latent_ising.coding import BayesMedianStep, BayesQuadCdf
from latent_ising.pairwise_em import em_iterates

from oracles import (
    ipf_fit,
    node_marginal,
    random_consistent_marginals,
    random_tree_edges,
)

SQ2 = np.sqrt(2.0) / 2.0


def _verdict(number: int, ok: bool, detail: str, elapsed=None, limit=None):
    """Print the criterion's ACCEPTANCE line, which holds only figures fixed
    by the seeds, and assert ``ok``.  A timed criterion also asserts
    ``elapsed <= limit`` and prints its seconds on a separate TIME line; a
    failing verdict names them."""
    if elapsed is not None:
        timing = f"{elapsed:.1f}s (<={limit:.0f}s)"
        print(f"\nTIME {number}: {timing}", flush=True)
        ok = ok and elapsed <= limit
        if not ok:
            detail = f"{detail}, {timing}"
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


class _IdentityCdf:
    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q < 0) or np.any(q > 1):
            raise ValueError("invalid probability")
        return float(q) if q.ndim == 0 else q

    def median(self):
        return 0.5


def test_criterion_1_decoder_endpoint_identities():
    quad = BayesQuadCdf(_IdentityCdf())
    step = BayesMedianStep(_IdentityCdf())
    errs = [
        abs(quad.decode(0.0) - (1.0 - SQ2)),
        abs(quad.decode(1.0) - SQ2),
        abs(step.decode(0.0) - 0.25),
        abs(step.decode(1.0) - 0.75),
    ]
    _verdict(1, max(errs) <= 1e-9,
             f"analytic decoder endpoints, max deviation {max(errs):.2e} <= 1e-9")


def _pair_experiment(rho: float, replicates: int = 100_000):
    truth = generate_copula(pair_topology(), seed=1, overrides={(0, 1): -rho})
    fitted_cdf, _ = fit_from_copula(truth, "cdf", n_train=10_000, seed=7)
    fitted_step, _ = fit_from_copula(truth, "median-step", n_train=10_000, seed=7)
    result = decimate(
        truth,
        [fitted_cdf, fitted_step],
        ["inverse-cdf", "bayes-quad", "median-step", "exact"],
        replicates=replicates,
        seed=8,
    )
    by = {r["predictor"]: r for r in result.table() if r["bin_low"] == 0.5}
    exact = by["exact"]["mean_l1"]
    excess = {
        name: 100.0 * (by[name]["mean_l1"] / exact - 1.0)
        for name in ("inverse-cdf", "bayes-quad", "median-step")
    }
    return 100.0 * exact, excess


def test_criterion_2_pair_table_rho_05():
    t0 = time.perf_counter()
    exact, excess = _pair_experiment(0.5)
    elapsed = time.perf_counter() - t0
    checks = [
        abs(exact - 20.96) <= 0.3,
        excess["inverse-cdf"] <= 1.5,
        2.0 <= excess["bayes-quad"] <= 9.0,
        4.0 <= excess["median-step"] <= 11.0,
    ]
    _verdict(
        2, all(checks),
        f"rho=0.5: exact*100={exact:.2f} (20.96±0.3), "
        f"excess inv={excess['inverse-cdf']:.2f}% (<=1.5), "
        f"quad={excess['bayes-quad']:.2f}% (in [2,9]), "
        f"step={excess['median-step']:.2f}% (in [4,11])",
        elapsed, 120.0,
    )


def test_criterion_3_pair_table_rho_09():
    t0 = time.perf_counter()
    exact, excess = _pair_experiment(0.9)
    elapsed = time.perf_counter() - t0
    checks = [
        abs(exact - 9.83) <= 0.3,
        excess["inverse-cdf"] <= 2.0,
        excess["bayes-quad"] >= 40.0,
        excess["median-step"] >= 40.0,
    ]
    _verdict(
        3, all(checks),
        f"rho=0.9: exact*100={exact:.2f} (9.83±0.3), "
        f"excess inv={excess['inverse-cdf']:.2f}% (<=2), "
        f"quad={excess['bayes-quad']:.2f}% (>=40), "
        f"step={excess['median-step']:.2f}% (>=40)",
        elapsed, 120.0,
    )


def test_criterion_4_bp_matches_brute_force_on_trees():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        edges = random_tree_edges(rng, n)
        _, marginals = random_consistent_marginals(rng, edges, n)
        model = assemble(GraphTopology(n, tuple(edges)), marginals, 1.0)
        init = rng.uniform(0.2, 0.8, size=(n - 1, 2, 2))
        state, report = bp_run(model, init_messages=init)
        assert report.converged
        joint = exact_joint(model)
        for i in range(n):
            err = float(np.max(np.abs(state.node_beliefs[i] - node_marginal(joint, i))))
            worst = max(worst, err)
    _verdict(4, worst <= 1e-8,
             f"BP vs exact marginals on 50 random trees, sup error {worst:.2e} <= 1e-8")


def test_criterion_5_mbp_matches_ipf_oracle():
    rng = np.random.default_rng(50)
    worst = 0.0
    pinned_exact = True
    for _ in range(50):
        n = int(rng.integers(3, 11))
        edges = random_tree_edges(rng, n)
        _, marginals = random_consistent_marginals(rng, edges, n)
        model = assemble(GraphTopology(n, tuple(edges)), marginals, 1.0)
        k = int(rng.integers(1, 4))
        constraints = {}
        for i in rng.choice(n, size=k, replace=False):
            b1 = float(rng.uniform(0.05, 0.95))
            constraints[int(i)] = np.array([1.0 - b1, b1])
        state, report = mbp_run(model, constraints)
        assert report.converged
        fitted = ipf_fit(exact_joint(model), constraints)
        for i in range(n):
            err = float(np.max(np.abs(state.node_beliefs[i] - node_marginal(fitted, i))))
            worst = max(worst, err)
        for i, b in constraints.items():
            if not np.array_equal(state.node_beliefs[i], b):
                pinned_exact = False
    _verdict(
        5, worst <= 1e-6 and pinned_exact,
        f"mBP vs IPF oracle on 50 random trees, sup error {worst:.2e} <= 1e-6, "
        f"constrained beliefs exact: {pinned_exact}",
    )


def test_criterion_6_chain_convergence_and_graph_cutting():
    rng = np.random.default_rng(60)
    all_converged = True
    all_guaranteed = True
    for _ in range(100):
        n = int(rng.integers(3, 11))
        edges = tuple((i, i + 1) for i in range(n - 1))
        topo = GraphTopology(n, edges)
        phi = rng.uniform(0.1, 0.9, size=(n, 2))
        phi /= phi.sum(axis=1, keepdims=True)
        psi = rng.uniform(0.05, 1.0, size=(n - 1, 2, 2))
        from latent_ising import LatentIsingModel

        model = LatentIsingModel(
            topology=topo, node_p1=phi[:, 1].copy(), marginals=(),
            alpha=1.0, phi=phi, psi=psi, encoders=None,
        )
        b_lo, b_hi = rng.uniform(0.05, 0.95, size=2)
        constraints = {
            0: np.array([1.0 - b_lo, b_lo]),
            n - 1: np.array([1.0 - b_hi, b_hi]),
        }
        all_guaranteed &= graph_cut_check(topo, constraints) == "guaranteed"
        _, report = mbp_run(model, constraints)
        all_converged &= report.converged and report.sweeps <= 10_000

    factors = [(1, 2, 4, 6), (2, 3, 5, 7), (6, 7)]
    fig3_black = graph_cut_check(factors, {2, 7}) == "guaranteed"
    fig3_gray = graph_cut_check(factors, {2, 7, 4}) == "unknown"
    _verdict(
        6, all_converged and all_guaranteed and fig3_black and fig3_gray,
        f"100 constrained chains converged: {all_converged}, cut check "
        f"guaranteed: {all_guaranteed}, factor-graph configuration: "
        f"guaranteed->{fig3_black}, extra clone unknown->{fig3_gray}",
    )


def test_criterion_7_em_properties():
    rng = np.random.default_rng(70)
    from scipy.stats import norm

    worst_drop = 0.0
    all_in_domain = True
    for _ in range(100):
        n = int(rng.integers(40, 400))
        rho = float(rng.uniform(-0.95, 0.95))
        y1 = rng.standard_normal(n)
        y2 = rho * y1 + np.sqrt(1 - rho * rho) * rng.standard_normal(n)
        u1 = norm.cdf(y1) ** float(rng.uniform(0.4, 2.5))
        u2 = norm.cdf(y2) ** float(rng.uniform(0.4, 2.5))
        kind1, kind2 = rng.choice(["cdf", "median-step"], size=2)
        enc1 = build_encoder(str(kind1), u1)
        enc2 = build_encoder(str(kind2), u2)
        pair = PairSamples(u1, u2)
        prev = None
        last = None
        for m in em_iterates(pair, enc1, enc2):
            ll = log_likelihood(pair, enc1, enc2, m)
            if prev is not None:
                worst_drop = min(worst_drop, ll - prev)
            prev = ll
            last = m
        lo, hi = last.domain()
        all_in_domain &= lo <= last.p_ij11 <= hi

    # indicator coding reduces EM to a frequency count in one iteration
    freq_exact = True
    for _ in range(20):
        n = int(rng.integers(50, 300))
        x1 = rng.normal(size=n)
        x2 = 0.6 * x1 + rng.normal(size=n)
        enc1 = build_encoder("median-step", x1)
        enc2 = build_encoder("median-step", x2)
        s1 = np.asarray(enc1.encode(x1))
        s2 = np.asarray(enc2.encode(x2))
        freq = float(np.mean(s1 * s2))
        lo = max(0.0, enc1.p1 + enc2.p1 - 1.0)
        hi = min(enc1.p1, enc2.p1)
        one_step = em_fit(PairSamples(x1, x2), enc1, enc2, max_iter=1).p_ij11
        expected = min(max(freq, lo + 1e-9), hi - 1e-9)
        freq_exact &= abs(one_step - expected) <= 1e-9

    _verdict(
        7, worst_drop >= -1e-12 and all_in_domain and freq_exact,
        f"surrogate likelihood non-decreasing on 100 datasets "
        f"(worst step {worst_drop:.2e} >= -1e-12), outputs inside the Frechet "
        f"interval: {all_in_domain}, indicator EM = frequency count: {freq_exact}",
    )


def test_criterion_8_stochastic_ordering():
    rng = np.random.default_rng(80)
    ok = True
    for _ in range(20):
        samples = rng.normal(size=int(rng.integers(11, 400))) ** 3
        for kind in ("cdf", "median-step"):
            enc = build_encoder(kind, samples)
            cond = conditional_cdfs(enc)
            F = enc.cdf.evaluate(samples)
            ok &= bool(np.all(cond.f1(samples) <= F + 1e-12))
            ok &= bool(np.all(F <= cond.f0(samples) + 1e-12))
    _verdict(8, ok, "F1 <= F <= F0 at every sample, both encoders, 20 datasets")


def test_criterion_9_tree_decimation():
    t0 = time.perf_counter()
    topo = regular_tree_topology(3, 100)
    truth = generate_copula(topo, seed=21, marginals=[BetaMarginal(0.7, 0.3)] * 100)
    fitted, _ = fit_from_copula(truth, "cdf", n_train=10_000, seed=22)
    result = decimate(truth, fitted, ["inverse-cdf", "median"],
                      replicates=500, seed=23)
    elapsed = time.perf_counter() - t0

    inv = result.curve("inverse-cdf")
    med = result.curve("median")
    beats_median = all(inv[b] <= med[b] for b in inv if b >= 0.1)
    worst_rise = 0.0
    prev = None
    for b in sorted(inv):
        if prev is not None:
            worst_rise = max(worst_rise, inv[b] - prev)
        prev = inv[b]
    converged = all(r["nonconverged_ratio"] == 0.0 for r in result.table())
    checks = [beats_median, worst_rise <= 0.005, converged]
    _verdict(
        9, all(checks),
        f"tree decimation (500 replicates): inverse-cdf <= median at every "
        f"bin >= 0.1: {beats_median}, worst curve rise {worst_rise:.4f} <= 0.005, "
        f"every run converged: {converged}",
        elapsed, 600.0,
    )


def test_criterion_10_alpha_calibration():
    # bounded bisection on a synthetic feasibility predicate
    calls = []

    def fake_deviation(alpha):
        calls.append(alpha)
        return 0.0 if alpha <= 0.36 else 1.0

    value = calibrate(lambda a: a, AlphaSearchConfig(), deviation_fn=fake_deviation)
    budget_ok = len(calls) <= 9 and abs(value - 0.36) <= 0.01

    # trees stay feasible all the way to alpha = 1
    rng = np.random.default_rng(100)
    edges = random_tree_edges(rng, 10)
    _, marginals = random_consistent_marginals(rng, edges, 10)
    tree_model = assemble(GraphTopology(10, tuple(edges)), marginals, 1.0)
    tree_alpha = calibrate(tree_model)

    # strongly coupled city graph transitions strictly inside (0, 1)
    topo, ring = grid_city()
    ring_set = set(ring)
    marginals = [
        BetaMarginal(2.0, 3.0) if i in ring_set else BetaMarginal(1.0, 1.0)
        for i in range(topo.n_nodes)
    ]
    overrides = {
        (i, j): -0.3
        for (i, j) in topo.edges
        if i in ring_set or j in ring_set
    }
    truth = generate_copula(
        topo, seed=31, corr_range=((-1.0, -0.5), (0.5, 1.0)),
        overrides=overrides, marginals=marginals, always_observed=ring,
    )
    city, _ = fit_from_copula(truth, "cdf", n_train=10_000, seed=131)
    # the probe's pure updates with a budget of 4000 sweeps per probe
    schedule = Schedule(max_sweeps=4000, tol=1e-9, auto_damp=False)
    city_alpha = calibrate(city, deviation_fn=lambda m: deviation(m, schedule))

    checks = [budget_ok, tree_alpha >= 0.99, 0.0 < city_alpha < 1.0]
    _verdict(
        10, all(checks),
        f"bisection: {len(calls)} evaluations (<=9), value {value:.3f} "
        f"(0.36±0.01); tree alpha {tree_alpha:.3f} (>=0.99); "
        f"city alpha {city_alpha:.4f} strictly inside (0,1)",
    )
