"""Independent oracles shared by the test modules.

These deliberately avoid the library's message-passing and EM code paths:
marginals come from brute-force summation over the full state table, and
constrained joints come from iterative proportional fitting on that table.
"""

from __future__ import annotations

import numpy as np


def node_marginal(joint: np.ndarray, i: int) -> np.ndarray:
    axes = tuple(a for a in range(joint.ndim) if a != i)
    return joint.sum(axis=axes)


def pair_marginal(joint: np.ndarray, i: int, j: int) -> np.ndarray:
    """2x2 table indexed [s_i][s_j]."""
    axes = tuple(a for a in range(joint.ndim) if a not in (i, j))
    table = joint.sum(axis=axes)
    return table if i < j else table.T


def ipf_fit(joint: np.ndarray, constraints: dict, iters: int = 10_000,
            tol: float = 1e-13) -> np.ndarray:
    """Rescale the joint until each constrained node's marginal matches."""
    fitted = joint.copy()
    n = joint.ndim
    for _ in range(iters):
        worst = 0.0
        for i, target in constraints.items():
            target = np.asarray(target, dtype=float)
            current = node_marginal(fitted, i)
            worst = max(worst, float(np.max(np.abs(current - target))))
            with np.errstate(divide="ignore", invalid="ignore"):
                factor = np.where(current > 0, target / current, 0.0)
            shape = [1] * n
            shape[i] = 2
            fitted = fitted * factor.reshape(shape)
        if worst < tol:
            break
    return fitted / fitted.sum()


def random_tree_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Uniform-ish random labeled tree: attach each node to a random earlier one."""
    return [(int(rng.integers(0, i)), i) for i in range(1, n)]


def random_consistent_marginals(rng: np.random.Generator, edges, n: int,
                                margin=0.02):
    """Shared node marginals plus interior pairwise p11 per edge."""
    from latent_ising import PairwiseMarginal

    p1 = rng.uniform(0.15, 0.85, n)
    out = []
    for i, j in edges:
        lo = max(0.0, p1[i] + p1[j] - 1.0)
        hi = min(p1[i], p1[j])
        pad = margin * (hi - lo)
        out.append(PairwiseMarginal(p1[i], p1[j], rng.uniform(lo + pad, hi - pad)))
    return p1, out


def reference_decimation(truth, fitted, predictors, replicates, seed,
                         history=None, knn_k=50, schedule=None,
                         bin_width=0.05) -> list[dict]:
    """Replicate-by-replicate decimation built from the public pieces.

    Each replicate reveals its nodes one at a time; after every reveal each
    fitted model runs a one-run ``Engine.sweep`` warm-started from that
    replicate's previous messages, with constraints from
    ``impose_observations``, and ``predict`` decodes the hidden nodes.
    Seeds, reveal orders and the order of every sum follow ``decimate``, so
    the returned rows are what ``DecimationResult.table()`` should give.
    """
    from latent_ising import (
        BeliefState,
        Engine,
        exact_predictor,
        impose_observations,
        knn_predictor,
        median_predictor,
        predict,
        sample,
    )
    from latent_ising.harness import (
        EXPERIMENT_SCHEDULE,
        LATENT_PREDICTORS,
        _derive_seed,
    )

    schedule = schedule or EXPERIMENT_SCHEDULE
    if not isinstance(fitted, (list, tuple)):
        fitted = [fitted]
    models = {m.encoders[0].kind: m for m in fitted}
    engines = {kind: Engine(m) for kind, m in models.items()}

    n = truth.n_nodes
    always = list(truth.always_observed)
    rest = np.setdiff1d(np.arange(n), always)
    outcomes = sample(truth, replicates, seed=_derive_seed(seed, 0)).values
    order_rng = np.random.default_rng(_derive_seed(seed, 1))
    n_bins = int(round(1.0 / bin_width))

    cells: dict = {}
    for rep in range(replicates):
        outcome = outcomes[rep]
        reveal = always + [int(i) for i in order_rng.permutation(rest)]
        warm = {kind: np.full((1, e.n_slots, 2), 0.5) for kind, e in engines.items()}
        for step in range(len(always), n):
            observed = {i: float(outcome[i]) for i in reveal[:step]}
            hidden = [i for i in range(n) if i not in observed]
            bin_idx = min(int((step / n) / bin_width), n_bins - 1)
            if observed:
                optimal = exact_predictor(truth, observed)
            else:
                optimal = median_predictor(truth, hidden)
            states, converged = {}, {}
            for kind, model in models.items():
                constraints = impose_observations(model, observed)
                pinned = np.zeros((1, n), dtype=bool)
                bstar = np.zeros((1, n, 2))
                for i, vec in constraints.items():
                    pinned[0, i] = True
                    bstar[0, i] = vec / vec.sum()
                engine = engines[kind]
                warm[kind], done, _, _ = engine.sweep(warm[kind], pinned, bstar,
                                                      schedule)
                beliefs = engine.node_beliefs(warm[kind], pinned, bstar)[0]
                states[kind] = BeliefState(beliefs, None, warm[kind][0], constraints)
                converged[kind] = bool(done[0])
            for name in predictors:
                nonconv = False
                if name in LATENT_PREDICTORS:
                    kind, decoder = LATENT_PREDICTORS[name]
                    preds = predict(models[kind], states[kind], decoder)
                    nonconv = not converged[kind]
                elif name == "exact":
                    preds = optimal
                elif name == "median":
                    preds = median_predictor(truth, hidden)
                else:
                    preds = knn_predictor(history, observed, k=knn_k)
                cell = cells.setdefault(
                    (bin_idx, name), {"abs": 0.0, "signed": 0.0, "points": 0,
                                      "runs": 0, "nonconv": 0}
                )
                cell["abs"] += sum(abs(preds[i] - outcome[i]) for i in hidden)
                cell["signed"] += sum(preds[i] - optimal[i] for i in hidden)
                cell["points"] += len(hidden)
                cell["runs"] += 1
                cell["nonconv"] += int(nonconv)

    return [
        {
            "bin_low": round(bin_idx * bin_width, 10),
            "bin_high": round((bin_idx + 1) * bin_width, 10),
            "predictor": name,
            "mean_l1": c["abs"] / c["points"],
            "bias": c["signed"] / c["points"],
            "n_points": c["points"],
            "nonconverged_ratio": c["nonconv"] / c["runs"],
        }
        for (bin_idx, name), c in sorted(cells.items())
    ]


def reference_fit(columns, edges, encoder_kind, em_select, max_iter=500,
                  tol=1e-9, patience=2) -> list[float]:
    """Edge-by-edge p_ij11 with no work shared between edges.

    Every EM call encodes its own pair of columns, and predictive selection
    scores each iterate with quantiles found by ``searchsorted`` on the
    ECDF ranks: the mean absolute error of decoding the pairwise
    one-observed-one-hidden belief, both directions averaged, keeping the
    best iterate until ``patience`` iterates in a row fail to beat it.
    The arithmetic follows ``fit_from_copula``, so the values should be
    identical.
    """
    from latent_ising import PairSamples, build_encoder, em_fit
    from latent_ising.pairwise_em import em_iterates

    def quantile(cdf, q):
        idx = np.searchsorted(cdf._ranks, q, side="left")
        return cdf.sorted_samples[np.minimum(idx, cdf.n - 1)]

    def loss(pair, enc_i, enc_j, m):
        ui = np.asarray(enc_i.encode(pair.xi), dtype=float)
        uj = np.asarray(enc_j.encode(pair.xj), dtype=float)
        pi, pj, p11 = m.p_i1, m.p_j1, m.p_ij11
        b_j = ui * (p11 / pi) + (1.0 - ui) * ((pj - p11) / (1.0 - pi))
        b_i = uj * (p11 / pj) + (1.0 - uj) * ((pi - p11) / (1.0 - pj))
        err_j = np.abs(quantile(enc_j.cdf, np.clip(b_j, 0.0, 1.0)) - pair.xj).mean()
        err_i = np.abs(quantile(enc_i.cdf, np.clip(b_i, 0.0, 1.0)) - pair.xi).mean()
        return 0.5 * float(err_i + err_j)

    columns = np.asarray(columns, dtype=float)
    encoders = [build_encoder(encoder_kind, columns[:, i])
                for i in range(columns.shape[1])]
    out = []
    for i, j in edges:
        pair = PairSamples(columns[:, i], columns[:, j])
        if em_select == "likelihood":
            out.append(em_fit(pair, encoders[i], encoders[j],
                              max_iter=max_iter, tol=tol).p_ij11)
            continue
        best, best_loss, worse = None, np.inf, 0
        for m in em_iterates(pair, encoders[i], encoders[j],
                             max_iter=max_iter, tol=tol):
            value = loss(pair, encoders[i], encoders[j], m)
            if value < best_loss:
                best, best_loss, worse = m, value, 0
            else:
                worse += 1
                if worse >= patience:
                    break
        out.append(best.p_ij11)
    return out
