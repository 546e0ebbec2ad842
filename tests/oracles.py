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


def degree(topology, i: int) -> int:
    """Number of edges of ``topology`` at node ``i``."""
    return sum(i in edge for edge in topology.edges)


def exact_predictor(model, observed: dict) -> dict:
    """The library's exact conditional median for one observation set
    ``{node: value}``, by a cold one-row ``exact_predictor_batch`` call;
    every node is returned, the observed ones as given."""
    from latent_ising.copula_lab import exact_predictor_batch

    if not observed:
        raise ValueError("no observations")
    obs_idx = np.array(sorted(observed), dtype=int)
    obs_vals = np.array([observed[int(i)] for i in obs_idx], dtype=float)
    row = exact_predictor_batch(model, obs_idx[None], obs_vals[None])[0][0]
    return {i: float(v) for i, v in enumerate(row)}


def dense_exact_predictor(model, obs_idx, obs_vals) -> np.ndarray:
    """Exact conditional medians (R, n) through the correlation matrix:
    per row one k-by-k solve with corr[O, O], means corr[H, O] times its
    weights, every hidden node through Phi and its marginal quantile.  Rows
    as ``exact_predictor_batch`` takes them, on any graph."""
    from scipy.special import ndtr, ndtri

    obs_idx = np.asarray(obs_idx, dtype=np.intp)
    obs_vals = np.asarray(obs_vals, dtype=float)
    n_rows, k = obs_idx.shape
    rows = np.arange(n_rows)[:, None]
    out = np.empty((n_rows, model.n_nodes))
    out[rows, obs_idx] = obs_vals
    if k == model.n_nodes:
        return out
    hidden = np.ones(out.shape, dtype=bool)
    hidden[rows, obs_idx] = False
    free = np.nonzero(hidden)[1].reshape(n_rows, -1)
    lift = [[model.marginals[i].cdf(v) for i, v in zip(ids, vals)]
            for ids, vals in zip(obs_idx.tolist(), obs_vals)]
    y_obs = ndtri(np.array(lift, dtype=float))
    corr = model.correlation
    weights = np.linalg.solve(
        corr[obs_idx[:, :, None], obs_idx[:, None, :]], y_obs[..., None])
    u_mean = ndtr((corr[free[:, :, None], obs_idx[:, None, :]] @ weights)[..., 0])
    out[rows, free] = [[model.marginals[i].quantile(u) for i, u in zip(ids, us)]
                       for ids, us in zip(free.tolist(), u_mean)]
    return out


def reference_decimation(truth, fitted, predictors, replicates, seed,
                         history=None, knn_k=50, schedule=None,
                         bin_width=0.05) -> list[dict]:
    """Replicate-by-replicate decimation built from the public pieces.

    Each replicate reveals its nodes one at a time; after every reveal each
    fitted model is solved for that replicate alone, with constraints from
    ``impose_observations``: a forest model by a one-run
    ``ForestSolver.solve`` warm-started from the replicate's previous tilts
    (the newly revealed node at ``reveal_tilt`` of its target and previous
    belief), a loopy one by a one-run ``Engine.sweep`` warm-started from
    its previous messages.  ``predict`` decodes the hidden nodes.  Seeds,
    reveal orders and the order of every sum follow ``decimate``, so the
    returned rows are what ``DecimationResult.table()`` should give.
    """
    from latent_ising import (
        BeliefState,
        Engine,
        ForestSolver,
        impose_observations,
        knn_predictor,
        median_predictor,
        predict,
        sample,
    )
    from latent_ising.propagation import reveal_tilt
    from latent_ising.harness import (
        EXPERIMENT_SCHEDULE,
        LATENT_PREDICTORS,
        _derive_seed,
    )

    schedule = schedule or EXPERIMENT_SCHEDULE
    if not isinstance(fitted, (list, tuple)):
        fitted = [fitted]
    models = {m.encoders[0].kind: m for m in fitted}
    engines = {kind: ForestSolver(m) if m.topology.is_forest else Engine(m)
               for kind, m in models.items()}

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
        warm = {kind: None if isinstance(e, ForestSolver)
                else np.full((1, e.n_slots, 2), 0.5)
                for kind, e in engines.items()}
        last = {}  # forest models: state-1 beliefs of the previous step
        for step in range(len(always), n):
            observed = {i: float(outcome[i]) for i in reveal[:step]}
            hidden = [i for i in range(n) if i not in observed]
            bin_idx = min(int((step / n) / bin_width), n_bins - 1)
            if observed:
                optimal = exact_predictor(truth, observed)
            else:
                optimal = median_predictor(truth, hidden)
            states, runs = {}, {}
            for kind, model in models.items():
                constraints = impose_observations(model, observed)
                pinned = np.zeros((1, n), dtype=bool)
                bstar = np.zeros((1, n, 2))
                for i, vec in constraints.items():
                    pinned[0, i] = True
                    bstar[0, i] = vec / vec.sum()
                engine = engines[kind]
                if isinstance(engine, ForestSolver):
                    start = warm[kind]
                    if start is not None:
                        new = pinned & ~np.isin(np.arange(n), reveal[:step - 1])
                        start = np.where(
                            new, reveal_tilt(bstar[..., 1], last[kind]), start)
                    out = engine.solve(pinned, bstar, start)
                    beliefs, warm[kind] = out[0][0], out[1]
                    last[kind] = beliefs[None, :, 1]
                    states[kind] = BeliefState(beliefs, None, None, constraints)
                else:
                    out = engine.sweep(warm[kind], pinned, bstar, schedule)
                    warm[kind] = out[0]
                    beliefs = engine.node_beliefs(warm[kind], pinned, bstar)[0]
                    states[kind] = BeliefState(beliefs, None, warm[kind][0],
                                               constraints)
                runs[kind] = [x[0] for x in out[-3:]]
            for name in predictors:
                done, work, residual = True, 0, 0.0
                if name in LATENT_PREDICTORS:
                    kind, decoder = LATENT_PREDICTORS[name]
                    preds = predict(models[kind], states[kind], decoder)
                    done, work, residual = runs[kind]
                elif name == "exact":
                    preds = optimal
                elif name == "median":
                    preds = median_predictor(truth, hidden)
                else:
                    preds = knn_predictor(history, observed, k=knn_k)
                cell = cells.setdefault(
                    (bin_idx, name), {"abs": 0.0, "signed": 0.0, "points": 0,
                                      "runs": 0, "nonconv": 0, "work": 0,
                                      "residual": 0.0}
                )
                cell["abs"] += sum(abs(preds[i] - outcome[i]) for i in hidden)
                cell["signed"] += sum(preds[i] - optimal[i] for i in hidden)
                cell["points"] += len(hidden)
                cell["runs"] += 1
                cell["nonconv"] += int(not done)
                cell["work"] += int(work)
                cell["residual"] = max(cell["residual"], float(residual))

    return [
        {
            "bin_low": round(bin_idx * bin_width, 10),
            "bin_high": round((bin_idx + 1) * bin_width, 10),
            "predictor": name,
            "mean_l1": c["abs"] / c["points"],
            "bias": c["signed"] / c["points"],
            "n_points": c["points"],
            "nonconverged_ratio": c["nonconv"] / c["runs"],
            "mean_iterations": c["work"] / c["runs"],
            "max_residual": c["residual"],
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


def _union_find(vertices=()):
    """``find`` and ``union`` over a dict of roots; ``union`` returns False
    when both ends already share a root."""
    root = {v: v for v in vertices}

    def find(v):
        root.setdefault(v, v)
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
        return True

    return find, union


def is_forest_union_find(n_nodes: int, edges) -> bool:
    """True when no edge joins two nodes already connected."""
    _, union = _union_find(range(n_nodes))
    return all(union(i, j) for i, j in edges)


def graph_cut_check_union_find(factors, constrained) -> str:
    """The graph-cutting convergence check by union-find: clone each
    constrained variable into one leaf per incident factor, give up at the
    first edge that closes a cycle, then count the clones per component."""
    constrained = set(constrained)
    find, union = _union_find()
    clones = []
    for f_idx, members in enumerate(factors):
        fv = ("f", f_idx)
        find(fv)
        for i in members:
            if i in constrained:
                vv = ("c", i, f_idx)
                clones.append(vv)
            else:
                vv = ("v", i)
            if not union(fv, vv):
                return "unknown"  # a cycle survives the cutting
    clone_count: dict = {}
    for v in clones:
        r = find(v)
        clone_count[r] = clone_count.get(r, 0) + 1
    if any(c > 2 for c in clone_count.values()):
        return "unknown"
    return "guaranteed"
