"""End-to-end decimation experiments and their metrics.

A decimation run draws an outcome of the truth model, reveals its
coordinates one at a time in seeded random order (permanently instrumented
nodes first), and after every reveal asks each predictor for the still
hidden coordinates.  The errors and solver work of every replicate at
every step are kept in arrays, and one table row per reveal-fraction bin
and predictor is read from them: mean absolute error and bias against the
exact conditional median.  The latent beliefs come from each model's
``Engine.solve``: the exact mirror fixed point on a forest, message passing
on a loopy graph, where runs that did not converge are kept (beliefs at
the last sweep).  Either way unconverged runs show up in a dedicated ratio
column, next to the mean work per run (Newton steps or sweeps) and the
largest final residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import DECODER_KINDS, encode_training
from .copula_lab import (
    CopulaModel,
    Dataset,
    exact_predictor_batch,
    knn_predictor,
    latent_values,
    median_predictor,
    sample,
)
from .ising import LatentIsingModel, assemble, check_alpha
from .pairwise_em import PairSamples, em_fit, em_iterates
from .propagation import Schedule, impose_observations

__all__ = [
    "fit_from_copula",
    "decimate",
    "DecimationResult",
    "DECIMATION_COLUMNS",
    "LATENT_PREDICTORS",
    "BASELINE_PREDICTORS",
]

# predictor name -> (encoder kind of the fitted model, decoder kind); each
# predictor is named for its decoder, but median-step for its encoder
LATENT_PREDICTORS = {
    ("median-step" if dec == "bayes-median-step" else dec): (enc, dec)
    for dec, enc in DECODER_KINDS.items()
}
BASELINE_PREDICTORS = ("exact", "knn", "median")

# Prediction-grade schedule for experiment loops on loopy models: a
# tolerance far below the error scale of the L1 metrics, and
# plateau-triggered damping so oscillating runs settle instead of burning
# the sweep budget.
EXPERIMENT_SCHEDULE = Schedule(max_sweeps=120, tol=1e-5, auto_damp=True)

# predictive EM selection stops after this many iterates in a row fail to
# beat the best pairwise prediction loss
_PATIENCE = 2

# width of the reveal-fraction bins of the decimation table
BIN_WIDTH = 0.05
# the decimation table's columns, in the order of its rows and of its CSV
DECIMATION_COLUMNS = ("bin_low", "bin_high", "predictor", "mean_l1", "bias",
                      "n_points", "nonconverged_ratio", "mean_iterations",
                      "max_residual")


def _pair_prediction_loss(ui, uj, xi, xj, cdf_i, cdf_j, m) -> float:
    """Mean absolute error of the quantile decoding of the pairwise
    one-observed-one-hidden belief, averaged over both directions."""
    pi, pj, p11 = m.p_i1, m.p_j1, m.p_ij11
    b_j = ui * (p11 / pi) + (1.0 - ui) * ((pj - p11) / (1.0 - pi))
    b_i = uj * (p11 / pj) + (1.0 - uj) * ((pi - p11) / (1.0 - pj))
    err_j = np.abs(cdf_j.quantile(np.clip(b_j, 0.0, 1.0)) - xj).mean()
    err_i = np.abs(cdf_i.quantile(np.clip(b_i, 0.0, 1.0)) - xi).mean()
    return 0.5 * float(err_i + err_j)


def _fit_edge_predictive(pair, enc_i, enc_j, codes):
    """EM with predictive early stopping.

    The latent pair family cannot represent the dependence of typical
    copula data (one shared bit saturates), so the likelihood path ends at
    a Frechet corner with near-deterministic couplings.  Each EM iterate is
    therefore scored by the experiment's own metric, the L1 error of
    quantile-decoded pairwise predictions on the training pairs, and the
    best-scoring iterate is kept; the search stops after ``_PATIENCE``
    iterates in a row fail to beat it.  ``codes`` is the encoded pair
    ``(enc_i.encode(pair.xi), enc_j.encode(pair.xj))``.
    """
    ui, uj = codes
    best = None
    best_loss = np.inf
    worse = 0
    for m in em_iterates(pair, enc_i, enc_j, codes=codes):
        loss = _pair_prediction_loss(ui, uj, pair.xi, pair.xj,
                                     enc_i.cdf, enc_j.cdf, m)
        if loss < best_loss:
            best, best_loss, worse = m, loss, 0
        else:
            worse += 1
            if worse >= _PATIENCE:
                break
    return best


def fit_from_copula(
    truth: CopulaModel,
    encoder_kind: str = "cdf",
    n_train: int = 10_000,
    seed=None,
    alpha: float = 1.0,
    em_select: str = "prediction",
) -> tuple[LatentIsingModel, Dataset]:
    """Draw a training set from the truth model and fit the latent model.

    Every edge is fitted by EM on the n_train paired columns, with the
    iteration budget and tolerance of ``em_iterates``; each column is
    encoded once and its codes are shared by the edges at that node.
    The training dataset is returned as well (it doubles as k-NN history).

    ``em_select`` chooses the iterate kept per edge: ``"prediction"``
    (default) keeps the one with the best pairwise prediction loss, which
    regularizes the misspecified mixture away from the degenerate Frechet
    corner; ``"likelihood"`` keeps the converged maximum-likelihood
    iterate.
    """
    if em_select not in ("prediction", "likelihood"):
        raise ValueError(f"unknown em_select: {em_select!r}")
    check_alpha(alpha)
    data = sample(truth, n_train, seed)
    columns = data.values
    encoders, codes = zip(*(
        encode_training(encoder_kind, columns[:, i]) for i in range(truth.n_nodes)
    ))
    marginals = []
    for i, j in truth.topology.edges:
        pair = PairSamples(columns[:, i], columns[:, j])
        if em_select == "prediction":
            marginals.append(
                _fit_edge_predictive(pair, encoders[i], encoders[j],
                                     (codes[i], codes[j]))
            )
        else:
            marginals.append(
                em_fit(pair, encoders[i], encoders[j],
                       codes=(codes[i], codes[j]))
            )
    model = assemble(truth.topology, marginals, alpha, encoders=encoders)
    return model, data


@dataclass(frozen=True)
class DecimationResult:
    """The table of one ``decimate`` run: one row dict per (bin, predictor),
    in bin order and then in predictor-name order."""

    replicates: int
    seed: object
    rows: list[dict]

    def table(self) -> list[dict]:
        """Copies of the rows."""
        return [dict(row) for row in self.rows]

    def curve(self, predictor: str) -> dict[float, float]:
        """bin_low -> mean_l1 for one predictor."""
        return {
            row["bin_low"]: row["mean_l1"]
            for row in self.rows
            if row["predictor"] == predictor
        }


def decimate(
    truth: CopulaModel,
    fitted,
    predictors,
    replicates: int,
    seed=None,
    history: Dataset | None = None,
    knn_k: int = 50,
    schedule: Schedule | None = None,
) -> DecimationResult:
    """Run the decimation experiment and aggregate per-bin metrics.

    ``fitted`` is one latent model or a list of them; each latent predictor
    is routed to the model whose encoder kind it needs, and a model must
    hold one kind on every node.  Reveal step k of
    n falls in the bin floor((k / n) / ``BIN_WIDTH``), the last bin
    absorbing k / n = 1.  Identical seeds give bit-identical results.

    Each model answers every step in one ``model.engine.solve`` call,
    warm-started from its previous step, under ``schedule`` (default
    ``EXPERIMENT_SCHEDULE``; a forest is solved exactly and ignores it).
    Runs that fail to settle are kept and reported through the
    nonconverged ratio, and the table gives the mean Newton steps or
    sweeps per run and the largest final residual (max |b − b*| over the
    observed nodes, or the last message change).

    All replicates are stepped together: at reveal step k every replicate
    has exactly k nodes observed, so ``Engine.solve``, the exact predictor
    and the decoders each run once per step on arrays with a leading
    replicate axis, each latent predictor's decode in one call of its
    model's batched decoder.  The revealed outcomes are lifted to the
    truth's latent space once, and the exact predictor resumes from its
    previous step's state, so only the means a reveal moved pay for a
    quantile.  Every replicate stops at its own convergence, so the table
    is the one a replicate-by-replicate loop of one-run calls produces.
    """
    if isinstance(fitted, LatentIsingModel):
        fitted = [fitted]
    by_encoder = {}
    for model in fitted:
        if model.topology.n_nodes != truth.n_nodes:
            raise ValueError(f"fitted model has {model.topology.n_nodes} nodes, "
                             f"the truth model {truth.n_nodes}")
        if model.encoders is None:
            raise ValueError("fitted model carries no encoders")
        kind = model.encoders[0].kind
        for i, enc in enumerate(model.encoders):
            if enc.kind != kind:
                raise ValueError(f"fitted model mixes encoder kinds: node {i} "
                                 f"has {enc.kind!r}, node 0 has {kind!r}")
        if kind in by_encoder:
            raise ValueError(f"two fitted models with {kind!r} encoders")
        by_encoder[kind] = model

    predictors = list(predictors)
    if len(set(predictors)) != len(predictors):
        raise ValueError("duplicate predictor")
    plans = []  # (predictor, model_key or None, decoder kind or None)
    needed_models = {}
    for name in predictors:
        if name in LATENT_PREDICTORS:
            enc_kind, dec_kind = LATENT_PREDICTORS[name]
            if enc_kind not in by_encoder:
                raise ValueError(
                    f"predictor {name!r} needs a fitted model with "
                    f"{enc_kind!r} encoders"
                )
            needed_models[enc_kind] = by_encoder[enc_kind]
            plans.append((name, enc_kind, dec_kind))
        elif name in BASELINE_PREDICTORS:
            if name == "knn" and history is None:
                raise ValueError("knn predictor needs a history dataset")
            if name == "knn" and history.values.shape[1] != truth.n_nodes:
                raise ValueError(f"knn history width {history.values.shape[1]} differs "
                                 f"from the truth model's {truth.n_nodes} nodes")
            plans.append((name, None, None))
        else:
            raise ValueError(f"unknown predictor: {name!r}")

    schedule = schedule or EXPERIMENT_SCHEDULE

    n = truth.n_nodes
    always = list(truth.always_observed)
    rest = np.setdiff1d(np.arange(n), always)
    outcomes = sample(truth, replicates, seed=_derive_seed(seed, 0)).values
    order_rng = np.random.default_rng(_derive_seed(seed, 1))
    reveal = np.empty((replicates, n), dtype=np.intp)
    reveal[:, :len(always)] = always
    for rep in range(replicates):
        reveal[rep, len(always):] = order_rng.permutation(rest)
    # the exact predictor's lift of every outcome a replicate reveals before
    # its last step (its last node is never observed)
    lifted = reveal[:, :n - 1]
    latent = np.full(outcomes.shape, np.nan)
    np.put_along_axis(latent, lifted, latent_values(
        truth, lifted, np.take_along_axis(outcomes, lifted, axis=1)), axis=1)

    # every node's encoded outcome [1 - lam, lam], whose two entries sum to
    # exactly 1.0; a replicate pins the entries of the nodes it has revealed
    bstar = {}
    for key, model in needed_models.items():
        imposed = impose_observations(model, {i: outcomes[:, i] for i in range(n)})
        bstar[key] = np.stack([imposed[i].T for i in range(n)], axis=1)
    warm = dict.fromkeys(needed_models)  # each model's Engine.solve state
    exact_warm = None  # the exact predictor's state
    medians = median_predictor(truth, range(n))
    median_row = np.array([medians[i] for i in range(n)])

    steps = range(len(always), n)
    # per predictor: |error| sum, signed deviation sum, nonconverged flag,
    # Newton steps or sweeps, and final residual of every replicate (rows)
    # at every step (columns)
    shape = (replicates, len(steps))
    abs_sums = {name: np.empty(shape) for name, _, _ in plans}
    signed_sums = {name: np.empty(shape) for name, _, _ in plans}
    nonconv = {name: np.zeros(shape, dtype=bool) for name, _, _ in plans}
    work = {name: np.zeros(shape, dtype=np.intp) for name, _, _ in plans}
    resid = {name: np.zeros(shape) for name, _, _ in plans}
    rows = np.arange(replicates)[:, None]
    observed = np.zeros((replicates, n), dtype=bool)
    beliefs = {}

    for col, step in enumerate(steps):
        observed[rows, reveal[:, :step]] = True
        hidden = ~observed
        if step:
            obs_idx = np.sort(reveal[:, :step], axis=1)
            optimal, exact_warm = exact_predictor_batch(
                truth, obs_idx, np.take_along_axis(outcomes, obs_idx, axis=1),
                np.take_along_axis(latent, obs_idx, axis=1), exact_warm)
        else:
            optimal = np.broadcast_to(median_row, outcomes.shape)

        runs = {}  # key -> (converged, steps or sweeps, residual)
        for key, model in needed_models.items():
            beliefs[key], warm[key], *runs[key] = model.engine.solve(
                observed, bstar[key], warm[key], schedule)

        for name, key, dec_kind in plans:
            if key is not None:
                decoder = needed_models[key].decoder(dec_kind)
                preds = decoder.decode(beliefs[key][..., 1])
                converged, work[name][:, col], resid[name][:, col] = runs[key]
                nonconv[name][:, col] = ~converged
            elif name == "exact":
                preds = optimal
            elif name == "median":
                preds = np.broadcast_to(median_row, outcomes.shape)
            else:  # knn
                preds = np.zeros(outcomes.shape)
                for rep in range(replicates):
                    revealed = reveal[rep, :step]
                    knn_full = knn_predictor(
                        history,
                        {int(i): float(outcomes[rep, i]) for i in revealed},
                        k=knn_k,
                    )
                    for i, value in knn_full.items():
                        preds[rep, i] = value
            abs_sums[name][:, col] = _hidden_sums(
                np.abs(preds - outcomes), hidden
            )
            signed_sums[name][:, col] = _hidden_sums(preds - optimal, hidden)

    n_bins = int(round(1.0 / BIN_WIDTH))
    bins = [min(int((step / n) / BIN_WIDTH), n_bins - 1) for step in steps]
    table = []
    for bin_idx in sorted(set(bins)):
        cols = [col for col, b in enumerate(bins) if b == bin_idx]
        n_points = replicates * sum(n - steps[col] for col in cols)
        n_runs = replicates * len(cols)
        for name in sorted(predictors):
            table.append(dict(zip(DECIMATION_COLUMNS, (
                round(bin_idx * BIN_WIDTH, 10),
                round((bin_idx + 1) * BIN_WIDTH, 10),
                name,
                _running_sum(abs_sums[name][:, cols]) / n_points,
                _running_sum(signed_sums[name][:, cols]) / n_points,
                n_points,
                int(nonconv[name][:, cols].sum()) / n_runs,
                int(work[name][:, cols].sum()) / n_runs,
                float(resid[name][:, cols].max()),
            ))))
    return DecimationResult(replicates=replicates, seed=seed, rows=table)


def _hidden_sums(values: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """Per-row sum of ``values`` over the hidden nodes, added left to right
    in node order (the order of a loop over each replicate's hidden nodes,
    so that the metrics do not depend on the batching)."""
    return np.cumsum(np.where(hidden, values, 0.0), axis=1)[:, -1]


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right sum in row-major order: replicate by replicate, steps
    in order within a replicate."""
    return float(np.cumsum(values.ravel())[-1])


def _derive_seed(seed, salt: int):
    if seed is None:
        return None
    return np.random.SeedSequence(entropy=seed, spawn_key=(salt,))
