"""End-to-end decimation experiments and their metrics.

A decimation run draws an outcome of the truth model, reveals its
coordinates one at a time in seeded random order (permanently instrumented
nodes first), and after every reveal asks each predictor for the still
hidden coordinates.  Mean absolute error and bias against the exact
conditional median are aggregated into reveal-fraction bins.  Runs where
the message passing did not converge are kept (beliefs at the last sweep)
and show up in a dedicated ratio column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coding import build_decoder, build_encoder
from .copula_lab import (
    CopulaModel,
    Dataset,
    exact_predictor_batch,
    knn_predictor,
    median_predictor,
    sample,
)
from .ising import LatentIsingModel, assemble
from .pairwise_em import PairSamples, em_fit, em_iterates
from .propagation import Engine, Schedule, impose_observations

__all__ = [
    "fit_from_copula",
    "decimate",
    "DecimationResult",
    "LATENT_PREDICTORS",
    "BASELINE_PREDICTORS",
]

# predictor name -> (encoder kind of the fitted model, decoder kind)
LATENT_PREDICTORS = {
    "inverse-cdf": ("cdf", "inverse-cdf"),
    "bayes-quad": ("cdf", "bayes-quad"),
    "median-step": ("median-step", "bayes-median-step"),
    "bayes-mean-step": ("median-step", "bayes-mean-step"),
}
BASELINE_PREDICTORS = ("exact", "knn", "median")

# Prediction-grade schedule for experiment loops: a tolerance far below the
# error scale of the L1 metrics, and plateau-triggered damping so
# oscillating runs settle instead of burning the sweep budget.
EXPERIMENT_SCHEDULE = Schedule(max_sweeps=120, tol=1e-5, auto_damp=True)


def _pair_prediction_loss(ui, uj, xi, xj, cdf_i, cdf_j, m) -> float:
    """Mean absolute error of the quantile decoding of the pairwise
    one-observed-one-hidden belief, averaged over both directions."""
    pi, pj, p11 = m.p_i1, m.p_j1, m.p_ij11
    b_j = ui * (p11 / pi) + (1.0 - ui) * ((pj - p11) / (1.0 - pi))
    b_i = uj * (p11 / pj) + (1.0 - uj) * ((pi - p11) / (1.0 - pj))
    err_j = np.abs(cdf_j.quantile(np.clip(b_j, 0.0, 1.0)) - xj).mean()
    err_i = np.abs(cdf_i.quantile(np.clip(b_i, 0.0, 1.0)) - xi).mean()
    return 0.5 * float(err_i + err_j)


def _fit_edge_predictive(pair, enc_i, enc_j, codes, max_iter, tol, patience=2):
    """EM with predictive early stopping.

    The latent pair family cannot represent the dependence of typical
    copula data (one shared bit saturates), so the likelihood path ends at
    a Frechet corner with near-deterministic couplings.  Each EM iterate is
    therefore scored by the experiment's own metric, the L1 error of
    quantile-decoded pairwise predictions on the training pairs, and the
    best-scoring iterate is kept.  ``codes`` is the encoded pair
    ``(enc_i.encode(pair.xi), enc_j.encode(pair.xj))``.
    """
    ui, uj = codes
    best = None
    best_loss = np.inf
    worse = 0
    for m in em_iterates(pair, enc_i, enc_j, max_iter=max_iter, tol=tol,
                         codes=codes):
        loss = _pair_prediction_loss(ui, uj, pair.xi, pair.xj,
                                     enc_i.cdf, enc_j.cdf, m)
        if loss < best_loss:
            best, best_loss, worse = m, loss, 0
        else:
            worse += 1
            if worse >= patience:
                break
    return best


def fit_from_copula(
    truth: CopulaModel,
    encoder_kind: str = "cdf",
    n_train: int = 10_000,
    seed=None,
    alpha: float = 1.0,
    em_max_iter: int = 500,
    em_tol: float = 1e-9,
    em_select: str = "prediction",
) -> tuple[LatentIsingModel, Dataset]:
    """Draw a training set from the truth model and fit the latent model.

    Every edge is fitted by EM on the n_train paired columns; each column
    is encoded once and its codes are shared by the edges at that node.
    The training dataset is returned as well (it doubles as k-NN history).

    ``em_select`` chooses the iterate kept per edge: ``"prediction"``
    (default) keeps the one with the best pairwise prediction loss, which
    regularizes the misspecified mixture away from the degenerate Frechet
    corner; ``"likelihood"`` keeps the converged maximum-likelihood
    iterate.
    """
    if em_select not in ("prediction", "likelihood"):
        raise ValueError(f"unknown em_select: {em_select!r}")
    data = sample(truth, n_train, seed)
    columns = data.values
    encoders = [
        build_encoder(encoder_kind, columns[:, i]) for i in range(truth.n_nodes)
    ]
    codes = [
        np.asarray(enc.encode(columns[:, i]), dtype=float)
        for i, enc in enumerate(encoders)
    ]
    marginals = []
    for i, j in truth.topology.edges:
        pair = PairSamples(columns[:, i], columns[:, j])
        if em_select == "prediction":
            marginals.append(
                _fit_edge_predictive(pair, encoders[i], encoders[j],
                                     (codes[i], codes[j]), em_max_iter, em_tol)
            )
        else:
            marginals.append(
                em_fit(pair, encoders[i], encoders[j],
                       max_iter=em_max_iter, tol=em_tol,
                       codes=(codes[i], codes[j]))
            )
    model = assemble(truth.topology, marginals, alpha, encoders=encoders)
    return model, data


@dataclass
class _Accumulator:
    abs_sum: float = 0.0
    signed_sum: float = 0.0
    n_points: int = 0
    runs: int = 0
    nonconverged: int = 0


@dataclass(frozen=True)
class DecimationResult:
    """Binned decimation metrics; ``table()`` flattens to row dicts."""

    bin_width: float
    replicates: int
    seed: object
    cells: dict = field(default_factory=dict)

    def table(self) -> list[dict]:
        rows = []
        for (bin_idx, predictor), acc in sorted(self.cells.items()):
            if acc.n_points == 0:
                continue
            rows.append(
                {
                    "bin_low": round(bin_idx * self.bin_width, 10),
                    "bin_high": round((bin_idx + 1) * self.bin_width, 10),
                    "predictor": predictor,
                    "mean_l1": acc.abs_sum / acc.n_points,
                    "bias": acc.signed_sum / acc.n_points,
                    "n_points": acc.n_points,
                    "nonconverged_ratio": (
                        acc.nonconverged / acc.runs if acc.runs else 0.0
                    ),
                }
            )
        return rows

    def curve(self, predictor: str) -> dict[float, float]:
        """bin_low -> mean_l1 for one predictor."""
        return {
            row["bin_low"]: row["mean_l1"]
            for row in self.table()
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
    bin_width: float = 0.05,
) -> DecimationResult:
    """Run the decimation experiment and aggregate per-bin metrics.

    ``fitted`` is one latent model or a list of them; each latent predictor
    is routed to the model whose encoder kind it needs.  Identical seeds
    give bit-identical results.  The default schedule is
    ``EXPERIMENT_SCHEDULE``; runs that still fail to settle are kept and
    reported through the nonconverged ratio.

    All replicates are stepped together: at reveal step k every replicate
    has exactly k nodes observed, so message passing (``Engine.sweep``), the
    exact predictor and the decoders each run once per step on arrays with
    a leading replicate axis.  Each replicate still warm-starts from its own
    previous messages and stops at its own convergence sweep, so the table
    is the one a replicate-by-replicate loop of one-run ``Engine.sweep``
    calls produces, whatever the size of the graph.
    """
    if isinstance(fitted, LatentIsingModel):
        fitted = [fitted]
    by_encoder = {}
    for model in fitted:
        if model.encoders is None:
            raise ValueError("fitted model carries no encoders")
        by_encoder[model.encoders[0].kind] = model

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
            plans.append((name, None, None))
        else:
            raise ValueError(f"unknown predictor: {name!r}")

    if schedule is None:
        schedule = EXPERIMENT_SCHEDULE

    n = truth.n_nodes
    always = list(truth.always_observed)
    rest = np.setdiff1d(np.arange(n), always)
    outcomes = sample(truth, replicates, seed=_derive_seed(seed, 0)).values
    order_rng = np.random.default_rng(_derive_seed(seed, 1))
    reveal = np.empty((replicates, n), dtype=np.intp)
    reveal[:, :len(always)] = always
    for rep in range(replicates):
        reveal[rep, len(always):] = order_rng.permutation(rest)

    engines = {key: Engine(model) for key, model in needed_models.items()}
    # every node's encoded outcome, normalized as Engine.run normalizes
    # constraints; a replicate pins the entries of the nodes it has revealed
    bstar = {}
    for key, model in needed_models.items():
        imposed = impose_observations(model, {i: outcomes[:, i] for i in range(n)})
        vec = np.stack([imposed[i].T for i in range(n)], axis=1)
        bstar[key] = vec / vec.sum(axis=-1, keepdims=True)
    messages = {
        key: np.full((replicates, engine.n_slots, 2), 0.5)
        for key, engine in engines.items()
    }
    decoders = {
        (key, dec_kind): [
            build_decoder(dec_kind, enc) for enc in needed_models[key].encoders
        ]
        for name, key, dec_kind in plans
        if key is not None
    }
    medians = median_predictor(truth, range(n))
    median_row = np.array([medians[i] for i in range(n)])

    steps = range(len(always), n)
    # per predictor: (|error| sum, signed deviation sum, nonconverged flag)
    # of every replicate (rows) at every step (columns)
    abs_sums = {name: np.empty((replicates, len(steps))) for name, _, _ in plans}
    signed_sums = {name: np.empty((replicates, len(steps))) for name, _, _ in plans}
    nonconv = {
        name: np.zeros((replicates, len(steps)), dtype=bool) for name, _, _ in plans
    }
    rows = np.arange(replicates)[:, None]
    observed = np.zeros((replicates, n), dtype=bool)

    for col, step in enumerate(steps):
        observed[rows, reveal[:, :step]] = True
        hidden = ~observed
        if step:
            obs_idx = np.sort(reveal[:, :step], axis=1)
            optimal = exact_predictor_batch(
                truth, obs_idx, np.take_along_axis(outcomes, obs_idx, axis=1)
            )
        else:
            optimal = np.broadcast_to(median_row, outcomes.shape)

        beliefs = {}
        converged = {}
        for key, engine in engines.items():
            messages[key], converged[key], _, _ = engine.sweep(
                messages[key], observed, bstar[key], schedule
            )
            beliefs[key] = engine.node_beliefs(
                messages[key], observed, bstar[key]
            )[..., 1]

        for name, key, dec_kind in plans:
            if key is not None:
                decs = decoders[(key, dec_kind)]
                preds = np.column_stack(
                    [decs[i].decode(beliefs[key][:, i]) for i in range(n)]
                )
                nonconv[name][:, col] = ~converged[key]
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

    n_bins = int(round(1.0 / bin_width))
    bins = [min(int((step / n) / bin_width), n_bins - 1) for step in steps]
    cells: dict = {}
    for bin_idx in sorted(set(bins)):
        cols = [col for col, b in enumerate(bins) if b == bin_idx]
        for name, _, _ in plans:
            cells[(bin_idx, name)] = _Accumulator(
                abs_sum=_running_sum(abs_sums[name][:, cols]),
                signed_sum=_running_sum(signed_sums[name][:, cols]),
                n_points=replicates * sum(n - steps[col] for col in cols),
                runs=replicates * len(cols),
                nonconverged=int(nonconv[name][:, cols].sum()),
            )

    return DecimationResult(
        bin_width=bin_width, replicates=replicates, seed=seed, cells=cells
    )


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
