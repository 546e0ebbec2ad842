import dataclasses

import numpy as np
import pytest

from latent_ising import (
    BetaMarginal,
    GraphTopology,
    LatentIsingModel,
    Schedule,
    build_decoder,
    decimate,
    fit_from_copula,
    generate_copula,
    impose_observations,
    mbp_run,
    pair_topology,
    predict,
    regular_tree_topology,
    sample,
)

from latent_ising.model_io import model_from_dict, model_to_dict

from oracles import reference_decimation, reference_fit


@pytest.fixture(scope="module")
def pair_setup():
    truth = generate_copula(pair_topology(), seed=0, overrides={(0, 1): -0.7})
    fitted_cdf, history = fit_from_copula(truth, "cdf", n_train=3001, seed=1)
    fitted_step, _ = fit_from_copula(truth, "median-step", n_train=3001, seed=1)
    return truth, fitted_cdf, fitted_step, history


def test_fit_from_copula_structure(pair_setup):
    truth, fitted_cdf, fitted_step, history = pair_setup
    assert fitted_cdf.encoders[0].kind == "cdf"
    assert fitted_step.encoders[1].kind == "median-step"
    assert len(fitted_cdf.marginals) == 1
    assert history.n_rows == 3001
    lo, hi = fitted_cdf.marginals[0].domain()
    assert lo < fitted_cdf.marginals[0].p_ij11 < hi


def test_decimation_deterministic(pair_setup):
    truth, fitted_cdf, _, history = pair_setup
    kwargs = dict(
        predictors=["inverse-cdf", "exact", "median"],
        replicates=200,
        seed=42,
    )
    a = decimate(truth, fitted_cdf, **kwargs)
    b = decimate(truth, fitted_cdf, **kwargs)
    assert a.table() == b.table()
    a.table()[0]["mean_l1"] = -1.0  # the table is a copy
    assert a.table() == b.table()


def test_pair_decimation_bins_and_metrics(pair_setup):
    truth, fitted_cdf, fitted_step, history = pair_setup
    result = decimate(
        truth,
        [fitted_cdf, fitted_step],
        predictors=["inverse-cdf", "bayes-quad", "median-step", "knn", "exact",
                    "median"],
        replicates=300,
        seed=7,
        history=history,
    )
    rows = result.table()
    fractions = {r["bin_low"] for r in rows}
    assert fractions == {0.0, 0.5}  # contextless and one-observed, nothing else
    by = {(r["bin_low"], r["predictor"]): r for r in rows}

    # exact predictor has zero bias against itself, positive error
    assert by[(0.5, "exact")]["bias"] == 0.0
    assert by[(0.5, "exact")]["mean_l1"] > 0.0
    # with one node revealed the exact predictor beats the median baseline
    assert by[(0.5, "exact")]["mean_l1"] < by[(0.5, "median")]["mean_l1"]
    # every accumulator saw one point per replicate
    assert by[(0.5, "inverse-cdf")]["n_points"] == 300
    assert by[(0.0, "median")]["n_points"] == 600  # both nodes hidden
    for r in rows:
        assert r["nonconverged_ratio"] == 0.0


def test_contextless_inverse_cdf_close_to_median_baseline(pair_setup):
    truth, fitted_cdf, _, history = pair_setup
    result = decimate(
        truth, fitted_cdf, predictors=["inverse-cdf", "median"],
        replicates=400, seed=3,
    )
    curve_inv = result.curve("inverse-cdf")
    curve_med = result.curve("median")
    # with nothing revealed, beliefs sit at p1 and decode to the fitted
    # median, which tracks the true median up to sampling noise
    assert abs(curve_inv[0.0] - curve_med[0.0]) <= 2e-3


def test_always_observed_nodes_are_revealed_first():
    topo = GraphTopology(4, ((0, 1), (1, 2), (2, 3)))
    truth = generate_copula(
        topo, seed=5, marginals=[BetaMarginal(1, 1)] * 4, always_observed=(1,)
    )
    fitted, _ = fit_from_copula(truth, "cdf", n_train=2001, seed=6)
    result = decimate(truth, fitted, ["inverse-cdf"], replicates=50, seed=8)
    rows = result.table()
    assert min(r["bin_low"] for r in rows) == 0.25  # starts at 1/4 revealed
    # the always-observed node never appears as a prediction target
    assert all(r["n_points"] <= 3 * 50 for r in rows)


def test_unknown_predictor_rejected(pair_setup):
    truth, fitted_cdf, _, _ = pair_setup
    with pytest.raises(ValueError, match="unknown predictor"):
        decimate(truth, fitted_cdf, ["nearest"], replicates=2, seed=0)


def test_knn_requires_history(pair_setup):
    truth, fitted_cdf, _, _ = pair_setup
    with pytest.raises(ValueError, match="history"):
        decimate(truth, fitted_cdf, ["knn"], replicates=2, seed=0)


def test_two_models_of_one_encoder_kind_rejected(pair_setup):
    truth, fitted_cdf, fitted_step, _ = pair_setup
    with pytest.raises(ValueError, match="two fitted models with 'cdf' encoders"):
        decimate(truth, [fitted_cdf, fitted_step, fitted_cdf], ["exact"],
                 replicates=2, seed=0)


def test_model_with_mixed_encoder_kinds_rejected(pair_setup):
    truth, fitted_cdf, _, _ = pair_setup
    payload = model_to_dict(fitted_cdf)
    payload["nodes"][1]["encoder"] = "median-step"
    mixed = model_from_dict(payload)
    with pytest.raises(ValueError, match="fitted model mixes encoder kinds: "
                                         "node 1 has 'median-step', node 0 has 'cdf'"):
        decimate(truth, mixed, ["inverse-cdf", "bayes-quad"], replicates=2, seed=0)


def test_missing_coding_model_rejected(pair_setup):
    truth, fitted_cdf, _, _ = pair_setup
    with pytest.raises(ValueError, match="median-step"):
        decimate(truth, fitted_cdf, ["median-step"], replicates=2, seed=0)


@pytest.mark.parametrize("em_select", ["prediction", "likelihood"])
@pytest.mark.parametrize("encoder_kind", ["cdf", "median-step"])
def test_fit_matches_edge_by_edge_reference(encoder_kind, em_select):
    truth = generate_copula(regular_tree_topology(3, 16), seed=9)
    fitted, data = fit_from_copula(truth, encoder_kind, n_train=1501, seed=10,
                                   em_select=em_select)
    reference = reference_fit(data.values, truth.topology.edges,
                              encoder_kind, em_select)
    assert [m.p_ij11 for m in fitted.marginals] == reference


@pytest.mark.parametrize("encoder_kind", ["cdf", "median-step"])
def test_fit_encodes_each_column_once(monkeypatch, encoder_kind):
    from latent_ising import coding, harness

    cls = coding.ENCODER_KINDS[encoder_kind]
    original = cls.encode
    calls = []
    columns = []

    def counted(self, x):
        calls.append(np.size(x))
        return original(self, x)

    def training(kind, samples):
        columns.append(np.size(samples))
        return coding.encode_training(kind, samples)

    monkeypatch.setattr(cls, "encode", counted)
    monkeypatch.setattr(harness, "encode_training", training)
    truth = generate_copula(regular_tree_topology(3, 16), seed=9)
    fit_from_copula(truth, encoder_kind, n_train=501, seed=10)
    assert columns == [501] * 16
    # the edges reuse the column codes; a cdf column's codes come from the
    # sort of its ECDF, with no encode call at all
    assert calls == ([] if encoder_kind == "cdf" else [501] * 16)


def test_fit_checks_alpha_before_sampling(monkeypatch):
    from latent_ising import harness

    def no_sample(*args, **kwargs):
        raise AssertionError("sampled before the alpha check")

    monkeypatch.setattr(harness, "sample", no_sample)
    truth = generate_copula(pair_topology(), seed=0)
    for alpha in (2.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="alpha must lie in"):
            fit_from_copula(truth, "cdf", n_train=101, seed=1, alpha=alpha)


def test_small_tree_decimation_smoke():
    topo = regular_tree_topology(3, 16)
    truth = generate_copula(topo, seed=9)
    fitted, history = fit_from_copula(truth, "cdf", n_train=1501, seed=10)
    result = decimate(
        truth, fitted, ["inverse-cdf", "median", "exact"], replicates=25, seed=11
    )
    curve_inv = result.curve("inverse-cdf")
    curve_exact = result.curve("exact")
    assert len(curve_inv) >= 10
    for frac, err in curve_exact.items():
        if frac >= 0.1:
            # exact is the floor up to Monte Carlo noise at 25 replicates
            assert err <= curve_inv[frac] + 0.015
    # late bins see few hidden nodes, early bins many
    rows = result.table()
    n0 = [r["n_points"] for r in rows if r["bin_low"] == 0.0][0]
    n_last = [r["n_points"] for r in rows if r["bin_low"] == 0.9][0]
    assert n0 > n_last


def _assert_matches_reference(rows, reference):
    assert [(r["bin_low"], r["predictor"]) for r in rows] == [
        (r["bin_low"], r["predictor"]) for r in reference
    ]
    for row, ref in zip(rows, reference):
        assert row["bin_high"] == ref["bin_high"]
        assert row["n_points"] == ref["n_points"]
        assert row["nonconverged_ratio"] == ref["nonconverged_ratio"]
        assert row["mean_iterations"] == ref["mean_iterations"]
        assert row["max_residual"] == ref["max_residual"]
        for key in ("mean_l1", "bias"):
            assert row[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0)


def test_decimation_matches_per_replicate_reference_pair(pair_setup):
    truth, fitted_cdf, fitted_step, history = pair_setup
    kwargs = dict(
        predictors=["inverse-cdf", "bayes-quad", "median-step",
                    "bayes-mean-step", "knn", "exact", "median"],
        replicates=300, seed=7, history=history,
    )
    rows = decimate(truth, [fitted_cdf, fitted_step], **kwargs).table()
    _assert_matches_reference(
        rows, reference_decimation(truth, [fitted_cdf, fitted_step], **kwargs)
    )


def test_decimation_matches_per_replicate_reference_always_observed():
    topo = GraphTopology(4, ((0, 1), (1, 2), (2, 3)))
    truth = generate_copula(
        topo, seed=5, marginals=[BetaMarginal(1, 1)] * 4, always_observed=(1,)
    )
    fitted, history = fit_from_copula(truth, "cdf", n_train=2001, seed=6)
    kwargs = dict(predictors=["inverse-cdf", "bayes-quad", "knn", "exact",
                              "median"],
                  replicates=50, seed=8, history=history)
    rows = decimate(truth, fitted, **kwargs).table()
    _assert_matches_reference(rows, reference_decimation(truth, fitted, **kwargs))


def _grid_topology(k):
    rows = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    cols = [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    return GraphTopology(k * k, tuple(rows + cols))


def test_decimation_matches_per_replicate_reference_short_budget():
    # a loopy graph, where decimation sweeps under the schedule's budget
    truth = generate_copula(_grid_topology(3), seed=0,
                            corr_range=((-1.0, -0.5), (0.5, 1.0)))
    fitted, _ = fit_from_copula(truth, "cdf", n_train=1501, seed=10)
    schedule = Schedule(max_sweeps=100, tol=1e-9, auto_damp=True)
    kwargs = dict(predictors=["inverse-cdf", "bayes-quad", "exact"],
                  replicates=12, seed=11, schedule=schedule)
    rows = decimate(truth, fitted, **kwargs).table()
    # the budget stops some runs but not all, and damping escalates
    ratios = {r["nonconverged_ratio"] for r in rows}
    assert any(0.0 < ratio < 1.0 for ratio in ratios)
    undamped = Schedule(max_sweeps=100, tol=1e-9, auto_damp=False)
    assert decimate(truth, fitted, **{**kwargs, "schedule": undamped}).table() != rows
    _assert_matches_reference(rows, reference_decimation(truth, fitted, **kwargs))


def test_tree_decimation_is_exact_whatever_the_schedule():
    # a forest is solved exactly: the sweep schedule plays no part, every
    # run converges, and the table is the per-replicate solver's
    topo = regular_tree_topology(3, 16)
    truth = generate_copula(topo, seed=9)
    fitted, _ = fit_from_copula(truth, "cdf", n_train=1501, seed=10)
    kwargs = dict(predictors=["inverse-cdf", "bayes-quad", "exact"],
                  replicates=12, seed=11)
    short = Schedule(max_sweeps=100, tol=1e-9, auto_damp=True)
    rows = decimate(truth, fitted, schedule=short, **kwargs).table()
    assert all(r["nonconverged_ratio"] == 0.0 for r in rows)
    assert all(r["max_residual"] < 1e-12 for r in rows)
    assert any(r["mean_iterations"] > 0.0 for r in rows)
    one_sweep = Schedule(max_sweeps=1, auto_damp=False)
    assert decimate(truth, fitted, schedule=one_sweep, **kwargs).table() == rows
    _assert_matches_reference(rows, reference_decimation(truth, fitted, **kwargs))


# --- batched decoding against node-by-node decoders -------------------------

class _NodeByNodeDecoder:
    """One ``build_decoder`` decoder per node, called node by node: the
    decoding that ``LatentIsingModel.decoder`` batches."""

    def __init__(self, kind, encoders):
        self.decoders = [build_decoder(kind, enc) for enc in encoders]

    def decode(self, b, nodes=None):
        nodes = range(len(self.decoders)) if nodes is None else nodes
        return np.stack(
            [self.decoders[i].decode(b[..., k]) for k, i in enumerate(nodes)],
            axis=-1,
        )


@pytest.fixture(scope="module", params=["tree", "loopy"])
def fitted_pair_of_models(request):
    topo = regular_tree_topology(3, 16) if request.param == "tree" else _grid_topology(3)
    truth = generate_copula(topo, seed=12)
    fitted = [fit_from_copula(truth, kind, n_train=801, seed=13)[0]
              for kind in ("cdf", "median-step")]
    return truth, fitted


def test_predict_matches_node_by_node_decoders(fitted_pair_of_models):
    truth, fitted = fitted_pair_of_models
    x = sample(truth, 1, seed=14).values[0]
    observed = {i: float(x[i]) for i in (0, 4, 5)}
    for model in fitted:
        state, _ = mbp_run(model, impose_observations(model, observed))
        hidden = [i for i in range(truth.n_nodes) if i not in observed]
        kinds = (("inverse-cdf", "bayes-quad") if model.encoders[0].kind == "cdf"
                 else ("bayes-median-step", "bayes-mean-step"))
        for kind in kinds:
            expected = {
                i: float(build_decoder(kind, model.encoders[i])
                         .decode(state.node_beliefs[i, 1]))
                for i in hidden
            }
            got = predict(model, state, kind, observed=observed)
            assert got == expected and list(got) == hidden
            assert model.decoder(kind) is model.decoder(kind)


def test_decimation_table_matches_node_by_node_decoders(
        monkeypatch, fitted_pair_of_models):
    truth, fitted = fitted_pair_of_models
    kwargs = dict(predictors=["inverse-cdf", "bayes-quad", "median-step",
                              "bayes-mean-step", "exact"],
                  replicates=10, seed=15)
    rows = decimate(truth, fitted, **kwargs).table()
    monkeypatch.setattr(LatentIsingModel, "decoder",
                        lambda self, kind: _NodeByNodeDecoder(kind, self.encoders))
    assert decimate(truth, fitted, **kwargs).table() == rows


@pytest.mark.parametrize("graph", ["tree", "loopy"])
def test_decimation_table_unchanged_after_queries(graph):
    # decimation runs on the engine and solver that the model's queries
    # built and used (graphs above the list traversal's size): its table
    # is the one of a copy of the model that answered none
    topo = regular_tree_topology(3, 40) if graph == "tree" else _grid_topology(5)
    truth = generate_copula(topo, seed=18)
    model, _ = fit_from_copula(truth, "cdf", n_train=801, seed=19)
    kwargs = dict(predictors=["inverse-cdf", "bayes-quad", "exact"],
                  replicates=6, seed=20)
    rows = decimate(truth, dataclasses.replace(model), **kwargs).table()
    x = sample(truth, 3, seed=21).values
    methods = set()
    for q, nodes in enumerate(((0, 4, 5), (2,), tuple(range(1, truth.n_nodes, 3)))):
        observed = {i: float(x[q, i]) for i in nodes}
        methods.add(mbp_run(model, impose_observations(model, observed))[1].method)
    assert methods == {"newton" if graph == "tree" else "sweep"}
    assert decimate(truth, model, **kwargs).table() == rows
    mbp_run(model, impose_observations(model, {3: float(x[0, 3])}))
    assert decimate(truth, model, **kwargs).table() == rows
