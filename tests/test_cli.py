import csv
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import latent_ising
from latent_ising.cli import main
from latent_ising.harness import DECIMATION_COLUMNS
from latent_ising.model_io import load_models, model_to_dict, save_models


def run(*args):
    assert main([str(a) for a in args]) == 0


def test_end_to_end_pair_workflow(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    data = tmp_path / "data.csv"
    fitted = tmp_path / "fitted.json"
    results = tmp_path / "results.csv"
    wide = tmp_path / "wide.csv"

    run("gen-model", "--topology", "pair", "--rho", "0.7", "--seed", "3",
        "--out", truth)
    run("sample", "--model", truth, "--n", "200", "--seed", "4", "--out", data)
    with open(data) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["0", "1"]
    assert len(rows) == 201

    run("fit-lab", "--truth", truth, "--encoder", "cdf", "--n-train", "1001",
        "--seed", "5", "--out", fitted, "--train-out", tmp_path / "train.csv")
    model = load_models(fitted)[0]
    assert model.encoders[0].kind == "cdf"

    run("calibrate-alpha", "--model", fitted)
    out = capsys.readouterr().out
    assert "alpha = " in out
    assert load_models(fitted)[0].alpha >= 0.99  # pair graph is a tree

    obs = tmp_path / "obs.csv"
    obs.write_text("node,value\n0,0.9\n")
    pred_out = tmp_path / "pred.csv"
    run("predict", "--model", fitted, "--obs", obs, "--decoder", "inverse-cdf",
        "--out", pred_out)
    with open(pred_out) as fh:
        pred_rows = list(csv.DictReader(fh))
    assert len(pred_rows) == 1
    assert pred_rows[0]["node"] == "1"
    assert pred_rows[0]["converged"] == "1"
    assert 0.5 < float(pred_rows[0]["prediction"]) <= 1.0  # high obs, rho>0

    run("decimate", "--truth", truth, "--fitted", fitted,
        "--predictors", "inverse-cdf,exact,median,knn",
        "--history", tmp_path / "train.csv",
        "--replicates", "50", "--seed", "6", "--out", results)
    with open(results) as fh:
        res_rows = list(csv.DictReader(fh))
    assert {r["predictor"] for r in res_rows} == {"inverse-cdf", "exact",
                                                  "median", "knn"}
    assert all(float(r["mean_l1"]) >= 0 for r in res_rows)

    run("plotdata", "--results", results, "--out", wide)
    with open(wide) as fh:
        wide_rows = list(csv.reader(fh))
    assert wide_rows[0][0] == "bin_low"
    assert set(wide_rows[0][1:]) == {"exact", "inverse-cdf", "knn", "median"}


def test_fit_from_pairs_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(size=600)
    y = np.clip(x + rng.normal(0, 0.2, size=600), 0, 1)
    pairs = tmp_path / "pairs.csv"
    with open(pairs, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge", "x_i", "x_j"])
        for a, b in zip(x, y):
            writer.writerow(["0-1", f"{a:.6f}", f"{b:.6f}"])
    out = tmp_path / "fitted.json"
    run("fit", "--pairs", pairs, "--encoder", "median-step", "--out", out)
    model = load_models(out)[0]
    assert model.topology.edges == ((0, 1),)
    lo, hi = model.marginals[0].domain()
    assert lo <= model.marginals[0].p_ij11 <= hi
    # positively dependent data pushes p11 above independence
    assert model.marginals[0].p_ij11 > model.node_p1[0] * model.node_p1[1]


def test_gen_model_grid_city(tmp_path):
    out = tmp_path / "city.json"
    run("gen-model", "--topology", "grid-city", "--seed", "1", "--out", out)
    payload = json.loads(out.read_text())
    assert payload["n_nodes"] == 92
    assert len(payload["always_observed"]) == 8
    # ring segments carry the skewed stand-in marginal, the rest the default
    ring = set(payload["always_observed"])
    for i, marg in enumerate(payload["marginals"]):
        if i in ring:
            assert (marg["a"], marg["b"]) == (2.0, 3.0)
        else:
            assert (marg["a"], marg["b"]) == (1.0, 1.0)


def test_unknown_topology_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen-model", "--topology", "ring", "--out", str(tmp_path / "x.json")])


def test_predict_rejects_node_id_out_of_range(tmp_path):
    truth = tmp_path / "truth.json"
    fitted = tmp_path / "fitted.json"
    run("gen-model", "--topology", "pair", "--rho", "0.7", "--seed", "3",
        "--out", truth)
    run("fit-lab", "--truth", truth, "--n-train", "501", "--seed", "5",
        "--out", fitted)
    obs = tmp_path / "obs.csv"
    for node in (-1, 2):
        obs.write_text(f"node,value\n{node},0.9\n")
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--model", str(fitted), "--obs", str(obs)])
        assert str(exc.value) == f"predict: node id {node} out of range 0..1"


def test_fit_rejects_malformed_pairs_csv(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("edge,x_i,x_j\n0-1,0.1,0.2\n0-1,0.3\n")
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--pairs", str(pairs), "--out", str(tmp_path / "fitted.json")])
    assert str(exc.value) == "fit: pair row 3: edge 0-1 needs two values"


def test_decimate_rejects_malformed_history(tmp_path):
    truth = tmp_path / "truth.json"
    fitted = tmp_path / "fitted.json"
    run("gen-model", "--topology", "pair", "--rho", "0.7", "--seed", "3",
        "--out", truth)
    run("fit-lab", "--truth", truth, "--n-train", "501", "--seed", "5",
        "--out", fitted)
    history = tmp_path / "history.csv"
    history.write_text("0,1\n0.1,0.2\n0.3,abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["decimate", "--truth", str(truth), "--fitted", str(fitted),
              "--predictors", "inverse-cdf,knn", "--replicates", "2",
              "--history", str(history), "--out", str(tmp_path / "dec.csv")])
    assert str(exc.value) == (
        "decimate: dataset row 3: malformed value in ['0.3', 'abc']"
    )


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    """A pair truth file, a model fitted to it and one observation file."""
    tmp = tmp_path_factory.mktemp("pair")
    truth, fitted, obs = tmp / "truth.json", tmp / "fitted.json", tmp / "obs.csv"
    run("gen-model", "--topology", "pair", "--rho", "0.7", "--seed", "3",
        "--out", truth)
    run("fit-lab", "--truth", truth, "--n-train", "501", "--seed", "5",
        "--out", fitted)
    obs.write_text("node,value\n0,0.9\n")
    return truth, fitted, obs


def _drop_alpha(model):
    del model["alpha"]


def _edge_out_of_range(model):
    model["edges"][0]["j"] = 5


def _unknown_encoder(model):
    model["nodes"][1]["encoder"] = "rank"


def _p11_outside_frechet(model):
    model["edges"][0]["p11"] = 2.0


def _empty_cdf_samples(model):
    model["nodes"][0]["cdf_samples"] = []


@pytest.mark.parametrize("corrupt, message", [
    (_edge_out_of_range, "edge 0: (0,5) has an endpoint outside 0..1"),
    (_drop_alpha, "missing field 'alpha'"),
    (_unknown_encoder, "node 1: unknown encoder kind 'rank'"),
    (_p11_outside_frechet, "edge 0: p_ij11 outside the Frechet interval"),
    (_empty_cdf_samples, "node 0: no samples"),
])
def test_malformed_model_file_is_one_line_error(pair_files, tmp_path, corrupt,
                                                message):
    _, fitted, obs = pair_files
    payload = model_to_dict(load_models(fitted)[0])  # a legacy JSON model file
    corrupt(payload)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--model", str(broken), "--obs", str(obs)])
    assert str(exc.value) == f"predict: {message}"


def _drop_precision(truth):
    del truth["precision"]


def _drop_marginal(truth):
    truth["marginals"].pop()


def _grow_precision(truth):
    truth["precision"] = np.eye(3).tolist()


@pytest.mark.parametrize("corrupt, message", [
    (_drop_precision, "missing field 'precision'"),
    (_drop_marginal, "one marginal required per node"),
    (_grow_precision, "precision matrix must be 2x2"),
])
def test_malformed_truth_file_is_one_line_error(pair_files, tmp_path, corrupt,
                                                message):
    truth, fitted, _ = pair_files
    payload = json.loads(truth.read_text())
    corrupt(payload)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["decimate", "--truth", str(broken), "--fitted", str(fitted),
              "--predictors", "exact", "--out", str(tmp_path / "dec.csv")])
    assert str(exc.value) == f"decimate: {message}"


@pytest.fixture(scope="module")
def bad_inputs(pair_files, tmp_path_factory):
    """Paths of the inputs the error-boundary cases run on: the pair
    files, a second cdf model, history files, pair files that make no
    graph, and model and truth files with wrongly typed fields."""
    tmp = tmp_path_factory.mktemp("bad")
    truth, fitted, obs = pair_files
    run("fit-lab", "--truth", truth, "--n-train", "501", "--seed", "6",
        "--out", tmp / "fitted2.npz", "--train-out", tmp / "history.csv")
    model = model_to_dict(load_models(fitted)[0])
    save_models([load_models(fitted)[0]] * 2, tmp / "two.npz")
    (tmp / "nan_history.csv").write_text("0,1\n0.1,0.2\nnan,0.3\n")
    (tmp / "narrow_history.csv").write_text("0\n0.1\n0.3\n")
    (tmp / "wide_history.csv").write_text("0,1,2\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
    (tmp / "swapped_history.csv").write_text("1,0\n0.1,0.2\n0.4,0.5\n")
    (tmp / "both_ways.csv").write_text("edge,x_i,x_j\n0-1,0.1,0.2\n1-0,0.3,0.4\n")
    (tmp / "self_loop.csv").write_text("edge,x_i,x_j\n1-1,0.1,0.2\n")
    (tmp / "gap.csv").write_text(
        "edge,x_i,x_j\n0-2,0.1,0.2\n0-2,0.7,0.6\n0-2,0.4,0.9\n")
    truth_payload = json.loads(truth.read_text())
    payloads = {
        "nodes_int.json": {**model, "nodes": 5},
        "edges_int.json": {**model, "edges": 3},
        "p1_null.json": {**model, "nodes": [{**model["nodes"][0], "p1": None},
                                            model["nodes"][1]]},
        "j_list.json": {**model, "edges": [{**model["edges"][0], "j": [1]}]},
        "list_model.json": [1, 2],
        "models_int.json": {"models": 5},
        "t_edges_int.json": {**truth_payload, "edges": 5},
        "t_marginal_int.json": {**truth_payload,
                                "marginals": [7, truth_payload["marginals"][1]]},
        "t_empty_list.json": [],
        "mixed.json": {**model, "nodes": [model["nodes"][0],
                                          {**model["nodes"][1], "encoder": "median-step"}]},
        "t_negative_beta.json": {**truth_payload,
                                 "marginals": [{"kind": "beta", "a": -1, "b": 2}] * 2},
        "t_nan_precision.json": {**truth_payload, "precision": [[1.0, float("nan")],
                                                                [float("nan"), 1.0]]},
        "t_asymmetric.json": {**truth_payload, "precision": [[1.0, -0.5], [-0.4, 1.0]]},
        "t_off_graph.json": {**truth_payload, "edges": []},
        "t_always_negative.json": {**truth_payload, "always_observed": [-1]},
        "t_always_repeated.json": {**truth_payload, "always_observed": [1, 1]},
        "t_always_float.json": {**truth_payload, "always_observed": [0.5]},
    }
    for name, payload in payloads.items():
        (tmp / name).write_text(json.dumps(payload))
    paths = {path.name: path for path in tmp.iterdir()}
    return {**paths, "truth": truth, "fitted": fitted, "obs": obs, "tmp": tmp}


def _decimate(*extra, truth="truth", fitted=("fitted",), replicates="2"):
    return lambda p: [
        "decimate", "--truth", p[truth], "--fitted", ",".join(str(p[f]) for f in fitted),
        "--replicates", replicates, "--out", p["tmp"] / "dec.csv",
        *(p.get(a, a) for a in extra),
    ]


def _predict(model):
    return lambda p: ["predict", "--model", p[model], "--obs", p["obs"]]


def _fit(pairs):
    return lambda p: ["fit", "--pairs", p[pairs], "--out", p["tmp"] / "fit.npz"]


def _sample(truth):
    return lambda p: ["sample", "--model", p[truth], "--n", "5",
                      "--out", p["tmp"] / "s.csv"]


def _gen_model(*args):
    return lambda p: ["gen-model", *args, "--out", p["tmp"] / "gen.json"]


# every path to a one-line error, and the start of its line
ERROR_BOUNDARY = [
    (_decimate("--predictors", "foo"), "decimate: unknown predictor: 'foo'"),
    (_decimate("--predictors", "exact,exact"), "decimate: duplicate predictor"),
    (_decimate("--predictors", "exact", replicates="0"),
     "decimate: --replicates must be at least 1, got 0"),
    (_decimate("--predictors", "knn", "--history", "history.csv", "--knn-k", "100000"),
     "decimate: k exceeds history size"),
    (_decimate("--predictors", "knn", "--history", "history.csv", "--knn-k", "0"),
     "decimate: k must be at least 1"),
    (_decimate("--predictors", "exact", fitted=("fitted", "fitted2.npz")),
     "decimate: two fitted models with 'cdf' encoders"),
    (_decimate("--predictors", "exact", fitted=("mixed.json",)),
     "decimate: fitted model mixes encoder kinds: node 1 has 'median-step', node 0 "
     "has 'cdf'"),
    (_decimate("--predictors", "knn", "--history", "nan_history.csv"),
     "decimate: dataset row 3: non-finite value in ['nan', '0.3']"),
    (_decimate("--predictors", "inverse-cdf,knn", "--history", "narrow_history.csv"),
     "decimate: knn history width 1 differs from the truth model's 2 nodes"),
    (_decimate("--predictors", "inverse-cdf,knn", "--history", "wide_history.csv"),
     "decimate: knn history width 3 differs from the truth model's 2 nodes"),
    (_decimate("--predictors", "knn", "--history", "swapped_history.csv"),
     "decimate: dataset header '1,0' is not the node ids 0..1 in order"),
    (_decimate("--predictors", "exact", truth="t_edges_int.json"),
     "decimate: wrongly typed field ("),
    (_decimate("--predictors", "exact", truth="t_marginal_int.json"),
     "decimate: wrongly typed field ("),
    (_decimate("--predictors", "exact", truth="t_empty_list.json"),
     "decimate: wrongly typed field ("),
    (_decimate("--predictors", "exact", truth="t_negative_beta.json"),
     "decimate: beta marginal needs finite a, b > 0, got a=-1.0, b=2.0"),
    (_sample("t_nan_precision.json"),
     "sample: precision matrix entry (0, 1) is not finite"),
    (_sample("t_asymmetric.json"),
     "sample: precision matrix entry (0, 1) differs from its transpose"),
    (_decimate("--predictors", "exact", truth="t_off_graph.json"),
     "decimate: precision matrix entry (0, 1) is nonzero off the graph's edges"),
    (_decimate("--predictors", "exact", truth="t_always_negative.json"),
     "decimate: always_observed id -1 outside 0..1"),
    (_decimate("--predictors", "exact", truth="t_always_repeated.json"),
     "decimate: always_observed id 1 is repeated"),
    (_decimate("--predictors", "exact", truth="t_always_float.json"),
     "decimate: always_observed id 0.5 is not an integer"),
    (_gen_model("--topology", "tree:x"),
     "gen-model: --topology 'tree:x': expected tree:<connectivity>, an integer"),
    (_gen_model("--topology", "pair", "--rho", "2"),
     "gen-model: --rho must lie in the open interval (-1, 1), got 2.0"),
    (_gen_model("--topology", "pair", "--rho", "-1"),
     "gen-model: --rho must lie in the open interval (-1, 1), got -1.0"),
    (_gen_model("--topology", "tree:1"),
     "gen-model: interior connectivity must be at least 2"),
    (_gen_model("--topology", "tree:3", "--nodes", "1"),
     "gen-model: tree needs at least two nodes"),
    (_gen_model("--topology", "pair", "--marginal", "beta:-1,2"),
     "gen-model: beta marginal needs finite a, b > 0, got a=-1.0, b=2.0"),
    (_gen_model("--topology", "pair", "--marginal", "beta:0,0"),
     "gen-model: beta marginal needs finite a, b > 0, got a=0.0, b=0.0"),
    (_gen_model("--topology", "pair", "--marginal", "gamma:1,2"),
     "gen-model: unsupported marginal: 'gamma:1,2' (expected beta:a,b)"),
    (_gen_model("--topology", "pair", "--marginal", "beta:1"),
     "gen-model: malformed marginal: 'beta:1' (expected beta:a,b)"),
    (lambda p: ["sample", "--model", p["truth"], "--n", "0",
                "--out", p["tmp"] / "s.csv"], "sample: sample size must be positive"),
    (lambda p: ["fit-lab", "--truth", p["truth"], "--n-train", "101", "--alpha", "2",
                "--out", p["tmp"] / "f.npz"], "fit-lab: alpha must lie in [0, 1]"),
    (lambda p: ["calibrate-alpha", "--model", p["fitted"], "--tau", "2"],
     "calibrate-alpha: tau must lie in (0, 1)"),
    (lambda p: ["calibrate-alpha", "--model", p["fitted"], "--precision", "0"],
     "calibrate-alpha: precision must be positive"),
    (lambda p: ["calibrate-alpha", "--model", p["fitted"], "--precision", "nan"],
     "calibrate-alpha: precision must be positive and finite, got nan"),
    (lambda p: ["calibrate-alpha", "--model", p["fitted"], "--precision", "inf"],
     "calibrate-alpha: precision must be positive and finite, got inf"),
    (lambda p: ["calibrate-alpha", "--model", p["two.npz"]],
     "calibrate-alpha: expects a single-model file"),
    (_fit("both_ways.csv"), "fit: duplicate edge (1,0)"),
    (_fit("self_loop.csv"), "fit: self-loop at node 1"),
    (_fit("gap.csv"), "fit: node 1 has no observations"),
    (_predict("two.npz"), "predict: expects a single-model file"),
    (_predict("nodes_int.json"), "predict: wrongly typed field ("),
    (_predict("edges_int.json"), "predict: wrongly typed field ("),
    (_predict("list_model.json"), "predict: model file holds no JSON object"),
    (_predict("models_int.json"), "predict: wrongly typed field 'models'"),
    (_predict("p1_null.json"), "predict: node 0: wrongly typed field ("),
    (_predict("j_list.json"), "predict: edge 0: wrongly typed field ("),
    (lambda p: ["predict", "--model", p["fitted"], "--obs", p["obs"],
                "--decoder", "bayes-median-step"],
     "predict: decoder 'bayes-median-step' needs 'median-step' encoders: node 0 "
     "has 'cdf'"),
    (_predict("mixed.json"),
     "predict: decoder 'inverse-cdf' needs 'cdf' encoders: node 1 has 'median-step'"),
    (lambda p: ["predict", "--model", p["fitted"], "--obs", p["tmp"] / "none.csv"],
     "predict: [Errno 2] No such file or directory"),
]


@pytest.mark.parametrize("argv, start", ERROR_BOUNDARY)
def test_bad_input_is_a_one_line_error(bad_inputs, capsys, argv, start):
    """``main`` turns every ``ValueError`` or ``OSError`` of a command into
    ``SystemExit`` with a one-line message, which the interpreter prints to
    stderr with exit status 1 (checked in a process below)."""
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv(bad_inputs)])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(start)
    assert "Traceback" not in capsys.readouterr().err


def test_bad_input_exits_with_status_one_and_no_traceback():
    src = os.path.dirname(os.path.dirname(latent_ising.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "latent_ising.cli", "gen-model", "--topology",
         "tree:1", "--out", os.devnull],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == "gen-model: interior connectivity must be at least 2\n"


def test_decimate_csv_has_the_table_columns_in_order(pair_files, tmp_path):
    truth, fitted, _ = pair_files
    out = tmp_path / "dec.csv"
    run("decimate", "--truth", truth, "--fitted", fitted,
        "--predictors", "inverse-cdf,exact", "--replicates", "3", "--out", out)
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert tuple(reader.fieldnames) == DECIMATION_COLUMNS
    assert rows and all(tuple(row) == DECIMATION_COLUMNS for row in rows)


def test_plotdata_names_missing_columns(tmp_path):
    results = tmp_path / "results.csv"
    results.write_text("a,b\n1,2\n")
    with pytest.raises(SystemExit) as exc:
        main(["plotdata", "--results", str(results)])
    assert str(exc.value) == (
        "plotdata: results file has no column bin_low, predictor, mean_l1"
    )


# the package's public names and the module each one comes from
PUBLIC_NAMES = {
    "alpha_calibration": ["AlphaSearchConfig", "calibrate", "deviation"],
    "coding": ["BayesMeanStep", "BayesMedianStep", "BayesQuadCdf", "CdfEncoder",
               "InverseCdf", "MedianStepEncoder", "build_encoder", "conditional_cdfs"],
    "copula_lab": ["BetaMarginal", "CopulaModel", "Dataset", "EmpiricalMarginal",
                   "generate_copula", "grid_city", "knn_predictor",
                   "median_predictor", "pair_topology", "regular_tree_topology",
                   "sample"],
    "ecdf": ["EmpiricalCdf"],
    "harness": ["DecimationResult", "decimate", "fit_from_copula"],
    "ising": ["GraphTopology", "LatentIsingModel", "PairwiseMarginal", "assemble",
              "exact_joint"],
    "pairwise_em": ["PairSamples", "PairwiseMarginal", "em_fit", "log_likelihood"],
    "propagation": ["BeliefState", "ConvergenceReport", "Engine", "ForestSolver",
                    "Schedule", "bp_run", "graph_cut_check", "impose_observations",
                    "mbp_run", "predict"],
}


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(latent_ising.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, latent_ising.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True, timeout=60).stdout.split()
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    lazy = {f"latent_ising.{m}"
            for m in ("harness", "copula_lab", "pairwise_em", "alpha_calibration")}
    assert lazy.isdisjoint(loaded)


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_package_names_resolve_lazily(module):
    home = importlib.import_module(f"latent_ising.{module}")
    for name in PUBLIC_NAMES[module]:
        namespace = {}
        exec(f"from latent_ising import {name}", namespace)
        assert namespace[name] is getattr(home, name)
        assert name in dir(latent_ising)
    exec(f"from latent_ising import {module}", namespace)
    assert namespace[module] is home
    assert module in dir(latent_ising)


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        latent_ising.no_such_name
    with pytest.raises(ImportError):
        from latent_ising import no_such_name  # noqa: F401
