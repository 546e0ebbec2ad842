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
from latent_ising.model_io import load_models, model_to_dict


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
               "InverseCdf", "MedianStepEncoder", "build_decoder", "build_encoder",
               "conditional_cdfs", "jeffrey_update", "marginal_p1"],
    "copula_lab": ["BetaMarginal", "CopulaModel", "Dataset", "EmpiricalMarginal",
                   "exact_predictor", "generate_copula", "grid_city",
                   "knn_predictor", "median_predictor", "pair_topology",
                   "regular_tree_topology", "sample"],
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
