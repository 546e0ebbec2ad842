"""Tests of the benchmark itself: a tiny run of every workload, and one
test per correctness check that the check rejects a corrupted output.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import types

import pytest

import checks
import measure
import run
import workloads
from latent_ising import PairwiseMarginal, Schedule, alpha_calibration, mbp_run

TINY_REPS = {"calibrate": 1, "query": 1, "cli": 1, "decimate": 1}


def tiny(name):
    spec = workloads.SPECS[name]
    return dataclasses.replace(
        spec, n_train=1000, n_queries=6, replicates=min(spec.replicates, 200),
        ref_replicates=min(spec.ref_replicates, 400), reps=TINY_REPS,
        calibrate_batch=1,
    )


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    """One round of the tiny city workload."""
    work = workloads.Workload(tiny("city-stream"), 5, str(tmp_path_factory.mktemp("city")),
                              run.ROOT)
    work.round(measure.Sampler())
    return work


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_tiny_timed_run(name, tmp_path):
    args = types.SimpleNamespace(seed=3, seconds=0.0)
    result = run.timed_run(tiny(name), args, str(tmp_path), 0.0, measure, workloads)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {
        "setup_s", "fit_s", "calibrate_s", "query_s", "cli_predict_s", "decimate_s"}
    assert all(m["value"] > 0 and m["unit"] == "s" for m in result["metrics"].values())
    json.dumps(result)


def test_tiny_traced_run_counts_repeat(tmp_path):
    args = types.SimpleNamespace(seed=4, seconds=0.0)
    spec = tiny("tree-decimation")
    first = run.traced_run(spec, args, str(tmp_path), str(tmp_path), measure, workloads)
    second = run.traced_run(spec, args, str(tmp_path), str(tmp_path), measure, workloads)
    assert first["correct"] and first["failed"] == 0
    bench = json.load(open(f"{run.ROOT}/BENCHMARK.json"))
    assert set(first["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count":
            assert metric["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["propagation.slot_updates"]["value"] > 0


def test_exact_column_rejects_shift():
    truth = workloads.pair_truth()
    table = workloads.harness.decimate(
        truth, workloads.harness.fit_from_copula(truth, "cdf", 1000, seed=1)[0],
        ["inverse-cdf", "exact"], replicates=2000, seed=2).table()
    reference = checks.reference_exact_decimation(truth, 4000, seed=3)
    assert checks.check_exact_column(table, 2000, reference, 4000) == []
    shifted = [dict(r, mean_l1=r["mean_l1"] + 0.02) if r["predictor"] == "exact" else r
               for r in table]
    assert checks.check_exact_column(shifted, 2000, reference, 4000)


def test_local_consistency_rejects_three_sweep_beliefs(city):
    model = city.first["model"]
    imposed, state, _, _ = city.first["answers"][0]
    edges = model.topology.edges
    assert checks.check_local_consistency(state, edges, imposed) == []
    early, report = mbp_run(model, imposed, Schedule(max_sweeps=3))
    assert not report.converged
    assert checks.check_local_consistency(early, edges, imposed)


def test_calibration_rejects_alpha_one_step_high(city):
    config = alpha_calibration.AlphaSearchConfig()
    fitted = city.first["fitted"][0]

    def deviation_at(a):
        return alpha_calibration.deviation(fitted.with_alpha(a), config.schedule)

    alpha = city.first["alpha"]
    assert alpha < 1.0
    assert checks.check_calibration(alpha, deviation_at, config.tau, config.precision) == []
    assert checks.check_calibration(alpha + config.precision, deviation_at,
                                    config.tau, config.precision)


def test_frechet_rejects_p11_outside(city):
    marginals = list(city.first["fitted"][0].marginals)
    assert checks.check_frechet(marginals) == []
    m = marginals[0]
    marginals[0] = PairwiseMarginal(m.p_i1, m.p_j1, min(m.p_i1, m.p_j1) + 1e-6)
    assert checks.check_frechet(marginals)


def test_cli_output_rejects_one_changed_digit(city):
    _, state, report, preds = city.first["answers"][0]
    text = city.first["cli"]
    assert checks.check_cli_output(text, state, report, preds) == []
    header, first_row, rest = text.split("\n", 2)
    node, belief, prediction, tail = first_row.split(",", 3)
    digit = next(k for k, ch in enumerate(prediction) if ch.isdigit() and ch != "0")
    changed = prediction[:digit] + str((int(prediction[digit]) % 9) + 1) + prediction[digit + 1:]
    assert changed != prediction
    corrupted = "\n".join([header, ",".join([node, belief, changed, tail]), rest])
    assert checks.check_cli_output(corrupted, state, report, preds)


def test_l1_order_and_convergence_checks():
    assert checks.check_l1_order(0.1, 0.2, 0.3) == []
    assert checks.check_l1_order(0.2, 0.1, 0.3)
    table = [{"bin_low": 0.5, "predictor": "exact", "mean_l1": 0.2,
              "nonconverged_ratio": 0.0},
             {"bin_low": 0.5, "predictor": "inverse-cdf", "mean_l1": 0.19,
              "nonconverged_ratio": 0.5}]
    assert checks.check_exact_is_best(table)
    assert checks.check_all_converged(table)
