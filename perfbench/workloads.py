"""The benchmark's workloads: their inputs, one round of timed
operations, and the checks on their outputs.

Every workload runs the same pipeline on its own truth model: fit the
latent model from 10^4 training outcomes, calibrate alpha, save and load
the model file, answer a query set in-process, answer one query through
the ``latent-ising predict`` command, and run a decimation experiment.
Repetitions within a run repeat identical work on identical inputs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from latent_ising import (
    alpha_calibration,
    copula_lab,
    harness,
    model_io,
    propagation,
)

RING_PARTIAL = -0.3  # criterion 10's coupling of ring segments


def derive_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(salt,)).generate_state(1)[0])


# --- truth models --------------------------------------------------------

def pair_truth():
    """Criteria 2-3: a 2-node Gaussian copula with rho = 0.5."""
    return copula_lab.generate_copula(
        copula_lab.pair_topology(), seed=1, overrides={(0, 1): -0.5}
    )


def tree_truth():
    """Criterion 9: 100-node regular tree of connectivity 3, beta(0.7, 0.3)."""
    topo = copula_lab.regular_tree_topology(3, 100)
    return copula_lab.generate_copula(
        topo, seed=21, marginals=[copula_lab.BetaMarginal(0.7, 0.3)] * 100
    )


def city_truth():
    """Criterion 10: the grid city, ring segments always observed."""
    topo, ring = copula_lab.grid_city()
    ring_set = set(ring)
    marginals = [
        copula_lab.BetaMarginal(2.0, 3.0) if i in ring_set
        else copula_lab.BetaMarginal(1.0, 1.0)
        for i in range(topo.n_nodes)
    ]
    overrides = {(i, j): RING_PARTIAL for (i, j) in topo.edges
                 if i in ring_set or j in ring_set}
    return copula_lab.generate_copula(
        topo, seed=31, corr_range=((-1.0, -0.5), (0.5, 1.0)),
        overrides=overrides, marginals=marginals, always_observed=ring,
    )


# --- query sets ------------------------------------------------------------

def pair_queries(truth, rng, count):
    """Observe one node of the pair, alternating which."""
    x = copula_lab.sample(truth, count, seed=int(rng.integers(2**31))).values
    return x, [[q % 2] for q in range(count)]


def region_queries(truth, rng, count):
    """Observe a connected region grown from a random node, 10-60 % of the
    tree (a connected observed set is guaranteed to converge: every part
    of the cut graph touches one observed node)."""
    n = truth.n_nodes
    adj = [[] for _ in range(n)]
    for i, j in truth.topology.edges:
        adj[i].append(j)
        adj[j].append(i)
    x = copula_lab.sample(truth, count, seed=int(rng.integers(2**31))).values
    sets = []
    for q in range(count):
        size = int(round((0.1 + 0.1 * (q % 6)) * n))
        region = [int(rng.integers(n))]
        seen = set(region)
        while len(region) < size:
            frontier = sorted({v for u in region for v in adj[u]} - seen)
            v = frontier[int(rng.integers(len(frontier)))]
            seen.add(v)
            region.append(v)
        sets.append(sorted(region))
    return x, sets


def ring_queries(truth, rng, count):
    """Observe the ring plus 10-60 % of the other segments."""
    ring = list(truth.always_observed)
    rest = np.setdiff1d(np.arange(truth.n_nodes), ring)
    x = copula_lab.sample(truth, count, seed=int(rng.integers(2**31))).values
    sets = []
    for q in range(count):
        k = int(round((0.1 + 0.1 * (q % 6)) * rest.size))
        sets.append(sorted(ring + rng.choice(rest, k, replace=False).tolist()))
    return x, sets


@dataclass(frozen=True)
class Spec:
    name: str
    truth: object            # () -> CopulaModel
    encoders: tuple          # encoder kinds fitted
    train_seed: int          # seed of the training outcomes
    queries: object          # (truth, rng, count) -> (outcomes, observed sets)
    n_queries: int
    predictors: tuple        # decimation predictors
    replicates: int          # decimation replicates
    ref_replicates: int      # replicates of the reference exact decimation
    reps: dict               # timed repetitions per round of each operation
    n_train: int = 10_000    # training outcomes per fit
    calibrate_batch: int = 1  # calibrate calls per timed repetition
    order_check: bool = False        # exact <= latent <= median over queries
    pair_checks: bool = False        # exact is best in bin 0.5, all runs converge
    beats_median_bins: tuple = ()    # bins where inverse-cdf <= median


SPECS = {
    "pair-batch": Spec(
        "pair-batch", pair_truth, ("cdf", "median-step"), 7, pair_queries, 256,
        ("inverse-cdf", "bayes-quad", "median-step", "exact", "median"),
        replicates=20_000, ref_replicates=40_000,
        reps={"calibrate": 5, "query": 5, "cli": 2, "decimate": 5},
        calibrate_batch=50, pair_checks=True,
    ),
    "tree-decimation": Spec(
        "tree-decimation", tree_truth, ("cdf",), 22, region_queries, 12,
        ("inverse-cdf", "median", "exact"),
        replicates=16, ref_replicates=48,
        reps={"calibrate": 6, "query": 8, "cli": 4, "decimate": 3},
        calibrate_batch=10,
        beats_median_bins=tuple(round(0.05 * b, 10) for b in range(2, 20)),
    ),
    "city-stream": Spec(
        "city-stream", city_truth, ("cdf",), 131, ring_queries, 12,
        ("inverse-cdf", "median", "exact"),
        replicates=4, ref_replicates=48,
        reps={"calibrate": 5, "query": 8, "cli": 4, "decimate": 4},
        order_check=True,
    ),
}


def query(model, observed: dict):
    """The computation of ``latent-ising predict``."""
    imposed = propagation.impose_observations(model, observed)
    state, report = propagation.mbp_run(model, imposed)
    preds = propagation.predict(model, state, "inverse-cdf", observed=observed)
    return imposed, state, report, preds


class Workload:
    """One workload's inputs and outputs within one run."""

    def __init__(self, spec: Spec, seed: int, workdir: str, root: str):
        self.spec = spec
        self.workdir = workdir
        self.root = root
        self.truth = spec.truth()
        self.decimate_seed = derive_seed(seed, 2)
        self.reference_seed = derive_seed(seed, 3)
        # a fixed query set, the same in every run
        rng = np.random.default_rng(spec.train_seed + 1)
        self.query_x, self.query_sets = spec.queries(self.truth, rng, spec.n_queries)
        self.observations = [
            {i: float(self.query_x[q, i]) for i in obs}
            for q, obs in enumerate(self.query_sets)
        ]
        self.model_path = os.path.join(workdir, f"{spec.name}-model.json")
        self.obs_path = os.path.join(workdir, f"{spec.name}-obs.csv")
        with open(self.obs_path, "w") as fh:
            fh.write("node,value\n")
            for i, v in sorted(self.observations[0].items()):
                fh.write(f"{i},{v!r}\n")
        self.query_times: list[float] = []
        self.first = None      # outputs of the first round
        self.mismatches = 0    # later rounds whose outputs differ

    # --- operations ------------------------------------------------------
    def fit(self):
        return [
            harness.fit_from_copula(self.truth, kind, n_train=self.spec.n_train,
                                    seed=self.spec.train_seed)[0]
            for kind in self.spec.encoders
        ]

    def calibrate(self, model):
        for _ in range(self.spec.calibrate_batch):
            alpha = alpha_calibration.calibrate(model)
        return alpha

    def run_queries(self, model):
        out = []
        for obs in self.observations:
            t0 = time.perf_counter()
            out.append(query(model, obs))
            self.query_times.append(time.perf_counter() - t0)
        return out

    def run_cli(self):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "latent_ising.cli", "predict",
             "--model", self.model_path, "--obs", self.obs_path],
            cwd=self.root, env=env, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"latent-ising predict failed:\n{proc.stderr}")
        return proc.stdout

    def decimate(self, models):
        return harness.decimate(
            self.truth, models, self.spec.predictors,
            replicates=self.spec.replicates, seed=self.decimate_seed,
        ).table()

    def round(self, sampler, reps=None):
        """One round of timed operations; returns its outputs."""
        reps = reps or self.spec.reps
        fitted = sampler.repeat("fit", 1, self.fit)
        alpha = sampler.repeat("calibrate", reps["calibrate"], self.calibrate, fitted[0])
        model = fitted[0].with_alpha(alpha)
        model_io.save_models(model, self.model_path)
        loaded = model_io.load_models(self.model_path)[0]
        answers = sampler.repeat("query", reps["query"], self.run_queries, loaded)
        cli_text = sampler.repeat("cli", reps["cli"], self.run_cli, process=True)
        dec_models = [model] + fitted[1:]
        table = sampler.repeat("decimate", reps["decimate"], self.decimate, dec_models)
        outputs = {
            "fitted": fitted, "alpha": alpha, "model": model, "answers": answers,
            "cli": cli_text, "table": table, "dec_models": dec_models,
        }
        self._keep(outputs)
        return outputs

    def _keep(self, outputs):
        if self.first is None:
            self.first = outputs
            return
        first = self.first
        same = (
            outputs["alpha"] == first["alpha"]
            and outputs["cli"] == first["cli"]
            and outputs["table"] == first["table"]
            and all(
                [m.p_ij11 for m in a.marginals] == [m.p_ij11 for m in b.marginals]
                for a, b in zip(outputs["fitted"], first["fitted"])
            )
            and all(
                p[3] == q[3] for p, q in zip(outputs["answers"], first["answers"])
            )
        )
        if not same:
            self.mismatches += 1

    # --- checks ----------------------------------------------------------
    def check(self) -> dict:
        """Failures of the first round's outputs, per operation kind."""
        import checks  # scipy.stats: imported after the timed repetitions
        out = self.first
        spec = self.spec
        failures = {}
        failures["fit"] = [
            msg for m in out["fitted"] for msg in checks.check_frechet(m.marginals)
        ]
        config = alpha_calibration.AlphaSearchConfig()
        fitted = out["fitted"][0]
        failures["calibrate"] = checks.check_calibration(
            out["alpha"],
            lambda a: alpha_calibration.deviation(fitted.with_alpha(a), config.schedule),
            config.tau, config.precision,
        )
        model = out["model"]
        edges = model.topology.edges
        per_query = []
        for imposed, state, report, _ in out["answers"]:
            msgs = [] if report.converged else ["message passing did not converge"]
            msgs += checks.check_local_consistency(state, edges, imposed)
            per_query.append(msgs)
        if spec.order_check:
            order = checks.check_l1_order(*self.query_l1(out["answers"]))
            per_query = [msgs + order for msgs in per_query]
        failures["query"] = per_query
        _, state, report, preds = out["answers"][0]
        failures["cli"] = checks.check_cli_output(out["cli"], state, report, preds)
        failures["decimate"] = self.check_table(out["table"])
        return failures

    def reference(self):
        import checks
        return checks.reference_exact_decimation(
            self.truth, self.spec.ref_replicates, self.reference_seed
        )

    def check_table(self, table):
        import checks
        spec = self.spec
        msgs = checks.check_exact_column(
            table, spec.replicates, self.reference(), spec.ref_replicates
        )
        if spec.pair_checks:
            msgs += checks.check_exact_is_best(table)
            msgs += checks.check_all_converged(table)
        msgs += checks.check_beats_median(table, spec.beats_median_bins)
        return msgs

    def query_l1(self, answers):
        """Mean L1 over the query set of the exact conditional median, the
        latent prediction and the marginal median."""
        import checks
        z = checks.latent_of(self.truth, self.query_x)
        n = self.truth.n_nodes
        exact, latent, median = [], [], []
        medians = np.array([checks._marginal(m).median() for m in self.truth.marginals])
        for q, obs in enumerate(self.query_sets):
            hid = np.setdiff1d(np.arange(n), obs)
            obs_idx = np.asarray(obs)[None]
            pred = checks.exact_median(self.truth, z[q, obs_idx], obs_idx, hid[None])[0]
            x = self.query_x[q, hid]
            exact.append(np.abs(pred - x))
            latent.append(np.abs(np.array([answers[q][3][i] for i in hid]) - x))
            median.append(np.abs(medians[hid] - x))
        return tuple(float(np.mean(np.concatenate(v))) for v in (exact, latent, median))
