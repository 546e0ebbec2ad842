"""Per-layer spans and counts, recorded by wrapping the package's public
functions where they are looked up.

Spans are kept in memory as (name, start, end, parent) and written out
when the run ends.  A layer's self time is its spans' duration minus the
time covered by their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

from latent_ising import (
    alpha_calibration,
    coding,
    copula_lab,
    ecdf,
    harness,
    ising,
    model_io,
    pairwise_em,
    propagation,
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, child time]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        # unconverged runs counted around the sweep kernels, per model id
        self.unconverged_by_model: Counter = Counter()
        self._restore: list = []

    # --- spans ---------------------------------------------------------
    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self.stack.append(idx)
        return idx

    def exit(self, idx: int):
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        self.stack.pop()
        if rec[3] >= 0:
            self.spans[rec[3]][4] += rec[2] - rec[1]

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_total(self, name: str) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0] == name)

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p}
                for n, a, b, p, _ in self.spans
            ],
            "counts": dict(self.counts),
        }

    # --- wrapping ------------------------------------------------------
    def _patch(self, owner, attr, wrapper_factory):
        original = owner.__dict__[attr]
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))
        self._restore.append((owner, attr, original))

    def _timed(self, name, on_call=None, on_result=None):
        def factory(fn):
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(args, kwargs)
                idx = self.enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.exit(idx)
                if on_result is not None:
                    on_result(args, out)
                return out
            return wrapper
        return factory

    def _em_iterates(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["pairwise_em.edges"] += 1
            gen = fn(*args, **kwargs)
            first = True
            while True:
                idx = self.enter("pairwise_em.em")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(idx)
                if not first:
                    self.counts["pairwise_em.iterations"] += 1
                first = False
                yield item
        return wrapper

    def install(self):
        c = self.counts

        def elems(key):
            def on_call(args, kwargs):
                c[key] += int(np.size(args[1]))
            return on_call

        def count(key):
            def on_call(args, kwargs):
                c[key] += 1
            return on_call

        def on_sweep(args, out):
            engine, converged, sweeps = args[0], out[1], np.atleast_1d(out[2])
            c["propagation.sweep_calls"] += 1
            c["propagation.runs"] += int(sweeps.size)
            c["propagation.sweeps"] += int(sweeps.sum())
            c["propagation.slot_updates"] += int(sweeps.sum()) * engine.n_slots
            unconverged = int(np.size(converged) - np.count_nonzero(converged))
            c["propagation.nonconverged_runs"] += unconverged
            self.unconverged_by_model[id(engine.model)] += unconverged

        def on_decimate(args, kwargs):
            truth = args[0]
            replicates = kwargs["replicates"] if "replicates" in kwargs else args[3]
            steps = truth.n_nodes - len(truth.always_observed)
            c["harness.replicate_steps"] += int(replicates) * steps

        def on_exact(args, kwargs):
            c["copula_lab.exact_rows"] += int(np.shape(args[1])[0])

        Engine = propagation.Engine
        Cdf = ecdf.EmpiricalCdf
        self._patch(Cdf, "quantile", self._timed("ecdf.quantile", elems("ecdf.quantile_elems")))
        self._patch(Cdf, "evaluate", self._timed("ecdf.evaluate", elems("ecdf.evaluate_elems")))
        for cls in (coding.InverseCdf, coding.BayesQuadCdf, coding.BayesMedianStep,
                    coding.BayesMeanStep):
            self._patch(cls, "decode", self._timed("coding.decode", elems("coding.decode_elems")))
        for cls in (coding.CdfEncoder, coding.MedianStepEncoder):
            self._patch(cls, "encode", self._timed("coding.encode"))
        for mod in (pairwise_em, harness):
            self._patch(mod, "em_iterates", self._em_iterates)
        self._patch(harness, "fit_from_copula", self._timed("harness.fit"))
        self._patch(harness, "decimate", self._timed("harness.decimate", on_decimate))
        for mod in (ising, harness, model_io):
            self._patch(mod, "assemble", self._timed("ising.assemble", count("ising.assemble_calls")))
        self._patch(Engine, "sweep", self._timed("propagation.sweep", None, on_sweep))
        self._patch(Engine, "_sweep_sequential",
                    self._timed("propagation.sweep", None, on_sweep))
        self._patch(Engine, "run", self._timed("propagation.run", count("propagation.run_calls")))
        self._patch(Engine, "__init__", self._timed("propagation.engine_build",
                                                     count("propagation.engine_builds")))
        self._patch(Engine, "node_beliefs", self._timed("propagation.beliefs"))
        for mod in (propagation, harness):
            self._patch(mod, "impose_observations", self._timed("propagation.impose"))
        self._patch(propagation, "predict", self._timed("propagation.predict"))
        self._patch(alpha_calibration, "deviation",
                    self._timed("alpha_calibration.probe", count("alpha_calibration.probes")))
        for mod in (copula_lab, harness):
            self._patch(mod, "exact_predictor_batch",
                        self._timed("copula_lab.exact", on_exact))
            self._patch(mod, "sample", self._timed("copula_lab.sample"))
        self._patch(model_io, "save_models", self._timed("model_io.save"))
        self._patch(model_io, "load_models", self._timed("model_io.load"))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- metrics ---------------------------------------------------------
    def metrics(self, file_bytes: int, import_s: float) -> dict:
        c = self.counts
        t, st = self.total, self.self_total

        def ratio(num, den, scale):
            return num / den * scale if den else 0.0

        sweep_s = t("propagation.sweep")
        em_s = t("pairwise_em.em")
        exact_s = t("copula_lab.exact")
        quantile_s = t("ecdf.quantile")
        values = {
            "ecdf.quantile_elems": (c["ecdf.quantile_elems"], "count"),
            "ecdf.quantile_s": (quantile_s, "s"),
            "ecdf.quantile_ns_per_elem": (ratio(quantile_s, c["ecdf.quantile_elems"], 1e9), "ns"),
            "ecdf.evaluate_elems": (c["ecdf.evaluate_elems"], "count"),
            "ecdf.evaluate_s": (t("ecdf.evaluate"), "s"),
            "coding.decode_elems": (c["coding.decode_elems"], "count"),
            "coding.decode_s": (t("coding.decode"), "s"),
            "coding.encode_s": (t("coding.encode"), "s"),
            "pairwise_em.edges": (c["pairwise_em.edges"], "count"),
            "pairwise_em.iterations": (c["pairwise_em.iterations"], "count"),
            "pairwise_em.em_s": (em_s, "s"),
            "pairwise_em.us_per_iteration": (ratio(em_s, c["pairwise_em.iterations"], 1e6), "us"),
            "harness.fit_self_s": (st("harness.fit"), "s"),
            "harness.decimate_self_s": (st("harness.decimate"), "s"),
            "harness.replicate_steps": (c["harness.replicate_steps"], "count"),
            "ising.assemble_calls": (c["ising.assemble_calls"], "count"),
            "ising.assemble_s": (t("ising.assemble"), "s"),
            "propagation.sweep_calls": (c["propagation.sweep_calls"], "count"),
            "propagation.runs": (c["propagation.runs"], "count"),
            "propagation.sweeps": (c["propagation.sweeps"], "count"),
            "propagation.slot_updates": (c["propagation.slot_updates"], "count"),
            "propagation.sweep_s": (sweep_s, "s"),
            "propagation.ns_per_slot_update": (
                ratio(sweep_s, c["propagation.slot_updates"], 1e9), "ns"),
            "propagation.mean_sweeps": (
                ratio(c["propagation.sweeps"], c["propagation.runs"], 1.0), "sweeps"),
            "propagation.nonconverged_runs": (c["propagation.nonconverged_runs"], "count"),
            "propagation.run_calls": (c["propagation.run_calls"], "count"),
            "propagation.run_s": (t("propagation.run"), "s"),
            "propagation.engine_builds": (c["propagation.engine_builds"], "count"),
            "propagation.engine_build_s": (t("propagation.engine_build"), "s"),
            "propagation.beliefs_s": (t("propagation.beliefs"), "s"),
            "propagation.impose_s": (t("propagation.impose"), "s"),
            "propagation.predict_s": (t("propagation.predict"), "s"),
            "alpha_calibration.probes": (c["alpha_calibration.probes"], "count"),
            "alpha_calibration.probe_s": (t("alpha_calibration.probe"), "s"),
            "copula_lab.exact_rows": (c["copula_lab.exact_rows"], "count"),
            "copula_lab.exact_s": (exact_s, "s"),
            "copula_lab.exact_us_per_row": (ratio(exact_s, c["copula_lab.exact_rows"], 1e6), "us"),
            "copula_lab.sample_s": (t("copula_lab.sample"), "s"),
            "model_io.file_bytes": (file_bytes, "B"),
            "model_io.save_s": (t("model_io.save"), "s"),
            "model_io.load_s": (t("model_io.load"), "s"),
            "cli.import_s": (import_s, "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
