"""Benchmark of latent-ising: decimation, fitting and prediction.

    python3 perfbench/run.py --workload pair-batch --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics in seconds on a nominal host
(see ``measure.py``), with ``--trace 1`` the per-layer metrics of one
traced round.  Model, observation and trace files go under
``.perfbench_run/`` in the checkout.
"""

import os

# One BLAS/OpenMP thread: the second core of a small host is shared, and a
# second BLAS thread there makes the fit's timing depend on other tenants.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

T0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def process_age() -> float:
    """Seconds since this process started (falls back to the first line of
    this script where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, AttributeError, IndexError):
        return time.perf_counter() - T0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import latent_ising"], env=env,
                   cwd=ROOT, check=True, timeout=170)
    return time.perf_counter() - t0


def failures_per_round(failures, reps) -> int:
    """Failed operations of one round, from the first round's checks."""
    count = int(bool(failures["fit"]))
    for op in ("calibrate", "cli", "decimate"):
        count += reps[op] * int(bool(failures[op]))
    count += reps["query"] * sum(1 for msgs in failures["query"] if msgs)
    return count


def failure_messages(failures) -> list[str]:
    """Distinct check messages (query failures are listed per query),
    each printed to standard error."""
    msgs = {m for op, found in failures.items() if op != "query" for m in found}
    msgs.update(m for per_query in failures["query"] for m in per_query)
    for msg in sorted(msgs):
        print(f"check failed: {msg}", file=sys.stderr)
    return sorted(msgs)


def attempted_per_round(reps, n_queries) -> int:
    return 1 + reps["calibrate"] + reps["cli"] + reps["decimate"] + reps["query"] * n_queries


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "latent_ising")):
        print(f"no latent_ising package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import latent_ising
    if not os.path.abspath(latent_ising.__file__).startswith(SRC + os.sep):
        print(f"latent_ising imported from {latent_ising.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import measure
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    load_start = os.getloadavg()[0]
    out_dir = os.path.join(ROOT, ".perfbench_run")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir)
    try:
        if args.trace:
            result = traced_run(spec, args, workdir, out_dir, measure, workloads)
        else:
            result = timed_run(spec, args, workdir, load_start, measure, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_run(spec, args, workdir, load_start, measure, workloads):
    work = workloads.Workload(spec, args.seed, workdir, ROOT)
    setup_raw = process_age()
    sampler = measure.Sampler()
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while True:
        work.round(sampler)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    failures = work.check()
    failed = rounds * failures_per_round(failures, spec.reps)
    attempted = rounds * attempted_per_round(spec.reps, spec.n_queries)
    messages = failure_messages(failures)
    if work.mismatches:
        print(f"{work.mismatches} rounds differ from the first", file=sys.stderr)

    host = sampler.host_factor()
    n_q = len(work.observations)
    metrics = {
        "setup_s": setup_raw / sampler.process_factor(),
        "fit_s": sampler.normalised("fit", per=len(spec.encoders)),
        "calibrate_s": sampler.normalised("calibrate", per=spec.calibrate_batch),
        "query_s": sampler.normalised("query", per=n_q),
        "cli_predict_s": sampler.normalised("cli"),
        "decimate_s": sampler.normalised("decimate"),
    }
    answers = work.first["answers"]
    table = work.first["table"]
    latent = [r for r in table if r["predictor"] == spec.predictors[0]]
    detail = {
        "workload": spec.name, "seed": args.seed, "load_at_start": load_start,
        "rounds": rounds, "host_factor": host, "setup_raw_s": setup_raw,
        "process_factor": sampler.process_factor(),
        "raw_median_s": {k: statistics.median(v) for k, v in sampler.times.items()},
        "reps": {k: len(v) for k, v in sampler.times.items()},
        "samples": sampler.times, "scaled": sampler.scaled,
        "kernel_median_s": statistics.median(sampler.kernel),
        "query_p90_s": statistics.quantiles(work.query_times, n=10)[-1],
        "query_converged_fraction": sum(a[2].converged for a in answers) / len(answers),
        "query_mean_sweeps": statistics.mean(a[2].sweeps for a in answers),
        "alpha": work.first["alpha"],
        "decimate_nonconverged_ratio": statistics.mean(
            r["nonconverged_ratio"] for r in latent),
        "inverse_cdf_over_median": {
            str(b): round(inv / med, 4) for (b, inv), med in zip(
                ((r["bin_low"], r["mean_l1"]) for r in table
                 if r["predictor"] == "inverse-cdf"),
                (r["mean_l1"] for r in table if r["predictor"] == "median"))},
    }
    print("detail " + json.dumps(detail))
    return {
        "correct": not messages and not work.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": "s"} for k, v in metrics.items()
        },
    }


def traced_run(spec, args, workdir, out_dir, measure, workloads):
    import checks
    from latent_ising.harness import LATENT_PREDICTORS
    from tracing import Tracer

    work = workloads.Workload(spec, args.seed, workdir, ROOT)
    reps = {op: 1 for op in spec.reps}
    sampler = measure.Sampler()
    tracer = Tracer()
    tracer.install()
    try:
        out = work.round(sampler, reps)
    finally:
        tracer.uninstall()
    file_bytes = os.path.getsize(work.model_path)
    import_s = import_seconds()
    failures = work.check()

    # nonconverged counts of the table against the runs counted around
    # the sweep kernels, per fitted model
    runs = checks.runs_per_bin(work.truth.n_nodes,
                               len(work.truth.always_observed), spec.replicates)
    by_kind = {m.encoders[0].kind: m for m in out["dec_models"]}
    for name in spec.predictors:
        if name in LATENT_PREDICTORS:
            model = by_kind[LATENT_PREDICTORS[name][0]]
            table_count = checks.nonconverged_runs(out["table"], name, runs)
            swept = tracer.unconverged_by_model[id(model)]
            if table_count != swept:
                failures["decimate"].append(
                    f"{name}: table counts {table_count} unconverged runs, "
                    f"the sweep kernels {swept}")
    failed = failures_per_round(failures, reps)
    messages = failure_messages(failures)

    trace_path = os.path.join(out_dir, f"trace-{spec.name}-{args.seed}.json")
    with open(trace_path, "w") as fh:
        json.dump({"workload": spec.name, "seed": args.seed,
                   "op_raw_s": sampler.times, **tracer.dump()}, fh)
    return {
        "correct": not messages,
        "attempted": attempted_per_round(reps, spec.n_queries),
        "failed": failed,
        "metrics": tracer.metrics(file_bytes, import_s),
    }


if __name__ == "__main__":
    sys.exit(main())
