"""Command-line interface: synthetic model generation, sampling, fitting,
temperature calibration, prediction, and decimation experiments."""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .coding import DECODER_KINDS, ENCODER_KINDS, build_encoder
from .ising import GraphTopology, assemble
from .model_io import (
    load_copula,
    load_dataset_csv,
    load_models,
    load_observations_csv,
    load_pairs_csv,
    save_copula,
    save_dataset_csv,
    save_models,
)
from .propagation import impose_observations, mbp_run, predict

# The lab, the harness, EM and the calibration are imported by the commands
# that use them, so that ``predict`` loads numpy alone and no scipy.

RING_PARTIAL = -0.3  # precision entry coupling ring segments to their neighbors
RESULT_COLUMNS = ("bin_low", "predictor", "mean_l1")  # read by plotdata


def _parse_marginal(text: str):
    from .copula_lab import BetaMarginal

    kind, _, args = text.partition(":")
    if kind != "beta":
        raise ValueError(f"unsupported marginal: {text!r} (expected beta:a,b)")
    try:
        a, b = (float(v) for v in args.split(","))
    except ValueError:
        raise ValueError(f"malformed marginal: {text!r} (expected beta:a,b)")
    return BetaMarginal(a, b)


def _cmd_gen_model(args):
    from .copula_lab import (
        BetaMarginal,
        generate_copula,
        grid_city,
        pair_topology,
        regular_tree_topology,
    )

    if args.rho is not None and not -1.0 < args.rho < 1.0:
        raise ValueError(
            f"--rho must lie in the open interval (-1, 1), got {args.rho}"
        )
    marginal = _parse_marginal(args.marginal)
    overrides = {}
    always = ()
    if args.topology == "pair":
        topology = pair_topology()
        marginals = [marginal, marginal]
        if args.rho is not None:
            overrides[(0, 1)] = -args.rho
    elif args.topology.startswith("tree:"):
        try:
            connectivity = int(args.topology.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"--topology {args.topology!r}: expected tree:<connectivity>, "
                "an integer"
            ) from None
        topology = regular_tree_topology(connectivity, size=args.nodes)
        marginals = [marginal] * topology.n_nodes
    elif args.topology == "grid-city":
        topology, ring = grid_city()
        ring_set = set(ring)
        marginals = [
            BetaMarginal(2.0, 3.0) if i in ring_set else marginal
            for i in range(topology.n_nodes)
        ]
        overrides = {
            (i, j): RING_PARTIAL
            for (i, j) in topology.edges
            if i in ring_set or j in ring_set
        }
        always = ring
    else:
        raise ValueError(f"unknown topology: {args.topology!r}")

    model = generate_copula(
        topology,
        seed=args.seed,
        overrides=overrides,
        marginals=marginals,
        always_observed=always,
    )
    save_copula(model, args.out)
    print(f"wrote copula model: {topology.n_nodes} nodes, "
          f"{topology.n_edges} edges -> {args.out}")


def _cmd_sample(args):
    from .copula_lab import sample

    model = load_copula(args.model)
    data = sample(model, args.n, seed=args.seed)
    save_dataset_csv(data, args.out)
    print(f"wrote {args.n} outcomes -> {args.out}")


def _cmd_fit(args):
    from .pairwise_em import PairSamples, em_fit

    pairs = load_pairs_csv(args.pairs)
    edges = sorted(pairs)
    n_nodes = 1 + max(max(edge) for edge in edges)
    topology = GraphTopology(n_nodes, tuple(edges))
    node_samples = [[] for _ in range(n_nodes)]
    for (i, j), (xi, xj) in pairs.items():
        node_samples[i].append(xi)
        node_samples[j].append(xj)
    encoders = []
    for i, chunks in enumerate(node_samples):
        if not chunks:
            raise ValueError(f"node {i} has no observations")
        encoders.append(build_encoder(args.encoder, np.concatenate(chunks)))
    marginals = [
        em_fit(PairSamples(*pairs[edge]), encoders[edge[0]], encoders[edge[1]])
        for edge in edges
    ]
    model = assemble(topology, marginals, args.alpha, encoders=encoders)
    save_models(model, args.out)
    print(f"fitted {len(edges)} edges ({args.encoder} encoding) -> {args.out}")


def _cmd_fit_lab(args):
    from .harness import fit_from_copula

    truth = load_copula(args.truth)
    model, data = fit_from_copula(
        truth,
        encoder_kind=args.encoder,
        n_train=args.n_train,
        seed=args.seed,
        alpha=args.alpha,
        em_select=args.em_select,
    )
    save_models(model, args.out)
    if args.train_out:
        save_dataset_csv(data, args.train_out)
    print(f"fitted {truth.topology.n_edges} edges from {args.n_train} "
          f"synthetic outcomes -> {args.out}")


def _cmd_calibrate_alpha(args):
    from .alpha_calibration import AlphaSearchConfig, calibrate

    models = load_models(args.model)
    if len(models) != 1:
        raise ValueError("expects a single-model file")
    config = AlphaSearchConfig(precision=args.precision, tau=args.tau)
    alpha = calibrate(models[0], config)
    save_models(models[0].with_alpha(alpha), args.model)
    print(f"alpha = {alpha:.4f}")


def _cmd_predict(args):
    models = load_models(args.model)
    if len(models) != 1:
        raise ValueError("expects a single-model file")
    model = models[0]
    observed = load_observations_csv(args.obs)
    state, report = mbp_run(model, impose_observations(model, observed))
    predictions = predict(model, state, decoder=args.decoder, observed=observed)

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out)
    writer.writerow(["node", "belief1", "prediction", "converged", "sweeps"])
    for node in sorted(predictions):
        writer.writerow(
            [node, f"{state.node_beliefs[node, 1]:.9g}",
             f"{predictions[node]:.9g}", int(report.converged), report.sweeps]
        )
    if args.out:
        out.close()
        print(f"wrote predictions for {len(predictions)} nodes -> {args.out}")


def _cmd_decimate(args):
    from .harness import DECIMATION_COLUMNS, decimate

    if args.replicates < 1:
        raise ValueError(f"--replicates must be at least 1, got {args.replicates}")
    truth = load_copula(args.truth)
    fitted = []
    for path in args.fitted.split(","):
        fitted.extend(load_models(path))
    predictors = args.predictors.split(",")
    history = load_dataset_csv(args.history) if args.history else None
    result = decimate(
        truth,
        fitted,
        predictors,
        replicates=args.replicates,
        seed=args.seed,
        history=history,
        knn_k=args.knn_k,
    )
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DECIMATION_COLUMNS)
        writer.writeheader()
        writer.writerows(result.table())
    print(f"wrote decimation metrics -> {args.out}")


def _read_results(path) -> list[tuple[float, str, str]]:
    """(bin_low, predictor, mean_l1) per row of a decimation results CSV.

    A missing column or a malformed ``bin_low`` raises ``ValueError``.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RESULT_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"results file has no column {', '.join(missing)}")
        return [(float(r["bin_low"]), r["predictor"], r["mean_l1"]) for r in reader]


def _cmd_plotdata(args):
    rows = _read_results(args.results)
    predictors = sorted({p for _, p, _ in rows})
    bins = sorted({b for b, _, _ in rows})
    grid = {(b, p): value for b, p, value in rows}
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out)
    writer.writerow(["bin_low"] + predictors)
    for b in bins:
        writer.writerow([b] + [grid.get((b, p), "") for p in predictors])
    if args.out:
        out.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latent-ising",
        description="Latent binary-state graph model: synthesis, fitting, "
                    "inference, and decimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="generate a synthetic copula truth model")
    p.add_argument("--topology", required=True,
                   help="pair | tree:<connectivity> | grid-city")
    p.add_argument("--marginal", default="beta:1,1", help="beta:a,b")
    p.add_argument("--rho", type=float, default=None,
                   help="latent correlation for the pair topology")
    p.add_argument("--nodes", type=int, default=100, help="tree size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_model)

    p = sub.add_parser("sample", help="draw outcomes from a truth model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", help="fit a latent model from pair observations")
    p.add_argument("--pairs", required=True,
                   help="CSV rows: edge id 'i-j', x_i, x_j")
    p.add_argument("--encoder", default="cdf", choices=sorted(ENCODER_KINDS))
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("fit-lab",
                       help="sample training data from a truth model and fit")
    p.add_argument("--truth", required=True)
    p.add_argument("--encoder", default="cdf", choices=sorted(ENCODER_KINDS))
    p.add_argument("--n-train", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--em-select", default="prediction",
                   choices=["prediction", "likelihood"],
                   help="EM iterate kept per edge: best pairwise prediction "
                        "loss, or the converged maximum-likelihood value")
    p.add_argument("--train-out", default=None,
                   help="also write the training dataset (k-NN history)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_lab)

    p = sub.add_parser("calibrate-alpha",
                       help="pick the temperature by bisection and store it")
    p.add_argument("--model", required=True)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--precision", type=float, default=0.01)
    p.set_defaults(func=_cmd_calibrate_alpha)

    p = sub.add_parser("predict", help="predict unobserved nodes from observations")
    p.add_argument("--model", required=True)
    p.add_argument("--obs", required=True, help="CSV rows: node id, value")
    p.add_argument("--decoder", default="inverse-cdf", choices=DECODER_KINDS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("decimate", help="run the decimation experiment")
    p.add_argument("--truth", required=True)
    p.add_argument("--fitted", required=True,
                   help="fitted model file(s), comma separated")
    p.add_argument("--predictors", required=True,
                   help="comma separated: inverse-cdf,bayes-quad,median-step,"
                        "bayes-mean-step,knn,exact,median")
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--history", default=None, help="dataset CSV for k-NN")
    p.add_argument("--knn-k", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decimate)

    p = sub.add_parser("plotdata", help="reshape decimation results for plotting")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{args.command}: {exc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
