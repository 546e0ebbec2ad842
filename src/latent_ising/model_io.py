"""JSON persistence for fitted models and copula truth models, plus the
CSV formats used by the command line."""

from __future__ import annotations

import csv
import json

import numpy as np

from .coding import ENCODER_KINDS
from .copula_lab import (
    BetaMarginal,
    CopulaModel,
    Dataset,
    EmpiricalMarginal,
    _copula_from_precision,
)
from .ecdf import EmpiricalCdf
from .ising import GraphTopology, LatentIsingModel, assemble
from .pairwise_em import PairwiseMarginal

__all__ = [
    "model_to_dict",
    "model_from_dict",
    "save_models",
    "load_models",
    "copula_to_dict",
    "copula_from_dict",
    "save_copula",
    "load_copula",
    "save_dataset_csv",
    "load_dataset_csv",
    "load_observations_csv",
    "load_pairs_csv",
]


def model_to_dict(model: LatentIsingModel) -> dict:
    if model.encoders is None:
        raise ValueError("only fitted models (with encoders) are serialized")
    nodes = [
        {
            "id": i,
            "encoder": enc.kind,
            "p1": enc.p1,
            "cdf_samples": enc.cdf.sorted_samples.tolist(),
        }
        for i, enc in enumerate(model.encoders)
    ]
    edges = [
        {"i": i, "j": j, "p11": m.p_ij11, "n_obs": m.n_obs}
        for (i, j), m in zip(model.topology.edges, model.marginals)
    ]
    return {"alpha": model.alpha, "nodes": nodes, "edges": edges}


def model_from_dict(payload: dict) -> LatentIsingModel:
    """The fitted model of a ``model_to_dict`` payload.

    A missing field, an edge endpoint that is not a node id or an invalid
    value raises ``ValueError`` naming the node or edge it belongs to.
    """
    try:
        nodes = sorted(payload["nodes"], key=lambda d: d["id"])
        edge_specs = payload["edges"]
        alpha = float(payload["alpha"])
    except KeyError as exc:
        raise ValueError(_reason(exc)) from None
    n = len(nodes)
    if [d["id"] for d in nodes] != list(range(n)):
        raise ValueError("node ids must be 0..N-1")
    encoders = []
    for d in nodes:
        try:
            if d["encoder"] not in ENCODER_KINDS:
                raise ValueError(f"unknown encoder kind {d['encoder']!r}")
            cdf = EmpiricalCdf(d["cdf_samples"])
            encoders.append(ENCODER_KINDS[d["encoder"]](cdf, float(d["p1"])))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"node {d['id']}: {_reason(exc)}") from None
    edges = []
    marginals = []
    for e, d in enumerate(edge_specs):
        try:
            i, j = int(d["i"]), int(d["j"])
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"({i},{j}) has an endpoint outside 0..{n - 1}")
            marginal = PairwiseMarginal(
                encoders[i].p1, encoders[j].p1, float(d["p11"]),
                n_obs=int(d.get("n_obs", 0)),
            )
            marginal.validate()
        except (KeyError, ValueError) as exc:
            raise ValueError(f"edge {e}: {_reason(exc)}") from None
        edges.append((i, j))
        marginals.append(marginal)
    topology = GraphTopology(n, tuple(edges))
    return assemble(topology, marginals, alpha, encoders=encoders)


def _reason(exc: Exception) -> str:
    """The message of a ``ValueError``, or the field a ``KeyError`` missed."""
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def save_models(models, path):
    models = [models] if isinstance(models, LatentIsingModel) else list(models)
    if len(models) == 1:
        payload = model_to_dict(models[0])
    else:
        payload = {"models": [model_to_dict(m) for m in models]}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_models(path) -> list[LatentIsingModel]:
    with open(path) as fh:
        payload = json.load(fh)
    if "models" in payload:
        return [model_from_dict(d) for d in payload["models"]]
    return [model_from_dict(payload)]


def _marginal_from_spec(spec: dict):
    if spec["kind"] == "beta":
        return BetaMarginal(float(spec["a"]), float(spec["b"]))
    if spec["kind"] == "empirical":
        return EmpiricalMarginal(EmpiricalCdf(spec["samples"]))
    raise ValueError(f"unknown marginal kind: {spec['kind']!r}")


def copula_to_dict(model: CopulaModel) -> dict:
    return {
        "kind": "copula",
        "n_nodes": model.n_nodes,
        "edges": [list(e) for e in model.topology.edges],
        "precision": model.precision.tolist(),
        "marginals": [m.spec() for m in model.marginals],
        "always_observed": list(model.always_observed),
    }


def copula_from_dict(payload: dict) -> CopulaModel:
    """The truth model of a ``copula_to_dict`` payload; a missing field or
    an invalid value raises ``ValueError``."""
    try:
        topology = GraphTopology(
            int(payload["n_nodes"]), tuple(tuple(e) for e in payload["edges"])
        )
        return _copula_from_precision(
            topology,
            np.asarray(payload["precision"], dtype=float),
            [_marginal_from_spec(d) for d in payload["marginals"]],
            payload.get("always_observed", ()),
        )
    except KeyError as exc:
        raise ValueError(_reason(exc)) from None


def save_copula(model: CopulaModel, path):
    with open(path, "w") as fh:
        json.dump(copula_to_dict(model), fh)


def load_copula(path) -> CopulaModel:
    with open(path) as fh:
        return copula_from_dict(json.load(fh))


def save_dataset_csv(dataset: Dataset, path):
    values = dataset.values
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([str(i) for i in range(values.shape[1])])
        writer.writerows(values.tolist())


def load_dataset_csv(path) -> Dataset:
    """A header row naming the nodes, then one row of values per outcome.

    A malformed cell or a row of the wrong width raises ``ValueError``
    naming its line.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError("dataset CSV has no header row")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"dataset row {line}: {len(row)} values, "
                    f"expected {len(header)}"
                )
            rows.append(_values(row, "dataset", line))
    if not rows:
        raise ValueError("dataset CSV has no outcomes")
    return Dataset(values=np.asarray(rows, dtype=float))


def _csv_rows(path, what: str, parse_id):
    """(line, id, row) for each non-empty row of a CSV file.

    Only the first row may be a header: a later row whose id does not parse
    raises ``ValueError`` naming its line.
    """
    with open(path, newline="") as fh:
        header_allowed = True
        for line, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                key = parse_id(row[0])
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise ValueError(
                    f"{what} row {line}: malformed id {row[0]!r}"
                ) from None
            header_allowed = False
            yield line, key, row


def _values(row, what: str, line: int) -> list:
    try:
        return [float(v) for v in row]
    except ValueError:
        raise ValueError(f"{what} row {line}: malformed value in {row!r}") from None


def load_observations_csv(path) -> dict:
    """CSV rows of (node id, value); the first row may be a header.

    A malformed row, a row without a value or a node listed twice raises
    ``ValueError`` naming the row.
    """
    out = {}
    for line, node, row in _csv_rows(path, "observation", int):
        if len(row) < 2:
            raise ValueError(f"observation row {line}: no value for node {node}")
        if node in out:
            raise ValueError(f"observation row {line}: node {node} observed twice")
        out[node] = _values(row[1:2], "observation", line)[0]
    return out


def _edge_id(text: str) -> tuple[int, int]:
    i_str, j_str = text.split("-")
    return int(i_str), int(j_str)


def load_pairs_csv(path) -> dict:
    """CSV rows of (edge id 'i-j', x_i, x_j) grouped per edge; the first row
    may be a header.  A malformed or short row raises ``ValueError`` naming
    the row."""
    grouped: dict[tuple[int, int], tuple[list, list]] = {}
    for line, (i, j), row in _csv_rows(path, "pair", _edge_id):
        if len(row) < 3:
            raise ValueError(f"pair row {line}: edge {i}-{j} needs two values")
        x_i, x_j = _values(row[1:3], "pair", line)
        xi, xj = grouped.setdefault((i, j), ([], []))
        xi.append(x_i)
        xj.append(x_j)
    if not grouped:
        raise ValueError("no pair observations found")
    return {
        edge: (np.asarray(xi), np.asarray(xj)) for edge, (xi, xj) in grouped.items()
    }
