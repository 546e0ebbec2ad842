"""Persistence of fitted models and copula truth models, plus the CSV
formats used by the command line.

A fitted-model file (``save_models``) is one ``.npz`` container, written
under whatever name the caller gives.  It holds

- ``header``: UTF-8 JSON bytes, ``{"schema": 2, "models": [...]}``, each
  model being the ``model_to_dict`` payload without ``cdf_samples``;
- ``samples_<k>`` and ``offsets_<k>`` for model k: every node's sorted
  ECDF samples as one flat float64 block, node p's samples at
  ``samples_<k>[offsets_<k>[p]:offsets_<k>[p + 1]]``, p being the node's
  position in the header's node list.  Nodes may hold different counts.

``load_models`` tells the container from a legacy file by its first four
bytes, not by its name.  It reads the container with ``allow_pickle=False``,
so an object array in it is refused without being unpickled.  A legacy
file, a JSON ``model_to_dict`` payload or ``{"models": [...]}`` of them
without a ``schema`` field, loads as it always did.

Truth models stay JSON.  ``copula_lab``, and with it ``scipy.special``, is
imported by the truth-file and dataset functions only, so that loading a
fitted model needs numpy alone.
"""

from __future__ import annotations

import csv
import json
import math
import zipfile
from typing import TYPE_CHECKING

import numpy as np

from .coding import ENCODER_KINDS
from .ecdf import EmpiricalCdf
from .ising import GraphTopology, LatentIsingModel, PairwiseMarginal, assemble

if TYPE_CHECKING:
    from .copula_lab import CopulaModel, Dataset

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

SCHEMA = 2  # version of the .npz model container
_NPZ_MAGIC = b"PK\x03\x04"  # a zip archive, as np.savez writes it


def _header(model: LatentIsingModel) -> dict:
    """The ``model_to_dict`` payload without the nodes' samples."""
    if model.encoders is None:
        raise ValueError("only fitted models (with encoders) are serialized")
    nodes = [
        {"id": i, "encoder": enc.kind, "p1": enc.p1}
        for i, enc in enumerate(model.encoders)
    ]
    edges = [
        {"i": i, "j": j, "p11": m.p_ij11, "n_obs": m.n_obs}
        for (i, j), m in zip(model.topology.edges, model.marginals)
    ]
    return {"alpha": model.alpha, "nodes": nodes, "edges": edges}


def model_to_dict(model: LatentIsingModel) -> dict:
    """The JSON payload of a fitted model, samples inline (the legacy file)."""
    payload = _header(model)
    for d, enc in zip(payload["nodes"], model.encoders):
        d["cdf_samples"] = enc.cdf.sorted_samples.tolist()
    return payload


def model_from_dict(payload: dict) -> LatentIsingModel:
    """The fitted model of a ``model_to_dict`` payload; ``cdf_samples`` may
    be any 1-d array of floats.

    A missing or wrongly typed field, an edge endpoint that is not a node id
    or an invalid value raises ``ValueError`` naming the node or edge it
    belongs to.
    """
    try:
        nodes = sorted(payload["nodes"], key=lambda d: d["id"])
        edge_specs = list(payload["edges"])
        alpha = float(payload["alpha"])
    except (KeyError, TypeError) as exc:
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
        except (KeyError, TypeError, ValueError) as exc:
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"edge {e}: {_reason(exc)}") from None
        edges.append((i, j))
        marginals.append(marginal)
    topology = GraphTopology(n, tuple(edges))
    return assemble(topology, marginals, alpha, encoders=encoders)


def _reason(exc: Exception) -> str:
    """The message of a ``ValueError``, the field a ``KeyError`` missed, or
    what a wrongly typed field made fail (``TypeError``)."""
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    if isinstance(exc, TypeError):
        return f"wrongly typed field ({exc})"
    return str(exc)


def save_models(models, path):
    """Write one model or a list of models as an ``.npz`` container at
    ``path`` exactly (``np.savez`` given a name would append ``.npz``)."""
    models = [models] if isinstance(models, LatentIsingModel) else list(models)
    arrays = {}
    headers = []
    for k, model in enumerate(models):
        headers.append(_header(model))
        samples = [enc.cdf.sorted_samples for enc in model.encoders]
        arrays[f"samples_{k}"] = np.concatenate(samples)
        arrays[f"offsets_{k}"] = np.cumsum([0] + [s.size for s in samples])
    header = json.dumps({"schema": SCHEMA, "models": headers}).encode()
    arrays["header"] = np.frombuffer(header, dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_models(path) -> list[LatentIsingModel]:
    """The models of a ``save_models`` container or of a legacy JSON file.

    A file of neither kind, an unknown ``schema``, a missing entry or a
    malformed block raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_NPZ_MAGIC)) == _NPZ_MAGIC:
            fh.seek(0)
            return _load_container(fh)
        fh.seek(0)
        payload = json.loads(fh.read())
    if not isinstance(payload, dict):
        raise ValueError("model file holds no JSON object")
    if "schema" in payload:
        _check_schema(payload["schema"])
    models = payload["models"] if "models" in payload else [payload]
    if not isinstance(models, list):
        raise ValueError("wrongly typed field 'models'")
    return [model_from_dict(d) for d in models]


def _check_schema(schema):
    if schema != SCHEMA:
        raise ValueError(f"unknown model file schema {schema!r} (expected {SCHEMA})")


def _load_container(fh) -> list[LatentIsingModel]:
    try:
        with np.load(fh, allow_pickle=False) as npz:
            header = json.loads(_entry(npz, "header").tobytes())
            if not isinstance(header, dict):
                raise ValueError("model file header holds no JSON object")
            _check_schema(header.get("schema"))
            return [
                _with_samples(payload, _entry(npz, f"samples_{k}"),
                              _entry(npz, f"offsets_{k}"), k)
                for k, payload in enumerate(header["models"])
            ]
    except zipfile.BadZipFile as exc:
        raise ValueError(f"corrupt model file: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ValueError(_reason(exc)) from None


def _entry(npz, name: str) -> np.ndarray:
    if name not in npz.files:
        raise ValueError(f"model file has no {name!r} entry")
    return npz[name]


def _with_samples(payload: dict, samples, offsets, k: int) -> LatentIsingModel:
    """Model ``k`` of a container: its header with each node's slice of the
    sample block put back as ``cdf_samples``."""
    nodes = payload["nodes"]
    if (
        samples.ndim != 1
        or offsets.shape != (len(nodes) + 1,)
        or offsets.dtype.kind not in "iu"
        or offsets[0] != 0
        or offsets[-1] != samples.size
        or np.any(np.diff(offsets) < 0)
    ):
        raise ValueError(f"model {k}: sample offsets do not fit its block")
    for d, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
        d["cdf_samples"] = samples[lo:hi]
    return model_from_dict(payload)


def _marginal_from_spec(spec: dict):
    from .copula_lab import BetaMarginal, EmpiricalMarginal

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
    """The truth model of a ``copula_to_dict`` payload; a missing or wrongly
    typed field or an invalid value raises ``ValueError``."""
    from .copula_lab import _copula_from_precision

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
    except (KeyError, TypeError) as exc:
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

    The header must read ``0,1,...,n-1``, as ``save_dataset_csv`` writes
    it: column k holds node k.  Any other header, a malformed or
    non-finite cell, or a row of the wrong width raises ``ValueError``
    (naming the header or the line).
    """
    from .copula_lab import Dataset

    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError("dataset CSV has no header row")
        if header != [str(k) for k in range(len(header))]:
            raise ValueError(f"dataset header {','.join(header)!r} is not the "
                             f"node ids 0..{len(header) - 1} in order")
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
        values = [float(v) for v in row]
    except ValueError:
        raise ValueError(f"{what} row {line}: malformed value in {row!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} row {line}: non-finite value in {row!r}")
    return values


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
