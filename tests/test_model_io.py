import json

import numpy as np
import pytest

from latent_ising import (
    GraphTopology,
    PairwiseMarginal,
    assemble,
    build_encoder,
    generate_copula,
    fit_from_copula,
    mbp_run,
    pair_topology,
    regular_tree_topology,
    sample,
)
from latent_ising.cli import main
from latent_ising.model_io import (
    copula_from_dict,
    copula_to_dict,
    load_copula,
    load_dataset_csv,
    load_models,
    load_observations_csv,
    load_pairs_csv,
    model_from_dict,
    model_to_dict,
    save_copula,
    save_dataset_csv,
    save_models,
)


@pytest.fixture(scope="module")
def small_fit(tmp_path_factory):
    truth = generate_copula(pair_topology(), seed=1, overrides={(0, 1): -0.6})
    fitted, data = fit_from_copula(truth, "cdf", n_train=501, seed=2)
    return truth, fitted, data


def test_model_roundtrip(small_fit, tmp_path):
    _, fitted, _ = small_fit
    path = tmp_path / "model.json"
    save_models(fitted, path)
    loaded = load_models(path)
    assert len(loaded) == 1
    model = loaded[0]
    assert model.alpha == fitted.alpha
    np.testing.assert_array_equal(model.node_p1, fitted.node_p1)
    np.testing.assert_array_equal(model.psi, fitted.psi)
    np.testing.assert_array_equal(
        model.encoders[0].cdf.sorted_samples, fitted.encoders[0].cdf.sorted_samples
    )
    # inference on the loaded model reproduces the original
    cons = {0: np.array([0.2, 0.8])}
    a, _ = mbp_run(fitted, cons)
    b, _ = mbp_run(model, cons)
    np.testing.assert_allclose(a.node_beliefs, b.node_beliefs, atol=1e-12)


def _ragged_models():
    """A cdf and a median-step model on a 3-node chain whose nodes hold 37,
    80 and 5 training samples, as ``latent-ising fit`` on a pairs CSV gives."""
    rng = np.random.default_rng(11)
    columns = [rng.uniform(size=n) for n in (37, 80, 5)]
    topology = GraphTopology(3, ((0, 1), (1, 2)))
    models = []
    for kind, alpha in (("cdf", 0.37), ("median-step", 1.0)):
        encoders = [build_encoder(kind, x) for x in columns]
        marginals = []
        for i, j in topology.edges:
            lo, hi = PairwiseMarginal(encoders[i].p1, encoders[j].p1, 0.0).domain()
            marginals.append(PairwiseMarginal(encoders[i].p1, encoders[j].p1,
                                              lo + 0.7 * (hi - lo), n_obs=5 + i))
        models.append(assemble(topology, marginals, alpha, encoders=encoders))
    return models


def _assert_same_model(a, b):
    assert a.alpha == b.alpha
    assert a.topology == b.topology
    np.testing.assert_array_equal(a.node_p1, b.node_p1)
    np.testing.assert_array_equal(a.psi, b.psi)
    assert a.marginals == b.marginals
    for enc_a, enc_b in zip(a.encoders, b.encoders, strict=True):
        assert enc_a.kind == enc_b.kind
        np.testing.assert_array_equal(enc_a.cdf.sorted_samples,
                                      enc_b.cdf.sorted_samples)


def test_container_roundtrip_is_bit_identical(tmp_path):
    models = _ragged_models()
    path = tmp_path / "models.json"  # any name: the container keeps it
    save_models(models, path)
    assert path.read_bytes()[:4] == b"PK\x03\x04"
    assert not (tmp_path / "models.json.npz").exists()
    loaded = load_models(path)
    assert len(loaded) == 2
    for a, b in zip(models, loaded):
        _assert_same_model(a, b)
    assert [enc.cdf.n for enc in loaded[0].encoders] == [37, 80, 5]


@pytest.mark.parametrize("several", [False, True])
def test_legacy_json_file_loads(tmp_path, several):
    models = _ragged_models()
    payload = ({"models": [model_to_dict(m) for m in models]} if several
               else model_to_dict(models[0]))
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(payload))
    loaded = load_models(path)
    assert len(loaded) == (2 if several else 1)
    for a, b in zip(models, loaded):
        _assert_same_model(a, b)


def _rewrite(path, **entries):
    """Replace entries of a model container in place."""
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update(entries)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _header_bytes(path, **fields):
    with np.load(path) as npz:
        header = json.loads(npz["header"].tobytes())
    header.update(fields)
    return np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)


_TRIPPED = []


def _trip():
    _TRIPPED.append(True)


class _Tripwire:
    """Unpickling an instance calls ``_trip``."""

    def __reduce__(self):
        return _trip, ()


def _unknown_schema(path):
    _rewrite(path, header=_header_bytes(path, schema=3))


def _unknown_schema_json(path):
    payload = model_to_dict(load_models(path)[0])
    payload["schema"] = 3
    path.write_text(json.dumps(payload))


def _object_block(path):
    _rewrite(path, samples_0=np.array([_Tripwire()], dtype=object))


def _bad_offsets(path):
    _rewrite(path, offsets_0=np.array([0, 7, 3]))


def _missing_block(path):
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files if name != "samples_0"}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _list_header(path):
    _rewrite(path, header=np.frombuffer(b"[1, 2]", dtype=np.uint8))


def _truncated(path):
    path.write_bytes(path.read_bytes()[:100])


MODEL_FILE_ERRORS = [
    (_unknown_schema, "unknown model file schema 3 (expected 2)"),
    (_unknown_schema_json, "unknown model file schema 3 (expected 2)"),
    (_object_block, "Object arrays cannot be loaded when allow_pickle=False"),
    (_bad_offsets, "model 0: sample offsets do not fit its block"),
    (_missing_block, "model file has no 'samples_0' entry"),
    (_truncated, "corrupt model file: File is not a zip file"),
    (_list_header, "model file header holds no JSON object"),
]


@pytest.mark.parametrize("corrupt, message", MODEL_FILE_ERRORS)
def test_malformed_container_is_rejected(small_fit, tmp_path, corrupt, message):
    _, fitted, _ = small_fit
    path = tmp_path / "model.json"
    save_models(fitted, path)
    corrupt(path)
    with pytest.raises(ValueError) as exc:
        load_models(path)
    assert str(exc.value) == message
    assert _TRIPPED == []  # the object block was never unpickled

    obs = tmp_path / "obs.csv"
    obs.write_text("node,value\n0,0.3\n")
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--model", str(path), "--obs", str(obs)])
    assert str(exc.value) == f"predict: {message}"


def test_multi_model_file(small_fit, tmp_path):
    truth, fitted, _ = small_fit
    other, _ = fit_from_copula(truth, "median-step", n_train=501, seed=2)
    path = tmp_path / "models.json"
    save_models([fitted, other], path)
    loaded = load_models(path)
    assert [m.encoders[0].kind for m in loaded] == ["cdf", "median-step"]


def test_copula_roundtrip(small_fit, tmp_path):
    truth, _, _ = small_fit
    path = tmp_path / "truth.json"
    save_copula(truth, path)
    loaded = load_copula(path)
    np.testing.assert_allclose(loaded.precision, truth.precision)
    np.testing.assert_allclose(loaded.correlation, truth.correlation)
    assert loaded.marginals == truth.marginals
    assert loaded.always_observed == truth.always_observed


def test_copula_roundtrip_with_always_observed(tmp_path):
    topo = regular_tree_topology(3, 10)
    truth = generate_copula(topo, seed=3, always_observed=(0, 4))
    d = copula_to_dict(truth)
    loaded = copula_from_dict(d)
    assert loaded.always_observed == (0, 4)


def test_rejects_non_pd_precision():
    with pytest.raises(ValueError, match="positive definite"):
        copula_from_dict(
            {
                "n_nodes": 2,
                "edges": [[0, 1]],
                "precision": [[1.0, 1.5], [1.5, 1.0]],
                "marginals": [{"kind": "beta", "a": 1, "b": 1}] * 2,
            }
        )


def test_dataset_csv_roundtrip(small_fit, tmp_path):
    truth, _, _ = small_fit
    data = sample(truth, 20, seed=5)
    path = tmp_path / "data.csv"
    save_dataset_csv(data, path)
    loaded = load_dataset_csv(path)
    np.testing.assert_allclose(loaded.values, data.values, atol=1e-12)


@pytest.mark.parametrize("text, message", [
    ("0,1\n0.1,0.2\n0.3,abc\n", "dataset row 3: malformed value"),
    ("0,1\n0.1,0.2\n0.3,inf\n", "dataset row 3: non-finite value"),
    ("0,1\nnan,0.2\n", "dataset row 2: non-finite value"),
    ("0,1\n0.1,0.2\n\n0.3\n", "dataset row 4: 1 values, expected 2"),
    ("0,1\n0.1,0.2,0.5\n", "dataset row 2: 3 values, expected 2"),
    ("0,1\n", "dataset CSV has no outcomes"),
    ("", "dataset CSV has no header row"),
])
def test_dataset_csv_rejects_malformed_rows(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_dataset_csv(path)


def test_observations_csv(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("node,value\n3,0.25\n7,0.5\n")
    assert load_observations_csv(path) == {3: 0.25, 7: 0.5}
    path.write_text("node,value\n3,0.25\n7,0.5\n3,0.75\n")
    with pytest.raises(ValueError, match="row 4: node 3 observed twice"):
        load_observations_csv(path)
    path.write_text("node,value\n3,0.25\n7\n")
    with pytest.raises(ValueError, match="row 3: no value for node 7"):
        load_observations_csv(path)
    path.write_text("3,0.25\n7,0.5\n")  # no header
    assert load_observations_csv(path) == {3: 0.25, 7: 0.5}


@pytest.mark.parametrize("text, message", [
    ("node,value\n0,0.2\n1.5,0.3\n2,0.4\n", "row 3: malformed id '1.5'"),
    ("node,value\n0,0.2\nnode,value\n", "row 3: malformed id 'node'"),
    ("node,value\n0,0.2\n\nx3,0.5\n", "row 4: malformed id 'x3'"),
    ("node,value\n0,0.2\n1,high\n", "row 3: malformed value"),
    ("node,value\n0,0.2\n1,nan\n", "row 3: non-finite value"),
])
def test_observations_csv_rejects_malformed_rows(tmp_path, text, message):
    path = tmp_path / "obs.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"observation {message}"):
        load_observations_csv(path)


def test_unknown_encoder_kind_rejected(small_fit):
    _, fitted, _ = small_fit
    payload = model_to_dict(fitted)
    payload["nodes"][1]["encoder"] = "rank"
    with pytest.raises(ValueError, match="node 1: unknown encoder kind 'rank'"):
        model_from_dict(payload)


def test_pairs_csv(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("edge,x_i,x_j\n0-1,0.1,0.2\n0-1,0.3,0.4\n1-2,0.5,0.6\n")
    pairs = load_pairs_csv(path)
    assert set(pairs) == {(0, 1), (1, 2)}
    np.testing.assert_allclose(pairs[(0, 1)][0], [0.1, 0.3])
    np.testing.assert_allclose(pairs[(1, 2)][1], [0.6])


@pytest.mark.parametrize("text, message", [
    ("edge,x_i,x_j\n0-1,0.1,0.2\n0-1,0.3\n", "row 3: edge 0-1 needs two values"),
    ("edge,x_i,x_j\n0-1,0.1,0.2\n0_1,0.3,0.4\n", "row 3: malformed id '0_1'"),
    ("edge,x_i,x_j\n0-1,0.1,0.2\nedge,x_i,x_j\n", "row 3: malformed id 'edge'"),
    ("0-1,0.1,0.2\n0-1,0.3,?\n", "row 2: malformed value"),
    ("0-1,0.1,0.2\n0-1,-inf,0.4\n", "row 2: non-finite value"),
])
def test_pairs_csv_rejects_malformed_rows(tmp_path, text, message):
    path = tmp_path / "pairs.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"pair {message}"):
        load_pairs_csv(path)
