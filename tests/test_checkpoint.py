import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from zeroshap import base_models as bm
from zeroshap import explainer as ex
from zeroshap.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint


def _header(path):
    raw = path.read_bytes()
    (length,) = struct.unpack("<Q", raw[len(MAGIC) : len(MAGIC) + 8])
    start = len(MAGIC) + 8
    return raw[start : start + length], raw[start + length :]


def _rewrite(path, header_bytes, body):
    path.write_bytes(MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + body)


def _edit(edit):
    def apply(header_bytes):
        header = json.loads(header_bytes)
        edit(header)
        return json.dumps(header).encode("utf-8")
    return apply


@pytest.mark.parametrize("corrupt, message", [
    (_edit(lambda h: h["arrays"][0].update(dtype="<f4")), "unknown dtype '<f4'"),
    (_edit(lambda h: h.pop("arrays")), "'arrays'"),
    (_edit(lambda h: h["arrays"][0].pop("name")), "'name'"),
    (_edit(lambda h: h["arrays"][0].pop("shape")), "'shape'"),
    (_edit(lambda h: h["arrays"][0].pop("dtype")), "'dtype'"),
    (_edit(lambda h: h["arrays"][0].update(shape=[-3])), "bad shape"),
    (lambda b: b[:-1] + b"!", "does not parse"),
    (lambda b: b"\xff" + b[1:], "does not parse"),
    (lambda b: b"[" + b + b"]", "not a JSON object"),
], ids=["dtype-f4", "no-arrays", "no-name", "no-shape", "no-dtype", "negative-shape",
        "bad-json", "bad-utf8", "not-object"])
def test_corrupt_header_raises_checkpoint_error(tmp_path, corrupt, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "mlp", {"w0": np.arange(6.0).reshape(2, 3), "n": np.arange(3)})
    header_bytes, body = _header(path)
    _rewrite(path, corrupt(header_bytes), body)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)



def test_scalar_and_transposed_arrays_round_trip(tmp_path):
    path = tmp_path / "arrays.ckpt"
    matrix = np.arange(6.0).reshape(2, 3)
    save_checkpoint(path, "test", {"s": np.array(2.5), "k": np.array(3), "t": matrix.T})
    arrays, _, _ = load_checkpoint(path, expected_kind="test")
    assert arrays["s"].shape == () and arrays["s"] == 2.5
    assert arrays["k"].shape == () and arrays["k"].dtype == np.dtype("<i8") and arrays["k"] == 3
    assert np.array_equal(arrays["t"], matrix.T)


# ---- checkpoints whose bytes are damaged, or whose header does not fit the model ----

_MICRO = ex.ExplainerConfig(embed_dim=8, n_layers=1, n_heads=2, n_buckets=4, max_features=3,
                            max_context_rows=32)


def _saved_models(path):
    """A small explainer, MLP and forest checkpoint under ``path``.

    Returns, per kind, the loader and a function that runs a loaded model on
    a fixed (6, 2) input.
    """
    rng = np.random.default_rng(3)
    X = rng.normal(size=(32, 2))
    y = (X[:, 0] > 0).astype(float)
    ex.save_weights(path / "explainer.ckpt",
                    ex.ExplainerWeights(ex.init_params(_MICRO, rng)[1], _MICRO, {"steps": 0}))
    bm.save_model(path / "mlp.ckpt", bm.train_mlp(X, y, bm.MlpConfig(hidden_sizes=(3,), epochs=2)))
    bm.save_model(path / "forest.ckpt", bm.train_forest(X, y, bm.ForestConfig(n_estimators=2, max_depth=2)))
    Xq, yq = X[:6], rng.uniform(size=6)
    return {"explainer": (ex.load_weights, lambda w: ex.explain_zero_shot(w, Xq, yq)),
            "mlp": (bm.load_model, lambda model: model.predict(Xq)),
            "forest": (bm.load_model, lambda model: model.predict_proba(Xq))}


# renamed keys and arrays and heads that do not divide embed_dim: test_cli
@pytest.mark.parametrize("edit, message", [
    (lambda arrays, config: config.update(n_heads=0), "does not describe an explainer"),
    (lambda arrays, config: config.update(embed_dim="8"), "wrong type: \\['embed_dim'\\]"),
    (lambda arrays, config: config.update(n_layers=2), "l1_"),
    (lambda arrays, config: arrays.update(head_b=arrays["head_b"][:2]), "head_b"),
    (lambda arrays, config: arrays["l0_wq"].__setitem__((0, 0), np.nan), "non-finite"),
    (lambda arrays, config: config.update(max_context_rows=0), "max_context_rows must be at least 2"),
], ids=["zero-heads", "string-dim", "extra-layer", "short-array", "nan-weight", "no-context-rows"])
def test_explainer_checkpoint_that_does_not_fit_raises_checkpoint_error(tmp_path, edit, message):
    _saved_models(tmp_path)
    path = tmp_path / "explainer.ckpt"
    arrays, config, metadata = load_checkpoint(path)
    edit(arrays, config)
    save_checkpoint(path, "explainer", arrays, config=config, metadata=metadata)
    with pytest.raises(CheckpointError, match=message):
        ex.load_weights(path)


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    path = tmp_path_factory.mktemp("models")
    return {kind: ((path / f"{kind}.ckpt").read_bytes(), *use)
            for kind, use in _saved_models(path).items()}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["explainer", "mlp", "forest"]),
       damages=st.lists(st.tuples(st.sampled_from(["cut", "flip"]), st.booleans(),
                                  st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
                        min_size=1, max_size=3))
def test_damaged_checkpoint_loads_or_raises_checkpoint_error(saved_models, tmp_path, kind, damages):
    """Truncated or bit-flipped checkpoints give CheckpointError and nothing else, and
    a model that loads runs to the end.

    Half the damage lands in the magic, length and JSON header, which are a
    small share of the file. A flipped weight may still be finite and huge,
    so the outputs of a model that loads are not required to be finite.
    """
    intact, load, run = saved_models[kind]
    raw = bytearray(intact)
    (header_len,) = struct.unpack("<Q", intact[len(MAGIC) : len(MAGIC) + 8])
    header_end = len(MAGIC) + 8 + header_len
    for how, in_header, where, bit in damages:
        if not raw:
            break
        pos = int(where * min(header_end, len(raw))) if in_header else int(where * len(raw))
        if how == "cut":
            del raw[pos:]
        else:
            raw[pos] ^= 1 << bit
    path = tmp_path / f"{kind}.ckpt"
    path.write_bytes(bytes(raw))
    try:
        model = load(path)
    except CheckpointError:
        return
    with np.errstate(all="ignore"):
        assert run(model).shape[0] == 6
