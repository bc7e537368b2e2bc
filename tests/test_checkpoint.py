import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    (_edit(lambda h: h["arrays"][0].update(dtype="<i8")), "unknown dtype '<i8'"),
    (_edit(lambda h: h.pop("arrays")), "'arrays'"),
    (_edit(lambda h: h["arrays"][0].pop("name")), "'name'"),
    (_edit(lambda h: h["arrays"][0].pop("shape")), "'shape'"),
    (_edit(lambda h: h["arrays"][0].pop("dtype")), "'dtype'"),
    (_edit(lambda h: h["arrays"][0].update(shape=[-3])), "bad shape"),
    (lambda b: b[:-1] + b"!", "does not parse"),
    (lambda b: b"\xff" + b[1:], "does not parse"),
    (lambda b: b"[" + b + b"]", "not a JSON object"),
], ids=["dtype-f4", "dtype-i8", "no-arrays", "no-name", "no-shape", "no-dtype", "negative-shape",
        "bad-json", "bad-utf8", "not-object"])
def test_corrupt_header_raises_checkpoint_error(tmp_path, corrupt, message):
    path = tmp_path / "explainer.ckpt"
    save_checkpoint(path, "explainer", {"w0": np.arange(6.0).reshape(2, 3), "n": np.arange(3.0)})
    header_bytes, body = _header(path)
    _rewrite(path, corrupt(header_bytes), body)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)



def test_scalar_and_transposed_arrays_round_trip(tmp_path):
    path = tmp_path / "arrays.ckpt"
    matrix = np.arange(6.0).reshape(2, 3)
    save_checkpoint(path, "explainer", {"s": np.array(2.5), "t": matrix.T})
    arrays, _, _ = load_checkpoint(path, expected_kind="explainer")
    assert arrays["s"].shape == () and arrays["s"] == 2.5
    assert np.array_equal(arrays["t"], matrix.T)


@pytest.mark.parametrize("array", [np.arange(3), np.array([True, False])], ids=["int", "bool"])
def test_save_refuses_arrays_that_are_not_float(tmp_path, array):
    path = tmp_path / "explainer.ckpt"
    with pytest.raises(CheckpointError, match=f"unsupported dtype {array.dtype} for array 'a'"):
        save_checkpoint(path, "explainer", {"a": array})
    assert not path.exists()


# ---- checkpoints whose bytes are damaged, or whose header does not fit the explainer ----

_MICRO = ex.ExplainerConfig(embed_dim=8, n_layers=1, n_heads=2, n_buckets=4, max_features=3,
                            max_context_rows=32)


def _saved_explainer(path):
    """A small explainer checkpoint at ``path``."""
    rng = np.random.default_rng(3)
    ex.save_weights(path, ex.ExplainerWeights(ex.init_params(_MICRO, rng)[1], _MICRO, {"steps": 0}))


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
    path = tmp_path / "explainer.ckpt"
    _saved_explainer(path)
    arrays, config, metadata = load_checkpoint(path)
    edit(arrays, config)
    save_checkpoint(path, "explainer", arrays, config=config, metadata=metadata)
    with pytest.raises(CheckpointError, match=message):
        ex.load_weights(path)


@pytest.fixture(scope="module")
def saved_explainer(tmp_path_factory):
    path = tmp_path_factory.mktemp("explainer") / "explainer.ckpt"
    _saved_explainer(path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damages=st.lists(st.tuples(st.sampled_from(["cut", "flip"]), st.booleans(),
                                  st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
                        min_size=1, max_size=3))
def test_damaged_checkpoint_loads_or_raises_checkpoint_error(saved_explainer, tmp_path, damages):
    """Truncated or bit-flipped checkpoints give CheckpointError and nothing else, and
    an explainer that loads runs to the end.

    Half the damage lands in the magic, length and JSON header, which are a
    small share of the file. A flipped weight may still be finite and huge,
    so the outputs of an explainer that loads are not required to be finite.
    """
    raw = bytearray(saved_explainer)
    (header_len,) = struct.unpack("<Q", saved_explainer[len(MAGIC) : len(MAGIC) + 8])
    header_end = len(MAGIC) + 8 + header_len
    for how, in_header, where, bit in damages:
        if not raw:
            break
        pos = int(where * min(header_end, len(raw))) if in_header else int(where * len(raw))
        if how == "cut":
            del raw[pos:]
        else:
            raw[pos] ^= 1 << bit
    path = tmp_path / "explainer.ckpt"
    path.write_bytes(bytes(raw))
    try:
        weights = ex.load_weights(path)
    except CheckpointError:
        return
    rng = np.random.default_rng(3)
    with np.errstate(all="ignore"):
        assert ex.explain_zero_shot(weights, rng.normal(size=(6, 2)), rng.uniform(size=6)).shape[0] == 6
