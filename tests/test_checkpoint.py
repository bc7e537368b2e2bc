import json
import struct

import numpy as np
import pytest

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
