import json
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import forest_predict, unstack
from zeroshap import pool as pl
from zeroshap.base_models import ForestModel, MlpConfig
from zeroshap.scm import TaskGenConfig, sample_task
from zeroshap.shapley import ShapConfig

FAST_BASE = MlpConfig(hidden_sizes=(16,), epochs=120)
FAST_GEN = TaskGenConfig(node_range=(3, 6), n_range=(32, 48), m_max=4)


def _random_triplet(rng, n=8, m=3):
    X = rng.normal(size=(n, m))
    phi = rng.normal(size=(n, m))
    v = float(rng.normal())
    y_hat = v + phi.sum(axis=1)
    return pl.TrainingTriplet(
        X=X, y_hat=y_hat, phi=phi, base_value=v,
        provenance={"estimator": "exact", "task_seed": 1, "base_model_seed": 2, "shapley_seed": 3},
    )


def test_triplet_validate_catches_bad_efficiency():
    t = _random_triplet(np.random.default_rng(0))
    t.y_hat = t.y_hat + 0.5
    with pytest.raises(ValueError, match="efficiency"):
        t.validate()


def test_pool_roundtrip_bit_exact(tmp_path):
    t = _random_triplet(np.random.default_rng(1))
    pl.pool_write(tmp_path, 0, t)
    back = pl.pool_read(tmp_path, 0)
    assert np.array_equal(back.X, t.X)
    assert np.array_equal(back.y_hat, t.y_hat)
    assert np.array_equal(back.phi, t.phi)
    assert back.base_value == t.base_value
    assert back.provenance == t.provenance


def test_pool_single_file_sample_identity(tmp_path):
    t = _random_triplet(np.random.default_rng(2))
    pl.pool_write(tmp_path, "solo", t)
    sampled = pl.make_pool_sampler(tmp_path, np.random.default_rng(0))()
    assert np.array_equal(sampled.phi, t.phi)


def test_pool_empty_times_out(tmp_path):
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        pl.make_pool_sampler(tmp_path, np.random.default_rng(0), timeout=0.3)()
    assert time.monotonic() - start >= 0.3


def test_pool_corrupted_entry_skipped(tmp_path):
    good = _random_triplet(np.random.default_rng(3))
    pl.pool_write(tmp_path, "good", good)
    (tmp_path / "bad.bin").write_bytes(b"\x00" * 10)
    (tmp_path / "bad.json").write_text(json.dumps({"format_version": 1, "n": 8, "m": 3, "provenance": {}}))
    sampler = pl.make_pool_sampler(tmp_path, np.random.default_rng(5))
    with pytest.warns(UserWarning, match="corrupted"):
        results = [sampler() for _ in range(10)]
    for r in results:
        assert np.array_equal(r.phi, good.phi)


@pytest.mark.parametrize("sidecar, payload", [
    ('{"format_version":1,"n":"6","m":3,"provenance":{}}', bytes(16)),
    ('[1, 2, 3]', bytes(16)),
    ('{"format_version":1,"n":8,"m":3}', bytes(16)),
    ('{"format_version":1,"n":-8,"m":-3,"provenance":{}}', bytes(16)),
    ('{"format_version":1,"n":true,"m":3,"provenance":{}}', bytes(16)),
    ('{"format_version":1,"n":8,', bytes(16)),
    # n = m = 1: X, y_hat, phi and the base value
    ('{"format_version":1,"n":1,"m":1,"provenance":{}}', np.array([np.nan, 0.5, 0.0, 0.5], "<f8").tobytes()),
], ids=["string-n", "json-list", "no-provenance", "negative-shape", "boolean-n", "cut-json", "nan-value"])
def test_sampler_skips_unreadable_entries(tmp_path, sidecar, payload):
    good = _random_triplet(np.random.default_rng(3))
    pl.pool_write(tmp_path, "good", good)
    (tmp_path / "bad.bin").write_bytes(payload)
    (tmp_path / "bad.json").write_text(sidecar)
    with pytest.raises(pl.PoolError):
        pl.pool_read(tmp_path, "bad")
    sampler = pl.make_pool_sampler(tmp_path, np.random.default_rng(5))
    with pytest.warns(UserWarning, match="skipping corrupted pool entry bad"):
        results = [sampler() for _ in range(10)]
    assert all(np.array_equal(r.phi, good.phi) for r in results)


def test_sampler_raises_pool_error_when_nothing_is_readable(tmp_path):
    (tmp_path / "0.json").write_text("[]")
    sampler = pl.make_pool_sampler(tmp_path, np.random.default_rng(0))
    with pytest.warns(UserWarning), pytest.raises(pl.PoolError, match="all 1 pool entries"):
        sampler()


def test_pool_read_missing_bin_raises_pool_error(tmp_path):
    pl.pool_write(tmp_path, 0, _random_triplet(np.random.default_rng(4)))
    (tmp_path / "0.bin").unlink()
    with pytest.raises(pl.PoolError, match="0.bin"):
        pl.pool_read(tmp_path, 0)


_ENTRY = _random_triplet(np.random.default_rng(12), n=6, m=3)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damages=st.lists(st.tuples(st.sampled_from(["bin", "json"]), st.sampled_from(["cut", "flip"]),
                                  st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
                        min_size=1, max_size=3))
def test_damaged_entry_reads_or_raises_pool_error(tmp_path, damages):
    """Truncated or bit-flipped pool files give PoolError and nothing else."""
    pl.pool_write(tmp_path, 0, _ENTRY)
    files = {"bin": bytearray((tmp_path / "0.bin").read_bytes()),
             "json": bytearray((tmp_path / "0.json").read_bytes())}
    for which, how, where, bit in damages:
        raw = files[which]
        if not raw:
            continue
        pos = int(where * len(raw))
        if how == "cut":
            del raw[pos:]
        else:
            raw[pos] ^= 1 << bit
    for which, raw in files.items():
        (tmp_path / f"0.{which}").write_bytes(bytes(raw))
    try:
        triplet = pl.pool_read(tmp_path, 0)
    except pl.PoolError:
        return
    assert triplet.X.shape == triplet.phi.shape == (triplet.n, triplet.m)
    assert triplet.y_hat.shape == (triplet.n,)
    assert np.isfinite(triplet.X).all() and np.isfinite(triplet.phi).all()


def test_pool_version_mismatch_rejected(tmp_path):
    t = _random_triplet(np.random.default_rng(4))
    pl.pool_write(tmp_path, 0, t)
    header = json.loads((tmp_path / "0.json").read_text())
    header["format_version"] = 99
    (tmp_path / "0.json").write_text(json.dumps(header))
    with pytest.raises(pl.PoolError, match="version"):
        pl.pool_read(tmp_path, 0)


def test_concurrent_writer_and_sampler(tmp_path):
    """Ten seconds of concurrent producing/sampling: no torn reads."""
    stop = threading.Event()
    errors = []
    counts = {"written": 0, "sampled": 0}

    def writer():
        rng = np.random.default_rng(10)
        i = 0
        while not stop.is_set():
            pl.pool_write(tmp_path, i, _random_triplet(rng, n=64, m=4))
            counts["written"] += 1
            i += 1

    def sampler():
        draw = pl.make_pool_sampler(tmp_path, np.random.default_rng(11), timeout=5.0)
        while not stop.is_set():
            try:
                t = draw()
                t.validate(efficiency_tol=1e-9)
                counts["sampled"] += 1
            except Exception as exc:  # noqa: BLE001 - anything here is a real failure
                errors.append(exc)
                return

    threads = [threading.Thread(target=writer), threading.Thread(target=sampler)]
    for t in threads:
        t.start()
    time.sleep(10.0)
    stop.set()
    for t in threads:
        t.join()
    assert not errors
    assert counts["written"] > 10
    assert counts["sampled"] > 10


def test_build_triplet_exact_efficiency():
    task = sample_task(77, FAST_GEN)
    triplet = pl.build_training_triplet(
        task, base_cfg=FAST_BASE, rng=np.random.default_rng(0), exact_prob=1.0
    )
    triplet.validate(efficiency_tol=1e-9)
    assert triplet.provenance["estimator"] == "exact"
    assert triplet.phi.shape == task.X.shape


def test_build_triplet_diversifies_estimator():
    task = sample_task(78, FAST_GEN)
    tags = set()
    for seed in range(12):
        t = pl.build_training_triplet(
            task, base_cfg=FAST_BASE, rng=np.random.default_rng(seed), exact_prob=0.5
        )
        tags.add(t.provenance["estimator"])
    assert tags == {"exact", "permutation"}


def test_build_triplet_permutation_seeds_agree():
    task = sample_task(79, FAST_GEN)
    cfg = ShapConfig(n_permutations=200)
    a = pl.build_training_triplet(task, base_cfg=FAST_BASE, shap_cfg=cfg,
                                  rng=np.random.default_rng(1), exact_prob=0.0)
    b = pl.build_training_triplet(task, base_cfg=FAST_BASE, shap_cfg=cfg,
                                  rng=np.random.default_rng(2), exact_prob=0.0)
    fa, fb = a.phi.ravel(), b.phi.ravel()
    corr = np.corrcoef(fa, fb)[0, 1]
    assert corr > 0.9


def test_build_pool_entry_deterministic():
    cfg = pl.PoolBuildConfig(gen=FAST_GEN, base=FAST_BASE)
    a = pl.build_pool_entry(42, 3, cfg)
    b = pl.build_pool_entry(42, 3, cfg)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.phi, b.phi)
    assert a.provenance == b.provenance


@pytest.mark.parametrize("task_index", [1, 3], ids=["permutation", "exact"])
def test_forest_pool_entry_equals_the_per_tree_walk(tmp_path, monkeypatch, task_index):
    """The stacked forest walk changes no bit of a forest pool entry (n = 34 and 47, m = 4)."""
    cfg = pl.PoolBuildConfig(gen=FAST_GEN, base_kind="forest")
    shipped = pl.build_pool_entry(7, task_index, cfg)
    monkeypatch.setattr(ForestModel, "predict_proba", lambda self, X: forest_predict(unstack(self.stack), X))
    walked = pl.build_pool_entry(7, task_index, cfg)
    assert shipped.m == 4
    for name in ("phi", "y_hat"):
        assert getattr(shipped, name).tobytes() == getattr(walked, name).tobytes()
    assert np.float64(shipped.base_value).tobytes() == np.float64(walked.base_value).tobytes()
    for side, triplet in (("shipped", shipped), ("walked", walked)):
        (tmp_path / side).mkdir()
        pl.pool_write(tmp_path / side, task_index, triplet)
    for suffix in (".bin", ".json"):
        name = f"{task_index}{suffix}"
        assert (tmp_path / "shipped" / name).read_bytes() == (tmp_path / "walked" / name).read_bytes()


def test_generate_pool_worker_count_independent(tmp_path):
    cfg = pl.PoolBuildConfig(gen=FAST_GEN, base=FAST_BASE)
    one = tmp_path / "w1"
    two = tmp_path / "w2"
    pl.generate_pool(one, 3, master_seed=42, cfg=cfg, workers=1)
    pl.generate_pool(two, 3, master_seed=42, cfg=cfg, workers=2)
    for i in range(3):
        assert (one / f"{i}.bin").read_bytes() == (two / f"{i}.bin").read_bytes()
        assert (one / f"{i}.json").read_text() == (two / f"{i}.json").read_text()


def test_make_pool_sampler_uniform_draws(tmp_path):
    rng = np.random.default_rng(6)
    for i in range(5):
        pl.pool_write(tmp_path, i, _random_triplet(rng, n=4, m=2))
    sampler = pl.make_pool_sampler(tmp_path, np.random.default_rng(7))
    seen = {tuple(sampler().y_hat) for _ in range(60)}
    assert len(seen) == 5
