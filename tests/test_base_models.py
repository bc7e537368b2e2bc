import numpy as np
import pytest

from oracles import autodiff_train_mlp
from zeroshap import autodiff as ad
from zeroshap import base_models as bm


def _separable(n=200, margin=1.0, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X0 = rng.normal(size=(half, 2)) + margin * 1.5
    X1 = rng.normal(size=(half, 2)) - margin * 1.5
    X = np.vstack([X0, X1])
    y = np.array([1.0] * half + [0.0] * half)
    return X, y


def _xor(n=400, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)
    return X, y


@pytest.fixture(scope="module")
def separable_model():
    X, y = _separable()
    return X, y, bm.train_mlp(X, y)


@pytest.fixture(scope="module")
def xor_model():
    X, y = _xor()
    return X, y, bm.train_mlp(X, y, bm.MlpConfig(seed=3))


def test_mlp_separable_accuracy(separable_model):
    X, y, model = separable_model
    acc = ((model.predict(X) > 0.5) == y).mean()
    assert acc >= 0.98


def test_mlp_xor_accuracy(xor_model):
    X, y, model = xor_model
    acc = ((model.predict(X) > 0.5) == y).mean()
    assert acc >= 0.9


def test_mlp_loss_progress(xor_model):
    _, _, model = xor_model
    losses = model.train_losses
    tenth = len(losses) // 10
    assert losses[-tenth:].mean() <= losses[:tenth].mean()


def test_mlp_loss_nonincreasing_over_windows(separable_model):
    _, _, model = separable_model
    window_means = model.train_losses.reshape(-1, 100).mean(axis=1)
    assert (np.diff(window_means) <= 1e-9).all()


def _noisy(n, m, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(float)
    return X, y


@pytest.mark.parametrize("n, m, fortran, cfg", [
    # default config; a Fortran-ordered X must not change the BLAS path
    (128, 5, True, bm.MlpConfig()),
    (120, 2, False, bm.MlpConfig(hidden_sizes=(12, 12), epochs=300, lr0=1e-3, seed=4)),
    # saturates p within a few epochs, so both 1e-12 clamps take effect
    (64, 3, False, bm.MlpConfig(epochs=100, lr0=1.0, seed=1)),
], ids=["default-fortran", "two-hidden-layers", "clamped"])
def test_mlp_fit_bit_identical_to_autodiff_graph(n, m, fortran, cfg):
    X, y = _noisy(n, m, seed=n + m)
    if fortran:
        X = np.asfortranarray(X)
    model = bm.train_mlp(X, y, cfg)
    reference = autodiff_train_mlp(X, y, cfg)
    assert len(model.weights) == len(reference.weights)
    for got, want in zip(model.weights + model.biases, reference.weights + reference.biases):
        assert np.array_equal(got, want)
    assert np.array_equal(model.train_losses, reference.train_losses)


def test_mlp_fit_builds_no_graph(tensor_inits):
    bm.train_mlp(*_noisy(32, 2, 7), bm.MlpConfig(hidden_sizes=(4, 3), epochs=5))
    assert tensor_inits == []
    ad.Tensor(np.zeros(1))
    assert len(tensor_inits) == 1


def test_mlp_nan_input_diverges_at_epoch_zero():
    X, y = _noisy(32, 2, 6)
    X[3, 1] = np.nan
    with pytest.raises(RuntimeError, match=r"training diverged at epoch 0 "):
        bm.train_mlp(X, y, bm.MlpConfig(epochs=10))


def test_mlp_rejects_constant_labels():
    X = np.random.default_rng(0).normal(size=(32, 2))
    with pytest.raises(ValueError, match="binary"):
        bm.train_mlp(X, np.ones(32))


def test_mlp_rejects_tiny_dataset():
    X = np.random.default_rng(0).normal(size=(8, 2))
    y = np.array([0.0, 1.0] * 4)
    with pytest.raises(ValueError, match="16"):
        bm.train_mlp(X, y)


def test_predict_zero_weight_network_is_half():
    model = bm.MlpModel(
        weights=[np.zeros((3, 4)), np.zeros((4, 1))],
        biases=[np.zeros(4), np.zeros(1)],
        config=bm.MlpConfig(hidden_sizes=(4,)),
    )
    out = model.predict(np.random.default_rng(0).normal(size=(5, 3)))
    np.testing.assert_array_equal(out, 0.5)


def test_predict_duplicate_rows_identical(separable_model):
    _, _, model = separable_model
    row = np.array([[0.3, -0.2]])
    X = np.vstack([row, row, row])
    out = model.predict(X)
    assert out[0] == out[1] == out[2]


def test_predict_dimension_mismatch(separable_model):
    _, _, model = separable_model
    with pytest.raises(ValueError):
        model.predict(np.zeros((4, 5)))


def test_predict_separates_classes(separable_model):
    X, y, model = separable_model
    preds = model.predict(X)
    assert preds[y == 1].mean() > preds[y == 0].mean()


def test_forest_step_function_accuracy():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(300, 1))
    y = (X[:, 0] > 0.2).astype(float)
    forest = bm.train_forest(X, y, bm.ForestConfig(n_estimators=20, max_depth=1, seed=2))
    acc = ((forest.predict_proba(X) > 0.5) == y).mean()
    assert acc >= 0.95


def test_forest_single_tree_equals_cart_on_its_bootstrap():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(120, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    forest = bm.train_forest(X, y, bm.ForestConfig(n_estimators=1, seed=7))
    tree_rng = np.random.default_rng(np.random.SeedSequence(7).spawn(1)[0])
    idx = tree_rng.integers(0, 120, size=120)
    tree = bm._fit_tree(X[idx], y[idx], 8, tree_rng, bm._gini_best_split)
    for name in ("feature", "threshold", "left", "right", "value"):
        assert np.array_equal(getattr(forest.trees[0], name), getattr(tree, name))
    np.testing.assert_array_equal(forest.predict_proba(X), tree.predict(X))


def test_tree_multi_output_predict_matches_per_column_walks():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 4))
    Y = np.column_stack([2.0 * X[:, 0], np.sin(X[:, 1]), X[:, 2] * X[:, 3]])
    tree = bm._fit_tree(X, Y, 4, rng, bm._variance_best_split)
    assert (tree.feature >= 0).sum() >= 3
    assert tree.value.shape == (tree.feature.size, 3)
    Xq = rng.normal(size=(25, 4))
    out = tree.predict(Xq)
    assert out.shape == (25, 3)
    for j in range(3):
        column = bm.Tree(tree.feature, tree.threshold, tree.left, tree.right, tree.value[:, j].copy())
        assert np.array_equal(out[:, j], column.predict(Xq))


def test_tree_purity_is_np_allclose_to_the_first_row():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(20, 2))
    Y = np.tile([0.3, -1.0], (20, 1)) + 1e-10 * rng.normal(size=(20, 2))
    assert np.allclose(Y, Y[0])
    tree = bm._fit_tree(X, Y, 4, np.random.default_rng(0), bm._variance_best_split)
    assert tree.feature.tolist() == [-1]
    Y[5, 1] += 1e-4  # beyond rtol * |Y[0, 1]| + atol
    tree = bm._fit_tree(X, Y, 4, np.random.default_rng(0), bm._variance_best_split)
    assert tree.feature[0] >= 0


def test_forest_probabilities_in_range():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] > 0).astype(float)
    forest = bm.train_forest(X, y, bm.ForestConfig(n_estimators=10, seed=1))
    probs = forest.predict_proba(rng.normal(size=(50, 4)))
    assert (probs >= 0.0).all() and (probs <= 1.0).all()


def test_forest_tree_order_invariance():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(150, 3))
    y = (X[:, 0] * X[:, 1] > 0).astype(float)
    forest = bm.train_forest(X, y, bm.ForestConfig(n_estimators=8, seed=3))
    Xq = rng.normal(size=(20, 3))
    base = forest.predict_proba(Xq)
    forest.trees = forest.trees[::-1]
    np.testing.assert_allclose(forest.predict_proba(Xq), base, atol=1e-12)


def test_scaler_standardizes():
    rng = np.random.default_rng(10)
    X = rng.normal(loc=3.0, scale=2.5, size=(100, 3))
    stats = bm.fit_scaler(X)
    Z = bm.transform(stats, X)
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_scaler_idempotent_on_standardized():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(200, 2))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    Z = bm.transform(bm.fit_scaler(X), X)
    np.testing.assert_allclose(Z, X, atol=1e-12)


def test_scaler_constant_column_zeros():
    X = np.column_stack([np.full(50, 7.0), np.arange(50, dtype=float)])
    Z = bm.transform(bm.fit_scaler(X), X)
    np.testing.assert_array_equal(Z[:, 0], 0.0)


def test_scaler_roundtrip():
    rng = np.random.default_rng(12)
    X = rng.normal(loc=-2.0, scale=4.0, size=(64, 5))
    stats = bm.fit_scaler(X)
    back = bm.transform(stats, X) * stats.std + stats.mean
    np.testing.assert_allclose(back, X, atol=1e-12)


def test_mlp_checkpoint_roundtrip(tmp_path, separable_model):
    X, _, model = separable_model
    path = tmp_path / "mlp.ckpt"
    bm.save_model(path, model)
    loaded = bm.load_model(path)
    np.testing.assert_array_equal(loaded.predict(X), model.predict(X))
    # rewriting the loaded model is byte-identical
    path2 = tmp_path / "mlp2.ckpt"
    bm.save_model(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_forest_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(float)
    forest = bm.train_forest(X, y, bm.ForestConfig(n_estimators=5, seed=4))
    path = tmp_path / "forest.ckpt"
    bm.save_model(path, forest)
    loaded = bm.load_model(path)
    np.testing.assert_array_equal(loaded.predict_proba(X), forest.predict_proba(X))


def test_checkpoint_truncation_detected(tmp_path):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(float)
    forest = bm.train_forest(X, y, bm.ForestConfig(n_estimators=2, seed=5))
    path = tmp_path / "forest.ckpt"
    bm.save_model(path, forest)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])
    from zeroshap.checkpoint import CheckpointError

    with pytest.raises(CheckpointError, match="truncated"):
        bm.load_model(path)


def test_eval_variant_two_hidden_layers():
    X, y = _separable(n=120)
    model = bm.train_mlp(X, y, bm.MlpConfig(hidden_sizes=(12, 12), epochs=400, seed=0))
    assert len(model.weights) == 3
    assert model.weights[0].shape == (2, 12)
    assert model.weights[1].shape == (12, 12)


def _small_models():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(float)
    return {"mlp": bm.train_mlp(X, y, bm.MlpConfig(hidden_sizes=(4,), epochs=5)),
            "forest": bm.train_forest(X, y, bm.ForestConfig(n_estimators=3, max_depth=3))}


def _drop(key):
    return lambda arrays, config: config.pop(key)


def _set_array(name, edit):
    return lambda arrays, config: arrays.__setitem__(name, edit(arrays[name]))


@pytest.mark.parametrize("kind, corrupt, message", [
    ("forest", _drop("n_estimators"), "not a base-model checkpoint"),
    ("forest", lambda arrays, config: arrays.pop("t1_left"), "t1_left"),
    ("forest", lambda arrays, config: config.update(n_estimators=0), "ForestModel"),
    ("forest", _set_array("t0_left", lambda a: np.where(a > 0, 0, a)), "ForestModel"),
    ("forest", _set_array("t2_feature", lambda a: a + 3), "ForestModel"),
    ("forest", _set_array("t0_value", lambda a: a[:-1]), "ForestModel"),
    ("forest", _set_array("t0_value", lambda a: np.full_like(a, np.nan)), "ForestModel"),
    ("mlp", _drop("hidden_sizes"), "not a base-model checkpoint"),
    ("mlp", lambda arrays, config: arrays.pop("b0"), "b0"),
    ("mlp", lambda arrays, config: config.update(n_layers=3), "w2"),
    ("mlp", _set_array("w1", lambda a: a[:2]), "MlpModel"),
    ("mlp", _set_array("w0", lambda a: a.ravel()), "IndexError"),
    ("mlp", _set_array("b1", lambda a: a / 0.0), "MlpModel"),
], ids=["no-n-estimators", "no-tree-array", "no-trees", "cyclic-link", "feature-out-of-range",
        "short-value", "nan-value", "no-hidden-sizes", "no-bias", "extra-layer", "width-mismatch",
        "flat-weights", "inf-bias"])
def test_load_model_rejects_checkpoints_that_do_not_fit(tmp_path, kind, corrupt, message):
    from zeroshap.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

    path = tmp_path / f"{kind}.ckpt"
    bm.save_model(path, _small_models()[kind])
    arrays, config, _ = load_checkpoint(path)
    with np.errstate(divide="ignore", invalid="ignore"):
        corrupt(arrays, config)
    save_checkpoint(path, kind, arrays, config=config)
    with pytest.raises(CheckpointError, match=message):
        bm.load_model(path)


def test_load_model_ignores_the_retired_forest_knobs(tmp_path):
    from zeroshap.checkpoint import load_checkpoint, save_checkpoint

    forest = _small_models()["forest"]
    path = tmp_path / "forest.ckpt"
    bm.save_model(path, forest)
    arrays, config, _ = load_checkpoint(path)
    config.update(min_samples_leaf=1, bootstrap=True, feature_subsample="sqrt")
    save_checkpoint(path, "forest", arrays, config=config)
    X = np.random.default_rng(18).normal(size=(10, 3))
    assert np.array_equal(bm.load_model(path).predict_proba(X), forest.predict_proba(X))
