import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import autodiff_train_mlp, forest_predict, tree_predict, unstack
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
        assert np.array_equal(getattr(unstack(forest.stack)[0], name), getattr(tree, name))
    assert forest.predict_proba(X).tobytes() == tree_predict(tree, X).tobytes()


def test_tree_multi_output_predict_matches_per_column_walks():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 4))
    Y = np.column_stack([2.0 * X[:, 0], np.sin(X[:, 1]), X[:, 2] * X[:, 3]])
    tree = bm._fit_tree(X, Y, 4, rng, bm._variance_best_split)
    assert (tree.feature >= 0).sum() >= 3
    assert tree.value.shape == (tree.feature.size, 3)
    Xq = rng.normal(size=(25, 4))
    out = bm.stack_trees([tree]).predict(Xq)
    assert out.shape == (25, 3)
    for j in range(3):
        column = bm.Tree(tree.feature, tree.threshold, tree.left, tree.right, tree.value[:, j].copy())
        assert out[:, j].tobytes() == tree_predict(column, Xq).tobytes()


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
    backwards = bm.ForestModel(stack=bm.stack_trees(unstack(forest.stack)[::-1]), n_features=3)
    np.testing.assert_allclose(backwards.predict_proba(Xq), base, atol=1e-12)


def _on_splits(Q, trees, rng):
    """Q with about half of each row's cells moved exactly onto a split threshold of their feature."""
    splits = [(f, t) for tree in trees for f, t in zip(tree.feature, tree.threshold) if f >= 0]
    if splits:
        for i in range(Q.shape[0]):
            for k in rng.integers(0, len(splits), size=Q.shape[1] // 2 + 1):
                Q[i, splits[k][0]] = splits[k][1]
    return Q


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 100), max_depth=st.integers(0, 9),
       n_train=st.integers(2, 40), m=st.integers(1, 4), d=st.integers(0, 3), n_queries=st.integers(1, 300))
@example(seed=0, n_trees=100, max_depth=9, n_train=2, m=2, d=0, n_queries=1)
@example(seed=1, n_trees=100, max_depth=9, n_train=40, m=4, d=3, n_queries=1)
def test_stacked_walk_equals_the_per_tree_walks(seed, n_trees, max_depth, n_train, m, d, n_queries):
    """Bit for bit, against the per-tree oracle. d = 0 draws a forest classifier,
    whose bootstraps of few rows are often single-class and grow constant
    trees; d >= 1 draws regression trees with (n_nodes, d) leaves, which must
    also come back from the stack unchanged. Query cells often sit exactly on
    a threshold, and up to 300 rows split the trees into several blocks."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_train, m))
    if d == 0:
        y = rng.integers(0, 2, size=n_train).astype(float)
        y[:2] = [0.0, 1.0]
        forest = bm.train_forest(X, y, bm.ForestConfig(n_estimators=n_trees, max_depth=max_depth, seed=seed))
        trees, predict = unstack(forest.stack), forest.predict_proba
    else:
        Y = rng.normal(size=(n_train, d))
        trees = []
        for _ in range(n_trees):
            idx = rng.integers(0, n_train, size=n_train)
            trees.append(bm._fit_tree(X[idx], Y[idx], max_depth, rng, bm._variance_best_split))
        stack = bm.stack_trees(trees)
        for tree, back in zip(trees, unstack(stack), strict=True):
            for name in ("feature", "threshold", "left", "right", "value"):
                assert getattr(back, name).tobytes() == getattr(tree, name).tobytes()
        predict = stack.predict
    Q = _on_splits(rng.normal(size=(n_queries, m)), trees, rng)
    out = predict(Q)
    assert out.shape == (n_queries,) + ((d,) if d else ())
    assert out.tobytes() == forest_predict(trees, Q).tobytes()


def test_stacked_walks_on_concurrent_threads_keep_apart():
    """Each thread walks in its own work arrays: threads that predict different
    forests on different row counts at once get the per-tree oracle's values."""
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(23)
    jobs = []
    for n_queries, m in ((300, 2), (40, 3), (7, 1), (128, 4)):
        X = rng.normal(size=(48, m))
        y = (X[:, 0] + rng.normal(size=48) > 0).astype(float)
        forest = bm.train_forest(X, y, bm.ForestConfig(n_estimators=60, seed=n_queries))
        jobs.append((forest, rng.normal(size=(n_queries, m))))
    expected = [forest_predict(unstack(forest.stack), Q).tobytes() for forest, Q in jobs]

    def walk(job):
        forest, Q = job
        return [forest.predict_proba(Q).tobytes() for _ in range(20)]

    with ThreadPoolExecutor(max_workers=len(jobs)) as ex:
        for outs, want in zip(ex.map(walk, jobs), expected, strict=True):
            assert outs == [want] * 20


def test_stacked_walk_takes_the_depth_of_its_trees_not_of_the_config():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(80, 3))
    y = (X[:, 0] * X[:, 1] > 0).astype(float)
    forest = bm.train_forest(X, y, bm.ForestConfig(n_estimators=4, max_depth=6, seed=2))
    assert forest.stack.depth == 6
    restacked = bm.stack_trees(unstack(forest.stack))
    assert restacked.depth == 6
    assert restacked.predict(X).tobytes() == forest.predict_proba(X).tobytes()


def test_forest_needs_a_tree():
    X = np.random.default_rng(20).normal(size=(10, 2))
    y = (X[:, 0] > 0).astype(float)
    with pytest.raises(ValueError, match="at least one tree"):
        bm.train_forest(X, y, bm.ForestConfig(n_estimators=0))


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


def test_eval_variant_two_hidden_layers():
    X, y = _separable(n=120)
    model = bm.train_mlp(X, y, bm.MlpConfig(hidden_sizes=(12, 12), epochs=400, seed=0))
    assert len(model.weights) == 3
    assert model.weights[0].shape == (2, 12)
    assert model.weights[1].shape == (12, 12)


def test_mlp_without_hidden_layers_is_a_logistic_readout():
    X, y = _separable(n=40)
    model = bm.train_mlp(X, y, bm.MlpConfig(hidden_sizes=(), epochs=5))
    assert [w.shape for w in model.weights] == [(2, 1)]


@pytest.mark.parametrize("fields, message", [
    ({"epochs": 0}, "epochs must be at least 1"),
    ({"lr0": -1e-3}, "lr0 must be positive"),
    ({"hidden_sizes": (8, 0)}, "every hidden width must be at least 1"),
], ids=["no-epochs", "negative-lr0", "zero-width"])
def test_mlp_config_rejects_out_of_range_values(fields, message):
    with pytest.raises(ValueError, match=message):
        bm.MlpConfig(**fields)
