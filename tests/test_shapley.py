import numpy as np
import pytest

from conftest import random_mlp
from oracles import brute_force_shapley, loop_permutation_shapley
from zeroshap import shapley as sh


def linear_predictor(w, b):
    w = np.asarray(w, dtype=np.float64)

    def predict(X):
        return X @ w + b

    return predict


def test_coalition_full_set_is_prediction():
    predict = linear_predictor([1.0, 2.0], 0.5)
    x = np.array([3.0, -1.0])
    bg = np.random.default_rng(0).normal(size=(16, 2))
    v = sh.coalition_value(predict, x, [0, 1], bg)
    assert v == pytest.approx(predict(x[None, :])[0], abs=1e-12)


def test_coalition_empty_set_is_base_value():
    predict = linear_predictor([1.0, 2.0], 0.5)
    bg = np.random.default_rng(1).normal(size=(16, 2))
    v = sh.coalition_value(predict, np.zeros(2), [], bg)
    assert v == pytest.approx(np.mean(predict(bg)), abs=1e-12)


def test_coalition_linear_closed_form():
    rng = np.random.default_rng(2)
    w = rng.normal(size=4)
    predict = linear_predictor(w, 1.3)
    bg = rng.normal(size=(32, 4))
    x = rng.normal(size=4)
    S = [1, 3]
    v = sh.coalition_value(predict, x, S, bg)
    mean = bg.mean(axis=0)
    expected = w[1] * x[1] + w[3] * x[3] + w[0] * mean[0] + w[2] * mean[2] + 1.3
    assert v == pytest.approx(expected, abs=1e-12)


def test_coalition_rejects_empty_background():
    with pytest.raises(ValueError, match="background"):
        sh.coalition_value(lambda X: X.sum(axis=1), np.zeros(2), [0], np.zeros((0, 2)))


def test_shapley_weights_m3():
    assert sh.shapley_weight(0, 3) == pytest.approx(1.0 / 3.0)
    assert sh.shapley_weight(1, 3) == pytest.approx(1.0 / 6.0)


def test_exact_linear_model():
    predict = linear_predictor([2.0, -1.0], 1.0)
    bg = np.array([[1.0, -1.0], [-1.0, 1.0]])  # background mean (0, 0)
    phi = sh.exact_shapley(predict, np.array([1.0, 1.0]), bg)
    np.testing.assert_allclose(phi, [2.0, -1.0], atol=1e-12)
    assert sh.coalition_value(predict, np.zeros(2), [], bg) == pytest.approx(1.0)


def test_exact_matches_brute_force_bitwise_product():
    def predict(X):
        return X[:, 0] * X[:, 1]

    bg = np.array([[0.0, 0.0], [1.0, 1.0]])
    x = np.array([1.0, 0.0])
    engine = sh.exact_shapley(predict, x, bg)
    oracle = brute_force_shapley(predict, x, bg)
    assert np.array_equal(engine, oracle)
    np.testing.assert_allclose(engine, [0.0, -0.5], atol=1e-15)


def test_exact_matches_brute_force_bitwise_mlp():
    for seed in range(5):
        m = int(np.random.default_rng(seed).integers(2, 6))
        model = random_mlp(m, seed)
        rng = np.random.default_rng(100 + seed)
        bg = rng.normal(size=(16, m))
        x = rng.normal(size=m)
        engine = sh.exact_shapley(model.predict, x, bg)
        oracle = brute_force_shapley(model.predict, x, bg)
        assert np.array_equal(engine, oracle)


def _counting(predict):
    calls = []

    def counted(X):
        calls.append(X.shape[0])
        return predict(X)

    return counted, calls


def test_coalitions_of_one_instance_share_one_predict_call():
    model = random_mlp(3, 31)
    rng = np.random.default_rng(32)
    bg = rng.normal(size=(16, 3))
    x = rng.normal(size=3)
    predict, calls = _counting(model.predict)
    sh.exact_shapley(predict, x, bg)
    assert calls == [8 * 16]
    calls.clear()
    sh.permutation_shapley(predict, x, bg, 20, np.random.default_rng(0))
    assert len(calls) == 1


def test_exact_near_brute_force_when_background_rows_not_multiple_of_4():
    # a BLAS tail kernel handles the last rows mod 4 of a product, so a row's
    # last bits may depend on its place in the batched call
    model = random_mlp(4, 33)
    rng = np.random.default_rng(34)
    bg = rng.normal(size=(33, 4))
    x = rng.normal(size=4)
    engine = sh.exact_shapley(model.predict, x, bg)
    oracle = brute_force_shapley(model.predict, x, bg)
    assert np.max(np.abs(engine - oracle)) <= 4 * 2**4 * np.finfo(np.float64).eps


def test_exact_slices_large_coalition_batches_bitwise():
    m = 5
    model = random_mlp(m, 35)
    rng = np.random.default_rng(36)
    bg = rng.normal(size=(64, m))
    x = rng.normal(size=m)
    assert 2**m * bg.shape[0] > sh.ROWS_PER_CALL
    predict, calls = _counting(model.predict)
    engine = sh.exact_shapley(predict, x, bg)
    assert calls == [sh.ROWS_PER_CALL] * (2**m * bg.shape[0] // sh.ROWS_PER_CALL)
    assert np.array_equal(engine, brute_force_shapley(model.predict, x, bg))


def test_permutation_matches_loop_reference_bitwise():
    for seed in range(3):
        m = 2 + seed
        model = random_mlp(m, 37 + seed)
        rng = np.random.default_rng(40 + seed)
        bg = rng.normal(size=(16, m))
        x = rng.normal(size=m)
        engine = sh.permutation_shapley(model.predict, x, bg, 30, np.random.default_rng(seed))
        oracle = loop_permutation_shapley(model.predict, x, bg, 30, np.random.default_rng(seed))
        assert np.array_equal(engine, oracle)


def test_exact_feature_cap():
    with pytest.raises(ValueError, match="permutation"):
        sh.exact_shapley(lambda X: X.sum(axis=1), np.zeros(12), np.zeros((4, 12)), max_features=10)


class _TwoOrderRng:
    """Deterministic permutation source covering both orders at m = 2."""

    def __init__(self):
        self.calls = 0

    def permutation(self, m):
        self.calls += 1
        return np.array([0, 1]) if self.calls % 2 == 1 else np.array([1, 0])


def test_permutation_complete_enumeration_m2():
    model = random_mlp(2, 42)
    rng = np.random.default_rng(3)
    bg = rng.normal(size=(8, 2))
    x = rng.normal(size=2)
    exact = sh.exact_shapley(model.predict, x, bg)
    perm = sh.permutation_shapley(model.predict, x, bg, 2, _TwoOrderRng())
    np.testing.assert_allclose(perm, exact, atol=1e-12)


def test_permutation_single_feature():
    model = random_mlp(1, 5)
    rng = np.random.default_rng(4)
    bg = rng.normal(size=(8, 1))
    x = rng.normal(size=1)
    phi = sh.permutation_shapley(model.predict, x, bg, 7, np.random.default_rng(0))
    fx = model.predict(x[None, :])[0]
    v = sh.coalition_value(model.predict, x, [], bg)
    assert phi[0] == pytest.approx(fx - v, abs=1e-12)


def test_permutation_close_to_exact_m5():
    model = random_mlp(5, 9)
    rng = np.random.default_rng(6)
    bg = rng.normal(size=(64, 5))
    x = rng.normal(size=5)
    exact = sh.exact_shapley(model.predict, x, bg)
    perm = sh.permutation_shapley(model.predict, x, bg, 200, np.random.default_rng(7))
    assert np.max(np.abs(perm - exact)) < 0.02


def test_permutation_linear_model_beyond_64_features():
    # a linear model's marginal contribution of j is w_j (x_j - bg_j) in every order
    rng = np.random.default_rng(45)
    w = rng.normal(size=70)
    bg = rng.normal(size=(8, 70))
    x = rng.normal(size=70)
    phi = sh.permutation_shapley(linear_predictor(w, 0.3), x, bg, 3, np.random.default_rng(0))
    np.testing.assert_allclose(phi, w * (x - bg.mean(axis=0)), atol=1e-9)


def test_permutation_is_efficient_per_instance():
    model = random_mlp(4, 11)
    rng = np.random.default_rng(8)
    bg = rng.normal(size=(16, 4))
    x = rng.normal(size=4)
    phi = sh.permutation_shapley(model.predict, x, bg, 3, np.random.default_rng(1))
    v = sh.coalition_value(model.predict, x, [], bg)
    fx = model.predict(x[None, :])[0]
    assert v + phi.sum() == pytest.approx(fx, abs=1e-9)


def test_dummy_feature_gets_zero():
    rng = np.random.default_rng(12)
    for seed in range(5):
        model = random_mlp(4, 200 + seed)
        model.weights[0][2, :] = 0.0  # feature 2 is ignored
        bg = rng.normal(size=(16, 4))
        x = rng.normal(size=4)
        phi = sh.exact_shapley(model.predict, x, bg)
        assert abs(phi[2]) < 1e-9


def test_symmetry_swapping_interchangeable_columns():
    rng = np.random.default_rng(13)
    for seed in range(5):
        model = random_mlp(3, 300 + seed)
        model.weights[0][1, :] = model.weights[0][0, :]  # features 0, 1 identical roles
        bg = rng.normal(size=(12, 3))
        x = rng.normal(size=3)
        phi = sh.exact_shapley(model.predict, x, bg)
        swap = [1, 0, 2]
        phi_swapped = sh.exact_shapley(model.predict, x[swap], bg[:, swap])
        np.testing.assert_allclose(phi_swapped, phi[swap], atol=1e-12, rtol=0)


def test_linearity_of_attributions():
    rng = np.random.default_rng(14)
    for seed in range(5):
        m1 = random_mlp(3, 400 + seed)
        m2 = random_mlp(3, 500 + seed)
        a, b = 1.7, -0.6

        def combined(X):
            return a * m1.predict(X) + b * m2.predict(X)

        bg = rng.normal(size=(12, 3))
        x = rng.normal(size=3)
        phi_combined = sh.exact_shapley(combined, x, bg)
        phi_1 = sh.exact_shapley(m1.predict, x, bg)
        phi_2 = sh.exact_shapley(m2.predict, x, bg)
        np.testing.assert_allclose(phi_combined, a * phi_1 + b * phi_2, atol=1e-9)


def test_hybrid_dispatch_tags():
    rng = np.random.default_rng(15)
    model4 = random_mlp(4, 1)
    X4 = rng.normal(size=(6, 4))
    cfg = sh.ShapConfig(background=X4, exact_max_features=10)
    assert sh.hybrid_shapley(model4.predict, X4, cfg).estimator == "exact"

    model12 = random_mlp(12, 2)
    X12 = rng.normal(size=(4, 12))
    cfg = sh.ShapConfig(background=X12, exact_max_features=10, n_permutations=5)
    assert sh.hybrid_shapley(model12.predict, X12, cfg).estimator == "permutation"


def test_hybrid_exact_efficiency_residuals():
    rng = np.random.default_rng(16)
    model = random_mlp(4, 3)
    X = rng.normal(size=(10, 4))
    cfg = sh.ShapConfig(background=X)
    result = sh.hybrid_shapley(model.predict, X, cfg)
    assert np.max(np.abs(result.residuals)) < 1e-9
    assert result.base_value == pytest.approx(np.mean(model.predict(X)), abs=1e-12)


def test_permutation_unbiased():
    model = random_mlp(5, 21)
    rng = np.random.default_rng(22)
    bg = rng.normal(size=(32, 5))
    x = rng.normal(size=5)
    exact = sh.exact_shapley(model.predict, x, bg)
    estimates = np.array(
        [sh.permutation_shapley(model.predict, x, bg, 20, np.random.default_rng(1000 + r)) for r in range(50)]
    )
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(estimates.shape[0])
    assert np.all(np.abs(mean - exact) < 3 * np.maximum(se, 1e-12))


def test_subsample_background():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(200, 3))
    bg = sh.subsample_background(X, np.random.default_rng(0), size=64)
    assert bg.shape == (64, 3)
    small = sh.subsample_background(X[:10], np.random.default_rng(0), size=64)
    assert small.shape == (10, 3)


def test_disconnected_feature_attributions_concentrate_near_zero():
    # two-component DAG: nodes {0, 1} with 1 -> 0, nodes {2, 3} with 3 -> 2;
    # the target is node 0, features are node 1 (connected) and node 3 (not)
    from zeroshap import base_models as bm
    from zeroshap import scm

    dag = scm.DagSpec(
        node_count=4,
        edges=[(1, 0), (3, 2)],
        edge_activation=["identity", "identity"],
        noise_dist=["normal"] * 4,
        subgraph_id=[0, 0, 1, 1],
    )
    values = scm.propagate(dag, 400, np.random.default_rng(0), child_noise_scale=0.3)
    labels = (values[:, 0] > np.quantile(values[:, 0], 0.5)).astype(np.int64)
    task = scm.ScmTask(dag=dag, samples=values, feature_nodes=[1, 3], target_node=0,
                       target_labels=labels, seed=0)
    model = bm.train_mlp(task.X, task.y, bm.MlpConfig(hidden_sizes=(16,), epochs=400))
    result = sh.hybrid_shapley(model.predict, task.X,
                               sh.ShapConfig(background=task.X[:64], seed=0))
    mean_abs = np.abs(result.phi).mean(axis=0)
    assert mean_abs[1] < mean_abs[0]  # disconnected feature attribution is smaller
