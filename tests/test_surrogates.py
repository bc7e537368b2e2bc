import numpy as np
import pytest

from oracles import autodiff_fit_mlp_regressor
from zeroshap import autodiff as ad
from zeroshap import surrogates as sg
from zeroshap.metrics import pearson


def linear_attribution_task(seed, n, m=3):
    """Ground truth: phi_ij = w_j * x_ij, predictions consistent by construction."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=m) * 2.0
    X = rng.normal(size=(n, m))
    phi = X * w
    v = 0.5
    y_hat = v + phi.sum(axis=1)
    return X, y_hat, phi


def make_refs(seed, k, m=3):
    X, y_hat, phi = linear_attribution_task(seed, k, m)
    return sg.ReferenceSet(X=X, y_hat=y_hat, phi=phi)


def test_reference_set_validation():
    with pytest.raises(ValueError, match="shapes"):
        sg.ReferenceSet(X=np.zeros((3, 2)), y_hat=np.zeros(3), phi=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="32"):
        make_refs(0, 40)


def test_knn_exact_match_returns_reference_phi():
    refs = make_refs(1, 5)
    g = sg.fit_surrogate("knn", refs)
    out = sg.predict_surrogate(g, refs.X[2:3], refs.y_hat[2:3])
    np.testing.assert_allclose(out[0], refs.phi[2], atol=1e-12)


def test_knn_identical_references_collapse():
    row_x = np.array([[0.5, -0.2]])
    refs = sg.ReferenceSet(
        X=np.vstack([row_x, row_x]),
        y_hat=np.array([0.4, 0.4]),
        phi=np.array([[0.1, -0.3], [0.1, -0.3]]),
    )
    g = sg.fit_surrogate("knn", refs)
    rng = np.random.default_rng(2)
    out = sg.predict_surrogate(g, rng.normal(size=(4, 2)), rng.uniform(size=4))
    np.testing.assert_allclose(out, np.tile([0.1, -0.3], (4, 1)), atol=1e-12)


def test_knn_convex_hull_bound():
    refs = make_refs(3, 8)
    g = sg.fit_surrogate("knn", refs)
    rng = np.random.default_rng(4)
    out = sg.predict_surrogate(g, rng.normal(size=(20, 3)), rng.uniform(size=20))
    lo = refs.phi.min(axis=0) - 1e-12
    hi = refs.phi.max(axis=0) + 1e-12
    assert np.all(out >= lo) and np.all(out <= hi)


def test_minimum_reference_counts():
    refs1 = make_refs(5, 1)
    sg.fit_surrogate("knn", refs1)  # allowed
    with pytest.raises(ValueError, match="at least 2"):
        sg.fit_surrogate("mlp_regressor", refs1)
    with pytest.raises(ValueError, match="at least 2"):
        sg.fit_surrogate("forest_regressor", refs1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown"):
        sg.fit_surrogate("gaussian_process", make_refs(6, 4))


def test_predict_shape_and_determinism():
    refs = make_refs(7, 6)
    rng = np.random.default_rng(8)
    Xq = rng.normal(size=(9, 3))
    yq = rng.uniform(size=9)
    for kind in ("knn", "mlp_regressor", "forest_regressor"):
        g = sg.fit_surrogate(kind, refs, rng=np.random.default_rng(0))
        a = sg.predict_surrogate(g, Xq, yq)
        b = sg.predict_surrogate(g, Xq, yq)
        assert a.shape == (9, 3)
        np.testing.assert_array_equal(a, b)


def test_predict_duplicate_queries_duplicate_outputs():
    refs = make_refs(9, 5)
    g = sg.fit_surrogate("forest_regressor", refs, rng=np.random.default_rng(1))
    Xq = np.vstack([refs.X[0], refs.X[0]])
    yq = np.array([refs.y_hat[0], refs.y_hat[0]])
    out = sg.predict_surrogate(g, Xq, yq)
    np.testing.assert_array_equal(out[0], out[1])


def test_predict_dimension_mismatch():
    g = sg.fit_surrogate("knn", make_refs(10, 4))
    with pytest.raises(ValueError):
        sg.predict_surrogate(g, np.zeros((2, 5)), np.zeros(2))


def test_forest_with_10_refs_beats_knn_with_1():
    forest_scores, knn_scores = [], []
    for seed in range(20):
        X, y_hat, phi = linear_attribution_task(1000 + seed, 40)
        refs10 = sg.ReferenceSet(X=X[:10], y_hat=y_hat[:10], phi=phi[:10])
        refs1 = sg.ReferenceSet(X=X[:1], y_hat=y_hat[:1], phi=phi[:1])
        Xq, yq, phiq = X[10:], y_hat[10:], phi[10:]
        forest = sg.fit_surrogate("forest_regressor", refs10, rng=np.random.default_rng(seed))
        knn = sg.fit_surrogate("knn", refs1)
        forest_scores.append(pearson(sg.predict_surrogate(forest, Xq, yq), phiq))
        try:
            knn_scores.append(pearson(sg.predict_surrogate(knn, Xq, yq), phiq))
        except ValueError:
            knn_scores.append(0.0)  # constant output has no defined correlation
    assert np.mean(forest_scores) > np.mean(knn_scores)


def test_knn_more_references_help_on_average():
    lo_scores, hi_scores = [], []
    for seed in range(20):
        X, y_hat, phi = linear_attribution_task(2000 + seed, 40)
        Xq, yq, phiq = X[10:], y_hat[10:], phi[10:]
        for k, scores in ((2, lo_scores), (10, hi_scores)):
            refs = sg.ReferenceSet(X=X[:k], y_hat=y_hat[:k], phi=phi[:k])
            g = sg.fit_surrogate("knn", refs)
            scores.append(pearson(sg.predict_surrogate(g, Xq, yq), phiq))
    assert np.mean(hi_scores) >= np.mean(lo_scores)


def test_mlp_regressor_learns_linear_map():
    X, y_hat, phi = linear_attribution_task(11, 40)
    refs = sg.ReferenceSet(X=X[:10], y_hat=y_hat[:10], phi=phi[:10])
    g = sg.fit_surrogate("mlp_regressor", refs, rng=np.random.default_rng(2))
    score = pearson(sg.predict_surrogate(g, X[10:], y_hat[10:]), phi[10:])
    assert score > 0.3


def _refs_case(case):
    kind, k, m = case
    X, y_hat, phi = linear_attribution_task(100 * k + m, k, m)
    if kind == "constant-phi":
        phi = np.full_like(phi, 0.25)
    elif kind == "tied":
        X[1], y_hat[1], phi[1] = X[0], y_hat[0], phi[0]
    return sg.ReferenceSet(X=X, y_hat=y_hat, phi=phi)


@pytest.mark.parametrize("case", [("linear", 2, 1), ("linear", 2, 8), ("linear", 5, 3),
                                  ("linear", 10, 8), ("constant-phi", 6, 4), ("tied", 4, 2)],
                         ids=lambda c: "-".join(map(str, c)))
def test_mlp_regressor_fit_bit_identical_to_autodiff_graph(case):
    refs = _refs_case(case)
    state = sg.fit_surrogate("mlp_regressor", refs, rng=np.random.default_rng(3)).state
    expected = autodiff_fit_mlp_regressor(refs, np.random.default_rng(3))
    assert state.keys() == expected.keys()
    for name in expected:
        assert np.array_equal(state[name], expected[name]), name


def test_mlp_regressor_fit_builds_no_graph(tensor_inits):
    sg.fit_surrogate("mlp_regressor", make_refs(12, 4))
    assert tensor_inits == []
    ad.Tensor(np.zeros(1))
    assert len(tensor_inits) == 1
