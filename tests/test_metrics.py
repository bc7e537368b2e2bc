import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_mlp
from zeroshap.dag_recovery import (
    attribution_edge_weights,
    dag_recovery,
    graph_edit_distance,
    induced_feature_edges,
    top_edges,
)
from zeroshap import metrics as mt
from zeroshap import shapley as sh
from zeroshap.scm import DagSpec, ScmTask


def test_pearson_identity_and_negation():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 3))
    assert mt.pearson(a, a) == pytest.approx(1.0)
    assert mt.pearson(a, -a) == pytest.approx(-1.0)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 4))
    assert mt.pearson(a, 2.0 * a + 3.0) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(0.01, 100), st.floats(-100, 100))
@settings(max_examples=40, deadline=None)
def test_pearson_positive_affine_invariance_property(scale, shift):
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 3))
    b = rng.normal(size=(8, 3))
    base = mt.pearson(a, b)
    assert mt.pearson(scale * a + shift, b) == pytest.approx(base, abs=1e-12)


def test_pearson_zero_variance_error():
    with pytest.raises(ValueError, match="zero variance"):
        mt.pearson(np.ones((3, 2)), np.random.default_rng(0).normal(size=(3, 2)))


def test_jaccard_examples():
    # top-2 sets {1, 2} vs {2, 3} -> 1/3
    a = np.array([0.0, 5.0, 4.0, 0.1])
    b = np.array([0.0, 0.1, 5.0, 4.0])
    assert mt.jaccard_topk(a, b, 2) == pytest.approx(1.0 / 3.0)
    assert mt.jaccard_topk(a, a, 2) == 1.0


def test_jaccard_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        assert mt.jaccard_topk(a, b, 2) == mt.jaccard_topk(b, a, 2)


def test_jaccard_tie_break_lower_index():
    a = np.array([1.0, 1.0, 0.5])
    assert mt.topk_indices(a, 1) == {0}


def test_jaccard_k_bounds():
    with pytest.raises(ValueError):
        mt.jaccard_topk(np.ones(3), np.ones(3), 4)


def test_default_topk_third():
    assert mt.default_topk(4) == 1
    assert mt.default_topk(3) == 1
    assert mt.default_topk(9) == 3
    assert mt.default_topk(2) == 1


def test_measure_runtime_noop():
    assert mt.measure_runtime(lambda: None, repetitions=5) < 1e-3


def test_measure_runtime_monotone_in_instances():
    model = random_mlp(4, 0)
    rng = np.random.default_rng(4)
    bg = rng.normal(size=(16, 4))

    def run(n):
        X = rng.normal(size=(n, 4))
        return mt.measure_runtime(
            lambda: sh.hybrid_shapley(model.predict, X, sh.ShapConfig(background=bg)),
            repetitions=3,
        )

    assert run(16) < run(32)


def test_measure_runtime_normalization():
    t = mt.measure_runtime(lambda: time.sleep(0.01), repetitions=3, contributions=100)
    assert t == pytest.approx(0.1, rel=0.6)


def _task_for_recovery(m=4, n=48, seed=0):
    # chain 1 -> 0, 2 -> 1, 3 -> 2 among features; node 4 is the discarded target
    dag = DagSpec(
        node_count=5,
        edges=[(1, 0), (2, 1), (3, 2), (4, 0)],
        edge_activation=["identity"] * 4,
        noise_dist=["normal"] * 5,
        subgraph_id=[0] * 5,
    )
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(n, 5))
    labels = (samples[:, 4] > 0).astype(np.int64)
    return ScmTask(dag=dag, samples=samples, feature_nodes=[0, 1, 2, 3],
                   target_node=4, target_labels=labels, seed=seed)


def test_ged_definition():
    assert graph_edit_distance([(0, 1)], [(0, 1)]) == 0
    assert graph_edit_distance([(0, 1)], [(0, 1), (2, 3)]) == 1
    assert graph_edit_distance([(0, 1)], [(1, 0)]) == 2


def test_ged_matches_brute_force_sets():
    rng = np.random.default_rng(5)
    for _ in range(30):
        ea = {(int(a), int(b)) for a, b in rng.integers(0, 5, size=(4, 2))}
        eb = {(int(a), int(b)) for a, b in rng.integers(0, 5, size=(4, 2))}
        expected = len(ea | eb) - len(ea & eb)
        assert graph_edit_distance(ea, eb) == expected


def test_induced_feature_edges():
    task = _task_for_recovery()
    assert induced_feature_edges(task) == [(1, 0), (2, 1), (3, 2)]


def test_top_edges_deterministic():
    W = np.array([[0.0, 0.9], [0.9, 0.0]])
    assert top_edges(W, 1) == [(0, 1)]  # tie broken toward lower (k, j)


def test_recovered_edges_match_true_when_weights_perfect():
    task = _task_for_recovery()
    W = np.zeros((4, 4))
    for k, j in induced_feature_edges(task):
        W[k, j] = 1.0
    assert top_edges(W, 3) == induced_feature_edges(task)
    assert graph_edit_distance(top_edges(W, 3), induced_feature_edges(task)) == 0


def test_dag_recovery_runs_with_untrained_weights():
    from test_explainer import small_weights

    task = _task_for_recovery(n=24)
    weights = small_weights(random_head=True, seed=1)
    result = dag_recovery(weights, task, edge_budgets=(2, 3), rng=np.random.default_rng(0))
    assert result.budgets == [2, 3]
    assert set(result.ged_per_budget) == {2, 3}
    assert set(result.random_ged_per_budget) == {2, 3}
    assert all(g >= 0 for g in result.ged_per_budget.values())
    assert result.edge_weights.shape == (4, 4)
    assert len(result.kept_edges[2]) == 2


def test_dag_recovery_needs_two_features():
    from test_explainer import small_weights

    weights = small_weights()
    with pytest.raises(ValueError, match="two feature"):
        attribution_edge_weights(weights, np.zeros((10, 1)))
