import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeroshap import scm


def test_two_node_dag_single_edge():
    rng = np.random.default_rng(0)
    dag = scm.sample_dag(rng, scm.TaskGenConfig(node_range=(2, 2), max_subgraphs=1))
    assert dag.node_count == 2
    assert dag.edges == [(1, 0)]


def test_zero_redirection_gives_recursive_tree():
    # every non-root node has exactly one tree parent (its attachment target)
    rng = np.random.default_rng(1)
    for _ in range(50):
        dag = scm.sample_dag(rng, scm.TaskGenConfig(node_range=(5, 10), redirect_dist="zero", max_subgraphs=1))
        outdeg = np.zeros(dag.node_count, dtype=int)
        for src, _ in dag.edges:
            outdeg[src] += 1
        assert outdeg[0] == 0
        assert (outdeg[1:] == 1).all()


def test_redirection_creates_heavier_in_degree_tail():
    # Monte-Carlo: uniform redirection probability vs none, compare max in-degree
    def mean_max_indegree(redirect_dist, seed):
        rng = np.random.default_rng(seed)
        totals = []
        for _ in range(1000):
            dag = scm.sample_dag(
                rng, scm.TaskGenConfig(node_range=(8, 10), redirect_dist=redirect_dist, max_subgraphs=1))
            indeg = np.zeros(dag.node_count, dtype=int)
            for _, child in dag.edges:
                indeg[child] += 1
            totals.append(indeg.max())
        return np.mean(totals)

    assert mean_max_indegree("uniform", 2) > mean_max_indegree("zero", 2)


def test_every_sampled_dag_is_acyclic():
    rng = np.random.default_rng(3)
    for _ in range(200):
        dag = scm.sample_dag(rng, scm.TaskGenConfig(node_range=(2, 10), max_subgraphs=3))
        order = dag.topological_order()
        assert len(order) == dag.node_count


def test_sampled_dag_node_ids_are_python_ints():
    # on the growth steps and on the connect steps alike
    rng = np.random.default_rng(4)
    for _ in range(50):
        dag = scm.sample_dag(rng, scm.TaskGenConfig(node_range=(4, 12), max_subgraphs=3, connect_prob=1.0))
        assert all(type(node) is int for edge in dag.edges for node in edge)


def test_bad_node_range_rejected():
    with pytest.raises(ValueError):
        scm.TaskGenConfig(node_range=(5, 4))
    with pytest.raises(ValueError):
        scm.TaskGenConfig(node_range=(1, 3))


def test_activation_definitions():
    assert scm.apply_activation("identity", 2.0) == 2.0
    assert scm.apply_activation("abs", -3.0) == 3.0
    assert scm.apply_activation("step", -1.0) == 0.0
    assert scm.apply_activation("log", 0.0) == pytest.approx(np.log(1e-8))


def test_rank_fractional_normalization():
    out = scm.apply_activation("rank", np.array([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(out, [1.0, 0.0, 0.5])


def test_rank_ties_share_their_mean_position():
    out = scm.apply_activation("rank", np.array([2.0, 1.0, 2.0, 2.0, 0.0]))
    np.testing.assert_array_equal(out, [0.75, 0.25, 0.75, 0.75, 0.0])
    np.testing.assert_array_equal(scm.apply_activation("rank", np.array([5.0])), [0.0])


def test_rank_rejects_scalar():
    with pytest.raises(ValueError):
        scm.apply_activation("rank", 1.0)


def test_power_and_modulo_tags():
    np.testing.assert_allclose(scm.apply_activation("power:3", np.array([-2.0])), [-8.0])
    np.testing.assert_allclose(scm.apply_activation("modulo:1.5", np.array([3.2])), [0.2])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_sampled_tags_apply_cleanly(seed):
    rng = np.random.default_rng(seed)
    tag = scm.sample_activation_tag(rng)
    col = rng.normal(size=16)
    out = scm.apply_activation(tag, col)
    assert np.all(np.isfinite(out))


def test_propagate_single_root_standardized():
    dag = scm.DagSpec(1, [], [], ["normal"])
    values = scm.propagate(dag, 100, np.random.default_rng(0))
    assert abs(values[:, 0].mean()) < 1e-9
    assert abs(values[:, 0].std() - 1.0) < 1e-9


def test_propagate_identity_chain_correlates():
    dag = scm.DagSpec(2, [(0, 1)], ["identity"], ["normal", "normal"])
    values = scm.propagate(dag, 1000, np.random.default_rng(4), child_noise_scale=0.1)
    corr = np.corrcoef(values[:, 0], values[:, 1])[0, 1]
    assert abs(corr) > 0.5


def test_propagate_all_sine_finite_and_standardized():
    edges = [(0, 1), (1, 2), (0, 2)]
    dag = scm.DagSpec(3, edges, ["sin"] * 3, ["normal"] * 3)
    values = scm.propagate(dag, 256, np.random.default_rng(5))
    assert np.all(np.isfinite(values))
    for col in values.T:
        assert abs(col.mean()) < 1e-9
        assert abs(col.std() - 1.0) < 1e-9


def test_propagate_needs_min_samples():
    dag = scm.DagSpec(1, [], [], ["normal"])
    with pytest.raises(ValueError):
        scm.propagate(dag, 4, np.random.default_rng(0))


def test_select_task_median_split_balanced():
    dag = scm.DagSpec(2, [(0, 1)], ["identity"], ["normal", "normal"])
    values = scm.propagate(dag, 1000, np.random.default_rng(6))

    class FixedQuantileRng:
        def __init__(self, inner):
            self.inner = inner

        def integers(self, *a, **k):
            return self.inner.integers(*a, **k)

        def permutation(self, *a, **k):
            return self.inner.permutation(*a, **k)

        def uniform(self, low=0.0, high=1.0, size=None):
            return 0.5 if size is None else self.inner.uniform(low, high, size)

    task = scm.select_task(dag, values, FixedQuantileRng(np.random.default_rng(7)), m_max=1, seed=0)
    ratio = task.y.mean()
    assert 0.45 <= ratio <= 0.55


def test_select_task_m_max_bound():
    dag = scm.DagSpec(4, [(0, 1), (1, 2), (2, 3)], ["identity"] * 3, ["normal"] * 4)
    values = scm.propagate(dag, 64, np.random.default_rng(8))
    task = scm.select_task(dag, values, np.random.default_rng(9), m_max=1, seed=0)
    assert task.m == 1


def test_select_task_rejects_constant_target():
    dag = scm.DagSpec(2, [(0, 1)], ["identity"], ["normal", "normal"])
    values = scm.propagate(dag, 64, np.random.default_rng(10))
    values = values.copy()
    values[:, :] = 0.0  # constant columns cannot be thresholded into two classes
    with pytest.raises(scm.TaskRejected):
        scm.select_task(dag, values, np.random.default_rng(11), m_max=1, seed=0)


def test_sample_task_deterministic_per_seed():
    cfg = scm.TaskGenConfig(n_range=(32, 64))
    a = scm.sample_task(123, cfg)
    b = scm.sample_task(123, cfg)
    assert a.feature_nodes == b.feature_nodes
    assert a.target_node == b.target_node
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.target_labels, b.target_labels)


def test_sample_task_columns_standardized():
    cfg = scm.TaskGenConfig(n_range=(32, 64), max_subgraphs=3)
    for seed in range(20):
        task = scm.sample_task(seed, cfg)
        for col in task.samples.T:
            assert abs(col.mean()) < 1e-9
            assert abs(col.std() - 1.0) < 1e-9


def test_disconnected_subgraphs_possible():
    cfg = scm.TaskGenConfig(node_range=(8, 10), max_subgraphs=3, connect_prob=0.2, n_range=(32, 32))
    seen_multi = False
    for seed in range(40):
        task = scm.sample_task(seed, cfg)
        # growth adds one edge per non-root node, so a forest of c trees has node_count - c edges
        if len(task.dag.edges) < task.dag.node_count - 1:
            seen_multi = True
            break
    assert seen_multi
