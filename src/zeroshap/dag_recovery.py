"""Recover data-generating DAG structure from per-feature attribution passes.

Each feature column takes a turn as the prediction column: the remaining
features are explained against it, the corrected mean absolute attribution of
feature k becomes the weight of the candidate edge k -> j, and the top-E
edges at each budget are compared to the true induced feature subgraph by
graph edit distance. Node identities are fixed (nodes are named features), so
the edit distance reduces exactly to the edge-set symmetric difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .explainer import ExplainerWeights, explain_zero_shot
from .postprocess import full_pipeline
from .scm import ScmTask


@dataclass
class DagRecoveryResult:
    edge_weights: np.ndarray
    budgets: list[int]
    kept_edges: dict[int, list[tuple[int, int]]]
    ged_per_budget: dict[int, int]
    random_ged_per_budget: dict[int, int] = field(default_factory=dict)
    true_edges: list[tuple[int, int]] = field(default_factory=list)


def graph_edit_distance(edges_a, edges_b) -> int:
    """Symmetric-difference size between directed edge sets with fixed node labels."""
    return len(set(edges_a) ^ set(edges_b))


def induced_feature_edges(task: ScmTask) -> list[tuple[int, int]]:
    """True DAG edges between feature nodes, relabeled to feature indices."""
    index_of = {node: i for i, node in enumerate(task.feature_nodes)}
    out = []
    for parent, child in task.dag.edges:
        if parent in index_of and child in index_of:
            out.append((index_of[parent], index_of[child]))
    return sorted(out)


def top_edges(weight_matrix: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Highest-weight off-diagonal edges; deterministic tie-breaking by (k, j)."""
    m = weight_matrix.shape[0]
    candidates = [(k, j) for k in range(m) for j in range(m) if k != j]
    ranked = sorted(candidates, key=lambda e: (-weight_matrix[e], e))
    return sorted(ranked[: min(budget, len(ranked))])


def attribution_edge_weights(weights: ExplainerWeights, X: np.ndarray) -> np.ndarray:
    """W[k, j]: corrected mean |attribution| of feature k when explaining column j."""
    X = np.asarray(X, dtype=np.float64)
    m = X.shape[1]
    if m < 2:
        raise ValueError("need at least two feature columns to recover edges")
    W = np.zeros((m, m))
    for j in range(m):
        others = [k for k in range(m) if k != j]
        raw = explain_zero_shot(weights, X[:, others], X[:, j])
        corrected = full_pipeline(raw, X[:, j])
        mean_abs = np.abs(corrected).mean(axis=0)
        for pos, k in enumerate(others):
            W[k, j] = mean_abs[pos]
    return W


def dag_recovery(weights: ExplainerWeights, task: ScmTask,
                 edge_budgets=(3, 5, 7), rng: np.random.Generator | None = None) -> DagRecoveryResult:
    """Reconstruct the feature subgraph at each edge budget, with a random baseline.

    The task's designated target column is excluded before any attribution
    pass (only feature columns participate).
    """
    X = task.X
    W = attribution_edge_weights(weights, X)
    true_edges = induced_feature_edges(task)
    budgets = sorted(int(b) for b in edge_budgets)
    kept = {}
    ged = {}
    for budget in budgets:
        kept[budget] = top_edges(W, budget)
        ged[budget] = graph_edit_distance(true_edges, kept[budget])
    result = DagRecoveryResult(
        edge_weights=W,
        budgets=budgets,
        kept_edges=kept,
        ged_per_budget=ged,
        true_edges=true_edges,
    )
    if rng is not None:
        random_w = rng.uniform(size=W.shape)
        np.fill_diagonal(random_w, 0.0)
        for budget in budgets:
            result.random_ged_per_budget[budget] = graph_edit_distance(
                true_edges, top_edges(random_w, budget)
            )
    return result
