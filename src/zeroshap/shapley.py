"""Exact and permutation-sampled Shapley values under the interventional value function.

Coalition values are expectations over a background set with in-coalition
features overwritten by the explained row. One helper evaluates many
coalitions at once: it builds their overwritten background copies with one
``np.where`` and predicts them in slices of at most ``ROWS_PER_CALL`` rows.
Exact mode evaluates all 2^m coalitions of an instance that way and reuses
them across features; permutation mode evaluates each distinct prefix
coalition of the sampled feature orders once.

The predictions of a coalition's rows are bit-identical to predicting those
rows alone only when the model's arithmetic does not depend on a row's
position in the call. OpenBLAS computes the last ``rows mod 4`` rows of a
matrix product with a tail kernel, so an MLP's coalition values can move in
the last bits (about 1e-17) when the background row count is not a multiple
of 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Rows per predict_fn call. It bounds the memory of the overwritten
# background copies and of the model's temporaries: at 512 rows, the base
# MLP's (rows, 100) hidden arrays outgrow glibc's heap-trim threshold, so
# every call page-faults them in afresh and Shapley labelling runs slower.
ROWS_PER_CALL = 256


@dataclass
class ShapConfig:
    mode: str = "hybrid"  # exact | permutation | hybrid
    exact_max_features: int = 10
    n_permutations: int = 200
    background: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_permutations < 1:
            raise ValueError("n_permutations must be at least 1")
        if self.mode not in ("exact", "permutation", "hybrid"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class ShapResult:
    phi: np.ndarray
    base_value: float
    estimator: str
    residuals: np.ndarray = field(repr=False)


def _coalition_values(predict_fn, x: np.ndarray, members: np.ndarray, background) -> np.ndarray:
    """Mean prediction per coalition; ``members`` is a boolean (coalitions, m) matrix.

    Boolean rows rather than integer bitmasks, so that permutation mode has
    no limit on m. Each slice holds as many whole coalitions as fit in ``ROWS_PER_CALL``
    rows, and at least one.
    """
    background = np.asarray(background, dtype=np.float64)
    if background.size == 0:
        raise ValueError("background set must be non-empty")
    x = np.asarray(x, dtype=np.float64).ravel()
    step = max(1, ROWS_PER_CALL // background.shape[0])
    values = np.empty(len(members))
    for start in range(0, len(members), step):
        block = members[start : start + step]
        rows = np.where(block[:, None, :], x, background).reshape(-1, x.size)
        values[start : start + len(block)] = np.mean(
            np.reshape(predict_fn(rows), (len(block), -1)), axis=1
        )
    return values


def coalition_value(predict_fn, x: np.ndarray, coalition, background: np.ndarray) -> float:
    """Interventional expectation: overwrite coalition features with x, average predictions."""
    x = np.asarray(x, dtype=np.float64).ravel()
    member = np.zeros((1, x.size), dtype=bool)
    member[0, list(coalition)] = True
    return float(_coalition_values(predict_fn, x, member, background)[0])


def shapley_weight(subset_size: int, m: int) -> float:
    """Coalition weight |S|! (m - |S| - 1)! / m!."""
    return math.factorial(subset_size) * math.factorial(m - subset_size - 1) / math.factorial(m)


def exact_shapley(predict_fn, x: np.ndarray, background: np.ndarray,
                  max_features: int = 10) -> np.ndarray:
    """Full coalition enumeration; 2^m coalition values shared across features."""
    x = np.asarray(x, dtype=np.float64).ravel()
    m = x.size
    if m > max_features:
        raise ValueError(
            f"{m} features exceeds the exact enumeration limit of {max_features}; use permutation mode"
        )
    members = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(bool)
    values = _coalition_values(predict_fn, x, members, background).tolist()
    weights = [shapley_weight(s, m) for s in range(m)]
    phi = np.zeros(m)
    for mask in range(1 << m):
        size = bin(mask).count("1")
        base = values[mask]
        for j in range(m):
            bit = 1 << j
            if mask & bit:
                continue
            phi[j] += weights[size] * (values[mask | bit] - base)
    return phi


def permutation_shapley(predict_fn, x: np.ndarray, background: np.ndarray,
                        n_perms: int, rng: np.random.Generator) -> np.ndarray:
    """Average prefix marginal contributions over sampled feature orders.

    Each distinct prefix coalition is evaluated once, which changes no
    estimate: each permutation's telescoping sum is exact, so the estimator
    stays unbiased and exactly efficient per instance.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    m = x.size
    orders = np.array([rng.permutation(m) for _ in range(n_perms)])
    # prefix k of an order holds the features whose rank in it is below k
    ranks = np.argsort(orders, axis=1)
    prefixes = (ranks[:, None, :] < np.arange(m + 1)[None, :, None]).reshape(-1, m)
    # distinct prefixes by a sort over the rows: np.unique(axis=0) took 2 ms
    # per instance at m = 5 and 200 orders, this about 0.1 ms
    by_row = np.lexsort(prefixes.T)
    ordered = prefixes[by_row]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[by_row] = np.cumsum(first) - 1
    values = _coalition_values(predict_fn, x, ordered[first], background)
    prefix_values = values[inverse.reshape(n_perms, m + 1)]
    phi = np.zeros(m)
    # np.add.at adds in index order: per feature, the permutations' terms in draw order
    np.add.at(phi, orders.ravel(), np.diff(prefix_values, axis=1).ravel())
    return phi / n_perms


def hybrid_shapley(predict_fn, X: np.ndarray, config: ShapConfig) -> ShapResult:
    """Exact when m fits the enumeration budget, permutation sampling otherwise."""
    X = np.asarray(X, dtype=np.float64)
    n, m = X.shape
    background = config.background
    if background is None or np.asarray(background).size == 0:
        raise ValueError("config.background must be a non-empty matrix")
    background = np.asarray(background, dtype=np.float64)

    if config.mode == "exact" or (config.mode == "hybrid" and m <= config.exact_max_features):
        estimator = "exact"
    else:
        estimator = "permutation"

    base_value = coalition_value(predict_fn, X[0], [], background)

    def explain_row(i: int) -> np.ndarray:
        if estimator == "exact":
            return exact_shapley(predict_fn, X[i], background, max_features=max(m, config.exact_max_features))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(i,)))
        return permutation_shapley(predict_fn, X[i], background, config.n_permutations, rng)

    phi = np.vstack([explain_row(i) for i in range(n)])
    predictions = np.asarray(predict_fn(X), dtype=np.float64).ravel()
    residuals = predictions - base_value - phi.sum(axis=1)
    return ShapResult(phi=phi, base_value=base_value, estimator=estimator, residuals=residuals)


def subsample_background(X: np.ndarray, rng: np.random.Generator, size: int = 64) -> np.ndarray:
    """Default background: up to ``size`` rows drawn from the task's own X."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] <= size:
        return X.copy()
    idx = rng.choice(X.shape[0], size=size, replace=False)
    return X[np.sort(idx)]
