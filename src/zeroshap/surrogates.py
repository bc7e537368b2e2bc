"""Few-shot surrogate explainers fitted on k reference (x, y_hat, phi) rows.

Each surrogate is a joint multi-output regression from (x, y_hat) to the
full attribution vector; with k <= 10 supervision rows, per-feature models
would be under-determined. Surrogates never see the base model, only the
reference triplets and query (X, Y_hat) pairs. Neither fitted surrogate keeps
training code of its own: the MLP regressor is fitted by the numpy MLP fit of
``base_models`` on a squared-error readout gradient, and the forest
regressor's trees are ``base_models`` CART trees grown on the variance split
cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base_models import _fit_mlp, _fit_tree, _variance_best_split

KNN_MAX_NEIGHBORS = 3
MLP_HIDDEN = 32
MLP_EPOCHS = 500
MLP_LR = 1e-2
FOREST_SIZE = 30
FOREST_DEPTH = 4
MAX_REFERENCES = 32


@dataclass
class ReferenceSet:
    X: np.ndarray
    y_hat: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y_hat = np.asarray(self.y_hat, dtype=np.float64).ravel()
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if not 1 <= self.k <= MAX_REFERENCES:
            raise ValueError(f"reference count {self.k} outside [1, {MAX_REFERENCES}]")
        if self.phi.shape != self.X.shape or self.y_hat.shape[0] != self.k:
            raise ValueError("inconsistent reference set shapes")

    @property
    def k(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    def inputs(self) -> np.ndarray:
        return np.column_stack([self.X, self.y_hat])


@dataclass
class Surrogate:
    kind: str
    m: int
    state: dict = field(repr=False, default_factory=dict)


# every surrogate kind, with the fewest references it fits on
MIN_REFS = {"knn": 1, "mlp_regressor": 2, "forest_regressor": 2}


def fit_surrogate(kind: str, refs: ReferenceSet, rng: np.random.Generator | None = None) -> Surrogate:
    rng = rng if rng is not None else np.random.default_rng(0)
    if kind not in MIN_REFS:
        raise ValueError(f"unknown surrogate kind {kind!r}")
    if refs.k < MIN_REFS[kind]:
        raise ValueError(f"{kind} needs at least {MIN_REFS[kind]} references, got {refs.k}")
    if kind == "knn":
        state = {"inputs": refs.inputs(), "phi": refs.phi.copy(),
                 "n_neighbors": min(KNN_MAX_NEIGHBORS, refs.k)}
    elif kind == "mlp_regressor":
        state = _fit_mlp_regressor(refs, rng)
    else:
        state = _fit_forest_regressor(refs, rng)
    return Surrogate(kind=kind, m=refs.m, state=state)


def predict_surrogate(g: Surrogate, X: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[1] != g.m:
        raise ValueError(f"expected (n, {g.m}) queries, got {X.shape}")
    if y_hat.shape[0] != X.shape[0]:
        raise ValueError("y_hat length must match the query rows")
    Z = np.column_stack([X, y_hat])
    if g.kind == "knn":
        return _predict_knn(g.state, Z)
    if g.kind == "mlp_regressor":
        return _predict_mlp(g.state, Z)
    return _predict_forest(g.state, Z)


# ---- kNN ----


def _predict_knn(state, Z: np.ndarray) -> np.ndarray:
    refs = state["inputs"]
    phi = state["phi"]
    nn = state["n_neighbors"]
    out = np.empty((Z.shape[0], phi.shape[1]))
    for i, z in enumerate(Z):
        d = np.sqrt(((refs - z) ** 2).sum(axis=1))
        exact = d == 0.0
        if exact.any():
            out[i] = phi[exact].mean(axis=0)
            continue
        order = np.argsort(d, kind="stable")[:nn]
        w = 1.0 / d[order]
        out[i] = (phi[order] * w[:, None]).sum(axis=0) / w.sum()
    return out


# ---- small MSE-trained MLP ----


def _fit_mlp_regressor(refs: ReferenceSet, rng) -> dict:
    """One hidden layer fitted on the mean squared error through ``base_models._fit_mlp``.

    The readout gradient replays the autodiff graph of
    ``mean((pred + Y * -1) * (pred + Y * -1))``: both factors of the square
    pass back ``g * diff``, and the two are summed.
    """
    Z = refs.inputs()
    neg_Y = refs.phi * -1.0
    g_sq = 1.0 / refs.phi.size  # d loss / d diff**2 for loss = mean(diff**2)

    def mse_grad(pred, t):
        g_diff = g_sq * (pred + neg_Y)
        return g_diff + g_diff

    (w1, w2), (b1, b2) = _fit_mlp(Z, (MLP_HIDDEN,), refs.m, MLP_EPOCHS, rng, mse_grad, lambda t: MLP_LR)
    return {"w1": w1, "b1": b1, "w2": w2, "b2": b2}


def _predict_mlp(state, Z: np.ndarray) -> np.ndarray:
    h = np.maximum(Z @ state["w1"] + state["b1"], 0.0)
    return h @ state["w2"] + state["b2"]


# ---- multi-output regression forest ----


def _fit_forest_regressor(refs: ReferenceSet, rng) -> dict:
    """Bootstrap samples and candidate features all come from the one shared ``rng``."""
    Z = refs.inputs()
    Y = refs.phi
    trees = []
    for _ in range(FOREST_SIZE):
        idx = rng.integers(0, Z.shape[0], size=Z.shape[0])
        trees.append(_fit_tree(Z[idx], Y[idx], FOREST_DEPTH, rng, _variance_best_split))
    return {"trees": trees}


def _predict_forest(state, Z: np.ndarray) -> np.ndarray:
    out = None
    for tree in state["trees"]:
        pred = tree.predict(Z)
        out = pred if out is None else out + pred
    return out / len(state["trees"])
