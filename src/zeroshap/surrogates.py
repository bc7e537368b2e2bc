"""Few-shot surrogate explainers fitted on k reference (x, y_hat, phi) rows.

Each surrogate is a joint multi-output regression from (x, y_hat) to the
full attribution vector; with k <= 10 supervision rows, per-feature models
would be under-determined. Surrogates never see the base model, only the
reference triplets and query (X, Y_hat) pairs. A fitted surrogate holds its
predictor, which maps the (n, m + 1) inputs to (n, m) attributions. The
kNN predictor weights the nearest references by inverse distance. The two
fitted surrogates keep no training or prediction code here: the MLP
regressor is a ``base_models`` ``MlpModel``, fitted by its numpy MLP fit on
a squared-error readout gradient and predicted by its readout, and the
forest regressor is the ``TreeStack`` of ``base_models``' one CART builder,
on the variance split cost, predicted by its stacked walk.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .base_models import MlpModel, _fit_bagged, _fit_mlp

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
    # the fitted predictor: (n, m + 1) inputs, x then y_hat, to (n, m) attributions
    predict: Callable[[np.ndarray], np.ndarray] = field(repr=False)


# every surrogate kind, with the fewest references it fits on
MIN_REFS = {"knn": 1, "mlp_regressor": 2, "forest_regressor": 2}


def fit_surrogate(kind: str, refs: ReferenceSet, rng: np.random.Generator | None = None) -> Surrogate:
    rng = rng if rng is not None else np.random.default_rng(0)
    if kind not in MIN_REFS:
        raise ValueError(f"unknown surrogate kind {kind!r}")
    if refs.k < MIN_REFS[kind]:
        raise ValueError(f"{kind} needs at least {MIN_REFS[kind]} references, got {refs.k}")
    if kind == "knn":
        predict = partial(_predict_knn, refs.inputs(), refs.phi.copy(), min(KNN_MAX_NEIGHBORS, refs.k))
    elif kind == "mlp_regressor":
        predict = _fit_mlp_regressor(refs, rng).readout
    else:
        # bootstrap samples and candidate features all come from the one shared rng
        predict = _fit_bagged(refs.inputs(), refs.phi, [rng] * FOREST_SIZE, FOREST_DEPTH).predict
    return Surrogate(kind=kind, m=refs.m, predict=predict)


def predict_surrogate(g: Surrogate, X: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[1] != g.m:
        raise ValueError(f"expected (n, {g.m}) queries, got {X.shape}")
    if y_hat.shape[0] != X.shape[0]:
        raise ValueError("y_hat length must match the query rows")
    return g.predict(np.column_stack([X, y_hat]))


def _predict_knn(refs: np.ndarray, phi: np.ndarray, nn: int, Z: np.ndarray) -> np.ndarray:
    """Inverse-distance mean of the ``nn`` nearest references' attributions; an exact
    match takes the mean of the references it matches."""
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


def _fit_mlp_regressor(refs: ReferenceSet, rng) -> MlpModel:
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

    weights, biases = _fit_mlp(Z, (MLP_HIDDEN,), refs.m, MLP_EPOCHS, rng, mse_grad, lambda t: MLP_LR)
    return MlpModel(weights=weights, biases=biases)
