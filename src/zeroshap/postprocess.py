"""Axiom-derived corrections for raw predicted attributions.

Three steps: recenter to a zero global mean (efficiency in expectation),
rescale so the attribution std matches Std(Y_hat)/sqrt(m) (variance
decomposition under feature independence), and a per-instance efficiency
correction that spreads each row's residual evenly across its features.
``full_pipeline`` runs all three in that order, the one recipe serving uses;
the correction ablation (``scripts/correction_ablation.py``) composes the
steps itself. The statistical steps are global shift/scale operations, so
they leave Pearson agreement with any reference unchanged on their own; they
earn their keep by preparing the efficiency step. All statistics are
population statistics (divide by the count), which makes the fixed-point
identities exact.
"""

from __future__ import annotations

import warnings

import numpy as np


def recenter(phi: np.ndarray) -> np.ndarray:
    """Subtract the global mean over all n * m entries."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.size == 0:
        raise ValueError("empty attribution matrix")
    return phi - phi.mean()


def rescale(phi: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Scale all entries so Std(phi) becomes Std(y_hat) / sqrt(m)."""
    phi = np.asarray(phi, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    target = y_hat.std() / np.sqrt(phi.shape[1])
    if target == 0.0:
        warnings.warn("constant predictions: rescaling attributions to zero")
        return np.zeros_like(phi)
    current = phi.std()
    if current == 0.0:
        warnings.warn("constant attributions: skipping rescale")
        return phi.copy()
    return phi * (target / current)


def efficiency_correct(phi: np.ndarray, y_hat: np.ndarray, base_value: float | None = None) -> np.ndarray:
    """Add eps_i = (y_i - v - sum_j phi_ij) / m to every entry of row i."""
    phi = np.asarray(phi, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    m = phi.shape[1]
    if m == 0:
        raise ValueError("no features to correct")
    v = float(np.mean(y_hat)) if base_value is None else base_value
    eps = (y_hat - v - phi.sum(axis=1)) / m
    return phi + eps[:, None]


def full_pipeline(phi: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Recenter, rescale, then instance-level efficiency, on ``phi`` in C order: recenter's mean
    sums in memory order, and a matrix explained from fancy-indexed columns is F-ordered."""
    out = np.ascontiguousarray(phi, dtype=np.float64)
    return efficiency_correct(rescale(recenter(out), y_hat), y_hat)
