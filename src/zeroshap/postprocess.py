"""Axiom-derived corrections for raw predicted attributions.

Three steps, each usable alone: recenter to a zero global mean (efficiency in
expectation), rescale so the attribution std matches Std(Y_hat)/sqrt(m)
(variance decomposition under feature independence), and a per-instance
efficiency correction that spreads each row's residual evenly across its
features. The statistical steps are global shift/scale operations, so they
leave Pearson agreement with any reference unchanged on their own; they earn
their keep by preparing the efficiency step. All statistics are population
statistics (divide by the count), which makes the fixed-point identities
exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class CorrectionConfig:
    enable_recenter: bool = True
    enable_rescale: bool = True
    enable_efficiency: bool = True


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


def full_pipeline(phi: np.ndarray, y_hat: np.ndarray,
                  config: CorrectionConfig | None = None) -> np.ndarray:
    """Recenter, rescale, then instance-level efficiency, honoring the flags."""
    config = config or CorrectionConfig()
    out = np.asarray(phi, dtype=np.float64).copy()
    if config.enable_recenter:
        out = recenter(out)
    if config.enable_rescale:
        out = rescale(out, y_hat)
    if config.enable_efficiency:
        out = efficiency_correct(out, y_hat)
    return out
