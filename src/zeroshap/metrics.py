"""Agreement metrics and runtime measurement."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class MetricReport:
    pearson: float
    jaccard_topk: float
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "pearson": self.pearson,
            "jaccard_topk": self.jaccard_topk,
        }
        out.update(self.metadata)
        return out


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Product-moment correlation over all flattened entries."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    na = np.sqrt((da * da).sum())
    nb = np.sqrt((db * db).sum())
    if na == 0.0 or nb == 0.0:
        raise ValueError("correlation undefined: an input has zero variance")
    return float((da * db).sum() / (na * nb))


def topk_indices(row: np.ndarray, k: int) -> set[int]:
    """Indices of the k largest |values|; ties broken toward the lower index."""
    row = np.asarray(row, dtype=np.float64)
    if not 1 <= k <= row.size:
        raise ValueError(f"k={k} out of range for {row.size} features")
    order = np.lexsort((np.arange(row.size), -np.abs(row)))
    return set(int(i) for i in order[:k])


def jaccard_topk(row_a: np.ndarray, row_b: np.ndarray, k: int) -> float:
    """Intersection over union of the two top-k index sets."""
    sa = topk_indices(row_a, k)
    sb = topk_indices(row_b, k)
    return len(sa & sb) / len(sa | sb)


def default_topk(m: int) -> int:
    """One third of the feature count, at least one."""
    return max(1, m // 3)


def mean_jaccard_topk(phi_a: np.ndarray, phi_b: np.ndarray, k: int | None = None) -> float:
    """Per-instance Jaccard top-k, averaged over rows."""
    phi_a = np.asarray(phi_a, dtype=np.float64)
    phi_b = np.asarray(phi_b, dtype=np.float64)
    if phi_a.shape != phi_b.shape:
        raise ValueError("attribution matrices must share a shape")
    k = default_topk(phi_a.shape[1]) if k is None else k
    return float(np.mean([jaccard_topk(phi_a[i], phi_b[i], k) for i in range(phi_a.shape[0])]))


def measure_runtime(op_closure, repetitions: int = 5, contributions: int | None = None) -> float:
    """Median wall-clock seconds; normalized to 1000 feature contributions when given."""
    if repetitions < 3:
        raise ValueError("need at least 3 repetitions for a median")
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        op_closure()
        times.append(time.perf_counter() - start)
    median = float(np.median(times))
    if contributions is not None:
        return median * 1000.0 / contributions
    return median
