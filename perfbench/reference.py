"""Independent computations the benchmark checks the program's outputs against.

Nothing here calls zeroshap's Shapley engine, explainer or autodiff kernel:
Shapley values come straight from the weighted-marginal-contribution
definition, and the explainer forward pass is plain numpy over the
checkpoint's arrays.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(np.float64).eps


def brute_force_shapley(predict_fn, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """phi_j = sum over S not containing j of |S|!(m-|S|-1)!/m! (v(S + j) - v(S))."""
    x = np.asarray(x, dtype=np.float64).ravel()
    background = np.asarray(background, dtype=np.float64)
    m = x.size

    def value(mask: int) -> float:
        rows = background.copy()
        members = [j for j in range(m) if mask >> j & 1]
        if members:
            rows[:, members] = x[members]
        return float(np.mean(predict_fn(rows)))

    phi = np.zeros(m)
    for j in range(m):
        for mask in range(1 << m):
            if mask >> j & 1:
                continue
            s = bin(mask).count("1")
            weight = math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m)
            phi[j] += weight * (value(mask | 1 << j) - value(mask))
    return phi


def shapley_tolerance(m: int) -> float:
    """Rounding bound for a sum of 2^(m-1) weighted differences of values in [0, 1]."""
    return 4.0 * (1 << m) * EPS


# ---- explainer forward pass ----


def _layer_norm(x, gain, bias, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + eps) * gain + bias


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def bucket_centers(config: dict) -> np.ndarray:
    edges = np.linspace(config["bucket_low"], config["bucket_high"], config["n_buckets"] + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    centers[0] = edges[0] - (edges[1] - edges[0])
    centers[-1] = edges[-1] + (edges[-1] - edges[-2])
    return centers


def explain_raw(arrays: dict, config: dict, X: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Raw standardized attributions: one pre-LN transformer pass per feature.

    Each row token holds [y_hat, x_j, other features in order, zero padding];
    the summed position embeddings of the occupied slots are added to every
    token; rows attend to each other with no mask.
    """
    n, m = X.shape
    d, H = config["embed_dim"], config["n_heads"]
    dh = d // H
    centers = bucket_centers(config)
    pos = arrays["slot_pos"][: m + 1].sum(axis=0)
    out = np.empty((n, m))
    for j in range(m):
        slots = np.zeros((n, config["max_features"] + 1))
        slots[:, 0] = y_hat
        slots[:, 1] = X[:, j]
        slots[:, 2 : m + 1] = np.delete(X, j, axis=1)
        x = slots @ arrays["embed_w"] + pos
        for i in range(config["n_layers"]):
            a = lambda name: arrays[f"l{i}_{name}"]  # noqa: E731
            h = _layer_norm(x, a("ln1_g"), a("ln1_b"))
            q, k, v = ((h @ a(w)).reshape(n, H, dh).transpose(1, 0, 2) for w in ("wq", "wk", "wv"))
            attn = _softmax(q @ k.transpose(0, 2, 1) / math.sqrt(dh))
            x = x + (attn @ v).transpose(1, 0, 2).reshape(n, d) @ a("wo")
            h = _layer_norm(x, a("ln2_g"), a("ln2_b"))
            x = x + np.maximum(h @ a("ffn_w1") + a("ffn_b1"), 0.0) @ a("ffn_w2") + a("ffn_b2")
        final = _layer_norm(x, arrays["final_ln_g"], arrays["final_ln_b"])
        out[:, j] = _softmax(final @ arrays["head_w"] + arrays["head_b"]) @ centers
    return out
