"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library implementations: Shapley values are
evaluated straight from the weighted-marginal-contribution definition with
no coalition caching or reuse, and the reference MLP fit takes its gradients
from the autodiff graph instead of the hand-written backward pass.
"""

import math

import numpy as np


def brute_force_shapley(predict_fn, x, background):
    """phi_j = sum over S not containing j of w(S) * (v(S + j) - v(S))."""
    x = np.asarray(x, dtype=np.float64).ravel()
    background = np.asarray(background, dtype=np.float64)
    m = x.size

    def value(mask):
        rows = background.copy()
        members = [j for j in range(m) if mask & (1 << j)]
        if members:
            rows[:, members] = x[members]
        return float(np.mean(predict_fn(rows)))

    phi = np.zeros(m)
    for j in range(m):
        bit = 1 << j
        for mask in range(1 << m):
            if mask & bit:
                continue
            s = bin(mask).count("1")
            w = math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m)
            phi[j] += w * (value(mask | bit) - value(mask))
    return phi


def loop_permutation_shapley(predict_fn, x, background, n_perms, rng):
    """Permutation estimate walked one order at a time, one coalition per predict call."""
    x = np.asarray(x, dtype=np.float64).ravel()
    background = np.asarray(background, dtype=np.float64)
    phi = np.zeros(x.size)
    for _ in range(n_perms):
        rows = background.copy()
        prev = float(np.mean(predict_fn(rows)))
        for j in rng.permutation(x.size):
            rows[:, j] = x[j]
            cur = float(np.mean(predict_fn(rows)))
            phi[j] += cur - prev
            prev = cur
    return phi / n_perms


def brute_force_base_value(predict_fn, background):
    return float(np.mean(predict_fn(np.asarray(background, dtype=np.float64))))


def autodiff_train_mlp(X, y, cfg):
    """Reference MLP fit: the BCE loss built as an autodiff graph each epoch.

    The same initialisation and Adam schedule as
    ``base_models.train_mlp``; only the gradient path differs.
    """
    from zeroshap import autodiff as ad
    from zeroshap import base_models as bm

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    rng = np.random.default_rng(cfg.seed)
    weights, biases = bm._init_mlp(X.shape[1], cfg.hidden_sizes, rng)
    n_layers = len(weights)
    params = {f"w{i}": ad.Tensor(w, requires_grad=True) for i, w in enumerate(weights)}
    params.update({f"b{i}": ad.Tensor(b, requires_grad=True) for i, b in enumerate(biases)})
    yy = y.reshape(-1, 1)

    def bce_loss():
        h = ad.Tensor(X)
        for i in range(n_layers - 1):
            h = ad.relu(ad.add(ad.matmul(h, params[f"w{i}"]), params[f"b{i}"]))
        logits = ad.add(ad.matmul(h, params[f"w{n_layers - 1}"]), params[f"b{n_layers - 1}"])
        p_raw = ad.sigmoid(logits)
        p = ad.clamp_min(p_raw, 1e-12)
        q = ad.clamp_min(ad.add(ad.multiply(p_raw, -1.0), 1.0), 1e-12)
        term = ad.add(ad.multiply(ad.log(p), yy), ad.multiply(ad.log(q), 1.0 - yy))
        return ad.multiply(ad.reduce_mean(term), -1.0)

    state = ad.AdamState()
    losses = np.empty(cfg.epochs)
    for t in range(cfg.epochs):
        loss = bce_loss()
        losses[t] = loss.item()
        loss.backward()
        grads = {name: p.grad for name, p in params.items()}
        ad.adam_step(params, grads, state, lr=cfg.lr0 / math.sqrt(t + 1))
    return bm.MlpModel(
        weights=[params[f"w{i}"].data for i in range(n_layers)],
        biases=[params[f"b{i}"].data for i in range(n_layers)],
        config=cfg,
        train_losses=losses,
    )
