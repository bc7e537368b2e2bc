"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library implementations: Shapley values are
evaluated straight from the weighted-marginal-contribution definition with
no coalition caching or reuse; the reference MLP fits take their gradients
from the autodiff graph instead of the hand-written backward pass; and the
reference Adam and explainer training loop step one parameter array at a
time instead of one flat buffer. Trees are walked one at a time, each row
leaving the walk at its own leaf, instead of in one stacked walk. The
autodiff graph's gradients are checked against central differences.
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


class ReferenceAdamState:
    """First/second moment buffers keyed like the parameter dict."""

    def __init__(self):
        self.m, self.v, self.t = {}, {}, 0


def reference_adam_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8):
    """Adam with bias correction, one parameter array at a time, in place.

    ``params`` and ``grads`` are dicts of arrays with matching names and shapes.
    """
    b1, b2 = betas
    state.t += 1
    t = state.t
    for name in sorted(params):
        p = params[name]
        g = grads[name]
        assert g.shape == p.shape, name
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / (1.0 - b1**t)
        vhat = v / (1.0 - b2**t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)


def autodiff_train_mlp(X, y, cfg):
    """Reference MLP fit: the BCE loss built as an autodiff graph each epoch.

    The same initialisation and flat-buffer Adam step as
    ``base_models.train_mlp``; only the gradient path differs.
    """
    from zeroshap import autodiff as ad
    from zeroshap import base_models as bm

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    rng = np.random.default_rng(cfg.seed)
    weights, biases = bm._init_mlp(X.shape[1], cfg.hidden_sizes, 1, rng)
    n_layers = len(weights)
    names = [f"w{i}" for i in range(n_layers)] + [f"b{i}" for i in range(n_layers)]
    theta = np.concatenate([a.ravel() for a in weights + biases])
    views = ad.flat_views(theta, [a.shape for a in weights + biases])
    params = {name: ad.Tensor(view, requires_grad=True) for name, view in zip(names, views)}
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

    state = ad.AdamState(theta.size)
    losses = np.empty(cfg.epochs)
    for t in range(cfg.epochs):
        loss = bce_loss()
        losses[t] = loss.item()
        loss.backward()
        grad = np.concatenate([params[name].grad.ravel() for name in names])
        ad.adam_step(theta, grad, state, lr=cfg.lr0 / math.sqrt(t + 1))
    return bm.MlpModel(
        weights=[params[f"w{i}"].data for i in range(n_layers)],
        biases=[params[f"b{i}"].data for i in range(n_layers)],
        train_losses=losses,
    )


def autodiff_fit_mlp_regressor(refs, rng):
    """Reference surrogate MLP fit: the MSE loss built as an autodiff graph each
    epoch, stepped by ``reference_adam_step``; returns the surrogate's state dict."""
    from zeroshap import autodiff as ad
    from zeroshap import surrogates as sg

    Z = refs.inputs()
    Y = refs.phi
    d_in, d_out = Z.shape[1], Y.shape[1]
    params = {
        "w1": ad.Tensor(rng.normal(0, math.sqrt(2.0 / d_in), size=(d_in, sg.MLP_HIDDEN)), requires_grad=True),
        "b1": ad.Tensor(np.zeros(sg.MLP_HIDDEN), requires_grad=True),
        "w2": ad.Tensor(np.zeros((sg.MLP_HIDDEN, d_out)), requires_grad=True),
        "b2": ad.Tensor(np.zeros(d_out), requires_grad=True),
    }
    state = ReferenceAdamState()
    zt = ad.Tensor(Z)
    for _ in range(sg.MLP_EPOCHS):
        h = ad.relu(ad.add(ad.matmul(zt, params["w1"]), params["b1"]))
        pred = ad.add(ad.matmul(h, params["w2"]), params["b2"])
        diff = ad.add(pred, ad.multiply(ad.Tensor(Y), -1.0))
        loss = ad.reduce_mean(ad.multiply(diff, diff))
        loss.backward()
        reference_adam_step({k: p.data for k, p in params.items()},
                            {k: p.grad for k, p in params.items()}, state, lr=sg.MLP_LR)
    return {name: p.data for name, p in params.items()}


def finite_difference_check(loss_fn, params, step=1e-5):
    """Worst-case relative deviation between analytic and central-difference gradients
    over every coordinate; a deviation is relative to the larger magnitude, floored at 1e-6.

    ``loss_fn(params)`` must rebuild the graph and return a scalar Tensor.
    """
    loss = loss_fn(params)
    loss.backward()
    analytic = {name: params[name].grad.copy() for name in params}

    worst = 0.0
    for name in sorted(params):
        flat = params[name].data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn(params).item()
            flat[i] = orig - step
            down = loss_fn(params).item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            a = analytic[name].reshape(-1)[i]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
    return worst


def reference_explainer_train(pool_sampler, config, rng):
    """``explainer.train``'s loop with per-parameter gradients: each feature's
    gradients summed into a dict in feature order, divided by m, and stepped by
    ``reference_adam_step``. Returns the weight arrays of the restart with the
    lowest final smoothed NLPD (no restart may diverge).
    """
    from zeroshap import explainer as ex

    best, best_loss = None, math.inf
    for _ in range(config.restarts):
        peak_lr = 10 ** rng.uniform(math.log10(config.lr_low), math.log10(config.lr_high))
        _, params = ex.init_params(config, rng)
        arrays = {name: p.data for name, p in params.items()}
        state = ReferenceAdamState()
        smoothed = None
        for step in range(config.train_steps):
            lr = peak_lr * 0.5 * (1.0 + math.cos(math.pi * step / config.train_steps))
            triplet = pool_sampler()
            phi_std = ex.standardize_targets(triplet.phi)
            grad_acc, total = {}, 0.0
            for j in range(triplet.m):
                slots = ex.encode_rows(triplet.X, triplet.y_hat, j, config)
                loss = ex._training_loss_graph(params, slots, triplet.m + 1, phi_std[:, j], config)
                total += loss.item()
                loss.backward()
                for name, p in params.items():
                    if name in grad_acc:
                        grad_acc[name] += p.grad
                    else:
                        grad_acc[name] = p.grad.copy()
            reference_adam_step(arrays, {name: g / triplet.m for name, g in grad_acc.items()}, state, lr)
            loss = total / triplet.m
            smoothed = loss if smoothed is None else 0.98 * smoothed + 0.02 * loss
        assert np.isfinite(smoothed)
        if smoothed < best_loss:
            best, best_loss = arrays, smoothed
    return best


def unstack(stack):
    """The trees of a ``base_models.TreeStack`` one by one, with -1 as a leaf's feature
    and links, as the builder writes them."""
    from zeroshap import base_models as bm

    itself = np.arange(stack.feature.size)
    left, right = stack.children[0::2], stack.children[1::2]
    leaf = left == itself  # a split's children come after it
    offsets = np.repeat(stack.roots, np.diff(np.append(stack.roots, itself.size)))
    arrays = (np.where(leaf, -1, stack.feature), stack.threshold, np.where(leaf, -1, left - offsets),
              np.where(leaf, -1, right - offsets), stack.value)
    return [bm.Tree(*parts) for parts in zip(*(np.split(a, stack.roots[1:]) for a in arrays))]


def tree_predict(tree, X):
    """One tree's leaf values for the rows of X: (n,), or (n, d) for multi-output leaves.

    Rows with ``x[feature] <= threshold`` go left; a row leaves the walk at its leaf.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((X.shape[0],) + tree.value.shape[1:])
    active = np.arange(X.shape[0])
    nodes = np.zeros(X.shape[0], dtype=np.int64)
    while active.size:
        feat = tree.feature[nodes[active]]
        leaf_mask = feat < 0
        leaf_rows = active[leaf_mask]
        out[leaf_rows] = tree.value[nodes[leaf_rows]]
        active = active[~leaf_mask]
        if not active.size:
            break
        cur = nodes[active]
        goes_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        nodes[active] = np.where(goes_left, tree.left[cur], tree.right[cur])
    return out


def forest_predict(trees, X):
    """Mean of ``tree_predict`` over the trees, summed in tree order from the first.

    Summing from zero instead gives the same bits unless a leaf value is -0.0,
    which a class-1 frequency never is.
    """
    total = tree_predict(trees[0], X)
    for tree in trees[1:]:
        total = total + tree_predict(tree, X)
    return total / len(trees)
