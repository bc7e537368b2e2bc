"""Base predictors used to label synthetic tasks and to serve as evaluation targets.

The MLP classifier is fitted by this module's one numpy MLP fit, which the
few-shot MLP-regressor surrogate shares: a hand-written forward/backward
pass and the flat-buffer Adam step of ``autodiff``. The random forest is a
bagged ensemble of Gini CART trees. Both predict class-1 probabilities;
attribution ground truth is computed on the probability output.

This module is the one home of CART: one builder with per-split feature
subsampling and two split costs, Gini for the forest classifier and summed
squared error for the few-shot forest-regressor surrogate, whose trees hold
multi-output leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint


# ---- standard scaler ----


@dataclass
class ScalerStats:
    mean: np.ndarray
    std: np.ndarray


def fit_scaler(X: np.ndarray) -> ScalerStats:
    """Per-feature mean/std with population std; constant features get std 1."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 2:
        raise ValueError("need at least two rows to fit a scaler")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return ScalerStats(mean=mean, std=std)


def transform(stats: ScalerStats, X: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=np.float64) - stats.mean) / stats.std


# ---- MLP classifier ----


@dataclass
class MlpConfig:
    hidden_sizes: tuple[int, ...] = (100,)
    epochs: int = 2000
    lr0: float = 1e-4
    seed: int = 0


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    config: MlpConfig
    train_losses: np.ndarray = field(default=None, repr=False)

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class-1 probabilities; deterministic, safe for concurrent callers."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) inputs, got {X.shape}")
        h = X
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
        logits = (h @ self.weights[-1] + self.biases[-1]).ravel()
        return 1.0 / (1.0 + np.exp(-logits))


def _init_mlp(n_features: int, hidden_sizes: tuple[int, ...], n_out: int, rng) -> tuple[list, list]:
    """He-initialised ReLU layers and a zero readout of width ``n_out``: outputs start at 0."""
    sizes = [n_features, *hidden_sizes, n_out]
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        if i == len(sizes) - 2:
            weights.append(np.zeros((fan_in, fan_out)))
        else:
            weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _fit_mlp(X: np.ndarray, hidden_sizes: tuple[int, ...], n_out: int, epochs: int, rng,
             readout_grad, lr) -> tuple[list, list]:
    """Full-batch Adam over a ReLU MLP in plain numpy; returns (weights, biases).

    They are views into one flat parameter buffer. Each epoch
    ``readout_grad(out, t)`` maps the (n, n_out) readout to d loss / d out,
    and ``lr(t)`` gives the learning rate. The backward pass replays the
    autodiff graph's rounding, layer by layer.
    """
    # C order fixes the BLAS path of X.T @ g, and with it the rounding
    X = np.ascontiguousarray(X, dtype=np.float64)
    weights, biases = _init_mlp(X.shape[1], hidden_sizes, n_out, rng)
    n_layers = len(weights)
    shapes = [a.shape for a in weights + biases]
    theta = np.concatenate([a.ravel() for a in weights + biases])
    grad = np.empty_like(theta)
    views, grad_views = ad.flat_views(theta, shapes), ad.flat_views(grad, shapes)
    Ws, bs = views[:n_layers], views[n_layers:]
    gWs, gbs = grad_views[:n_layers], grad_views[n_layers:]
    state = ad.AdamState(theta.size)
    for t in range(epochs):
        hs, pre = [X], []
        for W, b in zip(Ws[:-1], bs[:-1]):
            pre.append(hs[-1] @ W + b)
            hs.append(np.maximum(pre[-1], 0.0))
        g = readout_grad(hs[-1] @ Ws[-1] + bs[-1], t)
        for i in range(n_layers - 1, -1, -1):
            gbs[i][...] = g.sum(axis=0)
            gWs[i][...] = hs[i].T @ g
            if i:
                g = (g @ Ws[i].T) * (pre[i - 1] > 0.0)
        ad.adam_step(theta, grad, state, lr(t))
    return Ws, bs


def train_mlp(X: np.ndarray, y: np.ndarray, cfg: MlpConfig | None = None) -> MlpModel:
    """Full-batch Adam with lr decay lr0 / sqrt(t + 1) on binary cross-entropy.

    Forward and backward passes are plain numpy (``_fit_mlp``). They replay,
    op for op, the autodiff graph of ``-mean(y log p + (1 - y) log q)`` with
    the tanh-form sigmoid and ``p``, ``q = 1 - p`` clamped to at least
    1e-12, so the fit is bit-identical to one driven through ``autodiff``
    (``tests/oracles.py``). The readout starts at zero, so predictions start
    at exactly 0.5. Raises RuntimeError if the loss turns non-finite.
    """
    cfg = cfg or MlpConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] < 16:
        raise ValueError("need at least 16 training rows")
    classes = np.unique(y)
    if not np.array_equal(classes, [0.0, 1.0]):
        raise ValueError("labels must be binary with both classes present")

    yy = y.reshape(-1, 1)
    not_yy = 1.0 - yy
    g_term = -1.0 / X.shape[0]  # d loss / d term for loss = -mean(term)
    g_log_p, g_log_q = g_term * yy, g_term * not_yy
    losses = np.empty(cfg.epochs)

    def bce_grad(logits, t):
        s = np.tanh(logits * 0.5)
        p_raw = (s + 1.0) * 0.5
        p_shift = p_raw + -1e-12
        q_shift = (p_raw * -1.0 + 1.0) + -1e-12
        p = np.maximum(p_shift, 0.0) + 1e-12
        q = np.maximum(q_shift, 0.0) + 1e-12
        value = ((np.log(p) * yy + np.log(q) * not_yy).mean() * -1.0).item()
        if not np.isfinite(value):
            raise RuntimeError(f"training diverged at epoch {t} (last good epoch {t - 1})")
        losses[t] = value
        # backward, in the graph's order of rounding: log, clamp masks, the sum
        # of the p and q paths, then the sigmoid
        g_p_raw = (g_log_p / p) * (p_shift > 0.0) + ((g_log_q / q) * (q_shift > 0.0)) * -1.0
        return ((g_p_raw * 0.5) * (1.0 - s * s)) * 0.5

    rng = np.random.default_rng(cfg.seed)
    weights, biases = _fit_mlp(X, cfg.hidden_sizes, 1, cfg.epochs, rng, bce_grad,
                               lambda t: cfg.lr0 / math.sqrt(t + 1))
    return MlpModel(weights=weights, biases=biases, config=cfg, train_losses=losses)


def predict(model, X: np.ndarray) -> np.ndarray:
    """Probability predictions for either model kind."""
    if isinstance(model, MlpModel):
        return model.predict(X)
    if isinstance(model, ForestModel):
        return model.predict_proba(X)
    raise TypeError(f"unsupported model type {type(model)!r}")


# ---- CART ----


@dataclass
class Tree:
    """Flat-array CART: feature < 0 marks a leaf; value holds each node's mean target.

    ``value`` is (n_nodes,) for a label column, where it is P(class 1), and
    (n_nodes, d) for d outputs; ``predict`` returns (n,) or (n, d) to match.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty((X.shape[0],) + self.value.shape[1:])
        active = np.arange(X.shape[0])
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        while active.size:
            feat = self.feature[nodes[active]]
            leaf_mask = feat < 0
            leaf_rows = active[leaf_mask]
            out[leaf_rows] = self.value[nodes[leaf_rows]]
            active = active[~leaf_mask]
            if not active.size:
                break
            cur = nodes[active]
            goes_left = X[active, self.feature[cur]] <= self.threshold[cur]
            nodes[active] = np.where(goes_left, self.left[cur], self.right[cur])
        return out


def _gini_best_split(col: np.ndarray, y: np.ndarray):
    """Best (threshold, impurity) over the cuts between distinct values of one column, or None."""
    order = np.argsort(col, kind="stable")
    xs, ys = col[order], y[order]
    n = xs.size
    ones = np.cumsum(ys)
    total1 = ones[-1]
    left_n = np.arange(1, n)
    right_n = n - left_n
    left1 = ones[:-1]
    right1 = total1 - left1
    p1l = left1 / left_n
    p1r = right1 / right_n
    gini = left_n * (2 * p1l * (1 - p1l)) + right_n * (2 * p1r * (1 - p1r))
    valid = xs[1:] != xs[:-1]
    if not valid.any():
        return None
    gini = np.where(valid, gini, np.inf)
    best = int(np.argmin(gini))
    threshold = 0.5 * (xs[best] + xs[best + 1])
    return threshold, gini[best] / n


def _variance_best_split(col: np.ndarray, Y: np.ndarray):
    """Best (threshold, squared error summed over the outputs of Y (n, d)), or None."""
    order = np.argsort(col, kind="stable")
    xs = col[order]
    ys = Y[order]
    n = xs.shape[0]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    total_sum, total_sq = csum[-1], csq[-1]
    left_n = np.arange(1, n)[:, None]
    right_n = n - left_n
    left_sum, left_sq = csum[:-1], csq[:-1]
    sse_left = (left_sq - left_sum**2 / left_n).sum(axis=1)
    sse_right = ((total_sq - left_sq) - (total_sum - left_sum) ** 2 / right_n).sum(axis=1)
    cost = sse_left + sse_right
    valid = xs[1:] != xs[:-1]
    if not valid.any():
        return None
    cost = np.where(valid, cost, np.inf)
    best = int(np.argmin(cost))
    return 0.5 * (xs[best] + xs[best + 1]), cost[best]


def _fit_tree(X: np.ndarray, Y: np.ndarray, max_depth: int, rng, split) -> Tree:
    """Depth-first CART on the rows of X against targets Y, (n,) or (n, d).

    A node is a leaf at ``max_depth``, below two rows, or when its targets are
    pure: all within ``np.allclose``'s default tolerance of its first row (on
    0/1 labels, all equal). Otherwise it draws round(sqrt(m)) candidate features from ``rng``
    and takes the cheapest cut ``split(column, targets)`` finds among them;
    rows at or below the threshold go left.
    """
    m = X.shape[1]
    n_candidates = max(1, int(round(math.sqrt(m))))
    feature, threshold, left, right, value = [], [], [], [], []

    def build(idx: np.ndarray, depth: int) -> int:
        node = len(feature)
        Yn = Y[idx]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(Yn.mean(axis=0))
        first = Yn[0]
        if (depth >= max_depth or idx.size < 2
                or (np.abs(Yn - first) <= 1e-8 + 1e-5 * np.abs(first)).all()):
            return node
        if n_candidates < m:
            candidates = np.sort(rng.choice(m, size=n_candidates, replace=False))
        else:
            candidates = range(m)
        best = None
        for f in candidates:
            res = split(X[idx, f], Yn)
            if res is not None and (best is None or res[1] < best[2]):
                best = (int(f), res[0], res[1])
        if best is None:
            return node
        f, thr, _ = best
        mask = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = float(thr)
        left[node] = build(idx[mask], depth + 1)
        right[node] = build(idx[~mask], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value),
    )


# ---- random forest ----


@dataclass
class ForestConfig:
    """Bagged Gini CART: every tree fits a bootstrap sample and draws round(sqrt(m))
    candidate features per split."""

    n_estimators: int = 100
    max_depth: int = 8
    seed: int = 0


@dataclass
class ForestModel:
    trees: list[Tree]
    config: ForestConfig
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf class-1 frequency across trees; order-invariant."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) inputs, got {X.shape}")
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)


def train_forest(X: np.ndarray, y: np.ndarray, cfg: ForestConfig | None = None) -> ForestModel:
    """Bagged CART trees; single-class bootstraps yield constant trees."""
    cfg = cfg or ForestConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(np.unique(y)) < 2 or not set(np.unique(y)) <= {0.0, 1.0}:
        raise ValueError("labels must be binary with both classes present")
    trees = []
    for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.n_estimators):
        rng = np.random.default_rng(seq)
        idx = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(_fit_tree(X[idx], y[idx], cfg.max_depth, rng, _gini_best_split))
    return ForestModel(trees=trees, config=cfg, n_features=X.shape[1])


# ---- checkpoints ----

_TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def save_model(path, model) -> None:
    if isinstance(model, MlpModel):
        arrays = {}
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        config = {
            "hidden_sizes": list(model.config.hidden_sizes),
            "epochs": model.config.epochs,
            "lr0": model.config.lr0,
            "seed": model.config.seed,
            "n_layers": len(model.weights),
        }
        save_checkpoint(path, "mlp", arrays, config=config)
    elif isinstance(model, ForestModel):
        arrays = {f"t{i}_{name}": getattr(tree, name)
                  for i, tree in enumerate(model.trees) for name in _TREE_ARRAYS}
        config = {
            "n_estimators": model.config.n_estimators,
            "max_depth": model.config.max_depth,
            "seed": model.config.seed,
            "n_features": model.n_features,
        }
        save_checkpoint(path, "forest", arrays, config=config)
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")


def load_model(path):
    """The model ``save_model`` wrote; CheckpointError if the file holds no such model.

    Config keys that are not read (such as the forest knobs of older files)
    are ignored.
    """
    arrays, config, _ = load_checkpoint(path)
    try:
        if "n_layers" in config:
            n_layers = config["n_layers"]
            model = MlpModel(
                weights=[arrays[f"w{i}"] for i in range(n_layers)],
                biases=[arrays[f"b{i}"] for i in range(n_layers)],
                config=MlpConfig(hidden_sizes=tuple(config["hidden_sizes"]), epochs=config["epochs"],
                                 lr0=config["lr0"], seed=config["seed"]),
            )
            widths = [model.n_features] + [w.shape[1] for w in model.weights]
            fits = n_layers >= 1 and widths[-1] == 1 and all(
                w.shape == (a, b) and bias.shape == (b,) and np.isfinite(w).all()
                and np.isfinite(bias).all()
                for w, bias, a, b in zip(model.weights, model.biases, widths, widths[1:]))
        else:
            cfg = ForestConfig(n_estimators=config["n_estimators"], max_depth=config["max_depth"],
                               seed=config["seed"])
            trees = [Tree(*(arrays[f"t{i}_{name}"] for name in _TREE_ARRAYS))
                     for i in range(cfg.n_estimators)]
            model = ForestModel(trees=trees, config=cfg, n_features=config["n_features"])
            fits = bool(trees) and all(_tree_fits(tree, model.n_features) for tree in trees)
    except (KeyError, TypeError, IndexError) as exc:
        raise CheckpointError(f"{path}: not a base-model checkpoint ({type(exc).__name__}: {exc})") from exc
    if not fits:
        raise CheckpointError(f"{path}: arrays do not form a {type(model).__name__}")
    return model


def _tree_fits(tree: Tree, n_features: int) -> bool:
    """One finite label column per node, integer links, and every split feature in range.

    Children must come after their parent, as the builder numbers them, so
    that a walk always ends at a leaf.
    """
    n_nodes = tree.feature.shape[0]
    if not n_nodes or any(getattr(tree, name).shape != (n_nodes,) for name in _TREE_ARRAYS):
        return False
    if any(getattr(tree, name).dtype.kind != "i" for name in ("feature", "left", "right")):
        return False
    nodes = np.flatnonzero(tree.feature >= 0)
    return bool((tree.feature < n_features).all()
                and np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()
                and all(((child[nodes] > nodes) & (child[nodes] < n_nodes)).all()
                        for child in (tree.left, tree.right)))
