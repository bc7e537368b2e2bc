"""Base predictors used to label synthetic tasks and to serve as evaluation targets.

The MLP classifier is fitted by this module's one numpy MLP fit and read
out by its one ReLU-MLP forward, ``MlpModel.readout``; the few-shot
MLP-regressor surrogate is an ``MlpModel`` fitted the same way. The fit is a
hand-written forward/backward pass and the flat-buffer Adam step of
``autodiff``; its epochs write into arrays allocated once per fit. The
classifier's losses are taken ``LOSS_BLOCK`` epochs at a time, and a
divergence is raised, naming the first non-finite epoch, at the end of its
block: at most one block late. The random forest is a bagged ensemble of Gini
CART trees.
Both classifiers predict class-1 probabilities; attribution ground truth is
computed on the probability output.

This module is the one home of CART: one builder, ``_fit_bagged``, with
per-split feature subsampling and two split costs, Gini for the forest
classifier and summed squared error for the few-shot forest-regressor
surrogate, whose trees hold multi-output leaves. It fits both forests
straight into a ``TreeStack``, whose one stacked walk predicts for both:
every (tree, row) pair descends one level per step.

The builder grows trees in lockstep. Each tree keeps its rng and an explicit
preorder stack; each step pops one node of every growing tree, and one
vectorized search scores the cuts of all the step's (node, candidate
feature) pairs, on columns sorted once per tree. It keeps the bits of a
depth-first recursion that sorts each node's rows afresh
(``tests/oracles.py``): nodes are numbered and the rngs drawn from in the
same preorder; filtering a tree's stable sort by node membership gives each
node's rows in the order of a stable sort of its own; ties go to the first
cut, then to the first candidate; thresholds and costs are the same
expressions; and on 0/1 labels every count is a whole number, so a leaf's
``ones / count`` is the mean of its labels. Real-valued leaves are means of
their node's rows, as before. A tree starts only once the tree before it on
the same rng has finished, so the surrogate's trees, which share one rng,
draw each bootstrap after the previous tree's draws and grow one at a time
in the same loop.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

# the base-model kinds the label factory and the benchmark can train
BASE_KINDS = ("mlp", "forest")
# fewest rows ``train_mlp`` fits on
MLP_MIN_ROWS = 16
# epochs whose BCE losses ``train_mlp`` takes in one pass. Its two (LOSS_BLOCK, n)
# buffers stay smaller than one default hidden layer's three (n, 100) work arrays;
# default fits at (128, 5) and (88, 3) took the same time with blocks of 16 to 128.
LOSS_BLOCK = 32


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
    """Hidden widths (none: a logistic readout), full-batch epochs and the initial learning rate;
    the defaults are the CLI's ``base.*`` defaults."""

    hidden_sizes: tuple[int, ...] = (100,)
    epochs: int = 800
    lr0: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if not self.lr0 > 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")
        if self.lr0 == math.inf:
            raise ValueError(f"lr0 must be finite, got {self.lr0}")
        if any(width < 1 for width in self.hidden_sizes):
            raise ValueError(f"every hidden width must be at least 1, got {self.hidden_sizes}")


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    train_losses: np.ndarray = field(default=None, repr=False)

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]

    def readout(self, X: np.ndarray) -> np.ndarray:
        """The (n, n_out) readout of the ReLU layers for float64 rows X; safe for concurrent callers."""
        h = X
        # one (rows, width) array per layer, updated in place: with three, whether glibc handed
        # the freed heap top back to the OS, to fault it in again on the next call, hung on the
        # heap's layout
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ W
            h += b
            np.maximum(h, 0.0, out=h)
        return h @ self.weights[-1] + self.biases[-1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class-1 probabilities; deterministic, safe for concurrent callers."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) inputs, got {X.shape}")
        logits = self.readout(X).ravel()
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
    which is only read, so it may be the same array every epoch; ``lr(t)``
    gives the learning rate. The backward pass replays the autodiff graph's
    rounding, layer by layer. Every epoch writes into the same arrays,
    allocated once per fit: each hidden layer's activations, its ReLU mask
    and the gradient reaching it, and the readout.
    """
    # C order fixes the BLAS path of X.T @ g, and with it the rounding
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = X.shape[0]
    weights, biases = _init_mlp(X.shape[1], hidden_sizes, n_out, rng)
    n_layers = len(weights)
    shapes = [a.shape for a in weights + biases]
    theta = np.concatenate([a.ravel() for a in weights + biases])
    grad = np.empty_like(theta)
    views, grad_views = ad.flat_views(theta, shapes), ad.flat_views(grad, shapes)
    Ws, bs = views[:n_layers], views[n_layers:]
    gWs, gbs = grad_views[:n_layers], grad_views[n_layers:]
    state = ad.AdamState(theta.size)
    hs = [X] + [np.empty((n, width)) for width in hidden_sizes]
    # the masks hold 0.0 and 1.0: multiplying by them keeps the bits of multiplying
    # by the graph's bool masks, and costs less
    masks = [np.empty((n, width)) for width in hidden_sizes]
    gs = [np.empty((n, width)) for width in hidden_sizes]
    out = np.empty((n, n_out))
    for t in range(epochs):
        for h_in, h, mask, W, b in zip(hs, hs[1:], masks, Ws, bs):
            np.matmul(h_in, W, out=h)
            h += b
            np.maximum(h, 0.0, out=h)
            np.greater(h, 0.0, out=mask)  # h is positive exactly where its pre-activation is
        np.matmul(hs[-1], Ws[-1], out=out)
        out += bs[-1]
        g = readout_grad(out, t)
        for i in range(n_layers - 1, -1, -1):
            np.add.reduce(g, axis=0, out=gbs[i])
            np.matmul(hs[i].T, g, out=gWs[i])
            if i:
                # an inner dimension of 1 makes g @ W.T an outer product: every
                # element is one exact product, which the broadcast multiply takes faster
                if g.shape[1] == 1:
                    np.multiply(g, Ws[i].T, out=gs[i - 1])
                else:
                    np.matmul(g, Ws[i].T, out=gs[i - 1])
                g = gs[i - 1]
                g *= masks[i - 1]
        ad.adam_step(theta, grad, state, lr(t))
    return Ws, bs


def train_mlp(X: np.ndarray, y: np.ndarray, cfg: MlpConfig | None = None) -> MlpModel:
    """Full-batch Adam with lr decay lr0 / sqrt(t + 1) on binary cross-entropy.

    Forward and backward passes are plain numpy (``_fit_mlp``). They replay,
    op for op, the autodiff graph of ``-mean(y log p + (1 - y) log q)`` with
    the tanh-form sigmoid and ``p``, ``q = 1 - p`` clamped to at least
    1e-12, so the fit is bit-identical to one driven through ``autodiff``
    (``tests/oracles.py``). The readout starts at zero, so predictions start
    at exactly 0.5. Every epoch's readout gradient is written into the same
    (n, 1) arrays. The losses are taken ``LOSS_BLOCK`` epochs at a time, in one
    pass that keeps the bits of the per-epoch mean; if one turns non-finite,
    RuntimeError names the first such epoch once its block ends, so a
    diverged fit runs at most one block past its divergence.
    """
    cfg = cfg or MlpConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = X.shape[0]
    if n < MLP_MIN_ROWS:
        raise ValueError(f"need at least {MLP_MIN_ROWS} training rows")
    classes = np.unique(y)
    if not np.array_equal(classes, [0.0, 1.0]):
        raise ValueError("labels must be binary with both classes present")

    not_y = 1.0 - y
    g_term = -1.0 / n  # d loss / d term for loss = -mean(term)
    g_log_p, g_log_q = (g_term * y)[:, None], (g_term * not_y)[:, None]
    losses = np.empty(cfg.epochs)
    # the clamped p and q of each epoch of the current block, one row per epoch
    p_block, q_block = np.empty((LOSS_BLOCK, n)), np.empty((LOSS_BLOCK, n))
    s, p_raw, p_mask, q_mask, g, work = (np.empty((n, 1)) for _ in range(6))

    def block_losses(t: int, rows: int) -> None:
        """Record the losses of epochs t - rows + 1 .. t; raise at the first non-finite one."""
        term = np.log(p_block[:rows]) * y + np.log(q_block[:rows]) * not_y
        # a mean along the rows sums each epoch's n contiguous values pairwise, as
        # the mean of one epoch's (n, 1) term does
        values = term.mean(axis=1) * -1.0
        first = t - rows + 1
        losses[first : t + 1] = values
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            e = first + int(bad[0])
            raise RuntimeError(f"training diverged at epoch {e} (last good epoch {e - 1})")

    def bce_grad(logits, t):
        k = t % LOSS_BLOCK
        p, q = p_block[k, :, None], q_block[k, :, None]
        np.multiply(logits, 0.5, out=s)
        np.tanh(s, out=s)
        np.add(s, 1.0, out=p_raw)
        np.multiply(p_raw, 0.5, out=p_raw)
        # the shifted p and q, clamped, then turned into their clamp masks
        np.add(p_raw, -1e-12, out=p_mask)
        np.subtract(1.0, p_raw, out=q_mask)
        np.add(q_mask, -1e-12, out=q_mask)
        np.maximum(p_mask, 0.0, out=p)
        p += 1e-12
        np.maximum(q_mask, 0.0, out=q)
        q += 1e-12
        if k == LOSS_BLOCK - 1 or t == cfg.epochs - 1:
            block_losses(t, k + 1)
        np.greater(p_mask, 0.0, out=p_mask)
        np.greater(q_mask, 0.0, out=q_mask)
        # backward, in the graph's order of rounding: log, clamp masks, the sum
        # of the p and q paths, then the sigmoid
        np.divide(g_log_p, p, out=g)
        np.multiply(g, p_mask, out=g)
        np.divide(g_log_q, q, out=work)
        np.multiply(work, q_mask, out=work)
        np.subtract(g, work, out=g)
        np.multiply(s, s, out=work)
        np.subtract(1.0, work, out=work)
        np.multiply(g, 0.5, out=g)
        np.multiply(g, work, out=g)
        np.multiply(g, 0.5, out=g)
        return g

    rng = np.random.default_rng(cfg.seed)
    weights, biases = _fit_mlp(X, cfg.hidden_sizes, 1, cfg.epochs, rng, bce_grad,
                               lambda t: cfg.lr0 / math.sqrt(t + 1))
    return MlpModel(weights=weights, biases=biases, train_losses=losses)


# ---- CART ----


def _cut_costs(xs: np.ndarray, ys: np.ndarray, count: np.ndarray):
    """Each node's cheapest cut of one candidate column: (has a cut, cost, threshold).

    Row k of ``xs`` holds ``count[k]`` values of one candidate column in
    ascending order, rows at or past ``count[k]`` being padding, and ``ys``
    their targets: 0/1 labels, scored by Gini impurity over the node's row
    count, or (k, L, d) targets, scored by squared error summed over the d
    outputs. A cut lies between two distinct neighbouring values; ties go to
    the first cut. Every expression is the per-node one of the recursive
    builder in ``tests/oracles.py``, so the costs and thresholds keep its bits.
    """
    rows = np.arange(xs.shape[0])
    left_n = np.arange(1, xs.shape[1])
    valid = (left_n < count[:, None]) & (xs[:, 1:] != xs[:, :-1])
    with np.errstate(divide="ignore", invalid="ignore"):  # padding cuts have no right rows
        if ys.ndim == 2:
            ones = np.cumsum(ys, axis=1)  # whole numbers, so exact in any grouping
            right_n = count[:, None] - left_n
            left1 = ones[:, :-1]
            right1 = ones[rows, count - 1][:, None] - left1
            p1l = left1 / left_n
            p1r = right1 / right_n
            cost = left_n * (2 * p1l * (1 - p1l)) + right_n * (2 * p1r * (1 - p1r))
        else:
            csum = np.cumsum(ys, axis=1)
            csq = np.cumsum(ys * ys, axis=1)
            total_sum, total_sq = csum[rows, count - 1][:, None], csq[rows, count - 1][:, None]
            left_n = left_n[:, None]
            right_n = count[:, None, None] - left_n
            left_sum, left_sq = csum[:, :-1], csq[:, :-1]
            sse_left = (left_sq - left_sum**2 / left_n).sum(axis=2)
            sse_right = ((total_sq - left_sq) - (total_sum - left_sum) ** 2 / right_n).sum(axis=2)
            cost = sse_left + sse_right
    cost = np.where(valid, cost, np.inf)
    best = np.argmin(cost, axis=1)
    cost = cost[rows, best]
    if ys.ndim == 2:
        cost = cost / count
    return valid.any(axis=1), cost, 0.5 * (xs[rows, best] + xs[rows, best + 1])


def _fit_bagged(X: np.ndarray, Y: np.ndarray, rngs, max_depth: int) -> TreeStack:
    """One CART tree per rng of ``rngs``, stacked in their order.

    Each rng draws its tree's bootstrap sample of the rows, then the tree's
    candidate features. Targets are 0/1 labels (n,), split by Gini impurity,
    or (n, d) targets, split by squared error summed over the outputs. A node
    is a leaf at ``max_depth``, below two rows, or when its targets are pure:
    all within ``np.allclose``'s default tolerance of its first row (on 0/1
    labels, all equal). Otherwise it draws round(sqrt(m)) candidate features
    and takes the cheapest cut among them, the first candidate winning a tie;
    rows at or below the threshold go left.

    A tree starts, drawing its bootstrap sample, once the tree before it on
    the same rng has finished: trees on distinct rngs grow in lockstep, and
    trees that share an rng grow one after another, as if each grew before
    the next one's turn. Each step pops one node off the preorder stack of
    every growing tree and scores the cuts of all their candidates at once;
    the module docstring says why the trees are the recursive builder's, bit
    for bit.
    """
    if not rngs:
        raise ValueError("a forest needs at least one tree")
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n, m = X.shape
    n_trees = len(rngs)
    n_candidates = max(1, int(round(math.sqrt(m))))
    labels = Y.ndim == 1
    after = np.full(n_trees, -1, dtype=np.int64)  # the tree after each one on the same rng, or -1
    last: dict[int, int] = {}
    for i, rng in enumerate(rngs):
        if id(rng) in last:
            after[last[id(rng)]] = i
        last[id(rng)] = i
    columns = np.empty((n_trees, m, n))  # (tree, feature, bootstrap row)
    order = np.empty((n_trees, m, n), dtype=np.intp)
    targets = np.empty((n_trees, n) + Y.shape[1:])

    # nodes per tree: a cut leaves rows on both sides, so n rows make at most n leaves.
    # An entry is a node on a stack, numbered when it is popped.
    cap = min(2 * n - 1, 2 ** (max_depth + 1) - 1)
    feature = np.full((n_trees, cap), -1, dtype=np.int64)
    threshold = np.zeros((n_trees, cap))
    links = np.full((n_trees, 2 * cap), -1, dtype=np.int64)  # left, right of each node
    value = np.empty((n_trees, cap) + Y.shape[1:])
    size = np.zeros(n_trees, dtype=np.int64)
    owner = np.zeros((n_trees, n), dtype=np.int64)  # the entry holding each bootstrap row
    stack = np.zeros((n_trees, cap), dtype=np.int64)
    top = np.zeros(n_trees, dtype=np.int64)
    entry_depth = np.zeros((n_trees, cap), dtype=np.int64)
    entry_link = np.full((n_trees, cap), -1, dtype=np.int64)  # parent's slot in links
    entries = np.ones(n_trees, dtype=np.int64)

    def start(trees):
        """Draw the bootstrap samples of ``trees``, sort their columns and push their roots."""
        boot = np.array([rngs[i].integers(0, n, size=n) for i in trees], dtype=np.int64).reshape(trees.size, n)
        columns[trees] = X[boot].transpose(0, 2, 1)
        order[trees] = np.argsort(columns[trees], axis=2, kind="stable")
        targets[trees] = Y[boot]
        top[trees] = 1

    t = np.setdiff1d(np.arange(n_trees), after)  # the first tree on each rng
    start(t)
    waiting = n_trees - t.size
    while True:
        if waiting and not top[t].all():
            # a tree that finished on the last step hands its rng on to the next tree on it
            nxt = after[t[top[t] == 0]]
            nxt = nxt[nxt >= 0]
            start(nxt)
            waiting -= nxt.size
        t = np.flatnonzero(top)
        if not t.size:
            break
        top[t] -= 1
        e = stack[t, top[t]]
        node = size[t]
        size[t] += 1
        link = entry_link[t, e]
        child = link >= 0
        links[t[child], link[child]] = node[child]
        depth = entry_depth[t, e]
        member = owner[t] == e[:, None]
        count = member.sum(axis=1)
        if labels:
            ones = np.where(member, targets[t], 0.0).sum(axis=1)
            value[t, node] = ones / count
            pure = (ones == 0) | (ones == count)
        else:
            pure = np.empty(t.size, dtype=bool)
            for i in range(t.size):
                Yn = targets[t[i], member[i]]
                value[t[i], node[i]] = Yn.mean(axis=0)
                first = Yn[0]
                pure[i] = (np.abs(Yn - first) <= 1e-8 + 1e-5 * np.abs(first)).all()
        g = np.flatnonzero((depth < max_depth) & (count >= 2) & ~pure)
        if not g.size:
            continue
        tg, eg = t[g], e[g]
        if n_candidates < m:
            cand = np.array([np.sort(rngs[i].choice(m, size=n_candidates, replace=False)) for i in tg])
        else:
            cand = np.broadcast_to(np.arange(m), (g.size, m))
        c = cand.shape[1]
        tk, fk, ek, ck = np.repeat(tg, c), cand.ravel(), np.repeat(eg, c), np.repeat(count[g], c)
        # each (node, candidate) pair's rows in the column's sorted order, moved to the front
        ranked = order[tk, fk]
        inside = owner[tk[:, None], ranked] == ek[:, None]
        front = np.argsort(~inside, axis=1, kind="stable")[:, : int(ck.max())]
        rows = np.take_along_axis(ranked, front, axis=1)
        xs = columns[tk[:, None], fk[:, None], rows]
        has_cut, cost, cut = (a.reshape(g.size, c) for a in _cut_costs(xs, targets[tk[:, None], rows], ck))
        pick = np.full(g.size, -1)
        best = np.empty(g.size)
        for j in range(c):
            better = has_cut[:, j] & ((pick < 0) | (cost[:, j] < best))
            pick[better] = j
            best[better] = cost[better, j]
        s = np.flatnonzero(pick >= 0)
        ts, ks, split = tg[s], node[g[s]], pick[s]
        fs, cuts = cand[s, split], cut[s, split]
        feature[ts, ks] = fs
        threshold[ts, ks] = cuts
        left = entries[ts]
        entries[ts] += 2
        goes = np.where(columns[ts, fs] <= cuts[:, None], left[:, None], left[:, None] + 1)
        owner[ts] = np.where(member[g[s]], goes, owner[ts])
        stack[ts, top[ts]] = left + 1
        stack[ts, top[ts] + 1] = left
        top[ts] += 2
        entry_depth[ts, left] = entry_depth[ts, left + 1] = depth[g[s]] + 1
        entry_link[ts, left] = 2 * ks
        entry_link[ts, left + 1] = 2 * ks + 1

    # the trees' nodes one after another; a leaf tests feature 0 and links to itself, and
    # every entry became a node, so the deepest entry gives the number of steps of a walk
    grown = np.arange(cap) < size[:, None]
    roots = np.concatenate(([0], np.cumsum(size)[:-1]))
    feature = feature[grown]
    leaf = feature < 0
    itself = np.arange(feature.size)
    offsets = np.repeat(roots, size)
    children = np.where(leaf[:, None], itself[:, None],
                        links.reshape(n_trees, cap, 2)[grown] + offsets[:, None])
    return TreeStack(feature=np.where(leaf, 0, feature), threshold=threshold[grown],
                     children=children.ravel(), value=value[grown], roots=roots,
                     depth=int(entry_depth.max()))


# ---- stacked walk ----

# (tree, row) pairs that one block of the stacked walk descends together. It
# bounds the walk's per-level index arrays. On 100-tree forests fitted to 48
# rows, called with 240 rows (26 trees per block), a call took 2.2 ms. Walking
# all trees at once took 2.5 ms and left the forest label factory's peak RSS
# 0.2-0.6 MB higher; blocks of 1600 pairs took 3.3 ms. The per-tree walk took
# about 9 ms.
PAIRS_PER_BLOCK = 6400
# each thread's work arrays of the stacked walk, kept from call to call. With
# fresh arrays at every level, whether glibc handed the freed heap top back to
# the OS, to fault it in again one level later, hung on the heap's layout: on
# one run the forest label factory's permutation entries took 2000 page faults
# each, on the next none.
_WALK_SCRATCH = threading.local()


def _walk_scratch(name: str, size: int, dtype) -> np.ndarray:
    """This thread's work array ``name`` of ``dtype``, ``size`` elements long."""
    key = (name, np.dtype(dtype).str)
    buffers = vars(_WALK_SCRATCH)
    if key not in buffers or buffers[key].size < size:
        buffers[key] = np.empty(size, dtype)
    return buffers[key][:size]


@dataclass(frozen=True)
class TreeStack:
    """Trees concatenated with node offsets, so that one walk serves all of them.

    ``children[2 * node]`` is a node's left child and ``children[2 * node + 1]``
    its right one. Leaves link to themselves and test feature 0, so a
    (tree, row) pair that reached its leaf stays there while deeper trees
    finish. ``depth`` is the longest root-to-leaf path over the trees: the
    number of steps a walk takes.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf value over the trees, (n,) or (n, d); safe for concurrent callers.

        Each row's leaf values are summed in tree order, starting from the
        first tree's, then divided by the tree count. The walk runs in this
        thread's work arrays; its takes clip rather than check their indices,
        which ``_fit_bagged`` and the checks before it keep in range.
        """
        n, m = X.shape
        x_flat = X.ravel()
        row_starts = np.arange(n) * m
        per_block = max(1, PAIRS_PER_BLOCK // max(n, 1))
        most = min(per_block, self.roots.size) * n
        leaf_shape = self.value.shape[1:]
        work = [_walk_scratch(name, most, dtype) for name, dtype in (
            ("nodes", self.children.dtype), ("cells", row_starts.dtype), ("index", np.intp),
            ("x_at", x_flat.dtype), ("cut", self.threshold.dtype), ("right", bool))]
        leaf_work = _walk_scratch("leaves", most * math.prod(leaf_shape), self.value.dtype)
        total = None
        for start in range(0, self.roots.size, per_block):
            roots = self.roots[start : start + per_block]
            pairs = roots.size * n
            nodes, cells, index, x_at, cut, right = (a[:pairs] for a in work)
            nodes.reshape(roots.size, n)[:] = roots[:, None]
            cells.reshape(roots.size, n)[:] = row_starts
            for _ in range(self.depth):
                # right = ~(x[cell + feature[node]] <= threshold[node]); node = children[2 * node + right]
                # (positional out: the keyword costs as much as a small op)
                self.feature.take(nodes, None, index, "clip")
                index += cells
                x_flat.take(index, None, x_at, "clip")
                self.threshold.take(nodes, None, cut, "clip")
                np.less_equal(x_at, cut, right)
                np.logical_not(right, right)
                np.multiply(nodes, 2, index)
                index += right
                self.children.take(index, None, nodes, "clip")
            leaves = leaf_work[: pairs * math.prod(leaf_shape)].reshape((pairs,) + leaf_shape)
            self.value.take(nodes, 0, leaves, "clip")
            for leaf_values in leaves.reshape((roots.size, n) + leaf_shape):
                if total is None:
                    total = leaf_values.copy()
                else:
                    total += leaf_values
        return total / self.roots.size


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
    """A forest held as one ``TreeStack``, which ``train_forest`` builds."""

    stack: TreeStack = field(repr=False)
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf class-1 frequency across trees; safe for concurrent callers."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) inputs, got {X.shape}")
        return self.stack.predict(X)


def train_forest(X: np.ndarray, y: np.ndarray, cfg: ForestConfig | None = None) -> ForestModel:
    """Bagged CART trees; single-class bootstraps yield constant trees."""
    cfg = cfg or ForestConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(np.unique(y)) < 2 or not set(np.unique(y)) <= {0.0, 1.0}:
        raise ValueError("labels must be binary with both classes present")
    rngs = [np.random.default_rng(seq) for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.n_estimators)]
    return ForestModel(stack=_fit_bagged(X, y, rngs, cfg.max_depth), n_features=X.shape[1])
