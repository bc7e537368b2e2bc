"""In-context transformer that maps (X, Y_hat) rows to bucketized attribution distributions.

One token per row: the prediction sits in slot 0, the feature being explained
in slot 1, the remaining features follow in canonical order, zero-padded to
the slot budget. Learned per-slot position embeddings are added for occupied
slots only, so the token also encodes how many features are active. Rows
interact through bidirectional self-attention with no masking and no
cross-row position encoding; attributions are read out per feature as the
expectation of a softmax distribution over standardized-value buckets.
Ground-truth attributions are never part of the input.

Training runs on the autodiff graph, over views of one flat weight buffer.
Serving builds no graph: ``forward`` replays the graph's arithmetic in plain
numpy over the weight arrays, op by op, so its output is bit-equal to the
graph's.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint


@dataclass
class ExplainerConfig:
    embed_dim: int = 64
    n_layers: int = 3
    n_heads: int = 4
    n_buckets: int = 32
    bucket_low: float = -4.0
    bucket_high: float = 4.0
    max_features: int = 10
    max_context_rows: int = 512
    ffn_multiplier: int = 4
    lr_low: float = 1e-7
    lr_high: float = 1e-4
    train_steps: int = 3000
    restarts: int = 3

    def __post_init__(self):
        if self.n_buckets < 2:
            raise ValueError("need at least two buckets")
        if self.embed_dim < 1 or self.max_features < 1:
            raise ValueError(f"embed_dim and max_features must be at least 1, got {self.embed_dim} "
                             f"and {self.max_features}")
        if self.n_layers < 0:
            raise ValueError(f"n_layers must not be negative, got {self.n_layers}")
        if self.n_heads < 1 or self.embed_dim % self.n_heads != 0:
            raise ValueError("embed_dim must be divisible by n_heads")
        if self.bucket_high <= self.bucket_low:
            raise ValueError("bucket range must be increasing")
        if self.max_context_rows < 2:
            # a chunked table's fixed reference is max_context_rows // 2 rows
            raise ValueError(f"max_context_rows must be at least 2, got {self.max_context_rows}")
        if self.train_steps < 1 or self.restarts < 1:
            raise ValueError(f"train_steps and restarts must be at least 1, got {self.train_steps} "
                             f"and {self.restarts}")
        if not 0 < self.lr_low <= self.lr_high < math.inf:
            raise ValueError(f"lr_low and lr_high must be finite with 0 < lr_low <= lr_high, got "
                             f"{self.lr_low} and {self.lr_high}")

    @property
    def n_slots(self) -> int:
        return self.max_features + 1

    def bucket_edges(self) -> np.ndarray:
        return np.linspace(self.bucket_low, self.bucket_high, self.n_buckets + 1)

    def bucket_centers(self) -> np.ndarray:
        edges = self.bucket_edges()
        centers = 0.5 * (edges[:-1] + edges[1:])
        # tail buckets absorb out-of-range mass; pseudo-centers sit one
        # bucket width beyond the outer edges
        centers[0] = edges[0] - (edges[1] - edges[0])
        centers[-1] = edges[-1] + (edges[-1] - edges[-2])
        return centers


@dataclass
class ExplainerWeights:
    params: dict[str, ad.Tensor]
    config: ExplainerConfig
    metadata: dict = field(default_factory=dict)


def bucket_index(targets: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Half-open bucket assignment [edge_k, edge_{k+1}); out-of-range clamps to the tails."""
    idx = np.searchsorted(edges, np.asarray(targets, dtype=np.float64), side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def standardize_targets(phi: np.ndarray) -> np.ndarray:
    """Standardize all attribution entries of one task by their global mean/std; a
    constant matrix maps to zeros."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.size == 0:
        raise ValueError("empty attribution matrix")
    if np.all(phi == phi.flat[0]):
        return np.zeros_like(phi)
    return (phi - float(phi.mean())) / phi.std()


def point_estimate(probs: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Expectation of the bucket distribution(s)."""
    return np.asarray(probs, dtype=np.float64) @ np.asarray(centers, dtype=np.float64)


def nlpd_loss(probs: np.ndarray, targets: np.ndarray, edges: np.ndarray) -> float:
    """Negative log predictive density, summed over all targets.

    Probabilities are floored at 1e-12 before the log.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).ravel()
    idx = bucket_index(targets, edges)
    picked = np.maximum(probs[np.arange(targets.size), idx], 1e-12)
    return float(-np.log(picked).sum() + 0.0)


def encode_rows(X: np.ndarray, y_hat: np.ndarray, target_feature: int,
                config: ExplainerConfig) -> np.ndarray:
    """Slot matrix (n, max_features + 1): [y_hat, x^j, remaining features, padding]."""
    X = np.asarray(X, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    n, m = X.shape
    if m > config.max_features:
        raise ValueError(f"{m} features exceeds max_features={config.max_features}")
    if not 0 <= target_feature < m:
        raise ValueError(f"target_feature {target_feature} out of range for m={m}")
    slots = np.zeros((n, config.n_slots))
    slots[:, 0] = y_hat
    slots[:, 1] = X[:, target_feature]
    rest = [j for j in range(m) if j != target_feature]
    if rest:
        slots[:, 2 : 2 + len(rest)] = X[:, rest]
    return slots


def _param_specs(config: ExplainerConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, initialiser) of every parameter, in the order ``init_params`` draws them."""
    d, S, B = config.embed_dim, config.n_slots, config.n_buckets
    hidden = d * config.ffn_multiplier
    specs = [
        ("embed_w", (S, d), "xavier"),
        ("slot_pos", (S, d), "position"),
        ("final_ln_g", (d,), "ones"),
        ("final_ln_b", (d,), "zeros"),
        # zero-init head: the initial predictive distribution is uniform
        ("head_w", (d, B), "zeros"),
        ("head_b", (B,), "zeros"),
    ]
    for i in range(config.n_layers):
        specs += [(f"l{i}_{name}", (d, d), "xavier") for name in ("wq", "wk", "wv", "wo")]
        specs += [
            (f"l{i}_ln1_g", (d,), "ones"),
            (f"l{i}_ln1_b", (d,), "zeros"),
            (f"l{i}_ffn_w1", (d, hidden), "xavier"),
            (f"l{i}_ffn_b1", (hidden,), "zeros"),
            (f"l{i}_ffn_w2", (hidden, d), "xavier"),
            (f"l{i}_ffn_b2", (d,), "zeros"),
            (f"l{i}_ln2_g", (d,), "ones"),
            (f"l{i}_ln2_b", (d,), "zeros"),
        ]
    return specs


def init_params(config: ExplainerConfig,
                rng: np.random.Generator) -> tuple[np.ndarray, dict[str, ad.Tensor]]:
    """Freshly drawn weights as one flat buffer, and a Tensor per parameter over its view into it."""
    def init(shape, kind):
        if kind == "xavier":
            return ad.xavier_init(rng, *shape)
        if kind == "position":
            return rng.normal(0.0, 0.02, size=shape)
        return np.ones(shape) if kind == "ones" else np.zeros(shape)

    specs = _param_specs(config)
    theta = np.concatenate([init(shape, kind).ravel() for _, shape, kind in specs])
    views = ad.flat_views(theta, [shape for _, shape, _ in specs])
    return theta, {name: ad.Tensor(view, requires_grad=True) for (name, _, _), view in zip(specs, views)}


def _ln_affine(x, gain, bias):
    return ad.add(ad.multiply(ad.layer_norm(x), gain), bias)


def _forward_graph(params: dict[str, ad.Tensor], slots: np.ndarray, n_active_slots: int,
                   config: ExplainerConfig) -> ad.Tensor:
    """Bucket probabilities for every row on the autodiff graph; pre-LN transformer encoder.

    Training only; ``_forward_numpy`` is the inference pass.
    """
    n = slots.shape[0]
    d = config.embed_dim
    H = config.n_heads
    dh = d // H

    pos = ad.embedding(params["slot_pos"], np.arange(n_active_slots))
    pos_sum = ad.multiply(ad.reduce_mean(pos, axis=0), float(n_active_slots))
    x = ad.add(ad.matmul(ad.Tensor(slots), params["embed_w"]), pos_sum)

    for i in range(config.n_layers):
        normed = _ln_affine(x, params[f"l{i}_ln1_g"], params[f"l{i}_ln1_b"])
        q = ad.matmul(normed, params[f"l{i}_wq"])
        k = ad.matmul(normed, params[f"l{i}_wk"])
        v = ad.matmul(normed, params[f"l{i}_wv"])
        qh = ad.transpose(ad.reshape(q, (n, H, dh)), (1, 0, 2))
        kt = ad.transpose(ad.reshape(k, (n, H, dh)), (1, 2, 0))
        vh = ad.transpose(ad.reshape(v, (n, H, dh)), (1, 0, 2))
        scores = ad.multiply(ad.matmul(qh, kt), 1.0 / math.sqrt(dh))
        attn = ad.softmax(scores)
        ctx = ad.reshape(ad.transpose(ad.matmul(attn, vh), (1, 0, 2)), (n, d))
        x = ad.add(x, ad.matmul(ctx, params[f"l{i}_wo"]))
        normed2 = _ln_affine(x, params[f"l{i}_ln2_g"], params[f"l{i}_ln2_b"])
        h = ad.relu(ad.add(ad.matmul(normed2, params[f"l{i}_ffn_w1"]), params[f"l{i}_ffn_b1"]))
        x = ad.add(x, ad.add(ad.matmul(h, params[f"l{i}_ffn_w2"]), params[f"l{i}_ffn_b2"]))

    final = _ln_affine(x, params["final_ln_g"], params["final_ln_b"])
    logits = ad.add(ad.matmul(final, params["head_w"]), params["head_b"])
    return ad.softmax(logits)


def _ln_affine_numpy(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``_ln_affine`` in the op order of ``ad.layer_norm``, with its eps."""
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + ad.LN_EPS)
    return centered * inv * gain + bias


def _forward_numpy(params: dict[str, ad.Tensor], slots: np.ndarray, n_active_slots: int,
                   config: ExplainerConfig, query_rows: np.ndarray | None = None) -> np.ndarray:
    """Bucket probabilities for each (query) row, with no graph.

    Replays ``_forward_graph`` op by op on the weight arrays, so the result
    is bit-equal to ``_forward_graph(...).data[query_rows]``. The head split
    copies q, k^T and v into the contiguous layouts the graph's tensors hold,
    since BLAS may round differently on other strides. One (H, n, n) score
    array serves every layer: scale, max-shift, exp and normalise run in
    place, as do the residual adds and the FFN bias and ReLU, which keeps
    large temporaries from being handed back to the OS and faulted in again.
    Query rows are gathered after the final layer norm; every later op works
    row by row.
    """
    w = {name: p.data for name, p in params.items()}
    n = slots.shape[0]
    d = config.embed_dim
    H = config.n_heads
    dh = d // H
    scale = 1.0 / math.sqrt(dh)

    pos_sum = w["slot_pos"][:n_active_slots].mean(axis=0) * float(n_active_slots)
    x = slots @ w["embed_w"] + pos_sum
    scores = np.empty((H, n, n))

    for i in range(config.n_layers):
        normed = _ln_affine_numpy(x, w[f"l{i}_ln1_g"], w[f"l{i}_ln1_b"])
        qh = np.ascontiguousarray((normed @ w[f"l{i}_wq"]).reshape(n, H, dh).transpose(1, 0, 2))
        kt = np.ascontiguousarray((normed @ w[f"l{i}_wk"]).reshape(n, H, dh).transpose(1, 2, 0))
        vh = np.ascontiguousarray((normed @ w[f"l{i}_wv"]).reshape(n, H, dh).transpose(1, 0, 2))
        np.matmul(qh, kt, out=scores)
        scores *= scale
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        ctx = (scores @ vh).transpose(1, 0, 2).reshape(n, d)
        x += ctx @ w[f"l{i}_wo"]
        h = _ln_affine_numpy(x, w[f"l{i}_ln2_g"], w[f"l{i}_ln2_b"]) @ w[f"l{i}_ffn_w1"]
        h += w[f"l{i}_ffn_b1"]
        np.maximum(h, 0.0, out=h)
        ffn = h @ w[f"l{i}_ffn_w2"]
        ffn += w[f"l{i}_ffn_b2"]
        x += ffn

    final = _ln_affine_numpy(x, w["final_ln_g"], w["final_ln_b"])
    if query_rows is not None:
        final = final[query_rows]
    logits = final @ w["head_w"] + w["head_b"]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def forward(weights: ExplainerWeights, X: np.ndarray, y_hat: np.ndarray, target_feature: int,
            X_ref: np.ndarray | None = None, y_ref: np.ndarray | None = None) -> np.ndarray:
    """Bucket distribution per query row, conditioned on the reference set.

    With no explicit reference set the query rows serve as their own context.
    Reference and query tokens form one sequence under full bidirectional
    attention; only query rows are read out.
    """
    config = weights.config
    X = np.asarray(X, dtype=np.float64)
    n_query = X.shape[0]
    if X_ref is not None:
        X_ref = np.asarray(X_ref, dtype=np.float64)
        if X_ref.shape[1] != X.shape[1]:
            raise ValueError("reference and query sets must share the feature count")
        slots_ref = encode_rows(X_ref, y_ref, target_feature, config)
        slots_query = encode_rows(X, y_hat, target_feature, config)
        slots = np.vstack([slots_ref, slots_query])
        query_rows = np.arange(X_ref.shape[0], slots.shape[0])
    else:
        slots = encode_rows(X, y_hat, target_feature, config)
        query_rows = None
    if slots.shape[0] > config.max_context_rows:
        raise ValueError(
            f"{slots.shape[0]} rows exceed max_context_rows={config.max_context_rows}; "
            "split the queries into chunks against a fixed reference set"
        )
    out = _forward_numpy(weights.params, slots, X.shape[1] + 1, config, query_rows)
    assert out.shape == (n_query, config.n_buckets)
    return out


def explain_zero_shot(weights: ExplainerWeights, X: np.ndarray, y_hat: np.ndarray,
                      X_ref: np.ndarray | None = None, y_ref: np.ndarray | None = None) -> np.ndarray:
    """Raw attribution matrix in standardized units: one forward pass per feature.

    A table longer than ``max_context_rows`` with no explicit reference set
    is explained in chunks against a fixed reference set: its first
    ``max_context_rows // 2`` rows. Downstream consumers are expected to run
    the axiom-based corrections before reporting; no rescaling happens here.
    """
    X = np.asarray(X, dtype=np.float64)
    limit = weights.config.max_context_rows
    if X_ref is None and X.shape[0] > limit:
        y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
        n_ref = limit // 2
        chunk = limit - n_ref
        return np.vstack([
            explain_zero_shot(weights, X[start : start + chunk], y_hat[start : start + chunk],
                              X[:n_ref], y_hat[:n_ref])
            for start in range(0, X.shape[0], chunk)
        ])
    centers = weights.config.bucket_centers()
    out = np.empty_like(X)
    for j in range(X.shape[1]):
        probs = forward(weights, X, y_hat, j, X_ref, y_ref)
        out[:, j] = point_estimate(probs, centers)
    return out


def _training_loss_graph(params, slots, n_active, targets, config) -> ad.Tensor:
    """Mean NLPD per row for one feature pass, built on the autodiff graph."""
    probs = _forward_graph(params, slots, n_active, config)
    idx = bucket_index(targets, config.bucket_edges())
    onehot = np.zeros((targets.size, config.n_buckets))
    onehot[np.arange(targets.size), idx] = 1.0
    picked = ad.multiply(
        ad.reduce_mean(ad.multiply(probs, ad.Tensor(onehot)), axis=-1), float(config.n_buckets)
    )
    return ad.multiply(ad.reduce_mean(ad.log(ad.clamp_min(picked, 1e-12))), -1.0)


def _task_step_loss(params, triplet, config, grads) -> float:
    """Mean NLPD over one task's features; sums each feature's backward sweep into
    ``grads`` (flat-buffer views in ``params`` order), feature 0 first."""
    phi_std = standardize_targets(triplet.phi)
    m = triplet.m
    total = 0.0
    for j in range(m):
        slots = encode_rows(triplet.X, triplet.y_hat, j, config)
        loss = _training_loss_graph(params, slots, m + 1, phi_std[:, j], config)
        total += loss.item()
        loss.backward()
        for g, p in zip(grads, params.values()):
            if j:
                g += p.grad
            else:
                g[...] = p.grad
    return total / m


def train(pool_sampler, config: ExplainerConfig | None = None,
          rng: np.random.Generator | None = None, log_every: int = 0) -> ExplainerWeights:
    """Cosine-annealed Adam over pool draws; best of ``restarts`` lr samples wins.

    Each restart draws its peak learning rate log-uniformly from the
    configured range and anneals it to zero over the step budget. A step sums
    the task's per-feature gradients into one flat gradient buffer, divides
    it by the feature count and makes one ``ad.adam_step``. The restart with
    the lowest final smoothed NLPD is returned; restarts that go non-finite
    are dropped.
    """
    config = config or ExplainerConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    best: ExplainerWeights | None = None
    history = []
    for restart in range(config.restarts):
        peak_lr = 10 ** rng.uniform(math.log10(config.lr_low), math.log10(config.lr_high))
        theta, params = init_params(config, rng)
        grad = np.empty_like(theta)
        grads = ad.flat_views(grad, [p.shape for p in params.values()])
        state = ad.AdamState(theta.size)
        smoothed = None
        initial = None
        try:
            for step in range(config.train_steps):
                lr = peak_lr * 0.5 * (1.0 + math.cos(math.pi * step / config.train_steps))
                triplet = pool_sampler()
                loss = _task_step_loss(params, triplet, config, grads)
                grad /= triplet.m
                ad.adam_step(theta, grad, state, lr)
                if not np.isfinite(loss):
                    raise FloatingPointError(f"non-finite loss at step {step}")
                smoothed = loss if smoothed is None else 0.98 * smoothed + 0.02 * loss
                if initial is None:
                    initial = smoothed
                if log_every and (step + 1) % log_every == 0:
                    print(
                        f"restart {restart} step {step + 1}/{config.train_steps} "
                        f"lr={lr:.2e} smoothed_nlpd={smoothed:.4f}",
                        flush=True,
                    )
        except FloatingPointError:
            history.append({"restart": restart, "peak_lr": peak_lr, "failed": True})
            continue
        record = {
            "restart": restart,
            "peak_lr": peak_lr,
            "initial_loss": initial,
            "final_loss": smoothed,
        }
        history.append(record)
        if best is None or smoothed < best.metadata["final_loss"]:
            best = ExplainerWeights(params, config, metadata={
                "steps": config.train_steps,
                "final_loss": smoothed,
                "initial_loss": initial,
                "peak_lr": peak_lr,
                "restarts": history,
            })
    if best is None:
        raise RuntimeError("every training restart diverged")
    best.metadata["restarts"] = history
    return best


def save_weights(path, weights: ExplainerWeights) -> None:
    arrays = {name: p.data for name, p in weights.params.items()}
    config = {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(weights.config).items()}
    save_checkpoint(path, "explainer", arrays, config=config, metadata=weights.metadata)


def load_weights(path) -> ExplainerWeights:
    """Weights ``save_weights`` wrote; CheckpointError if the file's config or
    arrays do not make an explainer."""
    arrays, config, metadata = load_checkpoint(path, expected_kind="explainer")
    fields = {f.name: type(f.default) for f in dataclasses.fields(ExplainerConfig)}
    if config.keys() != fields.keys():
        raise CheckpointError(f"{path}: config keys missing {sorted(fields - config.keys())}, "
                              f"unknown {sorted(config.keys() - fields)}")
    # a float field may hold an int, as a Python caller may have passed one
    mistyped = sorted(name for name, kind in fields.items() if type(config[name]) not in (kind, int))
    if mistyped:
        raise CheckpointError(f"{path}: config values of the wrong type: {mistyped}")
    try:
        cfg = ExplainerConfig(**config)
    except ValueError as exc:
        raise CheckpointError(f"{path}: config does not describe an explainer ({exc})") from exc
    expected = {name: shape for name, shape, _ in _param_specs(cfg)}
    found = {name: arr.shape for name, arr in arrays.items()}
    if found != expected:
        wrong = sorted(name for name in expected.keys() | found.keys()
                       if found.get(name) != expected.get(name))
        raise CheckpointError(f"{path}: arrays do not fit the config: {wrong[:5]} "
                              f"missing, unknown or misshapen")
    if not all(np.isfinite(arr).all() for arr in arrays.values()):
        raise CheckpointError(f"{path}: non-finite weights")
    params = {name: ad.Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    return ExplainerWeights(params=params, config=cfg, metadata=metadata)
