"""Dense float64 tensor kernel with reverse-mode automatic differentiation.

The explainer's training graph is built from it. Small closed primitive set
(matmul of operands with two or more axes, add, multiply, relu, tanh,
softmax, layer norm, embedding lookup, reduce-mean, log) plus the
structural ops (reshape, transpose) needed to express multi-head attention.
Everything else is composed from these. Single-threaded per graph; graphs
on distinct threads share no mutable state but the node-uid source, an
``itertools.count`` whose ``next`` is atomic in CPython, so uids stay
unique across threads.

Also the one Adam step, over the flat parameter buffer of every trained
model. The finite-difference gradient check that guards the backward rules
lives with the test oracles.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_UIDS = itertools.count(1)  # creation order, which is topological
# added to the variance by ``layer_norm``; the explainer's numpy replay of the graph reads it too
LN_EPS = 1e-5


class ShapeError(ValueError):
    pass


class Tensor:
    """A dense f64 array node in a dynamically built compute graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_uid")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None, _op: str = "leaf"):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._op = _op
        self._uid = next(_UIDS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(op={self._op}, shape={self.shape}, grad={self.requires_grad})"

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Visits each reachable node exactly once, in reverse topological
        (creation) order; creation order is topological by construction.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        nodes = _ancestors(self)
        for node in nodes:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in sorted(nodes, key=lambda t: t._uid, reverse=True):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        for node in nodes:
            if node.requires_grad and node.grad is None:
                node.grad = np.zeros_like(node.data)


def _ancestors(root: Tensor) -> list[Tensor]:
    seen: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)
    return list(seen.values())


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


def _accum(t: Tensor, grad: np.ndarray) -> None:
    """Lazy gradient accumulation; copies on first write (buffers may be shared)."""
    if t.grad is None:
        t.grad = np.array(grad)
    else:
        t.grad += grad


def matmul(a, b) -> Tensor:
    """Matrix product of operands with at least two axes; leading axes broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out_data = a.data @ b.data

    def backward(grad):
        if a.requires_grad or a._parents:
            _accum(a, _unbroadcast(grad @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad or b._parents:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ grad, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward if _needs_grad(a, b) else None, _op="matmul")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(grad):
        if a.requires_grad or a._parents:
            _accum(a, _unbroadcast(grad, a.shape))
        if b.requires_grad or b._parents:
            _accum(b, _unbroadcast(grad, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward if _needs_grad(a, b) else None, _op="add")


def multiply(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"multiply: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(grad):
        if a.requires_grad or a._parents:
            _accum(a, _unbroadcast(grad * b.data, a.shape))
        if b.requires_grad or b._parents:
            _accum(b, _unbroadcast(grad * a.data, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward if _needs_grad(a, b) else None, _op="multiply")


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def backward(grad):
        # subgradient 0 at the kink
        _accum(x, grad * (x.data > 0.0))

    return Tensor(out_data, _parents=(x,), _backward=backward if _needs_grad(x) else None, _op="relu")


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.tanh(x.data)

    def backward(grad):
        _accum(x, grad * (1.0 - out_data * out_data))

    return Tensor(out_data, _parents=(x,), _backward=backward if _needs_grad(x) else None, _op="tanh")


def log(x) -> Tensor:
    x = _as_tensor(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        out_data = np.log(x.data)

    def backward(grad):
        _accum(x, grad / x.data)

    return Tensor(out_data, _parents=(x,), _backward=backward if _needs_grad(x) else None, _op="log")


def softmax(x) -> Tensor:
    """Softmax over the last axis."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(grad):
        inner = (grad * out_data).sum(axis=-1, keepdims=True)
        _accum(x, out_data * (grad - inner))

    return Tensor(out_data, _parents=(x,), _backward=backward if _needs_grad(x) else None, _op="softmax")


def layer_norm(x) -> Tensor:
    """Normalize over the last axis to zero mean, unit variance (no affine)."""
    x = _as_tensor(x)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv

    def backward(grad):
        g_mean = grad.mean(axis=-1, keepdims=True)
        gx_mean = (grad * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (grad - g_mean - xhat * gx_mean))

    return Tensor(xhat, _parents=(x,), _backward=backward if _needs_grad(x) else None, _op="layer_norm")


def embedding(table, indices) -> Tensor:
    """Row lookup table[indices]; gradients scatter-add into the table."""
    table = _as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embedding: index out of range for table with {table.shape[0]} rows")
    out_data = table.data[idx]

    def backward(grad):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, grad)

    return Tensor(out_data, _parents=(table,), _backward=backward if _needs_grad(table) else None, _op="embedding")


def reduce_mean(x, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    out_data = x.data.mean(axis=axis) if axis is not None else np.asarray(x.data.mean())
    count = x.data.size if axis is None else x.shape[axis]

    def backward(grad):
        if axis is None:
            _accum(x, np.broadcast_to(grad / count, x.shape))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(grad, axis) / count, x.shape))

    return Tensor(out_data, _parents=(x,), _backward=backward if _needs_grad(x) else None, _op="reduce_mean")


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    out_data = x.data.reshape(shape)

    def backward(grad):
        _accum(x, grad.reshape(x.shape))

    return Tensor(out_data, _parents=(x,), _backward=backward if _needs_grad(x) else None, _op="reshape")


def transpose(x, axes: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    out_data = np.transpose(x.data, axes)
    inverse = np.argsort(axes)

    def backward(grad):
        _accum(x, np.transpose(grad, inverse))

    return Tensor(out_data, _parents=(x,), _backward=backward if _needs_grad(x) else None, _op="transpose")


# ---- compositions (not primitives) ----


def sigmoid(x) -> Tensor:
    """sigmoid(z) = (tanh(z/2) + 1) / 2, composed from primitives."""
    return multiply(add(tanh(multiply(x, 0.5)), 1.0), 0.5)


def clamp_min(x, floor: float) -> Tensor:
    """max(x, floor) composed as relu(x - floor) + floor."""
    return add(relu(add(x, -floor)), floor)


# ---- optimizer ----

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def flat_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive C-ordered views into one flat buffer, one per shape."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


class AdamState:
    """Adam's moment estimates for one flat parameter buffer, and the work space of its update."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = np.empty((2, size))
        self.t = 0


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction of the flat buffer ``theta``, in place.

    Computes ``theta -= lr * mhat / (sqrt(vhat) + EPS)`` elementwise, in that
    order of rounding. Every operation writes into ``state``'s buffers, so a
    step allocates nothing the size of ``theta``; ``grad`` is only read.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    state.t += 1
    m, v, (num, den) = state.m, state.v, state.scratch
    m *= BETA1
    np.multiply(grad, 1.0 - BETA1, out=num)
    m += num
    v *= BETA2
    np.multiply(grad, grad, out=den)
    den *= 1.0 - BETA2
    v += den
    np.divide(m, 1.0 - BETA1**state.t, out=num)
    num *= lr
    np.divide(v, 1.0 - BETA2**state.t, out=den)
    np.sqrt(den, out=den)
    den += EPS
    num /= den
    theta -= num


def xavier_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, scale, size=(fan_in, fan_out))
