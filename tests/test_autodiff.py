import numpy as np
import pytest

from oracles import ReferenceAdamState, finite_difference_check, reference_adam_step
from zeroshap import autodiff as ad


def test_matmul_identity():
    a = ad.Tensor(np.random.default_rng(0).normal(size=(4, 4)))
    out = ad.matmul(a, np.eye(4))
    np.testing.assert_array_equal(out.data, a.data)


def test_relu_definition():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_softmax_equal_logits():
    out = ad.softmax(ad.Tensor([1.3, 1.3, 1.3, 1.3]))
    np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-15)


def test_shape_mismatch_names_op():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))


def test_backward_square():
    x = ad.Tensor(3.0, requires_grad=True)
    loss = ad.multiply(x, x)
    loss.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    out = ad.multiply(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        out.backward()


def test_backward_mean_linear():
    rng = np.random.default_rng(1)
    W = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = ad.Tensor(rng.normal(size=(1, 3)))
    loss = ad.reduce_mean(ad.matmul(x, W))
    loss.backward()
    expected = np.outer(x.data, np.ones(2)) / 2.0
    np.testing.assert_allclose(W.grad, expected, atol=1e-12)


def test_matmul_rejects_one_axis_operands():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))


def _mlp_loss(params):
    x = params["_x"]
    h = ad.relu(ad.add(ad.matmul(x, params["w1"]), params["b1"]))
    h2 = ad.tanh(ad.add(ad.matmul(h, params["w2"]), params["b2"]))
    out = ad.add(ad.matmul(h2, params["w3"]), params["b3"])
    return ad.reduce_mean(ad.multiply(out, out))


def test_finite_difference_three_layer_mlp():
    rng = np.random.default_rng(7)
    params = {
        "w1": ad.Tensor(rng.normal(size=(4, 8), scale=0.5), requires_grad=True),
        "b1": ad.Tensor(rng.normal(size=8, scale=0.3), requires_grad=True),
        "w2": ad.Tensor(rng.normal(size=(8, 6), scale=0.5), requires_grad=True),
        "b2": ad.Tensor(rng.normal(size=6, scale=0.3), requires_grad=True),
        "w3": ad.Tensor(rng.normal(size=(6, 1), scale=0.5), requires_grad=True),
        "b3": ad.Tensor(rng.normal(size=1, scale=0.3), requires_grad=True),
    }
    # inputs bounded away from relu kinks by the random scales
    params["_x"] = ad.Tensor(rng.normal(size=(5, 4)))
    trainable = {k: v for k, v in params.items() if not k.startswith("_")}

    def loss_fn(p):
        return _mlp_loss({**p, "_x": params["_x"]})

    err = finite_difference_check(loss_fn, trainable, step=1e-5)
    assert err < 1e-4


def test_finite_difference_linear_exact():
    rng = np.random.default_rng(3)
    params = {"w": ad.Tensor(rng.normal(size=(6, 1)), requires_grad=True)}
    x = np.ascontiguousarray(rng.normal(size=(4, 6)))

    def loss_fn(p):
        return ad.reduce_mean(ad.matmul(ad.Tensor(x), p["w"]))

    assert finite_difference_check(loss_fn, params, step=1e-5) < 1e-8


def test_finite_difference_softmax_log():
    rng = np.random.default_rng(11)
    params = {"w": ad.Tensor(rng.normal(size=(5, 4), scale=0.8), requires_grad=True)}
    x = rng.normal(size=(7, 5))
    onehot = np.eye(4)[rng.integers(0, 4, size=7)]

    def loss_fn(p):
        probs = ad.softmax(ad.matmul(ad.Tensor(x), p["w"]))
        picked = ad.multiply(ad.reduce_mean(ad.multiply(probs, ad.Tensor(onehot)), axis=-1), 4.0)
        return ad.multiply(ad.reduce_mean(ad.log(picked)), -1.0)

    assert finite_difference_check(loss_fn, params, step=1e-5) < 1e-4


def test_finite_difference_layer_norm_embedding():
    rng = np.random.default_rng(5)
    params = {
        "table": ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True),
        "w": ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True),
    }
    idx = np.array([0, 2, 5, 2])

    def loss_fn(p):
        emb = ad.embedding(p["table"], idx)
        normed = ad.layer_norm(emb)
        return ad.reduce_mean(ad.multiply(ad.matmul(normed, p["w"]), 1.0))

    assert finite_difference_check(loss_fn, params, step=1e-5) < 1e-4


def test_adam_zero_gradient_fixed_point():
    theta = np.array([1.5, -2.0])
    ad.adam_step(theta, np.zeros(2), ad.AdamState(2), lr=0.1)
    np.testing.assert_array_equal(theta, [1.5, -2.0])


def test_adam_first_step_magnitude():
    theta = np.array([0.0])
    ad.adam_step(theta, np.array([2.5]), ad.AdamState(1), lr=0.01)
    # bias-corrected first step moves by ~lr against the gradient sign
    assert theta[0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_rejects_nonpositive_lr():
    with pytest.raises(ValueError, match="learning rate"):
        ad.adam_step(np.zeros(1), np.zeros(1), ad.AdamState(1), lr=0.0)


def test_adam_minimizes_quadratic():
    x = ad.Tensor(np.array([10.0]), requires_grad=True)
    state = ad.AdamState(1)
    for _ in range(500):
        diff = ad.add(x, -2.0)
        loss = ad.reduce_mean(ad.multiply(diff, diff))
        loss.backward()
        ad.adam_step(x.data, x.grad, state, lr=0.1)
    assert abs(x.data[0] - 2.0) < 1e-3


def test_flat_adam_equals_per_array_reference_adam():
    rng = np.random.default_rng(4)
    shapes = {"w": (5, 7), "b": (7,), "table": (3, 2, 4), "scalar": (1,)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    theta = np.concatenate([params[name].ravel() for name in shapes])
    views = ad.flat_views(theta, list(shapes.values()))
    state, ref_state = ad.AdamState(theta.size), ReferenceAdamState()
    for step in range(50):
        # gradients over many magnitudes, with exact zeros among them
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape)
                 * (rng.uniform(size=shape) > 0.1) for name, shape in shapes.items()}
        grad = np.concatenate([grads[name].ravel() for name in shapes])
        lr = 0.05 / (step + 1)
        ad.adam_step(theta, grad, state, lr)
        reference_adam_step(params, grads, ref_state, lr)
        for name, view in zip(shapes, views):
            assert np.array_equal(view, params[name]), (step, name)


def test_forward_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 5))
    w = rng.normal(size=(5, 5))

    def run():
        return ad.softmax(ad.layer_norm(ad.matmul(ad.Tensor(x), ad.Tensor(w)))).data

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_transpose_reshape_roundtrip_gradients():
    rng = np.random.default_rng(2)
    params = {"w": ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)}

    def loss_fn(p):
        t = ad.transpose(p["w"], (1, 0, 2))
        r = ad.reshape(t, (3, 8))
        return ad.reduce_mean(ad.multiply(r, r))

    assert finite_difference_check(loss_fn, params, step=1e-5) < 1e-6


def test_sigmoid_composition_matches_closed_form():
    z = np.linspace(-4, 4, 21)
    out = ad.sigmoid(ad.Tensor(z)).data
    np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-z)), atol=1e-12)


def test_clamp_min_floor():
    out = ad.clamp_min(ad.Tensor([1e-20, 0.5]), 1e-12).data
    np.testing.assert_allclose(out, [1e-12, 0.5], rtol=1e-9)
