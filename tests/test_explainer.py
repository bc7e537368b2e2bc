import dataclasses
import itertools

import numpy as np
import pytest

from oracles import finite_difference_check, reference_explainer_train
from zeroshap import autodiff as ad
from zeroshap import explainer as ex
from zeroshap.pool import TrainingTriplet

MICRO = ex.ExplainerConfig(
    embed_dim=8, n_layers=1, n_heads=2, n_buckets=4, max_features=4,
    max_context_rows=64, train_steps=60, restarts=1, lr_low=1e-3, lr_high=1e-2,
)


def small_weights(config=MICRO, seed=0, random_head=False):
    _, params = ex.init_params(config, np.random.default_rng(seed))
    if random_head:
        rng = np.random.default_rng(seed + 1)
        params["head_w"].data = rng.normal(0, 0.4, size=params["head_w"].shape)
        params["head_b"].data = rng.normal(0, 0.2, size=params["head_b"].shape)
    return ex.ExplainerWeights(params, config)


def toy_task(seed, n=12, m=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    return X, 1.0 / (1.0 + np.exp(-X.sum(axis=1)))


def forward_rows(w, X, y, j, query_rows=None):
    """``forward`` over the rows of (X, y) as one context, explaining feature j."""
    return ex.forward(w, ex.encode_rows(X, y, j, w.config), X.shape[1] + 1, query_rows)


def default_weights(seed):
    """Default-size weights with every parameter moved off its initial value."""
    config = ex.ExplainerConfig()
    rng = np.random.default_rng(seed)
    _, params = ex.init_params(config, rng)
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.1, size=p.shape)
    return ex.ExplainerWeights(params, config)


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExplainerConfig(n_buckets=1)
    with pytest.raises(ValueError):
        ex.ExplainerConfig(embed_dim=10, n_heads=4)


def test_bucket_centers_pseudo_tails():
    cfg = ex.ExplainerConfig()
    centers = cfg.bucket_centers()
    assert centers[0] == pytest.approx(-4.25)
    assert centers[-1] == pytest.approx(4.25)
    assert centers[1] == pytest.approx(-3.875 + 0.25)  # second bucket midpoint


def test_bucket_index_tie_goes_higher():
    edges = np.array([0.0, 1.0, 2.0, 3.0])
    assert ex.bucket_index(np.array([1.0]), edges)[0] == 1
    assert ex.bucket_index(np.array([0.5]), edges)[0] == 0
    assert ex.bucket_index(np.array([-5.0]), edges)[0] == 0
    assert ex.bucket_index(np.array([9.0]), edges)[0] == 2
    assert ex.bucket_index(np.array([3.0]), edges)[0] == 2


def test_encode_rows_single_feature():
    cfg = MICRO
    X = np.array([[0.7], [-0.2]])
    y = np.array([0.9, 0.1])
    slots = ex.encode_rows(X, y, 0, cfg)
    np.testing.assert_array_equal(slots[0], [0.9, 0.7, 0.0, 0.0, 0.0])


def test_encode_rows_reordering():
    cfg = MICRO
    X = np.array([[1.0, 2.0, 3.0]])
    y = np.array([0.5])
    slots = ex.encode_rows(X, y, 1, cfg)
    np.testing.assert_array_equal(slots[0], [0.5, 2.0, 1.0, 3.0, 0.0])


def test_encode_rows_identical_rows_identical_tokens():
    cfg = MICRO
    X = np.array([[1.0, 2.0], [1.0, 2.0]])
    y = np.array([0.3, 0.3])
    slots = ex.encode_rows(X, y, 0, cfg)
    np.testing.assert_array_equal(slots[0], slots[1])


def test_encode_rows_feature_cap():
    cfg = MICRO
    with pytest.raises(ValueError, match="max_features"):
        ex.encode_rows(np.zeros((2, 6)), np.zeros(2), 0, cfg)


def test_forward_distributions_sum_to_one():
    w = small_weights(random_head=True)
    X, y = toy_task(0)
    probs = forward_rows(w, X, y, 0)
    assert probs.shape == (12, MICRO.n_buckets)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forward_query_permutation_equivariance():
    w = small_weights(random_head=True, seed=3)
    X, y = toy_task(1)
    perm = np.random.default_rng(2).permutation(len(X))
    base = forward_rows(w, X, y, 1)
    permuted = forward_rows(w, X[perm], y[perm], 1)
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def test_forward_duplicate_rows_duplicate_outputs():
    w = small_weights(random_head=True, seed=4)
    X, y = toy_task(2, n=6)
    X2 = np.vstack([X, X[:1]])
    y2 = np.concatenate([y, y[:1]])
    probs = forward_rows(w, X2, y2, 0)
    np.testing.assert_allclose(probs[-1], probs[0], atol=1e-13)


def test_forward_with_reference_set():
    w = small_weights(random_head=True, seed=5)
    X, y = toy_task(3, n=8)
    Xr, yr = toy_task(4, n=16)
    # 16 reference rows, then the 8 query rows, in one context; only the queries are read out
    probs = forward_rows(w, np.vstack([Xr, X]), np.concatenate([yr, y]), 0, np.arange(16, 24))
    assert probs.shape == (8, MICRO.n_buckets)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("with_ref", [False, True], ids=["self-context", "reference-set"])
@pytest.mark.parametrize("m", [1, ex.ExplainerConfig().max_features])
@pytest.mark.parametrize("n", [97, 160])
def test_forward_bit_equal_to_graph(n, m, with_ref):
    w = default_weights(seed=n + m)
    X, y = toy_task(n + m, n=n, m=m)
    n_ref = n // 3 if with_ref else 0
    query_rows = np.arange(n_ref, n) if with_ref else None
    for j in range(m):
        probs = forward_rows(w, X, y, j, query_rows)
        graph = ex._forward_graph(w.params, ex.encode_rows(X, y, j, w.config), m + 1, w.config)
        assert np.array_equal(probs, graph.data[n_ref:])


def test_point_estimate_onehot_and_uniform():
    centers = np.array([-1.0, 0.0, 0.7, 1.0])
    onehot = np.array([0.0, 0.0, 1.0, 0.0])
    assert ex.point_estimate(onehot, centers) == pytest.approx(0.7)
    sym = np.array([-1.0, 0.0, 1.0])
    assert ex.point_estimate(np.full(3, 1 / 3), sym) == pytest.approx(0.0, abs=1e-15)


def test_nlpd_perfect_and_uniform():
    edges = np.linspace(-1, 1, 5)  # 4 buckets
    targets = np.array([-0.9, 0.1, 0.6])
    idx = ex.bucket_index(targets, edges)
    onehot = np.zeros((3, 4))
    onehot[np.arange(3), idx] = 1.0
    assert ex.nlpd_loss(onehot, targets, edges) == 0.0
    uniform = np.full((3, 4), 0.25)
    assert ex.nlpd_loss(uniform, targets, edges) == pytest.approx(3 * np.log(4), rel=1e-12)


def test_nlpd_floors_probabilities():
    edges = np.linspace(-1, 1, 5)
    probs = np.array([[1.0, 0.0, 0.0, 0.0]])
    loss = ex.nlpd_loss(probs, np.array([0.9]), edges)  # true bucket has probability 0
    assert loss == pytest.approx(-np.log(1e-12))


def test_standardize_targets():
    phi = np.array([[0.1, 0.3], [0.2, 0.2]])
    std = ex.standardize_targets(phi)
    assert std[0, 1] == pytest.approx((0.3 - 0.2) / phi.std())
    assert abs(std.mean()) < 1e-9
    assert abs(std.std() - 1.0) < 1e-9


def test_standardize_constant_targets_guard():
    std = ex.standardize_targets(np.full((3, 2), 0.4))
    np.testing.assert_array_equal(std, 0.0)


def test_gradient_check_micro_config():
    cfg = MICRO
    rng = np.random.default_rng(7)
    weights = small_weights(cfg, seed=8, random_head=True)
    X, y = toy_task(9, n=6)
    phi_std = rng.normal(size=(6, 2))

    def loss_fn(params):
        total = None
        for j in range(2):
            slots = ex.encode_rows(X, y, j, cfg)
            loss = ex._training_loss_graph(params, slots, 3, phi_std[:, j], cfg)
            total = loss if total is None else ad.add(total, loss)
        return ad.multiply(total, 0.5)

    err = finite_difference_check(loss_fn, weights.params, step=1e-5)
    assert err < 1e-4


def make_toy_sampler(seed, n_tasks=24, n=10, m=2):
    """Tasks where the attribution equals the feature value (maximally learnable)."""
    rng = np.random.default_rng(seed)
    triplets = []
    for _ in range(n_tasks):
        X = rng.normal(size=(n, m))
        phi = X.copy()
        v = 0.5
        y_hat = v + phi.sum(axis=1)
        triplets.append(TrainingTriplet(X=X, y_hat=y_hat, phi=phi, base_value=v))
    order = np.random.default_rng(seed + 1)

    def sampler():
        return triplets[int(order.integers(0, len(triplets)))]

    return sampler


def test_training_reduces_nlpd():
    weights = ex.train(make_toy_sampler(0), MICRO, np.random.default_rng(0))
    assert weights.metadata["final_loss"] < weights.metadata["initial_loss"]


def test_training_deterministic():
    a = ex.train(make_toy_sampler(5), MICRO, np.random.default_rng(3))
    b = ex.train(make_toy_sampler(5), MICRO, np.random.default_rng(3))
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_training_equals_per_parameter_reference_loop():
    """Flat gradient buffer and flat Adam against dict accumulation and per-array Adam."""
    config = dataclasses.replace(MICRO, restarts=2)

    def sampler(seed):
        # tasks of 1 to 4 features, so the sum over features has up to three adds
        rng = np.random.default_rng(seed)
        triplets = []
        for m in (1, 2, 3, 4, 3, 4):
            X = rng.normal(size=(9, m))
            phi = X * rng.normal(size=m) + 0.1 * rng.normal(size=(9, m))
            triplets.append(TrainingTriplet(X=X, y_hat=0.5 + phi.sum(axis=1), phi=phi, base_value=0.5))
        return itertools.cycle(triplets).__next__

    weights = ex.train(sampler(21), config, np.random.default_rng(22))
    expected = reference_explainer_train(sampler(21), config, np.random.default_rng(22))
    assert weights.params.keys() == expected.keys()
    for name, p in weights.params.items():
        assert np.array_equal(p.data, expected[name]), name


@pytest.mark.parametrize("field, value, message", [
    ("train_steps", 0, "train_steps and restarts must be at least 1"),
    ("train_steps", -3, "train_steps and restarts must be at least 1"),
    ("restarts", 0, "train_steps and restarts must be at least 1"),
    ("n_heads", 0, "divisible by n_heads"),
])
def test_config_rejects_fewer_than_one_step_restart_or_head(field, value, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(MICRO, **{field: value})


def test_explain_zero_shot_contract():
    w = small_weights(random_head=True, seed=11)
    X, y = toy_task(12, n=9, m=3)
    out = ex.explain_zero_shot(w, X, y)
    assert out.shape == (9, 3)
    centers = MICRO.bucket_centers()
    assert out.min() >= centers.min() and out.max() <= centers.max()
    np.testing.assert_array_equal(out, ex.explain_zero_shot(w, X, y))


def test_explain_zero_shot_chunks_long_tables(monkeypatch):
    # 70 rows exceed MICRO's 64-row context: chunks of 32 rows, each after the first 32 rows
    w = small_weights(random_head=True, seed=12)
    X, y = toy_task(14, n=70, m=3)
    calls = []
    forward = ex.forward

    def recorded(weights, slots, n_active_slots, query_rows=None):
        calls.append((slots, n_active_slots, query_rows))
        return forward(weights, slots, n_active_slots, query_rows)

    monkeypatch.setattr(ex, "forward", recorded)
    out = ex.explain_zero_shot(w, X, y)
    assert [len(slots) for slots, _, _ in calls] == [64, 64, 38] * 3
    assert max(len(slots) for slots, _, _ in calls) <= MICRO.max_context_rows

    expected = np.empty_like(X)
    chunks = iter(calls)
    for j in range(3):
        slots = ex.encode_rows(X, y, j, MICRO)
        for start, stop in ((0, 32), (32, 64), (64, 70)):
            context = np.vstack([slots[:32], slots[start:stop]])
            seen, n_active, query_rows = next(chunks)
            assert np.array_equal(seen, context) and n_active == 4
            np.testing.assert_array_equal(query_rows, np.arange(32, 32 + stop - start))
            graph = ex._forward_graph(w.params, context, 4, MICRO).data[query_rows]
            expected[start:stop, j] = ex.point_estimate(graph, MICRO.bucket_centers())
    assert np.array_equal(out, expected)


def test_explain_zero_shot_builds_no_graph(tensor_inits):
    w = small_weights(random_head=True, seed=15)
    X, y = toy_task(16, n=70, m=3)
    created = tensor_inits
    created.clear()  # the weights' own parameter Tensors
    ex.explain_zero_shot(w, X, y)  # chunked: 70 rows exceed the 64-row context
    ex.explain_zero_shot(w, X[:10], y[:10])  # one context
    assert created == []
    ad.Tensor(np.zeros(1))
    assert len(created) == 1


def test_explain_zero_shot_keeps_no_state_between_calls():
    w = default_weights(seed=17)
    Xa, ya = toy_task(18, n=97, m=4)
    Xb, yb = toy_task(19, n=160, m=6)
    first = ex.explain_zero_shot(w, Xa, ya)
    ex.explain_zero_shot(w, Xb, yb)
    assert np.array_equal(ex.explain_zero_shot(w, Xa, ya), first)


def test_weights_roundtrip(tmp_path):
    w = small_weights(random_head=True, seed=13)
    w.metadata = {"steps": 60, "final_loss": 1.25}
    path = tmp_path / "explainer.ckpt"
    ex.save_weights(path, w)
    loaded = ex.load_weights(path)
    X, y = toy_task(14, n=5)
    np.testing.assert_array_equal(forward_rows(loaded, X, y, 0), forward_rows(w, X, y, 0))
    path2 = tmp_path / "explainer2.ckpt"
    ex.save_weights(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_weights_version_mismatch(tmp_path):
    from zeroshap.checkpoint import CheckpointError

    w = small_weights()
    path = tmp_path / "explainer.ckpt"
    ex.save_weights(path, w)
    raw = bytearray(path.read_bytes())
    # corrupt the stored format_version inside the JSON header
    idx = raw.find(b'"format_version":1')
    raw[idx : idx + len(b'"format_version":1')] = b'"format_version":9'
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        ex.load_weights(path)
