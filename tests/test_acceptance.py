"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The desk-scale training criterion builds a 2000-task pool and trains the
default explainer; set ZEROSHAP_ACCEPT_CACHE to a directory to reuse those
artifacts across runs.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_mlp
from oracles import brute_force_shapley, finite_difference_check
from zeroshap import base_models as bm
from zeroshap import cli
from zeroshap import explainer as ex
from zeroshap import pool as pl
from zeroshap import postprocess as pp
from zeroshap import shapley as sh
from zeroshap.dag_recovery import dag_recovery
from zeroshap.metrics import measure_runtime, pearson
from zeroshap.scm import TaskGenConfig, TaskRejected, sample_task
from zeroshap.surrogates import ReferenceSet, fit_surrogate, predict_surrogate

MASTER_SEED = 42
HELDOUT_SEED = 4242

POOL_CFG = pl.PoolBuildConfig()  # the generate subcommand's defaults

TRAIN_CFG = ex.ExplainerConfig(train_steps=3000, restarts=3, lr_low=1e-5, lr_high=1e-4)


def emit(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    cache = os.environ.get("ZEROSHAP_ACCEPT_CACHE")
    root = Path(cache) if cache else tmp_path_factory.mktemp("accept")
    root.mkdir(parents=True, exist_ok=True)
    pool_dir = root / "pool"
    marker = root / "pool.done"
    if not marker.exists():
        pl.generate_pool(pool_dir, 2000, MASTER_SEED, POOL_CFG, workers=2, progress=True)
        marker.write_text("2000")
    ckpt = root / "explainer.ckpt"
    train_seconds = 0.0
    if not ckpt.exists():
        seq = np.random.SeedSequence(entropy=MASTER_SEED, spawn_key=(cli.STAGE_TRAIN,))
        sampler_seq, train_seq = seq.spawn(2)
        sampler = pl.make_pool_sampler(pool_dir, np.random.default_rng(sampler_seq))
        start = time.perf_counter()
        weights = ex.train(sampler, TRAIN_CFG, np.random.default_rng(train_seq), log_every=500)
        train_seconds = time.perf_counter() - start
        ex.save_weights(ckpt, weights)
    weights = ex.load_weights(ckpt)
    return weights, pool_dir, train_seconds


def heldout_task(i: int, cfg: pl.PoolBuildConfig = POOL_CFG):
    return pl.build_pool_entry(HELDOUT_SEED, i, cfg)


def test_criterion_01_oracle_exactness():
    gen = TaskGenConfig(node_range=(3, 8), n_range=(24, 32), m_max=6)
    start = time.perf_counter()
    worst_residual = 0.0
    for i in range(100):
        task = sample_task(10_000 + i, gen)
        model = random_mlp(task.m, seed=i, hidden=24)
        background = task.X[:16]
        for row in range(4):
            x = task.X[row]
            engine = sh.exact_shapley(model.predict, x, background)
            oracle = brute_force_shapley(model.predict, x, background)
            assert np.array_equal(engine, oracle), f"task {i} row {row}: engine != brute force"
            v = sh.coalition_value(model.predict, x, [], background)
            residual = abs(v + engine.sum() - model.predict(x[None, :])[0])
            worst_residual = max(worst_residual, residual)
    elapsed = time.perf_counter() - start
    ok = worst_residual < 1e-9 and elapsed < 60.0
    emit(1, ok, f"100 tasks bit-for-bit vs brute force; max residual {worst_residual:.2e}; {elapsed:.1f}s")


def test_criterion_02_shapley_axioms():
    rng = np.random.default_rng(77)
    dummy_worst = 0.0
    for i in range(50):
        m = int(rng.integers(3, 6))
        model = random_mlp(m, seed=1000 + i)
        j = int(rng.integers(0, m))
        model.weights[0][j, :] = 0.0
        bg = rng.normal(size=(12, m))
        phi = sh.exact_shapley(model.predict, rng.normal(size=m), bg)
        dummy_worst = max(dummy_worst, abs(phi[j]))
    assert dummy_worst < 1e-9

    symmetry_worst = 0.0
    for i in range(50):
        m = int(rng.integers(3, 6))
        model = random_mlp(m, seed=2000 + i)
        model.weights[0][1, :] = model.weights[0][0, :]
        bg = rng.normal(size=(12, m))
        x = rng.normal(size=m)
        phi = sh.exact_shapley(model.predict, x, bg)
        swap = np.arange(m)
        swap[[0, 1]] = [1, 0]
        phi_swapped = sh.exact_shapley(model.predict, x[swap], bg[:, swap])
        symmetry_worst = max(symmetry_worst, np.abs(phi_swapped - phi[swap]).max())
    assert symmetry_worst < 1e-12

    linearity_worst = 0.0
    for i in range(50):
        m = int(rng.integers(2, 5))
        m1 = random_mlp(m, seed=3000 + i)
        m2 = random_mlp(m, seed=4000 + i)
        a, b = rng.normal(), rng.normal()
        bg = rng.normal(size=(10, m))
        x = rng.normal(size=m)
        combo = sh.exact_shapley(lambda X: a * m1.predict(X) + b * m2.predict(X), x, bg)
        parts = a * sh.exact_shapley(m1.predict, x, bg) + b * sh.exact_shapley(m2.predict, x, bg)
        linearity_worst = max(linearity_worst, np.abs(combo - parts).max())
    assert linearity_worst < 1e-9
    emit(2, True,
         f"50x dummy (max {dummy_worst:.1e}), 50x symmetry (max {symmetry_worst:.1e}), "
         f"50x linearity (max {linearity_worst:.1e})")


def test_criterion_03_permutation_estimator():
    rng = np.random.default_rng(88)
    max_errors = []
    for i in range(20):
        model = random_mlp(5, seed=5000 + i)
        bg = rng.normal(size=(64, 5))
        for row in range(2):
            x = rng.normal(size=5)
            exact = sh.exact_shapley(model.predict, x, bg)
            perm = sh.permutation_shapley(model.predict, x, bg, 200, np.random.default_rng(6000 + i * 2 + row))
            max_errors.append(np.abs(perm - exact).max())
    mean_max_error = float(np.mean(max_errors))

    model = random_mlp(5, seed=123)
    bg = np.random.default_rng(9).normal(size=(64, 5))
    x = np.random.default_rng(10).normal(size=5)
    exact = sh.exact_shapley(model.predict, x, bg)
    estimates = np.array([
        sh.permutation_shapley(model.predict, x, bg, 200, np.random.default_rng(7000 + r))
        for r in range(50)
    ])
    se = estimates.std(axis=0, ddof=1) / np.sqrt(50)
    bias_in_se = np.abs(estimates.mean(axis=0) - exact) / np.maximum(se, 1e-15)
    ok = mean_max_error < 0.02 and np.all(bias_in_se < 3.0)
    emit(3, ok, f"mean max |perm - exact| = {mean_max_error:.4f} (< 0.02); "
                f"worst bias {bias_in_se.max():.2f} standard errors (< 3)")


def test_criterion_04_postprocess_exactness():
    rng = np.random.default_rng(99)
    worst_residual = 0.0
    worst_pearson_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 60))
        m = int(rng.integers(1, 8))
        phi = rng.normal(size=(n, m)) * rng.uniform(0.01, 10)
        y = rng.uniform(0, 1, size=n)
        full = pp.full_pipeline(phi, y)
        v = y.mean()
        worst_residual = max(worst_residual, np.abs(y - v - full.sum(axis=1)).max())
        if m >= 2 or n >= 3:
            partial = pp.rescale(pp.recenter(phi), y)
            try:
                worst_pearson_gap = max(worst_pearson_gap, abs(pearson(phi, partial) - 1.0))
            except ValueError:
                pass
    ok = worst_residual < 1e-12 and worst_pearson_gap < 1e-12
    emit(4, ok, f"100 cases: max efficiency residual {worst_residual:.2e} (< 1e-12); "
                f"max |pearson(raw, corrected) - 1| = {worst_pearson_gap:.2e} (< 1e-12)")


def test_criterion_05_gradient_and_nlpd():
    from zeroshap import autodiff as ad

    cfg = ex.ExplainerConfig(embed_dim=8, n_layers=1, n_heads=2, n_buckets=4,
                             max_features=4, max_context_rows=64)
    rng = np.random.default_rng(5)
    _, params = ex.init_params(cfg, np.random.default_rng(11))
    params["head_w"].data = rng.normal(0, 0.4, size=params["head_w"].shape)
    params["head_b"].data = rng.normal(0, 0.2, size=params["head_b"].shape)
    X = rng.normal(size=(6, 2))
    y = rng.uniform(size=6)
    phi_std = rng.normal(size=(6, 2))

    def loss_fn(p):
        total = None
        for j in range(2):
            slots = ex.encode_rows(X, y, j, cfg)
            loss = ex._training_loss_graph(p, slots, 3, phi_std[:, j], cfg)
            total = loss if total is None else ad.add(total, loss)
        return ad.multiply(total, 0.5)

    err = finite_difference_check(loss_fn, params, step=1e-5)

    edges = cfg.bucket_edges()
    targets = rng.normal(size=9)
    idx = ex.bucket_index(targets, edges)
    onehot = np.zeros((9, cfg.n_buckets))
    onehot[np.arange(9), idx] = 1.0
    perfect = ex.nlpd_loss(onehot, targets, edges)
    uniform = ex.nlpd_loss(np.full((9, cfg.n_buckets), 1.0 / cfg.n_buckets), targets, edges)
    expected_uniform = 9 * np.log(cfg.n_buckets)
    ok = err < 1e-4 and perfect == 0.0 and abs(uniform - expected_uniform) < 1e-12 * expected_uniform
    emit(5, ok, f"finite-difference rel err {err:.2e} (< 1e-4); one-hot NLPD {perfect}; "
                f"uniform NLPD {uniform:.12f} == T log K")


def test_criterion_06_desk_scale_training(trained):
    weights, _, train_seconds = trained
    initial = weights.metadata["initial_loss"]
    final = weights.metadata["final_loss"]
    reduction = (initial - final) / initial

    full_scores, raw_scores = [], []
    for i in range(50):
        triplet = heldout_task(i)
        raw = ex.explain_zero_shot(weights, triplet.X, triplet.y_hat)
        full = pp.full_pipeline(raw, triplet.y_hat)
        for scores, estimate in ((raw_scores, raw), (full_scores, full)):
            try:
                scores.append(pearson(estimate, triplet.phi))
            except ValueError:
                scores.append(0.0)
    mean_full = float(np.mean(full_scores))
    mean_raw = float(np.mean(raw_scores))
    ok = reduction >= 0.20 and mean_full >= 0.5 and mean_full >= mean_raw and train_seconds < 7200
    emit(6, ok, f"NLPD {initial:.3f} -> {final:.3f} ({reduction:.1%} >= 20%); "
                f"held-out Pearson full={mean_full:.3f} (>= 0.5), raw={mean_raw:.3f} "
                f"(full >= raw); train time {train_seconds:.0f}s (< 7200s)")


def test_criterion_07_few_shot_trend():
    results = {kind: {2: [], 10: []} for kind in ("forest_regressor", "knn")}
    for i in range(20):
        triplet = heldout_task(200 + i, POOL_CFG)
        X, y_hat, phi = triplet.X, triplet.y_hat, triplet.phi
        for kind in results:
            for k in (2, 10):
                refs = ReferenceSet(X=X[:k], y_hat=y_hat[:k], phi=phi[:k])
                g = fit_surrogate(kind, refs, rng=np.random.default_rng(300 + i))
                pred = predict_surrogate(g, X[10:], y_hat[10:])
                try:
                    results[kind][k].append(pearson(pred, phi[10:]))
                except ValueError:
                    results[kind][k].append(0.0)
    forest_lo, forest_hi = np.mean(results["forest_regressor"][2]), np.mean(results["forest_regressor"][10])
    knn_lo, knn_hi = np.mean(results["knn"][2]), np.mean(results["knn"][10])
    ok = forest_hi >= forest_lo and knn_hi >= knn_lo
    emit(7, ok, f"mean held-out Pearson k=2 -> k=10: forest {forest_lo:.3f} -> {forest_hi:.3f}, "
                f"knn {knn_lo:.3f} -> {knn_hi:.3f} (both non-decreasing)")


def test_criterion_08_dag_recovery(trained):
    weights, _, _ = trained
    budgets = (3, 5, 7)
    gen = TaskGenConfig(node_range=(5, 10), n_range=(48, 96), m_max=8, max_subgraphs=2)
    ged = {b: [] for b in budgets}
    random_ged = {b: [] for b in budgets}
    collected = 0
    attempt = 0
    while collected < 20 and attempt < 400:
        attempt += 1
        try:
            task = sample_task(50_000 + attempt, gen)
        except TaskRejected:
            continue
        if task.m < 2:
            continue
        result = dag_recovery(weights, task, edge_budgets=budgets,
                              rng=np.random.default_rng(60_000 + attempt))
        for b in budgets:
            ged[b].append(result.ged_per_budget[b])
            random_ged[b].append(result.random_ged_per_budget[b])
        collected += 1
    assert collected == 20
    means = {b: (float(np.mean(ged[b])), float(np.mean(random_ged[b]))) for b in budgets}
    ok = all(means[b][0] <= means[b][1] for b in budgets)
    emit(8, ok, "mean GED explainer vs random at budgets " +
         ", ".join(f"E={b}: {means[b][0]:.2f} <= {means[b][1]:.2f}" for b in budgets))


def test_criterion_09_runtime_independence(trained):
    weights, _, _ = trained
    rng = np.random.default_rng(404)
    gen = TaskGenConfig(node_range=(6, 6), n_range=(96, 96), m_max=5)
    task = sample_task(70_001, gen)
    X = task.X
    mlp = bm.train_mlp(X, task.y, bm.MlpConfig(hidden_sizes=(12, 12), epochs=200, lr0=1e-3))
    forest = bm.train_forest(X, task.y, bm.ForestConfig(n_estimators=100, seed=1))
    y_mlp = mlp.predict(X)
    y_forest = forest.predict_proba(X)

    # the label sources alternate call by call and swap who goes first each
    # round, so load that drifts over the loop slows both medians alike
    times = {"mlp": [], "forest": []}
    for rep in range(31):
        order = [("mlp", y_mlp), ("forest", y_forest)]
        for name, y_hat in order if rep % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            ex.explain_zero_shot(weights, X, y_hat)
            times[name].append(time.perf_counter() - start)
    t_explain_mlp, t_explain_forest = float(np.median(times["mlp"])), float(np.median(times["forest"]))
    gap = abs(t_explain_mlp - t_explain_forest) / max(t_explain_mlp, t_explain_forest)

    background = X[:32]
    shap_cfg = sh.ShapConfig(background=background, n_permutations=50, seed=0)
    t_shap_mlp = measure_runtime(lambda: sh.hybrid_shapley(mlp.predict, X[:16], shap_cfg), repetitions=3)
    t_shap_forest = measure_runtime(lambda: sh.hybrid_shapley(forest.predict_proba, X[:16], shap_cfg), repetitions=3)
    ok = gap < 0.20 and t_shap_forest > t_shap_mlp
    emit(9, ok, f"zero-shot wall time mlp={t_explain_mlp:.3f}s vs forest={t_explain_forest:.3f}s "
                f"(gap {gap:.1%} < 20%); hybrid SHAP forest {t_shap_forest:.3f}s > mlp {t_shap_mlp:.3f}s")


def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"""
seed = 42
output_dir = {tmp_path / 'out_a'}
pool.path = {tmp_path / 'pool_a'}
pool.n_tasks = 3
gen.node_range = 3:5
gen.n_range = 24:32
gen.m_max = 3
base.epochs = 60
base.hidden_sizes = 12
explainer.embed_dim = 16
explainer.n_layers = 1
explainer.n_heads = 2
explainer.n_buckets = 8
explainer.max_features = 8
explainer.max_context_rows = 128
explainer.train_steps = 25
explainer.restarts = 1
shap.background_size = 16
shap.n_permutations = 20
benchmark.n_tasks = 2
benchmark.kshots = 0,2
benchmark.methods = zero_shot,knn
benchmark.base_kinds = mlp
benchmark.eval_epochs = 60
dag.n_tasks = 2
dag.edge_budgets = 2,3
dag.node_range = 4:6
"""
    )
    query = tmp_path / "query.csv"
    rng = np.random.default_rng(0)
    with open(query, "w") as fh:
        fh.write("a,b,c,prediction\n")
        for _ in range(5):
            vals = [repr(float(v)) for v in rng.normal(size=3)] + [repr(float(rng.uniform()))]
            fh.write(",".join(vals) + "\n")

    artifacts = {}
    for run in ("one", "two"):
        pool = tmp_path / f"pool_{run}"
        out = tmp_path / f"out_{run}"
        args = ["--config", str(config), "--set", f"pool.path={pool}",
                "--set", f"output_dir={out}", "--quiet"]
        assert cli.main(["generate", *args]) == 0
        assert cli.main(["train", *args]) == 0
        assert cli.main(["explain", *args, "--input", str(query),
                         "--output", str(out / "attr.csv")]) == 0
        assert cli.main(["benchmark", *args]) == 0
        assert cli.main(["dag-recover", *args]) == 0
        blobs = {}
        for i in range(3):
            blobs[f"pool/{i}.bin"] = (pool / f"{i}.bin").read_bytes()
            blobs[f"pool/{i}.json"] = (pool / f"{i}.json").read_bytes()
        # every numeric artifact; benchmark_runtime.csv is wall-clock and exempt
        for name in ("explainer.ckpt", "attr.csv", "train_report.json",
                     "benchmark_pearson.csv", "benchmark_jaccard.csv",
                     "benchmark_report.json", "dag_ged_vs_budget.csv", "dag_recovery.json"):
            blobs[name] = (out / name).read_bytes()
        artifacts[run] = blobs
    mismatched = [name for name in artifacts["one"] if artifacts["one"][name] != artifacts["two"][name]]
    emit(10, not mismatched, f"reran generate/train/explain/benchmark/dag-recover at seed 42: "
         f"{len(artifacts['one'])} artifacts byte-identical"
         + (f"; mismatches: {mismatched}" if mismatched else ""))
