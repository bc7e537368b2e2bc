"""Command-line orchestration: pool generation, training, explanation, benchmarks.

Subcommands: generate, train, explain, shap, benchmark, dag-recover,
validate. Every stage derives its randomness from the master seed, so a
rerun with the same config and seed reproduces the numeric artifacts byte
for byte (wall-clock measurement files aside).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import base_models as bm
from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig
from .dag_recovery import dag_recovery
from .explainer import explain_zero_shot, load_weights, save_weights, train
from .metrics import MetricReport, mean_jaccard_topk, measure_runtime, pearson
from .pool import PoolError, generate_pool, make_pool_sampler, pool_read, pool_task_ids
from .postprocess import full_pipeline
from .scm import TaskRejected, sample_task
from .shapley import ShapConfig, hybrid_shapley, subsample_background
from .surrogates import ReferenceSet, fit_surrogate, predict_surrogate

# fixed per-stage spawn keys so stages draw independent, reproducible streams
STAGE_TRAIN = 1
STAGE_BENCH = 2
STAGE_DAG = 3


class InputError(ValueError):
    """A malformed input file: reported as ``error: ...`` with exit status 2."""


def _fmt(value: float) -> str:
    return repr(float(value))


def read_csv_matrix(path) -> tuple[list[str], np.ndarray]:
    """Header and a finite (rows, len(header)) matrix; raises InputError otherwise."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [[float(tok) for tok in row] for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read ({exc})") from exc
    except ValueError as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows below the header")
    if any(len(row) != len(header) for row in rows):
        raise InputError(f"{path}: every row must have {len(header)} cells, as the header does")
    data = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise InputError(f"{path}: non-finite value {data[row, col]} in column {header[col]!r}, "
                         f"data row {row + 1}")
    return header, data


def write_csv_matrix(path, header: list[str], matrix: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.atleast_2d(matrix):
            writer.writerow([_fmt(v) for v in row])


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_run_config(args) -> RunConfig:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return RunConfig.load(args.config, overrides)


def _load_explainer(args, cfg: RunConfig):
    """The ``--checkpoint`` explainer, by default the one ``train`` writes to the output directory."""
    checkpoint = Path(args.checkpoint or cfg.output_dir / "explainer.ckpt")
    if not checkpoint.exists():
        raise CheckpointError(f"checkpoint {checkpoint} not found; run 'zeroshap train' first")
    return load_weights(checkpoint)


def _attribution_header(m: int) -> list[str]:
    return [f"feature_{j + 1}" for j in range(m)] + ["base_value"]


# ---- subcommands ----


def cmd_generate(args) -> int:
    cfg = _load_run_config(args)
    n_tasks = args.n_tasks if args.n_tasks is not None else cfg.get_int("pool.n_tasks")
    workers = args.workers if args.workers is not None else cfg.get_int("pool.workers")
    pool_dir = Path(args.pool or cfg.pool_path)
    generate_pool(pool_dir, n_tasks, cfg.seed, cfg.pool_build_config(), workers=workers,
                  progress=not args.quiet)
    print(f"wrote {n_tasks} tasks to {pool_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    pool_dir = Path(args.pool or cfg.pool_path)
    if not pool_task_ids(pool_dir):
        print(f"error: pool {pool_dir} is empty or missing; run 'zeroshap generate' first",
              file=sys.stderr)
        return 2
    out_dir = cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = Path(args.checkpoint or out_dir / "explainer.ckpt")
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(STAGE_TRAIN,))
    sampler_seq, train_seq = seq.spawn(2)
    sampler = make_pool_sampler(pool_dir, np.random.default_rng(sampler_seq))
    weights = train(sampler, cfg.explainer_config(), np.random.default_rng(train_seq),
                    log_every=0 if args.quiet else 200)
    save_weights(checkpoint, weights)
    write_json(out_dir / "train_report.json", {
        "initial_loss": weights.metadata["initial_loss"],
        "final_loss": weights.metadata["final_loss"],
        "steps": weights.metadata["steps"],
        "restarts": weights.metadata["restarts"],
    })
    print(f"checkpoint written to {checkpoint} "
          f"(nlpd {weights.metadata['initial_loss']:.4f} -> {weights.metadata['final_loss']:.4f})")
    return 0


def cmd_explain(args) -> int:
    cfg = _load_run_config(args)
    weights = _load_explainer(args, cfg)
    header, data = read_csv_matrix(args.input)
    pred_col = args.prediction_column or cfg.get("explain.prediction_column")
    if pred_col not in header:
        print(f"error: prediction column {pred_col!r} not in CSV header {header}", file=sys.stderr)
        return 2
    pred_idx = header.index(pred_col)
    feature_idx = [i for i in range(len(header)) if i != pred_idx]
    if not 1 <= len(feature_idx) <= weights.config.max_features:
        print(f"error: {len(feature_idx)} feature columns; the checkpoint explains 1 to "
              f"{weights.config.max_features}", file=sys.stderr)
        return 2
    X = data[:, feature_idx]
    y_hat = data[:, pred_idx]
    raw = explain_zero_shot(weights, X, y_hat)
    phi = full_pipeline(raw, y_hat)
    base_value = float(np.mean(y_hat))
    out = np.column_stack([phi, np.full(X.shape[0], base_value)])
    write_csv_matrix(args.output, _attribution_header(X.shape[1]), out)
    print(f"wrote {X.shape[0]} attribution rows to {args.output}")
    return 0


def cmd_shap(args) -> int:
    cfg = _load_run_config(args)
    model = bm.load_model(args.model)
    header, data = read_csv_matrix(args.input)
    pred_col = args.prediction_column or cfg.get("explain.prediction_column")
    if pred_col in header:
        feature_idx = [i for i in range(len(header)) if i != header.index(pred_col)]
        X = data[:, feature_idx]
    else:
        X = data
    if X.shape[1] != model.n_features:
        raise InputError(f"{args.input}: {X.shape[1]} feature columns; the model {args.model} "
                         f"takes {model.n_features}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(STAGE_BENCH, 0)))
    background = subsample_background(X, rng, cfg.get_int("shap.background_size"))
    result = hybrid_shapley(
        lambda rows: bm.predict(model, rows),
        X,
        ShapConfig(
            exact_max_features=cfg.get_int("shap.exact_max_features"),
            n_permutations=cfg.get_int("shap.n_permutations"),
            background=background,
            seed=cfg.seed,
        ),
    )
    out = np.column_stack([result.phi, np.full(X.shape[0], result.base_value)])
    write_csv_matrix(args.output, _attribution_header(X.shape[1]), out)
    print(f"wrote {X.shape[0]} rows ({result.estimator} estimator) to {args.output}")
    return 0


def _eval_base_model(kind: str, X, y, cfg: RunConfig, seed: int):
    if kind == "mlp":
        mlp_cfg = bm.MlpConfig(hidden_sizes=(12, 12), epochs=cfg.get_int("benchmark.eval_epochs"),
                               lr0=1e-3, seed=seed)
        model = bm.train_mlp(X, y, mlp_cfg)
        return lambda rows: model.predict(rows)
    if kind == "forest":
        model = bm.train_forest(X, y, bm.ForestConfig(seed=seed))
        return lambda rows: model.predict_proba(rows)
    raise ConfigError(f"unknown base kind {kind!r}")


def cmd_benchmark(args) -> int:
    cfg = _load_run_config(args)
    weights = _load_explainer(args, cfg)
    out_dir = cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    n_tasks = cfg.get_int("benchmark.n_tasks")
    kshots = cfg.get_int_list("benchmark.kshots")
    methods = cfg.get_str_list("benchmark.methods")
    base_kinds = cfg.get_str_list("benchmark.base_kinds")
    gen_cfg = cfg.task_gen_config()

    pearson_rows = []
    jaccard_rows = []
    runtime_rows = []
    for base_kind in base_kinds:
        tasks = []
        references = []
        for t in range(n_tasks):
            seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(STAGE_BENCH, base_kinds.index(base_kind), t))
            rng = np.random.default_rng(seq)
            task_seed = int(rng.integers(0, 2**63))
            task = sample_task(task_seed, gen_cfg)
            scaler = bm.fit_scaler(task.X)
            X = bm.transform(scaler, task.X)
            predict_fn = _eval_base_model(base_kind, X, task.y, cfg, seed=int(rng.integers(0, 2**31)))
            background = subsample_background(X, rng, cfg.get_int("shap.background_size"))
            reference = hybrid_shapley(predict_fn, X, ShapConfig(
                exact_max_features=cfg.get_int("shap.exact_max_features"),
                n_permutations=cfg.get_int("shap.n_permutations"),
                background=background, seed=task_seed % (2**31),
            ))
            tasks.append((task, X, predict_fn(X), reference))
            references.append(reference)

        for method in methods:
            for k in kshots:
                if method == "zero_shot" and k != 0:
                    continue
                if method != "zero_shot" and k < 2:
                    continue
                p_scores, j_scores = [], []
                for task, X, y_hat, reference in tasks:
                    if method == "zero_shot":
                        raw = explain_zero_shot(weights, X, y_hat)
                        phi = full_pipeline(raw, y_hat)
                        truth = reference.phi
                    else:
                        if k >= X.shape[0]:
                            continue
                        refs = ReferenceSet(X=X[:k], y_hat=y_hat[:k], phi=reference.phi[:k])
                        g = fit_surrogate(method, refs, rng=np.random.default_rng(task.seed % (2**31)))
                        phi = predict_surrogate(g, X[k:], y_hat[k:])
                        truth = reference.phi[k:]
                    try:
                        p_scores.append(pearson(phi, truth))
                    except ValueError:
                        p_scores.append(0.0)
                    j_scores.append(mean_jaccard_topk(phi, truth))
                if p_scores:
                    pearson_rows.append([method, k, base_kind, *p_scores, float(np.mean(p_scores))])
                    jaccard_rows.append([method, k, base_kind, *j_scores, float(np.mean(j_scores))])

        # wall-clock comparison: the zero-shot pass never queries the model
        task, X, y_hat, _ = tasks[0]
        contributions = X.size
        zs_time = measure_runtime(lambda: explain_zero_shot(weights, X, y_hat),
                                  repetitions=3, contributions=contributions)
        shap_cfg = ShapConfig(
            exact_max_features=cfg.get_int("shap.exact_max_features"),
            n_permutations=min(cfg.get_int("shap.n_permutations"), 50),
            background=subsample_background(X, np.random.default_rng(0), 32),
            seed=0,
        )
        fn = _eval_base_model(base_kind, X, task.y, cfg, seed=0)
        shap_time = measure_runtime(lambda: hybrid_shapley(fn, X, shap_cfg),
                                    repetitions=3, contributions=contributions)
        runtime_rows.append(["zero_shot", base_kind, zs_time])
        runtime_rows.append(["shap", base_kind, shap_time])

    def _write_table(path, rows):
        header = ["method", "samples", "base_kind"] + [f"task_{i}" for i in range(n_tasks)] + ["mean"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([row[0], row[1], row[2]] + [_fmt(v) for v in row[3:]])

    _write_table(out_dir / "benchmark_pearson.csv", pearson_rows)
    _write_table(out_dir / "benchmark_jaccard.csv", jaccard_rows)
    with open(out_dir / "benchmark_runtime.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "base_kind", "seconds_per_1000_contributions"])
        for method, base_kind, seconds in runtime_rows:
            writer.writerow([method, base_kind, _fmt(seconds)])
    reports = [
        MetricReport(
            pearson=p_row[-1],
            jaccard_topk=j_row[-1],
            metadata={"method": p_row[0], "samples": p_row[1], "base_kind": p_row[2], "seed": cfg.seed},
        ).to_dict()
        for p_row, j_row in zip(pearson_rows, jaccard_rows)
    ]
    write_json(out_dir / "benchmark_report.json", {"reports": reports})
    print(f"benchmark tables written to {out_dir}")
    return 0


def cmd_dag_recover(args) -> int:
    cfg = _load_run_config(args)
    weights = _load_explainer(args, cfg)
    out_dir = cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    budgets = cfg.get_int_list("dag.edge_budgets")
    gen_cfg = cfg.task_gen_config(node_range_key="dag.node_range")
    gen_cfg.m_max = weights.config.max_features - 1
    n_tasks = cfg.get_int("dag.n_tasks")

    per_task = []
    collected = 0
    attempt = 0
    while collected < n_tasks and attempt < n_tasks * 20:
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(STAGE_DAG, attempt))
        rng = np.random.default_rng(seq)
        task_seed = int(rng.integers(0, 2**63))
        attempt += 1
        try:
            task = sample_task(task_seed, gen_cfg)
        except TaskRejected:
            continue
        if task.m < 2:
            continue
        result = dag_recovery(weights, task, edge_budgets=budgets, rng=rng)
        per_task.append({
            "task_seed": task_seed,
            "m": task.m,
            "true_edges": [list(e) for e in result.true_edges],
            "ged": {str(b): result.ged_per_budget[b] for b in budgets},
            "random_ged": {str(b): result.random_ged_per_budget[b] for b in budgets},
        })
        collected += 1
    if collected < n_tasks:
        print(f"error: only {collected}/{n_tasks} usable tasks", file=sys.stderr)
        return 1

    with open(out_dir / "dag_ged_vs_budget.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["budget", "mean_ged", "mean_random_ged"])
        for b in budgets:
            mean_ged = float(np.mean([t["ged"][str(b)] for t in per_task]))
            mean_rand = float(np.mean([t["random_ged"][str(b)] for t in per_task]))
            writer.writerow([b, _fmt(mean_ged), _fmt(mean_rand)])
    write_json(out_dir / "dag_recovery.json", {"budgets": budgets, "tasks": per_task})
    print(f"dag recovery results written to {out_dir}")
    return 0


def cmd_validate(args) -> int:
    failures = 0
    checks = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures, checks
        checks += 1
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}{(': ' + detail) if detail else ''}")
        if not ok:
            failures += 1

    if args.pool:
        ids = pool_task_ids(args.pool)
        report("pool non-empty", bool(ids), f"{len(ids)} committed entries")
        for task_id in ids:
            try:
                triplet = pool_read(args.pool, task_id)
                triplet.validate(efficiency_tol=1e-9)
                col_mean = np.abs(triplet.X.mean(axis=0)).max()
                col_std = np.abs(triplet.X.std(axis=0) - 1.0).max()
                if col_mean > 1e-6 or col_std > 1e-6:
                    raise ValueError(f"feature columns not standardized (mean {col_mean:.1e}, std dev {col_std:.1e})")
                report(f"triplet {task_id}", True)
            except (PoolError, ValueError) as exc:
                report(f"triplet {task_id}", False, str(exc))
    if args.checkpoint:
        import tempfile

        try:
            weights = load_weights(args.checkpoint)
            report("checkpoint loads", True)
            with tempfile.TemporaryDirectory() as tmp:
                resaved = Path(tmp) / "resave.ckpt"
                save_weights(resaved, weights)
                same = resaved.read_bytes() == Path(args.checkpoint).read_bytes()
                report("checkpoint round-trip byte-identical", same)
            rng = np.random.default_rng(0)
            X = rng.normal(size=(8, min(3, weights.config.max_features)))
            y = rng.uniform(size=8)
            out = explain_zero_shot(weights, X, y)
            centers = weights.config.bucket_centers()
            report("zero-shot outputs finite and in range",
                   bool(np.all(np.isfinite(out)) and out.min() >= centers.min() and out.max() <= centers.max()))
        except Exception as exc:  # noqa: BLE001
            report("checkpoint loads", False, str(exc))
    if not args.pool and not args.checkpoint:
        print("error: pass --pool and/or --checkpoint", file=sys.stderr)
        return 2
    print(f"{checks - failures}/{checks} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeroshap",
        description="Zero-shot, model-free Shapley value estimation workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("generate", help="populate the training pool")
    common(p)
    p.add_argument("--pool", help="pool directory (default: pool.path)")
    p.add_argument("--n-tasks", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the in-context explainer")
    common(p)
    p.add_argument("--pool", help="pool directory (default: pool.path)")
    p.add_argument("--checkpoint", help="output checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="zero-shot attributions for a CSV")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--input", required=True, help="CSV with feature columns plus a prediction column")
    p.add_argument("--output", required=True, help="attribution CSV to write")
    p.add_argument("--prediction-column")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("shap", help="run the Shapley oracle over a CSV and model checkpoint")
    common(p)
    p.add_argument("--model", required=True, help="base-model checkpoint")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--prediction-column")
    p.set_defaults(func=cmd_shap)

    p = sub.add_parser("benchmark", help="methods x k-shots x base-model sweep on synthetic tasks")
    common(p)
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("dag-recover", help="DAG structure recovery study")
    common(p)
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_dag_recover)

    p = sub.add_parser("validate", help="invariant sweep over a pool or checkpoint")
    common(p)
    p.add_argument("--pool")
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InputError, CheckpointError, PoolError, OSError) as exc:
        # an OSError that no reader turned into its own type: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
