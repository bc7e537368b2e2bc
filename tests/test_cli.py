import csv
import json
from pathlib import Path

import numpy as np
import pytest

from zeroshap import base_models as bm
from zeroshap import cli
from zeroshap.config import ConfigError, RunConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.cfg"
    config.write_text(
        f"""
# micro config for CLI tests
seed = 42
output_dir = {root / 'out'}
pool.path = {root / 'pool'}
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
explainer.train_steps = 30
explainer.restarts = 1
explainer.lr_low = 1e-4
explainer.lr_high = 1e-4
shap.n_permutations = 30
shap.background_size = 16
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
    assert cli.main(["generate", "--config", str(config), "--quiet"]) == 0
    assert cli.main(["train", "--config", str(config), "--quiet"]) == 0
    return root, config


def test_config_parsing_and_overrides(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("seed = 7\npool.n_tasks = 5  # comment\n")
    cfg = RunConfig.load(cfg_file, {"gen.m_max": "2"})
    assert cfg.seed == 7
    assert cfg.get_int("pool.n_tasks") == 5
    assert cfg.get_int("gen.m_max") == 2
    assert cfg.get_range("gen.node_range") == (2, 8)


def test_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("no.such.key = 1\n")
    with pytest.raises(ConfigError, match="unknown"):
        RunConfig.load(cfg_file)


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ZEROSHAP_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    cfg = RunConfig.load(None)
    assert cfg.output_dir == tmp_path / "elsewhere"


def test_generate_zero_tasks_clean(tmp_path):
    pool = tmp_path / "empty_pool"
    assert cli.main(["generate", "--pool", str(pool), "--n-tasks", "0", "--quiet"]) == 0
    assert pool.is_dir()
    assert list(pool.glob("*.json")) == []


def test_generated_pool_passes_validate(workspace):
    root, config = workspace
    assert cli.main(["validate", "--pool", str(root / "pool")]) == 0


def test_validate_flags_corrupted_triplet(workspace, tmp_path, capsys):
    root, _ = workspace
    copy = tmp_path / "pool_copy"
    copy.mkdir()
    for f in (root / "pool").iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    target = copy / "1.bin"
    target.write_bytes(target.read_bytes()[:-8] + b"\xff" * 8)
    assert cli.main(["validate", "--pool", str(copy)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] triplet 1" in out


def test_validate_checkpoint(workspace):
    root, _ = workspace
    assert cli.main(["validate", "--checkpoint", str(root / "out" / "explainer.ckpt")]) == 0


def test_train_writes_report(workspace):
    root, _ = workspace
    report = json.loads((root / "out" / "train_report.json").read_text())
    assert report["steps"] == 30
    assert "final_loss" in report


def test_train_missing_pool_errors(tmp_path, capsys):
    assert cli.main(["train", "--pool", str(tmp_path / "nope"), "--quiet"]) == 2
    assert "generate" in capsys.readouterr().err


def test_explain_missing_checkpoint_errors(tmp_path, capsys):
    csv_in = tmp_path / "in.csv"
    csv_in.write_text("a,b,prediction\n1,2,0.5\n")
    code = cli.main([
        "explain", "--checkpoint", str(tmp_path / "nope.ckpt"),
        "--input", str(csv_in), "--output", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert "train" in capsys.readouterr().err


def _write_query_csv(path, n=5, m=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    pred = rng.uniform(size=n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(m)] + ["prediction"])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in X[i]] + [repr(float(pred[i]))])
    return X, pred


def test_explain_roundtrip(workspace, tmp_path):
    root, config = workspace
    csv_in = tmp_path / "query.csv"
    _write_query_csv(csv_in)
    csv_out = tmp_path / "attr.csv"
    assert cli.main([
        "explain", "--config", str(config), "--input", str(csv_in), "--output", str(csv_out),
    ]) == 0
    header, data = cli.read_csv_matrix(csv_out)
    assert header == ["feature_1", "feature_2", "feature_3", "base_value"]
    assert data.shape == (5, 4)
    # base value column is constant and rows satisfy the efficiency identity
    assert len(set(data[:, 3])) == 1
    _, pred = cli.read_csv_matrix(csv_in)
    y = pred[:, 3]
    np.testing.assert_allclose(data[:, :3].sum(axis=1) + data[:, 3], y, atol=1e-9)


def test_explain_rerun_byte_identical(workspace, tmp_path):
    root, config = workspace
    csv_in = tmp_path / "query.csv"
    _write_query_csv(csv_in, seed=3)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["explain", "--config", str(config), "--input", str(csv_in), "--output", str(out_a)]) == 0
    assert cli.main(["explain", "--config", str(config), "--input", str(csv_in), "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_rerun_byte_identical(workspace, tmp_path):
    root, config = workspace
    ckpt_b = tmp_path / "retrain.ckpt"
    assert cli.main(["train", "--config", str(config), "--checkpoint", str(ckpt_b), "--quiet"]) == 0
    original = (root / "out" / "explainer.ckpt").read_bytes()
    assert ckpt_b.read_bytes() == original


def test_shap_subcommand(workspace, tmp_path):
    root, config = workspace
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(float)
    model = bm.train_mlp(X, y, bm.MlpConfig(hidden_sizes=(12,), epochs=80))
    model_path = tmp_path / "base.ckpt"
    bm.save_model(model_path, model)
    csv_in = tmp_path / "rows.csv"
    with open(csv_in, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "x2"])
        for row in X[:6]:
            writer.writerow([repr(float(v)) for v in row])
    csv_out = tmp_path / "shap.csv"
    assert cli.main([
        "shap", "--config", str(config), "--model", str(model_path),
        "--input", str(csv_in), "--output", str(csv_out),
    ]) == 0
    header, data = cli.read_csv_matrix(csv_out)
    assert header == ["feature_1", "feature_2", "feature_3", "base_value"]
    preds = model.predict(X[:6])
    np.testing.assert_allclose(data[:, :3].sum(axis=1) + data[:, 3], preds, atol=1e-9)


@pytest.mark.parametrize("kind", ["mlp", "forest"])
def test_shap_feature_count_mismatch_fails_cleanly(tmp_path, capsys, kind):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(float)
    if kind == "mlp":
        model = bm.train_mlp(X, y, bm.MlpConfig(hidden_sizes=(4,), epochs=5))
    else:
        model = bm.train_forest(X, y, bm.ForestConfig(n_estimators=3, max_depth=2))
    model_path = tmp_path / f"{kind}.ckpt"
    bm.save_model(model_path, model)
    csv_in = tmp_path / "rows.csv"
    csv_in.write_text("x0,x1\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
    csv_out = tmp_path / "shap.csv"
    code = cli.main(["shap", "--model", str(model_path), "--input", str(csv_in),
                     "--output", str(csv_out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "2 feature columns; the model" in err and "takes 3" in err
    assert "Traceback" not in err
    assert not csv_out.exists()


def test_benchmark_table_structure(workspace):
    # the two benchmark tasks have n = 32 and 31 rows: k = 31 scores task 0 only
    root, config = workspace
    assert cli.main(["benchmark", "--config", str(config), "--set", "benchmark.kshots=0,1,2,31",
                     "--set", "benchmark.methods=zero_shot,knn,forest_regressor", "--quiet"]) == 0
    runs = [("zero_shot", "0"), ("knn", "2"), ("knn", "31"), ("forest_regressor", "2"),
            ("forest_regressor", "31")]
    for table in ("pearson", "jaccard"):
        with open(root / "out" / f"benchmark_{table}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == ["method", "samples", "base_kind", "task_0", "task_1", "mean"]
        assert all(len(row) == len(header) for row in body)
        assert [(r[0], r[1]) for r in body] == runs
        for method, k, _, task_0, task_1, mean in body:
            assert task_0 != "" and mean != ""
            assert (task_1 == "") == (k == "31")
            if k == "31":
                assert task_0 == mean
    report = json.loads((root / "out" / "benchmark_report.json").read_text())["reports"]
    assert [(r["method"], str(r["samples"])) for r in report] == runs
    with open(root / "out" / "benchmark_runtime.csv", newline="") as fh:
        assert [row[:2] for row in csv.reader(fh)] == [["method", "base_kind"], ["zero_shot", "mlp"],
                                                       ["shap", "mlp"]]


def test_dag_recover_outputs(workspace):
    root, config = workspace
    assert cli.main(["dag-recover", "--config", str(config), "--quiet"]) == 0
    with open(root / "out" / "dag_ged_vs_budget.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["budget", "mean_ged", "mean_random_ged"]
    assert [r[0] for r in rows[1:]] == ["2", "3"]
    payload = json.loads((root / "out" / "dag_recovery.json").read_text())
    assert len(payload["tasks"]) == 2


def test_validate_requires_target(capsys):
    assert cli.main(["validate"]) == 2
    assert "--pool" in capsys.readouterr().err


def test_explain_chunks_large_inputs(workspace, tmp_path):
    # 150 rows exceed the micro config's 128-row context budget
    root, config = workspace
    csv_in = tmp_path / "big.csv"
    _write_query_csv(csv_in, n=150, m=3, seed=9)
    csv_out = tmp_path / "big_attr.csv"
    assert cli.main([
        "explain", "--config", str(config), "--input", str(csv_in), "--output", str(csv_out),
    ]) == 0
    _, data = cli.read_csv_matrix(csv_out)
    assert data.shape == (150, 4)
    _, raw = cli.read_csv_matrix(csv_in)
    np.testing.assert_allclose(data[:, :3].sum(axis=1) + data[:, 3], raw[:, 3], atol=1e-9)


@pytest.mark.parametrize("text, message", [
    ("x0,x1,prediction\n", "no data rows"),
    ("x0,x1,prediction\n0.1,0.2,0.5\n0.3,abc,0.4\n", "line 3"),
    ("x0,x1,prediction\n0.1,nan,0.5\n0.3,0.2,0.4\n", "non-finite value nan in column 'x1'"),
    ("x0,x1,prediction\n0.1,0.2,0.5\n0.3,0.2,-inf\n", "non-finite value -inf in column 'prediction'"),
    ("x0,x1,prediction\n0.1,0.2\n", "every row must have 3 cells"),
    (",".join(f"x{j}" for j in range(9)) + ",prediction\n" + ",".join(["0.5"] * 10) + "\n",
     "9 feature columns; the checkpoint explains 1 to 8"),
], ids=["header-only", "non-numeric", "nan", "inf", "ragged", "too-many-features"])
def test_explain_bad_input_fails_cleanly(workspace, tmp_path, capsys, text, message):
    _, config = workspace
    csv_in = tmp_path / "bad.csv"
    csv_in.write_text(text)
    csv_out = tmp_path / "attr.csv"
    code = cli.main(["explain", "--config", str(config), "--input", str(csv_in),
                     "--output", str(csv_out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not csv_out.exists()


def test_explain_corrupt_checkpoint_fails_cleanly(workspace, tmp_path, capsys):
    root, config = workspace
    ckpt = tmp_path / "corrupt.ckpt"
    ckpt.write_bytes((root / "out" / "explainer.ckpt").read_bytes()[:100])
    csv_in = tmp_path / "query.csv"
    _write_query_csv(csv_in)
    code = cli.main(["explain", "--config", str(config), "--checkpoint", str(ckpt),
                     "--input", str(csv_in), "--output", str(tmp_path / "attr.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("edit, message", [
    (lambda arrays, config: config.update(n_head=config.pop("n_heads")), "config keys missing"),
    (lambda arrays, config: arrays.update(slot_pox=arrays.pop("slot_pos")), "slot_pos"),
    (lambda arrays, config: config.update(n_heads=3), "divisible"),
], ids=["renamed-key", "renamed-array", "heads-do-not-divide"])
def test_explain_checkpoint_that_does_not_fit_fails_cleanly(workspace, tmp_path, capsys, edit, message):
    from zeroshap.checkpoint import load_checkpoint, save_checkpoint

    root, config = workspace
    arrays, ckpt_config, metadata = load_checkpoint(root / "out" / "explainer.ckpt")
    edit(arrays, ckpt_config)
    ckpt = tmp_path / "edited.ckpt"
    save_checkpoint(ckpt, "explainer", arrays, config=ckpt_config, metadata=metadata)
    csv_in = tmp_path / "query.csv"
    _write_query_csv(csv_in)
    code = cli.main(["explain", "--config", str(config), "--checkpoint", str(ckpt),
                     "--input", str(csv_in), "--output", str(tmp_path / "attr.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_validate_reports_malformed_sidecar(workspace, tmp_path, capsys):
    root, _ = workspace
    copy = tmp_path / "pool_copy"
    copy.mkdir()
    for f in (root / "pool").iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    (copy / "2.json").write_text("[]")
    assert cli.main(["validate", "--pool", str(copy)]) == 1
    assert "[FAIL] triplet 2: pool entry 2: sidecar is not a JSON object" in capsys.readouterr().out


def _query_paths(tmp_path):
    csv_in = tmp_path / "query.csv"
    _write_query_csv(csv_in)
    return csv_in, tmp_path / "attr.csv"


def _fails_cleanly(code, capsys, *fragments):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(("error: ", "config error: ")) and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


def test_explain_checkpoint_directory_fails_cleanly(workspace, tmp_path, capsys):
    _, config = workspace
    csv_in, csv_out = _query_paths(tmp_path)
    code = cli.main(["explain", "--config", str(config), "--checkpoint", str(tmp_path),
                     "--input", str(csv_in), "--output", str(csv_out)])
    _fails_cleanly(code, capsys, "cannot read")
    assert not csv_out.exists()


@pytest.mark.parametrize("model", ["missing.ckpt", "."], ids=["missing", "directory"])
def test_shap_unreadable_model_fails_cleanly(tmp_path, capsys, model):
    csv_in, csv_out = _query_paths(tmp_path)
    code = cli.main(["shap", "--model", str(tmp_path / model), "--input", str(csv_in),
                     "--output", str(csv_out)])
    _fails_cleanly(code, capsys, "cannot read")


@pytest.mark.parametrize("command", ["generate", "train", "explain", "shap", "benchmark", "dag-recover"])
def test_missing_config_file_fails_cleanly(tmp_path, capsys, command):
    extra = {"explain": ["--input", "in.csv", "--output", "out.csv"],
             "shap": ["--model", "m.ckpt", "--input", "in.csv", "--output", "out.csv"]}
    code = cli.main([command, "--config", str(tmp_path / "missing.cfg"), *extra.get(command, [])])
    _fails_cleanly(code, capsys, "missing.cfg: cannot read")


@pytest.mark.parametrize("override, key", [
    ("pool.n_tasks=abc", "pool.n_tasks"),
    ("gen.node_range=3-5", "gen.node_range"),
    ("base.lr0=fast", "base.lr0"),
    ("base.hidden_sizes=12,x", "base.hidden_sizes"),
])
def test_unparsable_config_value_names_its_key(tmp_path, capsys, override, key):
    code = cli.main(["generate", "--pool", str(tmp_path / "pool"), "--set", override, "--quiet"])
    _fails_cleanly(code, capsys, key)


def test_explain_missing_input_fails_cleanly(workspace, tmp_path, capsys):
    _, config = workspace
    code = cli.main(["explain", "--config", str(config), "--input", str(tmp_path / "missing.csv"),
                     "--output", str(tmp_path / "attr.csv")])
    _fails_cleanly(code, capsys, "missing.csv: cannot read")


def test_explain_non_utf8_input_fails_cleanly(workspace, tmp_path, capsys):
    _, config = workspace
    csv_in = tmp_path / "latin1.csv"
    csv_in.write_bytes("x0,x1,pr\xe9diction\n0.1,0.2,0.5\n".encode("latin-1"))
    code = cli.main(["explain", "--config", str(config), "--input", str(csv_in),
                     "--output", str(tmp_path / "attr.csv")])
    _fails_cleanly(code, capsys, "latin1.csv: cannot read", "can't decode byte 0xe9")


def test_explain_unwritable_output_fails_cleanly(workspace, tmp_path, capsys):
    _, config = workspace
    csv_in, _ = _query_paths(tmp_path)
    csv_out = tmp_path / "no-such-dir" / "attr.csv"
    code = cli.main(["explain", "--config", str(config), "--input", str(csv_in),
                     "--output", str(csv_out)])
    _fails_cleanly(code, capsys, str(csv_out))


OUT_OF_RANGE = [
    ("train", "explainer.n_heads=3", "explainer: embed_dim must be divisible by n_heads"),
    ("train", "explainer.train_steps=0", "explainer: train_steps and restarts must be at least 1"),
    ("train", "explainer.restarts=0", "explainer: train_steps and restarts must be at least 1"),
    ("generate", "base.kind=svm", "base: unknown base kind 'svm'"),
    ("generate", "gen.m_max=-1", "gen: m_max must be at least 1"),
    ("generate", "gen.n_range=40:30", "gen: n_range must be non-empty"),
    ("generate", "gen.node_range=1:4", "gen: node_range must be within [2, 64]"),
    ("benchmark", "benchmark.methods=zero_shot,lasso", "benchmark.methods = 'zero_shot,lasso'"),
    ("benchmark", "benchmark.kshots=0,90", "benchmark.kshots = '0,90': each must be a reference count in [0, 32]"),
    ("benchmark", "benchmark.base_kinds=mlp,svm", "benchmark.base_kinds = 'mlp,svm'"),
    ("benchmark", "benchmark.n_tasks=0", "benchmark.n_tasks must be at least 1"),
    ("dag-recover", "dag.node_range=5:4", "gen and dag.node_range: node_range must be within [2, 64]"),
]


@pytest.mark.parametrize("command, override, message", OUT_OF_RANGE,
                         ids=[f"{command}-{override}" for command, override, _ in OUT_OF_RANGE])
def test_out_of_range_config_value_fails_cleanly(workspace, tmp_path, capsys, monkeypatch,
                                                 command, override, message):
    _, config = workspace
    # the benchmark checks its sweep before it samples a task
    monkeypatch.setattr(cli, "sample_task", lambda *args, **kwargs: pytest.fail("sampled a task"))
    extra = {"generate": ["--pool", str(tmp_path / "pool")],
             "train": ["--checkpoint", str(tmp_path / "explainer.ckpt")]}
    code = cli.main([command, "--config", str(config), "--set", override, "--quiet",
                     *extra.get(command, [])])
    _fails_cleanly(code, capsys, "config error: ", message)
    assert list(tmp_path.iterdir()) == []
