import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from zeroshap import cli
from zeroshap import pool as pl
from zeroshap.base_models import MlpConfig
from zeroshap.config import DEFAULTS, ConfigError, RunConfig
from zeroshap.explainer import ExplainerConfig
from zeroshap.pool import PoolBuildConfig
from zeroshap.scm import TaskGenConfig, TaskRejected


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
    assert cfg.get("pool.n_tasks") == 5
    assert cfg.get("gen.m_max") == 2
    assert cfg.get("gen.node_range") == (2, 8)


def test_python_defaults_are_the_cli_defaults():
    cfg = RunConfig.load(None)
    assert cfg.pool_build_config() == PoolBuildConfig()
    assert cfg.explainer_config() == ExplainerConfig()
    assert cfg.task_gen_config() == TaskGenConfig()
    assert cfg.mlp_config() == MlpConfig()


def test_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("no.such.key = 1\n")
    with pytest.raises(ConfigError, match="unknown"):
        RunConfig.load(cfg_file)
    with pytest.raises(ConfigError, match="unknown config keys: \\['no.such.key', 'other.key'\\]"):
        RunConfig.load(cfg_file, {"other.key": "2", "seed": "3"})


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


def test_explain_reads_the_prediction_column_by_its_name(workspace, tmp_path):
    """A table whose prediction column is named ``score``, and comes first, explains as the
    same table with its column named ``prediction`` does, whichever way the name is given."""
    _, config = workspace
    csv_in = tmp_path / "query.csv"
    _write_query_csv(csv_in, seed=4)
    with open(csv_in, newline="") as fh:
        rows = list(csv.reader(fh))
    scored = tmp_path / "scored.csv"
    with open(scored, "w", newline="") as fh:
        csv.writer(fh).writerows([["score", *rows[0][:-1]]] + [[row[-1], *row[:-1]] for row in rows[1:]])
    outputs = []
    for table, name_args in ((csv_in, []), (scored, ["--prediction-column", "score"]),
                             (scored, ["--set", "explain.prediction_column=score"])):
        outputs.append(tmp_path / f"attr{len(outputs)}.csv")
        assert cli.main(["explain", "--config", str(config), "--input", str(table),
                         "--output", str(outputs[-1]), *name_args]) == 0
    assert outputs[1].read_bytes() == outputs[0].read_bytes()
    assert outputs[2].read_bytes() == outputs[0].read_bytes()


def test_train_rerun_byte_identical(workspace, tmp_path):
    root, config = workspace
    ckpt_b = tmp_path / "retrain.ckpt"
    assert cli.main(["train", "--config", str(config), "--checkpoint", str(ckpt_b), "--quiet"]) == 0
    original = (root / "out" / "explainer.ckpt").read_bytes()
    assert ckpt_b.read_bytes() == original


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
    assert capsys.readouterr().err == "error: pass --pool and/or --checkpoint\n"


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
    ("x0,x1,score\n0.1,0.2,0.5\n", "prediction column 'prediction' not in CSV header"),
], ids=["header-only", "non-numeric", "nan", "inf", "ragged", "too-many-features", "no-prediction-column"])
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
    # json reads NaN and Infinity; either bound would turn every attribution into nan
    (lambda arrays, config: config.update(bucket_high=float("nan")), "must be finite"),
    (lambda arrays, config: config.update(bucket_high=float("inf")), "must be finite"),
], ids=["renamed-key", "renamed-array", "heads-do-not-divide", "nan-bucket-bound", "inf-bucket-bound"])
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


def test_train_on_empty_pool_ends_in_one_error_line(tmp_path, capsys):
    pool = tmp_path / "empty"
    pool.mkdir()
    assert cli.main(["train", "--pool", str(pool), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: pool {pool} is empty or missing; run 'zeroshap generate' first\n"
    assert list(tmp_path.iterdir()) == [pool]


def test_explain_checkpoint_directory_fails_cleanly(workspace, tmp_path, capsys):
    _, config = workspace
    csv_in, csv_out = _query_paths(tmp_path)
    code = cli.main(["explain", "--config", str(config), "--checkpoint", str(tmp_path),
                     "--input", str(csv_in), "--output", str(csv_out)])
    _fails_cleanly(code, capsys, "cannot read")
    assert not csv_out.exists()


@pytest.mark.parametrize("command", ["generate", "train", "explain", "benchmark", "dag-recover"])
def test_missing_config_file_fails_cleanly(tmp_path, capsys, command):
    extra = {"explain": ["--input", "in.csv", "--output", "out.csv"]}
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


@pytest.mark.parametrize("override, message", [
    ("explainer.embed_dim=abc", "explainer.embed_dim = 'abc' does not parse"),
    ("dag.node_range=oops", "dag.node_range = 'oops' does not parse"),
    ("benchmark.kshots=x", "benchmark.kshots = 'x' does not parse"),
    ("explainer.n_heads=3", "explainer: embed_dim must be divisible by n_heads"),
])
def test_every_subcommand_refuses_a_bad_value_of_a_key_it_does_not_read(tmp_path, capsys, override, message):
    code = cli.main(["generate", "--n-tasks", "0", "--pool", str(tmp_path / "pool"), "--set", override,
                     "--quiet"])
    _fails_cleanly(code, capsys, "config error: ", message)
    assert list(tmp_path.iterdir()) == []


def test_dag_recover_short_of_usable_tasks_ends_in_one_error_line(workspace, tmp_path, capsys, monkeypatch):
    def rejected(seed, gen_cfg):
        raise TaskRejected("no valid task")

    root, config = workspace
    monkeypatch.setattr(cli, "sample_task", rejected)
    code = cli.main(["dag-recover", "--config", str(config), "--checkpoint", str(root / "out" / "explainer.ckpt"),
                     "--set", f"output_dir={tmp_path / 'out'}", "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == "error: only 0/2 usable tasks\n"
    assert list(tmp_path.iterdir()) == []


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
    ("train", "explainer.max_features=1", "features, more than explainer.max_features = 1"),
    ("train", "explainer.max_context_rows=0", "explainer: max_context_rows must be at least 2, got 0"),
    ("train", "explainer.max_context_rows=1", "explainer: max_context_rows must be at least 2, got 1"),
    ("train", "explainer.lr_low=0", "explainer: lr_low and lr_high must be finite with 0 < lr_low <= lr_high, "
                                    "got 0.0 and 0.0001"),
    ("train", "explainer.lr_high=-1", "with 0 < lr_low <= lr_high, got 0.0001 and -1.0"),
    ("train", "explainer.lr_low=nan", "with 0 < lr_low <= lr_high, got nan and 0.0001"),
    ("train", "explainer.embed_dim=0", "explainer: embed_dim and max_features must be at least 1, got 0 and 8"),
    ("train", "seed=-1", "seed must not be negative, got -1"),
    ("generate", "seed=-1", "seed must not be negative, got -1"),
    ("generate", "pool.workers=0", "the worker count (--workers or pool.workers) must be at least 1, got 0"),
    ("generate", "pool.n_tasks=-2", "pool.n_tasks) must not be negative, got -2"),
    ("generate", "base.epochs=-1", "base: epochs must be at least 1, got -1"),
    ("generate", "base.epochs=0", "base: epochs must be at least 1, got 0"),
    ("generate", "base.lr0=0", "base: lr0 must be positive, got 0.0"),
    ("generate", "base.lr0=inf", "base: lr0 must be finite, got inf"),
    ("generate", "base.hidden_sizes=0", "base: every hidden width must be at least 1, got (0,)"),
    ("generate", "base.kind=svm", "base: unknown base kind 'svm'"),
    ("generate", "gen.m_max=-1", "gen: m_max must be at least 1"),
    ("generate", "gen.n_range=40:30", "gen: n_range must be non-empty"),
    ("generate", "gen.node_range=1:4", "gen: node_range must be within [2, 64]"),
    ("generate", "gen.n_range=4:8", "gen: n_range must be non-empty with at least 8 rows"),
    ("generate", "gen.redirect_dist=foo", "gen: unknown redirect_dist 'foo'"),
    ("generate", "gen.connect_prob=7", "gen: connect_prob must be within [0, 1], got 7.0"),
    ("generate", "gen.max_subgraphs=0", "gen: max_subgraphs must be at least 1, got 0"),
    ("generate", "gen.n_range=10:12", "base: an mlp base model needs at least 16 training rows"),
    ("generate", "shap.n_permutations=0", "shap: n_permutations must be at least 1, got 0"),
    ("generate", "shap.background_size=0", "shap: background_size must be at least 1, got 0"),
    ("generate", "shap.exact_prob=3", "shap: exact_prob must be within [0, 1], got 3.0"),
    ("benchmark", "benchmark.methods=zero_shot,lasso", "benchmark.methods = 'zero_shot,lasso'"),
    ("benchmark", "benchmark.kshots=0,90", "benchmark.kshots = '0,90': each must be a reference count in [0, 32]"),
    ("benchmark", "benchmark.base_kinds=mlp,svm", "benchmark.base_kinds = 'mlp,svm'"),
    ("benchmark", "benchmark.n_tasks=0", "benchmark.n_tasks must be at least 1"),
    ("benchmark", "gen.n_range=10:12", "benchmark.base_kinds includes mlp, which needs at least 16"),
    ("benchmark", "benchmark.eval_epochs=0", "benchmark.eval_epochs must be at least 1, got 0"),
    ("benchmark", "shap.n_permutations=0", "shap: n_permutations must be at least 1, got 0"),
    ("benchmark", "shap.background_size=0", "shap: background_size must be at least 1, got 0"),
    ("dag-recover", "dag.node_range=5:4", "gen and dag.node_range: node_range must be within [2, 64]"),
    ("dag-recover", "dag.node_range=2:2", "edge recovery needs tasks with at least two features"),
    ("dag-recover", "dag.n_tasks=0", "dag.n_tasks must be at least 1, got 0"),
    ("dag-recover", "dag.n_tasks=-2", "dag.n_tasks must be at least 1, got -2"),
    ("dag-recover", "dag.edge_budgets=-1,2", "dag.edge_budgets = '-1,2': give one or more edge counts"),
    ("dag-recover", "dag.edge_budgets=", "dag.edge_budgets = '': give one or more edge counts"),
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


# one out-of-range value per key that a section builder reads, or that RunConfig.load checks
BUILDER_OUT_OF_RANGE = [
    ("seed", "-1", "seed must not be negative, got -1"),
    ("gen.node_range", "1:4", "gen: node_range must be within [2, 64] and non-empty, got (1, 4)"),
    ("gen.n_range", "40:30", "gen: n_range must be non-empty with at least 8 rows, got (40, 30)"),
    ("gen.m_max", "0", "gen: m_max must be at least 1, got 0"),
    ("gen.max_subgraphs", "0", "gen: max_subgraphs must be at least 1, got 0"),
    ("gen.connect_prob", "-0.5", "gen: connect_prob must be within [0, 1], got -0.5"),
    ("gen.redirect_dist", "foo", "gen: unknown redirect_dist 'foo'"),
    ("base.kind", "svm", "base: unknown base kind 'svm'"),
    ("base.hidden_sizes", "0", "base: every hidden width must be at least 1, got (0,)"),
    ("base.epochs", "0", "base: epochs must be at least 1, got 0"),
    ("base.lr0", "inf", "base: lr0 must be finite, got inf"),
    ("shap.n_permutations", "0", "shap: n_permutations must be at least 1, got 0"),
    ("shap.background_size", "0", "shap: background_size must be at least 1, got 0"),
    ("shap.exact_prob", "1.5", "shap: exact_prob must be within [0, 1], got 1.5"),
    ("explainer.embed_dim", "0", "explainer: embed_dim and max_features must be at least 1, got 0 and 10"),
    ("explainer.n_layers", "-1", "explainer: n_layers must not be negative, got -1"),
    ("explainer.n_heads", "0", "explainer: embed_dim must be divisible by n_heads"),
    ("explainer.n_buckets", "1", "explainer: need at least two buckets"),
    ("explainer.max_features", "0", "explainer: embed_dim and max_features must be at least 1, got 64 and 0"),
    ("explainer.max_context_rows", "1", "explainer: max_context_rows must be at least 2, got 1"),
    ("explainer.train_steps", "0", "explainer: train_steps and restarts must be at least 1, got 0 and 3"),
    ("explainer.restarts", "0", "explainer: train_steps and restarts must be at least 1, got 3000 and 0"),
    ("explainer.lr_low", "1e-3", "explainer: lr_low and lr_high must be finite with 0 < lr_low <= lr_high, "
                                 "got 0.001 and 0.0001"),
    ("explainer.lr_high", "inf", "with 0 < lr_low <= lr_high, got 1e-07 and inf"),
    ("dag.node_range", "5:4", "gen and dag.node_range: node_range must be within [2, 64] and non-empty"),
]
# keys every value of which is in range
NO_OUT_OF_RANGE = {
    "output_dir": "a directory",
    "pool.path": "a directory",
    "shap.exact_max_features": "a threshold on the feature count: every integer picks an estimator",
    "explain.prediction_column": "a column name; a table without that column is an input error",
}


@pytest.mark.parametrize("key, value, message", BUILDER_OUT_OF_RANGE,
                         ids=[f"{key}={value}" for key, value, _ in BUILDER_OUT_OF_RANGE])
def test_section_builders_refuse_an_out_of_range_value(key, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg = RunConfig.load(None, {key: value})
        cfg.pool_build_config()  # the gen, base and shap sections
        cfg.explainer_config()
        cfg.task_gen_config(node_range_key="dag.node_range")


def test_every_config_key_has_an_out_of_range_row_or_none():
    """A key is refused out of range by a section builder, or by the subcommand that reads it
    (``OUT_OF_RANGE``), or has no out-of-range value."""
    subcommand_keys = {override.partition("=")[0] for _, override, _ in OUT_OF_RANGE}
    builder_keys = {key for key, _, _ in BUILDER_OUT_OF_RANGE}
    assert builder_keys | subcommand_keys | NO_OUT_OF_RANGE.keys() == DEFAULTS.keys()
    assert not NO_OUT_OF_RANGE.keys() & (builder_keys | subcommand_keys)


def test_generate_ends_a_task_index_rejected_every_time_in_one_error_line(tmp_path, capsys, monkeypatch):
    def rejected(seed, gen_cfg):
        raise TaskRejected("target column produced single-class labels twice")

    monkeypatch.setattr(pl, "sample_task", rejected)
    assert cli.main(["generate", "--pool", str(tmp_path / "pool"), "--n-tasks", "2", "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: task index 0 rejected {pl.ENTRY_ATTEMPTS} times\n"


def test_readme_quick_start_lists_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^zeroshap ([\w-]+)", quick_start, flags=re.MULTILINE)
    usage = cli.build_parser().format_usage()
    assert listed == re.search(r"\{([^}]*)\}", usage).group(1).split(",")


def _narrow_checkpoint(root, tmp_path, max_features):
    """The workspace explainer cut down to ``max_features`` slots."""
    from zeroshap.checkpoint import load_checkpoint, save_checkpoint

    arrays, ckpt_config, metadata = load_checkpoint(root / "out" / "explainer.ckpt")
    ckpt_config["max_features"] = max_features
    for name in ("embed_w", "slot_pos"):
        arrays[name] = arrays[name][: max_features + 1]
    ckpt = tmp_path / f"narrow{max_features}.ckpt"
    save_checkpoint(ckpt, "explainer", arrays, config=ckpt_config, metadata=metadata)
    return ckpt


def test_benchmark_refuses_a_checkpoint_narrower_than_its_tasks(workspace, tmp_path, capsys, monkeypatch):
    root, config = workspace
    monkeypatch.setattr(cli, "sample_task", lambda *args, **kwargs: pytest.fail("sampled a task"))
    code = cli.main(["benchmark", "--config", str(config), "--checkpoint", str(_narrow_checkpoint(root, tmp_path, 1)),
                     "--set", f"output_dir={tmp_path / 'out'}", "--quiet"])
    _fails_cleanly(code, capsys, "config error: ", "allow tasks with 3 features",
                   "the checkpoint explains at most 1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("max_features", [1, 2])
def test_dag_recover_draws_tasks_the_checkpoint_can_explain(workspace, tmp_path, max_features):
    # each pass explains m - 1 features, so tasks may have up to max_features + 1
    root, config = workspace
    out = tmp_path / "out"
    assert cli.main(["dag-recover", "--config", str(config), "--quiet", "--set", f"output_dir={out}",
                     "--checkpoint", str(_narrow_checkpoint(root, tmp_path, max_features))]) == 0
    tasks = json.loads((out / "dag_recovery.json").read_text())["tasks"]
    assert len(tasks) == 2
    assert all(2 <= task["m"] <= max_features + 1 for task in tasks)
