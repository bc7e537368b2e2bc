"""The benchmark harness times the pipelines by wrapping names it looks up.

``perfbench/tracing.py`` replaces module and class attributes such as
``pool.train_forest`` or ``cli.load_weights`` with timing wrappers, and a
traced run fails when one of those names is gone or when a name that a
workload lists in ``expected_layers`` never fires. This test drives tiny
versions of the three pipelines under the tracer, so a change that moves or
renames a traced name fails here rather than only in a benchmark run.
"""

import contextlib
import importlib
import io
from dataclasses import replace
from pathlib import Path

import numpy as np

from zeroshap import cli
from zeroshap import explainer as ex
from zeroshap import scm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _task_spec(workloads, seed: int, gen):
    """The first task at or after ``seed`` that the generator accepts, as a label-factory slot."""
    for task_seed in range(seed, seed + 100):
        try:
            task = scm.sample_task(task_seed, gen)
        except scm.TaskRejected:
            continue
        return workloads.EntrySpec(task_seed, gen, task_seed + 1, *task.X.shape, exact=True)
    raise AssertionError("no accepted task in 100 seeds")


def test_traced_pipelines_fire_every_expected_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")

    expected = set().union(*(cls.expected_layers for cls in
                             (workloads.LabelFactory, workloads.MetaTrain, workloads.ServeExplain)))
    pool_dir = tmp_path / "pool"
    pool_dir.mkdir()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        # label factory: one MLP and one forest entry
        for task_id, kind in enumerate(("mlp", "forest")):
            cfg = workloads.pool_config(kind)
            cfg = replace(cfg, gen=replace(cfg.gen, n_range=(24, 32)),
                          base=replace(cfg.base, hidden_sizes=(8,), epochs=5))
            spec = _task_spec(workloads, 100 * (task_id + 1), cfg.gen)
            workloads.make_entry(spec, cfg, pool_dir, task_id)

        # meta-training: two task-steps on that pool
        config = ex.ExplainerConfig(embed_dim=8, n_layers=1, n_heads=2, n_buckets=4,
                                    max_context_rows=64, train_steps=2, restarts=1)
        weights = ex.train(workloads.cycling_sampler(pool_dir), config, np.random.default_rng(0))
        checkpoint = tmp_path / "explainer.ckpt"
        ex.save_weights(checkpoint, weights)

        # serving: one table through the explain subcommand
        table = tmp_path / "table.csv"
        rng = np.random.default_rng(1)
        workloads.write_table(table, *workloads.make_table(rng, 12, 3))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["explain", "--checkpoint", str(checkpoint), "--input", str(table),
                             "--output", str(tmp_path / "out.csv"), "--quiet"])
        assert code == 0
    finally:
        tracer.uninstall()

    missing = {name for name in expected if not name.startswith("op.")} - tracer.fired()
    assert not missing, f"traced names never fired: {sorted(missing)}"
