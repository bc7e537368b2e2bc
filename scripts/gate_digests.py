#!/usr/bin/env python3
"""Digests of the artifacts that must stay byte-identical from one commit to the next.

Usage: python scripts/gate_digests.py OUTDIR

Runs, from the ``src`` of the checkout that holds this script, with BLAS
pinned to one thread (byte identity holds for a fixed thread count only):

- ``generate --n-tasks 10 --set seed=11`` for ``base.kind=mlp`` and ``forest``;
- ``train --set explainer.train_steps=400 --set explainer.restarts=1`` on the
  MLP pool;
- ``explain`` of a fixed 120-row, 5-feature table with that checkpoint, and
  of a fixed 1100-row, 4-feature table, which its 512-row context cuts into
  five chunks, the last one short;
- the default ``benchmark`` and ``dag-recover`` runs with it;
- ``generate`` under a ``--config`` file that sets a key of every section
  (ranges, int and str lists, floats, ``pool.workers = 2``), then ``explain``
  under that file of a table whose prediction column, ``score``, is named by
  ``--prediction-column`` over the file's ``explain.prediction_column``;
- two base-MLP fits whose outputs no artifact holds: the ``train_losses`` of
  a default fit, written as ``<f8`` bytes, and the message of a fit that
  diverges mid-way through its epochs.

Then it prints one ``sha256  path`` line per file written under OUTDIR, paths
relative to it, sorted. The wall-clock ``benchmark_runtime.csv`` is left out.
Run it on two checkouts and ``diff`` the outputs.
"""

from __future__ import annotations

import os

# pinned before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the wall-clock table of ``benchmark``: its times differ from run to run
UNSTABLE = {"benchmark_runtime.csv"}
# a non-default value for a key of every section; the paths are relative to the file's directory
CONFIG_FILE = """\
seed = 5
output_dir = .
pool.path = pool
pool.n_tasks = 6
pool.workers = 2
gen.node_range = 3:6     # a range
gen.n_range = 32:64
gen.m_max = 4
gen.max_subgraphs = 1
gen.connect_prob = 0.3
gen.redirect_dist = uniform
base.kind = mlp
base.hidden_sizes = 16,8
base.epochs = 120
base.lr0 = 1e-3
shap.exact_max_features = 3
shap.n_permutations = 40
shap.background_size = 16
shap.exact_prob = 0.5
explainer.embed_dim = 16
explainer.n_layers = 1
explainer.n_heads = 2
explainer.n_buckets = 8
explainer.max_features = 6
explainer.max_context_rows = 64
explainer.train_steps = 20
explainer.restarts = 1
explainer.lr_low = 1e-4
explainer.lr_high = 2e-4
explain.prediction_column = prediction
benchmark.n_tasks = 2
benchmark.kshots = 0,2
benchmark.methods = zero_shot,knn
benchmark.base_kinds = mlp
benchmark.eval_epochs = 50
dag.n_tasks = 2
dag.edge_budgets = 2,3
dag.node_range = 4:6
"""


def run(cli, *argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main([*argv, "--quiet"])
    if status:
        raise SystemExit(f"error: zeroshap {' '.join(argv)} exited {status}")


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    out = Path(sys.argv[1]).resolve()
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"error: {out} is not empty")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from zeroshap import cli

    for kind in ("mlp", "forest"):
        run(cli, "generate", "--n-tasks", "10", "--pool", str(out / f"pool_{kind}"),
            "--set", "seed=11", "--set", f"base.kind={kind}")
    checkpoint = out / "train" / "explainer.ckpt"
    run(cli, "train", "--pool", str(out / "pool_mlp"), "--checkpoint", str(checkpoint),
        "--set", f"output_dir={out / 'train'}", "--set", "explainer.train_steps=400",
        "--set", "explainer.restarts=1")

    rng = np.random.default_rng(0)
    table = np.column_stack([rng.normal(size=(120, 5)), rng.uniform(size=120)])
    explain_in = out / "explain" / "input.csv"
    explain_in.parent.mkdir(parents=True)
    np.savetxt(explain_in, table, delimiter=",", fmt="%.17g",
               header="x0,x1,x2,x3,x4,prediction", comments="")
    run(cli, "explain", "--checkpoint", str(checkpoint), "--input", str(explain_in),
        "--output", str(out / "explain" / "attributions.csv"))
    long_rng = np.random.default_rng(1)
    long_table = np.column_stack([long_rng.normal(size=(1100, 4)), long_rng.uniform(size=1100)])
    long_in = out / "explain" / "long_input.csv"
    np.savetxt(long_in, long_table, delimiter=",", fmt="%.17g", header="x0,x1,x2,x3,prediction",
               comments="")
    run(cli, "explain", "--checkpoint", str(checkpoint), "--input", str(long_in),
        "--output", str(out / "explain" / "long_attributions.csv"))
    for command, where in (("benchmark", "benchmark"), ("dag-recover", "dag")):
        run(cli, command, "--checkpoint", str(checkpoint), "--set", f"output_dir={out / where}")

    (out / "config").mkdir()
    with contextlib.chdir(out / "config"):
        Path("run.cfg").write_text(CONFIG_FILE)
        run(cli, "generate", "--config", "run.cfg")
        np.savetxt("scored.csv", table[:40, [5, 0, 1, 2]], delimiter=",", fmt="%.17g",
                   header="score,x0,x1,x2", comments="")
        run(cli, "explain", "--config", "run.cfg", "--checkpoint", str(checkpoint), "--input", "scored.csv",
            "--output", "attributions.csv", "--prediction-column", "score")

    from zeroshap import base_models as bm

    (out / "base_mlp").mkdir()
    fit_rng = np.random.default_rng(5)
    X = fit_rng.normal(size=(64, 3))
    y = (X[:, 0] + 0.5 * fit_rng.normal(size=64) > 0).astype(float)
    (out / "base_mlp" / "train_losses.f8").write_bytes(bm.train_mlp(X, y).train_losses.astype("<f8").tobytes())
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            bm.train_mlp(X, y, bm.MlpConfig(epochs=200, lr0=5.69e306))
        message = "did not diverge"
    except RuntimeError as exc:
        message = str(exc)
    (out / "base_mlp" / "divergence.txt").write_text(message + "\n")

    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name not in UNSTABLE):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
