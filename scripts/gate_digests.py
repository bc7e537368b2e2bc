#!/usr/bin/env python3
"""Digests of the artifacts that must stay byte-identical from one commit to the next.

Usage: python scripts/gate_digests.py OUTDIR

Runs, from the ``src`` of the checkout that holds this script, with BLAS
pinned to one thread (byte identity holds for a fixed thread count only):

- ``generate --n-tasks 10 --set seed=11`` for ``base.kind=mlp`` and ``forest``;
- ``train --set explainer.train_steps=400 --set explainer.restarts=1`` on the
  MLP pool;
- ``explain`` of a fixed 120-row, 5-feature table with that checkpoint;
- the default ``benchmark`` and ``dag-recover`` runs with it.

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
    for command, where in (("benchmark", "benchmark"), ("dag-recover", "dag")):
        run(cli, command, "--checkpoint", str(checkpoint), "--set", f"output_dir={out / where}")

    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name not in UNSTABLE):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
