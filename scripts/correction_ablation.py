#!/usr/bin/env python3
"""Correction-step ablation on synthetic tasks with known ground truth.

Compares zero-shot attribution quality (flattened Pearson vs ground truth)
under four post-processing variants: raw outputs, efficiency-only, the two
statistical steps without efficiency, and the full pipeline. Writes one CSV
row per task plus a mean summary.

Usage: python scripts/correction_ablation.py --checkpoint PATH [--n-tasks 30]
"""

import argparse
import csv
import sys

import numpy as np

from zeroshap import explainer as ex
from zeroshap import pool as pl
from zeroshap import postprocess as pp
from zeroshap.metrics import pearson

# each variant maps (raw attributions in C order, predictions) to an estimate
VARIANTS = {
    "raw": lambda phi, y_hat: phi,
    "efficiency_only": pp.efficiency_correct,
    "statistical_only": lambda phi, y_hat: pp.rescale(pp.recenter(phi), y_hat),
    "full": pp.full_pipeline,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--n-tasks", type=int, default=30)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--out", default="correction_ablation.csv")
    args = parser.parse_args()

    weights = ex.load_weights(args.checkpoint)
    cfg = pl.PoolBuildConfig()  # the generate subcommand's defaults
    scores = {name: [] for name in VARIANTS}
    rows = []
    for i in range(args.n_tasks):
        triplet = pl.build_pool_entry(args.seed, i, cfg)
        # C order, as full_pipeline reads it: the steps' sums run in memory order
        raw = np.ascontiguousarray(ex.explain_zero_shot(weights, triplet.X, triplet.y_hat))
        row = {"task": i, "m": triplet.m, "n": triplet.n}
        for name, correct in VARIANTS.items():
            estimate = correct(raw, triplet.y_hat)
            try:
                score = pearson(estimate, triplet.phi)
            except ValueError:
                score = 0.0
            scores[name].append(score)
            row[name] = score
        rows.append(row)
        print(f"task {i:3d} (m={row['m']}): " +
              " ".join(f"{k}={row[k]:+.3f}" for k in VARIANTS), flush=True)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["task", "m", "n", *VARIANTS])
        writer.writeheader()
        writer.writerows(rows)
    print("\nmean Pearson by variant:")
    for name in VARIANTS:
        print(f"  {name:18s} {np.mean(scores[name]):+.4f}")
    print(f"\nper-task results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
