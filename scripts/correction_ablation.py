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
from zeroshap.config import RunConfig
from zeroshap.metrics import pearson

VARIANTS = {
    "raw": pp.CorrectionConfig(False, False, False),
    "efficiency_only": pp.CorrectionConfig(False, False, True),
    "statistical_only": pp.CorrectionConfig(True, True, False),
    "full": pp.CorrectionConfig(True, True, True),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--n-tasks", type=int, default=30)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--out", default="correction_ablation.csv")
    args = parser.parse_args()

    weights = ex.load_weights(args.checkpoint)
    cfg = RunConfig.load(None).pool_build_config()  # the generate subcommand's defaults
    scores = {name: [] for name in VARIANTS}
    rows = []
    for i in range(args.n_tasks):
        triplet = pl.build_pool_entry(args.seed, i, cfg)
        raw = ex.explain_zero_shot(weights, triplet.X, triplet.y_hat)
        row = {"task": i, "m": triplet.m, "n": triplet.n}
        for name, correction in VARIANTS.items():
            estimate = pp.full_pipeline(raw, triplet.y_hat, correction)
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
