"""The four workloads: set-up, one round of operations, and output checks.

Every round repeats the same operations on the same inputs, so a run is a
whole number of identical rounds. The shapes (and, for pool entries, the
estimator) are fixed per workload and the seed draws the contents: the
synthetic tasks behind each slot, the base-model and Shapley seeds, and the
values of the served tables. The cost of every pipeline depends mostly on n,
m and the estimator, so fixing them keeps the spread between seeds down
while the seed still changes the data.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import zeroshap.checkpoint
import zeroshap.cli
import zeroshap.explainer
import zeroshap.pool
import zeroshap.scm
from zeroshap.config import RunConfig
from zeroshap.shapley import ShapConfig

import reference

EPS = reference.EPS

# (n, m, estimator) slots; "E" is exact enumeration, "P" permutation sampling.
# The MLP label factory follows the acceptance generator's mix of m: n_nodes
# is uniform on 2..8 and m uniform on 1..min(5, n_nodes - 1), which gives
# P(m) of about 0.38, 0.24, 0.17, 0.12 and 0.09 for m = 1..5, so the 20 slots
# split 8/5/3/2/2 over m. Each n from 48 to 128 fills four slots, and every m
# has a permutation-labelled slot, 6 of 20 in all, near the generator's 30%
# share. Forest entries cost ~10 ms per prediction call and n * 2^m calls, so
# that workload keeps n = 48 and m <= 3 and runs more entries to average over
# the data-dependent depth of the trees; its median entry sits among the
# eleven with m = 2.
MLP_SLOTS = [(48, 1, "E"), (68, 1, "E"), (88, 1, "P"), (108, 1, "E"), (128, 1, "E"),
             (48, 1, "E"), (68, 1, "P"), (88, 1, "E"),
             (88, 2, "E"), (108, 2, "E"), (128, 2, "P"), (48, 2, "E"), (68, 2, "E"),
             (108, 3, "E"), (128, 3, "E"), (48, 3, "P"),
             (68, 4, "E"), (88, 4, "P"),
             (108, 5, "P"), (128, 5, "E")]
FOREST_SLOTS = ([(48, 1, "E")] * 3 + [(48, 1, "P")] + [(48, 2, "E")] * 8
                + [(48, 2, "P")] * 3 + [(48, 3, "E")])
# Pool that meta_train reads and that serve_explain's checkpoint is trained on.
# Its base MLPs fit for 50 epochs: a training step's cost depends on the
# entries' shapes, not on how good their labels are.
SETUP_SLOTS = [(48, 1, "E"), (68, 2, "E"), (88, 3, "E"), (108, 4, "E"), (128, 5, "E")]
SETUP_EPOCHS = 50
STEPS_PER_ROUND = 10 * len(SETUP_SLOTS)
SERVE_TRAIN_STEPS = 10
# Fixed peak learning rate (the top of the acceptance range), so that every
# seed's training leaves ln(n_buckets) behind within one round.
TRAIN_LR = 1e-4
# Served tables: short ones run in one context, long ones (n > 512) go through
# the chunked reference policy. Six tables are faster and six slower than the
# three (160, 8) ones, so the median table latency is that shape's and does
# not jump between two shapes when the machine's speed drifts.
SHORT_TABLES = [(32, 2), (48, 3), (64, 4), (80, 5), (96, 6), (128, 7), (160, 8), (160, 8),
                (160, 8), (192, 9), (256, 10), (320, 3), (512, 2)]
LONG_TABLES = [(640, 6), (1024, 4)]
SCREEN_DRAWS = 64  # candidate tasks the set-up draws per distinct n
CHECKED_ROWS = 2  # rows per exact-labelled entry recomputed by brute force
CHECKED_TABLES = 2  # short tables per run re-explained permuted and recomputed in numpy


def _seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---- label factory ----


@dataclass
class EntrySpec:
    task_seed: int
    gen: zeroshap.scm.TaskGenConfig
    label_seed: int
    n: int
    m: int
    exact: bool


def pool_config(base_kind: str) -> zeroshap.pool.PoolBuildConfig:
    """The acceptance pool config, taken from the program's own defaults."""
    return RunConfig.load(None, {"base.kind": base_kind}).pool_build_config()


def screen_tasks(seed: int, stream: int, gen, slots) -> tuple[list[EntrySpec], Counter]:
    """Seeded tasks with each slot's n and m, and the count of each m drawn.

    For every distinct n the generator makes SCREEN_DRAWS tasks (more only if
    they hold too few of some m); each slot takes the first unused one with
    its m. The fixed draw count keeps set-up work the same across seeds. The
    m counts cover the accepted tasks of those fixed draws, so they measure
    the generator's own mix.
    """
    specs, candidates, screened = [], {}, Counter()
    for n in dict.fromkeys(n for n, _, _ in slots):
        rng = np.random.default_rng(_seed(seed, stream, n))
        gen_n = replace(gen, n_range=(n, n))
        wanted = Counter(m for slot_n, m, _ in slots if slot_n == n)
        found: list[tuple[int, int]] = []
        for draw in range(1000):
            if draw == SCREEN_DRAWS:
                screened.update(m for _, m in found)
            have = Counter(m for _, m in found)
            if draw >= SCREEN_DRAWS and all(have[m] >= k for m, k in wanted.items()):
                break
            task_seed = int(rng.integers(0, 2**63))
            try:
                found.append((task_seed, zeroshap.scm.sample_task(task_seed, gen_n).m))
            except zeroshap.scm.TaskRejected:
                pass
        else:
            raise RuntimeError(f"too few tasks with the wanted m at n={n} in 1000 draws")
        candidates[n] = (gen_n, found)
    for i, (n, m, estimator) in enumerate(slots):
        gen_n, found = candidates[n]
        hit = next(c for c in found if c[1] == m)
        found.remove(hit)
        specs.append(EntrySpec(hit[0], gen_n, _seed(seed, stream, 1000 + i), n, m, estimator == "E"))
    return specs, screened


def make_entry(spec: EntrySpec, cfg, pool_dir: Path, task_id: int) -> None:
    """One pool entry through the label factory: SCM sample, base fit, Shapley labels, write."""
    task = zeroshap.scm.sample_task(spec.task_seed, spec.gen)
    triplet = zeroshap.pool.build_training_triplet(
        task,
        base_cfg=cfg.base,
        shap_cfg=ShapConfig(exact_max_features=cfg.exact_max_features,
                            n_permutations=cfg.n_permutations),
        rng=np.random.default_rng(spec.label_seed),
        exact_prob=1.0 if spec.exact else 0.0,
        base_kind=cfg.base_kind,
        background_size=cfg.background_size,
    )
    zeroshap.pool.pool_write(pool_dir, task_id, triplet)


def timed_ops(ops, tracer, span_name: str):
    """Run operations one at a time; returns (latencies of the ones that succeeded, attempted, failed)."""
    latencies, failed = [], 0
    for op in ops:
        index = tracer.begin_op(span_name) if tracer else None
        start = time.perf_counter()
        try:
            op()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            latencies.append(time.perf_counter() - start)
        finally:
            if tracer:
                tracer.end(index)
    return latencies, len(ops), failed


class Workload:
    ops_per_round: int
    expected_layers: set[str]  # traced names the workload must reach
    summary = ""  # a line about the inputs set-up made, printed with the run's summary

    def start(self) -> None:
        """Called after the last set-up, before the first round."""

    def stop(self) -> None:
        """Called after the last round."""


class LabelFactory(Workload):
    expected_layers = {"op.entry", "scm.sample_task", "scm.sample_dag", "base_models.fit",
                       "base_models.predict", "shapley.hybrid", "pool.write"}

    def __init__(self, base_kind: str, slots, seed: int):
        self.base_kind, self.slots, self.seed = base_kind, slots, seed
        self.ops_per_round = len(slots)
        self.captured: dict = {}
        self.current = None
        self.rounds = 0

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.cfg = pool_config(self.base_kind)
        self.specs, screened = screen_tasks(self.seed, 0, self.cfg.gen, self.slots)
        total = sum(screened.values())
        self.summary = (f"generator m shares over {total} screened tasks: "
                        + ", ".join(f"m={m} {screened[m] / total:.2f}" for m in sorted(screened)))
        _fresh_dir(workdir)

    def start(self) -> None:
        # keep what each hybrid_shapley call saw, for the brute-force check
        original = zeroshap.pool.hybrid_shapley

        def capture(predict_fn, X, config):
            result = original(predict_fn, X, config)
            self.captured[self.current] = (predict_fn, X, config.background, result)
            return result

        self._original = original
        zeroshap.pool.hybrid_shapley = capture

    def stop(self) -> None:
        zeroshap.pool.hybrid_shapley = self._original

    def run_round(self, tracer):
        self.rounds += 1
        if self.rounds > 1:
            shutil.rmtree(self.pool_dir)
        self.pool_dir = _fresh_dir(self.workdir / f"pool{self.rounds}")
        self.captured.clear()

        def op(task_id, spec):
            def run():
                self.current = task_id
                make_entry(spec, self.cfg, self.pool_dir, task_id)
            return run

        return timed_ops([op(i, s) for i, s in enumerate(self.specs)], tracer, "op.entry")

    def check(self) -> list[str]:
        errors = []
        ids = zeroshap.pool.pool_task_ids(self.pool_dir)
        if ids != sorted(str(i) for i in range(len(self.specs))):
            return [f"pool holds entries {ids}, expected {len(self.specs)}"]
        rng = np.random.default_rng(_seed(self.seed, 9))
        for task_id in ids:
            spec = self.specs[int(task_id)]
            t = zeroshap.pool.pool_read(self.pool_dir, task_id)
            where = f"entry {task_id} (n={t.n}, m={t.m}, {t.provenance['estimator']})"
            try:
                t.validate(efficiency_tol=1e-9)
            except ValueError as exc:
                errors.append(f"{where}: {exc}")
            col_mean = np.abs(t.X.mean(axis=0)).max()
            col_std = np.abs(t.X.std(axis=0) - 1.0).max()
            if col_mean > 1e-6 or col_std > 1e-6:
                errors.append(f"{where}: columns not standardized (mean {col_mean:.1e}, std {col_std:.1e})")
            if (t.n, t.m, t.provenance["estimator"]) != (spec.n, spec.m, "exact" if spec.exact else "permutation"):
                errors.append(f"{where}: expected n={spec.n}, m={spec.m}, exact={spec.exact}")
                continue
            if t.m == 1:
                gap = np.abs(t.phi[:, 0] - (t.y_hat - t.base_value)).max()
                if gap > 256 * EPS:
                    errors.append(f"{where}: phi differs from y_hat - base_value by {gap:.2e}")
            if t.provenance["estimator"] != "exact":
                continue
            predict_fn, X, background, result = self.captured[int(task_id)]
            if not (np.array_equal(X, t.X) and np.array_equal(result.phi, t.phi)):
                errors.append(f"{where}: pool entry differs from the labels the engine returned")
                continue
            for row in rng.choice(t.n, size=CHECKED_ROWS, replace=False):
                truth = reference.brute_force_shapley(predict_fn, X[row], background)
                gap = np.abs(truth - t.phi[row]).max()
                if gap > reference.shapley_tolerance(t.m):
                    errors.append(f"{where} row {row}: phi off the brute-force value by {gap:.2e}")
        return errors


# ---- meta-training ----


def build_setup_pool(seed: int, pool_dir: Path) -> None:
    cfg = pool_config("mlp")
    cfg = replace(cfg, base=replace(cfg.base, epochs=SETUP_EPOCHS))
    _fresh_dir(pool_dir)
    for i, spec in enumerate(screen_tasks(seed, 1, cfg.gen, SETUP_SLOTS)[0]):
        make_entry(spec, cfg, pool_dir, i)


def train_config(steps: int) -> zeroshap.explainer.ExplainerConfig:
    """The default explainer (64-dim, 3 layers, 4 heads, 32 buckets), one restart."""
    return zeroshap.explainer.ExplainerConfig(train_steps=steps, restarts=1,
                                             lr_low=TRAIN_LR, lr_high=TRAIN_LR)


def cycling_sampler(pool_dir: Path, on_draw=None):
    """Visits the pool's entries in turn, so every round trains on the same mix of shapes."""
    ids = itertools.cycle(zeroshap.pool.pool_task_ids(pool_dir))

    def sampler():
        if on_draw is not None:
            on_draw()
        return zeroshap.pool.pool_read(pool_dir, next(ids))

    return sampler


class MetaTrain(Workload):
    expected_layers = {"op.step", "pool.read", "explainer.encode", "autodiff.backward",
                       "autodiff.adam", "autodiff.tensors"}
    ops_per_round = STEPS_PER_ROUND

    def __init__(self, seed: int):
        self.seed = seed
        self.config = train_config(STEPS_PER_ROUND)

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.pool_dir = workdir / "pool"
        build_setup_pool(self.seed, self.pool_dir)

    def run_round(self, tracer):
        marks, open_span = [], []

        def on_draw():
            # a task-step runs from one pool draw to the next
            marks.append(time.perf_counter())
            if tracer:
                if open_span:
                    tracer.end(open_span.pop())
                open_span.append(tracer.begin_op("op.step"))

        try:
            self.weights = zeroshap.explainer.train(
                cycling_sampler(self.pool_dir, on_draw), self.config,
                np.random.default_rng(_seed(self.seed, 2)))
        except Exception as exc:  # noqa: BLE001 - the round's steps count as failed
            print(f"training failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return [], STEPS_PER_ROUND, STEPS_PER_ROUND
        finally:
            if open_span:
                tracer.end(open_span.pop())
        marks.append(time.perf_counter())
        return list(np.diff(marks)), STEPS_PER_ROUND, 0

    def check(self) -> list[str]:
        errors = []
        meta = self.weights.metadata
        uniform = math.log(self.config.n_buckets)
        if abs(meta["initial_loss"] - uniform) > 64 * EPS * uniform:
            errors.append(f"first-step NLPD {meta['initial_loss']!r} is not ln({self.config.n_buckets})")
        # the smoothed NLPD is a running mean over every step, so it is finite
        # only if every step's loss was
        if not math.isfinite(meta["final_loss"]) or any(r.get("failed") for r in meta["restarts"]):
            errors.append(f"non-finite training loss (final smoothed NLPD {meta['final_loss']!r})")
        elif not meta["final_loss"] < uniform:
            errors.append(f"final smoothed NLPD {meta['final_loss']:.4f} is not below ln({self.config.n_buckets})")
        first, second = self.workdir / "explainer.ckpt", self.workdir / "resaved.ckpt"
        zeroshap.explainer.save_weights(first, self.weights)
        zeroshap.explainer.save_weights(second, zeroshap.explainer.load_weights(first))
        if first.read_bytes() != second.read_bytes():
            errors.append("checkpoint does not re-save byte-identically after a reload")
        return errors


# ---- serving ----


def make_table(rng: np.random.Generator, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Correlated features and a logistic model's predictions."""
    mixing = np.eye(m) + 0.5 * rng.normal(size=(m, m)) / math.sqrt(m)
    X = rng.normal(size=(n, m)) @ mixing
    logit = X @ rng.normal(size=m) + 0.5 * np.sin(2.0 * X[:, 0])
    return X, 1.0 / (1.0 + np.exp(-logit))


def write_table(path: Path, X: np.ndarray, y_hat: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(X.shape[1])] + ["prediction"])
        for row, y in zip(X, y_hat):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(y))])


def read_output(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


class ServeExplain(Workload):
    expected_layers = {"op.table", "explainer.encode", "explainer.forward", "explainer.explain",
                       "autodiff.tensors", "checkpoint.load", "cli.read_csv", "cli.write_csv",
                       "postprocess.correct"}
    shapes = SHORT_TABLES + LONG_TABLES
    ops_per_round = len(shapes)
    rows_per_round = sum(n for n, _ in shapes)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        pool_dir = workdir / "pool"
        build_setup_pool(self.seed, pool_dir)
        weights = zeroshap.explainer.train(cycling_sampler(pool_dir), train_config(SERVE_TRAIN_STEPS),
                                           np.random.default_rng(_seed(self.seed, 3)))
        self.checkpoint = workdir / "explainer.ckpt"
        zeroshap.explainer.save_weights(self.checkpoint, weights)
        rng = np.random.default_rng(_seed(self.seed, 4))
        self.tables = []
        for i, (n, m) in enumerate(self.shapes):
            X, y_hat = make_table(rng, n, m)
            write_table(workdir / f"table{i}.csv", X, y_hat)
            self.tables.append((X, y_hat))

    def explain(self, source: Path, target: Path) -> None:
        """One table, CSV to CSV, through the ``explain`` subcommand's entry point."""
        argv = ["explain", "--checkpoint", str(self.checkpoint), "--input", str(source),
                "--output", str(target), "--quiet"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = zeroshap.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"explain exited with {code} on {source.name}")

    def run_round(self, tracer):
        def op(i):
            return lambda: self.explain(self.workdir / f"table{i}.csv", self.workdir / f"out{i}.csv")

        return timed_ops([op(i) for i in range(len(self.shapes))], tracer, "op.table")

    def check(self) -> list[str]:
        errors = []
        outputs = []
        for i, (X, y_hat) in enumerate(self.tables):
            n, m = X.shape
            header, out = read_output(self.workdir / f"out{i}.csv")
            outputs.append(out)
            where = f"table {i} (n={n}, m={m})"
            expected = [f"feature_{j + 1}" for j in range(m)] + ["base_value"]
            if header != expected or out.shape != (n, m + 1) or not np.all(np.isfinite(out)):
                errors.append(f"{where}: output is not {n} finite rows of {expected}")
                continue
            base = out[:, m]
            if np.abs(base - math.fsum(y_hat) / n).max() > n * EPS:
                errors.append(f"{where}: base_value is not the mean prediction")
            gap = np.abs(base + out[:, :m].sum(axis=1) - y_hat).max()
            if gap > 1e-9:
                errors.append(f"{where}: base_value + sum(phi) misses the prediction by {gap:.2e}")
        if errors:
            return errors

        rng = np.random.default_rng(_seed(self.seed, 5))
        short = [i for i, (n, _) in enumerate(self.shapes) if n <= 512]
        arrays, config, _ = zeroshap.checkpoint.load_checkpoint(self.checkpoint, expected_kind="explainer")
        weights = zeroshap.explainer.load_weights(self.checkpoint)
        for i in rng.choice(short, size=CHECKED_TABLES, replace=False):
            X, y_hat = self.tables[i]
            # attention carries no cross-row position: permuted rows in, permuted rows out
            perm = rng.permutation(X.shape[0])
            source, target = self.workdir / "permuted.csv", self.workdir / "permuted_out.csv"
            write_table(source, X[perm], y_hat[perm])
            self.explain(source, target)
            gap = np.abs(read_output(target)[1] - outputs[i][perm]).max()
            if gap > 1e-9:
                errors.append(f"table {i}: permuting the rows changes attributions by {gap:.2e}")
            raw = zeroshap.explainer.explain_zero_shot(weights, X, y_hat)
            gap = np.abs(raw - reference.explain_raw(arrays, config, X, y_hat)).max()
            if gap > 1e-9:
                errors.append(f"table {i}: raw output differs from the numpy forward pass by {gap:.2e}")
            if raw.std() < 1e-6:
                errors.append(f"table {i}: raw output is constant, the checkpoint is untrained")
        return errors


WORKLOADS = {
    "label_factory_mlp": lambda seed: LabelFactory("mlp", MLP_SLOTS, seed),
    "label_factory_forest": lambda seed: LabelFactory("forest", FOREST_SLOTS, seed),
    "meta_train": MetaTrain,
    "serve_explain": ServeExplain,
}
