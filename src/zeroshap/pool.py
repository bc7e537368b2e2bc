"""Training-triplet construction and the on-disk task pool.

Each pool entry is a pair of files: ``<task_id>.bin`` holding row-major
little-endian f64 blocks (X, then Y_hat, then Phi, then the base value) and a
``<task_id>.json`` sidecar with format_version, n, m, estimator tag, and
seeds. The sidecar is renamed into place last, so its presence marks a
committed entry; writers and samplers may run concurrently.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .base_models import ForestConfig, MlpConfig, train_forest, train_mlp
from .scm import ScmTask, TaskGenConfig, TaskRejected, sample_task
from .shapley import ShapConfig, hybrid_shapley, subsample_background

POOL_FORMAT_VERSION = 1
# draws between two listings of the pool directory by a sampler
REFRESH_EVERY = 16


class PoolError(IOError):
    """A pool entry that cannot be read or parsed, or a pool with no readable entry."""


@dataclass
class TrainingTriplet:
    """One (X, Y_hat, Phi) supervision record with its base value and provenance."""

    X: np.ndarray
    y_hat: np.ndarray
    phi: np.ndarray
    base_value: float
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    def validate(self, efficiency_tol: float = 1e-9) -> None:
        if self.phi.shape != self.X.shape:
            raise ValueError(f"phi shape {self.phi.shape} does not match X shape {self.X.shape}")
        if self.y_hat.shape != (self.n,):
            raise ValueError(f"y_hat shape {self.y_hat.shape} does not match n={self.n}")
        for name, arr in (("X", self.X), ("y_hat", self.y_hat), ("phi", self.phi)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
        if not np.isfinite(self.base_value):
            raise ValueError("non-finite base value")
        residual = np.abs(self.y_hat - self.base_value - self.phi.sum(axis=1)).max()
        if not residual <= efficiency_tol:
            raise ValueError(f"efficiency residual {residual:.3e} exceeds {efficiency_tol:.1e}")


def build_training_triplet(
    task: ScmTask,
    base_cfg: MlpConfig | None = None,
    shap_cfg: ShapConfig | None = None,
    rng: np.random.Generator | None = None,
    exact_prob: float = 0.7,
    base_kind: str = "mlp",
    background_size: int = 64,
) -> TrainingTriplet:
    """Train a base model on the task and label it with ground-truth attributions.

    The estimator variant (exact vs permutation plus its seed) and the base
    model's initialization seed are drawn from ``rng``, diversifying the
    label-generating process across the pool; every draw lands in provenance.
    """
    base_cfg = base_cfg or MlpConfig()
    shap_cfg = shap_cfg or ShapConfig()
    rng = rng if rng is not None else np.random.default_rng(task.seed)

    base_seed = int(rng.integers(0, 2**31))
    shap_seed = int(rng.integers(0, 2**31))
    use_exact = task.m <= shap_cfg.exact_max_features and rng.uniform() < exact_prob

    X, y = task.X, task.y
    try:
        if base_kind == "mlp":
            model = train_mlp(X, y, replace(base_cfg, seed=base_seed))
            predict_fn = model.predict
        elif base_kind == "forest":
            model = train_forest(X, y, ForestConfig(seed=base_seed))
            predict_fn = model.predict_proba
        else:
            raise ValueError(f"unknown base kind {base_kind!r}")
    except RuntimeError as exc:
        raise TaskRejected(f"base model training diverged: {exc}") from exc

    y_hat = predict_fn(X)
    background = shap_cfg.background
    if background is None:
        background = subsample_background(X, rng, size=background_size)
    result = hybrid_shapley(
        predict_fn,
        X,
        ShapConfig(
            mode="exact" if use_exact else "permutation",
            exact_max_features=max(shap_cfg.exact_max_features, task.m),
            n_permutations=shap_cfg.n_permutations,
            background=background,
            seed=shap_seed,
        ),
    )
    provenance = {
        "estimator": result.estimator,
        "task_seed": int(task.seed),
        "base_model_seed": base_seed,
        "shapley_seed": shap_seed,
        "base_kind": base_kind,
        "explained_output": "probability",
    }
    if result.estimator == "permutation":
        provenance["n_permutations"] = shap_cfg.n_permutations
    return TrainingTriplet(
        X=X.copy(),
        y_hat=y_hat,
        phi=result.phi,
        base_value=result.base_value,
        provenance=provenance,
    )


# ---- pool I/O ----


def _bin_payload(triplet: TrainingTriplet) -> bytes:
    parts = [
        np.ascontiguousarray(triplet.X, dtype="<f8").tobytes(),
        np.ascontiguousarray(triplet.y_hat, dtype="<f8").tobytes(),
        np.ascontiguousarray(triplet.phi, dtype="<f8").tobytes(),
        struct.pack("<d", triplet.base_value),
    ]
    return b"".join(parts)


def pool_write(pool_dir, task_id: int | str, triplet: TrainingTriplet) -> None:
    """Atomic two-file write; the JSON sidecar lands last and commits the entry."""
    pool_dir = Path(pool_dir)
    if not pool_dir.is_dir():
        raise FileNotFoundError(f"pool directory {pool_dir} does not exist")
    header = {
        "format_version": POOL_FORMAT_VERSION,
        "n": triplet.n,
        "m": triplet.m,
        "estimator": triplet.provenance.get("estimator", "unknown"),
        "seeds": {
            key: triplet.provenance[key]
            for key in ("task_seed", "base_model_seed", "shapley_seed")
            if key in triplet.provenance
        },
        "provenance": triplet.provenance,
    }
    bin_path = pool_dir / f"{task_id}.bin"
    json_path = pool_dir / f"{task_id}.json"
    tmp_bin = pool_dir / f"{task_id}.bin.tmp"
    tmp_json = pool_dir / f"{task_id}.json.tmp"
    tmp_bin.write_bytes(_bin_payload(triplet))
    os.replace(tmp_bin, bin_path)
    tmp_json.write_text(json.dumps(header, sort_keys=True, separators=(",", ":")))
    os.replace(tmp_json, json_path)


def pool_read(pool_dir, task_id: int | str) -> TrainingTriplet:
    """One committed entry; raises PoolError if its files are missing, malformed or
    disagree, or if it holds a non-finite value."""
    pool_dir = Path(pool_dir)
    try:
        header = json.loads((pool_dir / f"{task_id}.json").read_text())
        raw = (pool_dir / f"{task_id}.bin").read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise PoolError(f"pool entry {task_id}: {exc}") from exc
    if not isinstance(header, dict):
        raise PoolError(f"pool entry {task_id}: sidecar is not a JSON object")
    version = header.get("format_version")
    if version != POOL_FORMAT_VERSION:
        raise PoolError(f"pool entry {task_id}: format version mismatch: file has {version}, "
                        f"reader supports {POOL_FORMAT_VERSION}")
    n, m, provenance = header.get("n"), header.get("m"), header.get("provenance")
    if not (type(n) is int and type(m) is int and n >= 1 and m >= 1 and isinstance(provenance, dict)):
        raise PoolError(f"pool entry {task_id}: sidecar needs integers n, m >= 1 and a provenance object")
    expected = (2 * n * m + n + 1) * 8
    if len(raw) != expected:
        raise PoolError(f"pool entry {task_id}: {task_id}.bin has {len(raw)} bytes, expected {expected}")
    values = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(values).all():
        raise PoolError(f"pool entry {task_id}: non-finite values in {task_id}.bin")
    X = values[: n * m].reshape(n, m).copy()
    y_hat = values[n * m : n * m + n].copy()
    phi = values[n * m + n : 2 * n * m + n].reshape(n, m).copy()
    return TrainingTriplet(X=X, y_hat=y_hat, phi=phi, base_value=float(values[-1]), provenance=provenance)


def pool_task_ids(pool_dir) -> list[str]:
    """Committed entries, by sidecar presence; sorted for determinism."""
    return sorted(p.stem for p in Path(pool_dir).glob("*.json"))


def make_pool_sampler(pool_dir, rng: np.random.Generator, timeout: float = 10.0):
    """Sampler closure: uniform draws with replacement over committed entries.

    The directory is re-listed every ``REFRESH_EVERY`` draws, so entries that
    writers commit meanwhile join the draws. A draw blocks up to ``timeout``
    seconds while the pool is empty. Entries that ``pool_read`` rejects are
    skipped with a warning and left out of later draws; once none is left,
    a draw raises PoolError.
    """
    ids: list[str] = []
    excluded: set[str] = set()
    draws = 0

    def sampler() -> TrainingTriplet:
        nonlocal ids, draws
        deadline = time.monotonic() + timeout
        relist = draws % REFRESH_EVERY == 0 or not ids
        draws += 1
        while True:
            if relist:
                ids = [t for t in pool_task_ids(pool_dir) if t not in excluded]
            if not ids:
                if excluded:
                    raise PoolError(f"all {len(excluded)} pool entries are unreadable")
                if time.monotonic() >= deadline:
                    raise TimeoutError(f"pool {pool_dir} stayed empty for {timeout:.1f}s")
                time.sleep(0.05)
                relist = True
                continue
            task_id = ids[int(rng.integers(0, len(ids)))]
            try:
                return pool_read(pool_dir, task_id)
            except PoolError as exc:
                warnings.warn(f"skipping corrupted pool entry {task_id}: {exc}")
                excluded.add(task_id)
                ids = [t for t in ids if t != task_id]

    return sampler


# ---- parallel generation ----


@dataclass
class PoolBuildConfig:
    """Everything needed to produce one pool entry from a task index."""

    gen: TaskGenConfig = field(default_factory=TaskGenConfig)
    base: MlpConfig = field(default_factory=MlpConfig)
    base_kind: str = "mlp"
    exact_max_features: int = 10
    exact_prob: float = 0.7
    n_permutations: int = 200
    background_size: int = 64
    max_attempts: int = 10


def build_pool_entry(master_seed: int, task_index: int, cfg: PoolBuildConfig) -> TrainingTriplet:
    """Deterministic per (master_seed, task_index), whatever the worker layout."""
    for attempt in range(cfg.max_attempts):
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(task_index, attempt))
        children = seq.spawn(2)
        task_seed = int(np.random.default_rng(children[0]).integers(0, 2**63))
        try:
            task = sample_task(task_seed, cfg.gen)
            return build_training_triplet(
                task,
                base_cfg=cfg.base,
                shap_cfg=ShapConfig(
                    exact_max_features=cfg.exact_max_features,
                    n_permutations=cfg.n_permutations,
                ),
                rng=np.random.default_rng(children[1]),
                exact_prob=cfg.exact_prob,
                base_kind=cfg.base_kind,
                background_size=cfg.background_size,
            )
        except TaskRejected:
            continue
    raise TaskRejected(f"task index {task_index} rejected {cfg.max_attempts} times")


def _entry_worker(args) -> str:
    pool_dir, master_seed, task_index, cfg = args
    triplet = build_pool_entry(master_seed, task_index, cfg)
    pool_write(pool_dir, task_index, triplet)
    return str(task_index)


def generate_pool(pool_dir, n_tasks: int, master_seed: int,
                  cfg: PoolBuildConfig | None = None, workers: int = 1,
                  progress: bool = False) -> list[str]:
    """Write ``n_tasks`` entries; per-task content is worker-count independent."""
    cfg = cfg or PoolBuildConfig()
    pool_dir = Path(pool_dir)
    pool_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(str(pool_dir), master_seed, i, cfg) for i in range(n_tasks)]
    parallel = workers > 1 and n_tasks > 1
    done: list[str] = []
    with ProcessPoolExecutor(max_workers=workers) if parallel else contextlib.nullcontext() as ex:
        entries = ex.map(_entry_worker, jobs, chunksize=4) if parallel else map(_entry_worker, jobs)
        for task_id in entries:
            done.append(task_id)
            if progress and len(done) % 100 == 0:
                print(f"pool: {len(done)}/{n_tasks} tasks written", flush=True)
    return done
