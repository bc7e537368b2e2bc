"""Flat key-value run configuration with dotted section keys.

Config files hold ``section.key = value`` lines ('#' starts a comment).
CLI ``--set key=value`` overrides file values; the ``ZEROSHAP_OUTPUT_DIR``
environment variable overrides the output directory. The master seed
(default 42) fans out deterministically to every stage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .base_models import MlpConfig
from .explainer import ExplainerConfig
from .pool import PoolBuildConfig
from .scm import TaskGenConfig

OUTPUT_DIR_ENV = "ZEROSHAP_OUTPUT_DIR"

DEFAULTS: dict[str, str] = {
    "seed": "42",
    "output_dir": ".",
    "pool.path": "pool",
    "pool.n_tasks": "200",
    "pool.workers": "1",
    "gen.node_range": "2:8",
    "gen.n_range": "48:128",
    "gen.m_max": "5",
    "gen.max_subgraphs": "2",
    "gen.connect_prob": "0.5",
    "gen.redirect_dist": "gamma",
    "base.kind": "mlp",
    "base.hidden_sizes": "100",
    "base.epochs": "800",
    "base.lr0": "0.0001",
    "shap.exact_max_features": "10",
    "shap.n_permutations": "200",
    "shap.background_size": "64",
    "shap.exact_prob": "0.7",
    "explainer.embed_dim": "64",
    "explainer.n_layers": "3",
    "explainer.n_heads": "4",
    "explainer.n_buckets": "32",
    "explainer.max_features": "10",
    "explainer.max_context_rows": "512",
    "explainer.train_steps": "3000",
    "explainer.restarts": "3",
    "explainer.lr_low": "1e-7",
    "explainer.lr_high": "1e-4",
    "explain.prediction_column": "prediction",
    "benchmark.n_tasks": "6",
    "benchmark.kshots": "0,2,4,6,8,10",
    "benchmark.methods": "zero_shot,knn,mlp_regressor,forest_regressor",
    "benchmark.base_kinds": "mlp,forest",
    "benchmark.eval_epochs": "400",
    "dag.n_tasks": "20",
    "dag.edge_budgets": "3,5,7",
    "dag.node_range": "4:9",
}


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


@dataclass
class RunConfig:
    values: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None = None, overrides: dict[str, str] | None = None) -> "RunConfig":
        values = dict(DEFAULTS)
        if path is not None:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{path}: cannot read ({exc})") from exc
            file_values = parse_config_text(text)
            unknown = set(file_values) - set(DEFAULTS)
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            values.update(file_values)
        if overrides:
            unknown = set(overrides) - set(DEFAULTS)
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            values.update(overrides)
        if OUTPUT_DIR_ENV in os.environ:
            values["output_dir"] = os.environ[OUTPUT_DIR_ENV]
        return cls(values)

    # typed getters -------------------------------------------------

    def get(self, key: str) -> str:
        try:
            return self.values[key]
        except KeyError as exc:
            raise ConfigError(f"missing config key {key!r}") from exc

    def _parse(self, key: str, parse):
        value = self.get(key)
        try:
            return parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key} = {value!r} does not parse ({exc})") from exc

    def get_int(self, key: str) -> int:
        return self._parse(key, int)

    def get_float(self, key: str) -> float:
        return self._parse(key, float)

    def get_bool(self, key: str) -> bool:
        return self.get(key).lower() in ("1", "true", "yes", "on")

    def get_range(self, key: str) -> tuple[int, int]:
        def parse(value):
            lo, _, hi = value.partition(":")
            return int(lo), int(hi)

        return self._parse(key, parse)

    def get_int_list(self, key: str) -> list[int]:
        return self._parse(key, lambda value: [int(tok) for tok in value.split(",") if tok.strip()])

    def get_str_list(self, key: str) -> list[str]:
        return [tok.strip() for tok in self.get(key).split(",") if tok.strip()]

    @property
    def seed(self) -> int:
        return self.get_int("seed")

    @property
    def output_dir(self) -> Path:
        return Path(self.get("output_dir"))

    @property
    def pool_path(self) -> Path:
        return Path(self.get("pool.path"))

    # section builders ----------------------------------------------

    def task_gen_config(self, node_range_key: str = "gen.node_range") -> TaskGenConfig:
        return TaskGenConfig(
            node_range=self.get_range(node_range_key),
            n_range=self.get_range("gen.n_range"),
            m_max=self.get_int("gen.m_max"),
            redirect_dist=self.get("gen.redirect_dist"),
            max_subgraphs=self.get_int("gen.max_subgraphs"),
            connect_prob=self.get_float("gen.connect_prob"),
        )

    def mlp_config(self, epochs_key: str = "base.epochs") -> MlpConfig:
        return MlpConfig(
            hidden_sizes=tuple(self.get_int_list("base.hidden_sizes")),
            epochs=self.get_int(epochs_key),
            lr0=self.get_float("base.lr0"),
        )

    def explainer_config(self) -> ExplainerConfig:
        return ExplainerConfig(
            embed_dim=self.get_int("explainer.embed_dim"),
            n_layers=self.get_int("explainer.n_layers"),
            n_heads=self.get_int("explainer.n_heads"),
            n_buckets=self.get_int("explainer.n_buckets"),
            max_features=self.get_int("explainer.max_features"),
            max_context_rows=self.get_int("explainer.max_context_rows"),
            train_steps=self.get_int("explainer.train_steps"),
            restarts=self.get_int("explainer.restarts"),
            lr_low=self.get_float("explainer.lr_low"),
            lr_high=self.get_float("explainer.lr_high"),
        )

    def pool_build_config(self) -> PoolBuildConfig:
        return PoolBuildConfig(
            gen=self.task_gen_config(),
            base=self.mlp_config(),
            base_kind=self.get("base.kind"),
            exact_max_features=self.get_int("shap.exact_max_features"),
            exact_prob=self.get_float("shap.exact_prob"),
            n_permutations=self.get_int("shap.n_permutations"),
            background_size=self.get_int("shap.background_size"),
        )
