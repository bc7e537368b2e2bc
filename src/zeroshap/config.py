"""Flat key-value run configuration with dotted section keys.

Config files hold ``section.key = value`` lines ('#' starts a comment).
CLI ``--set key=value`` overrides file values; the ``ZEROSHAP_OUTPUT_DIR``
environment variable overrides the output directory. The master seed
(default 42) fans out deterministically to every stage.

Each key's default is typed, and a section key takes its default from the
field of its section's dataclass. A given value parses into its default's
type when the config loads: a tuple default is a ``lo:hi`` range, a list
default a comma list. Loading also builds the gen, dag, base and explainer
sections, so a malformed or out-of-range value there fails every subcommand.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

from .base_models import MlpConfig
from .explainer import ExplainerConfig
from .pool import PoolBuildConfig
from .scm import TaskGenConfig

OUTPUT_DIR_ENV = "ZEROSHAP_OUTPUT_DIR"


def _keys(section: str, *names: str) -> dict[str, str]:
    return {name: f"{section}.{name}" for name in names}


# per section dataclass: field name -> config key
GEN_KEYS = _keys("gen", "node_range", "n_range", "m_max", "max_subgraphs", "connect_prob", "redirect_dist")
MLP_KEYS = _keys("base", "hidden_sizes", "epochs", "lr0")
POOL_KEYS = {"base_kind": "base.kind",
             **_keys("shap", "exact_max_features", "n_permutations", "background_size", "exact_prob")}
EXPLAINER_KEYS = _keys("explainer", "embed_dim", "n_layers", "n_heads", "n_buckets", "max_features",
                       "max_context_rows", "train_steps", "restarts", "lr_low", "lr_high")


def _field_defaults(make, keys: dict[str, str]) -> dict:
    defaults = {f.name: f.default for f in dataclasses.fields(make)}
    return {key: defaults[name] for name, key in keys.items()}


DEFAULTS: dict[str, object] = {
    "seed": 42,
    "output_dir": ".",
    "pool.path": "pool",
    "pool.n_tasks": 200,
    "pool.workers": 1,
    **_field_defaults(TaskGenConfig, GEN_KEYS),
    **_field_defaults(MlpConfig, MLP_KEYS),
    "base.hidden_sizes": list(MlpConfig.hidden_sizes),  # a comma list here, a tuple on MlpConfig
    **_field_defaults(PoolBuildConfig, POOL_KEYS),
    **_field_defaults(ExplainerConfig, EXPLAINER_KEYS),
    "explain.prediction_column": "prediction",
    "benchmark.n_tasks": 6,
    "benchmark.kshots": [0, 2, 4, 6, 8, 10],
    "benchmark.methods": ["zero_shot", "knn", "mlp_regressor", "forest_regressor"],
    "benchmark.base_kinds": ["mlp", "forest"],
    "benchmark.eval_epochs": 400,
    "dag.n_tasks": 20,
    "dag.edge_budgets": [3, 5, 7],
    "dag.node_range": (4, 9),
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


def parse_value(key: str, value: str):
    """``value`` as the type of ``key``'s default."""
    default = DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            lo, _, hi = value.partition(":")
            return int(lo), int(hi)
        if isinstance(default, list):
            return [type(default[0])(tok.strip()) for tok in value.split(",") if tok.strip()]
        return type(default)(value)
    except ValueError as exc:
        raise ConfigError(f"{key} = {value!r} does not parse ({exc})") from exc


@dataclass
class RunConfig:
    values: dict[str, object] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None = None, overrides: dict[str, str] | None = None) -> "RunConfig":
        given = {}
        if path is not None:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{path}: cannot read ({exc})") from exc
            given = parse_config_text(text)
        given.update(overrides or {})
        unknown = set(given) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if OUTPUT_DIR_ENV in os.environ:
            given["output_dir"] = os.environ[OUTPUT_DIR_ENV]
        cfg = cls({**DEFAULTS, **{key: parse_value(key, value) for key, value in given.items()}})
        if cfg.seed < 0:
            raise ConfigError(f"seed must not be negative, got {cfg.seed}")
        # the sections whose checks need no other section's keys; pool_build_config
        # checks base.kind against gen.n_range, so it is built where it is used
        cfg.task_gen_config()
        cfg.task_gen_config(node_range_key="dag.node_range")
        cfg.mlp_config()
        cfg.explainer_config()
        return cfg

    def get(self, key: str):
        return self.values[key]

    @property
    def seed(self) -> int:
        return self.get("seed")

    @property
    def output_dir(self) -> Path:
        return Path(self.get("output_dir"))

    @property
    def pool_path(self) -> Path:
        return Path(self.get("pool.path"))

    # section builders ----------------------------------------------
    # Each turns its dataclass's own ValueError, a value that parses but is out
    # of range, into a ConfigError naming the section. PoolBuildConfig, which
    # checks keys of two sections, names the section in its own messages.

    def _fields(self, keys: dict[str, str]) -> dict:
        return {name: self.values[key] for name, key in keys.items()}

    def task_gen_config(self, node_range_key: str = "gen.node_range") -> TaskGenConfig:
        section = "gen" if node_range_key == "gen.node_range" else f"gen and {node_range_key}"
        return _section(section, TaskGenConfig,
                        **{**self._fields(GEN_KEYS), "node_range": self.get(node_range_key)})

    def mlp_config(self) -> MlpConfig:
        return _section("base", MlpConfig,
                        **{**self._fields(MLP_KEYS), "hidden_sizes": tuple(self.get("base.hidden_sizes"))})

    def explainer_config(self) -> ExplainerConfig:
        return _section("explainer", ExplainerConfig, **self._fields(EXPLAINER_KEYS))

    def pool_build_config(self) -> PoolBuildConfig:
        return _section(None, PoolBuildConfig, gen=self.task_gen_config(), base=self.mlp_config(),
                        **self._fields(POOL_KEYS))


def _section(name: str | None, make, **values):
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}" if name else str(exc)) from exc
