"""Random structural causal models and the synthetic tabular tasks they induce.

DAGs are grown with the growing-network-with-redirection rule: nodes arrive
sequentially, pick a uniform existing node, and either attach to it or (with
probability p, drawn once per graph) redirect to that node's parent. Up to
``max_subgraphs`` blocks are grown apart and may stay disconnected. Node
values are noise propagated through per-edge nonlinear activations; the
materialized columns are standardized per node. A task is a draw of feature
nodes and a target node thresholded into two classes; a draw that yields a
constant column or single-class labels is retried from a fresh stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TaskRejected(Exception):
    """The sampled task cannot produce a valid binary target."""


class DegenerateColumn(Exception):
    """A node column stayed constant even after a noise redraw."""


ACTIVATION_FAMILIES = (
    "identity",
    "log",
    "sigmoid",
    "abs",
    "sin",
    "tanh",
    "rank",
    "square",
    "power",
    "softplus",
    "step",
    "modulo",
)

_LOG_EPS = 1e-8
# the rules that draw a graph's redirection probability p
REDIRECT_DISTS = ("gamma", "uniform", "zero")
# fewest rows ``propagate`` materializes
MIN_SAMPLES = 8
# shape and scale of the "gamma" rule's draw of p, which has mean 0.3 before clipping to [0, 1]
REDIRECT_GAMMA_SHAPE = 2.0
REDIRECT_GAMMA_SCALE = 0.15
# draws ``sample_task`` makes, each on its own stream, before it rejects a seed
TASK_ATTEMPTS = 16


def sample_activation_tag(rng: np.random.Generator) -> str:
    """Draw an edge activation tag; parametric families embed their parameter."""
    family = ACTIVATION_FAMILIES[rng.integers(0, len(ACTIVATION_FAMILIES))]
    if family == "power":
        return f"power:{int(rng.integers(2, 4))}"
    if family == "modulo":
        return f"modulo:{rng.uniform(0.5, 2.0)!r}"
    return family


def _fractional_rank(col: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their positions) scaled to [0, 1]."""
    _, inverse, counts = np.unique(col, return_inverse=True, return_counts=True)
    ranks = np.cumsum(counts) - (counts - 1) / 2.0
    return (ranks[inverse] - 1.0) / max(col.size - 1.0, 1.0)


def apply_activation(tag: str, x):
    """Elementwise transform for an edge tag; rank maps a column to [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    family, _, param = tag.partition(":")
    if family == "identity":
        return x
    if family == "log":
        return np.log(np.abs(x) + _LOG_EPS)
    if family == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    if family == "abs":
        return np.abs(x)
    if family == "sin":
        return np.sin(x)
    if family == "tanh":
        return np.tanh(x)
    if family == "rank":
        if x.ndim == 0:
            raise ValueError("rank transform requires a column, not a scalar")
        return _fractional_rank(x)
    if family == "square":
        return x * x
    if family == "power":
        exponent = int(param)
        return np.sign(x) * np.abs(x) ** exponent
    if family == "softplus":
        return np.logaddexp(0.0, x)
    if family == "step":
        return (x > 0.0).astype(np.float64)
    if family == "modulo":
        return np.mod(x, float(param))
    raise ValueError(f"unknown activation tag {tag!r}")


@dataclass
class DagSpec:
    """A sampled DAG with per-edge activations and per-node noise tags."""

    node_count: int
    edges: list[tuple[int, int]]
    edge_activation: list[str]
    noise_dist: list[str]

    def __post_init__(self):
        if len(self.edges) != len(self.edge_activation):
            raise ValueError("edges and edge_activation must be parallel lists")
        self.topological_order()  # raises on cycles

    def topological_order(self) -> list[int]:
        indeg = [0] * self.node_count
        children: list[list[int]] = [[] for _ in range(self.node_count)]
        for parent, child in self.edges:
            indeg[child] += 1
            children[parent].append(child)
        ready = sorted(i for i in range(self.node_count) if indeg[i] == 0)
        order: list[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in children[node]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
        if len(order) != self.node_count:
            raise ValueError("graph contains a cycle")
        return order

    def parents_of(self, node: int) -> list[tuple[int, str]]:
        return [(p, act) for (p, c), act in zip(self.edges, self.edge_activation) if c == node]


@dataclass
class ScmTask:
    """One materialized synthetic task: samples plus feature/target selection."""

    dag: DagSpec
    samples: np.ndarray
    feature_nodes: list[int]
    target_node: int
    target_labels: np.ndarray
    seed: int

    def __post_init__(self):
        if self.target_node in self.feature_nodes:
            raise ValueError("target node cannot be a feature")
        if len(self.feature_nodes) > self.dag.node_count - 1:
            raise ValueError("too many feature nodes")
        labels = np.asarray(self.target_labels)
        if labels.min() == labels.max():
            raise ValueError("target labels must contain both classes")

    @property
    def X(self) -> np.ndarray:
        return self.samples[:, self.feature_nodes]

    @property
    def y(self) -> np.ndarray:
        return self.target_labels

    @property
    def m(self) -> int:
        return len(self.feature_nodes)


def _attach(rng, node: int, existing: range, p: float, birth_parent: dict[int, int | None],
            edges: list[tuple[int, int]], activations: list[str]) -> None:
    """One growth step: ``node`` feeds a uniform node of ``existing``, or with probability p
    that node's birth parent, which then becomes ``node``'s own."""
    chosen = existing[rng.integers(0, len(existing))]
    if rng.uniform() < p and birth_parent[chosen] is not None:
        chosen = birth_parent[chosen]
    # the new node points at (feeds into) its target, so heavily attached
    # nodes accumulate many parents
    edges.append((node, chosen))
    activations.append(sample_activation_tag(rng))
    birth_parent[node] = chosen


def sample_dag(rng: np.random.Generator, cfg: TaskGenConfig) -> DagSpec:
    """Sample a DAG of ``cfg.node_range`` nodes by sequential growth with redirection.

    The redirection probability is drawn by ``cfg.redirect_dist``. With
    ``cfg.max_subgraphs > 1`` several independent subgraphs are grown and each
    extra subgraph's root is attached back by one growth step with
    probability ``cfg.connect_prob`` (it may stay disconnected otherwise).
    """
    n_nodes = int(rng.integers(cfg.node_range[0], cfg.node_range[1] + 1))

    if cfg.redirect_dist == "gamma":
        p = float(np.clip(rng.gamma(REDIRECT_GAMMA_SHAPE, REDIRECT_GAMMA_SCALE), 0.0, 1.0))
    elif cfg.redirect_dist == "uniform":
        p = float(rng.uniform(0.0, 1.0))
    elif cfg.redirect_dist == "zero":
        p = 0.0
    else:
        raise ValueError(f"unknown redirect_dist {cfg.redirect_dist!r}")

    n_sub = 1
    if cfg.max_subgraphs > 1 and n_nodes >= 4:
        n_sub = int(rng.integers(1, min(cfg.max_subgraphs, n_nodes // 2) + 1))
    # contiguous node-id blocks, each of size >= 2
    sizes = [2] * n_sub
    for _ in range(n_nodes - 2 * n_sub):
        sizes[rng.integers(0, n_sub)] += 1

    # each block grows from its first node, its root
    roots = [sum(sizes[:i]) for i in range(n_sub)]
    birth_parent: dict[int, int | None] = {}
    edges: list[tuple[int, int]] = []
    activations: list[str] = []
    for root, size in zip(roots, sizes):
        birth_parent[root] = None
        for node in range(root + 1, root + size):
            _attach(rng, node, range(root, node), p, birth_parent, edges, activations)
    for root in roots[1:]:
        if rng.uniform() < cfg.connect_prob:
            _attach(rng, root, range(root), p, birth_parent, edges, activations)

    noise = ["normal" if rng.uniform() < 0.5 else "uniform" for _ in range(n_nodes)]
    return DagSpec(node_count=n_nodes, edges=edges, edge_activation=activations, noise_dist=noise)


def _draw_noise(rng, dist: str, n: int) -> np.ndarray:
    if dist == "normal":
        return rng.standard_normal(n)
    if dist == "uniform":
        return rng.uniform(-1.0, 1.0, n)
    raise ValueError(f"unknown noise distribution {dist!r}")


def propagate(
    dag: DagSpec,
    n_samples: int,
    rng: np.random.Generator,
    child_noise_scale: float = 1.0,
) -> np.ndarray:
    """Materialize node values: roots from noise, children from activated parents.

    Every node column is standardized to zero mean, unit population variance
    before downstream nodes consume it.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}, got {n_samples}")
    values = np.zeros((n_samples, dag.node_count))
    for node in dag.topological_order():
        parents = dag.parents_of(node)
        for attempt in range(2):
            noise = _draw_noise(rng, dag.noise_dist[node], n_samples)
            if parents:
                col = child_noise_scale * noise
                for parent_node, act in parents:
                    col = col + apply_activation(act, values[:, parent_node])
            else:
                col = noise
            std = col.std()
            if std > 1e-12:
                break
        else:
            raise DegenerateColumn(f"node {node} stayed constant after noise redraw")
        values[:, node] = (col - col.mean()) / std
    return values


def select_task(
    dag: DagSpec,
    values: np.ndarray,
    rng: np.random.Generator,
    m_max: int,
    seed: int,
) -> ScmTask:
    """Pick feature nodes and a binary target thresholded at a random quantile."""
    n_nodes = dag.node_count
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    m = int(rng.integers(1, min(m_max, n_nodes - 1) + 1))
    chosen = rng.permutation(n_nodes)[: m + 1]
    feature_nodes = sorted(int(i) for i in chosen[:m])
    target_node = int(chosen[m])
    target_col = values[:, target_node]
    labels = None
    for _ in range(2):  # resample the quantile once before rejecting
        q = rng.uniform(0.2, 0.8)
        threshold = np.quantile(target_col, q)
        candidate = (target_col > threshold).astype(np.int64)
        if 0 < candidate.sum() < candidate.size:
            labels = candidate
            break
    if labels is None:
        raise TaskRejected("target column produced single-class labels twice")
    return ScmTask(
        dag=dag,
        samples=values,
        feature_nodes=feature_nodes,
        target_node=target_node,
        target_labels=labels,
        seed=seed,
    )


@dataclass
class TaskGenConfig:
    """Knobs for the synthetic task generator; the defaults are the CLI's ``gen.*`` defaults."""

    node_range: tuple[int, int] = (2, 8)
    n_range: tuple[int, int] = (48, 128)
    m_max: int = 5
    redirect_dist: str = "gamma"
    max_subgraphs: int = 2
    connect_prob: float = 0.5

    def __post_init__(self):
        lo, hi = self.node_range
        if lo > hi or lo < 2 or hi > 64:
            raise ValueError(f"node_range must be within [2, 64] and non-empty, got {self.node_range}")
        lo, hi = self.n_range
        if lo > hi or lo < MIN_SAMPLES:
            raise ValueError(f"n_range must be non-empty with at least {MIN_SAMPLES} rows, got {self.n_range}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be at least 1, got {self.m_max}")
        if self.redirect_dist not in REDIRECT_DISTS:
            raise ValueError(f"unknown redirect_dist {self.redirect_dist!r}; expected one of "
                             f"{', '.join(REDIRECT_DISTS)}")
        if self.max_subgraphs < 1:
            raise ValueError(f"max_subgraphs must be at least 1, got {self.max_subgraphs}")
        if not 0.0 <= self.connect_prob <= 1.0:
            raise ValueError(f"connect_prob must be within [0, 1], got {self.connect_prob}")


def sample_task(seed: int, cfg: TaskGenConfig | None = None) -> ScmTask:
    """Draw one full task from a per-task seed, retrying rejected samples."""
    cfg = cfg or TaskGenConfig()
    for attempt in range(TASK_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        try:
            dag = sample_dag(rng, cfg)
            n_samples = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
            values = propagate(dag, n_samples, rng)
            return select_task(dag, values, rng, m_max=cfg.m_max, seed=seed)
        except (TaskRejected, DegenerateColumn):
            continue
    raise TaskRejected(f"no valid task after {TASK_ATTEMPTS} attempts for seed {seed}")
