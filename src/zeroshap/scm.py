"""Random structural causal models and the synthetic tabular tasks they induce.

DAGs are grown with the growing-network-with-redirection rule: nodes arrive
sequentially, pick a uniform existing node, and either attach to it or (with
probability p, drawn once per graph) redirect to that node's parent. Node
values are noise propagated through per-edge nonlinear activations; the
materialized columns are standardized per node.
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


def sample_activation_tag(rng: np.random.Generator) -> str:
    """Draw an edge activation tag; parametric families embed their parameter."""
    family = ACTIVATION_FAMILIES[rng.integers(0, len(ACTIVATION_FAMILIES))]
    if family == "power":
        return f"power:{int(rng.integers(2, 4))}"
    if family == "modulo":
        return f"modulo:{rng.uniform(0.5, 2.0)!r}"
    return family


def _fractional_rank(col: np.ndarray) -> np.ndarray:
    n = col.size
    if n == 1:
        return np.zeros(1)
    order = np.argsort(col, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    sorted_vals = col[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return (ranks - 1.0) / (n - 1.0)


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
    subgraph_id: list[int]

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


def _grow_subgraph(rng, nodes: list[int], p: float, birth_parent: dict[int, int | None],
                   edges: list[tuple[int, int]], activations: list[str]) -> None:
    birth_parent[nodes[0]] = None
    existing = [nodes[0]]
    for node in nodes[1:]:
        chosen = existing[rng.integers(0, len(existing))]
        if rng.uniform() < p and birth_parent[chosen] is not None:
            chosen = birth_parent[chosen]
        # the new node points at (feeds into) its target, so heavily attached
        # nodes accumulate many parents
        edges.append((node, chosen))
        activations.append(sample_activation_tag(rng))
        birth_parent[node] = chosen
        existing.append(node)


def _check_node_range(node_range: tuple[int, int]) -> None:
    lo, hi = node_range
    if lo > hi or lo < 2 or hi > 64:
        raise ValueError(f"node_range must be within [2, 64] and non-empty, got {node_range}")


def sample_dag(
    rng: np.random.Generator,
    node_range: tuple[int, int] = (2, 10),
    redirect_dist: str = "gamma",
    max_subgraphs: int = 1,
    connect_prob: float = 0.5,
    gamma_shape: float = 2.0,
    gamma_scale: float = 0.15,
) -> DagSpec:
    """Sample a DAG by sequential growth with redirection.

    With ``max_subgraphs > 1`` several independent subgraphs are grown and
    each extra subgraph's root is attached back by one growth step with
    probability ``connect_prob`` (it may stay disconnected otherwise).
    """
    _check_node_range(node_range)
    n_nodes = int(rng.integers(node_range[0], node_range[1] + 1))

    if redirect_dist == "gamma":
        p = float(np.clip(rng.gamma(gamma_shape, gamma_scale), 0.0, 1.0))
    elif redirect_dist == "uniform":
        p = float(rng.uniform(0.0, 1.0))
    elif redirect_dist == "zero":
        p = 0.0
    else:
        raise ValueError(f"unknown redirect_dist {redirect_dist!r}")

    n_sub = 1
    if max_subgraphs > 1 and n_nodes >= 4:
        n_sub = int(rng.integers(1, min(max_subgraphs, n_nodes // 2) + 1))
    # contiguous node-id blocks, each of size >= 2
    sizes = [2] * n_sub
    for _ in range(n_nodes - 2 * n_sub):
        sizes[rng.integers(0, n_sub)] += 1

    birth_parent: dict[int, int | None] = {}
    edges: list[tuple[int, int]] = []
    activations: list[str] = []
    blocks: list[list[int]] = []
    start = 0
    for size in sizes:
        block = list(range(start, start + size))
        blocks.append(block)
        _grow_subgraph(rng, block, p, birth_parent, edges, activations)
        start += size

    accumulated = list(blocks[0])
    for block in blocks[1:]:
        if rng.uniform() < connect_prob:
            chosen = accumulated[rng.integers(0, len(accumulated))]
            if rng.uniform() < p and birth_parent[chosen] is not None:
                chosen = birth_parent[chosen]
            root = block[0]
            edges.append((root, chosen))
            activations.append(sample_activation_tag(rng))
            birth_parent[root] = chosen
        accumulated.extend(block)

    noise = ["normal" if rng.uniform() < 0.5 else "uniform" for _ in range(n_nodes)]
    return DagSpec(
        node_count=n_nodes,
        edges=edges,
        edge_activation=activations,
        noise_dist=noise,
        subgraph_id=_component_labels(n_nodes, edges),
    )


def _component_labels(n_nodes: int, edges: list[tuple[int, int]]) -> list[int]:
    label = list(range(n_nodes))

    def find(i):
        while label[i] != i:
            label[i] = label[label[i]]
            i = label[i]
        return i

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            label[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(i) for i in range(n_nodes)})
    remap = {r: k for k, r in enumerate(roots)}
    return [remap[find(i)] for i in range(n_nodes)]


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
    if n_samples < 8:
        raise ValueError(f"n_samples must be at least 8, got {n_samples}")
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
    m_max: int = 10,
    seed: int = 0,
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
    """Knobs for the synthetic task generator."""

    node_range: tuple[int, int] = (2, 10)
    n_range: tuple[int, int] = (64, 256)
    m_max: int = 10
    redirect_dist: str = "gamma"
    max_subgraphs: int = 2
    connect_prob: float = 0.5
    child_noise_scale: float = 1.0

    def __post_init__(self):
        _check_node_range(self.node_range)
        lo, hi = self.n_range
        if lo > hi or lo < 2:
            raise ValueError(f"n_range must be non-empty with at least 2 rows, got {self.n_range}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be at least 1, got {self.m_max}")


def sample_task(seed: int, cfg: TaskGenConfig | None = None, max_attempts: int = 16) -> ScmTask:
    """Draw one full task from a per-task seed, retrying rejected samples."""
    cfg = cfg or TaskGenConfig()
    for attempt in range(max_attempts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        try:
            dag = sample_dag(
                rng,
                node_range=cfg.node_range,
                redirect_dist=cfg.redirect_dist,
                max_subgraphs=cfg.max_subgraphs,
                connect_prob=cfg.connect_prob,
            )
            n_samples = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
            values = propagate(dag, n_samples, rng, child_noise_scale=cfg.child_noise_scale)
            return select_task(dag, values, rng, m_max=cfg.m_max, seed=seed)
        except (TaskRejected, DegenerateColumn):
            continue
    raise TaskRejected(f"no valid task after {max_attempts} attempts for seed {seed}")
