"""Span and count recording around calls into zeroshap's modules.

The tracer replaces module and class attributes that the program looks up at
call time (``zeroshap.pool.train_mlp``, ``Tensor.backward`` ...) with wrappers
that record a span ``[name, start, end, parent, op]`` per call, or bump a
counter. Spans stay in memory and are written out when the run ends. A
layer's self time is its span duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path

import zeroshap.autodiff
import zeroshap.base_models
import zeroshap.cli
import zeroshap.explainer
import zeroshap.pool
import zeroshap.scm

_MS = 1e3


class TraceError(RuntimeError):
    """A wrapped name is missing from the program, or spans closed out of order."""


def _file_bytes(*paths) -> int:
    return sum(os.stat(p).st_size for p in paths)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._patched: list[tuple[object, str, object]] = []

    # ---- spans ----

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise TraceError(f"span {self.spans[index][0]} closed out of order")

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def begin_op(self, name: str) -> int:
        self.op += 1
        return self.begin(name)

    # ---- wrapping ----

    def _replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            raise TraceError(f"{getattr(owner, '__name__', owner)}.{attr} does not exist")
        setattr(owner, attr, make_wrapper(original))
        self._patched.append((owner, attr, original))

    def wrap_span(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call; ``after(args, result)`` may bump counters once the span has closed."""

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                index = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(index)
                if after is not None:
                    after(args, result)
                return result
            return wrapper

        self._replace(owner, attr, make_wrapper)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        self._replace(owner, attr, make_wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---- derived numbers ----

    def fired(self) -> set[str]:
        return {span[0] for span in self.spans} | {k for k, v in self.counts.items() if v}

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per name: summed duration, summed self time and number of spans, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_time, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
        return total, self_time, calls

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every name the three pipelines call through."""
    ad, bm, cli, ex, pool, scm = (zeroshap.autodiff, zeroshap.base_models, zeroshap.cli,
                                  zeroshap.explainer, zeroshap.pool, zeroshap.scm)

    def predict_rows(args, result):
        # called after the predict span closed, so the stack top is its caller
        if tracer.parent_name() == "shapley.hybrid":
            tracer.counts["shapley.predict_calls"] += 1
            tracer.counts["shapley.predict_rows"] += len(args[1])

    def written(args, result):
        pool_dir, task_id = Path(args[0]), args[1]
        tracer.counts["pool.bytes_written"] += _file_bytes(pool_dir / f"{task_id}.bin",
                                                           pool_dir / f"{task_id}.json")

    def read(args, result):
        pool_dir, task_id = Path(args[0]), args[1]
        tracer.counts["pool.bytes_read"] += _file_bytes(pool_dir / f"{task_id}.bin",
                                                        pool_dir / f"{task_id}.json")

    tracer.wrap_span(scm, "sample_task", "scm.sample_task")
    tracer.wrap_count(scm, "sample_dag", "scm.sample_dag")
    tracer.wrap_span(pool, "train_mlp", "base_models.fit")
    tracer.wrap_span(pool, "train_forest", "base_models.fit")
    tracer.wrap_span(bm.MlpModel, "predict", "base_models.predict", after=predict_rows)
    tracer.wrap_span(bm.ForestModel, "predict_proba", "base_models.predict", after=predict_rows)
    tracer.wrap_span(pool, "hybrid_shapley", "shapley.hybrid")
    tracer.wrap_span(pool, "pool_write", "pool.write", after=written)
    tracer.wrap_span(pool, "pool_read", "pool.read", after=read)
    tracer.wrap_span(ex, "encode_rows", "explainer.encode")
    tracer.wrap_count(ex, "forward", "explainer.forward")
    tracer.wrap_span(cli, "explain_zero_shot", "explainer.explain")
    tracer.wrap_span(cli, "load_weights", "checkpoint.load")
    tracer.wrap_span(cli, "read_csv_matrix", "cli.read_csv")
    tracer.wrap_span(cli, "write_csv_matrix", "cli.write_csv")
    tracer.wrap_span(cli, "full_pipeline", "postprocess.correct")
    tracer.wrap_count(ad.Tensor, "__init__", "autodiff.tensors")
    tracer.wrap_span(ad.Tensor, "backward", "autodiff.backward")
    tracer.wrap_span(ad, "adam_step", "autodiff.adam")


def per_layer(tracer: Tracer, n_ops: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each normalised per operation (entry, task-step or table)."""
    total, self_time, calls = tracer.totals()
    counts = tracer.counts

    def ms(counter, name):
        return counter[name] * _MS / n_ops, "ms"

    def per_op(value, unit="count"):
        return value / n_ops, unit

    return {
        "scm.sample_task_ms": ms(total, "scm.sample_task"),
        "scm.attempts_per_entry": per_op(counts["scm.sample_dag"]),
        "base_models.fit_ms": ms(total, "base_models.fit"),
        "base_models.predict_ms": ms(total, "base_models.predict"),
        "shapley.label_self_ms": ms(self_time, "shapley.hybrid"),
        "shapley.predict_calls": per_op(counts["shapley.predict_calls"]),
        "shapley.predict_rows": per_op(counts["shapley.predict_rows"]),
        "pool.write_ms": ms(total, "pool.write"),
        "pool.bytes_written": per_op(counts["pool.bytes_written"], "bytes"),
        "pool.sample_ms": ms(total, "pool.read"),
        "pool.bytes_read": per_op(counts["pool.bytes_read"], "bytes"),
        "explainer.encode_ms": ms(total, "explainer.encode"),
        "explainer.forward_ms": ms(self_time, "op.step"),
        "autodiff.backward_ms": ms(total, "autodiff.backward"),
        "autodiff.adam_ms": ms(total, "autodiff.adam"),
        "autodiff.backward_sweeps": per_op(calls["autodiff.backward"]),
        "autodiff.tensors": per_op(counts["autodiff.tensors"]),
        "explainer.forward_passes": per_op(counts["explainer.forward"]),
        "explainer.explain_self_ms": ms(self_time, "explainer.explain"),
        "checkpoint.load_ms": ms(total, "checkpoint.load"),
        "cli.csv_read_ms": ms(total, "cli.read_csv"),
        "cli.csv_write_ms": ms(total, "cli.write_csv"),
        "postprocess.correct_ms": ms(total, "postprocess.correct"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
