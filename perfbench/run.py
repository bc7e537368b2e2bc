"""Benchmark of zeroshap's three pipelines: label factory, meta-training, serving.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One caller issues one operation at a time
(closed loop) with BLAS pinned to one thread. An operation is a pool entry,
a training task-step or an explained table. A run sets the workload up at
least three times and for at least a second, each time in a forked child
process, then repeats whole rounds of identical operations for about S seconds,
checks the outputs, and prints one JSON object as its last line. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it times
the calls into each module and reports per-layer metrics instead.
"""

from __future__ import annotations

import os

# pinned before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import multiprocessing
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3  # at least this many set-ups per run,
SETUP_SECONDS = 1.0  # and at least this much time spent in them


def import_program():
    """Import zeroshap from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import zeroshap
    except ImportError as exc:
        raise SystemExit(f"error: cannot import zeroshap from {ROOT / 'src'}: {exc}")
    if Path(zeroshap.__file__).resolve().parent != ROOT / "src" / "zeroshap":
        raise SystemExit(f"error: zeroshap was imported from {zeroshap.__file__}, not this checkout")


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas.get('name')} {blas.get('version')}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, nproc {os.cpu_count()} "
            f"({len(os.sched_getaffinity(0))} usable)")


def _setup_child(workload, workdir: Path, sender) -> None:
    try:
        workload.setup(workdir)
        sender.send(vars(workload))
    finally:
        sender.close()


def setup_apart(workload, workdir: Path) -> None:
    """Run ``workload.setup`` in a forked child and take over the state it built.

    The set-up's memory peak (base fits of the set-up pool, training of the
    served checkpoint) then stays out of this process's ``ru_maxrss``, which
    ``peak_rss_mb`` reads. The child only leaves files under ``workdir`` and
    the attributes it sends back.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_setup_child, args=(workload, workdir, sender))
    child.start()
    sender.close()
    try:
        state = receiver.recv()
    except EOFError:
        state = None
    finally:
        receiver.close()
        child.join()
    if state is None or child.exitcode != 0:
        raise SystemExit(f"error: set-up failed in its child process (exit code {child.exitcode})")
    vars(workload).update(state)


def measure(workload, seconds: float, tracer=None) -> dict:
    """Whole rounds until another round would overrun ``seconds`` (at least one)."""
    rounds, latencies, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lat, att, fail = workload.run_round(tracer)
        rounds.append(time.perf_counter() - t0)
        latencies += lat
        attempted += att
        failed += fail
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    return {"rounds": rounds, "latencies": latencies, "attempted": attempted, "failed": failed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def end_to_end(name: str, workload, run: dict, setup_times: list[float]) -> dict:
    ops_per_s = (run["attempted"] - run["failed"]) / sum(run["rounds"])
    metrics = {
        "ops_per_s": (ops_per_s, "ops/s"),
        "op_p50_ms": (statistics.median(run["latencies"]) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    # the same numbers under the names each pipeline's users know them by
    if name.startswith("label_factory"):
        print(f"pool_entries_per_s = {metrics['ops_per_s'][0]:.4f} entries/s")
    elif name == "meta_train":
        print(f"train_steps_per_s = {metrics['ops_per_s'][0]:.4f} task-steps/s")
    else:
        print(f"explain_rows_per_s = {ops_per_s * workload.rows_per_round / workload.ops_per_round:.1f} rows/s")
        print(f"explain_table_p50_ms = {metrics['op_p50_ms'][0]:.2f} ms")
    print(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"setup_s = {metrics['setup_s'][0]:.4f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    print(f"env: {environment()}")
    runs_dir = HERE / "runs"
    workdir = runs_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            t0 = time.perf_counter()
            setup_apart(workload, workdir / f"setup{len(setup_times)}")
            setup_times.append(time.perf_counter() - t0)

        workload.start()
        tracer = None
        try:
            if args.trace:
                untraced = measure(workload, 0.0)
                tracer = tracing.Tracer()
                try:
                    tracing.install(tracer)
                    run = measure(workload, args.seconds, tracer)
                except tracing.TraceError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                finally:
                    tracer.uninstall()
            else:
                run = measure(workload, args.seconds)
        finally:
            workload.stop()
        if workload.summary:
            print(workload.summary)
        print(f"workload {args.workload}, seed {args.seed}: {len(setup_times)} set-ups, "
              f"{len(run['rounds'])} rounds of {workload.ops_per_round} operations in "
              f"{sum(run['rounds']):.2f} s; attempted {run['attempted']}, failed {run['failed']}")
        if not run["latencies"]:
            print("error: no operation succeeded", file=sys.stderr)
            return 1

        if args.trace:
            missing = workload.expected_layers - tracer.fired()
            if missing:
                print(f"error: traced names never fired: {sorted(missing)}", file=sys.stderr)
                return 1
            overhead = 100.0 * (statistics.median(run["rounds"]) / statistics.median(untraced["rounds"]) - 1.0)
            metrics = tracing.per_layer(tracer, len(run["rounds"]) * workload.ops_per_round, overhead)
            trace_path = runs_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            print(f"spans written to {trace_path.relative_to(ROOT)}; tracing overhead {overhead:+.1f}%")
            run = {k: run[k] + untraced[k] for k in ("attempted", "failed")}
        else:
            metrics = end_to_end(args.workload, workload, run, setup_times)

        errors = workload.check()
        for error in errors:
            print(f"check failed: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
