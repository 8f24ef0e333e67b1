"""One workload in one process: set up, run tasks in a closed loop, report.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread. Prints a
single JSON object on stdout. ``--setup-only`` stops after set-up, so the
parent can sample set-up time in fresh processes.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import nvlgi.cli  # noqa: E402  (imported before the clock stops: part of set-up)
from tracing import Tracer, layer_metrics, library_api  # noqa: E402
from workloads import WORKLOADS, NvSweep, OracleFailure  # noqa: E402

DIGEST_BLOCKS = 4  # generated during set-up; their digest identifies the inputs
MIN_TASKS = 100  # so that at least 10 samples lie beyond task_p90_ms


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Client:
    """One client in a closed loop: sends a task, waits, checks, sends the next."""

    def __init__(self) -> None:
        self.records: list[tuple[bool, str, int]] = []  # (traced, class, ns) per good task
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def run(self, task, api, tracer=None, task_id=None) -> int:
        """Run and check one task; return its latency in ns."""
        self.attempted += 1
        span = tracer.open_task(task_id, task.cls) if tracer else None
        start = time.perf_counter_ns()
        try:
            out = task.run(api)
            error = None
        except Exception as exc:  # a raising task is a failed task, not a crash
            error = exc
        elapsed = time.perf_counter_ns() - start
        if span is not None:
            tracer.close_task(span)
        if error is None:
            try:
                health = task.check(out)
            except (OracleFailure, KeyError, TypeError, ValueError) as exc:
                error = exc
        if error is not None:
            self.failed += 1
            self.first_error = self.first_error or f"{task.cls}: {type(error).__name__}: {error}"
            return elapsed
        if span is not None:
            span["attrs"].update(health)
        self.records.append((span is not None, task.cls, elapsed))
        return elapsed

    def latencies_ms(self, traced: bool, cls: str | None = None) -> np.ndarray:
        return np.array(
            [ns for t, c, ns in self.records if t == traced and cls in (None, c)]
        ) / 1e6


def digest(tasks) -> str:
    payload = json.dumps([[t.cls, t.spec] for t in tasks], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def repeat_share(tasks) -> float:
    """Share of tasks whose model (or grid) an earlier task already used."""
    seen = set()
    repeats = 0
    for t in tasks:
        repeats += t.model_key in seen
        seen.add(t.model_key)
    return repeats / len(tasks)


def main(argv):
    args = parse_args(argv)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=os.path.dirname(os.path.abspath(__file__)))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    workload = WORKLOADS[args.workload](args.seed, workdir)
    api = library_api()
    blocks = {k: workload.block(k) for k in range(DIGEST_BLOCKS)}
    leading_tasks = [t for k in range(DIGEST_BLOCKS) for t in blocks[k]]
    warm = Client()
    for task in workload.warmup():
        warm.run(task, api)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "warmup_failed": warm.failed,
                          "first_error": warm.first_error}))
        return 0

    client = Client()
    tracer = Tracer() if args.trace else None
    traced_api = tracer.traced_api(api) if tracer else None
    busy_ns = {False: 0, True: 0}  # timed wall time, untraced and traced
    task_id = 0
    index = 0
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced blocks, for the overhead
        traced = bool(args.trace) and index % 2 == 1
        block = blocks.pop(index, None) or workload.block(index)
        if traced:
            tracer.patch_boundaries()
        try:
            for task in block:
                if traced:
                    busy_ns[True] += client.run(task, traced_api, tracer, task_id)
                else:
                    busy_ns[False] += client.run(task, api)
                task_id += 1
        finally:
            if traced:
                tracer.unpatch()
        index += 1
        done = time.perf_counter() - start >= args.seconds and client.attempted >= MIN_TASKS
        if done and (not args.trace or index % 2 == 0):
            break
    wall_s = time.perf_counter() - start

    untraced = client.latencies_ms(False)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "blocks": index,
        "attempted": client.attempted,
        "failed": client.failed,
        "warmup_failed": warm.failed,
        "first_error": client.first_error or warm.first_error,
        "tasks_per_s": len(untraced) / (busy_ns[False] / 1e9),
        "task_p50_ms": float(np.percentile(untraced, 50)),
        "task_p90_ms": float(np.percentile(untraced, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "class_p50_ms": {
            cls: float(np.median(client.latencies_ms(False, cls))) for cls in workload.block_counts
        },
        "class_counts": dict(workload.block_counts),
        "inputs_digest": digest(leading_tasks),
        "inputs_digest_blocks": DIGEST_BLOCKS,
        "repeat_share": repeat_share(leading_tasks),
        "versions": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nvlgi": nvlgi.__version__,
        },
    }
    if tracer:
        traced_rate = len(client.latencies_ms(True)) / (busy_ns[True] / 1e9)
        layers = layer_metrics(tracer.spans, tuple(NvSweep.block_counts), workload.cli_twins)
        layers["trace.overhead_pct"] = ((result["tasks_per_s"] / traced_rate - 1) * 100, "%")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
