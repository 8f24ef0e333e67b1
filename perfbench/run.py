"""nvlgi benchmark: three seeded closed-loop workloads with oracle checks.

    python3 perfbench/run.py --workload ideal_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``). ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run; ``--workload all`` runs every workload in
turn. Each workload runs in its own process with BLAS and OpenMP pinned to
one thread; set-up time is sampled in extra fresh processes. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("ideal_sweep", "nv_sweep", "characterize")
SETUP_PROBES = 4  # fresh processes that only set up; plus the measuring one
RUN_LIMIT_S = 170.0  # per workload, under the 180 s a run may take

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NVLGI_SEED", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the workload finished")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        trace_dir = os.path.join(HERE, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        probes = []
        extra = ["--trace", "1", "--trace-out", os.path.join(trace_dir, f"{name}-seed{seed}.jsonl")]
    else:
        probes = [run_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        extra = []
    result = run_worker(common + extra, deadline)
    result["setup_samples_s"] = [p["setup_s"] for p in probes] + [result["setup_s"]]
    result["setup_s"] = statistics.median(result["setup_samples_s"])
    result["warmup_failed"] += sum(p["warmup_failed"] for p in probes)
    if not result.get("first_error"):
        result["first_error"] = next((p["first_error"] for p in probes if p["first_error"]), None)
    return result


def report(result: dict, trace: bool, provenance: dict) -> dict:
    """Print the human-readable summary; return the contract's JSON object."""
    attempted, failed = result["attempted"], result["failed"]
    metrics = result["per_layer"] if trace else {
        name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
    }
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(trace)}  "
          f"blocks {result['blocks']}  wall {result['wall_s']:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} ratio ({failed}/{attempted} failed)")
    if result.get("first_error"):
        print(f"  first failure: {result['first_error']}")
    print("provenance " + json.dumps(provenance | {
        k: result[k] for k in (
            "seed", "inputs_digest", "inputs_digest_blocks", "repeat_share",
            "class_counts", "class_p50_ms", "setup_samples_s", "versions",
        ) if k in result
    }, sort_keys=True))
    return {
        "correct": failed == 0 and result["warmup_failed"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nvlgi", "__init__.py")):
        print(f"error: no nvlgi sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    provenance = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_digest": source_digest(),
    }
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        outcomes[name] = report(result, bool(args.trace), provenance)
    final = outcomes[names[0]] if len(names) == 1 else outcomes
    print(json.dumps(final, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
