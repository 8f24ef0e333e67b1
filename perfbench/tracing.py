"""Spans for the traced run and the per-layer metrics derived from them.

A span is recorded around every public nvlgi call a task makes, and around
the calls one layer makes into another by name (``nvlgi.cli`` into the
library, ``nvlgi.nv`` into ``noise.sample_detunings``). Calls inside one
layer are not spanned, so ``linalg`` time counts as the self time of the
layer that called it. Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from types import SimpleNamespace

import numpy as np

# public calls the tasks make: attribute name -> (span name, module)
PUBLIC_CALLS = {
    "find_max_k3": ("protocol.find_max_k3", "nvlgi.protocol"),
    "kn_string": ("protocol.kn_string", "nvlgi.protocol"),
    "k3_protocol": ("protocol.k3_protocol", "nvlgi.protocol"),
    "analytic_correlators": ("protocol.analytic_correlators", "nvlgi.protocol"),
    "population_table": ("nv.population_table", "nvlgi.nv"),
    "postselected_weights": ("nv.postselected_weights", "nvlgi.nv"),
    "assemble_lg": ("nv.assemble_lg", "nvlgi.nv"),
    "odmr_spectrum": ("nv.odmr_spectrum", "nvlgi.nv"),
    "repeated_cg": ("nv.repeated_cg", "nvlgi.nv"),
    "fit_flip_probability": ("nv.fit_flip_probability", "nvlgi.nv"),
    "fid_curve": ("noise.fid_curve", "nvlgi.noise"),
    "fit_gaussian_decay": ("noise.fit_gaussian_decay", "nvlgi.noise"),
    "sample_detunings": ("noise.sample_detunings", "nvlgi.noise"),
    "main": ("cli.main", "nvlgi.cli"),
}

# names through which one layer calls another; patched only in traced blocks
BOUNDARY_CALLERS = {
    "nvlgi.nv": ("sample_detunings",),
    "nvlgi.cli": (
        "find_max_k3", "kn_string", "k3_protocol", "analytic_correlators",
        "population_table", "postselected_weights", "assemble_lg",
        "odmr_spectrum", "repeated_cg", "fit_flip_probability",
        "fid_curve", "fit_gaussian_decay",
    ),
}


def _grid_points(bound) -> dict:
    return {"grid_points": int(bound.arguments["grid_points"])}


def _ensemble_members(bound) -> dict:
    model = bound.arguments["imperfections"]
    return {"members": 4 * (model.n_samples if model is not None else 1)}


def _fid_evolutions(bound) -> dict:
    points = len(bound.arguments["t_grid"])
    return {"evolutions": points * int(bound.arguments["n_quadrature"])}


def _cli_command(bound) -> dict:
    return {"command": bound.arguments["argv"][0]}


# work counts computed from each call's inputs
WORK_ATTRS = {
    "protocol.find_max_k3": _grid_points,
    "nv.population_table": _ensemble_members,
    "noise.fid_curve": _fid_evolutions,
    "cli.main": _cli_command,
}


def library_api() -> SimpleNamespace:
    """The public functions the tasks call, untraced."""
    return SimpleNamespace(
        **{
            attr: getattr(importlib.import_module(module), attr)
            for attr, (_, module) in PUBLIC_CALLS.items()
        }
    )


class Tracer:
    """In-memory span recorder: (task id, span id, parent id, name, start, end, attrs)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []

    def _open(self, name: str, task_id: int, attrs: dict) -> dict:
        parent = self._stack[-1]["span_id"] if self._stack else None
        span = {
            "task_id": task_id,
            "span_id": len(self.spans),
            "parent_id": parent,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()

    def open_task(self, task_id: int, cls: str) -> dict:
        return self._open("task", task_id, {"class": cls})

    def close_task(self, span: dict) -> None:
        self._close(span)

    def wrap(self, name: str, fn):
        work = WORK_ATTRS.get(name)
        signature = inspect.signature(fn) if work else None

        def traced(*args, **kwargs):
            if not self._stack:  # an oracle's call, outside every task
                return fn(*args, **kwargs)
            attrs = {}
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = work(bound)
            span = self._open(name, self._stack[-1]["task_id"], attrs)
            try:
                return fn(*args, **kwargs)
            except Exception:
                attrs["error"] = True
                raise
            finally:
                self._close(span)

        return traced

    def traced_api(self, api: SimpleNamespace) -> SimpleNamespace:
        return SimpleNamespace(
            **{
                attr: self.wrap(PUBLIC_CALLS[attr][0], fn)
                for attr, fn in vars(api).items()
            }
        )

    def patch_boundaries(self) -> None:
        """Span the calls one layer makes into another, until ``unpatch``."""
        for module_name, attrs in BOUNDARY_CALLERS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(PUBLIC_CALLS[attr][0], fn))

    def unpatch(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _ms(ns: float) -> float:
    return ns / 1e6


def _stats(spans: list[dict], self_ns: dict) -> tuple[int, float, float]:
    """(calls, busy ms as summed self time, p50 ms of inclusive duration)."""
    if not spans:
        return 0, 0.0, 0.0
    durations = [s["end_ns"] - s["start_ns"] for s in spans]
    busy = sum(self_ns[s["span_id"]] for s in spans)
    return len(spans), _ms(busy), _ms(float(np.median(durations)))


def layer_metrics(
    spans: list[dict], nv_classes: tuple[str, ...], cli_twins: dict[str, tuple[str, str]]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced blocks.

    ``cli_twins`` maps a CLI command to its task class and the library task
    class that makes the same call; ``cli.<command>.overhead_ms`` is the
    difference of their task p50s.
    """
    self_ns = {s["span_id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent_id"] is not None:
            self_ns[s["parent_id"]] -= s["end_ns"] - s["start_ns"]
    tasks = {s["task_id"]: s for s in spans if s["name"] == "task"}
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    out: dict[str, tuple[float, str]] = {}

    def put_stats(prefix: str, group: list[dict]) -> None:
        calls, busy, p50 = _stats(group, self_ns)
        out[f"{prefix}.calls"] = (calls, "count")
        out[f"{prefix}.busy_ms"] = (busy, "ms")
        out[f"{prefix}.p50_ms"] = (p50, "ms")

    def busy_ms(name: str) -> float:
        return _ms(sum(self_ns[s["span_id"]] for s in by_name.get(name, [])))

    def task_attr_values(key: str) -> list[float]:
        return [t["attrs"][key] for t in tasks.values() if key in t["attrs"]]

    for fn in ("find_max_k3", "kn_string", "k3_protocol", "analytic_correlators"):
        put_stats(f"protocol.{fn}", by_name.get(f"protocol.{fn}", []))
    grid_points = sum(s["attrs"]["grid_points"] for s in by_name.get("protocol.find_max_k3", []))
    out["protocol.grid_points"] = (grid_points, "count")
    out["protocol.us_per_grid_point"] = (
        busy_ms("protocol.find_max_k3") * 1e3 / grid_points if grid_points else 0.0, "us"
    )
    out["protocol.oracle_residue_max"] = (max(task_attr_values("protocol_residue"), default=0.0), "1")

    tables = by_name.get("nv.population_table", [])
    put_stats("nv.population_table", tables)
    for cls in nv_classes:
        put_stats(
            f"nv.population_table.{cls}",
            [s for s in tables if tasks[s["task_id"]]["attrs"]["class"] == cls],
        )
    out["nv.assemble_lg.busy_ms"] = (busy_ms("nv.assemble_lg"), "ms")
    members = sum(s["attrs"]["members"] for s in tables)
    out["nv.ensemble_members"] = (members, "count")
    out["nv.us_per_member"] = (
        busy_ms("nv.population_table") * 1e3 / members if members else 0.0, "us"
    )
    out["nv.trace_residue_max"] = (max(task_attr_values("trace_residue"), default=0.0), "1")
    out["nv.postselect_weight_min"] = (min(task_attr_values("weight_min"), default=0.0), "1")
    for fn in ("odmr_spectrum", "repeated_cg", "fit_flip_probability"):
        put_stats(f"nv.{fn}", by_name.get(f"nv.{fn}", []))

    for fn in ("sample_detunings", "fid_curve", "fit_gaussian_decay"):
        put_stats(f"noise.{fn}", by_name.get(f"noise.{fn}", []))
    evolutions = sum(s["attrs"]["evolutions"] for s in by_name.get("noise.fid_curve", []))
    out["noise.fid_evolutions"] = (evolutions, "count")
    out["noise.us_per_evolution"] = (
        busy_ms("noise.fid_curve") * 1e3 / evolutions if evolutions else 0.0, "us"
    )
    fits = by_name.get("noise.fit_gaussian_decay", [])
    ok_fits = sum(not s["attrs"].get("error") for s in fits)
    out["noise.fit_success_ratio"] = (ok_fits / len(fits) if fits else 0.0, "ratio")
    out["noise.fit_rel_err_max"] = (max(task_attr_values("fit_rel_err"), default=0.0), "1")

    task_p50 = {}
    for cls in {t["attrs"]["class"] for t in tasks.values()}:
        durations = [t["end_ns"] - t["start_ns"] for t in tasks.values() if t["attrs"]["class"] == cls]
        task_p50[cls] = _ms(float(np.median(durations)))
    mains = by_name.get("cli.main", [])
    for command in ("ideal", "nv", "characterize"):
        put_stats(f"cli.{command}", [s for s in mains if s["attrs"]["command"] == command])
        twin = cli_twins.get(command)
        overhead = 0.0
        if twin and twin[0] in task_p50 and twin[1] in task_p50:
            overhead = task_p50[twin[0]] - task_p50[twin[1]]
        out[f"cli.{command}.overhead_ms"] = (overhead, "ms")

    for layer in ("protocol", "nv", "noise", "cli"):
        layer_self = sum(self_ns[s["span_id"]] for s in spans if s["name"].startswith(layer + "."))
        out[f"{layer}.self_ms"] = (_ms(layer_self), "ms")
    return out
