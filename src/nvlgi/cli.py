"""Command-line front end: ideal-protocol runs, the NV experiment model,
and characterization curves (ODMR, repeated gates, FID), with JSON/CSV
output and a YAML config file mirroring the imperfection model."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import secrets
import sys
from datetime import datetime, timezone

import numpy as np
import yaml

from . import __version__
from .noise import (
    Averaging,
    FitError,
    ImperfectionModel,
    fid_curve,
    fit_gaussian_decay,
)
from .nv import (
    DegeneratePostselectionError,
    NvModel,
    assemble_lg,
    fit_flip_probability,
    odmr_spectrum,
    population_table,
    postselected_weights,
    repeated_cg,
)
from .protocol import (
    UpdateRule,
    analytic_correlators,
    find_max_k3,
    k3_protocol,
    kn_string,
    standard_qubit_scheme,
    standard_qutrit_scheme,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

LUDERS_BOUND = 1.5
REFERENCE_K3_EXP = 1.625
REFERENCE_K3_SIM = 1.632

# config key -> accepted value types; a float must also be finite
CONFIG_KEYS = {
    "theta": (str, int, float),
    "t2_star": (int, float, type(None)),
    "pol_e": (int, float),
    "pol_n": (int, float),
    "flip_prob_p": (int, float),
    "n_samples": (int,),
    "seed": (int,),
    "averaging": (str,),
    "f_rabi": (int, float),
}

# keys that set an ImperfectionModel field directly; each is also a CLI option
MODEL_KEYS = ("t2_star", "pol_e", "pol_n", "flip_prob_p", "n_samples")


class UsageError(ValueError):
    pass


def parse_theta(text: str | float) -> float:
    """Accept '0.416pi' (canonical) or a plain number in radians; must be finite."""
    if isinstance(text, str):
        text = text.strip().lower()
        theta = float(text[:-2] or "1") * np.pi if text.endswith("pi") else float(text)
    else:
        theta = float(text)
    if not math.isfinite(theta):
        raise UsageError(f"theta must be finite, got {theta}")
    return theta


def format_theta(theta: float) -> str:
    return f"{theta / np.pi:.6g}pi"


def _result_record(command: str, inputs: dict, outputs: dict, seed, seeded: bool) -> dict:
    provenance = {"seed": seed, "version": __version__}
    if not seeded:
        # omitted for explicit seeds so equal runs produce identical bytes
        provenance["timestamp"] = datetime.now(timezone.utc).isoformat()
    return {"command": command, "inputs": inputs, "outputs": outputs, "provenance": provenance}


def _emit(record: dict, curves: dict[str, list] | None, args) -> None:
    if args.format == "json":
        text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for name, rows in (curves or {}).items():
            writer.writerow([name])
            for row in rows:
                writer.writerow(row)
        writer.writerow(["key", "value"])
        for key, value in sorted(record["outputs"].items()):
            if not isinstance(value, (list, dict)):
                writer.writerow([key, value])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_seed(args, config_seed: int | None = None) -> tuple[int, bool]:
    """Seed and whether it was given: --seed, then NVLGI_SEED, then the config, else random.

    The first given source wins and must be a non-negative integer.
    """
    env = os.environ.get("NVLGI_SEED")
    for source, value in (("--seed", args.seed), ("NVLGI_SEED", env), ("config seed", config_seed)):
        if value is not None:
            if not str(value).isdecimal():
                raise UsageError(f"{source} must be a non-negative integer, got {value!r}")
            return int(value), True
    return secrets.randbits(32), False


def load_config(path: str | None, args) -> dict:
    """Merge YAML config and CLI overrides; unknown keys and bad values are rejected."""
    cfg: dict = {}
    if path:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
        if not isinstance(raw, dict):
            raise UsageError(f"config {path} must be a mapping of keys to values")
        unknown = set(raw) - CONFIG_KEYS.keys()
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(map(str, unknown))}")
        cfg.update(raw)
    for key in MODEL_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for key, value in cfg.items():
        kinds = CONFIG_KEYS[key]
        if isinstance(value, bool) or not isinstance(value, kinds) or (
            isinstance(value, float) and not math.isfinite(value)
        ):
            names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise UsageError(f"config {key} must be a finite {names}, got {value!r}")
    return cfg


def _scheme(args):
    rule = UpdateRule.LUDERS if args.scheme == "luders" else UpdateRule.VON_NEUMANN
    build = standard_qubit_scheme if args.system == "qubit" else standard_qutrit_scheme
    return build(rule)


def _correlator_outputs(c) -> dict:
    return {"q2": c.q2_mean, "q2q3": c.q2q3_mean, "q3": c.q3_mean, "k3": c.k3}


def cmd_ideal(args) -> int:
    seed, seeded = _resolve_seed(args)
    scheme = _scheme(args)
    inputs = {"scheme": args.scheme, "system": args.system, "n": args.n}
    if args.sweep:
        if args.n != 3:
            raise UsageError(f"--sweep maximises K3 only, so --n must be 3, got {args.n}")
        theta_star, k_max = find_max_k3(scheme, args.grid)
        outputs = {
            "theta_star": format_theta(theta_star),
            "theta_star_rad": theta_star,
            "k3_max": k_max,
        }
        inputs["grid"] = args.grid
    else:
        if args.theta is None:
            raise UsageError("ideal needs --theta unless --sweep is given")
        theta = parse_theta(args.theta)
        inputs["theta"] = format_theta(theta)
        if args.n == 3:
            outputs = _correlator_outputs(k3_protocol(theta, scheme))
            if args.system == "qutrit" and args.scheme == "neumann":
                outputs["k3_analytic"] = analytic_correlators(theta).k3
        else:
            s = kn_string(args.n, theta, scheme)
            outputs = {"terms": list(s.terms), "kn": s.value}
    record = _result_record("ideal", inputs, outputs, seed, seeded)
    _emit(record, None, args)
    return EXIT_OK


def cmd_nv(args) -> int:
    cfg = load_config(args.config, args)
    seed, seeded = _resolve_seed(args, cfg.get("seed"))
    theta = parse_theta(args.theta if args.theta is not None else cfg.get("theta", "0.416pi"))
    if args.ideal:
        model = ImperfectionModel.ideal()
    else:
        fields = {key: cfg[key] for key in MODEL_KEYS if key in cfg}
        if "averaging" in cfg:
            fields["averaging"] = Averaging(cfg["averaging"])
        model = ImperfectionModel(seed=seed, **fields)
    table = population_table(theta, model, f_rabi=cfg.get("f_rabi", 20e3))
    correlators = assemble_lg(table)
    weights = postselected_weights(table)
    outputs = _correlator_outputs(correlators) | {
        "postselected_weights": weights.tolist(),
        "k3_exp_reference": REFERENCE_K3_EXP,
        "k3_sim_reference": REFERENCE_K3_SIM,
        "luders_bound": LUDERS_BOUND,
        "exceeds_luders_by": correlators.k3 - LUDERS_BOUND,
    }
    inputs = {
        "theta": format_theta(theta),
        "imperfections": None if args.ideal else dataclasses.asdict(model) | {
            "averaging": model.averaging.value
        },
    }
    rows = [["variant", "level", "population"]]
    for j in range(4):
        for i in range(6):
            rows.append([j + 1, i + 1, f"{table[i, j]:.12g}"])
    record = _result_record("nv", inputs, outputs, seed, seeded)
    record["outputs"]["populations"] = {
        f"variant_{j + 1}": table[:, j].tolist() for j in range(4)
    }
    _emit(record, {"populations": rows}, args)
    return EXIT_OK


def cmd_characterize(args) -> int:
    for name in ("p", "noise", "delta_ref", "t2star"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.noise < 0:
        raise UsageError(f"--noise must be >= 0, got {args.noise}")
    if args.t2star <= 0:
        raise UsageError(f"--t2star must be positive, got {args.t2star}")
    points = args.points
    if args.kind == "cg-repeat":
        if points is not None:
            raise UsageError("--points does not apply to cg-repeat, whose length is --kmax")
        if args.kmax < 2:  # the log-linear fit needs k = 0, 1, 2
            raise UsageError(f"--kmax must be >= 2 for cg-repeat, got {args.kmax}")
    else:
        points = 101 if points is None else points
        least = 5 if args.kind == "fid" else 1  # the decay fit needs five points
        if points < least:
            raise UsageError(f"--points must be >= {least} for {args.kind}, got {points}")
    seed, seeded = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    if args.kind == "odmr":
        model = NvModel()
        center = model.mw_transition(0)
        freqs = np.linspace(center - 6e6, center + 6e6, points)
        curve = odmr_spectrum(freqs, apply_cg=args.cg, p=args.p)
        inputs = {"kind": "odmr", "p": args.p, "apply_cg": args.cg}
        outputs = {
            "dip_spacing_hz": abs(model.mw_transition(1) - model.mw_transition(0)),
            "min_p0": float(curve[:, 1].min()),
        }
        rows = [["freq_hz", "p0"]] + [[f"{f:.6f}", f"{v:.9g}"] for f, v in curve]
    elif args.kind == "cg-repeat":
        curve = repeated_cg(args.kmax, args.p, readout_sigma=args.noise, rng=rng)
        p_hat, p_err = fit_flip_probability(curve)
        inputs = {"kind": "cg-repeat", "p": args.p, "kmax": args.kmax, "noise": args.noise}
        outputs = {"p_hat": p_hat, "p_err": p_err}
        rows = [["k", "p0"]] + [[int(k), f"{v:.9g}"] for k, v in curve]
    else:
        t2 = args.t2star
        model = ImperfectionModel(t2_star=t2, seed=seed)
        t_grid = np.linspace(0.0, 2.0 * t2, points)
        curve = fid_curve(model, t_grid, args.delta_ref, readout_sigma=args.noise, rng=rng)
        t2_hat, t2_err = fit_gaussian_decay(curve)
        inputs = {"kind": "fid", "t2_star": t2, "delta_ref": args.delta_ref, "noise": args.noise}
        outputs = {"t2_star_hat": t2_hat, "t2_star_err": t2_err}
        rows = [["t_s", "p0"]] + [[f"{t:.9g}", f"{v:.9g}"] for t, v in curve]
    record = _result_record("characterize", inputs, outputs, seed, seeded)
    _emit(record, {args.kind.replace("-", "_"): rows}, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvlgi",
        description="Leggett-Garg inequality beyond the Luders bound: "
        "ideal qutrit protocol and NV-center experiment model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_ideal = sub.add_parser("ideal", help="noise-free protocol correlators and sweeps")
    p_ideal.add_argument("--theta", default=None, help="rotation angle, e.g. 0.416pi or 1.307")
    p_ideal.add_argument("--scheme", choices=("neumann", "luders"), default="neumann")
    p_ideal.add_argument("--system", choices=("qutrit", "qubit"), default="qutrit")
    p_ideal.add_argument("--n", type=int, default=3, help="number of times in the LG string")
    p_ideal.add_argument("--sweep", action="store_true", help="maximise K3 over theta")
    p_ideal.add_argument("--grid", type=int, default=10_000,
                         help="checked (>= 100) and recorded, but unused: the sweep is exact")
    common(p_ideal)
    p_ideal.set_defaults(func=cmd_ideal)

    p_nv = sub.add_parser("nv", help="six-level INRM experiment with imperfections")
    p_nv.add_argument("--config", default=None, help="YAML config file")
    p_nv.add_argument("--theta", default=None)
    p_nv.add_argument("--ideal", action="store_true", help="ignore all imperfections")
    p_nv.add_argument("--t2-star", dest="t2_star", type=float, default=None)
    p_nv.add_argument("--pol-e", dest="pol_e", type=float, default=None)
    p_nv.add_argument("--pol-n", dest="pol_n", type=float, default=None)
    p_nv.add_argument("--flip-prob", dest="flip_prob_p", type=float, default=None)
    p_nv.add_argument("--n-samples", dest="n_samples", type=int, default=None)
    common(p_nv)
    p_nv.set_defaults(func=cmd_nv)

    p_char = sub.add_parser("characterize", help="ODMR, repeated-gate, and FID curves")
    p_char.add_argument("kind", choices=("odmr", "cg-repeat", "fid"))
    p_char.add_argument("--p", type=float, default=0.995, help="gate flip probability")
    p_char.add_argument("--cg", action="store_true", help="apply the gate before the ODMR sweep")
    p_char.add_argument("--kmax", type=int, default=30)
    p_char.add_argument("--t2star", type=_duration, default=62e-6, help="e.g. 62us or 6.2e-5")
    p_char.add_argument("--delta-ref", dest="delta_ref", type=float, default=50e3)
    p_char.add_argument("--points", type=int, default=None,
                        help="curve length for odmr and fid (default 101)")
    p_char.add_argument("--noise", type=float, default=0.0, help="Gaussian readout sigma")
    common(p_char)
    p_char.set_defaults(func=cmd_characterize)
    return parser


def _duration(text: str) -> float:
    text = text.strip().lower()
    for suffix, scale in (("us", 1e-6), ("ms", 1e-3), ("ns", 1e-9), ("s", 1.0)):
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * scale
    return float(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FitError, DegeneratePostselectionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
