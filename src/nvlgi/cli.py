"""Command-line front end: ideal-protocol runs, the NV experiment model,
and characterization curves (ODMR, repeated gates, FID), with JSON/CSV
output and a YAML config file mirroring the imperfection model."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import secrets
import sys
from datetime import datetime, timezone

import numpy as np

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

# largest ideal --n: the string costs ~13 us per time, so 10 000 times take ~0.13 s
MAX_N = 10_000
# largest --points and --kmax: fid, the costliest curve, takes ~0.5 s and ~130 MB at 100 000
MAX_POINTS = 100_000


class UsageError(ValueError):
    pass


def _number(kind: type, lo: float = -math.inf, hi: float = math.inf):
    """Domain of the finite ``kind`` numbers in [lo, hi]; a str, a flag's text, is parsed
    first. An int is also a float, but not the reverse, and a bool is neither."""

    def domain(value):
        try:
            number = kind(value) if isinstance(value, str) else value
        except ValueError:
            number = None
        if type(number) not in (int, kind) or not lo <= number <= hi or abs(number) == math.inf:
            what = f"a finite {kind.__name__} in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {what}, got {value!r}")
        return number

    return domain


_FLOAT = _number(float)
_POSITIVE = _number(float, sys.float_info.min)


def parse_theta(value: str | float) -> float:
    """The theta domain: '0.416pi' (canonical) or a finite number in radians."""
    if isinstance(value, str) and value.strip().lower().endswith("pi"):
        value = _FLOAT(value.strip().lower()[:-2] or "1") * np.pi
    return float(_FLOAT(value))


def _duration(value: str | float | None) -> float | None:
    """Seconds as a normal positive float: a subnormal T2* overflows the detuning width
    1/(sqrt(2)*pi*T2*) or its quadrature nodes. None, a config's null, is the ideal T2*."""
    if isinstance(value, str):
        text = value.strip().lower()
        for suffix, scale in (("us", 1e-6), ("ms", 1e-3), ("ns", 1e-9), ("s", 1.0)):
            if text.endswith(suffix):
                return _POSITIVE(_FLOAT(text[: -len(suffix)]) * scale)
    return None if value is None else _POSITIVE(value)


# Each option, declared once: (flag, config key, domain, subcommands, add_argument
# keywords). The domain is the flag's argparse type, so a bad flag is named whatever
# the subcommand, and load_config applies it to the YAML value. Rules on two options
# stay in the commands, and so do the library's ranges: pol_*, flip_prob_p, --p in
# [0, 1] and n_samples >= 1.
OPTIONS = (
    ("--theta", "theta", parse_theta, "ideal nv",
     {"help": "rotation angle, e.g. 0.416pi or 1.307"}),
    ("--seed", "seed", _number(int, 0), "ideal nv characterize", {}),
    ("--t2-star", "t2_star", _duration, "nv", {}),
    ("--pol-e", "pol_e", _FLOAT, "nv", {}),
    ("--pol-n", "pol_n", _FLOAT, "nv", {}),
    ("--flip-prob", "flip_prob_p", _FLOAT, "nv", {}),
    ("--n-samples", "n_samples", _number(int), "nv", {}),
    (None, "averaging", Averaging, "", {}),
    (None, "f_rabi", _POSITIVE, "", {}),  # unused by the populations; kept for existing configs
    ("--n", None, _number(int, 3, MAX_N), "ideal",
     {"default": 3, "help": f"number of times in the LG string (3 to {MAX_N})"}),
    ("--grid", None, _number(int, 100), "ideal",
     {"default": 10_000, "help": "checked (>= 100) and recorded, but unused: the sweep is exact"}),
    ("--p", None, _FLOAT, "characterize", {"default": 0.995, "help": "gate flip probability"}),
    # the log-linear fit needs k = 0, 1, 2
    ("--kmax", None, _number(int, 2, MAX_POINTS), "characterize", {"default": 30}),
    ("--t2star", None, _duration, "characterize", {"default": 62e-6, "help": "e.g. 62us, 6.2e-5"}),
    ("--delta-ref", None, _FLOAT, "characterize", {"default": 50e3}),
    ("--points", None, _number(int, 1, MAX_POINTS), "characterize",
     {"help": "curve length for odmr and fid (default 101)"}),
    ("--noise", None, _number(float, 0.0), "characterize",
     {"default": 0.0, "help": "Gaussian readout sigma"}),
)
CONFIG_DOMAINS = {key: domain for _, key, domain, _, _ in OPTIONS if key}
# the config keys that set an ImperfectionModel field; the model's seed is the run's
MODEL_KEYS = tuple(f.name for f in dataclasses.fields(ImperfectionModel) if f.name != "seed")


def _checked(name: str, domain, value):
    """``domain(value)``, its complaint raised as a UsageError that names the source."""
    try:
        return domain(value)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise UsageError(f"{name} {exc}") from None


def format_theta(theta: float) -> str:
    return f"{theta / np.pi:.6g}pi"


def _result_record(command: str, inputs: dict, outputs: dict, seed, seeded: bool) -> dict:
    provenance = {"seed": seed, "version": __version__}
    if not seeded:
        # omitted for explicit seeds so equal runs produce identical bytes
        provenance["timestamp"] = datetime.now(timezone.utc).isoformat()
    return {"command": command, "inputs": inputs, "outputs": outputs, "provenance": provenance}


def _emit(record: dict, curves, args) -> None:
    """Write the record as JSON, or as CSV led by the row lists that ``curves()`` names.

    ``curves`` is None or a callable, so JSON output never formats the rows.
    """
    if args.format == "json":
        text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for name, rows in (curves() if curves else {}).items():
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

    The first given source wins and must be in the seed domain.
    """
    env = os.environ.get("NVLGI_SEED")
    for source, value in (("--seed", args.seed), ("NVLGI_SEED", env), ("config seed", config_seed)):
        if value is not None:
            return _checked(source, CONFIG_DOMAINS["seed"], value), True
    return secrets.randbits(32), False


def load_config(path: str | None, args) -> dict:
    """Merge the YAML config under nv's flags; unknown keys and bad values are rejected."""
    cfg: dict = {}
    if path:
        import yaml  # only --config reads YAML, so other runs skip the import

        # libyaml's parser where PyYAML was built with it; both use SafeConstructor
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        try:
            # bytes, so the parser reads the encoding (UTF-8 or UTF-16) from the file
            with open(path, "rb") as fh:
                raw = yaml.load(fh, Loader=loader) or {}
        except yaml.YAMLError as exc:
            # the two parsers word their problems differently; the position is the same
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise UsageError(f"config {path} is not valid YAML{where}") from None
        if not isinstance(raw, dict):
            raise UsageError(f"config {path} must be a mapping of keys to values")
        unknown = set(raw) - CONFIG_DOMAINS.keys()
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(map(str, unknown))}")
        for key, value in raw.items():
            # only theta and averaging take YAML text: a quoted "0.9" is no number
            if isinstance(value, str) and CONFIG_DOMAINS[key] not in (parse_theta, Averaging):
                raise UsageError(f"config {key} must not be a string, got {value!r}")
            cfg[key] = _checked(f"config {key}", CONFIG_DOMAINS[key], value)
    for key in CONFIG_DOMAINS:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    return cfg


@functools.cache
def _scheme(scheme: str, system: str):
    """The standard scheme, built and validated once per process.

    The cache lives here, not in ``protocol``: the CLI only reads the scheme,
    while a library caller could change its projector arrays in place.
    """
    rule = UpdateRule.LUDERS if scheme == "luders" else UpdateRule.VON_NEUMANN
    build = standard_qubit_scheme if system == "qubit" else standard_qutrit_scheme
    return build(rule)


def _correlator_outputs(c) -> dict:
    return {"q2": c.q2_mean, "q2q3": c.q2q3_mean, "q3": c.q3_mean, "k3": c.k3}


def cmd_ideal(args) -> int:
    seed, seeded = _resolve_seed(args)
    scheme = _scheme(args.scheme, args.system)
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
        inputs["theta"] = format_theta(args.theta)
        if args.n == 3:
            outputs = _correlator_outputs(k3_protocol(args.theta, scheme))
            if args.system == "qutrit" and args.scheme == "neumann":
                outputs["k3_analytic"] = analytic_correlators(args.theta).k3
        else:
            s = kn_string(args.n, args.theta, scheme)
            outputs = {"terms": list(s.terms), "kn": s.value}
    record = _result_record("ideal", inputs, outputs, seed, seeded)
    _emit(record, None, args)
    return EXIT_OK


def cmd_nv(args) -> int:
    cfg = load_config(args.config, args)
    seed, seeded = _resolve_seed(args, cfg.get("seed"))
    theta = cfg.get("theta", 0.416 * np.pi)
    if args.ideal:
        model = ImperfectionModel.ideal()
    else:
        model = ImperfectionModel(seed=seed, **{key: cfg[key] for key in MODEL_KEYS if key in cfg})
    table = population_table(theta, model)
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
    record = _result_record("nv", inputs, outputs, seed, seeded)
    record["outputs"]["populations"] = {
        f"variant_{j + 1}": table[:, j].tolist() for j in range(4)
    }

    def curves():
        rows = [[j + 1, i + 1, f"{table[i, j]:.12g}"] for j in range(4) for i in range(6)]
        return {"populations": [["variant", "level", "population"], *rows]}

    _emit(record, curves, args)
    return EXIT_OK


def cmd_characterize(args) -> int:
    points = args.points
    if args.kind == "cg-repeat":
        if points is not None:
            raise UsageError("--points does not apply to cg-repeat, whose length is --kmax")
    else:
        points = 101 if points is None else points
        if args.kind == "fid" and points < 5:  # the decay fit needs five points
            raise UsageError(f"--points must be >= 5 for fid, got {points}")
        # the fid grid spans 2*t2star in points - 1 steps; at or above its Nyquist
        # frequency the signal aliases and the fit would report a wrong T2*
        nyquist = (points - 1) / (4 * args.t2star)
        if args.kind == "fid" and abs(args.delta_ref) >= nyquist:
            raise UsageError(
                f"--delta-ref must be below the grid's Nyquist frequency {nyquist:.6g} Hz "
                f"((points - 1) / (4 * t2star)), got {args.delta_ref}"
            )
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
        header, cells = ["freq_hz", "p0"], lambda f, v: [f"{f:.6f}", f"{v:.9g}"]
    elif args.kind == "cg-repeat":
        curve = repeated_cg(args.kmax, args.p, readout_sigma=args.noise, rng=rng)
        p_hat, p_err = fit_flip_probability(curve)
        inputs = {"kind": "cg-repeat", "p": args.p, "kmax": args.kmax, "noise": args.noise}
        outputs = {"p_hat": p_hat, "p_err": p_err}
        header, cells = ["k", "p0"], lambda k, v: [int(k), f"{v:.9g}"]
    else:
        t2 = args.t2star
        model = ImperfectionModel(t2_star=t2, seed=seed)
        t_grid = np.linspace(0.0, 2.0 * t2, points)
        curve = fid_curve(model, t_grid, args.delta_ref, readout_sigma=args.noise, rng=rng)
        t2_hat, t2_err = fit_gaussian_decay(curve)
        inputs = {"kind": "fid", "t2_star": t2, "delta_ref": args.delta_ref, "noise": args.noise}
        outputs = {"t2_star_hat": t2_hat, "t2_star_err": t2_err}
        header, cells = ["t_s", "p0"], lambda t, v: [f"{t:.9g}", f"{v:.9g}"]
    record = _result_record("characterize", inputs, outputs, seed, seeded)

    def curves():
        return {args.kind.replace("-", "_"): [header, *(cells(*row) for row in curve)]}

    _emit(record, curves, args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The nvlgi parser, built once per process; each parse_args returns a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="nvlgi",
        description="Leggett-Garg inequality beyond the Luders bound: "
        "ideal qutrit protocol and NV-center experiment model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ideal = sub.add_parser("ideal", help="noise-free protocol correlators and sweeps")
    p_ideal.add_argument("--scheme", choices=("neumann", "luders"), default="neumann")
    p_ideal.add_argument("--system", choices=("qutrit", "qubit"), default="qutrit")
    p_ideal.add_argument("--sweep", action="store_true", help="maximise K3 over theta")
    p_ideal.set_defaults(func=cmd_ideal)

    p_nv = sub.add_parser("nv", help="six-level INRM experiment with imperfections")
    p_nv.add_argument("--config", default=None, help="YAML config file")
    p_nv.add_argument("--ideal", action="store_true", help="ignore all imperfections")
    p_nv.set_defaults(func=cmd_nv)

    p_char = sub.add_parser("characterize", help="ODMR, repeated-gate, and FID curves")
    p_char.add_argument("kind", choices=("odmr", "cg-repeat", "fid"))
    p_char.add_argument("--cg", action="store_true", help="apply the gate before the ODMR sweep")
    p_char.set_defaults(func=cmd_characterize)

    for flag, key, domain, commands, parser_args in OPTIONS:
        for command in commands.split():
            sub.choices[command].add_argument(flag, dest=key, type=domain, **parser_args)
    for p in sub.choices.values():
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        # argparse takes only -1 and -.5 forms for negative numbers, so "--theta -0.4pi"
        # or "--delta-ref -5e3" would read the value as an unknown option; no flag starts
        # with "-" and a digit, so any such word is a value
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


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
    except (FitError, DegeneratePostselectionError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
