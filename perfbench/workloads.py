"""The three workloads: seeded task generation, the timed calls and the oracles.

A task is one unit of work a single client sends and waits for. Its ``run``
makes the timed public nvlgi calls; its ``check`` compares the result with
an oracle outside the timed region and raises ``OracleFailure`` on a
mismatch. Inputs come in blocks with fixed class counts, so every complete
block has the same class mix whatever the seed; the seed draws the
parameters inside each class and the order of the block.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import zlib
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np
import yaml

from nvlgi.noise import Averaging, ImperfectionModel, sample_detunings
from nvlgi.nv import (
    NvModel,
    assemble_lg,
    odmr_spectrum,
    population_table,
    run_inrm_experiment,
)
from nvlgi.protocol import (
    UpdateRule,
    analytic_correlators,
    find_max_k3,
    k3_protocol,
    standard_qubit_scheme,
    standard_qutrit_scheme,
)

K3_MAX_QUTRIT = 1.7565
LUDERS_BOUND = 1.5
READOUT_SIGMA = 0.01
WARMUP_BLOCK = 2**31 - 1


class OracleFailure(Exception):
    """A task's result disagrees with its oracle."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise OracleFailure(message)


@dataclasses.dataclass
class Task:
    cls: str
    spec: dict  # the generated inputs, JSON-able
    model_key: str  # identity of the model/grid, for the repeat share
    run: Callable[[SimpleNamespace], Any]
    check: Callable[[Any], dict]  # health values for the trace


def _reject_constant(token: str):
    raise OracleFailure(f"CLI output holds non-JSON constant {token}")


def strict_json(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(api: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.main(argv)
    return code, buf.getvalue()


def cli_record(result: tuple[int, str]) -> dict:
    code, text = result
    expect(code == 0, f"CLI exited {code}")
    return strict_json(text)


def correlator_residue(a, b) -> float:
    return max(
        abs(a.q2_mean - b.q2_mean), abs(a.q2q3_mean - b.q2q3_mean), abs(a.q3_mean - b.q3_mean)
    )


def stratified(rng: np.random.Generator, bounds: tuple[int, int], n: int) -> list[int]:
    """n integers in [lo, hi), one from each of n equal strata, in random order."""
    lo, hi = bounds
    return [int(lo + (s + rng.uniform()) * (hi - lo) / n) for s in rng.permutation(n)]


class Workload:
    name: str
    # class -> count per block; counts are tasks, or sweeps for nv_sweep
    block_counts: dict[str, int]
    # CLI command -> (CLI task class, library task class making the same call)
    cli_twins: dict[str, tuple[str, str]] = {}

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def block(self, index: int) -> list[Task]:
        rng = np.random.default_rng([self.seed, zlib.crc32(self.name.encode()), index])
        return self._block(rng, index)

    def warmup(self) -> list[Task]:
        """One task of each class, from a block no measured run uses."""
        first: dict[str, Task] = {}
        for task in self.block(WARMUP_BLOCK):
            first.setdefault(task.cls, task)
        return list(first.values())

    def _block(self, rng: np.random.Generator, index: int) -> list[Task]:
        raise NotImplementedError


# ---------------------------------------------------------------- ideal_sweep


SCHEME_NAMES = ("qutrit-neumann", "qutrit-luders", "qubit-neumann", "qubit-luders")
COARSE_GRID = 1000
FINE_GRIDS = (5000, 15_000)  # mean 10 000, find_max_k3's default


def build_scheme(name: str):
    system, rule = name.split("-")
    build = standard_qutrit_scheme if system == "qutrit" else standard_qubit_scheme
    return build(UpdateRule.LUDERS if rule == "luders" else UpdateRule.VON_NEUMANN)


def check_k3_max(scheme_name: str, theta_star: float, k_max: float) -> dict:
    if scheme_name == "qutrit-neumann":
        expect(abs(k_max - K3_MAX_QUTRIT) <= 1e-3, f"qutrit K3max {k_max}")
        expect(0.41 * math.pi <= theta_star <= 0.42 * math.pi, f"theta* {theta_star}")
        return {}
    if scheme_name == "qutrit-luders":
        expect(k_max <= LUDERS_BOUND + 1e-9, f"Luders K3max {k_max} above 1.5")
        return {}
    expect(abs(k_max - LUDERS_BOUND) <= 1e-6, f"qubit K3max {k_max}")
    return {"protocol_residue": abs(k_max - LUDERS_BOUND)}


class IdealSweep(Workload):
    """Ideal protocol: find_max_k3 grids, Kn ladders, single-theta K3, CLI sweeps."""

    name = "ideal_sweep"
    # The scheme mixes are fixed, so p50 falls mid-ladder and p90 inside the
    # fine grids whatever the seed. The fine grids are stratified over
    # FINE_GRIDS rather than one size: a class of one cost turns the host's
    # two speeds (quiet, contended) into two latency modes, and a percentile
    # between them jumps with the share of contended time.
    block_counts = {
        "k3_single": 13, "kn_ladder": 8, "fmax_coarse": 1, "cli_ideal": 3, "fmax_fine": 10,
    }
    ladder_schemes = SCHEME_NAMES * 2
    fine_schemes = ("qutrit-neumann",) * 7 + SCHEME_NAMES[1:]
    cli_twins = {"ideal": ("cli_ideal", "fmax_coarse")}

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.schemes = {name: build_scheme(name) for name in SCHEME_NAMES}
        self.neumann = self.schemes["qutrit-neumann"]
        self._library_max: dict[tuple[str, int], tuple[float, float]] = {}

    def library_max(self, scheme_name: str, grid: int) -> tuple[float, float]:
        key = (scheme_name, grid)
        if key not in self._library_max:
            self._library_max[key] = find_max_k3(self.schemes[scheme_name], grid)
        return self._library_max[key]

    def _block(self, rng, index):
        c = self.block_counts
        tasks = [self._k3_single(float(rng.uniform(0, math.pi))) for _ in range(c["k3_single"])]
        tasks += [self._kn_ladder(s, float(rng.uniform(0, math.pi))) for s in self.ladder_schemes]
        for s in rng.choice(SCHEME_NAMES, c["fmax_coarse"], replace=False):
            tasks.append(self._find_max(str(s), COARSE_GRID, "fmax_coarse"))
        for s in rng.choice(SCHEME_NAMES, c["cli_ideal"], replace=False):
            tasks.append(self._cli(str(s), int(rng.integers(2**31))))
        grids = stratified(rng, FINE_GRIDS, len(self.fine_schemes))
        tasks += [self._find_max(s, g, "fmax_fine") for s, g in zip(self.fine_schemes, grids)]
        return [tasks[i] for i in rng.permutation(len(tasks))]

    def _k3_single(self, theta):
        scheme = self.neumann

        def run(api):
            return api.k3_protocol(theta, scheme), api.analytic_correlators(theta)

        def check(out):
            protocol, analytic = out
            assembled = assemble_lg(population_table(theta))
            residue = max(
                correlator_residue(protocol, analytic), correlator_residue(protocol, assembled)
            )
            expect(residue <= 1e-10, f"analytic/protocol/assembly differ by {residue}")
            return {"protocol_residue": residue}

        return Task("k3_single", {"theta": theta}, f"theta:{theta!r}", run, check)

    def _kn_ladder(self, scheme_name, theta):
        scheme = self.schemes[scheme_name]

        def run(api):
            return [api.kn_string(n, theta, scheme) for n in range(3, 11)]

        def check(ladder):
            residue = abs(ladder[0].value - k3_protocol(theta, scheme).k3)
            if scheme_name.startswith("qubit"):
                for s in ladder:
                    closed = (s.n - 1) * math.cos(theta) - math.cos((s.n - 1) * theta)
                    residue = max(residue, abs(s.value - closed))
            expect(residue <= 1e-10, f"Kn ladder off its oracle by {residue}")
            for s in ladder:
                expect(all(abs(t) <= 1 + 1e-12 for t in s.terms), f"K{s.n} term outside [-1, 1]")
            return {"protocol_residue": residue}

        spec = {"scheme": scheme_name, "theta": theta}
        return Task("kn_ladder", spec, f"ladder:{scheme_name}:{theta!r}", run, check)

    def _find_max(self, scheme_name, grid, cls):
        scheme = self.schemes[scheme_name]

        def run(api):
            return api.find_max_k3(scheme, grid)

        def check(out):
            return check_k3_max(scheme_name, *out)

        spec = {"scheme": scheme_name, "grid": grid}
        return Task(cls, spec, f"find_max_k3:{scheme_name}:{grid}", run, check)

    def _cli(self, scheme_name, seed):
        system, rule = scheme_name.split("-")
        argv = ["ideal", "--sweep", "--scheme", rule, "--system", system,
                "--grid", str(COARSE_GRID), "--seed", str(seed)]

        def run(api):
            return run_cli(api, argv)

        def check(out):
            outputs = cli_record(out)["outputs"]
            theta_star, k_max = self.library_max(scheme_name, COARSE_GRID)
            residue = max(abs(outputs["k3_max"] - k_max), abs(outputs["theta_star_rad"] - theta_star))
            expect(residue <= 1e-12, f"CLI sweep differs from find_max_k3 by {residue}")
            health = check_k3_max(scheme_name, outputs["theta_star_rad"], outputs["k3_max"])
            return {"protocol_residue": max(residue, health.get("protocol_residue", 0.0))}

        key = f"find_max_k3:{scheme_name}:{COARSE_GRID}"
        return Task("cli_ideal", {"argv": argv}, key, run, check)


# ------------------------------------------------------------------- nv_sweep


SWEEP_POINTS = 11
GH_NODES = (11, 31)  # mean 21, the nominal model's node count
MC_Z_MAX = 6.0  # standard errors a Monte-Carlo mean may lie from the exact one


def gauss_hermite_moments(theta, model, mw_rabi, nodes=21):
    """Mean and standard deviation of the correlators over the detuning ensemble.

    The correlators are linear in the populations, so a Monte-Carlo run is
    the mean of per-detuning correlators and its standard error is their
    standard deviation over sqrt(n_samples). On the models drawn here, both
    moments at 21 nodes agree with 81 nodes to 1e-15.
    """
    gh = model.with_(n_samples=nodes, averaging=Averaging.GAUSS_HERMITE)
    values, weights = [], []
    for s in sample_detunings(gh):
        table = np.column_stack([
            run_inrm_experiment(theta, j, model, s.delta0, mw_rabi=mw_rabi) for j in range(1, 5)
        ])
        values.append(dataclasses.astuple(assemble_lg(table)))
        weights.append(s.weight)
    values, weights = np.array(values), np.array(weights)
    mean = weights @ values
    var = weights @ (values - mean) ** 2
    return mean, np.sqrt(var)


def model_spec(model: ImperfectionModel) -> dict:
    return dataclasses.asdict(model) | {"averaging": model.averaging.value}


def check_table(table: np.ndarray, weights: np.ndarray) -> dict:
    residue = float(np.abs(table.sum(axis=0) - 1.0).max())
    expect(residue <= 1e-10, f"population column sums off 1 by {residue}")
    expect(bool((weights <= 1.0 + 1e-12).all()), f"postselected weight above 1: {weights}")
    return {"trace_residue": residue, "weight_min": float(weights.min())}


class NvSweep(Workload):
    """Noisy theta sweeps: each model runs at 11 angles through the cmd_nv path."""

    name = "nv_sweep"
    # The Gauss-Hermite sweeps, which hold p50, have node counts stratified
    # over GH_NODES rather than all 21, for the reason given at IdealSweep.
    block_counts = {
        "ideal": 1, "single": 1, "gh": 2, "gh_rabi": 2,
        "t2none21": 1, "cli_nv": 1, "mc400_rabi": 2,
    }
    cli_twins = {"nv": ("cli_nv", "gh")}

    def _block(self, rng, index):
        classes = [cls for cls, n in self.block_counts.items() for _ in range(n)]
        n_gh = self.block_counts["gh"] + self.block_counts["gh_rabi"]
        nodes = iter(stratified(rng, GH_NODES, n_gh))
        order = rng.permutation(len(classes))
        sweeps = [self._sweep(classes[i], rng, f"{index}-{i}", nodes) for i in order]
        # Round-robin over the block's sweeps: every class is then sampled all
        # through the block, not in one burst that a moment of host contention
        # can cover. Tasks sharing a model stay 10 tasks apart.
        return [sweep[j] for j in range(SWEEP_POINTS) for sweep in sweeps]

    def _sweep(self, cls, rng, tag, nodes):
        center = rng.uniform(0.35, 0.45) * math.pi
        thetas = np.linspace(center - 0.1 * math.pi, center + 0.1 * math.pi, SWEEP_POINTS)
        model = ImperfectionModel(
            t2_star=float(rng.uniform(30e-6, 120e-6)),
            pol_e=float(rng.uniform(0.90, 1.0)),
            pol_n=float(rng.uniform(0.95, 1.0)),
            flip_prob_p=float(rng.uniform(0.98, 1.0)),
            seed=int(rng.integers(2**31)),
        )
        mw_rabi = float(rng.uniform(50e3, 400e3))
        if cls == "cli_nv":
            return self._cli_sweep(model, thetas, tag)
        mw_rabi = mw_rabi if cls.endswith("_rabi") else None
        if cls in ("gh", "gh_rabi"):
            model = model.with_(n_samples=next(nodes))
        model = {
            "ideal": ImperfectionModel.ideal(),
            "single": model.with_(n_samples=1),
            "gh": model,
            "gh_rabi": model,
            "t2none21": model.with_(t2_star=None),
            "mc400_rabi": model.with_(n_samples=400, averaging=Averaging.MONTE_CARLO),
        }[cls]
        spec = {"model": model_spec(model), "mw_rabi": mw_rabi}
        key = json.dumps(spec, sort_keys=True)
        return [self._task(cls, float(t), model, mw_rabi, spec, key) for t in thetas]

    def _task(self, cls, theta, model, mw_rabi, spec, key):
        def run(api):
            table = api.population_table(theta, model, mw_rabi=mw_rabi)
            weights = api.postselected_weights(table)
            return table, weights, api.assemble_lg(table)

        def check(out):
            table, weights, correlators = out
            health = check_table(table, weights)
            if cls == "ideal":
                residue = correlator_residue(correlators, analytic_correlators(theta))
                expect(residue <= 1e-10, f"ideal assembly off analytic by {residue}")
            elif cls in ("single", "gh"):
                # without mw_rabi the populations do not depend on the detuning
                reference = population_table(theta, model.with_(t2_star=None, n_samples=1))
                residue = float(np.abs(table - reference).max())
                expect(residue <= 1e-12, f"{cls} differs from the sigma=0 table by {residue}")
            elif cls == "t2none21":
                reference = population_table(theta, model.with_(n_samples=1))
                residue = float(np.abs(table - reference).max())
                expect(residue <= 1e-12, f"21 samples differ from 1 sample by {residue}")
            elif cls == "mc400_rabi":
                mean, std = gauss_hermite_moments(theta, model, mw_rabi)
                got = np.array(dataclasses.astuple(correlators))
                z = float((np.abs(got - mean) / (std / math.sqrt(model.n_samples) + 1e-12)).max())
                expect(z <= MC_Z_MAX, f"Monte-Carlo {z:.1f} standard errors off Gauss-Hermite")
            return health

        return Task(cls, spec | {"theta": theta}, key, run, check)

    def _cli_sweep(self, model, thetas, tag):
        config = {
            "t2_star": model.t2_star, "pol_e": model.pol_e, "pol_n": model.pol_n,
            "flip_prob_p": model.flip_prob_p, "n_samples": model.n_samples,
            "averaging": model.averaging.value, "f_rabi": 20e3,
        }
        path = os.path.join(self.workdir, f"nv-{tag}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        key = json.dumps(config, sort_keys=True)
        return [self._cli_task(config, path, model, float(t), key) for t in thetas]

    def _cli_task(self, config, path, model, theta, key):
        argv = ["nv", "--config", path, "--theta", repr(theta), "--seed", str(model.seed)]

        def run(api):
            return run_cli(api, argv)

        def check(out):
            outputs = cli_record(out)["outputs"]
            table = population_table(theta, model)
            cli_table = np.array([outputs["populations"][f"variant_{j}"] for j in range(1, 5)]).T
            residue = max(
                float(np.abs(cli_table - table).max()),
                abs(outputs["k3"] - assemble_lg(table).k3),
            )
            expect(residue <= 1e-12, f"CLI nv differs from the library by {residue}")
            return check_table(cli_table, np.array(outputs["postselected_weights"]))

        spec = {"config": config, "theta": theta, "seed": model.seed}
        return Task("cli_nv", spec, key, run, check)


# --------------------------------------------------------------- characterize


ODMR_POINTS = 401


def odmr_closed_form(freqs, apply_cg, p, mw_rabi, cg_variant) -> np.ndarray:
    """P0 of a swept pi pulse against a mixed nuclear spin, from the Rabi formula."""
    model = NvModel()
    p0_n = np.full(3, 1.0 / 3)
    if apply_cg:
        p0_n[[m for m in range(3) if m != cg_variant - 1]] *= 1.0 - p
    total = np.zeros(len(freqs))
    for m, mi in enumerate((1, 0, -1)):
        detuning = freqs - model.mw_transition(mi)
        g2 = mw_rabi**2 + detuning**2
        flip = mw_rabi**2 / g2 * np.sin(np.pi * np.sqrt(g2) / (2 * mw_rabi)) ** 2
        total += (1 - flip) * p0_n[m] + flip * (1.0 / 3 - p0_n[m])
    return total


class Characterize(Workload):
    """Characterization: FID synthesis and fit, ODMR spectra, repeated gates, CLI ODMR."""

    name = "characterize"
    block_counts = {"cg_repeat": 3, "cli_odmr": 2, "odmr": 3, "fid": 12}
    cli_twins = {"characterize": ("cli_odmr", "odmr")}

    def _block(self, rng, index):
        c = self.block_counts
        tasks = [self._cg(rng) for _ in range(c["cg_repeat"])]
        tasks += [self._odmr(rng) for _ in range(c["odmr"])]
        tasks += [self._cli_odmr(rng) for _ in range(c["cli_odmr"])]
        # stratified node counts and grid sizes keep the FID cost per block steady
        half = c["fid"] // 2
        for nodes in (21, 41):
            for stratum in rng.permutation(half):
                points = int(60 + (stratum + rng.uniform()) * 80 / half)
                tasks.append(self._fid(rng, nodes, points))
        return [tasks[i] for i in rng.permutation(len(tasks))]

    def _cg(self, rng):
        k_max = int(rng.integers(20, 41))
        p = float(rng.uniform(0.97, 0.999))
        seed = int(rng.integers(2**31))
        noise_rng = np.random.default_rng(seed)

        def run(api):
            curve = api.repeated_cg(k_max, p, READOUT_SIGMA, noise_rng)
            return curve, api.fit_flip_probability(curve)

        def check(out):
            curve, (p_hat, _) = out
            ks = np.arange(k_max + 1)
            expect(bool((curve[:, 0] == ks).all()), "repeated_cg k column wrong")
            replay = np.random.default_rng(seed).normal(0.0, READOUT_SIGMA, size=k_max + 1)
            residue = float(np.abs(curve[:, 1] - replay - p ** ks.astype(float)).max())
            expect(residue <= 1e-12, f"repeated_cg off p^k by {residue}")
            expect(abs(p_hat - p) <= 0.005, f"p_hat {p_hat} vs p {p}")
            return {}

        spec = {"k_max": k_max, "p": p, "seed": seed}
        return Task("cg_repeat", spec, json.dumps(spec), run, check)

    def _odmr(self, rng):
        center = NvModel().mw_transition(0) + rng.uniform(-1e6, 1e6)
        span = rng.uniform(10e6, 14e6)
        freqs = np.linspace(center - span / 2, center + span / 2, ODMR_POINTS)
        args = {
            "apply_cg": bool(rng.integers(2)),
            "p": float(rng.uniform(0.6, 1.0)),
            "mw_rabi": float(rng.uniform(0.2e6, 0.6e6)),
            "cg_variant": int(rng.integers(1, 4)),
        }

        def run(api):
            return api.odmr_spectrum(freqs, **args)

        def check(curve):
            expect(bool((curve[:, 0] == freqs).all()), "ODMR frequency column wrong")
            residue = float(np.abs(curve[:, 1] - odmr_closed_form(freqs, **args)).max())
            expect(residue <= 1e-12, f"ODMR off the Rabi formula by {residue}")
            return {}

        spec = args | {"center": float(center), "span": float(span)}
        return Task("odmr", spec, json.dumps(spec, sort_keys=True), run, check)

    def _cli_odmr(self, rng):
        p = float(rng.uniform(0.6, 1.0))
        apply_cg = bool(rng.integers(2))
        argv = ["characterize", "odmr", "--points", str(ODMR_POINTS), "--p", repr(p),
                "--seed", str(int(rng.integers(2**31)))] + (["--cg"] if apply_cg else [])

        def run(api):
            return run_cli(api, argv)

        def check(out):
            outputs = cli_record(out)["outputs"]
            model = NvModel()
            center = model.mw_transition(0)
            freqs = np.linspace(center - 6e6, center + 6e6, ODMR_POINTS)
            library_min = float(odmr_spectrum(freqs, apply_cg=apply_cg, p=p)[:, 1].min())
            expect(outputs["min_p0"] == library_min, "CLI ODMR minimum differs from the library")
            spacing = abs(model.mw_transition(1) - center)
            expect(outputs["dip_spacing_hz"] == spacing, "CLI ODMR dip spacing wrong")
            return {}

        return Task("cli_odmr", {"argv": argv}, json.dumps(argv), run, check)

    def _fid(self, rng, nodes, points):
        t2 = float(rng.uniform(30e-6, 120e-6))
        delta_ref = float(rng.uniform(20e3, 80e3))
        seed = int(rng.integers(2**31))
        model = ImperfectionModel(t2_star=t2)
        t_grid = np.linspace(0.0, 2.0 * t2, points)
        noise_rng = np.random.default_rng(seed)

        def run(api):
            curve = api.fid_curve(
                model, t_grid, delta_ref=delta_ref, n_quadrature=nodes,
                readout_sigma=READOUT_SIGMA, rng=noise_rng,
            )
            return curve, api.fit_gaussian_decay(curve)

        def check(out):
            curve, (t2_hat, _) = out
            replay = np.random.default_rng(seed).normal(0.0, READOUT_SIGMA, size=points)
            closed = (1 + np.exp(-((t_grid / t2) ** 2)) * np.cos(2 * np.pi * delta_ref * t_grid)) / 2
            residue = float(np.abs(curve[:, 1] - replay - closed).max())
            expect(residue <= 1e-8, f"FID off its closed form by {residue}")
            rel_err = abs(t2_hat - t2) / t2
            expect(rel_err <= 0.05, f"fitted T2* off by {rel_err:.2%}")
            return {"fit_rel_err": rel_err}

        spec = {"t2_star": t2, "delta_ref": delta_ref, "points": points, "nodes": nodes, "seed": seed}
        return Task("fid", spec, json.dumps(spec, sort_keys=True), run, check)


WORKLOADS = {w.name: w for w in (IdealSweep, NvSweep, Characterize)}
