"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``)."""

import time

import numpy as np
import pytest

from nvlgi.noise import ImperfectionModel, fid_curve, fit_gaussian_decay
from nvlgi.nv import (
    assemble_lg,
    fit_flip_probability,
    lg_run,
    odmr_spectrum,
    population_table,
    postselected_weights,
    repeated_cg,
    NvModel,
)
from nvlgi.protocol import (
    CorrelatorSet,
    UpdateRule,
    analytic_correlators,
    find_max_k3,
    k3_protocol,
    rotation_unitary,
    standard_qubit_scheme,
    standard_qutrit_scheme,
)

from conftest import classical_extrema, random_density, random_unitary

THETA_STAR = 0.416 * np.pi
VN = standard_qutrit_scheme(UpdateRule.VON_NEUMANN)


def report(number, description, checks):
    try:
        checks()
    except Exception:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def test_criterion_1_ideal_three_level_maximum():
    def checks():
        find_max_k3(VN, 100)  # warm-up: JIT-free but first-call numpy setup
        start = time.perf_counter()
        theta_star, k_max = find_max_k3(VN, 10_000)
        elapsed = time.perf_counter() - start
        assert abs(k_max - 1.756) <= 1e-3
        assert 0.41 * np.pi <= theta_star <= 0.42 * np.pi
        assert elapsed < 1.0

    report(1, "ideal qutrit maximum K3=1.756 at theta in [0.41pi, 0.42pi]", checks)


def test_criterion_2_luders_bound():
    def checks():
        scheme = standard_qubit_scheme(UpdateRule.LUDERS)
        find_max_k3(scheme, 100)  # warm-up: first-call numpy setup
        start = time.perf_counter()
        _, k_max = find_max_k3(scheme, 10_000)
        elapsed = time.perf_counter() - start
        assert abs(k_max - 1.5) <= 1e-6
        assert elapsed < 1.0

    report(2, "Luders-rule maximum 1.5 over theta in [0, pi]", checks)


def test_criterion_3_macrorealist_bounds():
    def checks():
        start = time.perf_counter()
        for n in range(3, 11):
            lo, hi = classical_extrema(n)
            assert hi == n - 2
            assert lo == (-n if n % 2 else -(n - 2))
        assert time.perf_counter() - start < 5.0

    report(3, "classical extrema (-n, n-2) odd / (-(n-2), n-2) even, n=3..10", checks)


def test_criterion_4_oracle_equivalence():
    def checks():
        rng = np.random.default_rng(416)
        for theta in rng.uniform(0, np.pi, 100):
            a = analytic_correlators(theta)
            p = k3_protocol(theta, VN)
            e = assemble_lg(population_table(theta))
            for x, y in ((a, p), (p, e)):
                assert abs(x.q2_mean - y.q2_mean) < 1e-10
                assert abs(x.q2q3_mean - y.q2q3_mean) < 1e-10
                assert abs(x.q3_mean - y.q3_mean) < 1e-10

    report(4, "analytic = protocol = INRM population assembly to 1e-10", checks)


def test_criterion_5_noisy_reproduction(capsys):
    def checks():
        start = time.perf_counter()
        model = ImperfectionModel(
            t2_star=62e-6, pol_e=0.95, pol_n=0.98, flip_prob_p=0.995, n_samples=21
        )
        c = lg_run(THETA_STAR, model)
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(
                f"\n  K3 simulated = {c.k3:.4f} "
                f"(reference simulation 1.632, experiment 1.625 +/- 0.022)"
            )
        assert 1.60 <= c.k3 <= 1.66
        assert c.k3 - 1.5 >= 0.1  # beyond the Luders bound by a clear margin
        assert elapsed < 30.0

    report(5, "noisy NV run lands in [1.60, 1.66] and exceeds 1.5 by >= 0.1", checks)


def test_criterion_6_sigma_t2star_duality():
    def checks():
        t2 = 62e-6
        t_grid = np.linspace(0, 2 * t2, 20)
        curve = fid_curve(ImperfectionModel(t2_star=t2), t_grid, delta_ref=0.0,
                          n_quadrature=41)
        envelope = 2 * curve[:, 1] - 1
        assert np.abs(envelope - np.exp(-((t_grid / t2) ** 2))).max() < 1e-6

        misses = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            grid = np.linspace(0, 2.5 * t2, 100)
            noisy = fid_curve(
                ImperfectionModel(t2_star=t2), grid, delta_ref=50e3,
                readout_sigma=0.01, rng=rng, n_quadrature=21,
            )
            t2_hat, _ = fit_gaussian_decay(noisy)
            misses.append(abs(t2_hat - t2) / t2)
        assert max(misses) < 0.02

    report(6, "FID envelope exp(-(t/T2*)^2) to 1e-6; fit within 2% over 100 seeds", checks)


def test_criterion_7_flip_probability_characterization():
    def checks():
        for seed in range(100):
            rng = np.random.default_rng(7000 + seed)
            curve = repeated_cg(30, 0.995, readout_sigma=0.01, rng=rng)
            p_hat, _ = fit_flip_probability(curve)
            assert abs(p_hat - 0.995) < 0.005

        m = NvModel()
        center = m.mw_transition(0)
        freqs = np.linspace(center - 5e6, center + 5e6, 401)
        spectra = {
            p: odmr_spectrum(freqs, apply_cg=True, p=p)[:, 1] for p in (0.6, 0.8, 1.0)
        }
        for pa, pb in ((0.6, 0.8), (0.6, 1.0), (0.8, 1.0)):
            assert np.abs(spectra[pa] - spectra[pb]).max() >= 0.1

    report(7, "repeated-CG fit within 0.005; ODMR spectra pairwise gap >= 0.1", checks)


def test_criterion_8_property_suites():
    def checks():
        rng = np.random.default_rng(88)
        lu = standard_qutrit_scheme(UpdateRule.LUDERS)
        for _ in range(1000):
            rho = random_density(rng, 3)
            scheme = VN if rng.random() < 0.5 else lu
            total = sum(np.trace(k @ rho @ k).real for k in scheme._update_ops[1])
            assert abs(total - 1.0) < 1e-10

        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            rho = random_density(rng, dim)
            u = random_unitary(rng, dim)
            assert abs(np.trace(u @ rho @ u.conj().T).real - 1.0) < 1e-12

        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, 1000):
            u = rotation_unitary(theta)
            assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-10

        for _ in range(1000):
            q2, q2q3, q3 = rng.uniform(-1, 1, 3)
            c = CorrelatorSet(q2, q2q3, q3)
            assert abs(c.k3 - (q2 + q2q3 - q3)) < 1e-12

        for _ in range(1000):
            model = ImperfectionModel(
                t2_star=None,
                pol_e=rng.uniform(0.7, 1.0),
                pol_n=rng.uniform(0.7, 1.0),
                flip_prob_p=rng.uniform(0.1, 1.0),
                n_samples=1,
            )
            table = population_table(rng.uniform(0, np.pi), model)
            assert np.all(postselected_weights(table) <= 1.0 + 1e-10)

    report(8, "1000-instance property suites (normalization, trace, unitarity, "
              "sum identity, postselection weight)", checks)
