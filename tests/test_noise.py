import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nvlgi.noise import (
    MAX_HERMITE_NODES,
    Averaging,
    FitError,
    ImperfectionModel,
    _hermite_rule,
    detuning_ensemble,
    fid_curve,
    fit_gaussian_decay,
    sample_detunings,
    sigma_from_t2star,
)
from nvlgi.nv import population_table
from nvlgi.protocol import rotation_unitary

T2 = 62e-6


class TestImperfectionModel:
    def test_sigma_duality(self):
        model = ImperfectionModel(t2_star=T2)
        assert model.sigma_detuning * np.sqrt(2) * np.pi * T2 == pytest.approx(1.0, abs=1e-12)
        assert model.sigma_detuning == pytest.approx(3.63e3, rel=1e-2)

    def test_ideal_factory(self):
        model = ImperfectionModel.ideal()
        assert model.sigma_detuning == 0.0
        assert model.pol_e == model.pol_n == model.flip_prob_p == 1.0

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            ImperfectionModel(pol_e=1.2)
        with pytest.raises(ValueError):
            ImperfectionModel(n_samples=0)
        with pytest.raises(ValueError):
            ImperfectionModel(t2_star=-1e-6)


class TestSampleDetunings:
    def test_zero_sigma(self):
        samples = sample_detunings(ImperfectionModel(t2_star=None, n_samples=5,
                                                     pol_e=1, pol_n=1, flip_prob_p=1))
        assert all(s.delta0 == 0.0 for s in samples)
        assert sum(s.weight for s in samples) == pytest.approx(1.0)

    def test_gauss_hermite_moments(self):
        model = ImperfectionModel(t2_star=T2, n_samples=21)
        samples = sample_detunings(model)
        sigma2 = model.sigma_detuning**2
        assert sum(s.weight for s in samples) == pytest.approx(1.0, abs=1e-12)
        second = sum(s.weight * s.delta0**2 for s in samples)
        assert second == pytest.approx(sigma2, rel=1e-10)
        fourth = sum(s.weight * s.delta0**4 for s in samples)
        assert fourth == pytest.approx(3 * sigma2**2, rel=1e-10)

    def test_monte_carlo_variance(self):
        model = ImperfectionModel(
            t2_star=T2, n_samples=10_000, averaging=Averaging.MONTE_CARLO, seed=3
        )
        draws = np.array([s.delta0 for s in sample_detunings(model)])
        sigma = model.sigma_detuning
        # sample variance concentrates as sigma^2 * sqrt(2/n); allow 5 sigma
        assert abs(draws.var() - sigma**2) < 5 * sigma**2 * np.sqrt(2 / 10_000)
        assert abs(draws.mean()) < 5 * sigma / np.sqrt(10_000)

    def test_deterministic_given_seed(self):
        model = ImperfectionModel(averaging=Averaging.MONTE_CARLO, n_samples=50, seed=9)
        assert sample_detunings(model) == sample_detunings(model)

    @pytest.mark.parametrize("averaging", list(Averaging))
    def test_objects_match_arrays(self, averaging):
        model = ImperfectionModel(n_samples=13, averaging=averaging, seed=4)
        deltas, weights = detuning_ensemble(model)
        samples = sample_detunings(model)
        assert [s.delta0 for s in samples] == deltas.tolist()
        assert [s.weight for s in samples] == weights.tolist()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_samples", [370, 371, 400, 1000])
    def test_gauss_hermite_from_370_nodes(self, n_samples):
        # numpy's hermgauss overflows from 371 nodes on; Golub-Welsch does not
        model = ImperfectionModel(t2_star=T2, n_samples=n_samples)
        deltas, weights = detuning_ensemble(model)
        sigma2 = model.sigma_detuning**2
        assert np.isfinite(deltas).all() and np.isfinite(weights).all()
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert weights @ deltas**2 == pytest.approx(sigma2, rel=1e-12)
        assert weights @ deltas**4 == pytest.approx(3 * sigma2**2, rel=1e-12)

    def test_gauss_hermite_refuses_nodes_beyond_the_cap(self):
        # refused before the (n x n) Jacobi matrix, which alone would take 8 MB
        model = ImperfectionModel(n_samples=MAX_HERMITE_NODES + 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n_samples"):
                detuning_ensemble(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        deltas, _ = detuning_ensemble(model.with_(averaging=Averaging.MONTE_CARLO))
        assert len(deltas) == MAX_HERMITE_NODES + 1


class TestHermiteRule:
    @settings(deadline=None)
    @given(n=st.integers(1, 150))
    def test_matches_scipy(self, n):
        nodes, weights = _hermite_rule(n)
        ref_nodes, ref_weights = scipy.special.roots_hermite(n)
        assert np.abs(nodes - ref_nodes).max() <= 1e-13
        assert np.abs(weights - ref_weights / np.sqrt(np.pi)).max() <= 1e-13

    def test_cached_arrays_are_read_only(self):
        model = ImperfectionModel(n_samples=21)
        first = [a.copy() for a in (*detuning_ensemble(model), *_hermite_rule(21))]
        for array in (*detuning_ensemble(model), *_hermite_rule(21)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        for got, want in zip((*detuning_ensemble(model), *_hermite_rule(21)), first):
            assert np.array_equal(got, want)


class TestInitialState:
    # with no rotation and no gate (variant 4 at theta = 0) the populations are the
    # initial state's diagonal
    def test_perfect_polarization(self):
        pops = population_table(0.0, ImperfectionModel.ideal())[:, 3]
        assert pops[3] == pytest.approx(1.0)
        assert pops.sum() == pytest.approx(1.0)

    def test_nominal_populations(self):
        pops = population_table(0.0, ImperfectionModel(pol_e=0.95, pol_n=0.98))[:, 3]
        expected = [0.05 * 0.98, 0.05 * 0.01, 0.05 * 0.01, 0.95 * 0.98, 0.95 * 0.01, 0.95 * 0.01]
        assert pops == pytest.approx(expected, abs=1e-15)


class TestFidCurve:
    def test_starts_at_one(self):
        curve = fid_curve(ImperfectionModel(t2_star=T2), np.array([0.0]))
        assert curve[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_envelope_at_t2star(self):
        # reference detuning 0 isolates the envelope: P0 = (1 + env)/2
        curve = fid_curve(ImperfectionModel(t2_star=T2), np.array([T2]), delta_ref=0.0)
        env = 2 * curve[0, 1] - 1
        assert env == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_matches_closed_form(self):
        t_grid = np.linspace(0, 2 * T2, 20)
        delta = 40e3
        curve = fid_curve(ImperfectionModel(t2_star=T2), t_grid, delta_ref=delta)
        oracle = (1 + np.exp(-((t_grid / T2) ** 2)) * np.cos(2 * np.pi * delta * t_grid)) / 2
        assert np.abs(curve[:, 1] - oracle).max() < 1e-6

    def test_noiseless_is_a_cosine(self):
        t_grid = np.linspace(0, 2 * T2, 50)
        delta = 37e3
        curve = fid_curve(ImperfectionModel(t2_star=None), t_grid, delta_ref=delta)
        assert np.abs(curve[:, 1] - (1 + np.cos(2 * np.pi * delta * t_grid)) / 2).max() < 1e-14

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        t2_star=st.floats(10e-6, 200e-6),
        delta_ref=st.floats(-80e3, 80e3),
        n_quadrature=st.integers(1, 41),
        averaging=st.sampled_from(Averaging),
        durations=hnp.arrays(float, st.integers(1, 5), elements=st.floats(0.0, 100e-6)),
    )
    def test_matches_per_sample_ramsey(self, seed, t2_star, delta_ref, n_quadrature,
                                       averaging, durations):
        # pi/2 - wait - pi/2 on |0>e, the wait under 2*pi*(delta_ref + delta0)*diag(1, 0)
        model = ImperfectionModel(t2_star=t2_star, averaging=averaging, seed=seed)
        curve = fid_curve(model, durations, delta_ref=delta_ref, n_quadrature=n_quadrature)
        deltas, weights = detuning_ensemble(model.with_(n_samples=n_quadrature))
        half = rotation_unitary(np.pi / 2, 2)
        ket0 = np.array([0.0, 1.0])
        for t, p0 in zip(durations, curve[:, 1]):
            ref = 0.0
            for delta0, weight in zip(deltas, weights):
                phase = 2 * np.pi * (delta_ref + delta0) * t
                wait = scipy.linalg.expm(-1j * phase * np.diag([1.0, 0.0]))
                ref += weight * abs(ket0 @ half.conj().T @ wait @ half @ ket0) ** 2
            assert abs(p0 - ref) < 1e-13

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            fid_curve(ImperfectionModel(), np.array([-1.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_quadrature_matches_closed_form(self):
        t_grid = np.linspace(0, 2 * T2, 20)
        delta = 40e3
        curve = fid_curve(ImperfectionModel(t2_star=T2), t_grid, delta_ref=delta,
                          n_quadrature=400)
        oracle = (1 + np.exp(-((t_grid / T2) ** 2)) * np.cos(2 * np.pi * delta * t_grid)) / 2
        assert np.abs(curve[:, 1] - oracle).max() < 1e-12


class TestFitGaussianDecay:
    def synthetic(self, noise=0.0, seed=0, points=100):
        rng = np.random.default_rng(seed)
        t_grid = np.linspace(0, 2.5 * T2, points)
        return fid_curve(
            ImperfectionModel(t2_star=T2), t_grid, delta_ref=50e3,
            readout_sigma=noise, rng=rng, n_quadrature=21,
        )

    def test_noiseless_self_consistency(self):
        t2_hat, err = fit_gaussian_decay(self.synthetic())
        assert t2_hat == pytest.approx(T2, rel=1e-3)
        assert err < 0.01 * T2

    def test_with_readout_noise(self):
        misses = [
            abs(fit_gaussian_decay(self.synthetic(noise=0.01, seed=s))[0] - T2) / T2
            for s in range(30)
        ]
        assert max(misses) < 0.02

    def test_phase_fitted_near_zero(self):
        # this fit lands at a phase of ~3e-10, where a finite-difference
        # Jacobian step vanishes and the covariance came out infinite
        t2 = 4.099226895125179e-05
        curve = fid_curve(
            ImperfectionModel(t2_star=t2), np.linspace(0, 2 * t2, 95),
            delta_ref=37856.877042708176, n_quadrature=21, readout_sigma=0.01,
            rng=np.random.default_rng(1199169501),
        )
        t2_hat, err = fit_gaussian_decay(curve)
        assert t2_hat == pytest.approx(t2, rel=0.02)
        assert 0 < err < 0.01 * t2

    def test_constant_signal_is_error(self):
        points = np.column_stack([np.linspace(0, 1e-4, 30), np.full(30, 0.5)])
        with pytest.raises(FitError):
            fit_gaussian_decay(points)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            fit_gaussian_decay(np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", [11, 13])
    def test_unresolved_estimate_is_error(self, seed):
        # readout noise as large as the signal over 30 points, as `characterize fid
        # --noise 1 --points 30` draws it: the fit lands at T2* = 7.8e-3 +- 4.4e3 s (seed
        # 11) and 3.9e-6 +- 6.4e-3 s (seed 13), an error larger than the estimate
        curve = fid_curve(
            ImperfectionModel(t2_star=T2, seed=seed), np.linspace(0.0, 2 * T2, 30),
            delta_ref=50e3, readout_sigma=1.0, rng=np.random.default_rng(seed),
        )
        with pytest.raises(FitError, match="unresolved"):
            fit_gaussian_decay(curve)


def _curve_fit_t2(points):
    """T2* from scipy's curve_fit (MINPACK) with the fit's model, start and span units;
    None where fit_gaussian_decay should raise FitError."""
    t, y = points[:, 0], points[:, 1]
    span = t.max() - t.min()
    u = t / span
    freqs = np.fft.rfftfreq(len(u), np.median(np.diff(np.sort(u))))
    spectrum = np.abs(np.fft.rfft(y - y.mean()))
    p0 = [(y.max() - y.min()) / 2, 0.5, freqs[1:][spectrum[1:].argmax()], 0.0, y.mean()]

    def model(u, amp, t2, delta, phase, offset):
        return amp * np.exp(-((u / t2) ** 2)) * np.cos(2 * np.pi * delta * u + phase) + offset

    def jacobian(u, amp, t2, delta, phase, offset):
        env, arg = np.exp(-((u / t2) ** 2)), 2 * np.pi * delta * u + phase
        c, s = env * np.cos(arg), env * np.sin(arg)
        return np.column_stack(
            [c, 2 * amp * c * u**2 / t2**3, -2 * np.pi * amp * s * u, -amp * s, np.ones_like(u)]
        )

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)
            popt, pcov = scipy.optimize.curve_fit(model, u, y, p0=p0, jac=jacobian, maxfev=20000)
    except RuntimeError:
        return None
    if not np.isfinite(pcov[1, 1]) or abs(popt[1]) > 100:
        return None
    return abs(popt[1]) * span


def _fit_or_none(points):
    try:
        return fit_gaussian_decay(points)[0]
    except FitError:
        return None


def test_fit_matches_curve_fit_on_seeded_curves():
    # noisy curves drawn as the benchmark's fid class draws them, and the exact-fit
    # family delta_ref -> 0 of noiseless curves at the command's default grid
    rng = np.random.default_rng(2023)
    noisy = []
    for _ in range(120):
        t2, delta_ref = rng.uniform(30e-6, 120e-6), rng.uniform(20e3, 80e3)
        grid = np.linspace(0.0, 2.0 * t2, int(rng.integers(60, 141)))
        curve = fid_curve(ImperfectionModel(t2_star=t2), grid, delta_ref=delta_ref,
                          n_quadrature=int(rng.choice([21, 41])), readout_sigma=0.01,
                          rng=np.random.default_rng(int(rng.integers(2**31))))
        noisy.append((t2, curve))
    grid = np.linspace(0.0, 2 * T2, 101)
    noiseless = [(T2, fid_curve(ImperfectionModel(t2_star=T2), grid, delta_ref=d))
                 for d in np.linspace(0.0, 5e3, 26)]
    misses = {"fit": 0.0, "curve_fit": 0.0}
    for i, (t2, curve) in enumerate(noisy + noiseless):
        want, got = _curve_fit_t2(curve), _fit_or_none(curve)
        assert want is None or got is not None, f"curve {i}: FitError where curve_fit fits"
        if i < len(noisy) and want is not None:
            misses["fit"] += abs(got - t2) / t2
            misses["curve_fit"] += abs(want - t2) / t2
    # both fits stop at the same optimum to rounding, so allow rounding in the sum
    assert misses["fit"] <= misses["curve_fit"] * (1 + 1e-9), misses
