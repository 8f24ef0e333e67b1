import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nvlgi.noise import (
    Averaging,
    FitError,
    ImperfectionModel,
    dephasing_evolution,
    detuning_ensemble,
    electron_sz,
    fid_curve,
    fit_gaussian_decay,
    imperfect_initial_state,
    sample_detunings,
    sigma_from_t2star,
)

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
    def test_gauss_hermite_up_to_370_nodes(self):
        # numpy's rule underflows harmlessly inside from 269 nodes on
        deltas, weights = detuning_ensemble(ImperfectionModel(n_samples=370))
        assert np.isfinite(deltas).all()
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_samples", [371, 400])
    def test_gauss_hermite_overflow_is_value_error(self, n_samples):
        # numpy 2.4 gives all-zero weights at 371 nodes and NaN weights beyond
        with pytest.raises(ValueError, match="n_samples"):
            detuning_ensemble(ImperfectionModel(n_samples=n_samples))


class TestInitialState:
    def test_perfect_polarization(self):
        rho = imperfect_initial_state(ImperfectionModel.ideal())
        assert rho[3, 3].real == pytest.approx(1.0)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_nominal_populations(self):
        rho = imperfect_initial_state(ImperfectionModel(pol_e=0.95, pol_n=0.98))
        assert rho[3, 3].real == pytest.approx(0.95 * 0.98)
        assert rho[0, 0].real == pytest.approx(0.05 * 0.98)
        assert rho[4, 4].real == pytest.approx(0.95 * 0.01)
        assert np.abs(rho - np.diag(np.diag(rho))).max() == 0
        assert np.trace(rho).real == pytest.approx(1.0)


class TestDephasingEvolution:
    def electron_superposition(self):
        rho = np.full((2, 2), 0.5, dtype=complex)
        return rho

    def test_zero_sigma_is_noiseless(self):
        rho = self.electron_superposition()
        h = 2 * np.pi * 1e4 * electron_sz(2)
        clean = dephasing_evolution(rho, h, 5e-6, (np.zeros(1), np.ones(1)))
        noisy = dephasing_evolution(
            rho, h, 5e-6,
            detuning_ensemble(ImperfectionModel(t2_star=None, n_samples=7,
                                                pol_e=1, pol_n=1, flip_prob_p=1)),
        )
        assert np.abs(clean - noisy).max() < 1e-14

    def test_gaussian_coherence_decay(self):
        # characteristic function: <exp(i 2 pi delta t)> = exp(-2 pi^2 s^2 t^2)
        model = ImperfectionModel(t2_star=T2, n_samples=41)
        ensemble = detuning_ensemble(model)
        rho = self.electron_superposition()
        for t in np.linspace(0, 1.5 * T2, 8):
            out = dephasing_evolution(rho, np.zeros((2, 2)), t, ensemble)
            assert abs(out[0, 1]) == pytest.approx(0.5 * np.exp(-((t / T2) ** 2)), abs=1e-6)

    def test_nuclear_coherence_unaffected(self):
        # superposition of |4> and |5> lives in the zero-phase |0>e manifold
        model = ImperfectionModel(t2_star=T2, n_samples=21)
        ensemble = detuning_ensemble(model)
        rho = np.zeros((6, 6), dtype=complex)
        rho[np.ix_([3, 4], [3, 4])] = 0.5
        out = dephasing_evolution(rho, np.zeros((6, 6)), 10 * T2, ensemble)
        assert np.abs(out - rho).max() < 1e-12

    def test_trace_preserving(self, rng):
        from conftest import random_density

        ensemble = detuning_ensemble(ImperfectionModel(t2_star=T2, n_samples=11))
        for _ in range(20):
            rho = random_density(rng, 6)
            h = np.diag(rng.normal(size=6) * 1e5).astype(complex)
            out = dephasing_evolution(rho, h, 20e-6, ensemble)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-12

    @settings(deadline=None)
    @given(
        dim=st.sampled_from([2, 6]),
        seed=st.integers(0, 2**31),
        t2_star=st.floats(10e-6, 200e-6),
        n_samples=st.integers(1, 41),
        averaging=st.sampled_from(Averaging),
        durations=hnp.arrays(float, st.integers(1, 5), elements=st.floats(0.0, 100e-6)),
    )
    def test_matches_per_sample_expm(self, dim, seed, t2_star, n_samples, averaging, durations):
        from conftest import random_density

        rng = np.random.default_rng(seed)
        rho = random_density(rng, dim)
        h = np.diag(rng.normal(size=dim) * 1e5)
        model = ImperfectionModel(t2_star=t2_star, n_samples=n_samples,
                                  averaging=averaging, seed=seed)
        deltas, weights = detuning_ensemble(model)
        out = dephasing_evolution(rho, h, durations, (deltas, weights))
        assert out.shape == durations.shape + rho.shape
        sz = electron_sz(dim)
        for t, got in zip(durations, out):
            ref = np.zeros_like(rho)
            for delta0, weight in zip(deltas, weights):
                u = scipy.linalg.expm(-1j * t * (h + 2 * np.pi * delta0 * sz))
                ref += weight * (u @ rho @ u.conj().T)
            assert np.abs(got - ref).max() < 1e-13

    def test_rejects_non_diagonal_hamiltonian(self):
        h = np.array([[0.0, 1e4], [1e4, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            dephasing_evolution(np.eye(2) / 2, h, 1e-6, (np.zeros(1), np.ones(1)))

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            dephasing_evolution(np.eye(2) / 2, np.zeros((2, 2)), -1.0, (np.zeros(1), np.ones(1)))


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

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            fid_curve(ImperfectionModel(), np.array([-1.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_overflowing_quadrature(self):
        with pytest.raises(ValueError, match="n_samples"):
            fid_curve(ImperfectionModel(), np.linspace(0, T2, 10), n_quadrature=400)


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
