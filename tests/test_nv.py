import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nvlgi.noise import Averaging, ImperfectionModel, sample_detunings
from nvlgi.nv import (
    DegeneratePostselectionError,
    NvModel,
    assemble_lg,
    fit_flip_probability,
    lg_run,
    odmr_spectrum,
    population_table,
    postselected_weights,
    repeated_cg,
    run_inrm_experiment,
)
from nvlgi.nv import _inrm_populations  # the block kernel behind population_table
from nvlgi.protocol import UpdateRule, k3_protocol, rotation_unitary, standard_qutrit_scheme

from conftest import random_density, six_level_gate, six_level_initial_state

THETA_STAR = 0.416 * np.pi
VN = standard_qutrit_scheme(UpdateRule.VON_NEUMANN)

noisy_models = st.builds(
    ImperfectionModel,
    t2_star=st.floats(10e-6, 200e-6),
    pol_e=st.floats(0.5, 1.0),
    pol_n=st.floats(0.5, 1.0),
    flip_prob_p=st.floats(0.01, 1.0),
    n_samples=st.integers(1, 60),
    seed=st.integers(0, 2**31),
    averaging=st.sampled_from(Averaging),
)
thetas = st.floats(-2 * np.pi, 2 * np.pi)
mw_rabis = st.floats(5e3, 2e6)


def pulse_transfer(detuning, rabi):
    """Square pi-pulse population transfer at a detuning (Hz)."""
    g = np.hypot(rabi, detuning)
    return (rabi / g) ** 2 * np.sin(np.pi * g / (2 * rabi)) ** 2


def per_sample_population_table(theta, model, f_rabi, mw_rabi):
    """Reference: each detuning sample run on its own, summed with exact rounding."""
    u0 = np.kron(np.eye(2), rotation_unitary(theta))
    tau = theta / (np.sqrt(2) * np.pi * f_rabi)
    rho0 = six_level_initial_state(model)
    samples = sample_detunings(model)
    table = np.zeros((6, 4))
    for j in range(1, 5):
        terms = []
        for s in samples:
            u = np.exp(-2j * np.pi * s.delta0 * tau * np.array([1, 1, 1, 0, 0, 0]))[:, None] * u0
            rho = u @ rho0 @ u.conj().T
            if j != 4:
                p = model.flip_prob_p
                if mw_rabi is not None:
                    p *= pulse_transfer(s.delta0, mw_rabi)
                rho = six_level_gate(j, p, rho)
            rho = u @ rho @ u.conj().T
            terms.append(s.weight * np.diag(rho).real)
        table[:, j - 1] = [math.fsum(t[i] for t in terms) for i in range(6)]
    return table


def level6(i):
    rho = np.zeros((6, 6), dtype=complex)
    rho[i - 1, i - 1] = 1.0
    return rho


class TestHamiltonian:
    def test_matches_constant_arithmetic(self):
        # rebuild the diagonal by hand from the stated constants
        m = NvModel()
        expected = []
        for ms in (1, 0):
            for mi in (1, 0, -1):
                expected.append(
                    m.d_zfs * ms
                    + m.omega_e * ms
                    + m.q_quad * mi * mi
                    + m.omega_n * mi
                    + m.a_hf * mi * ms
                )
        assert np.allclose(m.level_energies(), np.array(expected))

    def test_hyperfine_split_mw_lines(self):
        m = NvModel()
        lines = [m.mw_transition(mi) for mi in (1, 0, -1)]
        assert lines[1] - lines[0] == pytest.approx(-m.a_hf)
        assert lines[2] - lines[1] == pytest.approx(-m.a_hf)
        assert abs(lines[1] - lines[0]) == pytest.approx(2.16e6)

    def test_mw_frequency_magnitude(self):
        # central electron transition close to the quoted 4.303 GHz
        assert NvModel().mw_transition(0) == pytest.approx(4.303e9, rel=1e-3)

    def test_rf_transitions_from_diagonal(self):
        # nuclear transitions |4>-|5> and |5>-|6> within the |0>e manifold
        m = NvModel()
        e = m.level_energies()
        w45, w56 = abs(e[3] - e[4]), abs(e[4] - e[5])
        assert w45 == pytest.approx(abs(m.q_quad + m.omega_n))
        assert w56 == pytest.approx(abs(m.q_quad - m.omega_n))
        assert w56 - w45 == pytest.approx(2 * m.omega_n)

    def test_zero_constants_give_zero(self):
        m = NvModel(d_zfs=0.0, q_quad=0.0, a_hf=0.0, b_field=0.0)
        assert np.abs(m.level_energies()).max() == 0


class TestControlledGate:
    # self-checks of the tests' six-level oracle, then the kernel against it
    def test_full_flip_unprotected(self):
        out = six_level_gate(1, 1.0, level6(5))  # |0>e|0>n
        assert np.allclose(out, level6(2))  # -> |1>e|0>n

    def test_protected_state_untouched(self, rng):
        rho = np.zeros((6, 6), dtype=complex)
        block = random_density(rng, 2)  # electron coherence in the |+1>n subspace
        rho[np.ix_([0, 3], [0, 3])] = block
        assert np.allclose(six_level_gate(1, 0.7, rho), rho, atol=1e-15)

    def test_partial_flip_probability(self):
        out = six_level_gate(1, 0.995, level6(5))
        assert out[1, 1].real == pytest.approx(0.995)
        assert out[4, 4].real == pytest.approx(0.005)

    def test_trace_preserving(self, rng):
        for _ in range(20):
            rho = random_density(rng, 6)
            out = six_level_gate(2, rng.uniform(0, 1), rho)
            assert abs(np.trace(out).real - 1.0) < 1e-12

    @settings(deadline=None)
    @given(
        variant=st.integers(1, 3),
        p=hnp.arrays(float, st.integers(1, 6), elements=st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_array_p_channel_is_trace_preserving_and_positive(self, variant, p, seed):
        rng = np.random.default_rng(seed)
        rho = np.array([random_density(rng, 6) for _ in p])
        out = six_level_gate(variant, p, rho)
        assert out.shape == p.shape + (6, 6)
        assert np.abs(np.trace(out, axis1=1, axis2=2) - 1.0).max() < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-12
        for pk, rk, ok in zip(p, rho, out):
            assert np.array_equal(six_level_gate(variant, float(pk), rk), ok)

    @settings(deadline=None)
    @given(
        model=noisy_models,
        theta=thetas,
        deltas=hnp.arrays(float, st.integers(1, 50), elements=st.floats(-1e6, 1e6)),
        mw_rabi=st.none() | mw_rabis,
        variants=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weighted_mean_of_gates_is_moment_form(
        self, model, theta, deltas, mw_rabi, variants, seed
    ):
        # the kernel averages the gate through E[q] and E[q^2] on 3x3 nuclear blocks; the
        # reference runs the 6x6 state through the oracle gate at every q and averages
        weights = np.random.default_rng(seed).uniform(0.1, 1.0, deltas.size)
        weights /= weights.sum()
        q = np.full(deltas.shape, model.flip_prob_p)
        if mw_rabi is not None:
            q *= pulse_transfer(deltas, mw_rabi)
        u = np.kron(np.eye(2), rotation_unitary(theta))
        rho = u @ six_level_initial_state(model) @ u.conj().T
        states = [
            rho if j == 4 else np.einsum("s,sij->ij", weights, six_level_gate(j, q, rho))
            for j in variants
        ]
        ref = np.array([np.diag(u @ state @ u.conj().T).real for state in states])
        pops = _inrm_populations(theta, variants, model, mw_rabi, deltas, weights)
        assert np.abs(pops - ref).max() < 1e-14


class TestInrmExperiment:
    def test_no_rotation_no_gate(self):
        pops = run_inrm_experiment(0.0, 4)
        assert pops[3] == pytest.approx(1.0)
        assert np.abs(np.delete(pops, 3)).max() < 1e-14

    def test_variant1_joint_probability(self):
        # survive-in-|+1> twice: |U_{+1,+1}|^4
        pops = run_inrm_experiment(THETA_STAR, 1)
        expected = ((1 + np.cos(THETA_STAR)) / 2) ** 4
        assert pops[3] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.158, abs=5e-4)

    def test_variant4_composed_rotation(self):
        pops = run_inrm_experiment(THETA_STAR, 4)
        expected = (1 - np.cos(2 * THETA_STAR)) ** 2 / 4
        assert pops[5] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8686, abs=5e-4)

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            run_inrm_experiment(0.1, 0)

    @settings(deadline=None)
    @given(
        model=noisy_models,
        theta=thetas,
        delta0=st.floats(-1e6, 1e6),
        mw_rabi=st.none() | mw_rabis,
    )
    def test_single_variant_is_row_of_four_variant_kernel(self, model, theta, delta0, mw_rabi):
        ensemble = np.array([delta0]), np.ones(1)
        table = _inrm_populations(theta, (1, 2, 3, 4), model, mw_rabi, *ensemble)
        for j in range(1, 5):
            pops = run_inrm_experiment(theta, j, model, delta0, mw_rabi=mw_rabi)
            assert np.abs(pops - table[j - 1]).max() <= 1e-15

    def test_columns_are_simplex(self, rng):
        for _ in range(5):
            model = ImperfectionModel(
                t2_star=rng.uniform(10e-6, 100e-6),
                pol_e=rng.uniform(0.8, 1.0),
                pol_n=rng.uniform(0.8, 1.0),
                flip_prob_p=rng.uniform(0.5, 1.0),
                n_samples=11,
            )
            table = population_table(rng.uniform(0, np.pi), model)
            assert np.allclose(table.sum(axis=0), 1.0, atol=1e-9)
            assert table.min() > -1e-12 and table.max() < 1 + 1e-12


class TestAssembly:
    def test_ideal_maximum(self):
        c = assemble_lg(population_table(THETA_STAR))
        assert c.k3 == pytest.approx(1.756, abs=1e-3)

    def test_theta_zero(self):
        c = assemble_lg(population_table(0.0))
        assert (c.q2_mean, c.q2q3_mean, c.q3_mean) == pytest.approx((1, 1, 1))

    def test_matches_protocol_engine(self, rng):
        for theta in rng.uniform(0, np.pi, 100):
            exp = assemble_lg(population_table(theta))
            ref = k3_protocol(theta, VN)
            assert abs(exp.q2_mean - ref.q2_mean) < 1e-10
            assert abs(exp.q2q3_mean - ref.q2q3_mean) < 1e-10
            assert abs(exp.q3_mean - ref.q3_mean) < 1e-10

    def test_postselected_weight_bounded(self, rng):
        for _ in range(20):
            model = ImperfectionModel(
                pol_e=rng.uniform(0.8, 1.0),
                pol_n=rng.uniform(0.8, 1.0),
                flip_prob_p=rng.uniform(0.3, 1.0),
                n_samples=5,
            )
            weights = postselected_weights(population_table(rng.uniform(0, np.pi), model))
            assert np.all(weights <= 1.0 + 1e-10)

    @settings(deadline=None)
    @given(model=noisy_models, theta=thetas, mw_rabi=mw_rabis)
    def test_postselected_weight_bounded_with_finite_gate(self, model, theta, mw_rabi):
        table = population_table(theta, model, mw_rabi=mw_rabi)
        assert np.all(postselected_weights(table) <= 1.0 + 1e-10)

    @settings(deadline=None)
    @given(
        model=noisy_models,
        theta=thetas,
        f_rabi=st.floats(5e3, 50e3),
        mw_rabi=st.none() | mw_rabis,
    )
    def test_batched_table_matches_per_sample_loop(self, model, theta, f_rabi, mw_rabi):
        # the reference applies the detuning phase over a pulse of any length: it cancels
        table = population_table(theta, model, mw_rabi=mw_rabi)
        ref = per_sample_population_table(theta, model, f_rabi, mw_rabi)
        assert np.abs(table - ref).max() < 1e-14

    @pytest.mark.parametrize(
        "averaging, n_samples",
        [(Averaging.MONTE_CARLO, 400), (Averaging.GAUSS_HERMITE, 61), (Averaging.GAUSS_HERMITE, 201)],
    )
    def test_large_ensembles_match_per_sample_loop(self, averaging, n_samples):
        # a slow pulse against a wide ensemble spreads the flip probability
        model = ImperfectionModel(t2_star=20e-6, n_samples=n_samples, averaging=averaging, seed=5)
        for theta, mw_rabi in ((THETA_STAR, 10e3), (-1.1, 40e3)):
            table = population_table(theta, model, mw_rabi=mw_rabi)
            ref = per_sample_population_table(theta, model, 20e3, mw_rabi)
            assert np.abs(table - ref).max() < 1e-14

    @settings(deadline=None)
    @given(
        model=noisy_models,
        n_samples=st.integers(1, 2000),
        theta=thetas,
    )
    def test_without_finite_gate_no_ensemble_acts(self, model, n_samples, theta):
        # the detuning phase cancels, so no ensemble is drawn at any n_samples
        model = model.with_(n_samples=n_samples)
        single = model.with_(t2_star=None, n_samples=1)
        assert np.array_equal(population_table(theta, model), population_table(theta, single))

    def test_mw_rabi_is_keyword_only(self):
        model = ImperfectionModel()
        with pytest.raises(TypeError):
            population_table(THETA_STAR, model, 30e3)
        with pytest.raises(TypeError):
            lg_run(THETA_STAR, model, 30e3)
        with pytest.raises(TypeError):
            run_inrm_experiment(THETA_STAR, 1, model, 0.0, 30e3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_quadrature_matches_41_nodes(self):
        # E[q] and E[q^2] of the flip probability converge well before 41 nodes
        table = population_table(THETA_STAR, ImperfectionModel(n_samples=400), mw_rabi=1e5)
        ref = population_table(THETA_STAR, ImperfectionModel(n_samples=41), mw_rabi=1e5)
        assert np.abs(table - ref).max() < 1e-12

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            assemble_lg(np.zeros((5, 4)))

    def test_empty_postselection_is_error(self):
        table = np.zeros((6, 4))
        table[0, :] = 1.0  # all weight outside the kept levels
        with pytest.raises(DegeneratePostselectionError):
            assemble_lg(table)


class TestLgRun:
    def test_ideal(self):
        assert lg_run(THETA_STAR).k3 == pytest.approx(1.7564737, abs=1e-6)

    def test_nominal_noise_window(self):
        c = lg_run(THETA_STAR, ImperfectionModel())
        assert 1.60 <= c.k3 <= 1.66

    def test_deterministic_given_seed(self):
        model = ImperfectionModel(averaging=Averaging.MONTE_CARLO, n_samples=200, seed=7)
        a = lg_run(THETA_STAR, model)
        b = lg_run(THETA_STAR, model)
        assert a == b

    def test_quadrature_vs_monte_carlo(self):
        gh = lg_run(THETA_STAR, ImperfectionModel(n_samples=21))
        mc = lg_run(
            THETA_STAR,
            ImperfectionModel(averaging=Averaging.MONTE_CARLO, n_samples=5000, seed=11),
        )
        assert abs(gh.k3 - mc.k3) < 2e-3

    def test_monotone_in_electron_polarization(self):
        values = [
            lg_run(THETA_STAR, ImperfectionModel(t2_star=None, pol_n=1.0, flip_prob_p=1.0,
                                                 pol_e=pe, n_samples=1)).k3
            for pe in np.linspace(1.0, 0.9, 5)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_flip_probability_flagged(self):
        with pytest.raises(DegeneratePostselectionError):
            lg_run(THETA_STAR, ImperfectionModel(flip_prob_p=0.0))

    def test_vanishing_flip_probability_is_continuous(self):
        # the p = 0 refusal above is a point guard: K3 reaches its p -> 0+ limit smoothly
        tiny, small = (lg_run(THETA_STAR, ImperfectionModel(flip_prob_p=p)).k3
                       for p in (1e-300, 1e-100))
        assert abs(tiny - small) < 1e-12
        assert tiny == pytest.approx(0.95, abs=1e-12)

    def test_finite_duration_gate(self):
        model = ImperfectionModel(n_samples=21)
        instant = lg_run(THETA_STAR, model)
        # a slow selective pulse loses transfer fidelity to the detuning
        # spread; a fast one recovers the instantaneous limit
        slow = lg_run(THETA_STAR, model, mw_rabi=10e3)
        fast = lg_run(THETA_STAR, model, mw_rabi=10e6)
        assert slow.k3 < instant.k3 - 1e-3
        assert abs(fast.k3 - instant.k3) < 1e-6


class TestOdmr:
    def freqs(self):
        m = NvModel()
        c = m.mw_transition(0)
        return np.linspace(c - 5e6, c + 5e6, 801), m

    def test_three_equal_dips(self):
        freqs, m = self.freqs()
        curve = odmr_spectrum(freqs)
        p0 = curve[:, 1]
        dips = [
            i
            for i in range(1, len(p0) - 1)
            if p0[i] < p0[i - 1] and p0[i] < p0[i + 1] and p0[i] < 0.9
        ]
        assert len(dips) == 3
        spacings = np.diff(freqs[dips])
        assert np.allclose(spacings, 2.16e6, rtol=2e-2)
        # equal depths up to the finite-bandwidth cross-talk between lines;
        # the two outer lines are exactly symmetric
        centers = np.array([m.mw_transition(mi) for mi in (1, 0, -1)])
        at_centers = odmr_spectrum(centers)[:, 1]
        assert at_centers[0] == pytest.approx(at_centers[2], abs=1e-12)
        assert np.ptp(at_centers) < 5e-3

    def test_gate_pattern_reflects_p(self):
        freqs, m = self.freqs()
        base = odmr_spectrum(freqs, apply_cg=True, p=1.0)[:, 1]
        soft = odmr_spectrum(freqs, apply_cg=True, p=0.6)[:, 1]
        assert np.abs(base - soft).max() >= 0.1

    def test_protected_line_stays_high_with_perfect_gate(self):
        freqs, m = self.freqs()
        curve = odmr_spectrum(freqs, apply_cg=True, p=1.0, cg_variant=1)
        protected = m.mw_transition(1)
        i = np.abs(freqs - protected).argmin()
        unprot = m.mw_transition(0)
        j = np.abs(freqs - unprot).argmin()
        # at the unprotected line the flipped electron returns to |0>, so
        # P0 there exceeds the off-resonance baseline; protected line drops
        baseline = curve[0, 1]
        assert curve[j, 1] > baseline + 0.2
        assert curve[i, 1] < baseline

    @settings(deadline=None)
    @given(variant=st.integers(1, 3), p=st.floats(0.0, 1.0), mw_rabi=mw_rabis)
    def test_gate_matches_six_level_oracle(self, variant, p, mw_rabi):
        freqs, m = self.freqs()
        lines = np.array([m.mw_transition(mi) for mi in (1, 0, -1)])
        rho = six_level_gate(variant, p, np.kron(np.diag([0.0, 1.0]), np.eye(3) / 3))
        pop1, pop0 = np.diag(rho).real.reshape(2, 3)
        flip = pulse_transfer(freqs[:, None] - lines, mw_rabi)
        ref = ((1 - flip) * pop0 + flip * pop1).sum(axis=1)
        curve = odmr_spectrum(freqs, apply_cg=True, p=p, mw_rabi=mw_rabi, cg_variant=variant)
        assert np.abs(curve[:, 1] - ref).max() < 1e-14

    def test_rejects_bad_args(self):
        freqs, _ = self.freqs()
        with pytest.raises(ValueError):
            odmr_spectrum(freqs, apply_cg=True, cg_variant=5)
        with pytest.raises(ValueError):
            odmr_spectrum(freqs, apply_cg=True, p=1.2)
        with pytest.raises(ValueError):
            odmr_spectrum(freqs, apply_cg=True, p=np.nan)
        # the variant is read only when the gate runs
        assert np.isfinite(odmr_spectrum(freqs, cg_variant=5)).all()


class TestRepeatedCg:
    def test_perfect_gate(self):
        curve = repeated_cg(10, 1.0)
        assert np.allclose(curve[:, 1], 1.0)

    def test_decay_value(self):
        curve = repeated_cg(10, 0.995)
        assert curve[10, 1] == pytest.approx(0.995**10)
        assert curve[10, 1] == pytest.approx(0.9511, abs=1e-4)

    def test_fitter_recovers_p(self):
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            curve = repeated_cg(30, 0.995, readout_sigma=0.01, rng=rng)
            p_hat, _ = fit_flip_probability(curve)
            errors.append(abs(p_hat - 0.995))
        assert max(errors) < 0.005

    def test_fitter_ignores_the_noise_floor(self):
        # at p = 0.5 the curve sinks below 0.01 readout noise within ~7 gates; only the
        # points before the first non-positive P0 are fitted, so a longer tail of noise
        # floor cannot pull p_hat toward 1 (it gave 0.87, 0.998 and 1.0001 at these k_max)
        p_hats = [
            [fit_flip_probability(repeated_cg(k_max, 0.5, 0.01, np.random.default_rng(seed)))[0]
             for k_max in (30, 300, 2000)]
            for seed in range(100)
        ]
        assert all(row[0] == row[1] == row[2] for row in p_hats)
        assert abs(np.median(p_hats) - 0.5) < 0.05

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            repeated_cg(0, 0.9)
        with pytest.raises(ValueError):
            repeated_cg(5, 1.5)
