import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nvlgi.linalg import basis_projector, basis_state, evolve, expectation, rotation_unitary
from nvlgi.protocol import (
    CorrelatorSet,
    InvalidSchemeError,
    MeasurementScheme,
    UpdateRule,
    _lg_terms,
    analytic_correlators,
    classical_extrema,
    find_max_k3,
    k3_protocol,
    kn_string,
    measure,
    standard_qubit_scheme,
    standard_qutrit_scheme,
)

from conftest import random_density

THETA_STAR = 0.416 * np.pi
VN = standard_qutrit_scheme(UpdateRule.VON_NEUMANN)
LU = standard_qutrit_scheme(UpdateRule.LUDERS)
STANDARD_SCHEMES = {
    f"{system}-{rule.value}": build(rule)
    for system, build in (("qutrit", standard_qutrit_scheme), ("qubit", standard_qubit_scheme))
    for rule in UpdateRule
}


class TestScheme:
    def test_projectors_sum_to_identity(self):
        total = sum(p for _, p in VN.projectors)
        assert np.allclose(total, np.eye(3))

    def test_luders_same_projectors(self):
        for (la, pa), (lb, pb) in zip(VN.projectors, LU.projectors):
            assert la == lb
            assert np.allclose(pa, pb)

    def test_outcome_grouping(self):
        assert VN.outcome_of_label == {"+1": +1, "0": +1, "-1": -1}

    def test_invalid_scheme_rejected(self):
        overlap = MeasurementScheme(
            projectors=(("a", basis_projector(0, 2)), ("b", basis_projector(0, 2))),
            outcome_of_label={"a": +1, "b": -1},
            update_rule=UpdateRule.LUDERS,
        )
        with pytest.raises(InvalidSchemeError):
            overlap.validate()
        with pytest.raises(InvalidSchemeError):
            measure(np.eye(2) / 2, overlap)


class TestMeasure:
    def test_definite_state(self):
        branches = measure(basis_state(1, 3), VN)
        plus = next(b for b in branches if b.outcome == +1)
        minus = next(b for b in branches if b.outcome == -1)
        assert plus.probability == pytest.approx(1.0)
        assert np.allclose(plus.post_state, basis_state(1, 3))
        assert minus.probability == 0.0
        assert minus.post_state is None

    def test_uniform_mixture(self):
        branches = measure(np.eye(3) / 3, VN)
        plus = next(b for b in branches if b.outcome == +1)
        minus = next(b for b in branches if b.outcome == -1)
        assert plus.probability == pytest.approx(2 / 3)
        assert np.allclose(plus.post_state, np.diag([0.5, 0.5, 0.0]))
        assert minus.probability == pytest.approx(1 / 3)
        assert np.allclose(minus.post_state, basis_state(2, 3))

    def test_rotated_state_minus_probability(self):
        rho = evolve(basis_state(0, 3), rotation_unitary(THETA_STAR))
        minus = next(b for b in measure(rho, VN) if b.outcome == -1)
        assert minus.probability == pytest.approx((1 - np.cos(THETA_STAR)) ** 2 / 4)

    def test_update_rules_differ_on_coherence(self):
        # (|+1> + |0>)/sqrt(2): the per-projector update kills the cross
        # term, the summed-projector update returns the state unchanged
        psi = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        vn_plus = next(b for b in measure(rho, VN) if b.outcome == +1)
        lu_plus = next(b for b in measure(rho, LU) if b.outcome == +1)
        assert abs(vn_plus.post_state[0, 1]) < 1e-14
        assert np.allclose(lu_plus.post_state, rho)

    def test_probabilities_normalized(self, rng):
        for _ in range(200):
            rho = random_density(rng, 3)
            for scheme in (VN, LU):
                total = sum(b.probability for b in measure(rho, scheme))
                assert abs(total - 1.0) < 1e-10

    def test_branch_reconstruction_matches_dephased_diagonal(self, rng):
        for _ in range(50):
            rho = random_density(rng, 3)
            recon = sum(
                b.probability * b.post_state
                for b in measure(rho, VN)
                if b.post_state is not None
            )
            assert np.abs(np.diag(recon) - np.diag(rho)).max() < 1e-10


class TestK3Protocol:
    def test_no_evolution(self):
        for scheme in (VN, LU):
            c = k3_protocol(0.0, scheme)
            assert (c.q2_mean, c.q2q3_mean, c.q3_mean) == pytest.approx((1, 1, 1))
            assert c.k3 == pytest.approx(1.0)

    def test_reference_maximum_point(self):
        c = k3_protocol(THETA_STAR, VN)
        assert c.k3 == pytest.approx(1.756, abs=1e-3)
        assert c.q2_mean == pytest.approx(0.7268, abs=1e-4)
        assert c.q2q3_mean == pytest.approx(0.2925, abs=1e-4)
        assert c.q3_mean == pytest.approx(-0.7371, abs=1e-4)
        assert c.k3 == pytest.approx(1.7564, abs=1e-4)

    def test_correlator_sum_identity(self):
        c = k3_protocol(THETA_STAR, VN)
        assert c.k3 == pytest.approx(c.q2_mean + c.q2q3_mean - c.q3_mean, abs=1e-12)

    def test_analytic_matches_protocol(self, rng):
        for theta in rng.uniform(0, np.pi, 1000):
            a = analytic_correlators(theta)
            p = k3_protocol(theta, VN)
            assert abs(a.q2_mean - p.q2_mean) < 1e-10
            assert abs(a.q2q3_mean - p.q2q3_mean) < 1e-10
            assert abs(a.q3_mean - p.q3_mean) < 1e-10

    def test_analytic_half_pi(self):
        assert analytic_correlators(np.pi / 2).q2_mean == pytest.approx(0.5)

    def test_luders_bounded(self, rng):
        for theta in np.linspace(0, np.pi, 300):
            assert k3_protocol(theta, LU).k3 <= 1.5 + 1e-9

    def test_von_neumann_bounded(self):
        for theta in np.linspace(0, np.pi, 300):
            assert k3_protocol(theta, VN).k3 <= 1.7566

    def test_qubit_rules_coincide(self, rng):
        # dichotomic rank-1 outcomes: no degeneracy, so both updates agree
        qvn = standard_qubit_scheme(UpdateRule.VON_NEUMANN)
        qlu = standard_qubit_scheme(UpdateRule.LUDERS)
        for theta in rng.uniform(0, np.pi, 100):
            a, b = k3_protocol(theta, qvn), k3_protocol(theta, qlu)
            assert a.k3 == pytest.approx(b.k3, abs=1e-12)

    def test_invasive_q3_variant_differs(self):
        direct = k3_protocol(THETA_STAR, VN)
        nim = k3_protocol(THETA_STAR, VN, measure_at_t2_for_q3=True)
        assert direct.q2_mean == nim.q2_mean
        assert abs(direct.q3_mean - nim.q3_mean) > 1e-3


class TestKnString:
    def test_matches_k3(self, rng):
        for theta in rng.uniform(0, np.pi, 20):
            s = kn_string(3, theta, VN)
            assert s.value == pytest.approx(k3_protocol(theta, VN).k3, abs=1e-12)

    def test_theta_zero(self):
        assert kn_string(3, 0.0, LU).value == pytest.approx(1.0)

    def test_value_is_term_sum(self):
        s = kn_string(5, 0.7, VN)
        assert s.value == pytest.approx(sum(s.terms), abs=1e-12)

    def test_qubit_k4(self):
        # equal-spacing qubit K4 peaks at 2*sqrt(2), above the classical bound 2
        scheme = standard_qubit_scheme(UpdateRule.LUDERS)
        values = [kn_string(4, t, scheme).value for t in np.linspace(0, np.pi, 400)]
        assert max(values) <= 2 * np.sqrt(2) + 1e-9
        assert max(values) == pytest.approx(2 * np.sqrt(2), abs=1e-3)
        assert classical_extrema(4) == (-2, 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            kn_string(2, 0.5, VN)


class TestClassicalExtrema:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_bound_formulas(self, n):
        lo, hi = classical_extrema(n)
        assert hi == n - 2
        assert lo == (-n if n % 2 else -(n - 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            classical_extrema(2)
        with pytest.raises(ValueError):
            classical_extrema(13)


class TestFindMaxK3:
    def test_qutrit_von_neumann(self):
        theta_star, k_max = find_max_k3(VN, 10_000)
        assert 0.41 * np.pi <= theta_star <= 0.42 * np.pi
        assert k_max == pytest.approx(1.756, abs=1e-3)
        # the stationary point of the analytic form sits at the same angle
        eps = 1e-6
        deriv = (
            analytic_correlators(theta_star + eps).k3
            - analytic_correlators(theta_star - eps).k3
        ) / (2 * eps)
        assert abs(deriv) < 1e-4

    def test_qubit_luders_reaches_bound(self):
        theta_star, k_max = find_max_k3(standard_qubit_scheme(UpdateRule.LUDERS), 10_000)
        assert k_max == pytest.approx(1.5, abs=1e-6)
        assert theta_star == pytest.approx(np.pi / 3, abs=1e-4)

    def test_qutrit_luders_below_bound(self):
        _, k_max = find_max_k3(LU, 2_000)
        assert k_max <= 1.5

    def test_internal_consistency_at_maximum(self):
        theta_star, k_max = find_max_k3(VN, 2_000)
        assert abs(analytic_correlators(theta_star).k3 - k3_protocol(theta_star, VN).k3) < 1e-10
        assert k3_protocol(theta_star, VN).k3 == pytest.approx(k_max, abs=1e-9)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            find_max_k3(VN, 50)


def test_correlator_set_identity_random(rng):
    for _ in range(100):
        q2, q2q3, q3 = rng.uniform(-1, 1, 3)
        c = CorrelatorSet(q2, q2q3, q3)
        assert c.k3 == pytest.approx(q2 + q2q3 - q3, abs=1e-12)


def _oracle_mean_q(rho, scheme):
    return sum(
        scheme.outcome_of_label[label] * expectation(rho, p) for label, p in scheme.projectors
    )


def _oracle_post_state(rho, scheme, outcome):
    projs = [p for label, p in scheme.projectors if scheme.outcome_of_label[label] == outcome]
    if scheme.update_rule is UpdateRule.LUDERS:
        projs = [sum(projs)]
    return sum(p @ rho @ p for p in projs)


def _oracle_pair_correlator(i, j, u, scheme):
    """<Q(t_j)Q(t_i)> from its own run, measured only at t_i and t_j (i < j).

    One evolve per time step and explicitly normalised branches; t1 is the
    initialisation, Q(t1) = +1.
    """
    rho = basis_state(0, scheme.dim)
    for _ in range(i - 1):
        rho = evolve(rho, u)
    if i == 1:
        for _ in range(j - i):
            rho = evolve(rho, u)
        return _oracle_mean_q(rho, scheme)
    total = 0.0
    for outcome in (+1, -1):
        post = _oracle_post_state(rho, scheme, outcome)
        prob = np.trace(post).real
        if prob <= 1e-14:
            continue
        later = post / prob
        for _ in range(j - i):
            later = evolve(later, u)
        total += prob * outcome * _oracle_mean_q(later, scheme)
    return total


class TestLgTermsKernel:
    @pytest.mark.parametrize("name", sorted(STANDARD_SCHEMES))
    @pytest.mark.parametrize("n", range(3, 11))
    def test_kn_terms_match_pairwise_oracle(self, name, n):
        scheme = STANDARD_SCHEMES[name]
        for theta in (0.0, 0.3, 0.416 * np.pi, np.pi / 2, 2.0, np.pi, -1.1):
            u = rotation_unitary(theta, scheme.dim)
            expected = [_oracle_pair_correlator(i, i + 1, u, scheme) for i in range(1, n)]
            expected.append(-_oracle_pair_correlator(1, n, u, scheme))
            got = kn_string(n, theta, scheme).terms
            assert len(got) == n
            assert np.abs(np.array(got) - expected).max() < 1e-12

    @pytest.mark.parametrize("rule", list(UpdateRule))
    @pytest.mark.parametrize("n", range(3, 11))
    def test_qubit_closed_form(self, rule, n):
        scheme = standard_qubit_scheme(rule)
        for theta in np.linspace(0, np.pi, 50):
            closed = (n - 1) * np.cos(theta) - np.cos((n - 1) * theta)
            assert abs(kn_string(n, theta, scheme).value - closed) < 1e-10

    @settings(deadline=None)
    @given(
        st.sampled_from(sorted(STANDARD_SCHEMES)),
        st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=1, max_size=20),
    )
    def test_array_theta_equals_k3_protocol(self, name, thetas):
        scheme = STANDARD_SCHEMES[name]
        batched = sum(_lg_terms(np.array(thetas), 3, scheme))
        assert batched.shape == (len(thetas),)
        for theta, value in zip(thetas, batched):
            assert abs(value - k3_protocol(theta, scheme).k3) < 1e-12

    @settings(deadline=None)
    @given(
        st.sampled_from([2, 3]),
        hnp.arrays(float, hnp.array_shapes(max_dims=2, max_side=6), elements=st.floats(-10, 10)),
    )
    def test_rotation_array_stacks_scalars_and_is_unitary(self, dim, theta):
        u = rotation_unitary(theta, dim)
        assert u.shape == theta.shape + (dim, dim)
        for index in np.ndindex(theta.shape):
            assert np.array_equal(u[index], rotation_unitary(float(theta[index]), dim))
        eye = np.swapaxes(u.conj(), -1, -2) @ u
        assert np.abs(eye - np.eye(dim)).max() < 1e-12

    @settings(deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_qutrit_luders_bound_any_theta(self, theta):
        assert k3_protocol(theta, LU).k3 <= 1.5 + 1e-9
