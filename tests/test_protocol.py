import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    basis_projector,
    measure,
    rotation_unitary,
    standard_qubit_scheme,
    standard_qutrit_scheme,
)

from conftest import SX3, SZ3, basis_state, evolve, expectation, random_density, random_unitary

THETA_STAR = 0.416 * np.pi
VN = standard_qutrit_scheme(UpdateRule.VON_NEUMANN)
LU = standard_qutrit_scheme(UpdateRule.LUDERS)
STANDARD_SCHEMES = {
    f"{system}-{rule.value}": build(rule)
    for system, build in (("qutrit", standard_qutrit_scheme), ("qubit", standard_qubit_scheme))
    for rule in UpdateRule
}


class TestRotationUnitary:
    def test_identity_at_zero(self):
        assert np.allclose(rotation_unitary(0.0), np.eye(3))

    def test_theta_pi(self):
        expected = np.array([[0, 0, -1], [0, -1, 0], [-1, 0, 0]], dtype=complex)
        assert np.abs(rotation_unitary(np.pi) - expected).max() < 1e-12

    def test_survival_amplitude(self):
        u = rotation_unitary(THETA_STAR)
        expected = ((1 + np.cos(THETA_STAR)) / 2) ** 2
        assert abs(u[0, 0]) ** 2 == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3974, abs=5e-4)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_matrix_exp(self, rng, dim):
        sx = SX3 if dim == 3 else np.array([[0, 0.5], [0.5, 0]])
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, 50):
            ref = scipy.linalg.expm(-1j * theta * sx)
            assert np.abs(rotation_unitary(theta, dim) - ref).max() < 1e-12

    def test_unitarity(self, rng):
        for theta in rng.uniform(0, np.pi, 100):
            u = rotation_unitary(theta)
            assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-10

    def test_same_axis_composition(self, rng):
        for t1, t2 in rng.uniform(0, np.pi, (50, 2)):
            lhs = rotation_unitary(t1) @ rotation_unitary(t2)
            assert np.abs(lhs - rotation_unitary(t1 + t2)).max() < 1e-10

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            rotation_unitary(0.1, dim=4)

    def test_rotation_populations(self, rng):
        theta = rng.uniform(0, np.pi)
        rho = evolve(basis_state(0, 3), rotation_unitary(theta))
        c = np.cos(theta)
        expected = [(1 + c) ** 2 / 4, np.sin(theta) ** 2 / 2, (1 - c) ** 2 / 4]
        assert np.allclose(np.diag(rho).real, expected, atol=1e-12)

    def test_expectation_examples(self):
        assert expectation(basis_state(0, 3), SZ3) == pytest.approx(1.0)
        assert expectation(np.eye(3) / 3, SZ3) == pytest.approx(0.0, abs=1e-14)
        rho = evolve(basis_state(0, 3), rotation_unitary(THETA_STAR))
        p_minus = expectation(rho, basis_projector(2, 3))
        assert p_minus == pytest.approx((1 - np.cos(THETA_STAR)) ** 2 / 4, abs=1e-12)
        assert p_minus == pytest.approx(0.1366, abs=5e-4)


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

    @pytest.mark.parametrize("rule", list(UpdateRule))
    def test_qubit_maximum_is_pi_over_three(self, rule):
        theta_star, k_max = find_max_k3(standard_qubit_scheme(rule))
        assert abs(theta_star - np.pi / 3) < 1e-12
        assert abs(k_max - 1.5) < 1e-12

    @pytest.mark.parametrize("name", sorted(STANDARD_SCHEMES))
    def test_result_does_not_depend_on_grid(self, name):
        scheme = STANDARD_SCHEMES[name]
        results = {find_max_k3(scheme, grid) for grid in (100, 1_000, 10_000)}
        assert len(results) == 1


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
        projs = [sum(projs, np.zeros_like(rho))]
    return sum((p @ rho @ p for p in projs), np.zeros_like(rho))


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


def _oracle_lg_terms(theta, n, scheme, measure_at_t2_for_q3):
    """The LG terms on density matrices: branch the state at t_k, evolve each branch once more."""
    u = rotation_unitary(theta, scheme.dim)
    rho = evolve(basis_state(0, scheme.dim), u)
    terms = [_oracle_mean_q(rho, scheme)]
    for k in range(2, n):
        posts = {v: _oracle_post_state(rho, scheme, v) for v in (+1, -1)}
        terms.append(sum(v * _oracle_mean_q(evolve(post, u), scheme) for v, post in posts.items()))
        rho = evolve(posts[+1] + posts[-1] if k == 2 and measure_at_t2_for_q3 else rho, u)
    terms.append(-_oracle_mean_q(rho, scheme))
    return terms


@st.composite
def rotated_schemes(draw):
    """Basis projectors rotated by a random unitary W (W P W^dagger), grouped at random.

    Basis vectors that share a label form one projector of rank >= 2, and
    labels get random outcomes, so every qutrit scheme has an outcome of
    rank >= 2.
    """
    dim = draw(st.sampled_from([2, 3]))
    label_of = draw(st.lists(st.integers(0, dim - 1), min_size=dim, max_size=dim))
    labels = sorted(set(label_of))
    outcomes = draw(st.lists(st.sampled_from([+1, -1]), min_size=len(labels),
                             max_size=len(labels)))
    w = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim)
    projectors = tuple(
        (f"L{lab}", w @ sum(basis_projector(j, dim) for j in range(dim) if label_of[j] == lab)
         @ w.conj().T)
        for lab in labels
    )
    scheme = MeasurementScheme(
        projectors=projectors,
        outcome_of_label={f"L{lab}": v for lab, v in zip(labels, outcomes)},
        update_rule=draw(st.sampled_from(list(UpdateRule))),
    )
    scheme.validate()
    return scheme


class TestRotatedSchemes:
    @settings(deadline=None)
    @given(
        rotated_schemes(),
        st.integers(3, 6),
        st.booleans(),
        st.lists(st.floats(-2 * np.pi, 2 * np.pi), max_size=8),
    )
    def test_lg_terms_match_density_matrix_oracle(self, scheme, n, measured, thetas):
        got = np.array(_lg_terms(np.array(thetas), n, scheme, measure_at_t2_for_q3=measured))
        assert got.shape == (n, len(thetas))
        for i, theta in enumerate(thetas):
            expected = _oracle_lg_terms(theta, n, scheme, measured)
            assert np.abs(got[:, i] - expected).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(STANDARD_SCHEMES))
    def test_measured_path_of_standard_schemes_matches_oracle(self, name):
        scheme = STANDARD_SCHEMES[name]
        thetas = np.linspace(-1.0, 4.0, 11)
        for n in range(3, 11):
            got = np.array(_lg_terms(thetas, n, scheme, measure_at_t2_for_q3=True))
            expected = np.array([_oracle_lg_terms(t, n, scheme, True) for t in thetas]).T
            assert np.abs(got - expected).max() < 1e-12

    @settings(deadline=None)
    @given(rotated_schemes(), st.lists(st.floats(0.0, np.pi), max_size=8))
    def test_find_max_k3_is_the_maximum(self, scheme, thetas):
        theta_star, k_max = find_max_k3(scheme)
        assert 0.0 <= theta_star <= np.pi
        assert abs(k3_protocol(theta_star, scheme).k3 - k_max) < 1e-12
        for theta in thetas:
            assert k_max >= k3_protocol(theta, scheme).k3 - 1e-12

    @settings(deadline=None)
    @given(
        st.one_of(st.sampled_from(sorted(STANDARD_SCHEMES)).map(STANDARD_SCHEMES.get),
                  rotated_schemes()),
        st.data(),
    )
    def test_measure_branches_on_random_states(self, scheme, data):
        d = scheme.dim
        parts = data.draw(hnp.arrays(float, (2, d, d), elements=st.floats(-1, 1)))
        a = parts[0] + 1j * parts[1]
        positive = a @ a.conj().T
        assume(np.trace(positive).real > 1e-6)
        rho = positive / np.trace(positive).real
        branches = measure(rho, scheme)
        assert [b.outcome for b in branches] == [+1, -1]
        probs = [b.probability for b in branches]
        assert min(probs) >= 0
        assert abs(sum(probs) - 1) < 1e-12
        for b in branches:
            if b.post_state is not None:
                assert abs(np.trace(b.post_state) - 1) < 1e-12
