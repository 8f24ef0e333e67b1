import numpy as np
import pytest
import scipy.linalg

from nvlgi.linalg import (
    DimensionMismatchError,
    basis_projector,
    basis_state,
    check_unitary,
    evolve,
    expectation,
    rotation_unitary,
    spin1_operators,
    tensor,
)

from conftest import random_density, random_unitary, taylor_expm

THETA_STAR = 0.416 * np.pi


class TestSpinOperators:
    def test_sx_offdiagonal(self):
        ops = spin1_operators()
        assert ops.sx[0, 1] == pytest.approx(1 / np.sqrt(2))
        assert np.abs(ops.sx - ops.sx.conj().T).max() == 0

    def test_sz_eigenvector(self):
        ops = spin1_operators()
        v = np.array([1, 0, 0], dtype=complex)
        assert np.allclose(ops.sz @ v, v)
        assert np.allclose(np.diag(ops.sz), [1, 0, -1])

    def test_full_spin_flip(self):
        # exp(-i*pi*Sx)|+1> = -|-1>, checked against the Taylor oracle
        ops = spin1_operators()
        u = taylor_expm(ops.sx, -1j * np.pi)
        out = u @ np.array([1, 0, 0], dtype=complex)
        assert np.allclose(out, [0, 0, -1], atol=1e-12)

    def test_commutator_closes(self):
        # [Sz, Sx] = i*Sy and [Sx, Sy] = i*Sz for the derived Sy
        ops = spin1_operators()
        sy = (ops.sz @ ops.sx - ops.sx @ ops.sz) / 1j
        comm = ops.sx @ sy - sy @ ops.sx
        assert np.abs(comm - 1j * ops.sz).max() < 1e-12


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
        sx = spin1_operators().sx if dim == 3 else np.array([[0, 0.5], [0.5, 0]])
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, 50):
            ref = scipy.linalg.expm(-1j * theta * sx)
            assert np.abs(rotation_unitary(theta, dim) - ref).max() < 1e-12

    def test_unitarity(self, rng):
        for theta in rng.uniform(0, np.pi, 100):
            check_unitary(rotation_unitary(theta))

    def test_same_axis_composition(self, rng):
        for t1, t2 in rng.uniform(0, np.pi, (50, 2)):
            lhs = rotation_unitary(t1) @ rotation_unitary(t2)
            assert np.abs(lhs - rotation_unitary(t1 + t2)).max() < 1e-10

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            rotation_unitary(0.1, dim=4)


class TestTensor:
    def test_identity(self):
        assert np.allclose(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_block_projector(self):
        p = tensor(np.diag([1.0, 0.0]), np.eye(3))
        assert np.allclose(np.diag(p), [1, 1, 1, 0, 0, 0])

    def test_electron_swap_label_map(self):
        # |4> = |0>e|1>n maps to |1> = |1>e|1>n under the electron swap
        swap = tensor(np.array([[0, 1], [1, 0]]), np.eye(3))
        v = np.zeros(6)
        v[3] = 1.0
        assert np.allclose(swap @ v, np.eye(6)[0])

    def test_associativity(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        c = rng.normal(size=(2, 2))
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


class TestEvolveExpectation:
    def test_identity_evolution(self, rng):
        rho = random_density(rng, 3)
        assert np.allclose(evolve(rho, np.eye(3)), rho)

    def test_rotation_populations(self, rng):
        theta = rng.uniform(0, np.pi)
        rho = evolve(basis_state(0, 3), rotation_unitary(theta))
        c = np.cos(theta)
        expected = [(1 + c) ** 2 / 4, np.sin(theta) ** 2 / 2, (1 - c) ** 2 / 4]
        assert np.allclose(np.diag(rho).real, expected, atol=1e-12)

    def test_mixed_state_invariance(self, rng):
        rho = np.eye(3) / 3
        u = random_unitary(rng, 3)
        assert np.allclose(evolve(rho, u), rho, atol=1e-12)

    def test_trace_preserved(self, rng):
        for _ in range(50):
            rho = random_density(rng, 4)
            u = random_unitary(rng, 4)
            out = evolve(rho, u)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-9

    def test_expectation_examples(self):
        ops = spin1_operators()
        assert expectation(basis_state(0, 3), ops.sz) == pytest.approx(1.0)
        assert expectation(np.eye(3) / 3, ops.sz) == pytest.approx(0.0, abs=1e-14)
        rho = evolve(basis_state(0, 3), rotation_unitary(THETA_STAR))
        p_minus = expectation(rho, basis_projector(2, 3))
        assert p_minus == pytest.approx((1 - np.cos(THETA_STAR)) ** 2 / 4, abs=1e-12)
        assert p_minus == pytest.approx(0.1366, abs=5e-4)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            expectation(basis_state(0, 2), bad)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evolve(basis_state(0, 2), np.eye(3))
