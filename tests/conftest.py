import itertools

import numpy as np
import pytest

# spin-1 operators in the basis order (|+1>, |0>, |-1>)
SX3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
SZ3 = np.diag([1.0, 0.0, -1.0]).astype(complex)


def basis_state(index: int, dim: int) -> np.ndarray:
    return np.diag(np.eye(dim, dtype=complex)[index])


def evolve(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


def expectation(rho: np.ndarray, observable: np.ndarray) -> float:
    return float(np.trace(rho @ observable).real)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def six_level_initial_state(model) -> np.ndarray:
    """Reference 6x6 state after optical pumping, (|1>e, |0>e) (x) (|+1>n, |0>n, |-1>n).

    The electron is in |0>e with probability pol_e, the rest in |1>e; the nucleus is in
    |+1>n with probability pol_n, the rest split evenly over |0>n and |-1>n.
    """
    electron = np.diag([1.0 - model.pol_e, model.pol_e])
    nucleus = np.diag([model.pol_n, (1.0 - model.pol_n) / 2, (1.0 - model.pol_n) / 2])
    return np.kron(electron, nucleus).astype(complex)


def six_level_gate(variant: int, q, rho: np.ndarray) -> np.ndarray:
    """Reference controlled gate on 6x6 states, ordered as ``six_level_initial_state``.

    Variant 1..3 protects nuclear state variant - 1. On every other nuclear state m the
    electron flips on its own with probability q: Kraus operators sqrt(1 - q) I and
    sqrt(q) F_m with F_m = kron(sx, |m><m|) + kron(I2, I3 - |m><m|). An array q maps rho,
    or a stack of states broadcast against it, to one state per element.
    """
    assert variant in (1, 2, 3)
    q = np.asarray(q, dtype=float)[..., None, None]
    for m in range(3):
        if m != variant - 1:
            pm = np.diag(np.eye(3)[m])
            f = np.kron(SIGMA_X, pm) + np.kron(np.eye(2), np.eye(3) - pm)
            rho = (1 - q) * rho + q * (f @ rho @ f.T)
    return rho


def classical_extrema(n: int) -> tuple[int, int]:
    """Macrorealist extrema of the n-time LG string, by enumerating all 2^n outcome sequences."""
    values = [
        sum(qs[i] * qs[i + 1] for i in range(n - 1)) - qs[-1] * qs[0]
        for qs in itertools.product((+1, -1), repeat=n)
    ]
    return min(values), max(values)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
