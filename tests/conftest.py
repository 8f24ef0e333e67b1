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
