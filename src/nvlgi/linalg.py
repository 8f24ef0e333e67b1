"""Dense complex linear algebra and quantum primitives for small Hilbert spaces.

All operators are plain complex numpy arrays. States are density matrices
(trace-one, positive semidefinite). Frequencies are stored in Hz throughout
the package; Hamiltonians are built as 2*pi*(Hz values) so that
exp(-i*H*t) with t in seconds gives the correct phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

TRACE_TOL = 1e-10
UNITARITY_TOL = 1e-10

SQRT2 = np.sqrt(2.0)


class DimensionMismatchError(ValueError):
    """Operator/state dimensions do not agree."""


@dataclass(frozen=True)
class SpinOps:
    """Spin-1 operator triple in the basis order (|+1>, |0>, |-1>).

    ``iz_sq`` is the squared z operator, needed for quadrupole terms.
    """

    sx: np.ndarray
    sz: np.ndarray
    iz_sq: np.ndarray


def spin1_operators() -> SpinOps:
    """Standard spin-1 matrices in the (|+1>, |0>, |-1>) basis."""
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return SpinOps(sx=sx, sz=sz, iz_sq=sz @ sz)


def matrix_exp(m: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * m) for a square matrix of dimension <= 16.

    Backed by scipy's scaling-and-squaring Pade implementation; the
    closed-form spin-1 rotation (``rotation_unitary``) provides an
    independent cross-check path in the tests.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"matrix_exp needs a square matrix, got shape {m.shape}")
    return scipy.linalg.expm(scale * m)


def rotation_unitary(theta: float | np.ndarray, dim: int = 3) -> np.ndarray:
    """Rotation exp(-i*theta*Sx) for spin-1 (dim=3) or spin-1/2 (dim=2).

    ``theta`` may be a scalar or an array; the result has shape
    ``theta.shape + (dim, dim)``. The spin-1 form is closed: corner entries
    (cos(theta)-1)/2 and (cos(theta)+1)/2, centre cos(theta), edges
    -i*sin(theta)/sqrt(2).
    """
    if dim not in (2, 3):
        raise ValueError(f"rotation_unitary supports dim 2 or 3, got {dim}")
    theta = np.asarray(theta, dtype=float)
    u = np.empty(theta.shape + (dim, dim), dtype=complex)
    if dim == 3:
        c, s = np.cos(theta), np.sin(theta)
        u[..., 0, 0] = u[..., 2, 2] = (1 + c) / 2
        u[..., 0, 2] = u[..., 2, 0] = (c - 1) / 2
        u[..., 1, 1] = c
        u[..., 0, 1] = u[..., 1, 0] = u[..., 1, 2] = u[..., 2, 1] = -1j * (s / SQRT2)
    else:
        ch, sh = np.cos(theta / 2), np.sin(theta / 2)
        u[..., 0, 0] = u[..., 1, 1] = ch
        u[..., 0, 1] = u[..., 1, 0] = -1j * sh
    return u


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, row-major block convention."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def basis_projector(index: int, dim: int) -> np.ndarray:
    """Rank-1 projector |index><index| in a dim-dimensional space."""
    p = np.zeros((dim, dim), dtype=complex)
    p[index, index] = 1.0
    return p


def basis_state(index: int, dim: int) -> np.ndarray:
    """Density matrix of the computational basis state |index>."""
    return basis_projector(index, dim)


def evolve(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Unitary conjugation U rho U^dagger."""
    rho = np.asarray(rho, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if rho.shape != u.shape:
        raise DimensionMismatchError(f"state shape {rho.shape} vs unitary shape {u.shape}")
    return u @ rho @ u.conj().T


def expectation(rho: np.ndarray, observable: np.ndarray) -> float:
    """Tr(rho * observable) for a Hermitian observable."""
    rho = np.asarray(rho, dtype=complex)
    observable = np.asarray(observable, dtype=complex)
    if rho.shape != observable.shape:
        raise DimensionMismatchError(
            f"state shape {rho.shape} vs observable shape {observable.shape}"
        )
    if np.abs(observable - observable.conj().T).max() > 1e-9:
        raise ValueError("observable is not Hermitian")
    value = np.trace(rho @ observable)
    if abs(value.imag) > TRACE_TOL:
        raise ValueError(f"expectation has imaginary residue {value.imag:g}")
    return float(value.real)


def check_unitary(u: np.ndarray, *, name: str = "u") -> None:
    """Raise if u is not unitary to within UNITARITY_TOL."""
    u = np.asarray(u, dtype=complex)
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if dev > UNITARITY_TOL:
        raise ValueError(f"{name} not unitary: max deviation {dev:g}")
