"""Imperfection channels: quasi-static Gaussian dephasing, imperfect
polarization, free-induction-decay synthesis and fitting.

The detuning delta0 is quasi-static: constant within one shot, resampled
(or quadrature-weighted) across the ensemble. Its width follows from the
inhomogeneous dephasing time, sigma = 1/(sqrt(2)*pi*T2*), so the averaged
coherence decays as exp(-(t/T2*)^2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .protocol import rotation_unitary


class Averaging(enum.Enum):
    MONTE_CARLO = "monte-carlo"
    GAUSS_HERMITE = "gauss-hermite"


class FitError(RuntimeError):
    """Nonlinear fit failed to converge or returned a degenerate estimate."""


def sigma_from_t2star(t2_star: float) -> float:
    """Detuning standard deviation (Hz) from the inhomogeneous dephasing time."""
    return 1.0 / (np.sqrt(2.0) * np.pi * t2_star)


@dataclass(frozen=True)
class ImperfectionModel:
    """Experiment imperfections: dephasing width, polarizations, gate fidelity.

    ``sigma_detuning`` is derived from ``t2_star``; passing t2_star=None
    (with pol and p at 1.0) describes the ideal experiment.
    """

    t2_star: float | None = 62e-6
    pol_e: float = 0.95
    pol_n: float = 0.98
    flip_prob_p: float = 0.995
    n_samples: int = 21
    seed: int = 2024
    averaging: Averaging = Averaging.GAUSS_HERMITE

    def __post_init__(self) -> None:
        for name in ("pol_e", "pol_n", "flip_prob_p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.t2_star is not None and self.t2_star <= 0:
            raise ValueError("t2_star must be positive")

    @property
    def sigma_detuning(self) -> float:
        if self.t2_star is None:
            return 0.0
        return sigma_from_t2star(self.t2_star)

    @classmethod
    def ideal(cls) -> "ImperfectionModel":
        return cls(t2_star=None, pol_e=1.0, pol_n=1.0, flip_prob_p=1.0, n_samples=1)

    def with_(self, **kwargs) -> "ImperfectionModel":
        return replace(self, **kwargs)


# kept only because perfbench/workloads.py reads ``.delta0``, until the next
# benchmark change moves it to the (deltas, weights) arrays of ``detuning_ensemble``
@dataclass(frozen=True)
class DetuningSample:
    delta0: float  # Hz
    weight: float


def detuning_ensemble(model: ImperfectionModel) -> tuple[np.ndarray, np.ndarray]:
    """Detuning ensemble as two arrays over the sample axis: (delta0 in Hz, weight).

    I.i.d. normal draws or Gauss-Hermite nodes, deterministic given (seed, n_samples,
    averaging), representing Normal(0, sigma^2) with weights summing to 1. Raises
    ``ValueError`` naming ``n_samples`` where numpy's Gauss-Hermite rule overflows.
    """
    sigma, n = model.sigma_detuning, model.n_samples
    weights = np.full(n, 1.0 / n)
    if sigma == 0.0:
        deltas = np.zeros(n)
    elif model.averaging is Averaging.MONTE_CARLO:
        deltas = np.random.default_rng(model.seed).normal(0.0, sigma, size=n)
    else:
        # underflow inside hermgauss is harmless up to 370 nodes; overflow is not
        try:
            with np.errstate(all="raise", under="ignore"):
                nodes, weights = np.polynomial.hermite.hermgauss(n)
        except FloatingPointError as exc:
            raise ValueError(f"n_samples = {n}: the Gauss-Hermite rule overflows ({exc})") from exc
        deltas = np.sqrt(2.0) * sigma * nodes
        weights = weights / np.sqrt(np.pi)
    if not abs(weights.sum() - 1.0) <= 1e-12:  # also fails inf and NaN
        raise ValueError(f"n_samples = {n}: ensemble weights are not finite or do not sum to 1")
    return deltas, weights


def sample_detunings(model: ImperfectionModel) -> list[DetuningSample]:
    """``detuning_ensemble`` as a list of ``DetuningSample`` objects."""
    deltas, weights = detuning_ensemble(model)
    return [DetuningSample(d, w) for d, w in zip(deltas.tolist(), weights.tolist())]


def electron_sz(dim: int) -> np.ndarray:
    """Noise coupling operator: diag(1, 0) on the electron manifolds.

    Only the upper electron manifold acquires delta0 phase; for dim 6 the
    ordering is (|1>e, |0>e) (x) nuclear spin-1.
    """
    sz2 = np.diag([1.0, 0.0]).astype(complex)
    if dim == 2:
        return sz2
    if dim == 6:
        return np.kron(sz2, np.eye(3))
    raise ValueError(f"no default electron Sz for dim {dim}")


def _diagonal(op: np.ndarray, name: str, shape: tuple[int, ...]) -> np.ndarray:
    op = np.asarray(op)
    if op.shape != shape or np.count_nonzero(op - np.diag(np.diag(op))):
        raise ValueError(
            f"{name} must be a diagonal {shape[0]}x{shape[0]} matrix: the ensemble "
            "average is closed-form only for commuting diagonal operators"
        )
    return np.diag(op)


def dephasing_evolution(
    rho: np.ndarray,
    h_static: np.ndarray,
    duration: float | np.ndarray,
    ensemble: tuple[np.ndarray, np.ndarray],
    noise_op: np.ndarray | None = None,
) -> np.ndarray:
    """Ensemble-averaged evolution under h_static + 2*pi*delta0*noise_op.

    ``ensemble`` is the (delta0 in Hz, weight) pair of ``detuning_ensemble``.

    ``h_static`` (angular units, rad/s) and ``noise_op`` must be diagonal,
    so every sample only rephases the coherences:
    rho_ab * exp(-i*t*(h_a - h_b)) * sum_s w_s * exp(-2*pi*i*delta_s*t*(s_a - s_b)).
    ``duration`` (seconds) may be a scalar or an array; the result has shape
    ``duration.shape + rho.shape``. It is a convex mixture of unitary
    conjugations, so trace-preserving and completely positive by construction.
    """
    rho = np.asarray(rho, dtype=complex)
    if noise_op is None:
        noise_op = electron_sz(rho.shape[0])
    h = _diagonal(h_static, "h_static", rho.shape)
    s = _diagonal(noise_op, "noise_op", rho.shape)
    t = np.asarray(duration, dtype=float)
    if (t < 0).any():
        raise ValueError("duration must be non-negative")
    deltas, weights = ensemble
    t = t[..., None, None]
    static = np.exp(-1j * t * (h[:, None] - h[None, :]))
    noise = np.exp(-2j * np.pi * (t * (s[:, None] - s[None, :]))[..., None] * deltas) @ weights
    return rho * static * noise


def imperfect_initial_state(model: ImperfectionModel) -> np.ndarray:
    """Six-level initial state after optical pumping with finite polarization.

    Residual electron weight sits in |1>e; residual nuclear weight is split
    evenly over |0>n and |-1>n. Perfect polarization gives the pure |4>.
    """
    rho_e = np.diag([1.0 - model.pol_e, model.pol_e]).astype(complex)
    rho_n = np.diag(
        [model.pol_n, (1.0 - model.pol_n) / 2, (1.0 - model.pol_n) / 2]
    ).astype(complex)
    return np.kron(rho_e, rho_n)


def fid_curve(
    model: ImperfectionModel,
    t_grid: np.ndarray,
    delta_ref: float = 50e3,
    n_quadrature: int = 41,
    readout_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Ramsey free-induction-decay signal P0(t) on the electron ancilla.

    Built from the dephasing machinery (pi/2 - wait - pi/2 with opposite
    phases), not from the closed form; the closed form
    (1 + exp(-(t/T2*)^2) * cos(2*pi*delta_ref*t)) / 2 is the test oracle.
    Returns an array of shape (len(t_grid), 2) with columns (t, P0).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    ensemble = detuning_ensemble(model.with_(n_samples=n_quadrature))
    half = rotation_unitary(np.pi / 2, dim=2)
    unhalf = half.conj().T
    h_ref = 2 * np.pi * delta_ref * electron_sz(2)
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[1, 1] = 1.0  # |0>e
    rho0 = half @ rho0 @ half.conj().T
    rho = unhalf @ dephasing_evolution(rho0, h_ref, t_grid, ensemble) @ unhalf.conj().T
    p0 = rho[:, 1, 1].real
    if readout_sigma > 0:
        if rng is None:
            rng = np.random.default_rng(model.seed)
        p0 = p0 + rng.normal(0.0, readout_sigma, size=p0.shape)
    return np.column_stack([t_grid, p0])


def _decay_model(t, amp, t2, delta, phase, offset):
    return amp * np.exp(-((t / t2) ** 2)) * np.cos(2 * np.pi * delta * t + phase) + offset


def _decay_jacobian(t, amp, t2, delta, phase, offset):
    """Derivatives of ``_decay_model`` by (amp, t2, delta, phase, offset), one column each."""
    env, arg = np.exp(-((t / t2) ** 2)), 2 * np.pi * delta * t + phase
    c, s = env * np.cos(arg), env * np.sin(arg)
    return np.column_stack(
        [c, 2 * amp * c * t**2 / t2**3, -2 * np.pi * amp * s * t, -amp * s, np.ones_like(t)]
    )


def fit_gaussian_decay(points: np.ndarray) -> tuple[float, float]:
    """Fit A*exp(-(t/T2*)^2)*cos(2*pi*delta*t + phi) + C to (t, P0) data.

    Returns (t2_star_hat, one-sigma uncertainty). Raises FitError on
    non-convergence or a degenerate (unbounded) estimate.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 5:
        raise ValueError("need at least 5 points")
    t, y = points[:, 0], points[:, 1]
    span = t.max() - t.min()
    amp0 = (y.max() - y.min()) / 2
    if amp0 < 1e-12:
        raise FitError("signal has no contrast")
    # dominant frequency seed from the periodogram on a uniform grid
    dt = np.median(np.diff(np.sort(t)))
    freqs = np.fft.rfftfreq(len(t), dt)
    spectrum = np.abs(np.fft.rfft(y - y.mean()))
    delta0 = freqs[1:][spectrum[1:].argmax()] if len(freqs) > 1 else 1.0 / span
    p0 = [amp0, span / 2, delta0, 0.0, y.mean()]
    # an analytic Jacobian: a finite-difference step scales with its parameter,
    # so a phase fitted to ~1e-10 would give a zero column and no covariance
    try:
        popt, pcov = scipy.optimize.curve_fit(
            _decay_model, t, y, p0=p0, jac=_decay_jacobian, maxfev=20000
        )
    except RuntimeError as exc:
        raise FitError(f"decay fit did not converge: {exc}") from exc
    t2_hat = abs(float(popt[1]))
    var = float(pcov[1, 1])
    if not np.isfinite(var) or t2_hat > 100 * span:
        raise FitError("degenerate decay estimate (no decay within the data span)")
    return t2_hat, float(np.sqrt(var))
