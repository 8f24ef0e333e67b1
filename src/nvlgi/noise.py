"""Imperfection model (dephasing, polarizations, gate fidelity), quasi-static
Gaussian dephasing, free-induction-decay synthesis and fitting.

The detuning delta0 is quasi-static: constant within one shot, resampled
(or quadrature-weighted) across the ensemble. Its width follows from the
inhomogeneous dephasing time, sigma = 1/(sqrt(2)*pi*T2*), so the averaged
coherence decays as exp(-(t/T2*)^2).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, replace

import numpy as np


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
    averaging), representing Normal(0, sigma^2) with weights summing to 1. The
    Gauss-Hermite rule is scipy's, imported here because only this branch uses it.
    """
    sigma, n = model.sigma_detuning, model.n_samples
    weights = np.full(n, 1.0 / n)
    if sigma == 0.0:
        deltas = np.zeros(n)
    elif model.averaging is Averaging.MONTE_CARLO:
        deltas = np.random.default_rng(model.seed).normal(0.0, sigma, size=n)
    else:
        import scipy.special

        nodes, weights = scipy.special.roots_hermite(n)
        deltas = np.sqrt(2.0) * sigma * nodes
        weights = weights / np.sqrt(np.pi)
    if not abs(weights.sum() - 1.0) <= 1e-12:  # also fails inf and NaN
        raise ValueError(f"n_samples = {n}: ensemble weights are not finite or do not sum to 1")
    return deltas, weights


def sample_detunings(model: ImperfectionModel) -> list[DetuningSample]:
    """``detuning_ensemble`` as a list of ``DetuningSample`` objects."""
    deltas, weights = detuning_ensemble(model)
    return [DetuningSample(d, w) for d, w in zip(deltas.tolist(), weights.tolist())]


def fid_curve(
    model: ImperfectionModel,
    t_grid: np.ndarray,
    delta_ref: float = 50e3,
    n_quadrature: int = 41,
    readout_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Ramsey free-induction-decay signal P0(t) on the electron ancilla.

    pi/2 - wait - pi/2 on |0>e: each detuning sample delta_s only turns the
    electron coherence by the phase 2*pi*(delta_ref + delta_s)*t, so the ensemble
    average is P0(t) = (1 + sum_s w_s * cos(2*pi*(delta_ref + delta_s)*t)) / 2 over
    the ``n_quadrature`` samples of ``detuning_ensemble``. The closed form
    (1 + exp(-(t/T2*)^2) * cos(2*pi*delta_ref*t)) / 2 is the test oracle.
    Returns an array of shape (len(t_grid), 2) with columns (t, P0).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid < 0).any():
        raise ValueError("t_grid must be non-negative")
    deltas, weights = detuning_ensemble(model.with_(n_samples=n_quadrature))
    # (delta_ref + delta_s) * t as two products: at a T2* near the smallest normal float
    # the Nyquist limit admits a delta_ref near 1e308, where the sum would overflow
    phase = np.outer(t_grid, deltas) + t_grid[:, None] * delta_ref
    p0 = (1.0 + np.cos(2 * np.pi * phase) @ weights) / 2
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

    Returns (t2_star_hat, one-sigma uncertainty). Raises FitError on data that
    are not finite or so large that the fit overflows, on non-convergence, or
    on a degenerate (unbounded) estimate.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 5:
        raise ValueError("need at least 5 points")
    if not np.isfinite(points).all():
        raise FitError("decay data are not finite")
    try:
        # an overflow would otherwise only warn, and carry inf into the estimate
        with np.errstate(over="raise"):
            return _fit_decay(points[:, 0], points[:, 1])
    except FloatingPointError as exc:
        raise FitError(f"decay fit overflowed: {exc}") from exc


def _fit_decay(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    import scipy.optimize

    span = t.max() - t.min()
    # fit in units of the span, so the Jacobian stays O(1) at any time scale
    u = t / span
    amp0 = (y.max() - y.min()) / 2
    if amp0 < 1e-12:
        raise FitError("signal has no contrast")
    # dominant frequency seed from the periodogram on a uniform grid
    du = np.median(np.diff(np.sort(u)))
    freqs = np.fft.rfftfreq(len(u), du)
    spectrum = np.abs(np.fft.rfft(y - y.mean()))
    delta0 = freqs[1:][spectrum[1:].argmax()] if len(freqs) > 1 else 1.0
    p0 = [amp0, 0.5, delta0, 0.0, y.mean()]
    # an analytic Jacobian: a finite-difference step scales with its parameter,
    # so a phase fitted to ~1e-10 would give a zero column and no covariance
    try:
        # a fit without a covariance estimate warns; the check of var below raises FitError
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)
            popt, pcov = scipy.optimize.curve_fit(
                _decay_model, u, y, p0=p0, jac=_decay_jacobian, maxfev=20000
            )
    except RuntimeError as exc:
        raise FitError(f"decay fit did not converge: {exc}") from exc
    t2_hat = abs(float(popt[1]))
    var = float(pcov[1, 1])
    if not np.isfinite(var) or t2_hat > 100:
        raise FitError("degenerate decay estimate (no decay within the data span)")
    return t2_hat * span, float(np.sqrt(var)) * span
