"""Imperfection model (dephasing, polarizations, gate fidelity), quasi-static
Gaussian dephasing, free-induction-decay synthesis and fitting.

The detuning delta0 is quasi-static: constant within one shot, resampled
(or quadrature-weighted) across the ensemble. Its width follows from the
inhomogeneous dephasing time, sigma = 1/(sqrt(2)*pi*T2*), so the averaged
coherence decays as exp(-(t/T2*)^2).
"""

from __future__ import annotations

import enum
import functools
import math
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


# Golub-Welsch solves a dense n x n eigenproblem: 16 ms at 400 nodes, ~160 ms at 1000
MAX_HERMITE_NODES = 1000


@functools.lru_cache(maxsize=None)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for the weight exp(-x^2)/sqrt(pi), by Golub-Welsch.

    The nodes are the eigenvalues of the Jacobi matrix (off-diagonal sqrt(k/2)), the
    weights the squared first components of its eigenvectors. Read-only, as they are cached.
    """
    # eigh reads the lower triangle only, so the off-diagonal goes below the diagonal
    nodes, vectors = np.linalg.eigh(np.diag(np.sqrt(np.arange(1, n) / 2), -1))
    weights = vectors[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def detuning_ensemble(model: ImperfectionModel) -> tuple[np.ndarray, np.ndarray]:
    """Detuning ensemble as two arrays over the sample axis: (delta0 in Hz, weight).

    I.i.d. normal draws or Gauss-Hermite nodes, deterministic given (seed, n_samples,
    averaging), representing Normal(0, sigma^2) with weights summing to 1. The
    Gauss-Hermite rule comes from ``_hermite_rule`` and takes at most
    ``MAX_HERMITE_NODES`` nodes; a larger ``n_samples`` raises ValueError. Both arrays
    are read-only, as the Gauss-Hermite weights are the cached ones.
    """
    sigma, n = model.sigma_detuning, model.n_samples
    gauss_hermite = sigma != 0.0 and model.averaging is Averaging.GAUSS_HERMITE
    if gauss_hermite and n > MAX_HERMITE_NODES:  # refused before anything is allocated
        raise ValueError(f"n_samples = {n}: Gauss-Hermite takes at most {MAX_HERMITE_NODES}")
    weights = np.full(n, 1.0 / n)
    if sigma == 0.0:
        deltas = np.zeros(n)
    elif model.averaging is Averaging.MONTE_CARLO:
        deltas = np.random.default_rng(model.seed).normal(0.0, sigma, size=n)
    else:
        nodes, weights = _hermite_rule(n)
        deltas = np.sqrt(2.0) * sigma * nodes
    if not abs(weights.sum() - 1.0) <= 1e-12:  # also fails inf and NaN
        raise ValueError(f"n_samples = {n}: ensemble weights are not finite or do not sum to 1")
    deltas.flags.writeable = weights.flags.writeable = False
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


def _decay_residual(u, y, p):
    """Residual of A*exp(-(u/T)^2)*cos(2*pi*delta*u + phi) + C against y, and its Jacobian
    by p = (A, T, delta, phi, C), one row each, from one exp, cos and sin."""
    amp, t2, delta, phase, offset = p.tolist()
    x2, arg = (u / t2) ** 2, 2 * np.pi * delta * u + phase
    env = np.exp(-x2)
    c, s = env * np.cos(arg), env * np.sin(arg)
    jac = np.array([c, 2 * amp / t2 * x2 * c, -2 * np.pi * amp * u * s, -amp * s, np.ones_like(u)])
    return amp * c + offset - y, jac


def _damping(w, b, radius, lam):
    """MINPACK's lmpar in the eigenbasis (w, v) of the scaled J^T J, with b = v^T D^-1 J^T r.

    Returns (lam, q), the step being -v @ q with q = b/(w + lam): lam = 0 if that step
    fits in 1.1*radius, else |q| within 10% of radius by Newton from the last lam.
    An eigenvalue set to inf takes no step.
    """

    def newton(q, lam):  # the change of lam that would bring |q| to radius
        qq = float(q @ q)
        return (math.sqrt(qq) / radius - 1) * qq / float(q**2 @ (1 / (w + lam)))

    q = b / w
    if math.sqrt(q @ q) <= 1.1 * radius:
        return 0.0, q
    low = newton(q, 0.0) if w[0] < np.inf else 0.0
    lam = max(lam, low)
    for _ in range(10):
        lam = lam or 1e-3 * math.sqrt(b @ b) / radius
        q = b / (w + lam)
        if abs(math.sqrt(q @ q) / radius - 1) <= 0.1:
            break
        lam = max(low, lam + newton(q, lam))
    return lam, q


def _levenberg_marquardt(u, y, p):
    """Least squares of ``_decay_residual`` from p by MINPACK's trust-region
    Levenberg-Marquardt (More 1978), with its default tolerances.

    Returns the fit, its sum of squares and its Jacobian, one row per parameter.
    """
    tol, max_evals = 1.49012e-8, 20000  # MINPACK's ftol and xtol; curve_fit's maxfev here
    r, jac = _decay_residual(u, y, p)
    cost, evals, done, lam = float(r @ r), 1, False, 0.0
    scale = np.linalg.norm(jac, axis=1)
    scale[scale == 0] = 1.0
    xnorm = float(np.linalg.norm(scale * p))
    radius = 100 * xnorm
    while cost > 0 and not done:
        normal = jac @ jac.T
        scale = np.maximum(scale, np.sqrt(normal.diagonal()))
        w, v = np.linalg.eigh(normal / np.outer(scale, scale))
        w[w <= 0] = np.inf  # singular to rounding: no step along these
        b = v.T @ (jac @ r / scale)
        v /= scale[:, None]  # so that -v @ q is the step in p
        while True:
            if evals == max_evals:
                raise FitError(f"decay fit did not converge in {max_evals} evaluations")
            lam, q = _damping(w, b, radius, lam)
            trial, qq = p - v @ q, float(q @ q)
            znorm = math.sqrt(qq)
            radius = min(radius, znorm) if evals == 1 else radius
            r_new, jac_new = _decay_residual(u, y, trial)
            evals, cost_new = evals + 1, float(r_new @ r_new)
            # relative to the cost: q.b = |J step|^2 + lam*|D step|^2, the predicted
            # decrease and the actual one
            slope = float(q @ b) / cost
            pred = slope + lam * qq / cost
            act = 1 - cost_new / cost if cost_new < 100 * cost else -1.0
            ratio = act / pred if pred > 0 else 0.0
            if ratio <= 0.25:
                shrink = 0.5 if act >= 0 else max(0.1, 0.5 * slope / (slope - 0.5 * act))
                shrink = 0.1 if cost_new >= 100 * cost else shrink
                radius, lam = shrink * min(radius, 10 * znorm), lam / shrink
            elif lam == 0 or ratio >= 0.75:
                radius, lam = 2 * znorm, lam / 2
            if ratio >= 1e-4:
                p, r, jac, cost = trial, r_new, jac_new, cost_new
                xnorm = float(np.linalg.norm(scale * p))
            done = (abs(act) <= tol and pred <= tol and ratio <= 2) or radius <= tol * xnorm
            if done or ratio >= 1e-4:
                break
    return p, cost, jac


def fit_gaussian_decay(points: np.ndarray) -> tuple[float, float]:
    """Fit A*exp(-(t/T2*)^2)*cos(2*pi*delta*t + phi) + C to (t, P0) data.

    Returns (t2_star_hat, one-sigma uncertainty). Raises FitError on data that
    are not finite or so large that the fit overflows, on non-convergence, on a
    degenerate (unbounded) estimate, or when the uncertainty exceeds the estimate.
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
    span = t.max() - t.min()
    # fit in units of the span, so the Jacobian stays O(1) at any time scale
    u = t / span
    amp0 = (y.max() - y.min()) / 2
    if amp0 < 1e-12:
        raise FitError("signal has no contrast")
    # dominant frequency seed from the periodogram on a uniform grid
    steps = np.sort(np.diff(np.sort(u)))
    du = (steps[(len(steps) - 1) // 2] + steps[len(steps) // 2]) / 2  # their median
    mean = y.mean()
    spectrum = np.abs(np.fft.rfft(y - mean))
    delta0 = (spectrum[1:].argmax() + 1) * (1.0 / (len(u) * du))  # its rfftfreq
    p0 = np.array([amp0, 0.5, delta0, 0.0, mean])
    popt, cost, jac = _levenberg_marquardt(u, y, p0)
    t2_hat = abs(float(popt[1]))
    # inv(J^T J)[1, 1] * cost / (m - 5) from the singular values of J: a direction J
    # does not resolve gives T an infinite (or huge) variance, not none
    _, sv, vt = np.linalg.svd(jac.T, full_matrices=False)
    with np.errstate(all="ignore"):
        var = np.sum((vt[:, 1] / sv) ** 2) * cost / (len(u) - 5) if len(u) > 5 else np.inf
    if not np.isfinite(var) or t2_hat > 100:
        raise FitError("degenerate decay estimate (no decay within the data span)")
    if var > t2_hat**2:  # the data do not resolve T2*: its one-sigma error exceeds it
        raise FitError(f"unresolved decay estimate: T2* = {t2_hat * span:.3g} s "
                       f"+- {np.sqrt(var) * span:.3g} s")
    return t2_hat * span, float(np.sqrt(var)) * span
