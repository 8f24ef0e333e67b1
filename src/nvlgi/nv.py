"""Six-level NV-center experiment model: electron ancilla (x) nitrogen
nuclear qutrit, controlled-gate negative-result measurement with
postselection, population tables, and the LG-function assembly.

Level ordering follows the product basis
(|1>e, |0>e) (x) (|+1>n, |0>n, |-1>n), relabeled |1>..|6>, so the
experiment's populations P_i^j read off as diagonal entries directly.
The initialized/postselected electron manifold |0>e covers levels 4-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import FitError, ImperfectionModel, detuning_ensemble
from .protocol import CorrelatorSet, rotation_unitary

GAMMA_E_HZ_PER_G = 2.8025e6  # electron gyromagnetic ratio
GAMMA_N_HZ_PER_G = 307.7  # 14N nuclear gyromagnetic ratio


class DegeneratePostselectionError(RuntimeError):
    """Controlled gate cannot distinguish outcomes (e.g. flip probability 0)."""


@dataclass(frozen=True)
class NvModel:
    """Ground-state NV constants (Hz, except the field in gauss)."""

    d_zfs: float = 2.87e9
    q_quad: float = -4.95e6
    a_hf: float = -2.16e6
    b_field: float = 512.0

    @property
    def omega_e(self) -> float:
        return GAMMA_E_HZ_PER_G * self.b_field

    @property
    def omega_n(self) -> float:
        return GAMMA_N_HZ_PER_G * self.b_field

    def level_energies(self) -> np.ndarray:
        """Diagonal of the 6-level Hamiltonian in Hz, ordered |1>..|6>."""
        energies = []
        for ms in (1, 0):  # electron manifolds |1>e then |0>e
            for mi in (1, 0, -1):
                energies.append(
                    self.d_zfs * ms**2
                    + self.omega_e * ms
                    + self.q_quad * mi**2
                    + self.omega_n * mi
                    + self.a_hf * mi * ms
                )
        return np.array(energies)

    def mw_transition(self, mi: int) -> float:
        """Electron |0>e -> |1>e transition frequency (Hz) at nuclear state mi."""
        e = self.level_energies()
        col = {1: 0, 0: 1, -1: 2}[mi]
        return e[col] - e[3 + col]


def _check_flip_prob(p: float | np.ndarray) -> None:
    """Raise unless every element of p is in [0, 1]; NaN fails."""
    p = np.asarray(p)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"flip probability must be in [0, 1], got {p}")


def _initial_populations(model: ImperfectionModel) -> tuple[np.ndarray, np.ndarray]:
    """Electron (|1>e, |0>e) and nuclear (|+1>n, |0>n, |-1>n) populations after pumping.

    Residual electron weight sits in |1>e; residual nuclear weight is split
    evenly over |0>n and |-1>n.
    """
    p_e = np.array([1.0 - model.pol_e, model.pol_e])
    return p_e, np.array([model.pol_n, (1.0 - model.pol_n) / 2, (1.0 - model.pol_n) / 2])


def run_inrm_experiment(
    theta: float,
    cg_variant: int,
    imperfections: ImperfectionModel | None = None,
    delta0: float = 0.0,
    *,
    mw_rabi: float | None = None,
) -> np.ndarray:
    """One pulse sequence at a fixed quasi-static detuning delta0 (Hz).

    init -> U(theta) -> controlled gate (variants 1-3; 4 skips it) ->
    U(theta) -> populations of all six levels. Raw populations: the
    postselection happens in the assembly, not here.

    The gate is instantaneous by default, parameterized by the measured
    flip probability. ``mw_rabi`` switches to finite-duration selective MW
    pi pulses whose transfer degrades with the detuning delta0, the only way
    delta0 acts (its phase cancels).
    """
    if cg_variant not in (1, 2, 3, 4):
        raise ValueError(f"cg_variant must be 1..4, got {cg_variant}")
    model = imperfections or ImperfectionModel.ideal()
    ensemble = np.array([delta0], dtype=float), np.ones(1)
    return _inrm_populations(theta, (cg_variant,), model, mw_rabi, *ensemble)[0].copy()


# the controlled gate: per variant and term, the nuclear states whose electron flips. Variant
# v = 1..3 protects nuclear state v - 1 and flips each other one independently with probability
# q; the terms (no flip, each single flip, both) weigh rho by 1 - 2 m1 + m2, m1 - m2, m1 - m2
# and m2 for m1 = E[q], m2 = E[q^2]; variant 4 runs no gate
_FLIPPED = np.array(
    [
        [[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]],
        [[0, 0, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ],
    dtype=float,
)
# per variant, (own, across) x (a, b) x term: a term keeps a manifold's own entry (a, b) when
# neither state flips and takes the other manifold's when both do; mixed entries become
# electron coherences, which the block-diagonal second rotation keeps off the diagonal
_BLOCK_MASKS = np.stack(
    [np.einsum("vta,vtb->vabt", s, s).reshape(4, 9, 4) for s in (1 - _FLIPPED, _FLIPPED)], axis=1
)


def _inrm_populations(theta, variants, model, mw_rabi, deltas, weights) -> np.ndarray:
    """Populations (len(variants), 6), the gate averaged over ``deltas`` with ``weights``.

    U(theta, delta) = D(delta) (I2 (x) R(theta)), D diagonal and constant on each electron
    block, and the initial state p_e (x) d_n is diagonal: D cancels, delta acts only through
    the flip probability q, and after the first rotation electron manifold e holds
    p_e N with N = R diag(d_n) R^dagger. The gate is the moment form over E[q] and E[q^2],
    so manifold e ends with X_e = N * (p_e own + p_other across) (``_BLOCK_MASKS``)
    and populations R X_e R^dagger on the diagonal.
    """
    q = np.full(deltas.shape, model.flip_prob_p)
    if mw_rabi is not None:
        q *= _pulse_flip_prob(deltas, mw_rabi)
    _check_flip_prob(q)
    m1, m2 = q @ weights, q**2 @ weights
    masks = _BLOCK_MASKS[np.subtract(variants, 1)] @ [1 - 2 * m1 + m2, m1 - m2, m1 - m2, m2]
    p_e, d_n = _initial_populations(model)
    r = rotation_unitary(theta, dim=3)
    x = np.array([p_e, p_e[::-1]]) @ masks * ((r * d_n) @ r.conj().T).ravel()
    t = (r[:, :, None] * r.conj()[:, None, :]).reshape(3, 9)  # T[i, (a, b)] = R_ia conj(R_ib)
    return (x @ t.T).real.reshape(len(variants), 6)


def population_table(
    theta: float,
    imperfections: ImperfectionModel | None = None,
    *,
    mw_rabi: float | None = None,
) -> np.ndarray:
    """6x4 table P[i][j]: level populations for the four experiment variants.

    The detuning phase cancels in every population, so the detuning ensemble is
    drawn only with ``mw_rabi``, whose transfer it degrades; the gate is then
    averaged through E[q] and E[q^2] of its flip probability q, at a cost that does
    not grow with ``n_samples``. ``t2_star`` without ``mw_rabi`` is checked but
    does not change the table. Raises ``DegeneratePostselectionError``
    for flip probability 0, where the postselected populations overcount every outcome.
    That is a point guard, not a threshold: the table is continuous as p -> 0+ (nominal K3
    at theta = 0.416 pi is 0.9509 at p = 1e-3 and 0.95 from p = 1e-8 to subnormal p).
    """
    model = imperfections or ImperfectionModel.ideal()
    if model.flip_prob_p == 0.0:
        raise DegeneratePostselectionError(
            "flip probability 0: the controlled gate never marks the ancilla, "
            "so the postselected populations overcount every outcome"
        )
    ensemble = (np.zeros(1), np.ones(1)) if mw_rabi is None else detuning_ensemble(model)
    return _inrm_populations(theta, (1, 2, 3, 4), model, mw_rabi, *ensemble).T.copy()


def postselected_weights(table: np.ndarray) -> np.ndarray:
    """Per-variant probability retained by keeping levels |4>, |5>, |6>."""
    return table[3:].sum(axis=0)


# (q2, q2q3, q3) = _LG_SIGNS @ table[3:].ravel(), whose entries run over the kept levels
# |4>, |5>, |6> (Q3 = +1, +1, -1), each across variants 1-4 (Q2 = +1, +1, -1 on the gated
# columns, 0 on the gate-free one): q2 sums Q2, q2q3 sums Q2 Q3, q3 sums Q3 on variant 4
_LG_SIGNS = np.array(
    [
        [1, 1, -1, 0, 1, 1, -1, 0, 1, 1, -1, 0],
        [1, 1, -1, 0, 1, 1, -1, 0, -1, -1, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, -1],
    ],
    dtype=float,
)


def assemble_lg(table: np.ndarray) -> CorrelatorSet:
    """LG correlators from the final-state populations of the four variants.

    Populations of the unflipped-ancilla levels enter as joint (raw)
    probabilities: the t2 outcome is set by the gate variant, the t3
    outcome by which of |4>, |5>, |6> is occupied.
    """
    table = np.asarray(table, dtype=float)
    if table.shape != (6, 4):
        raise ValueError(f"population table must be 6x4, got {table.shape}")
    weights = postselected_weights(table)
    # a CG column may be legitimately empty (e.g. theta=0 with a perfect
    # gate: the t2 outcome it probes never occurs); the gate-free column
    # and the table as a whole must retain weight
    if weights[3] <= 0 or weights.sum() <= 0:
        raise DegeneratePostselectionError(
            f"postselection impossible: per-variant weights {weights}"
        )
    q2, q2q3, q3 = (_LG_SIGNS @ table[3:].ravel()).tolist()
    return CorrelatorSet(q2_mean=q2, q2q3_mean=q2q3, q3_mean=q3)


def lg_run(
    theta: float,
    imperfections: ImperfectionModel | None = None,
    *,
    mw_rabi: float | None = None,
) -> CorrelatorSet:
    """Full experiment: four variants under the imperfection model, assembled K3."""
    return assemble_lg(population_table(theta, imperfections, mw_rabi=mw_rabi))


def _pulse_flip_prob(detuning: float | np.ndarray, rabi: float) -> np.ndarray:
    """Population transfer of a square pi pulse at the given detuning(s) (Hz)."""
    if rabi <= 0:
        raise ValueError("rabi frequency must be positive")
    g = np.hypot(rabi, detuning)
    return (rabi / g) ** 2 * np.sin(np.pi * g / (2 * rabi)) ** 2


def odmr_spectrum(
    freqs: np.ndarray,
    apply_cg: bool = False,
    p: float = 1.0,
    model: NvModel | None = None,
    mw_rabi: float = 0.4e6,
    cg_variant: int = 1,
) -> np.ndarray:
    """Swept selective MW pi-pulse against a fully mixed nuclear spin.

    The electron starts in |0>e; with ``apply_cg`` the gate (flip
    probability p, protecting the ``cg_variant`` nuclear state) runs before
    the sweep, so the line pattern encodes p. Returns (freq, P0) rows.
    """
    _check_flip_prob(p)
    model = model or NvModel()
    freqs = np.asarray(freqs, dtype=float)
    lines = np.array([model.mw_transition(mi) for mi in (1, 0, -1)])
    # per-nuclear-state electron populations before the sweep pulse: the gate moves
    # weight p of each unprotected state's 1/3 from |0>e to |1>e
    pop1 = np.zeros(3)
    if apply_cg:
        if cg_variant not in (1, 2, 3):
            raise ValueError(f"cg_variant must be 1..3, got {cg_variant}")
        pop1 = p * _FLIPPED[cg_variant - 1, 3] / 3
    pop0 = 1 / 3 - pop1
    flip = _pulse_flip_prob(freqs[:, None] - lines, mw_rabi)
    return np.column_stack([freqs, ((1 - flip) * pop0 + flip * pop1).sum(axis=1)])


def repeated_cg(
    k_max: int,
    p: float,
    readout_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Survival of the flip-target population under k repeated gates: P0(k) = p^k.

    Optional Gaussian readout noise supports the fitter study. Returns
    (k, P0) rows for k = 0..k_max.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_flip_prob(p)
    ks = np.arange(k_max + 1)
    p0 = p**ks.astype(float)
    if readout_sigma > 0:
        if rng is None:
            rng = np.random.default_rng()
        p0 = p0 + rng.normal(0.0, readout_sigma, size=p0.shape)
    return np.column_stack([ks, p0])


def fit_flip_probability(points: np.ndarray) -> tuple[float, float]:
    """Recover p from (k, P0) data by log-linear regression.

    Only the points (in k order) before the first non-positive P0, possible under
    readout noise, are fitted: past it the curve has sunk into the noise floor,
    whose positive points would pull the slope toward 0.
    Returns (p_hat, one-sigma uncertainty). Raises FitError on data that are
    not finite, when fewer than three points precede the first non-positive
    one, or when the estimate is not finite.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise FitError("repeated-gate data are not finite")
    keep = np.logical_and.accumulate(points[:, 1] > 0)
    k, y = points[keep, 0], np.log(points[keep, 1])
    if len(k) < 3:
        raise FitError("fewer than three positive points before the first non-positive one")
    coeffs, cov = np.polyfit(k, y, 1, cov=True)
    slope, slope_var = coeffs[0], cov[0, 0]
    # a slope beyond ~709 overflows to inf (and inf * 0 is NaN); both are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        p_hat = float(np.exp(slope))
        p_err = float(p_hat * np.sqrt(slope_var))
    if not (np.isfinite(p_hat) and np.isfinite(p_err)):
        raise FitError(f"log-linear fit is not finite: p_hat = {p_hat}, p_err = {p_err}")
    return p_hat, p_err
