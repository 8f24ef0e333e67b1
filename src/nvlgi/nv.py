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

from .noise import ImperfectionModel, detuning_ensemble, imperfect_initial_state
from .protocol import CorrelatorSet, rotation_unitary

GAMMA_E_HZ_PER_G = 2.8025e6  # electron gyromagnetic ratio
GAMMA_N_HZ_PER_G = 307.7  # 14N nuclear gyromagnetic ratio

_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3, dtype=complex)

# postselected electron-|0> levels |4>, |5>, |6> as 0-based indices
POSTSELECT_IDX = (3, 4, 5)


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


# per protected nuclear state: the electron flips (levels i <-> i+-3) on each unprotected
# state and on both, as level permutations, so F rho F^T permutes rows and columns
_FLIPS = tuple(
    tuple(np.array([(i + 3 * (i % 3 in ms)) % 6 for i in range(6)]) for ms in ((a,), (b,), (a, b)))
    for a, b in ((1, 2), (0, 2), (0, 1))
)


def _check_flip_prob(p: float | np.ndarray) -> None:
    """Raise unless every element of p is in [0, 1]; NaN fails."""
    p = np.asarray(p)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"flip probability must be in [0, 1], got {p}")


def _mean_gate(variant: int, q: np.ndarray, weights: np.ndarray):
    """The gate averaged over flip probabilities ``q`` (last axis) with ``weights``.

    Both unprotected subspaces flip independently with the same q, so one draw is
    (1-q)^2 rho + q(1-q) (F1 rho F1 + F2 rho F2) + q^2 F12 rho F12: the average
    needs only E[q] and E[q^2]. Leading axes of ``q`` broadcast against states.
    """
    m1 = (q @ weights)[..., None, None]
    m2 = (q**2 @ weights)[..., None, None]

    def apply(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho)
        f1, f2, f12 = (rho[..., f[:, None], f] for f in _FLIPS[variant - 1])
        return (1 - 2 * m1 + m2) * rho + (m1 - m2) * (f1 + f2) + m2 * f12

    return apply


def controlled_gate(variant: int, p: float | np.ndarray):
    """Channel flipping the electron on nuclear states other than the protected one.

    ``variant`` 1..3 protects |+1>n, |0>n, |-1>n respectively. Each
    unprotected subspace is flipped independently with probability p
    (one selective MW pulse per subspace); the protected subspace is
    untouched exactly and the channel is trace-preserving. It is the averaged
    gate of ``population_table`` at E[q] = p, E[q^2] = p^2.

    ``p`` may be an array, every element in [0, 1]; the channel then maps a
    state, or a stack of states broadcast against it, to one state per
    element (shape ``p.shape + (6, 6)``).
    """
    if not 1 <= variant <= 3:
        raise ValueError(f"controlled_gate variant must be 1..3, got {variant}")
    _check_flip_prob(p)
    return _mean_gate(variant, np.asarray(p, dtype=float)[..., None], np.ones(1))


def run_inrm_experiment(
    theta: float,
    cg_variant: int,
    imperfections: ImperfectionModel | None = None,
    delta0: float = 0.0,
    f_rabi: float = 20e3,
    mw_rabi: float | None = None,
) -> np.ndarray:
    """One pulse sequence at a fixed quasi-static detuning delta0 (Hz).

    init -> U(theta) -> controlled gate (variants 1-3; 4 skips it) ->
    U(theta) -> populations of all six levels. Raw populations: the
    postselection happens in the assembly, not here.

    The gate is instantaneous by default, parameterized by the measured
    flip probability. ``mw_rabi`` switches to finite-duration selective MW
    pi pulses whose transfer degrades with the detuning delta0, the only way
    delta0 acts (its phase cancels). ``f_rabi`` is checked but inert.
    """
    if cg_variant not in (1, 2, 3, 4):
        raise ValueError(f"cg_variant must be 1..4, got {cg_variant}")
    model = imperfections or ImperfectionModel.ideal()
    ensemble = np.array([delta0], dtype=float), np.ones(1)
    return _inrm_populations(theta, (cg_variant,), model, f_rabi, mw_rabi, *ensemble)[0].copy()


def _inrm_populations(theta, variants, model, f_rabi, mw_rabi, deltas, weights) -> np.ndarray:
    """Populations (len(variants), 6), the gate averaged over ``deltas`` with ``weights``.

    U(theta, delta) = D(delta) (I2 (x) R3(theta)), D diagonal and constant on each
    electron block; the initial state is diagonal, so D cancels before the gate and
    on the electron-diagonal blocks the populations read: delta acts only through q.
    """
    if not f_rabi > 0:
        raise ValueError(f"f_rabi must be positive, got {f_rabi}")
    q = np.full(deltas.shape, model.flip_prob_p)
    if mw_rabi is not None:
        q *= _pulse_flip_prob(deltas, mw_rabi)
    _check_flip_prob(q)
    u = np.kron(_I2, rotation_unitary(theta, dim=3))  # nuclear rotation in both manifolds
    u_dag = u.conj().T
    rho = u @ imperfect_initial_state(model) @ u_dag
    states = np.stack([rho if j == 4 else _mean_gate(j, q, weights)(rho) for j in variants])
    return (u @ states @ u_dag).diagonal(axis1=-2, axis2=-1).real


def population_table(
    theta: float,
    imperfections: ImperfectionModel | None = None,
    f_rabi: float = 20e3,
    mw_rabi: float | None = None,
) -> np.ndarray:
    """6x4 table P[i][j]: level populations for the four experiment variants.

    The detuning phase cancels in every population, so the detuning ensemble is
    drawn only with ``mw_rabi``, whose transfer it degrades; the gate is then
    averaged through E[q] and E[q^2] of its flip probability q, at a cost that does
    not grow with ``n_samples``. ``f_rabi``, and ``t2_star`` without ``mw_rabi``,
    are checked but do not change the table. Raises ``DegeneratePostselectionError``
    for flip probability 0, where the postselected populations overcount every outcome.
    """
    model = imperfections or ImperfectionModel.ideal()
    if model.flip_prob_p == 0.0:
        raise DegeneratePostselectionError(
            "flip probability 0: the controlled gate never marks the ancilla, "
            "so the postselected populations overcount every outcome"
        )
    ensemble = (np.zeros(1), np.ones(1)) if mw_rabi is None else detuning_ensemble(model)
    return _inrm_populations(theta, (1, 2, 3, 4), model, f_rabi, mw_rabi, *ensemble).T.copy()


def postselected_weights(table: np.ndarray) -> np.ndarray:
    """Per-variant probability retained by keeping levels |4>, |5>, |6>."""
    return table[POSTSELECT_IDX, :].sum(axis=0)


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
    p4, p5, p6 = table[3], table[4], table[5]
    q2 = (p4[0] + p5[0] + p6[0]) + (p4[1] + p5[1] + p6[1]) - (p4[2] + p5[2] + p6[2])
    q2q3 = (p4[0] + p5[0] - p6[0]) + (p4[1] + p5[1] - p6[1]) - (p4[2] + p5[2] - p6[2])
    q3 = p4[3] + p5[3] - p6[3]
    return CorrelatorSet(q2_mean=float(q2), q2q3_mean=float(q2q3), q3_mean=float(q3))


def lg_run(
    theta: float,
    imperfections: ImperfectionModel | None = None,
    f_rabi: float = 20e3,
    mw_rabi: float | None = None,
) -> CorrelatorSet:
    """Full experiment: four variants under the imperfection model, assembled K3."""
    return assemble_lg(population_table(theta, imperfections, f_rabi, mw_rabi))


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
    rho = np.kron(np.diag([0.0, 1.0]), _I3 / 3)
    if apply_cg:
        rho = controlled_gate(cg_variant, p)(rho)
    # per-nuclear-state electron populations before the sweep pulse
    pop1, pop0 = np.diag(rho).real.reshape(2, 3)
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

    Non-positive P0 values (possible under readout noise) are dropped.
    Returns (p_hat, one-sigma uncertainty).
    """
    points = np.asarray(points, dtype=float)
    keep = points[:, 1] > 0
    k, y = points[keep, 0], np.log(points[keep, 1])
    if len(k) < 3:
        raise ValueError("not enough positive points for the log-linear fit")
    coeffs, cov = np.polyfit(k, y, 1, cov=True)
    slope, slope_var = coeffs[0], cov[0, 0]
    p_hat = float(np.exp(slope))
    return p_hat, float(p_hat * np.sqrt(slope_var))
