"""Measurement semantics and Leggett-Garg correlators at the ideal level.

Implements the two state-update conventions for a degenerate dichotomic
measurement (Luders: project with the summed eigenspace projector;
von Neumann: project with each rank-1 projector and sum), the three-time
protocol that assembles K3, general n-time strings, the closed-form
correlators for the qutrit protocol, macrorealist bounds by enumeration,
the search for the violation-maximising rotation angle, and the spin
rotation U(theta) = exp(-i*theta*Sx) that drives the protocol.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

PROJECTOR_TOL = 1e-10
BRANCH_PROB_FLOOR = 1e-14


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
        u[..., 0, 1] = u[..., 1, 0] = u[..., 1, 2] = u[..., 2, 1] = -1j * (s / np.sqrt(2.0))
    else:
        ch, sh = np.cos(theta / 2), np.sin(theta / 2)
        u[..., 0, 0] = u[..., 1, 1] = ch
        u[..., 0, 1] = u[..., 1, 0] = -1j * sh
    return u


def basis_projector(index: int, dim: int) -> np.ndarray:
    """Rank-1 projector |index><index| in a dim-dimensional space."""
    p = np.zeros((dim, dim), dtype=complex)
    p[index, index] = 1.0
    return p


class UpdateRule(enum.Enum):
    LUDERS = "luders"
    VON_NEUMANN = "von-neumann"


class InvalidSchemeError(ValueError):
    """Projector set violates the measurement-scheme invariants."""


@dataclass(frozen=True)
class MeasurementScheme:
    """Projective measurement with outcomes grouped into dichotomic values.

    ``projectors`` maps labels to rank->=1 projectors; ``outcome_of_label``
    assigns each label +1 or -1; ``update_rule`` selects how the
    post-measurement state is formed for degenerate outcomes.

    The update acts on density matrices (``measure``), the LG kernel on sets
    of kets; both may be stacked, and any leading axes are carried through.
    """

    projectors: tuple[tuple[str, np.ndarray], ...]
    outcome_of_label: dict[str, int]
    update_rule: UpdateRule

    @property
    def dim(self) -> int:
        return self.projectors[0][1].shape[0]

    @functools.cached_property
    def _update_ops(self) -> tuple[np.ndarray, np.ndarray]:
        """Update operators K (post state sum K rho K): their outcomes and an (M, d, d) stack.

        Rules as in ``measure``. Checks the scheme first; a failed check
        raises and caches nothing, so it raises again on the next use.
        """
        ops = np.array([p for _, p in self.projectors], dtype=complex)
        for lab, p in self.projectors:
            if np.abs(p - p.conj().T).max() > PROJECTOR_TOL:
                raise InvalidSchemeError(f"projector {lab!r} not Hermitian")
            if np.abs(p @ p - p).max() > PROJECTOR_TOL:
                raise InvalidSchemeError(f"projector {lab!r} not idempotent")
            if lab not in self.outcome_of_label:
                raise InvalidSchemeError(f"label {lab!r} has no outcome assignment")
            if self.outcome_of_label[lab] not in (+1, -1):
                raise InvalidSchemeError(f"outcome for {lab!r} must be +1 or -1")
        for (_, a), (_, b) in itertools.combinations(self.projectors, 2):
            if np.abs(a @ b).max() > PROJECTOR_TOL:
                raise InvalidSchemeError("projectors not mutually orthogonal")
        if np.abs(ops.sum(0) - np.eye(self.dim)).max() > PROJECTOR_TOL:
            raise InvalidSchemeError("projectors do not sum to identity")
        outcomes = np.array([self.outcome_of_label[lab] for lab, _ in self.projectors], float)
        if self.update_rule is UpdateRule.LUDERS:
            ops = np.array([ops[outcomes == v].sum(0) for v in (+1, -1)])
            outcomes = np.array([+1.0, -1.0])
        return outcomes, ops

    @functools.cached_property
    def _observable(self) -> np.ndarray:
        """Q = sum of outcome * K over the update operators."""
        return np.tensordot(*self._update_ops, 1)

    def validate(self) -> None:
        self._update_ops

    def _post_state(self, rho: np.ndarray, outcome: int) -> np.ndarray:
        """Unnormalised post-measurement state; its trace is the outcome probability."""
        outcomes, ops = self._update_ops
        return sum((k @ rho @ k for k in ops[outcomes == outcome]), np.zeros_like(rho))

    def _ket_q(self, kets: np.ndarray) -> np.ndarray:
        """psi^dagger Q psi for each ket psi, a row of ``kets``."""
        return np.einsum("...i,...i->...", kets.conj(), _apply(self._observable, kets)).real


def _apply(ops: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Each d x d operator in ``ops`` times each ket of (..., m, d), in one 2-D product."""
    *lead, m, d = kets.shape
    return (kets.reshape(-1, d) @ ops.reshape(-1, d).T).reshape(*lead, m * ops.size // d**2, d)


@dataclass(frozen=True)
class MeasurementBranch:
    """One dichotomic outcome of a measurement.

    ``post_state`` is None for zero-probability branches.
    """

    outcome: int
    probability: float
    post_state: np.ndarray | None


@dataclass(frozen=True)
class CorrelatorSet:
    """The three correlators of the reduced three-time LG function."""

    q2_mean: float
    q2q3_mean: float
    q3_mean: float

    @property
    def k3(self) -> float:
        return self.q2_mean + self.q2q3_mean - self.q3_mean


@dataclass(frozen=True)
class LgString:
    """n-time LG string: sequential correlators plus the closing term."""

    n: int
    terms: tuple[float, ...] = field(default=())

    @property
    def value(self) -> float:
        return float(sum(self.terms))


def standard_qutrit_scheme(rule: UpdateRule) -> MeasurementScheme:
    """Rank-1 projectors onto (|+1>, |0>, |-1>) with outcomes (+1, +1, -1)."""
    labels = ("+1", "0", "-1")
    scheme = MeasurementScheme(
        projectors=tuple((lab, basis_projector(i, 3)) for i, lab in enumerate(labels)),
        outcome_of_label={"+1": +1, "0": +1, "-1": -1},
        update_rule=rule,
    )
    scheme.validate()
    return scheme


def standard_qubit_scheme(rule: UpdateRule) -> MeasurementScheme:
    """Dichotomic rank-1 projectors on a qubit; Luders and von Neumann coincide."""
    scheme = MeasurementScheme(
        projectors=(("up", basis_projector(0, 2)), ("down", basis_projector(1, 2))),
        outcome_of_label={"up": +1, "down": -1},
        update_rule=rule,
    )
    scheme.validate()
    return scheme


def measure(rho: np.ndarray, scheme: MeasurementScheme) -> list[MeasurementBranch]:
    """Measure rho, returning one branch per dichotomic outcome.

    Von Neumann: the post state for outcome v is the normalised sum of the
    per-projector updates over the labels grouped into v (intra-outcome
    coherence is destroyed). Luders: the summed projector is applied once
    (coherence inside the outcome eigenspace survives).
    """
    branches = []
    for outcome in (+1, -1):
        post = scheme._post_state(rho, outcome)
        prob = float(np.trace(post).real)
        if prob > BRANCH_PROB_FLOOR:
            branches.append(MeasurementBranch(outcome, prob, post / prob))
        else:
            branches.append(MeasurementBranch(outcome, 0.0, None))
    return branches


def _lg_terms(
    theta: float | np.ndarray,
    n: int,
    scheme: MeasurementScheme,
    *,
    measure_at_t2_for_q3: bool = False,
) -> list[np.ndarray]:
    """The n terms of the LG string, elementwise over a scalar or array theta.

    The system starts in the top basis state, so Q(t1) = +1 and term 1 is
    <Q(t2)>. Term k (2 <= k < n) is <Q(t_k) Q(t_k+1)> from a run measured
    only at t_k and t_k+1: the unmeasured state at t_k is branched, and each
    unnormalised branch (which carries its probability) is evolved once
    more. The last term is -<Q(t_n)> on the unmeasured path, or, with
    ``measure_at_t2_for_q3``, on the path measured (and ignored) at t2.
    A state is the kets psi_m (rows of (..., m, d)) of rho = sum_m |psi_m><psi_m|:
    U|0> is one ket, a branch the K psi_m over its outcome's operators K, and
    the state measured at t2 both branches. Memory stays flat in n.
    """
    u = rotation_unitary(theta, scheme.dim)
    outcomes, ops = scheme._update_ops
    psi = u[..., None, :, 0]
    terms = [scheme._ket_q(psi).sum(-1)]
    for k in range(2, n):
        branches = np.einsum("...mj,...ij->...mi", _apply(ops, psi), u)
        terms.append(scheme._ket_q(branches) @ np.tile(outcomes, psi.shape[-2]))
        measured = k == 2 and measure_at_t2_for_q3
        psi = branches if measured else np.einsum("...mj,...ij->...mi", psi, u)
    terms.append(-scheme._ket_q(psi).sum(-1))
    return terms


def k3_protocol(
    theta: float,
    scheme: MeasurementScheme,
    *,
    measure_at_t2_for_q3: bool = False,
) -> CorrelatorSet:
    """Three-time protocol with the initial state counted as the first measurement.

    The system starts in the top basis state, so Q(t1) = +1 deterministically.
    <Q2> and <Q2Q3> come from evolving by U(theta), branching on the
    measurement at t2, evolving again and measuring at t3. <Q3> is evaluated
    on the unmeasured path by default; ``measure_at_t2_for_q3`` inserts a
    measured-but-ignored step at t2 for invasiveness studies.
    """
    q2, q2q3, minus_q3 = _lg_terms(theta, 3, scheme, measure_at_t2_for_q3=measure_at_t2_for_q3)
    return CorrelatorSet(q2_mean=float(q2), q2q3_mean=float(q2q3), q3_mean=float(-minus_q3))


def analytic_correlators(theta: float) -> CorrelatorSet:
    """Closed-form correlators for the qutrit protocol with per-projector updates.

    Validated against ``k3_protocol`` (the LG kernel ``_lg_terms`` is the
    authority); reaches K3 = 1.756 near theta = 0.416*pi.
    """
    q2 = 0.25 + math.cos(theta) - 0.25 * math.cos(2 * theta)
    q2q3 = 1.0 / 16 + math.cos(theta) - math.cos(4 * theta) / 16
    q3 = 0.25 + math.cos(2 * theta) - 0.25 * math.cos(4 * theta)
    return CorrelatorSet(q2_mean=q2, q2q3_mean=q2q3, q3_mean=q3)


def kn_string(n: int, theta: float, scheme: MeasurementScheme) -> LgString:
    """n-time LG string with equal rotation angle theta between neighbours.

    Each pairwise correlator is evaluated in its own run (measurements only
    at the two times that enter the term).
    """
    if n < 3:
        raise ValueError(f"kn_string needs n >= 3, got {n}")
    return LgString(n=n, terms=tuple(float(t) for t in _lg_terms(theta, n, scheme)))


def classical_extrema(n: int) -> tuple[int, int]:
    """Exact macrorealist extrema of the n-time string by 2^n enumeration."""
    if not 3 <= n <= 12:
        raise ValueError(f"classical_extrema supports 3 <= n <= 12, got {n}")
    values = [
        sum(qs[i] * qs[i + 1] for i in range(n - 1)) - qs[-1] * qs[0]
        for qs in itertools.product((+1, -1), repeat=n)
    ]
    return min(values), max(values)


def find_max_k3(
    scheme: MeasurementScheme, grid_points: int = 10_000
) -> tuple[float, float]:
    """Maximise K3(theta) over [0, pi] exactly: the best end point or root of K3'.

    ``grid_points`` is accepted and checked (>= 100) but not used; the result
    does not depend on it. Deterministic; ties broken toward the smallest
    theta. Returns (theta_star, k3_max).
    """
    if grid_points < 100:
        raise ValueError("grid_points must be >= 100")
    # U(theta) has entries of degree 1 in (cos theta, sin theta) for spin 1, which
    # is degree 2 in theta/2, and of degree 1 in theta/2 for spin 1/2. Each K3 term
    # is psi^dagger Q psi with psi at most two rotations applied to |0>, so for
    # both dimensions K3 = sum_k c_k z^k, z = exp(i theta/2), |k| <= 8 (period
    # 4 pi): 17 equispaced values give the c_k exactly, and K3' = 0 where
    # sum_k k c_k z^(k+8) = 0. Every root is a candidate; K3 is evaluated exactly
    # at each, so a spurious one cannot win.
    nodes = 4 * np.pi * np.arange(17) / 17
    c = np.fft.fftshift(np.fft.fft(sum(_lg_terms(nodes, 3, scheme)))) / 17
    k = np.arange(-8, 9)
    thetas = 2 * np.angle(np.roots((k * c)[::-1])) % (4 * np.pi)
    thetas = np.sort(np.concatenate(([0.0, np.pi], thetas[thetas <= np.pi])))
    values = sum(_lg_terms(thetas, 3, scheme))
    best = int(values.argmax())
    return float(thetas[best]), float(values[best])
