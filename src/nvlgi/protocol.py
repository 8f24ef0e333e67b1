"""Measurement semantics and Leggett-Garg correlators at the ideal level.

Implements the two state-update conventions for a degenerate dichotomic
measurement (Luders: project with the summed eigenspace projector;
von Neumann: project with each rank-1 projector and sum), the three-time
protocol that assembles K3, general n-time strings, the closed-form
correlators for the qutrit protocol, macrorealist bounds by enumeration,
and the search for the violation-maximising rotation angle.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import basis_projector, basis_state, rotation_unitary

PROJECTOR_TOL = 1e-10
BRANCH_PROB_FLOOR = 1e-14


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

    States passed to the update and to ``<Q>`` may be stacked: any leading
    axes are carried through.
    """

    projectors: tuple[tuple[str, np.ndarray], ...]
    outcome_of_label: dict[str, int]
    update_rule: UpdateRule

    @property
    def dim(self) -> int:
        return self.projectors[0][1].shape[0]

    @functools.cached_property
    def _update_ops(self) -> dict[int, list[np.ndarray]]:
        """Operators K, post state sum K rho K, for each outcome (rules as in ``measure``).

        Checks the scheme first; a failed check raises and caches nothing, so
        it raises again on the next use. An outcome with no projectors gets
        the zero operator.
        """
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for lab, p in self.projectors:
            if np.abs(p - p.conj().T).max() > PROJECTOR_TOL:
                raise InvalidSchemeError(f"projector {lab!r} not Hermitian")
            if np.abs(p @ p - p).max() > PROJECTOR_TOL:
                raise InvalidSchemeError(f"projector {lab!r} not idempotent")
            if lab not in self.outcome_of_label:
                raise InvalidSchemeError(f"label {lab!r} has no outcome assignment")
            if self.outcome_of_label[lab] not in (+1, -1):
                raise InvalidSchemeError(f"outcome for {lab!r} must be +1 or -1")
            total += p
        for (_, a), (_, b) in itertools.combinations(self.projectors, 2):
            if np.abs(a @ b).max() > PROJECTOR_TOL:
                raise InvalidSchemeError("projectors not mutually orthogonal")
        if np.abs(total - np.eye(self.dim)).max() > PROJECTOR_TOL:
            raise InvalidSchemeError("projectors do not sum to identity")
        zero = np.zeros_like(total)
        ops = {
            v: [p for lab, p in self.projectors if self.outcome_of_label[lab] == v] or [zero]
            for v in (+1, -1)
        }
        if self.update_rule is UpdateRule.LUDERS:
            return {v: [sum(ps)] for v, ps in ops.items()}
        return ops

    @functools.cached_property
    def _observable(self) -> np.ndarray:
        """Q = sum of outcome * P over all projectors."""
        return sum(v * p for v, ps in self._update_ops.items() for p in ps)

    def validate(self) -> None:
        self._update_ops

    def _post_state(self, rho: np.ndarray, outcome: int) -> np.ndarray:
        """Unnormalised post-measurement state; its trace is the outcome probability."""
        return sum(k @ rho @ k for k in self._update_ops[outcome])

    def _mean_q(self, rho: np.ndarray) -> np.ndarray:
        """<Q> = tr(rho Q), without forming branches."""
        return np.einsum("...ij,ji->...", rho, self._observable).real


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
    One state is carried from step to step, so memory stays flat in n.
    """
    u = rotation_unitary(theta, scheme.dim)
    ud = np.swapaxes(u.conj(), -1, -2)
    rho = u @ basis_state(0, scheme.dim) @ ud
    terms = [scheme._mean_q(rho)]
    for k in range(2, n):
        measured = k == 2 and measure_at_t2_for_q3
        pair, dephased = 0.0, 0.0
        for outcome in (+1, -1):
            post = scheme._post_state(rho, outcome)
            pair = pair + outcome * scheme._mean_q(u @ post @ ud)
            if measured:
                dephased = dephased + post
            del post  # one branch alive at a time keeps the grid's peak memory down
        terms.append(pair)
        rho = u @ (dephased if measured else rho) @ ud
    terms.append(-scheme._mean_q(rho))
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

    Validated against ``k3_protocol`` (the density-matrix path is the
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
    """Maximise K3(theta) over [0, pi]: grid scan plus golden-section refinement.

    Deterministic; ties broken toward the smallest theta. Returns
    (theta_star, k3_max).
    """
    if grid_points < 100:
        raise ValueError("grid_points must be >= 100")

    def k3(theta):
        return sum(_lg_terms(theta, 3, scheme))

    thetas = np.linspace(0.0, np.pi, grid_points)
    values = k3(thetas)
    best = int(values.argmax())

    a = thetas[max(best - 1, 0)]
    b = thetas[min(best + 1, grid_points - 1)]
    invphi = (math.sqrt(5) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = k3(c), k3(d)
    while b - a > 1e-8:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = k3(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = k3(d)
    theta_star = (a + b) / 2
    k_star = k3(theta_star)
    # endpoints can beat the interior stationary point (flat-at-zero schemes)
    if values[best] > k_star:
        theta_star, k_star = thetas[best], float(values[best])
    return float(theta_star), float(k_star)
