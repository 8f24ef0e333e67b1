"""Leggett-Garg inequality violation beyond the Luders bound: ideal qutrit
protocol engine and a six-level NV-center experiment model with
ideal-negative-result measurement, postselection, and noise."""

__version__ = "0.1.0"

from .noise import (
    Averaging,
    FitError,
    ImperfectionModel,
    dephasing_evolution,
    fid_curve,
    fit_gaussian_decay,
    imperfect_initial_state,
    sigma_from_t2star,
)
from .nv import (
    DegeneratePostselectionError,
    NvModel,
    assemble_lg,
    controlled_gate,
    fit_flip_probability,
    lg_run,
    odmr_spectrum,
    population_table,
    repeated_cg,
    run_inrm_experiment,
)
from .protocol import (
    CorrelatorSet,
    LgString,
    MeasurementBranch,
    MeasurementScheme,
    UpdateRule,
    analytic_correlators,
    classical_extrema,
    find_max_k3,
    k3_protocol,
    kn_string,
    measure,
    rotation_unitary,
    standard_qubit_scheme,
    standard_qutrit_scheme,
)

__all__ = [
    "Averaging",
    "CorrelatorSet",
    "DegeneratePostselectionError",
    "FitError",
    "ImperfectionModel",
    "LgString",
    "MeasurementBranch",
    "MeasurementScheme",
    "NvModel",
    "UpdateRule",
    "analytic_correlators",
    "assemble_lg",
    "classical_extrema",
    "controlled_gate",
    "dephasing_evolution",
    "fid_curve",
    "find_max_k3",
    "fit_flip_probability",
    "fit_gaussian_decay",
    "imperfect_initial_state",
    "k3_protocol",
    "kn_string",
    "lg_run",
    "measure",
    "odmr_spectrum",
    "population_table",
    "repeated_cg",
    "rotation_unitary",
    "run_inrm_experiment",
    "sigma_from_t2star",
    "standard_qubit_scheme",
    "standard_qutrit_scheme",
]
