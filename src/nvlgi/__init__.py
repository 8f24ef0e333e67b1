"""Leggett-Garg inequality violation beyond the Luders bound: ideal qutrit
protocol engine and a six-level NV-center experiment model with
ideal-negative-result measurement, postselection, and noise."""

__version__ = "0.1.0"

from .noise import (
    Averaging,
    FitError,
    ImperfectionModel,
    fid_curve,
    fit_gaussian_decay,
    sigma_from_t2star,
)
from .nv import (
    DegeneratePostselectionError,
    NvModel,
    assemble_lg,
    controlled_gate,
    fit_flip_probability,
    imperfect_initial_state,
    lg_run,
    odmr_spectrum,
    population_table,
    repeated_cg,
    run_inrm_experiment,
)
from .protocol import (
    CorrelatorSet,
    LgString,
    MeasurementScheme,
    UpdateRule,
    analytic_correlators,
    find_max_k3,
    k3_protocol,
    kn_string,
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
    "MeasurementScheme",
    "NvModel",
    "UpdateRule",
    "analytic_correlators",
    "assemble_lg",
    "controlled_gate",
    "fid_curve",
    "find_max_k3",
    "fit_flip_probability",
    "fit_gaussian_decay",
    "imperfect_initial_state",
    "k3_protocol",
    "kn_string",
    "lg_run",
    "odmr_spectrum",
    "population_table",
    "repeated_cg",
    "rotation_unitary",
    "run_inrm_experiment",
    "sigma_from_t2star",
    "standard_qubit_scheme",
    "standard_qutrit_scheme",
]
