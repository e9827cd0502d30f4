"""Purification of quantum states through repeated probe measurements.

A probe system X is prepared in |phi>_X, coupled to a target system A,
and projectively confirmed in |phi>_X after every evolution interval
tau.  Conditioned on an unbroken string of confirmations, the target
evolves under the projected (generally non-normal) operator
V = <phi| exp(-i H tau) |phi> and relaxes to V's dominant eigenvector.
The package provides the exact density-matrix protocol, spectral
diagnostics of V, a three-qubit Bell-state extraction model with
closed-form oracles, and shot-level Monte Carlo validation.
"""

from .exceptions import (
    BranchUnavailable,
    ConvergenceFailure,
    DimensionMismatch,
    NoDominantEigenvalue,
    NonHermitianInput,
    NotPositiveSemidefinite,
    ZenopurError,
    ZeroProbability,
)
from .linalg import Eigensystem, Operator, eig_general, matrix_exponential
from .engine import (
    Conditioned,
    DensityMatrix,
    ProbeSpec,
    ProtocolStep,
    ProtocolTrace,
    SpectralReport,
    condition,
    condition_on_probe,
    efficiency_check,
    evolve,
    fidelity,
    projected_evolution,
    run_protocol,
    spectral_report,
)
from .model3q import (
    BellBasis,
    ConditionFlags,
    ModelEigenvalues,
    ModelParams,
    analytic_eigenvalues,
    analytic_v_phi,
    bell_basis,
    build_hamiltonian,
    check_conditions,
    probe_spec,
    singlet_eigenvalue,
)
from .trajectories import ShotConfig, ShotSummary, run_shots, sample

__version__ = "0.1.0"

__all__ = [
    "BellBasis",
    "BranchUnavailable",
    "ConditionFlags",
    "Conditioned",
    "ConvergenceFailure",
    "DensityMatrix",
    "DimensionMismatch",
    "Eigensystem",
    "ModelEigenvalues",
    "ModelParams",
    "NoDominantEigenvalue",
    "NonHermitianInput",
    "NotPositiveSemidefinite",
    "Operator",
    "ProbeSpec",
    "ProtocolStep",
    "ProtocolTrace",
    "ShotConfig",
    "ShotSummary",
    "SpectralReport",
    "ZenopurError",
    "ZeroProbability",
    "analytic_eigenvalues",
    "analytic_v_phi",
    "bell_basis",
    "build_hamiltonian",
    "check_conditions",
    "condition",
    "condition_on_probe",
    "efficiency_check",
    "evolve",
    "eig_general",
    "fidelity",
    "matrix_exponential",
    "probe_spec",
    "projected_evolution",
    "run_protocol",
    "run_shots",
    "sample",
    "singlet_eigenvalue",
    "spectral_report",
]
