"""Verification toolkit for quantum programs modeled as quantum Markov
chains: terminal-state expectations by three independent routes (series
summation, dual fixed-point invariants, spectral closed forms), average
running time, and exact / almost-sure termination analysis."""

__version__ = "0.1.0"

from .channels import (
    DensityOperator,
    Observable,
    SuperOperator,
    compose,
    matrix_representation,
)
from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    EigensolverError,
    QmcError,
    RepresentationError,
    SingularResolventError,
    ValidationError,
)
from .invariant import (
    InvariantCertificate,
    certified_expectation,
    check_conditions,
    least_fixed_point_q,
)
from .linalg import (
    SpectralData,
    is_positive_semidefinite,
    spectral_decompose,
)
from .model import Model, ModelOptions, load_model, model_hash, save_model
from .oracle import OracleResult, oracle_expectation
from .program import (
    ProgramScheme,
    QuantumProgram,
    SeriesPass,
    StepRecord,
    TerminationMeasurement,
    step_probabilities,
    terminal_state_series,
)
from .spectral import (
    ProgramRepresentation,
    average_running_time,
    build_representation,
    expectation_closed_form,
)
from .termination import (
    TerminationVerdict,
    check_program_termination,
    check_scheme_termination,
)

__all__ = [
    "ConsistencyError",
    "DensityOperator",
    "DimensionMismatchError",
    "EigensolverError",
    "InvariantCertificate",
    "Model",
    "ModelOptions",
    "Observable",
    "OracleResult",
    "ProgramRepresentation",
    "ProgramScheme",
    "QmcError",
    "QuantumProgram",
    "RepresentationError",
    "SeriesPass",
    "SingularResolventError",
    "SpectralData",
    "StepRecord",
    "SuperOperator",
    "TerminationMeasurement",
    "TerminationVerdict",
    "ValidationError",
    "average_running_time",
    "build_representation",
    "certified_expectation",
    "check_conditions",
    "check_program_termination",
    "check_scheme_termination",
    "compose",
    "expectation_closed_form",
    "is_positive_semidefinite",
    "least_fixed_point_q",
    "load_model",
    "matrix_representation",
    "model_hash",
    "oracle_expectation",
    "save_model",
    "spectral_decompose",
    "step_probabilities",
    "terminal_state_series",
]
