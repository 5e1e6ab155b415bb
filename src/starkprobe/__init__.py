"""Gradient-field lattice probes under decoherence.

Simulation library and experiment CLI for the precision of Stark probes:
exact Lindblad dephasing dynamics, Monte Carlo wave-function trajectories,
trace-preserving non-Hermitian evolution, and the Fisher-information /
scaling-analysis layer on top.
"""

from .analysis import (
    ScalingFit,
    TimeSeries,
    fit_power_law,
    localized_collapse_check,
    peak_qfi_over_t2,
    short_time_alpha,
    size_scaling_beta,
    skin_localization_metric,
    transition_point,
)
from .lindblad import (
    DensityMatrix,
    build_liouvillian,
    devectorize,
    propagate,
    trace_distance,
    vectorize,
)
from .metrology import FisherResult, cfi, qfi_mixed, qfi_pure, snr, state_derivative
from .model import (
    LatticeSpec,
    build_dephasing_ops,
    build_effective_dephasing,
    build_hatano_nelson,
    build_stark,
    build_unidirectional,
    gaussian_packet,
    middle_site,
    site_state,
)
from .nh import evolve_nh_density
from .spectral import (
    BiorthogonalSystem,
    eig_biorthogonal,
    eig_hermitian,
    unidirectional_eigvec_normalized,
)
from .trajectory import TrajectoryConfig, run_ensemble

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LatticeSpec",
    "build_stark",
    "build_dephasing_ops",
    "build_effective_dephasing",
    "build_hatano_nelson",
    "build_unidirectional",
    "site_state",
    "middle_site",
    "gaussian_packet",
    "BiorthogonalSystem",
    "eig_hermitian",
    "eig_biorthogonal",
    "unidirectional_eigvec_normalized",
    "DensityMatrix",
    "vectorize",
    "devectorize",
    "build_liouvillian",
    "propagate",
    "trace_distance",
    "TrajectoryConfig",
    "run_ensemble",
    "evolve_nh_density",
    "FisherResult",
    "qfi_pure",
    "qfi_mixed",
    "cfi",
    "state_derivative",
    "snr",
    "TimeSeries",
    "ScalingFit",
    "fit_power_law",
    "short_time_alpha",
    "peak_qfi_over_t2",
    "size_scaling_beta",
    "localized_collapse_check",
    "transition_point",
    "skin_localization_metric",
]
