"""Sparse signal recovery from random Gaussian measurement ensembles.

Recovers an s-sparse vector from k-dimensional linear measurements taken
through a collection of independent random matrices, using only
back-projections, medians, and counting (no optimization problem and no
linear system is solved), plus greedy and 1-bit baselines and a
reproducible benchmark harness.

The names below are the public API; every other name is imported from its
submodule (``randcs.sensing``, ``randcs.recovery``, ``randcs.baselines``,
``randcs.harness`` or ``randcs.numerics``).
"""

from .baselines import biht, nbiht, omp, sign_quantize
from .harness import ExperimentGrid, run_grid
from .numerics import GaussianSource, sample_gaussian_matrix
from .recovery import back_project, determine_support, estimate_noise_floor, recover_suppressed
from .sensing import (
    RecoveryConfig,
    build_ensemble,
    dump_ensemble,
    generate_binary_signal,
    load_ensemble,
    measure,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentGrid",
    "GaussianSource",
    "RecoveryConfig",
    "back_project",
    "biht",
    "build_ensemble",
    "determine_support",
    "dump_ensemble",
    "estimate_noise_floor",
    "generate_binary_signal",
    "load_ensemble",
    "measure",
    "nbiht",
    "omp",
    "recover_suppressed",
    "run_grid",
    "sample_gaussian_matrix",
    "sign_quantize",
]
