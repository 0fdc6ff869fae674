"""Monte Carlo simulator and verification suite for diffusive stochastic
Schrodinger equations: trajectory unraveling, master-equation cross-checks,
complete-positivity diagnostics, and noise-matrix parametrization algebra."""

__version__ = "0.1.0"

import os

# One BLAS thread per process, set before numpy loads: the matrices are at most
# 9 x 9 and the parallelism is the ensemble's process pool.  A value set
# before import wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .algebra import (
    bloch_from_density,
    bloch_from_state,
    bloch_standard_error,
    pauli,
    random_state,
    state_from_bloch,
)
from .errors import DimensionError, InfeasibleError, StepSizeError, ValidationError
from .master import (
    CpVerdict,
    DynamicalMap,
    MasterGenerator,
    PositivityVerdict,
    analytic_pauli_solution,
    apply_map,
    bloch_block,
    choi_matrix,
    cp_verdict,
    integrate_master,
    map_grid,
    pauli_channel_map,
    pauli_generator,
    positivity_verdict,
)
from .param import (
    RedundancyWitness,
    correlation_from_noise,
    noise_from_correlation,
    redundancy_witness,
)
from .sse import (
    EnsembleEstimate,
    GeneralDiffusiveModel,
    NonCpQubitModel,
    Trajectory,
    ensemble_density,
    identity_residual,
    increment,
    simulate_trajectory,
    simulate_with_noise,
)
