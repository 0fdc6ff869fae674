"""Monte Carlo simulator and verification suite for diffusive stochastic
Schrodinger equations: trajectory unraveling, master-equation cross-checks,
complete-positivity diagnostics, and noise-matrix parametrization algebra."""

__version__ = "0.1.0"

from .algebra import (
    bloch_from_state,
    hermitian_eigen,
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
    extract_map,
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
    takagi,
)
from .sse import (
    EnsembleEstimate,
    GeneralDiffusiveModel,
    NonCpQubitModel,
    Trajectory,
    ensemble_density,
    identity_residual,
    increment,
    pairwise_sum,
    perp_state,
    simulate_trajectory,
    simulate_with_noise,
    step,
)
