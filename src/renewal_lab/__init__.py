"""Numerical laboratory for the nonlinear renewal equation

    lambda_t = Phi( xi_t + int_0^t h(t-s) lambda_s ds )

and the mean-field Hawkes particle systems it describes in the large
population limit: solvers, equilibrium analysis, convergence-rate envelopes,
and point-process experiments.
"""

from .model import (
    DecayClass,
    ErlangForm,
    FiringFunction,
    FixedPointReport,
    MemoryKernel,
    NoFixedPointError,
    SourceTerm,
    Stability,
    add_exponential_perturbation,
    classify_critical,
    divergence_a_star,
    divergence_lower_envelope,
    divergence_psi,
    find_fixed_points,
    make_affine_phi,
    make_compact_kernel,
    make_constant_phi,
    make_divergence_example_phi,
    make_erlang_kernel,
    make_scaled_exponential_kernel,
    make_sigmoid_phi,
    make_source_chi_perturbed,
    make_source_divergence_example,
    make_source_empty,
    make_source_equilibrium,
    make_source_erlang_polynomial,
    make_source_tail,
)
from .volterra import (
    LimitDiagnostic,
    NonConvergenceError,
    SolverConfig,
    Trajectory,
    check_monotone,
    compare_solutions,
    compute_rho,
    entry_time,
    equilibrium_locked_source,
    limit_diagnostic,
    read_trajectory_csv,
    solve_erlang_cascade,
    solve_nre,
    solve_picard,
)
from .rates import (
    Envelope,
    RateContext,
    RateFit,
    TauOutOfRangeError,
    WindowTooNoisyError,
    build_rate_context,
    oscillatory_mode,
    calibrate_envelope,
    fit_empirical_rate,
    iteration_bound,
    predict_envelope,
    stable_manifold_ic,
    verify_envelope,
)
from .hawkes import (
    CLTResult,
    CouplingResult,
    HawkesConfig,
    HawkesRun,
    clt_experiment,
    coupling_experiment,
    estimator_path,
    intensity_path,
    path_sup_difference,
    simulate_hawkes,
)

__version__ = "0.1.0"
