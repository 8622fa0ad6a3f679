"""Desk-scale laboratory for anisotropic fast diffusion.

Simulates the prototype equation du/dt = sum_i d_i(|d_i u|^{p_i-2} d_i u) with
1 < p_i < 2, and measures the integral Harnack-type inequalities, extinction
decay exponents, and supporting algebraic lemmas on the computed trajectories.
"""

from .errors import BlowupError, ConfigError, DomainError, IngestionError
from .extinction import (
    DecayReport,
    PowerLawFit,
    decay_report,
    decay_reports,
    decay_samples,
    detect_extinction,
    fit_power_law,
)
from .geometry import (
    CubeSpec,
    ExponentProfile,
    derive_exponents,
    intrinsic_cube,
    nu,
    nu_sigma,
    scale_cube,
    smallness_violated,
    standard_cube,
)
from .harnack import (
    InequalityReport,
    check_backwards_composite,
    check_l1l1,
    check_l1linf,
    check_lr_backward,
    check_lr_sup,
    cube_integral,
    cube_sup,
    gamma_min,
    time_extremal,
)
from .lemmas import (
    CutoffSpec,
    SequenceLemmaResult,
    caccioppoli_report,
    fast_convergence,
    iteration_bound,
    sobolev_ratio,
    young_gamma,
)
from .solver import (
    Field,
    Grid,
    InitialProfile,
    SimConfig,
    Trajectory,
    advance,
    build_grid,
    init_field,
    load_trajectory,
    run,
    save_trajectory,
    stable_dt,
    uniform_snapshots,
)

__version__ = "0.1.0"
