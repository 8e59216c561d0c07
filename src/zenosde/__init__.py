"""Simulation and stability analysis for switching diffusions with impulse
jumps whose jump times accumulate at a finite concentration point.

The package is organised around six pieces:

* ``markov``    -- finite-state switching chains (continuous and discrete time)
* ``system``    -- declarative system specifications and existence-condition checks
* ``simulate``  -- hybrid Euler-Maruyama integrator and ensemble runner
* ``lyapunov``  -- Lyapunov operators and the closed-form linear stability test
* ``analysis``  -- Monte Carlo stability probes and bound verification
* ``cli``       -- command line front end with bundled example presets
"""

__version__ = "0.2.0"

from .markov import (
    ChainPath,
    GeneratorMatrix,
    TransitionMatrix,
    sample_ctmc,
    sample_dtmc_step,
    validate_generator,
)
from .system import (
    CoefficientFamily,
    DerivedConstants,
    JumpFamily,
    JumpSchedule,
    SystemSpec,
    check_existence_conditions,
    derive_constants,
    generate_schedule,
    tail_cutoff_index,
)
from .simulate import (
    EnsembleSummary,
    IntegratorConfig,
    RngPolicy,
    Trajectory,
    simulate_ensemble,
    simulate_path,
)
from .lyapunov import (
    LinearStabilityReport,
    LyapunovSpec,
    QuadraticBounds,
    check_jump_moment_condition,
    check_quadratic_bounds,
    discrete_lyapunov_operator,
    linear_stability_check,
    wio_evaluate,
    wio_finite_difference,
)
from .analysis import (
    BoundCheckResult,
    StabilityProbeResult,
    detect_blowup,
    probe_mean_square,
    probe_stability_in_probability,
    probe_supermartingale,
    verify_segment_moment_bound,
)
