"""Simulation and verification lab for foliated stochastic flows."""

from .averaging import (
    AveragedTrajectory,
    AveragingErrorResult,
    DecompositionBatch,
    InvariantMeasureSpec,
    PartitionScheme,
    RateBound,
    RateFit,
    averaging_error,
    averaging_errors,
    decompose_error,
    default_rate_bound,
    fit_rate_exponent,
    make_partition,
    solve_averaged_ode,
)
from .drivers import (
    DriverPath,
    KeyedGenerators,
    StreamKey,
    philox_keys,
    sample_brownian,
    sample_jump_driver,
    sample_poisson_jumps,
)
from .flows import (
    CYLINDER_JUMP_RATE,
    CoalescenceBatch,
    ManifoldExit,
    NPointSeries,
    Trajectory,
    check_leaf_invariance,
    coalescence_times,
    cylinder_trajectory,
    evolve_coalescing_circle,
    evolve_cylinder,
    evolve_torus,
    n_point_motion,
    torus_trajectory,
)
from .geometry import (
    CoalescingCircle,
    CylPoint,
    PerturbationField,
    RotationJumpCylinder,
    TorusPoint,
    TorusWinding,
    UnsupportedModel,
    VerticalRegion,
    leaf_defect,
    make_model,
    project_vertical,
)
from .kernels import (
    LeafGrid,
    PairGrid,
    TransitionKernel,
    build_cylinder_kernel,
    check_compatibility,
    check_diagonal_preserving,
    check_foliated,
    coalesce_two_point,
    cyclic_walk_kernel,
    independent_product_kernel,
    kernel_distance,
    product_kernel_flow,
    semigroup_gaps,
)

__version__ = "0.1.0"
