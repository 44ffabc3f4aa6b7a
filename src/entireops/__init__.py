"""Truncated Taylor calculus for ladder operators on entire functions.

Core objects: total-degree-truncated series with exactness tracking
(:mod:`entireops.series`), a normal-ordered operator algebra with
convolution symbols and the one-axis family ``M_F - a z_j``
(:mod:`entireops.operators`), joint-kernel solvers
(:mod:`entireops.kernel`), completeness rank tests
(:mod:`entireops.completeness`), the exact ladder calculus with semi-norm
convergence diagnostics (:mod:`entireops.fhc`), and finite-horizon orbit
statistics (:mod:`entireops.orbit`).  The ``entireops`` CLI runs bundled or
user-supplied scenario files over all of it.
"""

from .series import (
    ApproximationWarning,
    Index,
    SemiNormSpec,
    TruncatedSeries,
    coefficient_vector,
    differentiate,
    evaluate,
    graded_key,
    index_factorial,
    linear_combine,
    make_series,
    monomial,
    monomial_basis,
    multiply_coordinate,
    translate,
    with_cutoff,
    zero_series,
)
from .operators import (
    CommutationReport,
    ConvolutionSymbol,
    CROperator,
    WeylOperator,
    apply_weyl,
    commutator,
    dual_pairing,
    verify_commutation,
)
from .kernel import (
    AxisKernelProblem,
    KernelReport,
    joint_kernel,
    solve_kernel_axis,
    verify_kernel,
)
from .completeness import (
    ApproximationResult,
    CompletenessReport,
    SpanMatrix,
    approximate_target,
    derivative_span,
    rank_report,
    sample_box,
    translate_span,
)
from .fhc import (
    ConvergenceReport,
    LadderVector,
    apply_lowering,
    apply_raising,
    convergence_report,
    nilpotency_index,
    operator_power_on_basis,
    realize,
    verify_right_inverse,
)
from .orbit import VisitReport, iterate_orbit, measure_visits

__version__ = "0.1.0"
