"""Benjamin-Ono solutions from spectral resolvent formulas.

The torus flow is evaluated in the eigenbasis of the Lax operator L_{u0},
factored once per initial field and shared by every time, with a
shift-resolvent power recurrence for the Fourier coefficients; the line
flow through a frequency-side generator/convolution system solved in gauge
variables on the upper half-plane.  An independent
integrating-factor RK4 pseudo-spectral stepper cross-checks both, and a
validation suite asserts the operator identities the formulas rest on.
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    BoeqError,
    ConditioningError,
    ConfigurationError,
    DomainError,
    IngestionError,
    InvalidFieldError,
    LinearAlgebraError,
    StabilityWarning,
    TruncationWarning,
)
from .spectral import (
    EigenSystem,
    TorusField,
    eigen_system,
    field_from_samples,
    synthesize_torus,
)
from .torus_operators import (
    b_matrix,
    lax_matrix,
    shift_adjoint,
    toeplitz_matrix,
)
from .torus_solution import (
    TorusPropagator,
    evaluate_disc,
    evolve_coefficients,
    propagator,
    reconstruct_torus,
)
from .timestepper import (
    Trajectory,
    conserved_quantities,
    evolve,
)
from .line_operators import (
    HalfLineSpectrum,
    LineField,
    LineGrid,
    ResolventEvaluator,
    iplus,
)
from .line_solution import (
    evaluate_uhp,
    reconstruct_line,
    uhp_grid_scan,
)
from .checks import (
    CheckReport,
    check_invariants,
    check_line_identities,
    check_torus_commutators,
    convergence_study,
    default_suite,
    formula_vs_solver,
)
from .presets import line_preset, parse_preset, torus_preset
