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
