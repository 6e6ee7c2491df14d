"""Takenaka-Malmquist bases and Fejer-type positive summation operators.

The package provides the rational orthonormal system attached to a
sequence of points in the unit disc, its Christoffel-Darboux kernel, the
positive summation kernel and the two equivalent operators it induces,
plus experiment drivers and a small CLI for reproducible reports.
"""

__version__ = "0.1.0"

from tmfejer.blaschke import (
    BlaschkeEval,
    PointSequence,
    PoleProximity,
    boundary_derivative_modulus,
    eval_blaschke,
)
from tmfejer.operators import (
    AnalyticTestFunction,
    CriticalPoint,
    NearBoundary,
    coefficients,
    coefficients_of,
    delta,
    fejer_kernel,
    fejer_kernel_angular,
    sigma_positive,
    sigma_rusak,
)
from tmfejer.quadrature import (
    BoundaryGridFunction,
    NoConvergence,
    NormReport,
    norms,
    refined_maximum,
    refined_minimum,
)
from tmfejer.tm_basis import (
    DiagonalSingularity,
    ExtendedOffCircle,
    TMBasis,
    cd_kernel,
    phi_jet,
    phi_values,
)

__all__ = [
    "__version__",
    "PointSequence",
    "BlaschkeEval",
    "PoleProximity",
    "eval_blaschke",
    "boundary_derivative_modulus",
    "TMBasis",
    "ExtendedOffCircle",
    "DiagonalSingularity",
    "phi_values",
    "phi_jet",
    "cd_kernel",
    "BoundaryGridFunction",
    "NormReport",
    "NoConvergence",
    "norms",
    "refined_minimum",
    "refined_maximum",
    "AnalyticTestFunction",
    "CriticalPoint",
    "NearBoundary",
    "coefficients",
    "coefficients_of",
    "fejer_kernel",
    "fejer_kernel_angular",
    "sigma_positive",
    "sigma_rusak",
    "delta",
]
