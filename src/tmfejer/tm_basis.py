"""Takenaka-Malmquist orthonormal functions and their reproducing kernel.

For a pole sequence a = (a_0, a_1, ...) in the unit disc the system

    phi_k(z) = sqrt(1 - |a_k|^2) / (1 - z*conj(a_k)) * B_k(z),   k >= 0,

is orthonormal in H^2 with respect to normalized arclength on the circle.
The boundary-only extension phi_{-k}(t) = conj(t * phi_{k-1}(t)), k >= 1,
completes it to an orthonormal family in L^2 of the circle.  With all
a_k = 0 the functions reduce to the monomials z^k and the classical
trigonometric system.

phi_values and phi_jet run the first-order recursion of blaschke over the
poles, which carries B_k and B_k' along with the rows phi_k and phi_k'.
operators.sigma_positive and the converge report use the same recursion
without rows: it sums c_k phi_k and c_k phi_k' as it goes.
The Christoffel-Darboux kernel of the first `order` functions,

    K_n(z, t) = sum_{k<n} phi_k(z) conj(phi_k(t)) = (1 - B_n(z) conj(B_n(t))) / (1 - z conj(t)),

is evaluated in closed form by cd_kernel; its diagonal K_n(t, t) on the
circle is |B_n'(t)|.  The positive kernel of operators is
F_n(t, z) = |K_n(t, z)|^2 / K_n(z, z), taken as the basis sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tmfejer.blaschke import (
    PointSequence,
    _check_order,
    _flatten,
    _recurse,
    _restore,
)

__all__ = [
    "CIRCLE_TOL",
    "DIAG_TOL",
    "ExtendedOffCircle",
    "DiagonalSingularity",
    "TMBasis",
    "phi_values",
    "phi_jet",
    "cd_kernel",
]

# Points are accepted as boundary points when ||z| - 1| <= CIRCLE_TOL.
CIRCLE_TOL = 1e-10
# cd_kernel refuses arguments with |1 - z*conj(t)| < DIAG_TOL.
DIAG_TOL = 1e-12


class ExtendedOffCircle(ValueError):
    """Negative-index basis functions exist on the unit circle only."""


class DiagonalSingularity(ArithmeticError):
    """Christoffel-Darboux closed form evaluated too close to its diagonal."""


@dataclass(frozen=True)
class TMBasis:
    """First `order` functions of the system generated by `sequence`."""

    sequence: PointSequence
    order: int

    def __post_init__(self) -> None:
        _check_order(self.sequence, self.order)


def phi_values(basis: TMBasis, z) -> np.ndarray:
    """phi_0..phi_{order-1} at z; result shape is (order,) + shape(z)."""
    zf, shape, _ = _flatten(z)
    _, _, vals, _ = _recurse(basis.sequence, basis.order, zf, rows=True, jet=False)
    return vals.reshape((basis.order,) + shape)


def phi_jet(basis: TMBasis, z):
    """Values and z-derivatives of phi_0..phi_{order-1} at z, with B_n and B_n'.

    Returns (phi rows, phi' rows, B_n, B_n'); the rows have shape
    (order,) + shape(z), the Blaschke data shape(z).  One pass of the
    recursion gives all four, so interpolation nodes are handled exactly.
    operators.sigma_positive does not call this: it needs only the sums
    of the rows against its coefficients, which the recursion accumulates.
    """
    zf, shape, _ = _flatten(z)
    n = basis.order
    b, bp, vals, ders = _recurse(basis.sequence, n, zf, rows=True)
    rows = (n,) + shape
    return vals.reshape(rows), ders.reshape(rows), b.reshape(shape), bp.reshape(shape)


def cd_kernel(basis: TMBasis, z, t):
    """Christoffel-Darboux closed form (1 - B_n(z) conj(B_n(t))) / (1 - z conj(t)).

    Equals sum_{k<order} phi_k(z) conj(phi_k(t)) away from the diagonal
    z = 1/conj(t); raises DiagonalSingularity within DIAG_TOL of it.
    """
    zb, tb = np.broadcast_arrays(
        np.asarray(z, dtype=np.complex128), np.asarray(t, dtype=np.complex128)
    )
    shape = zb.shape
    scalar = zb.ndim == 0
    zf = zb.reshape(-1)
    tf = tb.reshape(-1)
    den = 1.0 - zf * np.conj(tf)
    if zf.size and np.abs(den).min() < DIAG_TOL:
        raise DiagonalSingularity(
            "1 - z*conj(t) vanishes; use the basis sum of phi_values there"
        )
    bz = _recurse(basis.sequence, basis.order, zf, jet=False)[0]
    bt = _recurse(basis.sequence, basis.order, tf, jet=False)[0]
    out = (1.0 - bz * np.conj(bt)) / den
    return _restore(out, shape, scalar)
