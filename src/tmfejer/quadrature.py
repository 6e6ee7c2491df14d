"""Uniform periodic quadrature on the unit circle and grid-sampled boundary data.

The N-point uniform rule integrates trigonometric polynomials of degree
below N/2 exactly and converges geometrically for functions analytic in
an annulus around the circle, which covers every rational function used
in this package.  Sums go through numpy's pairwise reduction, so results
are deterministic for a fixed grid and safe to recompute on parallel
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MIN_RESOLUTION",
    "NoConvergence",
    "BoundaryGridFunction",
    "NormReport",
    "next_power_of_two",
    "default_resolution",
    "norms",
    "refined_minimum",
    "refined_maximum",
]

MIN_RESOLUTION = 16

# refined_minimum: scan size, zoom samples per window (offset 0 among them),
# narrowing per round and the half-width at which the zoom stops.
_SCAN = 8192
_OFFSETS = np.arange(-16, 17) / 16.0
_ZOOM = 16.0
_TOL = 1e-10


class NoConvergence(RuntimeError):
    """A grid-based quantity missed its tolerance on the grid in use."""


def next_power_of_two(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


def default_resolution(order: int) -> int:
    """Default grid size for a basis of the given order: max(4096, 64*order)."""
    return next_power_of_two(max(4096, 64 * max(int(order), 1)))


@dataclass(frozen=True, eq=False)
class BoundaryGridFunction:
    """Samples of a function on the uniform grid t_j = exp(2*pi*i*j/N).

    N must be a power of two with N >= 16.  Samples are stored read-only.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=np.complex128, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
        n = arr.size
        if n < MIN_RESOLUTION or n & (n - 1):
            raise ValueError(f"grid size {n} is not a power of two >= {MIN_RESOLUTION}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def resolution(self) -> int:
        return self.samples.size

    @property
    def angles(self) -> np.ndarray:
        n = self.resolution
        return 2.0 * np.pi * np.arange(n) / n

    @property
    def points(self) -> np.ndarray:
        return np.exp(1j * self.angles)

    @classmethod
    def from_callable(cls, fn: Callable, resolution: int) -> "BoundaryGridFunction":
        pts = np.exp(2j * np.pi * np.arange(resolution) / resolution)
        vals = np.asarray(fn(pts), dtype=np.complex128)
        if vals.ndim == 0:
            vals = np.full(pts.shape, complex(vals))
        return cls(vals)


@dataclass(frozen=True)
class NormReport:
    """Grid sup, L^1 and L^2 norms; always l1_norm <= l2_norm <= sup_norm."""

    sup_norm: float
    l1_norm: float
    l2_norm: float


def norms(f: BoundaryGridFunction) -> NormReport:
    a = np.abs(f.samples)
    return NormReport(
        sup_norm=float(a.max()),
        l1_norm=float(a.mean()),
        l2_norm=float(np.sqrt((a**2).mean())),
    )


def refined_minimum(
    fn: Callable[[np.ndarray], np.ndarray], candidates=()
) -> tuple[float, float]:
    """Certified minimum of a smooth periodic function of the angle.

    Scans a uniform grid of 8192 angles, then zooms in on the one-step
    window around the grid argmin and on the same window around each angle
    in `candidates`: the scan can miss a dip narrower than its spacing, so
    callers pass angles where the extremum is known to sit.  Each round
    samples 33 equispaced angles across every window in one call of `fn`,
    recentres each window on its best point and narrows it 16-fold, until
    the half-width is below 1e-10 (six rounds).  The window centre is one
    of the samples and a point replaces the best only when strictly lower,
    so the result is never worse than the grid minimum or any candidate's
    own value.  `fn` must accept an array of angles.
    """
    ang = 2.0 * np.pi * np.arange(_SCAN) / _SCAN
    vals = np.asarray(fn(ang), dtype=np.float64)
    i = int(vals.argmin())
    x = np.array([ang[i], *candidates], dtype=np.float64)
    v = np.full(x.size, np.inf)
    v[0] = vals[i]
    rows = np.arange(x.size)
    half = 2.0 * np.pi / _SCAN
    while half >= _TOL:
        pts = x[:, None] + half * _OFFSETS
        f = np.asarray(fn(pts.ravel()), dtype=np.float64).reshape(pts.shape)
        j = f.argmin(axis=1)
        better = f[rows, j] < v
        x = np.where(better, pts[rows, j], x)
        v = np.where(better, f[rows, j], v)
        half /= _ZOOM
    k = int(v.argmin())
    return float(x[k]), float(v[k])


def refined_maximum(
    fn: Callable[[np.ndarray], np.ndarray], candidates=()
) -> tuple[float, float]:
    """Counterpart of refined_minimum for maxima."""
    x, v = refined_minimum(lambda a: -np.asarray(fn(a)), candidates)
    return x, -v
