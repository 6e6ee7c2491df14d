"""Uniform periodic quadrature on the unit circle and grid-sampled boundary data.

The N-point uniform rule integrates trigonometric polynomials of degree
below N/2 exactly and converges geometrically for functions analytic in
an annulus around the circle, which covers every rational function used
in this package.  Sums go through numpy's pairwise reduction, so results
are deterministic for a fixed grid and safe to recompute on parallel
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MIN_RESOLUTION",
    "ADAPTIVE_CAP",
    "NoConvergence",
    "BoundaryGridFunction",
    "NormReport",
    "next_power_of_two",
    "default_resolution",
    "norms",
    "golden_section_minimize",
    "refined_minimum",
    "refined_maximum",
]

MIN_RESOLUTION = 16
ADAPTIVE_CAP = 2**20

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class NoConvergence(RuntimeError):
    """Adaptive refinement hit the resolution cap without stabilizing."""


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


def golden_section_minimize(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section minimum of a scalar function on [lo, hi].

    Shrinks the bracket to width `tol` and returns (argmin, value).  On a
    flat window it simply converges to the midpoint.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def refined_minimum(
    fn: Callable[[np.ndarray], np.ndarray],
    resolution: int = 8192,
    tol: float = 1e-10,
    candidates=(),
) -> tuple[float, float]:
    """Certified minimum of a smooth periodic function of the angle.

    Scans a uniform grid of `resolution` angles, then runs golden-section
    refinement on the one-step window around the grid argmin.  Each angle
    in `candidates` gets the same one-step window: the scan can miss a dip
    narrower than its spacing, so callers pass angles where the extremum
    is known to sit.  `fn` must accept an array of angles.
    """
    ang = 2.0 * np.pi * np.arange(resolution) / resolution
    vals = np.asarray(fn(ang), dtype=np.float64)
    i = int(vals.argmin())
    step = 2.0 * np.pi / resolution

    def scalar(x: float) -> float:
        return float(np.asarray(fn(np.asarray([x], dtype=np.float64)))[0])

    x, v = golden_section_minimize(scalar, ang[i] - step, ang[i] + step, tol)
    if vals[i] < v:
        x, v = float(ang[i]), float(vals[i])
    for a in candidates:
        a = float(a)
        golden = golden_section_minimize(scalar, a - step, a + step, tol)
        for cand_x, cand_v in (golden, (a, scalar(a))):
            if cand_v < v:
                x, v = cand_x, cand_v
    return float(x), float(v)


def refined_maximum(
    fn: Callable[[np.ndarray], np.ndarray],
    resolution: int = 8192,
    tol: float = 1e-10,
    candidates=(),
) -> tuple[float, float]:
    """Counterpart of refined_minimum for maxima."""
    x, v = refined_minimum(lambda a: -np.asarray(fn(a)), resolution, tol, candidates)
    return x, -v
