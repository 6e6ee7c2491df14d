"""Uniform periodic quadrature on the unit circle and grid-sampled boundary data.

The N-point uniform rule integrates trigonometric polynomials of degree
below N/2 exactly and converges geometrically for functions analytic in
an annulus around the circle, which covers every rational function used
in this package.  Sums go through numpy's pairwise reduction, so results
are deterministic for a fixed grid and safe to recompute on parallel
workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MIN_RESOLUTION",
    "NoConvergence",
    "BoundaryGridFunction",
    "NormReport",
    "next_power_of_two",
    "norms",
    "refined_minimum",
    "refined_maximum",
]

MIN_RESOLUTION = 16

# refined_minimum: scan size, zoom samples per window (offset 0 among them),
# narrowing per round and the half-width at which the zoom stops.  The first
# _HALF scan angles run from 0 to pi.
_SCAN = 8192
_HALF = _SCAN // 2 + 1
_OFFSETS = np.arange(-16, 17) / 16.0
_ZOOM = 16.0
_TOL = 1e-10


class NoConvergence(RuntimeError):
    """A grid-based quantity missed its tolerance on the grid in use."""


def next_power_of_two(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


@functools.lru_cache(maxsize=32)
def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only angles 2 pi j / N and points e^{i angle} of the N-point
    grid, built once per N."""
    angles = 2.0 * np.pi * np.arange(n) / n
    points = np.exp(1j * angles)
    angles.flags.writeable = False
    points.flags.writeable = False
    return angles, points


@dataclass(frozen=True, eq=False)
class BoundaryGridFunction:
    """Samples of a function on the uniform grid t_j = exp(2*pi*i*j/N).

    N must be a power of two with N >= 16.  Samples, angles and
    points are read-only.
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
        return _grid(self.resolution)[0]

    @property
    def points(self) -> np.ndarray:
        return _grid(self.resolution)[1]

    @classmethod
    def from_callable(cls, fn: Callable, resolution: int) -> "BoundaryGridFunction":
        return cls(fn(_grid(resolution)[1]))


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


def _zoom(
    fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, v: np.ndarray, half: float
) -> tuple[np.ndarray, np.ndarray]:
    """Zoom F functions in on W windows each; return the refined (F, W) x and v.

    x holds the window centres and v their values (inf when unknown).  `fn`
    maps an (F, K) array of angles to the (F, K) values, row f of the angles
    through function f.  Each round samples 33 equispaced angles across
    every window of half-width `half` in one call, recentres each window on
    its best point and narrows it 16-fold, until the half-width is below
    1e-10.  A point replaces the centre only when strictly lower.
    """
    shape = x.shape
    x, v = x.ravel(), v.ravel()
    rows = np.arange(x.size)
    while half >= _TOL:
        pts = x[:, None] + half * _OFFSETS
        f = np.asarray(fn(pts.reshape(shape[0], shape[1] * _OFFSETS.size)), dtype=np.float64)
        f = f.reshape(pts.shape)
        j = f.argmin(axis=1)
        better = f[rows, j] < v
        x = np.where(better, pts[rows, j], x)
        v = np.where(better, f[rows, j], v)
        half /= _ZOOM
    return x.reshape(shape), v.reshape(shape)


def _scan_angles() -> np.ndarray:
    """The 8192 uniform scan angles of refined_minimum, fresh for fn to overwrite."""
    return 2.0 * np.pi * np.arange(_SCAN) / _SCAN


def _refined_minima(
    fn: Callable[[np.ndarray], np.ndarray], candidates: np.ndarray, scan=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refine the minima of F functions of the angle at once.

    `fn` maps flat angles to the (F, M) values of the F functions there,
    and row f of the (F, C) `candidates` holds function f's extra angles.
    Each row zooms in on its argmin over the scan and on its candidates,
    as refined_minimum does for one function, and keeps the lowest of its
    windows, the scan's on a tie.  `scan`, when given, is fn at the first
    8192 or, for functions even in the angle, the first _HALF scan angles,
    those in [0, pi]; a caller can seed candidates from it.  A candidate
    at its row's scan argmin adds no window, so each distinct (row,
    window) zooms once.  A zoom round sends the windows of all rows
    through fn as one flat list and each window keeps its own row's
    values: F times the work of its own angles alone, which on zoom
    windows costs less than F calls.  Returns the (F,) angles and values
    and the scan.
    """
    vals = np.asarray(fn(_scan_angles()) if scan is None else scan, dtype=np.float64)
    f = np.arange(vals.shape[0])
    i = vals.argmin(axis=1)
    x = np.concatenate([_scan_angles()[i][:, None], candidates], axis=1)
    keep = np.concatenate([np.ones((f.size, 1), bool), candidates != x[:, :1]], axis=1)
    v = np.full(x.shape, np.inf)
    v[:, 0] = vals[f, i]
    row, x, v = np.broadcast_to(f[:, None], x.shape)[keep], x[keep], v[keep]

    def own(a):
        out = fn(a.ravel()).reshape(f.size, row.size, -1)
        return out[row, np.arange(row.size)].reshape(a.shape)

    (x,), (v,) = _zoom(own, x[None], v[None], 2.0 * np.pi / _SCAN)
    k = np.lexsort((v, row))[np.searchsorted(row, f)]
    return x[k], v[k], vals


def refined_minimum(
    fn: Callable[[np.ndarray], np.ndarray], candidates=()
) -> tuple[float, float]:
    """Certified minimum of a smooth periodic function of the angle.

    Scans a uniform grid of 8192 angles, then zooms in on the one-step
    window around the grid argmin and on the same window around each angle
    in `candidates`: the scan can miss a dip narrower than its spacing, so
    callers pass angles where the extremum is known to sit.  A candidate
    at the grid argmin shares its window.  Each round
    samples 33 equispaced angles across every window in one call of `fn`,
    recentres each window on its best point and narrows it 16-fold, until
    the half-width is below 1e-10 (six rounds).  The window centre is one
    of the samples and a point replaces the best only when strictly lower,
    so the result is never worse than the grid minimum or any candidate's
    own value.  `fn` must accept an array of angles.
    """
    cand = np.array([candidates], dtype=np.float64)
    x, v, _ = _refined_minima(lambda a: np.asarray(fn(a))[None], cand)
    return float(x[0]), float(v[0])


def refined_maximum(
    fn: Callable[[np.ndarray], np.ndarray], candidates=()
) -> tuple[float, float]:
    """Counterpart of refined_minimum for maxima."""
    x, v = refined_minimum(lambda a: -np.asarray(fn(a)), candidates)
    return x, -v
