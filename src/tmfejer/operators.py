"""Summation operators built on a Takenaka-Malmquist basis.

Fourier data with respect to the extended system, c_k = <f, phi_k> for
|k| < n, is one array of length 2n - 1 holding c_k at index n - 1 + k.
Its upper half c_0, ..., c_{n-1} gives the partial sum S_n(f); the whole
array gives the Cesaro means.  The
positive summation method rests on the kernel

    F_n(t, z) = |K_n(t, z)|^2 / K_n(z, z),   K_n(t, z) = sum_{k<n} phi_k(t) conj(phi_k(z)),

the squared Christoffel-Darboux kernel normalized by its diagonal, which
is nonnegative with unit mean in t for every boundary z.  On the circle it
equals |B_n'(z)|^{-1} |(B_n(t) - B_n(z)) / (t - z)|^2 and takes the value
|B_n'(z)| on the diagonal.  The induced operator

    sigma_rusak(f)(z) = (1/2pi) * integral f(t) F_n(t, z) |dt|

agrees on the circle with the holomorphic expression

    sigma_positive(f)(z) = T(c)(z) = S_n(f)(z) - (B_n(z)/B_n'(z)) S_n'(f)(z)

whenever f extends holomorphically, with c_k = <f, phi_k>.  F_n is real,
and for h in H^2 the part of h in B_n H^2 integrates to zero against it,
so for any boundary data sigma_rusak(f) = T(c) + conj(T(d)) - f_0, with
d_k = <conj f, phi_k> and f_0 the mean of f.

Both circle FFTs, of the n basis rows and of f conj(B_n), take a
geometrically decaying spectrum on the least power-of-two grid of M
points that resolves it: `_grid_start` caps the power sums of B_n at
_GRID_TERMS and gives the first M, `_tame_size` (which also sizes the
contour rule) doubles M until f's growth bounds f's part of the band
M/4 .. M/2, and `_resolve` doubles M until the band holds rounding
alone.  Two users need the basis rows on a uniform grid of N points, and
both take them from `_basis_spectrum` where that is cheaper (M0 = 512
for n <= 32 poles |a| <= 0.7), and not where M would reach N.  Then:

- sigma_rusak's c and d on grid data come by the discrete Parseval
  identity, one FFT of the N samples against the spectrum: O(n M +
  N log N) before the recursion at the probes;
- fejer_kernel's rows at K points z on a full uniform grid of t are one
  zero-padded inverse FFT of length N per z: O(n M + K N log N).

Where the spectrum declines, both take the n x N basis rows on the grid
itself, at O(n N) for c and d and O(n N K) for the kernel rows.  The
weighted approximation error

    delta(f) = (B_n'/B_n) (f - sigma_positive(f))

is holomorphic in the disc, interpolates f' at the basis poles, and obeys
the first-order bound |delta(f)(z) - f'(z)| <= |B_n(z)| / (1 - |z|^2) for
Cauchy transforms of unit densities.

Every member is holomorphic beyond the circle, a Cauchy transform as the
polynomial of its density's live Fourier coefficients, and takes its
coefficients from the trapezoid rule on a circle |t| = R > 1, sized from
the member's radius of analyticity and its growth.

On the circle S_n f = B_n P_-(f conj(B_n)), and f = S_n f + B_n g with
g = P_+(f conj(B_n)), so delta(f) = f' - B_n g' and sigma_positive(f) =
f - (B_n/B_n')(f' - B_n g') exactly, with no coefficients c_k.  g' comes
from `_projections` on every point set: one FFT of f conj(B_n) on a
uniform grid, B_n there from the power sums of the poles
(blaschke._grid_blaschke), or where that declines, one FFT of f / B_n on
the contour |t| = R.  Only the evaluation depends on the points: on a
full uniform grid sigma_positive sums g' by one inverse FFT, elsewhere
by Horner's rule.

Only grid-backed data is sampled on the unit circle, and no CLI command
builds any: counterexample reads sigma_rusak(1) off the constant's exact
coefficients, and voronovskaya its Cauchy integrals off the Taylor
coefficients of B_n and of its densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tmfejer.blaschke import (
    PointSequence,
    _flatten,
    _grid_blaschke,
    _recurse,
    _restore,
    _taylor,
)
from tmfejer.quadrature import BoundaryGridFunction, NoConvergence, _grid, next_power_of_two
from tmfejer.tm_basis import (
    CIRCLE_TOL,
    ExtendedOffCircle,
    TMBasis,
    phi_values,
)

__all__ = [
    "CONTOUR_CAP",
    "CRITICAL_TOL",
    "NEAR_BOUNDARY_MARGIN",
    "CriticalPoint",
    "NearBoundary",
    "AnalyticTestFunction",
    "coefficients",
    "coefficients_of",
    "fejer_kernel",
    "fejer_kernel_angular",
    "sigma_positive",
    "sigma_rusak",
    "delta",
]

# sigma_positive refuses points where B_n' vanishes but B_n does not.
CRITICAL_TOL = 1e-12
# delta is restricted to |z| <= 1 - NEAR_BOUNDARY_MARGIN.
NEAR_BOUNDARY_MARGIN = 1e-9
# Most points the contour rule takes before it raises NoConvergence.
CONTOUR_CAP = 1 << 15
# The contour rule sizes N so that rho^(N/2) <= _CONTOUR_DECAY and accepts
# its sum when the sum over every other point agrees to _CONTOUR_TOL times
# the largest term.
_CONTOUR_DECAY = 1e-17
_CONTOUR_TOL = 1e-14
# Cap on max|f| over the contour relative to max|f| over the unit circle.
_CONTOUR_GROWTH = 16.0
# `_projections`' FFT and sigma_positive's grid evaluation take at most
# _GRID_TERMS power sums of B_n.  The k-weighted sums of the FFT leave out
# Fourier coefficients below _GRID_NOISE times the largest one in the band
# that holds rounding alone.
_GRID_TERMS = 1024
_GRID_NOISE = 4.0

_KINDS = ("rational", "cauchy_transform", "schur", "blaschke_multiple")
_NO_POINTS = np.zeros(0, dtype=np.complex128)


class CriticalPoint(ArithmeticError):
    """sigma_positive evaluated at a zero of B_n' that is not a zero of B_n."""


class NearBoundary(ValueError):
    """delta evaluated too close to the unit circle."""


@dataclass(frozen=True, eq=False)
class AnalyticTestFunction:
    """A test function on the closed disc given by value/derivative callables.

    `kind` tags how the member was built: 'rational', 'cauchy_transform'
    (with the generating boundary density attached), 'schur' (sup norm at
    most one on the disc) or 'blaschke_multiple'.  Every kind is
    holomorphic on |z| < `radius`, its radius of analyticity (> 1, may be
    inf), which fixes the contour its coefficients are taken on.
    """

    value: Callable
    derivative: Callable
    kind: str
    density: BoundaryGridFunction | None = None
    label: str = ""
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "cauchy_transform" and self.density is None:
            raise ValueError("cauchy_transform members carry their boundary density")
        if self.radius is None or not self.radius > 1.0:
            raise ValueError(
                f"{self.kind} members need a radius of analyticity > 1, got {self.radius!r}"
            )


def coefficients(f: BoundaryGridFunction, basis: TMBasis) -> np.ndarray:
    """Grid quadrature of <f, phi_k> = (1/2pi) integral f(t) conj(phi_k(t)) |dt| for |k| < n.

    Returns the 2n - 1 values as one array with <f, phi_k> at index
    n - 1 + k.  Negative indices use conj(phi_{-m}(t)) = t * phi_{m-1}(t),
    so both halves are products of the same n rows phi_k(t) with the
    samples.  The grid must resolve the basis: fewer than 16 n samples
    raise ValueError.
    """
    n = basis.order
    if f.resolution < 16 * n:
        raise ValueError(f"resolution {f.resolution} too coarse for order {n}; need >= {16 * n}")
    pts = f.points
    vals = phi_values(basis, pts)
    positive = np.conj(vals @ np.conj(f.samples)) / f.resolution
    negative = vals[: n - 1] @ (f.samples * pts) / f.resolution
    return np.concatenate([negative[::-1], positive])


# The 64 points on which the growth of f is sampled.
_RING = _grid(64)[1]


def _tame_size(f: AnalyticTestFunction, r: float, npts: int, k: int) -> int:
    """The least power of two N >= npts, or the first past CONTOUR_CAP, at
    which f is holomorphic beyond |t| = outer = r _CONTOUR_DECAY^(-k/N)
    and, sampled on _RING, at most _CONTOUR_GROWTH times as large there as
    on |t| = r.

    Cauchy's estimate then bounds the m-th Fourier coefficient of f(r e) by
    _CONTOUR_GROWTH max|f(r e)| (r / outer)^m, which is _CONTOUR_DECAY
    times that at m = N / k.  A radius alone is not enough: an entire f of
    high degree has radius inf and slowly decaying coefficients.  f may
    overflow at |t| = outer, so overflow is silenced here; written so that
    a NaN or inf fails the test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        while npts <= CONTOUR_CAP:
            outer = r * _CONTOUR_DECAY ** (-k / npts)
            if f.radius > outer and np.abs(f.value(outer * _RING)).max() <= (
                _CONTOUR_GROWTH * np.abs(f.value(r * _RING)).max()
            ):
                break
            npts *= 2
    return npts


def _contour(f: AnalyticTestFunction, inner: float) -> tuple[float, float]:
    """Contour radius R for f and the decay rate rho = max(inner / R, R / radius).

    R = min(sqrt(radius), 2), lowered when f grows fast: the rounding
    error of a contour sum grows with max|f| on the contour, which for an
    entire f such as z^15 is far above its size on the circle.  When max|f|
    on |t| = R exceeds _CONTOUR_GROWTH times max|f| on the unit circle, R
    drops to R^s with s = log(_CONTOUR_GROWTH) / log(ratio), which by
    Hadamard's three-circle theorem brings the ratio within the cap.  An f
    that overflows on |t| = R, such as z^1100 at R = 2, first has R taken
    to its square root until it does not.  The integrand is analytic for
    inner < |t| < radius.
    """
    r = min(math.sqrt(f.radius), 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        outer = np.abs(np.asarray(f.value(r * _RING))).max()
        while r > 1.0 and not np.isfinite(outer):
            r = math.sqrt(r)
            outer = np.abs(np.asarray(f.value(r * _RING))).max()
    on_circle = np.abs(np.asarray(f.value(_RING))).max()
    if outer > _CONTOUR_GROWTH * on_circle:
        r **= math.log(_CONTOUR_GROWTH) / math.log(outer / on_circle)
    return r, max(inner / r, r / f.radius)


def _contour_size(f: AnalyticTestFunction, r: float, rho: float) -> int:
    """The first number of points N for a rule on the contour |t| = R = r.

    An integrand analytic in an annulus has Fourier coefficients that
    decay like rho^m; N is the smallest power of two >= 16 with
    rho^(N/2) <= 1e-17 that `_tame_size` accepts for k = 1, so that
    f's part of the N-point rule's aliasing is rounding.  rho comes
    from the poles and f's radius alone, and an entire f of high degree
    aliases without the second test: with zero poles, N = 16 and z^16, the
    8- and 16-point rules both return R^16 for the constant term.  N may
    exceed CONTOUR_CAP.
    """
    npts = 16
    if rho > 0.0:
        terms = math.ceil(math.log(_CONTOUR_DECAY) / math.log(rho))
        npts = max(npts, next_power_of_two(2 * terms))
    return _tame_size(f, r, npts, 1)


def coefficients_of(f: AnalyticTestFunction, basis: TMBasis) -> np.ndarray:
    """Coefficients <f, phi_k>, |k| < n, of an analytic member, in the layout of `coefficients`.

    Every member is holomorphic beyond the circle, a Cauchy transform as
    the polynomial of its density's live Fourier coefficients, and its
    coefficients come from the circle |t| = R of `_contour`:

        c_k = mean over theta of f(R e^{i theta}) conj(phi_k(e^{i theta} / R)),

    which is bounded there and converges geometrically, however close the
    poles a_k come to the circle.  Its negative half is exactly zero.  The
    rule starts at `_contour_size` points N, and N doubles while it
    differs from the rule on the even-indexed points by more than 1e-14
    max|phi_k(e / R)| max|f(R e)|; past CONTOUR_CAP points NoConvergence
    is raised.
    """
    n = basis.order
    r, rho = _contour(f, np.abs(basis.sequence.as_array()[:n]).max(initial=0.0))
    npts = _contour_size(f, r, rho)
    while npts <= CONTOUR_CAP:
        # Even-indexed points first, so the N/2-point rule is a leading block.
        m = npts // 2
        e = _grid(npts)[1].reshape(-1, 2).T.ravel()
        w = phi_values(basis, e / r)
        np.conj(w, out=w)
        fv = np.asarray(f.value(r * e), dtype=np.complex128)
        part = w[:, :m] @ fv[:m]
        full = (part + w[:, m:] @ fv[m:]) / npts
        scale = np.abs(w).max(initial=0.0) * np.abs(fv).max()
        if np.abs(full - part / m).max(initial=0.0) <= _CONTOUR_TOL * scale:
            return np.concatenate([np.zeros(n - 1, dtype=np.complex128), full])
        npts *= 2
    what = f"coefficients of {f.label} at order {n}"
    raise NoConvergence(f"{what} need more than {CONTOUR_CAP} contour points (rho = {rho:.9f})")


def _require_length(coeffs: np.ndarray, n: int, what: str) -> None:
    if len(coeffs) != 2 * n - 1:
        raise ValueError(f"{what} of order {n} needs 2n - 1 coefficients, got {len(coeffs)}")


def _require_circle(zf: np.ndarray, what: str) -> None:
    if zf.size and np.abs(np.abs(zf) - 1.0).max() > CIRCLE_TOL:
        raise ExtendedOffCircle(f"{what} requires points on the unit circle")


def fejer_kernel(basis: TMBasis, t, z):
    """F_n(t, z) = |K_n(t, z)|^2 / K_n(z, z) for boundary points, broadcasting t against z.

    Nonnegative, and (1/2pi) integral F_n(t, z) |dt| = 1 for every z on the
    circle.  The basis sum is smooth across the diagonal, where it takes
    the value K_n(z, z) = |B_n'(z)|.  When t and z broadcast as an outer
    product (no axis longer than one in both), K_n = conj(V_z)^T V_t over
    the K distinct points z and N distinct points t, with V the basis
    rows, by one of two routes:

    - when the flat t is a full uniform grid z0 e^{2 pi i j / N} (to
      1e-14, N a power of two >= 64) and `_basis_spectrum` resolves the
      spectrum Phi of s -> phi_k(z0 s) on M < N points, each row of K_n
      is one zero-padded inverse FFT of length N of kappa =
      conj(V_z)^T Phi, a K x M/2 block, with V_z from the same pass of
      the recursion as the M grid points: O(n M + K N log N), with no
      n x N array;
    - otherwise V_t holds the rows at t and K_n is one matrix product:
      O(n N K).

    The two agree to about 1e-14 of the largest value.  Other shapes,
    such as the diagonal (z, z), sum the basis pair by pair.
    """
    t = np.asarray(t, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    shape = np.broadcast_shapes(t.shape, z.shape)
    if t.size * z.size != math.prod(shape):
        # Basis index last, so the point shapes of t and z broadcast as given.
        vt = np.moveaxis(phi_values(basis, t), 0, -1)
        vz = np.moveaxis(phi_values(basis, z), 0, -1)
        cd = (vt * np.conj(vz)).sum(axis=-1)
        return (np.abs(cd) ** 2 / (np.abs(vz) ** 2).sum(axis=-1))[()]
    tf, zf = t.reshape(-1), z.reshape(-1)
    z0 = _grid_rotation(tf)
    spectral = None if z0 is None else _basis_spectrum(basis, z0, tf.size, zf)
    if spectral is None:
        vz = phi_values(basis, zf)
        cd = np.conj(vz).T @ phi_values(basis, tf)
    else:
        spec, vz = spectral
        cd = np.fft.ifft(np.conj(vz).T @ spec, n=tf.size, axis=1, norm="forward")
    out = np.abs(cd) ** 2 / (np.abs(vz) ** 2).sum(axis=0)[:, None]
    # Entry (i, j) belongs to z's flat point i and t's flat point j: pair each
    # axis of z with the same axis of t (one of the two has length one).
    rank = len(shape)
    out = out.reshape((1,) * (rank - z.ndim) + z.shape + (1,) * (rank - t.ndim) + t.shape)
    return out.transpose(np.arange(2 * rank).reshape(2, rank).T.ravel()).reshape(shape)[()]


def fejer_kernel_angular(basis: TMBasis, x, y):
    """The kernel in angles: fejer_kernel at t = e^{iy}, z = e^{ix}.

    That is sin^2(phase(x, y)) / (2 gamma_n(x) sin^2((y - x)/2)), with
    gamma_n = |B_n'|/2 on the circle and phase(x, y) the integral of
    gamma_n over [x, y].  An (m, 1) x (1, m) grid of angles, as in the
    kernel report, takes fejer_kernel's outer-product path; at m <= 64,
    as in the bundled report, m is no more than the basis spectrum's
    least grid M0 >= 64, so that is one matrix product of the basis rows.
    """
    return fejer_kernel(basis, np.exp(1j * np.asarray(y)), np.exp(1j * np.asarray(x)))


def sigma_positive(
    f: AnalyticTestFunction,
    basis: TMBasis,
    z,
    coeffs: np.ndarray | None = None,
):
    """S_n(f)(z) - (B_n(z)/B_n'(z)) S_n'(f)(z) on the closed disc, as
    f - (B_n/B_n')(f' - B_n g') with g = P_+(h), h = conj(B_n) f, and the
    Taylor coefficients k g_k of g' from one call of `_projections`.

    When z is a full uniform grid z0 e^{2 pi i m / M} (to 1e-14, any
    rotation z0, M a power of two >= 64) and the power sums of B_n need
    J <= 1024 terms with 2J < M, B_n and |B_n'| come from `_grid_blaschke`.
    On the circle t B_n'/B_n = |B_n'|, so with D = t d/dt, which maps t^k
    to k t^k,

        sigma_positive(f) = -(B_n / |B_n'|) D P_-(h)
                          = f - (t f' - B_n D g) / |B_n'|,

    the second form because D conj(B_n) = -|B_n'| conj(B_n) there.  D g =
    sum_{k>=1} k g_k t^k is one inverse FFT on the grid (`_grid_series`),
    and so is t f' when the contour rule gave f's coefficients.

    Every other point set takes B_n and B_n' from one pass of the basis
    recursion and f' - B_n g' as delta does, so the constant gives 1
    exactly however near the poles come to the circle.  At a multiple
    node both B_n and B_n' vanish and the value is f(z); at a genuine
    critical point of B_n CriticalPoint is raised.  The Taylor series of
    g is cut at rounding level on the circle, so |z| > 1 + CIRCLE_TOL
    raises ValueError.  `coeffs` is deprecated and ignored: the 2n - 1
    values of coefficients_of are only length-checked.
    """
    n, sequence = basis.order, basis.sequence
    zf, shape, scalar = _flatten(z)
    if coeffs is not None:
        _require_length(coeffs, n, "sigma_positive")
    if zf.size and np.abs(zf).max() > 1.0 + CIRCLE_TOL:
        raise ValueError(f"sigma_positive requires |z| <= 1 + {CIRCLE_TOL}")
    grid = _uniform_grid(sequence, n, zf)
    kf, kg = _projections(f, sequence, [n])[0]
    if grid is None:
        bz, bpz, _, _ = _recurse(sequence, n, zf)
        out = _sigma_from_sums(bz, bpz, f.value(zf), _delta_at(f, kf, kg, zf, bz))
    else:
        z0, roots, terms = grid
        b, db = _grid_blaschke(sequence, n, z0, roots, terms)
        tf = zf * f.derivative(zf) if kf is None else _grid_series(kf, z0, zf.size)
        out = f.value(zf) - (tf - b * _grid_series(kg, z0, zf.size)) / db
    return _restore(out, shape, scalar)


def _grid_start(sequence: PointSequence, n: int) -> tuple[int, int] | None:
    """(M0, J): the least J with max|a_k|^J <= _CONTOUR_DECAY over the first
    n poles (0 when all vanish), the number of power sums of B_n that every
    grid route takes, and M0, the grid size both circle FFTs start on;
    None past J = _GRID_TERMS.

    The projection needs the spectrum of f conj(B_n) at rounding level from
    frequency M / 4 up to M / 2, where the negative half begins.  The power
    sums of B_n decay like max|a_k|^j, which falls to _CONTOUR_DECAY at
    j = J, and conj(B_n) has its spectrum from 0 down to about -(n + J):
    its mean frequency is -n, and t^n is all of it when the poles vanish.
    So M0 is the least power of two >= max(64, 4n, 4J), which puts
    -(n + J) in the negative half; on 64 points with 64 zero poles
    conj(B_n) = 1 and delta(z) would lose its z^64 term.  The rows phi_k,
    k < n, have their spectrum on frequencies 0 up to about n + J, so the
    basis spectrum starts on M0 too.  Past J = _GRID_TERMS the rounding of
    the long power sums grows: at J = 10^4 (poles 1 - 2^-k, n = 8) the
    route was 3e-13 to 8e-13 off the recursion.
    """
    mod = float(np.abs(np.asarray(sequence.points[:n], dtype=np.complex128)).max())
    terms = math.ceil(math.log(_CONTOUR_DECAY) / math.log(mod)) if mod > 0.0 else 0
    if terms > _GRID_TERMS:
        return None
    return max(64, next_power_of_two(4 * max(n, terms))), terms


def _grid_rotation(zf: np.ndarray) -> complex | None:
    """z0 when the flat points zf are z0 e^{2 pi i m / M}, m < M, to
    _CONTOUR_TOL and M is a power of two >= 64; None otherwise."""
    npts = zf.size
    if npts < 64 or npts & (npts - 1):
        return None
    r0 = abs(zf[0])
    if not abs(r0 - 1.0) <= _CONTOUR_TOL:
        return None
    z0 = complex(zf[0]) / r0
    # Written so that a NaN point fails the test.
    if not np.abs(zf - z0 * _grid(npts)[1]).max() <= _CONTOUR_TOL:
        return None
    return z0


def _uniform_grid(sequence: PointSequence, n: int, zf: np.ndarray):
    """(z0, roots, J) when the flat points zf are z0 roots[m],
    roots[m] = e^{2 pi i m / M}, as `_grid_rotation` tests, and
    `_grid_start` gives J with 2J < M, which `_grid_blaschke` needs; None
    otherwise."""
    z0 = _grid_rotation(zf)
    start = None if z0 is None else _grid_start(sequence, n)
    if start is None or 2 * start[1] >= zf.size:
        return None
    return z0, _grid(zf.size)[1], start[1]


def _grid_series(coefs: np.ndarray, z0: complex, npts: int) -> np.ndarray:
    """sum_{k>=1} coefs[k-1] t^k on the grid t_m = z0 e^{2 pi i m / M}, M = npts:
    the terms rotated by z0^k, folded modulo M, and one inverse FFT."""
    if not coefs.size:
        return np.zeros(npts, dtype=np.complex128)
    k = np.arange(1, coefs.size + 1)
    folded = np.zeros(-(-(coefs.size + 1) // npts) * npts, dtype=np.complex128)
    folded[k] = coefs * z0**k
    return np.fft.ifft(folded.reshape(-1, npts).sum(axis=0)) * npts


def _live_terms(mag: np.ndarray) -> int:
    """How many leading entries of `mag`, the moduli of a one-sided spectrum
    whose upper half holds rounding alone, rise above that noise: through
    the last entry above _GRID_NOISE times the largest in the band, and at
    least one.  Weighting rounding noise by the frequency would cost digits."""
    half = mag.size // 2
    live = np.flatnonzero(mag[:half] > _GRID_NOISE * mag[half:].max())
    return live[-1] + 1 if live.size else 1


def _resolved(mag: np.ndarray) -> bool:
    """Whether spectra on M points, the moduli `mag` along the last axis,
    hold at most _CONTOUR_TOL of their largest entry in the band
    M/4 .. M/2 - 1: the test that a grid resolves a one-sided spectrum.
    Written so that a NaN fails it."""
    npts = mag.shape[-1]
    return bool(mag[..., npts // 4 : npts // 2].max() <= _CONTOUR_TOL * mag.max())


def _resolve(sample: Callable, npts: int, stop: int):
    """(sample(M), its spectrum at m < M/2) for the least M = npts 2^j
    whose spectrum `_resolved` passes; None once M reaches stop.

    The spectrum is the forward-normed FFT of the last M values along the
    last axis of sample(M), the samples on the M grid points; values ahead
    of them ride along in the same pass of the basis recursion.
    """
    while npts < stop:
        values = sample(npts)
        spec = np.fft.fft(values[..., -npts:], axis=-1, norm="forward")
        if _resolved(np.abs(spec)):
            return values, spec[..., : npts // 2]
        npts *= 2
    return None


def _sigma_from_sums(bz, bpz, s, sp) -> np.ndarray:
    """S_n - (B_n/B_n') S_n' from the four outputs of the recursion, any shape."""
    absb = np.abs(bz)
    absbp = np.abs(bpz)
    critical = (absbp < CRITICAL_TOL) & (absb >= CRITICAL_TOL)
    if critical.any():
        raise CriticalPoint("B_n' vanishes at an evaluation point where B_n does not")
    node = (absbp < CRITICAL_TOL) & (absb < CRITICAL_TOL)
    ratio = np.where(node, 0.0, bz / np.where(node, 1.0, bpz))
    return s - ratio * sp


def _basis_spectrum(basis: TMBasis, z0: complex, npts: int, zf: np.ndarray = _NO_POINTS):
    """(Phi, V): Phi[k, m], m < M/2, the spectrum of s -> phi_k(z0 s) on the
    least grid of M < npts points that resolves it, and V the rows phi_k at
    the flat points zf from the same pass of the recursion; None when no
    such grid exists.

    The rows phi_k, k < n, are holomorphic past the circle, so their
    spectrum decays geometrically and lives on m >= 0: `_resolve` sizes
    the grid from `_grid_start`'s M0, with the points zf ahead of the grid
    points in each pass.  None when `_grid_start` declines or M would
    reach npts, where the rows on the npts points themselves cost no more.
    """
    start = _grid_start(basis.sequence, basis.order)

    def sample(m: int) -> np.ndarray:
        return phi_values(basis, np.concatenate([zf, z0 * _grid(m)[1]]))

    resolved = None if start is None else _resolve(sample, start[0], npts)
    return None if resolved is None else (resolved[1], resolved[0][:, : zf.size])


def _parseval_coefficients(f: BoundaryGridFunction, basis: TMBasis) -> np.ndarray:
    """The block [c, d] of shape (n, 2): c_k = <f, phi_k> and d_k = <conj f, phi_k>
    on f's grid of N points.

    With F = fft(f) / N and Phi the basis spectrum of `_basis_spectrum`,
    the discrete Parseval identity gives c = conj(Phi) F and d = conj(Phi) G
    with G_m = conj(F_{-m mod N}), the spectrum of conj f, summed over
    m < M/2.  Where `_basis_spectrum` declines, c and d are the means of
    conj(phi_k) f and conj(phi_k) conj(f) over the basis rows on the data
    grid itself.
    """
    npts = f.resolution
    spectral = _basis_spectrum(basis, 1.0, npts)
    # Two rows whose products with the basis spectrum, or with the basis
    # rows, are conj(c) and conj(d); this orientation of the product also
    # keeps multithreaded BLAS off its slow path for a two-column
    # right-hand side.
    if spectral is None:
        rows = phi_values(basis, f.points)
        rhs = np.stack([np.conj(f.samples), f.samples]) / npts
    else:
        rows = spectral[0]
        fs = np.fft.fft(f.samples, norm="forward")
        top = rows.shape[1]
        rhs = np.stack([np.conj(fs[:top]), fs[-np.arange(top) % npts]])
    return np.conj(rhs @ rows.T).T


def sigma_rusak(f: BoundaryGridFunction, basis: TMBasis, z):
    """Kernel quadrature (1/2pi) integral f(t) F_n(t, z) |dt| over f's own grid.

    Computed as T(c) + conj(T(d)) - f_0 (see the module docstring) from
    the grid's c_k = <f, phi_k> and d_k = <conj f, phi_k>, and f_0 the
    samples' mean.  c and d come by the discrete Parseval identity
    (`_parseval_coefficients`): one FFT of the N samples against the
    spectrum of the n basis rows on the least grid of M points that
    resolves it (512 for n <= 32 poles |a| <= 0.7 against N = 4096), or,
    when no grid smaller than N does, as means over the basis rows on the
    data grid.  T is sigma_positive's recursion, one pass over the poles
    that sums the block [c, d] at the P probes at once.  That costs
    O(n M + N log N + n P), or O(n N + n P) on the rows, which form the
    only n x N array.  Defined for boundary data and boundary
    evaluation points.  Positive and norm-one up to quadrature error,
    checked by C6: nonnegative data gives nonnegative values and the sup
    never exceeds the data sup.
    """
    zf, shape, scalar = _flatten(z)
    _require_circle(zf, "sigma_rusak")
    cd = _parseval_coefficients(f, basis)
    tc, td = _sigma_from_sums(*_recurse(basis.sequence, basis.order, zf, c=cd))
    return _restore(tc + np.conj(td) - f.samples.mean(), shape, scalar)


def _horner(coefs: np.ndarray, zf: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] zf^k at the flat points zf by Horner's rule."""
    out = np.zeros_like(zf)
    for coef in coefs[::-1]:
        out *= zf
        out += coef
    return out


def _projected_taylor(fm: np.ndarray, sequence: PointSequence, n: int) -> np.ndarray:
    """Taylor coefficients g_0 .. g_{L-1} of g = P_+(conj(B_n) f) from f_0 .. f_{L-1}.

    B_n g is f's part in B_n H^2 of H^2 = K_B + B_n H^2, K_B the model
    space.  On the circle conj(B_n) = sum_j conj(b_j) t^(-j), b_j the
    Taylor coefficients of B_n, so g_k = sum_{m>=k} f_m conj(b_{m-k});
    since |b_j| <= 1, the f_m left out move g_k by at most their sum.
    `fm` has shape (L,) or (L, T), one member per column.
    """
    size = len(fm)
    g = np.zeros_like(fm)
    for j, cb in enumerate(np.conj(_taylor(sequence, n, size))):
        g[: size - j] += cb * fm[j:]
    return g


def _projections(f: AnalyticTestFunction, sequence: PointSequence, orders: list) -> list:
    """For each order n, (kf, kg): the Taylor coefficients k g_k, k >= 1, of
    g' for g = P_+(conj(B_n) f), and kf those of f', or None where f' is
    f.derivative.

    kg comes from `_projected_derivative`'s FFT on the circle.  Where that
    declines, 1/B_n(t) = conj(B_n(t / R^2)) on |t| = R makes g_k R^k and
    f_k R^k the Fourier coefficients of f(R s) conj(B_n(s / R)) and f(R s)
    on |s| = 1: one FFT each of the same samples of f, with R and N from
    `_contour` for the inner radius 1 (|b_j| <= 1), however near the poles
    come to the circle.  f' then shares g''s rounding, which cancels in
    f' - B_n g' (with the exact f', sigma_positive(1 + z^600) on 16 poles
    of modulus 0.5 was 4e-12 off).  Past CONTOUR_CAP points NoConvergence
    is raised.
    """
    kgs = [_projected_derivative(f, sequence, n) for n in orders]
    late = [n for n, kg in zip(orders, kgs) if kg is None]
    if not late:
        return [(None, kg) for kg in kgs]
    r, rho = _contour(f, 1.0)
    npts = _contour_size(f, r, rho)
    if npts > CONTOUR_CAP:
        what = f"Taylor coefficients of {f.label}"
        raise NoConvergence(f"{what} need more than {CONTOUR_CAP} contour points (rho = {rho:.9f})")
    # Roots from an inverse FFT, without the drift in angle of 2 pi j / N.
    s = np.fft.ifft(np.eye(1, npts, 1)[0] * npts)
    fv = np.broadcast_to(np.asarray(f.value(r * s), dtype=np.complex128), s.shape)
    blaschke = iter(_recurse(sequence, late[-1], s / r, jet=False, orders=late)[0])
    out = []
    for kg in kgs:
        kf = None
        if kg is None:
            c = np.fft.fft(np.stack([fv, fv * np.conj(next(blaschke))])) / npts
            k = np.arange(1, _live_terms(np.abs(c[0])))
            kf, kg = k * c[:, k] * r ** -k.astype(np.float64)
        out.append((kf, kg))
    return out


def _delta_at(f: AnalyticTestFunction, kf, kg, zf: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f'(z) - b g'(z) at the flat points zf, b = B_n there, from one
    order's `_projections`, by Horner's rule."""
    fp = f.derivative(zf) if kf is None else _horner(kf, zf)
    return fp - b * _horner(kg, zf)


def _projected_derivative(
    f: AnalyticTestFunction, sequence: PointSequence, n: int
) -> np.ndarray | None:
    """The Taylor coefficients k g_k, k >= 1, of g' for g = P_+(conj(B_n) f)
    by the FFT route, or None when it declines.

    The Taylor coefficients g_k of g are the Fourier coefficients of
    f conj(B_n) on the circle: one FFT of its samples on M points, with
    B_n there from `_grid_blaschke`.  `_tame_size` (k = 4) raises
    `_grid_start`'s M0 until f's part of the band M/4 .. M/2 is rounding,
    as it stays on every doubled grid (by the maximum modulus principle),
    and `_resolve` doubles M while conj(B_n)'s is not: its spectrum has a
    tail past -(n + J) (64 random poles |a| <= 0.5 reach -130 at 1e-14,
    J = 56), and 64 poles of modulus 0.96 within 0.07 rad reach -max|B_n'|
    and put 1e-2 max|g| in the band on 4096 points.  k runs up to
    `_live_terms` on k < M/2.  None when `_grid_start` declines or M would
    pass CONTOUR_CAP.
    """
    start = _grid_start(sequence, n)
    if start is None:
        return None
    npts, terms = start

    def sample(m: int) -> np.ndarray:
        roots = _grid(m)[1]
        b, _ = _grid_blaschke(sequence, n, 1.0, roots, terms)
        fv = np.broadcast_to(np.asarray(f.value(roots), dtype=np.complex128), roots.shape)
        return fv * np.conj(b)

    resolved = _resolve(sample, _tame_size(f, 1.0, npts, 4), 2 * CONTOUR_CAP)
    if resolved is None:
        return None
    g = resolved[1]
    top = _live_terms(np.abs(g))
    return np.arange(1, top) * g[1:top]


def delta(f: AnalyticTestFunction, basis: TMBasis, z, coeffs: np.ndarray | None = None):
    """Weighted error (B_n'/B_n)(f - sigma_positive(f)) inside the disc, as f' - B_n g'.

    The function is holomorphic despite the apparent poles: f - sigma_positive(f)
    vanishes at the zeros of B_n.  On the circle H^2 = K_B + B_n H^2, so
    f = S_n f + B_n g with g = P_+(conj(B_n) f), and then
    f - sigma_positive(f) = (B_n / B_n')(f' - B_n g') makes
    delta(f) = f' - B_n g' exactly.  B_n at z comes from one pass of the
    basis recursion without derivatives.  Where B_n vanishes the value is
    f' itself, so delta interpolates f' at every basis pole.  Elsewhere
    g'(z) = sum_{k>=1} k g_k z^(k-1) by Horner's rule, with the Taylor
    coefficients g_k of g from one FFT of f conj(B_n) on a grid the route
    sizes itself, or wherever the FFT declines (past 1024 power sums of
    B_n, or when no grid of at most CONTOUR_CAP points both bounds f's
    growth and resolves f conj(B_n)) from `_projections`' rule on a
    contour |t| = R > 1, which also gives f' there.

    Against a 50-digit oracle (simple poles, n = 1 to 32 with |a| <= 0.9,
    and a_k = 1 - 2^-k at n = 12 and 16, where the FFT declines) delta
    was within 5e-15 relative, and for Cauchy transforms of degree-6
    densities on those poles within 3.8e-15 of the largest value over the
    probes.  No source reads the coefficients: `coeffs` is deprecated and
    ignored, the 2n - 1 values of coefficients_of only length-checked.
    """
    zf, shape, scalar = _flatten(z)
    if zf.size and np.abs(zf).max() > 1.0 - NEAR_BOUNDARY_MARGIN:
        raise NearBoundary(f"delta requires |z| <= 1 - {NEAR_BOUNDARY_MARGIN}")
    n, sequence = basis.order, basis.sequence
    if coeffs is not None:
        _require_length(coeffs, n, "delta")
    bz = _recurse(sequence, n, zf, jet=False)[0]
    out = np.array(np.broadcast_to(np.asarray(f.derivative(zf), dtype=np.complex128), zf.shape))
    live = np.flatnonzero(bz)
    if live.size:
        out[live] = _delta_at(f, *_projections(f, sequence, [n])[0], zf[live], bz[live])
    return _restore(out, shape, scalar)
