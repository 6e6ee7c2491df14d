"""Test functions for the summation operators.

Members are `AnalyticTestFunction` instances with exact derivative
closures, so finite differences never enter the operator pipeline.  Every
member is holomorphic beyond the closed disc, up to the radius of
analyticity each constructor records.  A Cauchy transform of grid-backed
data is the polynomial of its density's nonnegative Fourier coefficients,
entire, and carries the density along.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from tmfejer.blaschke import PointSequence, _eval_value, eval_blaschke
from tmfejer.operators import AnalyticTestFunction, _live_terms
from tmfejer.quadrature import BoundaryGridFunction, _zoom

__all__ = [
    "constant_one",
    "identity_map",
    "mobius",
    "polynomial",
    "simple_pole",
    "blaschke_multiple",
    "schur_product",
    "cauchy_transform",
    "random_unit_density",
    "standard_corpus",
    "rational_corpus",
]

def _as_complex(z) -> np.ndarray:
    return np.asarray(z, dtype=np.complex128)


def _radius_of(zeros) -> float:
    """1 / max|alpha| over the zeros of a Blaschke factor, the nearest pole's modulus."""
    top = max((abs(complex(a)) for a in zeros), default=0.0)
    return 1.0 / top if top else math.inf


def constant_one() -> AnalyticTestFunction:
    return AnalyticTestFunction(
        value=lambda z: np.ones_like(_as_complex(z)),
        derivative=lambda z: np.zeros_like(_as_complex(z)),
        kind="rational",
        label="one",
        radius=math.inf,
    )


def identity_map() -> AnalyticTestFunction:
    """w_0(z) = z, the alpha = 0 member of the mobius family."""
    return AnalyticTestFunction(
        value=lambda z: _as_complex(z).copy(),
        derivative=lambda z: np.ones_like(_as_complex(z)),
        kind="schur",
        label="identity",
        radius=math.inf,
    )


def mobius(alpha: complex) -> AnalyticTestFunction:
    """w_alpha(z) = (z - alpha)/(1 - z conj(alpha)), a disc automorphism."""
    a = complex(alpha)
    if not abs(a) < 1.0:
        raise ValueError("mobius parameter must lie in the open disc")

    def value(z):
        zf = _as_complex(z)
        return (zf - a) / (1.0 - zf * np.conj(a))

    def derivative(z):
        zf = _as_complex(z)
        return (1.0 - abs(a) ** 2) / (1.0 - zf * np.conj(a)) ** 2

    return AnalyticTestFunction(
        value=value,
        derivative=derivative,
        kind="schur",
        label=f"mobius@{str(a).strip('()')}",
        radius=_radius_of((a,)),
    )


def polynomial(coeffs, label: str = "") -> AnalyticTestFunction:
    """Polynomial with ascending coefficients (c0 + c1 z + ...)."""
    c = np.asarray(coeffs, dtype=np.complex128)
    dc = P.polyder(c)

    return AnalyticTestFunction(
        value=lambda z: P.polyval(_as_complex(z), c),
        derivative=lambda z: P.polyval(_as_complex(z), dc),
        kind="rational",
        label=label or f"poly(deg {len(c) - 1})",
        radius=math.inf,
    )


def simple_pole(pole: complex, residue: complex = 1.0) -> AnalyticTestFunction:
    """f(z) = residue / (pole - z) with the pole outside the closed disc."""
    p = complex(pole)
    r = complex(residue)
    if not abs(p) > 1.0:
        raise ValueError("pole must lie outside the closed unit disc")

    return AnalyticTestFunction(
        value=lambda z: r / (p - _as_complex(z)),
        derivative=lambda z: r / (p - _as_complex(z)) ** 2,
        kind="rational",
        label=f"pole@{str(p).strip('()')}",
        radius=abs(p),
    )


def blaschke_multiple(points, scale: complex = 1.0) -> AnalyticTestFunction:
    """scale * B(z) for the finite Blaschke product over the given points."""
    seq = points if isinstance(points, PointSequence) else PointSequence(tuple(points))
    m = len(seq)
    s = complex(scale)

    return AnalyticTestFunction(
        value=lambda z: s * _eval_value(seq, m, z),
        derivative=lambda z: s * eval_blaschke(seq, m, z).derivative,
        kind="blaschke_multiple",
        label=f"blaschke(deg {m})",
        radius=_radius_of(seq.points),
    )


def schur_product(alphas) -> AnalyticTestFunction:
    """Blaschke product over the given parameters; bounded by one on the closed disc."""
    seq = PointSequence(tuple(alphas))
    m = len(seq)

    return AnalyticTestFunction(
        value=lambda z: _eval_value(seq, m, z),
        derivative=lambda z: eval_blaschke(seq, m, z).derivative,
        kind="schur",
        label=f"schur(deg {m})",
        radius=_radius_of(seq.points),
    )


def cauchy_transform(density: BoundaryGridFunction, label: str = "") -> AnalyticTestFunction:
    """f(z) = (1/2pi) integral mu(t) / (1 - conj(t) z) |dt| for |z| < 1.

    f(z) = sum_{m>=0} mu_m z^m with mu_m the Fourier coefficients of the
    density, read off one FFT of its N samples at frequencies 0 .. N/2 - 1
    as far as they rise above rounding (`_live_terms`); value and
    derivative are Horner sums of them.  The polynomial is entire, so the
    operators take its coefficients on a contour like any other member's.
    The attached density is its boundary data for sigma_rusak.
    """
    spec = np.fft.fft(density.samples) / density.resolution
    series = polynomial(spec[: _live_terms(np.abs(spec[: density.resolution // 2]))])
    return AnalyticTestFunction(
        value=series.value,
        derivative=series.derivative,
        kind="cauchy_transform",
        density=density,
        label=label or "cauchy",
        radius=math.inf,
    )


# Random unit densities: trigonometric degree, size of the peak scan and the
# share of a row's scan maximum above which every scan local maximum is zoomed.
_DEGREE = 6
_PEAK_SCAN = 512
_PEAK_WINDOW = 1.0 - _DEGREE * np.pi / _PEAK_SCAN
_ORDERS = np.arange(-_DEGREE, _DEGREE + 1)


def _peak_windows(g: np.ndarray) -> np.ndarray:
    """Window centres, one row per coefficient row of g, for the peak search of |p|.

    A row's windows sit on its scan local maxima that reach `_PEAK_WINDOW`
    of the row's scan maximum, padded with the scan argmax to a common
    width.
    """
    spectrum = np.zeros((g.shape[0], _PEAK_SCAN), dtype=np.complex128)
    spectrum[:, _ORDERS] = g
    scan = np.abs(np.fft.ifft(spectrum, axis=1))
    del spectrum  # Few live temporaries: the heap's high-water mark stays resident.
    ring = np.concatenate((scan[:, -1:], scan, scan[:, :1]), axis=1)
    top = (scan >= ring[:, :-2]) & (scan >= ring[:, 2:])
    top &= scan >= _PEAK_WINDOW * scan.max(axis=1, keepdims=True)
    rows, cols = np.nonzero(top)
    tops = np.bincount(rows, minlength=g.shape[0])
    idx = np.repeat(scan.argmax(axis=1)[:, None], tops.max(initial=1), axis=1)
    idx[rows, np.arange(rows.size) - np.repeat(np.cumsum(tops) - tops, tops)] = cols
    return (2.0 * np.pi / _PEAK_SCAN) * idx


def _unit_densities(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` random unit densities as raw (count, 13) coefficients and refined peaks.

    Row k holds g_m for m = -6..6 and peak k the refined maximum of
    |sum_m g_m e^{im theta}|, so density k is sum_m (g_m / peak) e^{im theta}.
    Row k is what the k-th of `count` successive `random_unit_density` calls
    on the same generator draws, and peak k what it divides out.
    """
    draws = rng.standard_normal((count, 2, 2 * _DEGREE + 1))
    g = draws[:, 0] + 1j * draws[:, 1]

    def negative_modulus(theta):
        w = np.exp(1j * theta)
        acc = np.broadcast_to(g[:, -1:], w.shape).copy()
        for k in range(2 * _DEGREE - 1, -1, -1):
            acc *= w
            acc += g[:, k : k + 1]
        return -np.abs(acc)

    x = _peak_windows(g)
    _, v = _zoom(negative_modulus, x, np.full(x.shape, np.inf), 2.0 * np.pi / _PEAK_SCAN)
    return g, -v.min(axis=1)


def random_unit_density(rng: np.random.Generator, resolution: int = 4096) -> BoundaryGridFunction:
    """Random trigonometric polynomial of degree 6 with true sup norm one on the circle.

    Coefficients g_m, |m| <= 6, are complex Gaussian: 13 real parts, then
    13 imaginary parts.  The sum sum_m g_m e^{im theta} equals
    e^{-6i theta} p(e^{i theta}) for the polynomial p(w) = sum_m g_m w^{m + 6}
    of degree 12, so its modulus is |p(e^{i theta})|.  The scale divides out
    the refined maximum of |mu| rather than a grid maximum, so the bound
    sup|mu| <= 1 holds up to the refinement tolerance and not merely at the
    nodes.  The peak search scans |mu| on 512 angles with one FFT, then
    zooms (Horner passes of p) on every scan local maximum that reaches
    1 - 6 pi / 512 of the scan maximum.  That window rule is Bernstein's
    inequality: |mu'| <= 6 sup|mu| for degree 6, so the scan angle nearest
    the true peak, half a step away at most, reaches that share of it, and
    the one-step window of the scan local maximum beside it holds the peak.
    A fixed number of windows would miss a higher peak that falls between
    scan angles when a lower one sits on the grid.  The samples are the
    inverse FFT of the 13 coefficients zero-padded to `resolution`; a grid
    holds at least 16 points, so they never alias.  Densities drawn
    together (`_unit_densities`) share one scan FFT and one zoom.
    """
    (g,), (peak,) = _unit_densities(rng, 1)
    spectrum = np.zeros(resolution, dtype=np.complex128)
    spectrum[_ORDERS] = g
    return BoundaryGridFunction(np.fft.ifft(spectrum) * (resolution / peak))


def standard_corpus() -> tuple:
    """A fixed mixed bag: rational, Schur, Blaschke and Cauchy members.

    The two Cauchy densities are drawn from seed 7 on 4096 points.
    """
    rng = np.random.default_rng(7)
    return (
        constant_one(),
        identity_map(),
        mobius(0.3),
        mobius(-0.4 + 0.2j),
        polynomial((1.0, 0.5, -0.25j, 0.125), label="poly3"),
        polynomial((0.2, 0.0, 0.4j, 0.0, -0.3), label="poly4"),
        simple_pole(1.6),
        simple_pole(-1.25j, residue=0.5),
        blaschke_multiple((0.4, -0.3j), scale=0.9),
        schur_product((0.3, -0.5j)),
        cauchy_transform(random_unit_density(rng), label="cauchy-a"),
        cauchy_transform(random_unit_density(rng), label="cauchy-b"),
    )


def rational_corpus(count: int = 10) -> tuple:
    """Members holomorphic across the closed disc, safe to sample on it."""
    members = (
        constant_one(),
        identity_map(),
        mobius(0.3),
        mobius(-0.4 + 0.2j),
        mobius(0.55j),
        polynomial((1.0, 0.5, -0.25j, 0.125), label="poly3"),
        polynomial((0.2, 0.0, 0.4j, 0.0, -0.3), label="poly4"),
        simple_pole(1.6),
        simple_pole(-1.25j, residue=0.5),
        schur_product((0.3, -0.5j)),
        blaschke_multiple((0.4, -0.3j), scale=0.9),
        polynomial((0.0, 0.0, 1.0), label="square"),
    )
    if not 1 <= count <= len(members):
        raise ValueError(f"count must be in [1, {len(members)}]")
    return members[:count]
