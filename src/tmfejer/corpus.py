"""Test functions for the summation operators.

Members are `AnalyticTestFunction` instances with exact derivative
closures, so finite differences never enter the operator pipeline.  All
members except the Cauchy transforms are holomorphic across the closed
disc and may be sampled on the circle; grid-backed Cauchy transforms are
interior objects whose boundary information lives in their density.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from tmfejer.blaschke import PointSequence, _flatten, _restore, eval_blaschke
from tmfejer.operators import AnalyticTestFunction
from tmfejer.quadrature import BoundaryGridFunction, refined_maximum

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
    "schur_corpus",
]

def _as_complex(z) -> np.ndarray:
    return np.asarray(z, dtype=np.complex128)


def constant_one() -> AnalyticTestFunction:
    return AnalyticTestFunction(
        value=lambda z: np.ones_like(_as_complex(z)),
        derivative=lambda z: np.zeros_like(_as_complex(z)),
        kind="rational",
        label="one",
    )


def identity_map() -> AnalyticTestFunction:
    """w_0(z) = z, the alpha = 0 member of the mobius family."""
    return AnalyticTestFunction(
        value=lambda z: _as_complex(z).copy(),
        derivative=lambda z: np.ones_like(_as_complex(z)),
        kind="schur",
        label="identity",
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
        value=value, derivative=derivative, kind="schur", label=f"mobius@{a:.3g}"
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
        label=f"pole@{p:.3g}",
    )


def blaschke_multiple(points, scale: complex = 1.0) -> AnalyticTestFunction:
    """scale * B(z) for the finite Blaschke product over the given points."""
    seq = points if isinstance(points, PointSequence) else PointSequence(tuple(points))
    m = len(seq)
    s = complex(scale)

    return AnalyticTestFunction(
        value=lambda z: s * eval_blaschke(seq, m, z).value,
        derivative=lambda z: s * eval_blaschke(seq, m, z).derivative,
        kind="blaschke_multiple",
        label=f"blaschke(deg {m})",
    )


def schur_product(alphas) -> AnalyticTestFunction:
    """Blaschke product over the given parameters; bounded by one on the closed disc."""
    seq = PointSequence(tuple(alphas))
    m = len(seq)

    return AnalyticTestFunction(
        value=lambda z: eval_blaschke(seq, m, z).value,
        derivative=lambda z: eval_blaschke(seq, m, z).derivative,
        kind="schur",
        label=f"schur(deg {m})",
    )


def cauchy_transform(density: BoundaryGridFunction, label: str = "") -> AnalyticTestFunction:
    """f(z) = (1/2pi) integral mu(t) / (1 - conj(t) z) |dt| for |z| < 1.

    Value and derivative are grid quadratures over the density's own
    nodes, one array expression for all points.  Not evaluable on the
    circle; the operator layer reads boundary data from the attached
    density instead.
    """
    pts = density.points
    ct = np.conj(pts)[None, :]
    mu = density.samples[None, :]

    def _transform(z, power: int, weight) -> np.ndarray:
        zf, shape, scalar = _flatten(z)
        out = (weight * mu / (1.0 - ct * zf[:, None]) ** power).mean(axis=1)
        return _restore(out, shape, scalar)

    return AnalyticTestFunction(
        value=lambda z: _transform(z, 1, 1.0),
        derivative=lambda z: _transform(z, 2, ct),
        kind="cauchy_transform",
        density=density,
        label=label or "cauchy",
    )


def random_unit_density(
    rng: np.random.Generator, resolution: int = 4096, degree: int = 6
) -> BoundaryGridFunction:
    """Random trigonometric polynomial with true sup norm one on the circle.

    Coefficients g_m, |m| <= degree, are complex Gaussian.  The sum
    sum_m g_m e^{im theta} equals e^{-i degree theta} p(e^{i theta}) for the
    polynomial p(w) = sum_m g_m w^{m + degree} of degree 2 * degree, so its
    modulus is |p(e^{i theta})|: one exp per angle and a Horner pass.  The
    scale divides out the refined maximum of |mu| rather than a grid
    maximum, so the bound sup|mu| <= 1 holds up to the refinement tolerance
    and not merely at the nodes.  The samples are the inverse FFT of the
    coefficients zero-padded to `resolution`, which would alias if
    2 * degree + 1 > resolution; that raises ValueError.
    """
    size = 2 * degree + 1
    if size > resolution:
        raise ValueError(f"degree {degree} needs at least {size} samples, got {resolution}")
    g = rng.standard_normal(size) + 1j * rng.standard_normal(size)

    def poly(theta):
        return P.polyval(np.exp(1j * np.asarray(theta, dtype=np.float64)), g)

    _, peak = refined_maximum(lambda theta: np.abs(poly(theta)))
    spectrum = np.zeros(resolution, dtype=np.complex128)
    spectrum[np.arange(-degree, degree + 1)] = g
    return BoundaryGridFunction(np.fft.ifft(spectrum) * (resolution / peak))


def standard_corpus(seed: int = 7, resolution: int = 4096) -> tuple:
    """A fixed mixed bag: rational, Schur, Blaschke and Cauchy members."""
    rng = np.random.default_rng(seed)
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
        cauchy_transform(random_unit_density(rng, resolution), label="cauchy-a"),
        cauchy_transform(random_unit_density(rng, resolution), label="cauchy-b"),
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


def schur_corpus() -> tuple:
    """Members with sup norm at most one on the closed disc."""
    return (
        identity_map(),
        mobius(0.3),
        mobius(-0.4 + 0.2j),
        mobius(0.55j),
        schur_product((0.3, -0.5j)),
        schur_product((0.2, 0.4j, -0.3)),
    )
