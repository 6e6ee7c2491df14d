"""Experiment drivers: diagnostics, convergence, first-order error, saturation.

Each driver returns a list of frozen row objects with a `to_row` method
producing flat dictionaries (complex values split into re/im), which is
what the command line layer serializes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tmfejer.blaschke import PointSequence, boundary_derivative_modulus, eval_blaschke
from tmfejer.corpus import _unit_densities, constant_one, standard_corpus
from tmfejer.operators import (
    AnalyticTestFunction,
    _cauchy_weights,
    cesaro_mean,
    coefficients_of,
    sigma_positive,
    sigma_rusak,
)
from tmfejer.quadrature import (
    BoundaryGridFunction,
    NoConvergence,
    _zoom,
    default_resolution,
    refined_maximum,
)
from tmfejer.tm_basis import TMBasis

__all__ = [
    "SequenceDiagnostics",
    "ConvergenceRow",
    "VoronovskayaSample",
    "SaturationRow",
    "CounterexampleRow",
    "interior_probes",
    "diagnose_sequence",
    "convergence_experiment",
    "voronovskaya_experiment",
    "saturation_check",
    "cesaro_counterexample",
]

_SCAN = 8192
# Largest |derivative_l1 - n| that diagnose_sequence accepts (C10's tolerance).
_L1_TOL = 1e-10
# Largest |extremal_value - bound| that voronovskaya_experiment accepts: the
# extremal member attains the bound exactly, so the gap is quadrature error.
_EXTREMAL_TOL = 1e-7


def interior_probes(count: int) -> np.ndarray:
    """Deterministic interior points: golden-angle spirals on the radii 0.3, 0.55, 0.75, 0.88."""
    if count < 1:
        raise ValueError("need at least one probe")
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    ks = np.arange(count)
    angles = 2.0 * np.pi * ((ks * golden) % 1.0)
    r = np.array([0.3, 0.55, 0.75, 0.88])[ks % 4]
    return r * np.exp(1j * angles)


def _boundary_error(f: AnalyticTestFunction, basis: TMBasis, coeffs):
    """The map theta -> |f - sigma_positive(f)| at e^{i theta}."""

    def ev(theta):
        t = np.exp(1j * np.asarray(theta, dtype=np.float64))
        s = sigma_positive(f, basis, t, coeffs=coeffs)
        return np.abs(np.asarray(f.value(t)) - np.asarray(s))

    return ev


@dataclass(frozen=True)
class SequenceDiagnostics:
    order: int
    blaschke_sum: float
    frostman_min: float
    argmin_angle: float
    sup_inverse: float
    derivative_l1: float
    product_modulus: float

    def to_row(self) -> dict:
        return {
            "order": self.order,
            "blaschke_sum": self.blaschke_sum,
            "frostman_min": self.frostman_min,
            "argmin_angle": self.argmin_angle,
            "sup_inverse": self.sup_inverse,
            "derivative_l1": self.derivative_l1,
            "product_modulus": self.product_modulus,
        }


def _l1_drift(sequence: PointSequence, order: int) -> float:
    """Error of the 8192-angle mean of |B_n'| against its exact value n.

    The N-point mean of the Poisson term (1 - |a|^2) / |1 - conj(t) a|^2
    is Re((1 + q) / (1 - q)) with q = a^N, so the mean of the partial
    Frostman sum misses n by sum_k Re(2 q_k / (1 - q_k)).
    """
    q = sequence.as_array()[:order] ** _SCAN
    return float((2.0 * q / (1.0 - q)).real.sum())


def diagnose_sequence(sequence: PointSequence, order: int) -> SequenceDiagnostics:
    """Boundary statistics of |B_n'|: certified minimum, its angle, norms.

    The minimum is a scan of 8192 uniform angles zoomed in to 1e-10, as in
    `refined_minimum`; the uniform norm of 1/B_n' is its reciprocal.  The
    mean of |B_n'| over the same scan reproduces the order (winding of B_n)
    up to the closed-form error of `_l1_drift`; past 1e-10, as for poles
    near the circle, NoConvergence is raised.
    """

    def ev(theta):
        return np.asarray(boundary_derivative_modulus(sequence, order, theta))

    grid = 2.0 * np.pi * np.arange(_SCAN) / _SCAN
    vals = ev(grid)
    i = int(vals.argmin())
    x, fmin = _zoom(
        lambda a: ev(a[0])[None], np.array([[grid[i]]]), np.array([[vals[i]]]), 2.0 * np.pi / _SCAN
    )
    # After the scan, whose call has rejected an order outside the sequence.
    drift = _l1_drift(sequence, order)
    if abs(drift) > _L1_TOL:
        raise NoConvergence(
            f"the {_SCAN}-angle mean of |B_n'| misses order {order} by {drift:.2e}; "
            f"poles too close to the circle"
        )
    moduli = np.abs(sequence.as_array()[:order])
    return SequenceDiagnostics(
        order=order,
        blaschke_sum=float((1.0 - moduli).sum()),
        frostman_min=float(fmin[0, 0]),
        argmin_angle=float(x[0, 0]),
        sup_inverse=1.0 / float(fmin[0, 0]),
        derivative_l1=float(vals.mean()),
        product_modulus=float(np.prod(moduli)),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    order: int
    error_sup: float
    error_l1: float
    error_l2: float
    upper_sup: float
    lower_sup: float
    upper_l1: float
    lower_l1: float

    def to_row(self) -> dict:
        return {
            "order": self.order,
            "error_sup": self.error_sup,
            "error_l1": self.error_l1,
            "error_l2": self.error_l2,
            "upper_sup": self.upper_sup,
            "lower_sup": self.lower_sup,
            "upper_l1": self.upper_l1,
            "lower_l1": self.lower_l1,
        }


def convergence_experiment(
    f: AnalyticTestFunction,
    sequence: PointSequence,
    orders,
    grid_n: int | None = None,
) -> list[ConvergenceRow]:
    """Norms of f - sigma_positive(f) on the circle against the 1/B_n' brackets.

    The sup error is a refined maximum that always probes the Frostman
    minimizer, where the weight 1/|B_n'| peaks.  Bracket columns hold
    2 * ||1/B_n'|| above and prod |a_k|^2 * ||1/B_n'|| below in the matching
    norm; the two-sided enclosure is the identity-map statement and needs
    prod |a_k|^2 <= 1 - prod |a_k| for the lower half.  The L^1 and L^2
    columns are means over `grid_n` angles (default_resolution(n) when
    None); the coefficients come from coefficients_of's contour and do not
    depend on it.
    """
    rows = []
    for n in orders:
        n = int(n)
        basis = TMBasis(sequence, n)
        coeffs = coefficients_of(f, basis)
        diag = diagnose_sequence(sequence, n)
        ev = _boundary_error(f, basis, coeffs)
        _, err_sup = refined_maximum(ev, candidates=(diag.argmin_angle,))
        res = grid_n or default_resolution(n)
        grid = 2.0 * np.pi * np.arange(res) / res
        err = ev(grid)
        inv = 1.0 / np.asarray(boundary_derivative_modulus(sequence, n, grid))
        pm2 = diag.product_modulus**2
        rows.append(
            ConvergenceRow(
                order=n,
                error_sup=float(err_sup),
                error_l1=float(err.mean()),
                error_l2=float(np.sqrt((err**2).mean())),
                upper_sup=2.0 * diag.sup_inverse,
                lower_sup=pm2 * diag.sup_inverse,
                upper_l1=2.0 * float(inv.mean()),
                lower_l1=pm2 * float(inv.mean()),
            )
        )
    return rows


@dataclass(frozen=True)
class VoronovskayaSample:
    order: int
    z: complex
    bound: float
    random_max: float
    extremal_value: float

    def to_row(self) -> dict:
        return {
            "order": self.order,
            "z_re": self.z.real,
            "z_im": self.z.imag,
            "bound": self.bound,
            "random_max": self.random_max,
            "extremal_value": self.extremal_value,
            "extremal_gap": self.bound - self.extremal_value,
        }


def voronovskaya_experiment(
    sequence: PointSequence,
    order: int,
    probes: int = 16,
    trials: int = 50,
    seed: int = 0,
    grid_n: int | None = None,
) -> list[VoronovskayaSample]:
    """First-order error |delta(f)(z) - f'(z)| against |B_n(z)|/(1 - |z|^2).

    For a Cauchy transform f = K(mu) delta takes its integral form
    delta(f)(z) = f'(z) - B_n(z) I_mu(z), so the gap is |B_n(z) I_mu(z)| and
    f' never needs evaluating.  Random trials draw unit densities, stacked
    as columns of one weighted integral; `random_max` records the worst
    case per probe.  `extremal_value` is the gap of the member attaining
    the bound at probe z, B_n(w) (w - z)/(1 - w conj(z)): its boundary
    trace at probe z pairs only with that probe's row of weights, one
    row-wise sum.  All of it shares one set of weights and one evaluation
    of B_n on the densities' grid.  Since that member attains the bound
    exactly, its gap is the quadrature error of the shared grid; past 1e-7
    the grid is too coarse and NoConvergence is raised.
    """
    zs = interior_probes(probes)
    res = grid_n or default_resolution(order)
    rng = np.random.default_rng(seed)
    bz = eval_blaschke(sequence, order, zs).value
    bounds = np.abs(bz) / (1.0 - np.abs(zs) ** 2)
    densities = _unit_densities(rng, res, trials)
    w, cbt = _cauchy_weights(sequence, order, res, zs)
    integrals = w @ (densities * cbt[:, None]) / res
    random_max = np.abs(bz[:, None] * integrals).max(axis=1, initial=0.0)
    t = np.exp(2j * np.pi * np.arange(res) / res)
    traces = np.conj(cbt) * (t - zs[:, None]) / (1.0 - t * np.conj(zs)[:, None])
    at_own_probe = (w * cbt * traces).sum(axis=1) / res
    extremal = np.abs(bz * at_own_probe)
    gap = float(np.abs(extremal - bounds).max())
    if gap > _EXTREMAL_TOL:
        raise NoConvergence(
            f"extremal value misses the bound by {gap:.2e} on a {res}-point grid "
            f"at order {order}; a finer grid_n is needed"
        )
    return [
        VoronovskayaSample(
            order=order,
            z=complex(z),
            bound=float(bounds[i]),
            random_max=float(random_max[i]),
            extremal_value=float(extremal[i]),
        )
        for i, z in enumerate(zs)
    ]


@dataclass(frozen=True)
class SaturationRow:
    order: int
    label: str
    error_sup: float
    lower_bound: float
    ratio: float

    def to_row(self) -> dict:
        return {
            "order": self.order,
            "label": self.label,
            "error_sup": self.error_sup,
            "lower_bound": self.lower_bound,
            "ratio": None if np.isnan(self.ratio) else self.ratio,
        }


def saturation_check(sequence: PointSequence, order: int, members=None) -> list[SaturationRow]:
    """Uniform error of sigma_positive against the interpolation-node floor.

    The floor is (1/n) max_j (1 - |a_j|^2) |f'(a_j)| over the poles in
    play.  Grid-backed Cauchy members are skipped: their boundary trace is
    not available for the sup.  Ratio is error over floor (nan when the
    floor vanishes, e.g. for constants; None in the report row).
    """
    if members is None:
        members = standard_corpus()
    basis = TMBasis(sequence, order)
    pts = sequence.as_array()[:order]
    diag = diagnose_sequence(sequence, order)
    rows = []
    for f in members:
        if f.kind == "cauchy_transform":
            continue
        coeffs = coefficients_of(f, basis)
        ev = _boundary_error(f, basis, coeffs)
        _, err_sup = refined_maximum(ev, candidates=(diag.argmin_angle,))
        fp = np.abs(np.asarray(f.derivative(pts), dtype=np.complex128))
        lower = float(((1.0 - np.abs(pts) ** 2) * fp).max() / order)
        ratio = float(err_sup) / lower if lower > 1e-300 else float("nan")
        rows.append(
            SaturationRow(
                order=order,
                label=f.label,
                error_sup=float(err_sup),
                lower_bound=lower,
                ratio=ratio,
            )
        )
    return rows


@dataclass(frozen=True)
class CounterexampleRow:
    order: int
    excess: float
    closed_form: float
    rusak_sup: float

    def to_row(self) -> dict:
        return {
            "order": self.order,
            "excess": self.excess,
            "closed_form": self.closed_form,
            "gap": self.excess - self.closed_form,
            "rusak_sup": self.rusak_sup,
        }


def cesaro_counterexample(
    values,
    orders,
    grid_n: int | None = None,
    probes: int = 256,
) -> list[CounterexampleRow]:
    """Cesaro means of the constant against the positive method, per order.

    For a real sequence 0 <= a_k < 1 the uniform distance between the
    constant one and its Cesaro mean is (1/n) sum_{k<=n} (a_1 ... a_k),
    attained at the angle pi; `excess` reports one plus the refined sup so
    it reads as an operator-norm lower bound, always above one.  The
    kernel method stays at sup one on the same data (`rusak_sup`), sampled
    on `grid_n` points (default_resolution(n) when None).
    """
    arr = np.asarray(values, dtype=np.complex128)
    if arr.size and (np.abs(arr.imag).max() > 0 or arr.real.min() < 0 or arr.real.max() >= 1):
        raise ValueError("counterexample sequences are real with 0 <= a < 1")
    sequence = PointSequence(tuple(float(v.real) for v in arr))
    e0 = constant_one()
    rows = []
    for n in orders:
        n = int(n)
        basis = TMBasis(sequence, n)
        coeffs = coefficients_of(e0, basis)

        def ev(theta):
            t = np.exp(1j * np.asarray(theta, dtype=np.float64))
            return np.abs(1.0 - np.asarray(cesaro_mean(coeffs, basis, t)))

        _, sup = refined_maximum(ev, candidates=(np.pi,))
        closed = 1.0 + float(np.cumprod(arr.real[:n]).sum()) / n
        grid = BoundaryGridFunction.from_callable(
            e0.value, grid_n or default_resolution(n)
        )
        tp = np.exp(2j * np.pi * np.arange(probes) / probes)
        rsup = float(np.abs(np.asarray(sigma_rusak(grid, basis, tp))).max())
        rows.append(
            CounterexampleRow(
                order=n,
                excess=1.0 + float(sup),
                closed_form=closed,
                rusak_sup=rsup,
            )
        )
    return rows
