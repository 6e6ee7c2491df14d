"""Experiment drivers: diagnostics, convergence, first-order error, saturation.

Each driver returns a list of frozen row objects with a `to_row` method
producing flat dictionaries (complex values split into re/im), which is
what the command line layer serializes.

The TM system is nested, phi_k depending on a_0..a_k alone, so neither
phi_k nor the coefficient c_k = <f, phi_k> depends on the order.
`cesaro_counterexample` computes one coefficient vector and gives order
n its slice.  It, `convergence_experiment` and `_diagnose_orders` (the
`frostman` report) evaluate up to _ORDERS_PER_PASS orders in one pass
over the poles and refine every extremum of the pass in one search,
each set of angles taking one running Frostman sum and at most one
recursion that snapshots every order's B_n or sums.  Each row equals
the one-order call on the same sequence bit for bit.  For real poles
B_n(conj z) = conj(B_n(z)), so the counterexample and each `frostman` row
on real poles scan the even gap or |B_n'| on [0, pi] alone.
`voronovskaya_experiment` and `saturation_check` take one order per call.

The uniform error ||f - sigma_positive(f)||_C has one route: the error
map |f' - B_n g'| / |B_n'| of `_boundary_errors`, with no coefficients
c_k, |B_n'| the Frostman sum of the same search, whose scan argmin seeds
the error's sup.  `saturation_check` runs one such search per order for
all its members, so its error_sup equals convergence_experiment's.  It
needs only the minimizer, so the drift check on the mean of |B_n'|, a
column it does not report, does not stop it on poles near the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tmfejer.blaschke import PointSequence, _check_order, _frostman_prefixes, _recurse
from tmfejer.corpus import _DEGREE, _unit_densities, standard_corpus
from tmfejer.operators import (
    AnalyticTestFunction,
    _delta_at,
    _projected_taylor,
    _projections,
    _sigma_from_sums,
)
from tmfejer.quadrature import _HALF, _SCAN, NoConvergence, _grid, _refined_minima, _scan_angles
from tmfejer.tm_basis import TMBasis, phi_values

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

# Most orders that one pass over the poles carries: each adds (F, M)
# buffers to the recursion and the scans, so this caps their memory.
_ORDERS_PER_PASS = 8
# Largest |derivative_l1 - n| that diagnose_sequence accepts (C10's tolerance).
_L1_TOL = 1e-10
# Largest |rusak_sup - 1| that cesaro_counterexample accepts: the sup is exactly one.
_RUSAK_TOL = 1e-9


def interior_probes(count: int) -> np.ndarray:
    """Deterministic interior points: golden-angle spirals on the radii 0.3, 0.55, 0.75, 0.88."""
    if count < 1:
        raise ValueError("need at least one probe")
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    ks = np.arange(count)
    angles = 2.0 * np.pi * ((ks * golden) % 1.0)
    r = np.array([0.3, 0.55, 0.75, 0.88])[ks % 4]
    return r * np.exp(1j * angles)


def _by_pass(orders, run) -> list:
    """One row per entry of `orders`, in the order given.

    `run` maps a list of strictly increasing orders, at most
    _ORDERS_PER_PASS of them, to their rows in one pass over the poles;
    the distinct orders go through it in increasing runs.
    """
    distinct = sorted(set(orders))
    rows = {}
    for i in range(0, len(distinct), _ORDERS_PER_PASS):
        part = distinct[i : i + _ORDERS_PER_PASS]
        rows.update(zip(part, run(part)))
    return [rows[n] for n in orders]


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
        return dict(vars(self))


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
    near the circle, NoConvergence is raised.  When a_0..a_{n-1} are real
    |B_n'| is even, so the scan covers [0, pi], `argmin_angle` lies there
    and the mean is the half-range rule, equal to the full scan's mean.
    """
    return _diagnose_orders(sequence, [order])[0]


def _diagnose_orders(sequence: PointSequence, orders) -> list[SequenceDiagnostics]:
    """diagnose_sequence at every order, each row equal to its one-order call.

    Each pass takes the scans of all its orders from one running sum
    over the per-pole Frostman terms and zooms in on all their minima at
    once (`_boundary_errors` with no members).  Raises for the first
    order, in increasing order, that diagnose_sequence would refuse.
    """
    return _by_pass(orders, lambda p: _diagnose_pass(sequence, p)[0])


def _diagnose_pass(sequence: PointSequence, orders: list, fs=()):
    """The rows of at most _ORDERS_PER_PASS increasing orders, and the
    `_boundary_errors` search of the members fs that they were read from."""
    for n in orders:
        drift = _l1_drift(sequence, n)
        if abs(drift) > _L1_TOL:
            raise NoConvergence(
                f"the {_SCAN}-angle mean of |B_n'| misses order {n} by {drift:.2e}; "
                f"poles too close to the circle"
            )
    x, fmin, vals = search = _boundary_errors(fs, sequence, orders)
    rows = []
    for j, n in enumerate(orders):
        moduli = np.abs(sequence.as_array()[:n])
        rows.append(
            SequenceDiagnostics(
                order=n,
                blaschke_sum=float((1.0 - moduli).sum()),
                frostman_min=float(fmin[j]),
                argmin_angle=float(x[j]),
                sup_inverse=1.0 / float(fmin[j]),
                derivative_l1=float(vals[j].mean()),
                product_modulus=float(np.prod(moduli)),
            )
        )
    return rows, search


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
        return dict(vars(self))


def convergence_experiment(
    f: AnalyticTestFunction, sequence: PointSequence, orders
) -> list[ConvergenceRow]:
    """Norms of f - sigma_positive(f) on the circle against the 1/B_n' brackets.

    The sup error is a refined maximum that always probes the Frostman
    minimizer, where the weight 1/|B_n'| peaks.  Bracket columns hold
    2 * ||1/B_n'|| above and prod |a_k|^2 * ||1/B_n'|| below in the matching
    norm; the two-sided enclosure is the identity-map statement and needs
    prod |a_k|^2 <= 1 - prod |a_k| for the lower half.  The L^1 and L^2
    columns are means over the 8192-angle scan of the one search for the
    error's sup and the Frostman minimum, a trapezoid rule that converges
    geometrically on these rational integrands; no grid setting reaches
    them.  Poles past the largest order cost nothing.  The orders share
    passes over the poles; each row equals the one-order call bit for bit.
    """
    orders = [int(n) for n in orders]
    return _by_pass(orders, lambda part: _convergence_pass(f, sequence, part))


def _boundary_errors(fs, sequence, orders: list):
    """One refined search over |B_n'| and, for each member of fs, the
    negated |f - sigma_positive(f)| on the circle at the orders of one pass.

    Rows j < F hold |B_n'| at orders[j], then F rows per member its error
    |B_n/B_n'| |f' - B_n g'| as in delta, read as |f' - B_n g'| / |B_n'|
    (|B_n| = 1): each set of angles takes one `_frostman_prefixes` and one
    recursion without derivatives that snapshots every order's B_n.  Every
    row also zooms in on its order's Frostman scan argmin, where 1/|B_n'|
    peaks.  Returns `_refined_minima`'s angles, values and scan.
    """
    projections = [_projections(f, sequence, orders) for f in fs]

    def rows(theta):
        fr = _frostman_prefixes(sequence, orders, theta)
        if not fs:
            return fr
        t = np.exp(1j * theta)
        b = _recurse(sequence, orders[-1], t, jet=False, orders=orders)[0]
        out = np.tile(fr, (len(fs) + 1, 1))
        d = (_delta_at(f, *kfg, t, bj) for f, p in zip(fs, projections) for kfg, bj in zip(p, b))
        for row, dj in zip(out[len(orders) :], d):
            np.divide(np.abs(dj), -row, out=row)
        return out

    # With real poles |B_n'| is even in the angle: such a row reads [0, pi]
    # and mirrors it, which keeps its argmin there and makes its mean the
    # half-range rule.  The pass scans the half circle when every row does.
    real = [j for j, n in enumerate(orders) if not (fs or sequence.as_array()[:n].imag.any())]
    if len(real) == len(orders):
        scan = rows(_scan_angles()[:_HALF])
        scan = np.concatenate((scan, scan[:, _HALF - 2 : 0 : -1]), axis=1)
    else:
        scan = rows(_scan_angles())
        scan[real, _HALF:] = scan[real, _HALF - 2 : 0 : -1]
    seeds = _scan_angles()[scan[: len(orders)].argmin(axis=1)]
    cands = np.tile(seeds, len(fs) + 1)[:, None] if fs else np.empty((len(orders), 0))
    return _refined_minima(rows, cands, scan)


def _convergence_pass(f, sequence, orders: list) -> list[ConvergenceRow]:
    """The rows of one pass."""
    diags, (_, v, scan) = _diagnose_pass(sequence, orders, [f])
    err, sups, inv = -scan[len(orders) :], -v[len(orders) :], 1.0 / scan[: len(orders)]
    rows = []
    for j, (n, diag) in enumerate(zip(orders, diags)):
        inv_mean = float(inv[j].mean())
        pm2 = diag.product_modulus**2
        rows.append(
            ConvergenceRow(
                order=n,
                error_sup=float(sups[j]),
                error_l1=float(err[j].mean()),
                error_l2=float(np.sqrt((err[j] ** 2).mean())),
                upper_sup=2.0 * diag.sup_inverse,
                lower_sup=pm2 * diag.sup_inverse,
                upper_l1=2.0 * inv_mean,
                lower_l1=pm2 * inv_mean,
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
) -> list[VoronovskayaSample]:
    """First-order error |delta(f)(z) - f'(z)| against |B_n(z)|/(1 - |z|^2).

    For a Cauchy transform f = K(mu) delta(f) = f' - B_n g' with
    g = P_+(conj(B_n) mu), so the gap is |B_n(z) g'(z)| and f' is never
    evaluated.  conj(B_n) has only non-positive frequencies on the circle,
    so for mu = sum_{|m|<=6} mu_m t^m, g = sum_{k<=6} c_k z^k with
    c_k = sum_{m>=k} mu_m conj(b_{m-k}) from the Taylor coefficients b_j of
    B_n, by `_projected_taylor`: no grid.  Random trials draw unit
    densities, and `random_max` records the worst gap per probe.
    `extremal_value` is the gap of the
    member B_n m_z, m_z(w) = (w - z)/(1 - conj(z) w), which attains the
    bound: P_+(conj(B_n) B_n m_z) = m_z, so the gap is |B_n(z) m_z'(z)|.
    """
    return _voronovskaya_orders(sequence, [order], probes, trials, seed)


def _voronovskaya_orders(sequence, orders, probes, trials, seed) -> list[VoronovskayaSample]:
    """voronovskaya_experiment at every order, in the order given: the unit
    densities and their peak search are drawn once for all orders."""
    for n in orders:
        _check_order(sequence, n)
    zs = interior_probes(probes)
    g, peaks = _unit_densities(np.random.default_rng(seed), trials)
    mu = (g[:, _DEGREE:] / peaks[:, None]).T
    ms = np.arange(_DEGREE + 1)
    rows = []
    for n in orders:
        bz = _recurse(sequence, n, zs, jet=False)[0]
        bounds = np.abs(bz) / (1.0 - np.abs(zs) ** 2)
        dg = (ms[1:] * zs[:, None] ** ms[:-1]) @ _projected_taylor(mu, sequence, n)[1:]
        random_max = np.abs(bz[:, None] * dg).max(axis=1, initial=0.0)
        extremal = np.abs(bz * (1.0 - np.abs(zs) ** 2) / (1.0 - np.conj(zs) * zs) ** 2)
        rows += [
            VoronovskayaSample(
                order=n,
                z=complex(z),
                bound=float(bounds[i]),
                random_max=float(random_max[i]),
                extremal_value=float(extremal[i]),
            )
            for i, z in enumerate(zs)
        ]
    return rows


@dataclass(frozen=True)
class SaturationRow:
    order: int
    label: str
    error_sup: float
    lower_bound: float

    def to_row(self) -> dict:
        return dict(vars(self))


def saturation_check(sequence: PointSequence, order: int, members=None) -> list[SaturationRow]:
    """Uniform error of sigma_positive against the interpolation-node floor.

    The floor is (1/n) max_j (1 - |a_j|^2) |f'(a_j)| over the poles in
    play.  The sup is convergence_experiment's, one order at a time: the
    same error map, refined in one search for all members from the same
    scan and the Frostman minimizer; the constant's is 0 exactly (g' = 0).
    Cauchy members are skipped, so the report holds the rows of the ten
    closed-form members that the bundled saturation report fixes.  The
    saturation statement is error_sup >= lower_bound; the floor vanishes
    for constants, so the row carries both sides rather than their ratio.
    """
    if members is None:
        members = standard_corpus()
    pts = sequence.as_array()[:order]
    members = [f for f in members if f.kind != "cauchy_transform"]
    _, v, _ = _boundary_errors(members, sequence, [order])
    rows = []
    for f, err_sup in zip(members, -v[1:]):
        fp = np.abs(np.asarray(f.derivative(pts), dtype=np.complex128))
        lower = float(((1.0 - np.abs(pts) ** 2) * fp).max() / order)
        rows.append(
            SaturationRow(order=order, label=f.label, error_sup=float(err_sup), lower_bound=lower)
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


def cesaro_counterexample(values, orders) -> list[CounterexampleRow]:
    """Cesaro means of the constant against the positive method, per order.

    For a real sequence 0 <= a_k < 1 the uniform distance between the
    constant one and its Cesaro mean is (1/n) sum_{k<=n} (a_1 ... a_k),
    attained at the angle pi; `excess` reports one plus the refined sup so
    it reads as an operator-norm lower bound, always above one; the gap is
    even in the angle, so its scan covers [0, pi] alone.  The constant's
    negative coefficients are exactly zero, so its order-n
    Cesaro mean is S_n(c) - S_n(k c) / n with S_n(x) = sum_{k<n} x_k phi_k,
    and 1 - S_n(c) = conj(B_n(0)) B_n, the constant's part in B_n H^2: the
    gap takes one sum, S_n(k c), and B_n from the same pass.
    The kernel method stays at sup one on the same data: `rusak_sup` is
    the largest |sigma_rusak(1)| over 256 equally spaced points of the
    circle, 2 Re T(c) - 1 with the constant's coefficients c.  A sup that
    misses one by more than 1e-9 raises NoConvergence for the first such
    order.  Those coefficients are exact, c_k = <1, phi_k> = conj(phi_k(0)),
    from one pass of the recursion at 0 up to the largest order, so poles
    past it cost nothing; order n takes c_0, ..., c_{n-1}.  An order past
    the sequence raises ValueError.  The orders share passes over the
    poles; each row equals the one-order call.
    """
    arr = np.asarray(values, dtype=np.complex128)
    if arr.size and (np.abs(arr.imag).max() > 0 or arr.real.min() < 0 or arr.real.max() >= 1):
        raise ValueError("counterexample sequences are real with 0 <= a < 1")
    sequence = PointSequence(tuple(float(v.real) for v in arr))
    orders = [int(n) for n in orders]
    c = np.conj(phi_values(TMBasis(sequence, max(orders, default=1)), 0.0))
    return _by_pass(orders, lambda part: _counterexample_pass(arr.real, sequence, c, part))


def _counterexample_pass(a, sequence, c, orders: list) -> list[CounterexampleRow]:
    """The rows of one pass, from the constant's coefficients c_0, c_1, ...: the
    Cesaro gaps conj(B_n(0)) B_n + S_n(k c) / n, B_n(0) = prod(-a_k) real."""
    top = orders[-1]
    per_order = np.asarray(orders)[:, None]
    b0, kc = np.cumprod(-a[:top])[per_order - 1], np.arange(top) * c[:top]

    def negated_gaps(theta):
        """-|1 - Cesaro mean| at the flat angles theta, (F, M) with row j at orders[j]."""
        b, _, s, _ = _recurse(sequence, top, np.exp(1j * theta), c=kc, jet=False, orders=orders)
        b *= b0
        b += np.divide(s, per_order, out=s)
        return -np.abs(b)

    # The gaps are even in the angle (real poles), so the scan covers [0, pi].
    scan = negated_gaps(_scan_angles()[:_HALF])
    _, v, _ = _refined_minima(negated_gaps, np.full((len(orders), 1), np.pi), scan)
    # The constant is real, so d = c and sigma_rusak = 2 Re T(c) - f_0 with f_0 = 1.
    tp = _grid(256)[1]
    tc = _sigma_from_sums(*_recurse(sequence, top, tp, c=c[:top], orders=orders))
    rsup = np.abs(2.0 * tc.real - 1.0).max(axis=1)
    rows = [
        CounterexampleRow(
            order=n,
            excess=1.0 - float(v[j]),
            closed_form=1.0 + float(np.cumprod(a[:n]).sum()) / n,
            rusak_sup=float(rsup[j]),
        )
        for j, n in enumerate(orders)
    ]
    for r in rows:
        if abs(r.rusak_sup - 1.0) > _RUSAK_TOL:
            raise NoConvergence(
                f"kernel method's sup on the constant misses 1 by {abs(r.rusak_sup - 1.0):.2e} "
                f"at order {r.order}"
            )
    return rows
