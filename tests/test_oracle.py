"""B_n, B_n', phi_k and phi_k' against the product formula in 50-digit arithmetic.

The oracle multiplies the factors (z - a_j)/(1 - z conj(a_j)) directly and
differentiates the product by the product rule, in mpmath at 50 digits;
it shares no code with the first-order recursion under test.  The sums
S_n = sum_k c_k phi_k and S_n' that the recursion accumulates, and
S_n - (B_n/B_n') S_n' built from them, are checked against the same
oracle summed at 50 digits, and so is sigma_positive's FFT route on a
uniform grid, for a simple pole whose coefficients the Szego kernel
gives exactly; sigma_positive near a complex pole's angle against
f - (B_n/B_n')(f' - B_n g') at 60 digits from the Taylor series of f
and of B_n; delta, through the FFT and through Taylor coefficients where
the FFT declines, is checked against (B_n'/B_n)(f - S_n) + S_n' from the
same exact coefficients, and delta of a Cauchy transform against
f' - B_n g' from its density's seven coefficients.  The Frostman sum
is checked at 50 digits near the angle of poles that approach the
circle, and the refined Frostman minimum against a root of the
derivative of the Frostman sum, found at 40 digits.  The coefficients
of a simple pole are checked against the reproducing property of the
Szego kernel, and the Taylor coefficients of B_n against the series
division of its numerator by its denominator.  The angular kernel is
checked near its diagonal against |B_n(t) - B_n(z)|^2 / (|t - z|^2
|B_n'(z)|) from the product formula.
"""

import mpmath
import numpy as np
import pytest

from conftest import BRACKET, MIXED
from tmfejer.analysis import diagnose_sequence, interior_probes
from tmfejer.blaschke import PointSequence, _frostman_prefixes, _recurse, _taylor, eval_blaschke
from tmfejer.corpus import (
    _unit_densities,
    cauchy_transform,
    mobius,
    random_unit_density,
    simple_pole,
)
from tmfejer.operators import (
    _projected_derivative,
    _sigma_from_sums,
    _uniform_grid,
    coefficients_of,
    delta,
    fejer_kernel_angular,
    sigma_positive,
)
from tmfejer.quadrature import _SCAN, _scan_angles
from tmfejer.tm_basis import TMBasis, phi_jet, phi_values

INTERIOR = (0.0, 0.31 - 0.42j, -0.66 + 0.05j, 0.12j, 0.85 * np.exp(2.2j))
BOUNDARY = tuple(np.exp(1j * np.array([0.0, 0.9, 2.6, 4.4, 5.8])))

# name -> (poles, relative tolerance); 1e-14 for moduli <= 0.9.  The
# near-circle poles a_k = 1 - 2^-k lose eps / (1 - |a|) to conditioning.
CASES = {
    "mixed": (MIXED, 1e-14),
    "wide": ((0.9, -0.85j, 0.7 - 0.5j, -0.6 - 0.6j, 0.88 * np.exp(1j), 0.2), 1e-14),
    "repeated": ((0.3, 0.3), 1e-14),
    "geometric:0.5": (tuple(1.0 - 0.5 ** np.arange(1, 13)), 1e-11),
}


def _factors(poles, z):
    z = mpmath.mpc(z)
    a = [mpmath.mpc(p) for p in poles]
    u = [1 - z * mpmath.conj(p) for p in a]
    m = [(z - p) / up for p, up in zip(a, u)]
    dm = [(1 - abs(p) ** 2) / up**2 for p, up in zip(a, u)]
    return a, u, m, dm


def _product(m, dm, n):
    """B_n and B_n' at one point from the factors and the product rule."""
    b = mpmath.fprod(m[:n])
    db = mpmath.fsum(dm[j] * mpmath.fprod(m[:j] + m[j + 1 : n]) for j in range(n))
    return b, db


def oracle(poles, z):
    """(B_n, B_n', [phi_k], [phi_k']) at one point z for n = len(poles)."""
    a, u, m, dm = _factors(poles, z)
    n = len(a)
    vals, ders = [], []
    for k in range(n):
        s = mpmath.sqrt(1 - abs(a[k]) ** 2)
        bk, dbk = _product(m, dm, k)
        vals.append(s / u[k] * bk)
        ders.append(s * mpmath.conj(a[k]) / u[k] ** 2 * bk + s / u[k] * dbk)
    b, db = _product(m, dm, n)
    return b, db, vals, ders


def _reference(poles, z):
    """The oracle over an array of points at 50 digits, rounded to complex arrays."""
    with mpmath.workdps(50):
        cols = [oracle(poles, w) for w in z]
    b = np.asarray([complex(c[0]) for c in cols])
    db = np.asarray([complex(c[1]) for c in cols])
    vals = np.asarray([[complex(v) for v in c[2]] for c in cols]).T
    ders = np.asarray([[complex(v) for v in c[3]] for c in cols]).T
    return b, db, vals, ders


def _points(poles):
    # Interior points, boundary points and the exact nodes, repeated ones once.
    nodes = tuple(dict.fromkeys(complex(p) for p in poles))
    return np.asarray(INTERIOR + BOUNDARY + nodes, dtype=np.complex128)


def _assert_close(got, exact, tol):
    # Pointwise relative error; where the exact value vanishes (B_n at a
    # node, B_n' at a double node) the recursion must return zero exactly.
    assert (np.abs(got - exact) <= tol * np.abs(exact)).all()


@pytest.mark.parametrize("name", CASES)
def test_blaschke_matches_product_formula(name):
    poles, tol = CASES[name]
    z = _points(poles)
    b, db, _, _ = _reference(poles, z)
    be = eval_blaschke(PointSequence(poles), len(poles), z)
    _assert_close(be.value, b, tol)
    _assert_close(be.derivative, db, tol)


@pytest.mark.parametrize("name", CASES)
def test_basis_rows_match_product_formula(name):
    poles, tol = CASES[name]
    basis = TMBasis(PointSequence(poles), len(poles))
    z = _points(poles)
    b, db, vals, ders = _reference(poles, z)
    got_vals, got_ders, got_b, got_db = phi_jet(basis, z)
    _assert_close(got_vals, vals, tol)
    _assert_close(got_ders, ders, tol)
    _assert_close(got_b, b, tol)
    _assert_close(got_db, db, tol)
    assert np.array_equal(phi_values(basis, z), got_vals)


def _sums_reference(poles, z, c):
    """S_n, S_n' and S_n - (B_n/B_n') S_n' at each point z, at 50 digits.

    The ratio B_n/B_n' is taken as 0 where B_n vanishes, a simple or a
    repeated node alike, the limit sigma_positive takes there.
    """
    with mpmath.workdps(50):
        ck = [mpmath.mpc(x) for x in c]
        out = []
        for w in z:
            b, db, vals, ders = oracle(poles, w)
            s = mpmath.fsum(x * v for x, v in zip(ck, vals))
            sp = mpmath.fsum(x * d for x, d in zip(ck, ders))
            ratio = 0 if b == 0 else b / db
            out.append((s, sp, s - ratio * sp, ratio))
    return [np.asarray([complex(o[i]) for o in out]) for i in range(4)]


@pytest.mark.parametrize("name", CASES)
def test_streamed_sums_match_product_formula(name):
    # Relative to sum_k |c_k phi_k| and sum_k |c_k phi_k'|, the scales of
    # the summation's rounding; sigma_positive adds |B_n/B_n'| times the
    # second.
    poles, tol = CASES[name]
    n = len(poles)
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = _points(poles)
    s, sp, sigma, ratio = _sums_reference(poles, z, c)
    _, _, vals, ders = _reference(poles, z)
    scale = np.abs(c) @ np.abs(vals)
    dscale = np.abs(c) @ np.abs(ders)
    sums = _recurse(PointSequence(poles), n, z, c=c)
    got_s, got_sp = sums[2:]
    assert (np.abs(got_s - s) <= tol * scale).all()
    assert (np.abs(got_sp - sp) <= tol * dscale).all()
    got = _sigma_from_sums(*sums)
    assert (np.abs(got - sigma) <= tol * (scale + np.abs(ratio) * dscale)).all()


def _frostman_minimum(poles):
    """(argmin, min) of sum_j (1 - |a_j|^2) / |e^{ix} - a_j|^2 at 40 digits.

    A 256-angle scan brackets the minimum; the bracketing solver then finds
    the root of the derivative between the scan argmin's neighbours.
    """
    with mpmath.workdps(40):
        a = [mpmath.mpc(p) for p in poles]

        def dist(x, p):
            return 1 + abs(p) ** 2 - 2 * (p.real * mpmath.cos(x) + p.imag * mpmath.sin(x))

        def frostman(x):
            return mpmath.fsum((1 - abs(p) ** 2) / dist(x, p) for p in a)

        def slope(x):
            return mpmath.fsum(
                -(1 - abs(p) ** 2) * 2 * (p.real * mpmath.sin(x) - p.imag * mpmath.cos(x))
                / dist(x, p) ** 2
                for p in a
            )

        step = 2 * mpmath.pi / 256
        i = min(range(256), key=lambda k: frostman(k * step))
        x = mpmath.findroot(slope, ((i - 1) * step, (i + 1) * step), solver="anderson")
        return float(x), float(frostman(x))


def _frostman_sum(poles, x):
    """sum_j (1 - |a_j|^2) / |1 - e^{-ix} a_j|^2 at 50 digits, at the double x."""
    with mpmath.workdps(50):
        t = mpmath.expj(mpmath.mpf(float(x)))
        a = [mpmath.mpc(p) for p in poles]
        return float(mpmath.fsum((1 - abs(p) ** 2) / abs(1 - mpmath.conj(t) * p) ** 2 for p in a))


@pytest.mark.parametrize(
    "rotation, tol", [(0.0, 1e-15), (0.3, 1e-12), (1.0, 1e-12), (2.5, 1e-12)]
)
def test_frostman_sum_near_the_pole_angle(rotation, tol):
    # geometric:0.5 rotated by e^{i rotation} puts every pole on one angle:
    # the scan angles within 3 steps of it, and three far ones.  On real
    # poles sin((x - theta) / 2) is sin(x / 2) itself.
    poles = (1.0 - 0.5 ** np.arange(1, 17)) * np.exp(1j * rotation)
    near = round(rotation / (2.0 * np.pi) * _SCAN) + np.arange(-3, 4)
    ang = _scan_angles()[np.append(near, near[3] + [1000, 3000, 4096]) % _SCAN]
    rows = _frostman_prefixes(PointSequence(tuple(poles)), [8, 12, 16], ang)
    for row, n in zip(rows, (8, 12, 16)):
        want = np.array([_frostman_sum(poles[:n], x) for x in ang])
        assert (np.abs(row - want) <= tol * want).all(), n


@pytest.mark.parametrize("order", [3, 8])
@pytest.mark.parametrize("poles", [MIXED, BRACKET], ids=["mixed", "bracket"])
def test_refined_frostman_minimum(poles, order):
    # The minimum value is fixed to rounding; its angle only to about
    # sqrt(eps), since the minimum is quadratic.
    x, fmin = _frostman_minimum(poles[:order])
    diag = diagnose_sequence(PointSequence(poles), order)
    assert abs(diag.frostman_min - fmin) <= 1e-14 * fmin
    assert abs((diag.argmin_angle - x + np.pi) % (2.0 * np.pi) - np.pi) <= 1e-7


def test_simple_pole_coefficients_near_the_circle():
    # 1/(p - z) is k_w / p for the Szego kernel k_w(z) = 1/(1 - conj(w) z)
    # at w = 1/conj(p), so <1/(p - z), phi_k> = conj(phi_k(w)) / p.  With
    # a_k = 1 - 2^-k the unit-circle rule needs far more than 2^18 points.
    poles = CASES["geometric:0.5"][0]
    p = 1.6
    got = coefficients_of(simple_pole(p), TMBasis(PointSequence(poles), len(poles)))
    with mpmath.workdps(50):
        _, _, vals, _ = oracle(poles, 1 / mpmath.mpf(p))
        want = np.asarray([complex(mpmath.conj(v) / p) for v in vals])
    n = len(poles)
    assert np.array_equal(got[: n - 1], np.zeros(n - 1))
    _assert_close(got[n - 1 :], want, 1e-13)


def test_sigma_on_a_uniform_grid_matches_product_formula():
    # The grid route of sigma_positive, which sums g' by an inverse FFT on
    # the grid and never reads the coefficients, against S_n - (B_n/B_n') S_n' summed at 50
    # digits from the exact coefficients of 1/(p - z), as in the test above.
    # Sixteen poles, |a| <= 0.5.
    poles = MIXED + tuple(np.exp(0.5j) * np.asarray(MIXED))
    n, p = len(poles), 2.5 + 0.5j
    basis = TMBasis(PointSequence(poles), n)
    z = np.exp(2j * np.pi * (np.arange(256) + 0.3) / 256)
    assert _uniform_grid(basis.sequence, n, z) is not None
    with mpmath.workdps(50):
        _, _, vals, _ = oracle(poles, 1 / mpmath.conj(mpmath.mpc(p)))
        c = [complex(mpmath.conj(v) / p) for v in vals]
    _, _, sigma, _ = _sums_reference(poles, z, c)
    _assert_close(sigma_positive(simple_pole(p), basis, z), sigma, 1e-14)


def test_sigma_near_a_pole_angle_matches_the_projection():
    # sigma_positive = f - (B_n/B_n')(f' - B_n g') at 60 digits: B_n and
    # B_n' from the product formula, g_k = sum_{m>=k} f_m conj(b_{m-k})
    # from 220 Taylor coefficients of f and of B_n, which leave out less
    # than 1.6^-220.  Poles (1 - 2^-k) e^{0.3i}, k = 1..30, at angles as
    # near theirs as 1e-9, where S_n - (B_n/B_n') S_n' cancels.
    n, terms = 30, 220
    poles = tuple((1.0 - 0.5 ** np.arange(1, n + 1)) * np.exp(0.3j))
    x = np.array([0.3, 0.3 + 1e-9, 0.3 + 1e-6, 0.3 + 1e-3, 1.5, 3.0, 5.0])
    z = np.exp(1j * x)
    basis = TMBasis(PointSequence(poles), n)
    with mpmath.workdps(60):
        c, p = mpmath.mpf(0.3), mpmath.mpf(1.6)
        members = (
            (
                mobius(0.3),
                lambda w: (w - c) / (1 - c * w),
                lambda w: (1 - c**2) / (1 - c * w) ** 2,
                [-c] + [(1 - c**2) * c ** (m - 1) for m in range(1, terms)],
            ),
            (
                simple_pole(1.6),
                lambda w: 1 / (p - w),
                lambda w: 1 / (p - w) ** 2,
                [p ** -(m + 1) for m in range(terms)],
            ),
        )
        b = _series_taylor(poles, terms)
        for f, value, slope, fm in members:
            gk = [
                mpmath.fsum(fm[m] * mpmath.conj(b[m - k]) for m in range(k, terms))
                for k in range(terms)
            ]
            want = []
            for w in z:
                a, _, m, dm = _factors(poles, w)
                bw, dbw = _product(m, dm, n)
                w = mpmath.mpc(w)
                dg = mpmath.polyval([k * gk[k] for k in range(terms - 1, 0, -1)], w)
                want.append(complex(value(w) - bw / dbw * (slope(w) - bw * dg)))
            got = sigma_positive(f, basis, z)
            assert np.abs(got - np.array(want)).max() <= 1e-14, f.label


def _delta_reference(poles, z, members):
    """delta of each simple pole r / (p - z) in `members` at each point z, at 50 digits.

    The coefficients c_k = (r / p) conj(phi_k(1 / conj(p))) of the Szego
    kernel stay at 50 digits, so f - S_n, which cancels to O(B_n), keeps
    its digits; delta = (B_n'/B_n)(f - S_n) + S_n' away from the nodes.
    """
    with mpmath.workdps(50):
        coeffs = []
        for p, r in members:
            pm = mpmath.mpc(p)
            _, _, vals, _ = oracle(poles, 1 / mpmath.conj(pm))
            coeffs.append([mpmath.mpc(r) / pm * mpmath.conj(v) for v in vals])
        out = np.empty((len(members), len(z)), dtype=np.complex128)
        for j, w in enumerate(z):
            b, db, vals, ders = oracle(poles, w)
            w = mpmath.mpc(w)
            for i, ((p, r), c) in enumerate(zip(members, coeffs)):
                f = mpmath.mpc(r) / (mpmath.mpc(p) - w)
                s = mpmath.fsum(x * v for x, v in zip(c, vals))
                sp = mpmath.fsum(x * d for x, d in zip(c, ders))
                out[i, j] = complex(db / b * (f - s) + sp)
    return out


@pytest.mark.parametrize("modulus", [0.7, 0.9])
@pytest.mark.parametrize("order", [1, 2, 8, 16, 32])
def test_delta_through_the_projection_matches_product_formula(order, modulus):
    # delta's FFT route, f' - B_n g' with g = P_+(conj(B_n) f), reads f on
    # a grid of its own and never the coefficients, at every order.
    rng = np.random.default_rng(order)
    radii = modulus * np.sqrt(rng.uniform(size=order))
    poles = tuple(radii * np.exp(2j * np.pi * rng.uniform(size=order)))
    seq = PointSequence(poles)
    basis = TMBasis(seq, order)
    z = np.asarray(INTERIOR + (0.95 * np.exp(0.7j),), dtype=np.complex128)
    members = ((1.6, 1.0), (-1.25j, 0.5))
    want = _delta_reference(poles, z, members)
    for (p, r), exact in zip(members, want):
        f = simple_pole(p, residue=r)
        assert _projected_derivative(f, seq, order) is not None
        _assert_close(delta(f, basis, z), exact, 1e-14)


@pytest.mark.parametrize("order", [12, 16])
@pytest.mark.parametrize("rotation", [1.0, np.exp(1j)], ids=["real", "rotated"])
def test_delta_through_the_contour_matches_product_formula(rotation, order):
    # Poles 1 - 2^-k need more than 1024 power sums of B_n, so the FFT
    # declines and f' and g' come from one FFT each on the contour
    # |t| = R, here at points as near the circle as 0.999.
    poles = tuple(rotation * (1.0 - 0.5 ** np.arange(1, order + 1)))
    seq = PointSequence(poles)
    basis = TMBasis(seq, order)
    z = np.asarray(INTERIOR + (0.999, 0.99 * np.exp(2.5j)), dtype=np.complex128)
    members = ((1.6, 1.0), (-1.25j, 0.5))
    want = _delta_reference(poles, z, members)
    for (p, r), exact in zip(members, want):
        f = simple_pole(p, residue=r)
        assert _projected_derivative(f, seq, order) is None
        _assert_close(delta(f, basis, z), exact, 1e-14)



def _times_linear(coeffs, c0, c1):
    """Ascending coefficients of the polynomial `coeffs` times c0 + c1 z."""
    return [c0 * x + c1 * y for x, y in zip(coeffs + [0], [0] + coeffs)]


def _series_taylor(poles, terms):
    """b_0 .. b_{terms-1} of B_n at 50 digits: the power series of
    prod(z - a_k) / prod(1 - conj(a_k) z), divided out term by term."""
    num, den = [mpmath.mpc(1)], [mpmath.mpc(1)]
    for p in poles:
        a = mpmath.mpc(p)
        num = _times_linear(num, -a, 1)
        den = _times_linear(den, 1, -mpmath.conj(a))
    num += [mpmath.mpc(0)] * terms
    exact = []
    for k in range(terms):
        exact.append(num[k] - mpmath.fsum(den[j] * exact[k - j] for j in range(1, min(k, len(den) - 1) + 1)))
    return exact


@pytest.mark.parametrize("rotation", [1.0, np.exp(0.3j)], ids=["real", "rotated"])
def test_taylor_coefficients_match_series_division(rotation):
    # b_0..b_6 of B_12 and b_0..b_63 of B_16 for poles 1 - 2^-k against the
    # series division at 50 digits; |b_k| <= 1 since B_n is bounded by one
    # on the disc.
    for terms, n in ((7, 12), (64, 16)):
        poles = tuple(rotation * (1.0 - 0.5 ** np.arange(1, n + 1)))
        with mpmath.workdps(50):
            exact = np.array([complex(b) for b in _series_taylor(poles, terms)])
        got = _taylor(PointSequence(poles), n, terms)
        assert np.abs(got - exact).max() <= 1e-15
        assert (np.abs(exact) <= 1.0).all()


@pytest.mark.parametrize("order", [8, 10, 12, 16])
@pytest.mark.parametrize("rotation", [1.0, np.exp(0.3j)], ids=["real", "rotated"])
def test_delta_of_a_cauchy_transform_matches_seven_coefficients(rotation, order):
    # K(mu) for a degree-6 unit density is the polynomial sum_{m<=6} mu_m z^m,
    # so g = P_+(conj(B_n) mu) has g_k = sum_{m>=k} mu_m conj(b_{m-k}) and
    # delta = f' - B_n g', all at 50 digits from the product formula and
    # the series division.  Poles 1 - 2^-k; the error is relative to the
    # largest |delta| over the probes.
    poles = tuple(rotation * (1.0 - 0.5 ** np.arange(1, order + 1)))
    f = cauchy_transform(random_unit_density(np.random.default_rng(2026)))
    (g,), (peak,) = _unit_densities(np.random.default_rng(2026), 1)
    z = interior_probes(16)
    with mpmath.workdps(50):
        mu = [mpmath.mpc(complex(c)) / mpmath.mpf(float(peak)) for c in g[6:]]
        b = _series_taylor(poles, 7)
        gk = [mpmath.fsum(mu[m] * mpmath.conj(b[m - k]) for m in range(k, 7)) for k in range(7)]
        want = []
        for w in z:
            bw, _, _, _ = oracle(poles, w)
            w = mpmath.mpc(w)
            df = mpmath.fsum(m * mu[m] * w ** (m - 1) for m in range(1, 7))
            dg = mpmath.fsum(k * gk[k] * w ** (k - 1) for k in range(1, 7))
            want.append(complex(df - bw * dg))
    want = np.array(want)
    got = delta(f, TMBasis(PointSequence(poles), order), z)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_angular_kernel_near_its_diagonal():
    # F_n = |B_n(t) - B_n(z)|^2 / (|t - z|^2 |B_n'(z)|) at t = e^{iy},
    # z = e^{ix}, and |B_n'(z)| at y = x, at 50 digits from the product
    # formula; the subtraction costs the oracle at most 9 of its digits.
    # Three cases in one test: 64 random poles |a| <= 0.9 at x = 0.77, and
    # the poles 1 - 2^-k, k = 1..30, at x = 0.77 and 3.0.
    rng = np.random.default_rng(64)
    spread = tuple(0.9 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64)))
    near = tuple(1.0 - 0.5 ** np.arange(1, 31))
    for poles, x in ((spread, 0.77), (near, 0.77), (near, 3.0)):
        y = x + np.array([0.0, 5e-9, 2e-8, 1e-7, 1e-3, 0.5, 3.0])
        want = []
        with mpmath.workdps(50):
            z = mpmath.expj(mpmath.mpf(x))
            a, _, m, dm = _factors(poles, z)
            bz, dbz = _product(m, dm, len(a))
            for v in y:
                t = mpmath.expj(mpmath.mpf(v))
                if t == z:
                    want.append(float(abs(dbz)))
                    continue
                _, _, mt, _ = _factors(poles, t)
                diff = mpmath.fprod(mt) - bz
                want.append(float(abs(diff) ** 2 / (abs(t - z) ** 2 * abs(dbz))))
        got = fejer_kernel_angular(TMBasis(PointSequence(poles), len(poles)), x, y)
        _assert_close(got, np.array(want), 1e-13)
