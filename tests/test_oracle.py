"""B_n, B_n', phi_k and phi_k' against the product formula in 50-digit arithmetic.

The oracle multiplies the factors (z - a_j)/(1 - z conj(a_j)) directly and
differentiates the product by the product rule, in mpmath at 50 digits;
it shares no code with the first-order recursion under test.  The refined
Frostman minimum is checked against a root of the derivative of the
Frostman sum, found at 40 digits.
"""

import mpmath
import numpy as np
import pytest

from conftest import BRACKET, MIXED
from tmfejer.analysis import diagnose_sequence
from tmfejer.blaschke import PointSequence, eval_blaschke
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


@pytest.mark.parametrize("order", [3, 8])
@pytest.mark.parametrize("poles", [MIXED, BRACKET], ids=["mixed", "bracket"])
def test_refined_frostman_minimum(poles, order):
    # The minimum value is fixed to rounding; its angle only to about
    # sqrt(eps), since the minimum is quadratic.
    x, fmin = _frostman_minimum(poles[:order])
    diag = diagnose_sequence(PointSequence(poles), order)
    assert abs(diag.frostman_min - fmin) <= 1e-14 * fmin
    assert abs((diag.argmin_angle - x + np.pi) % (2.0 * np.pi) - np.pi) <= 1e-7
