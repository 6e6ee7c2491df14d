"""Summation operators: coefficients, kernels, sigma variants, delta.

Oracles: refined-grid quadrature for coefficients, the classical a == 0
closed forms, delta's two routes for g' against each other and against
closed forms, and hand-derived Moebius/Blaschke identities.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import BRACKET, MIXED, circle_grid, schur_corpus, zeros_sequence
from tmfejer import blaschke, operators, tm_basis
from tmfejer.analysis import interior_probes
from tmfejer.blaschke import (
    PointSequence,
    PoleProximity,
    _recurse,
    boundary_derivative_modulus,
    eval_blaschke,
)
from tmfejer.corpus import (
    blaschke_multiple,
    cauchy_transform,
    constant_one,
    identity_map,
    mobius,
    polynomial,
    random_unit_density,
    rational_corpus,
    simple_pole,
)
from tmfejer.operators import (
    CriticalPoint,
    NearBoundary,
    _delta_at,
    _horner,
    _projected_taylor,
    _sigma_from_sums,
    coefficients,
    coefficients_of,
    delta,
    fejer_kernel,
    fejer_kernel_angular,
    sigma_positive,
    sigma_rusak,
)
from tmfejer.quadrature import BoundaryGridFunction
from tmfejer.tm_basis import CIRCLE_TOL, ExtendedOffCircle, TMBasis, phi_jet, phi_values


def grid_of(f, resolution=4096):
    return BoundaryGridFunction.from_callable(f.value, resolution)


def _traced_peak(call):
    """The traced peak of memory, in bytes, of a second call of `call`."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _contour_projection(f, seq, n):
    """(k f_k, k g_k) for g = P_+(conj(B_n) f) from the contour rule: the
    projection with its FFT on the circle declined."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_projected_derivative", lambda *args: None)
        return operators._projections(f, seq, [n])[0]


def _contour_dg(f, seq, n, z):
    """g'(z) from the contour rule."""
    return _horner(_contour_projection(f, seq, n)[1], z)


def _contour_delta(f, seq, n, z, bz):
    """f'(z) - B_n(z) g'(z), bz = B_n(z), from the contour rule."""
    return _delta_at(f, *_contour_projection(f, seq, n), z, bz)


class TestCoefficients:
    def test_constant_coefficients_are_values_at_zero(self, seq_mixed):
        # <1, phi_k> = conj(phi_k(0)) because the mean of an H^2 function
        # over the circle is its value at the origin.
        basis = TMBasis(seq_mixed, 8)
        c = coefficients_of(constant_one(), basis)
        expected = np.conj(phi_values(basis, 0.0 + 0j))
        assert np.abs(c[7:] - expected).max() < 1e-12

    def test_refined_grid_agreement(self, seq_mixed):
        # The contour rule against the unit-circle rule on 2^16 points,
        # which for |a| <= 0.55 and a pole at 1.6 is exact to rounding.
        basis = TMBasis(seq_mixed, 8)
        f = simple_pole(1.6)
        fine = coefficients(grid_of(f, 1 << 16), basis)
        assert np.abs(coefficients_of(f, basis) - fine).max() < 1e-13

    def test_contour_doubles_past_aliasing(self):
        # With every a_k = 0 the first contour has 16 points, on which
        # phi_16 aliases onto the mean; only the check against the 8-point
        # sum sends the rule on to a grid that resolves all 40 rows.
        c = coefficients_of(constant_one(), TMBasis(zeros_sequence(40), 40))
        assert np.abs(c[39:] - np.eye(40)[0]).max() < 1e-15

    @pytest.mark.parametrize("degree", [15, 16, 32, 1000])
    def test_contour_sized_from_the_member_too(self, degree):
        # With four zero poles rho is 0 and the poles alone ask for 16
        # points, on which z^16 and z^32 alias onto the mean.  For B_4 = z^4
        # the positive coefficients of z^d, d >= 4, vanish, so
        # sigma_positive(z^d) = 0 and delta(z^d) = 4 z^(d - 1).  The growth
        # test evaluates z^1000 where it overflows, which must not warn:
        # the suite turns RuntimeWarning into an error.
        basis = TMBasis(zeros_sequence(4), 4)
        f = polynomial([0.0] * degree + [1.0])
        z = 0.3 + 0.1j
        try:
            c = coefficients_of(f, basis)
            sig = complex(sigma_positive(f, basis, z))
            got = complex(delta(f, basis, z))
        except operators.NoConvergence:
            return
        assert np.abs(c).max() <= 1e-12
        assert abs(sig) <= 1e-12
        assert abs(got - 4.0 * z ** (degree - 1)) <= 1e-12

    def test_contour_shrinks_where_the_member_overflows(self):
        # z^1100 overflows at |t| = 2, so the contour radius is taken to
        # its square root first; the suite's filter makes any overflow
        # warning an error.  For B_4 = z^4 every coefficient vanishes and
        # delta(z^1100) = 4 z^1099.  delta's Taylor coefficients carry
        # rounding of eps max|f| = 16 eps on the contour, which Horner's sum
        # raises by up to 1 / (1 - |z|)^2 = 1e4 at |z| = 0.99: 4e-11 here,
        # against |4 z^1099| = 6.4e-5.
        basis = TMBasis(zeros_sequence(4), 4)
        f = polynomial([0.0] * 1100 + [1.0])
        assert np.abs(coefficients_of(f, basis)).max() <= 1e-12
        z = 0.99 * np.exp(2j * np.pi * np.arange(8) / 8)
        assert np.abs(delta(f, basis, z) - 4.0 * z**1099).max() <= 1e-10

    def test_negative_coefficient_of_conjugate(self, seq_mixed):
        # Pins the layout, <f, phi_k> at index n - 1 + k.  For f(t) = conj(t)
        # the k = -m entry is the mean of phi_{m-1}, that is phi_{m-1}(0),
        # and every entry with k >= 0 vanishes.
        n = 5
        basis = TMBasis(seq_mixed, n)
        f = BoundaryGridFunction.from_callable(np.conj, 4096)
        c = coefficients(f, basis)
        at_zero = phi_values(basis, 0.0 + 0j)
        assert c.shape == (2 * n - 1,)
        assert np.abs(c[: n - 1] - at_zero[n - 2 :: -1]).max() < 1e-12
        assert np.abs(c[n - 1 :]).max() < 1e-12

    def test_cauchy_member_has_no_negative_part(self, seq_mixed):
        # mu(t) = 1 + conj(t) has Riesz projection 1, so K(mu) is the
        # constant and shares all 2n - 1 coefficients with it, although
        # mu itself has nonzero negative-index coefficients.
        basis = TMBasis(seq_mixed, 5)
        mu = BoundaryGridFunction.from_callable(lambda t: 1.0 + np.conj(t), 4096)
        got = coefficients_of(cauchy_transform(mu), basis)
        want = coefficients_of(constant_one(), basis)
        assert np.abs(got - want).max() < 1e-12

    def test_resolution_floor(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        with pytest.raises(ValueError):
            coefficients(BoundaryGridFunction.from_callable(lambda z: z, 64), basis)

    def test_bessel_inequality(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        f = BoundaryGridFunction.from_callable(
            lambda t: np.exp(t) / (2.0 - t), 4096
        )
        c = coefficients(f, basis)[7:]
        assert (np.abs(c) ** 2).sum() <= (np.abs(f.samples) ** 2).mean() + 1e-8

    def test_matches_per_index_means(self, seq_mixed):
        # Reference: the mean of f(t) conj(phi_k(t)) taken index by index.
        n = 6
        basis = TMBasis(seq_mixed, n)
        f = BoundaryGridFunction.from_callable(lambda t: np.exp(np.conj(t)) / (2.0 - t), 4096)
        t = f.points
        vals = phi_values(basis, t)
        rows = [np.conj(t * vals[m - 1]) for m in range(n - 1, 0, -1)] + list(vals)
        want = np.asarray([(f.samples * np.conj(r)).mean() for r in rows])
        assert np.abs(coefficients(f, basis) - want).max() < 1e-14

    def test_membership(self, seq_short):
        # Order n holds exactly the indices |k| < n: c_2 is the last entry
        # for n = 3, and the constant, an H^2 member, has c_{-1} = c_{-2} = 0.
        basis = TMBasis(seq_short, 3)
        c = coefficients_of(constant_one(), basis)
        assert c.shape == (5,)
        assert c[2 + 2] == pytest.approx(np.conj(phi_values(basis, 0.0 + 0j)[2]), abs=1e-12)
        assert np.abs(c[:2]).max() < 1e-12


class TestFejerKernel:
    def test_classical_reduction(self):
        basis = TMBasis(zeros_sequence(5), 5)
        u = np.linspace(0.1, 2.0 * np.pi - 0.1, 64)
        vals = np.asarray(fejer_kernel(basis, np.exp(1j * u), 1.0 + 0j))
        fejer = (np.sin(5 * u / 2.0) / np.sin(u / 2.0)) ** 2 / 5.0
        assert np.abs(vals - fejer).max() < 1e-12

    def test_positive_and_unit_mean(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        t = circle_grid(4096)
        for ang in (0.0, 0.9, 2.4, 4.1):
            row = np.asarray(fejer_kernel(basis, t, np.exp(1j * ang)))
            assert row.min() >= -1e-12
            assert row.mean() == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_is_derivative_modulus(self, seq_mixed):
        basis = TMBasis(seq_mixed, 6)
        t = circle_grid(8)
        d = np.abs(eval_blaschke(seq_mixed, 6, t).derivative)
        assert np.abs(np.asarray(fejer_kernel(basis, t, t)) - d).max() < 1e-9

    def test_angular_matches_rational(self, seq_mixed):
        # Off the diagonal the kernel has the closed form
        # |B_n(t) - B_n(z)|^2 / (|t - z|^2 |B_n'(z)|), here from the
        # product B_n and the Frostman sum rather than from the basis rows.
        basis = TMBasis(seq_mixed, 8)
        x = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
        y = x[:, None] + np.linspace(0.3, 5.9, 7)[None, :]
        a = np.asarray(fejer_kernel_angular(basis, x[:, None], y))
        t, z = np.exp(1j * y), np.exp(1j * x[:, None])
        gap = eval_blaschke(seq_mixed, 8, t).value - eval_blaschke(seq_mixed, 8, z).value
        dz = boundary_derivative_modulus(seq_mixed, 8, x[:, None])
        closed = np.abs(gap) ** 2 / (np.abs(t - z) ** 2 * dz)
        assert np.abs(a / closed - 1.0).max() < 1e-12

    def test_near_diagonal_bands(self, seq_mixed):
        # F_n(z, z) = |B_n'(z)|, and F_n(z e^{iu}, z) follows |B_n'| at x + u
        # to first order in u: the gap is about 2.2 u^2 here, and rounding
        # alone where u^2 is below it.
        basis = TMBasis(seq_mixed, 4)
        x = 0.77
        z = np.exp(1j * x)
        for du in (5e-13, 3e-9, 1e-7, 1e-3, 1e-2):
            kernel = float(np.asarray(fejer_kernel(basis, z * np.exp(1j * du), z)))
            frostman = float(boundary_derivative_modulus(seq_mixed, 4, x + du))
            assert abs(kernel / frostman - 1.0) <= 4.0 * du**2 + 1e-13

    def test_angular_grid_is_the_outer_kernel(self, seq_mixed):
        # The kernel report's m x m grid of angles is fejer_kernel's outer
        # product bit for bit; the fully broadcast pairs take the per-pair
        # sum and agree to rounding.
        ang = 2.0 * np.pi * np.arange(32) / 32
        basis = TMBasis(seq_mixed, 8)
        t, z = np.exp(1j * ang)[None, :], np.exp(1j * ang)[:, None]
        grid = fejer_kernel_angular(basis, ang[:, None], ang[None, :])
        assert np.array_equal(grid, fejer_kernel(basis, t, z))
        xb, yb = np.broadcast_arrays(ang[:, None], ang[None, :])
        pairs = fejer_kernel_angular(basis, xb, yb)
        assert np.abs(pairs - grid).max() <= 1e-13 * grid.max()

    @pytest.mark.parametrize(
        "t_shape, z_shape",
        [((1, 512), (5, 1)), ((512, 1), (1, 5)), ((512,), ()), ((), (5,)), ((3, 1, 4), (1, 5, 1))],
    )
    def test_outer_shapes_match_pair_sums(self, t_shape, z_shape):
        # Outer shapes take one matrix product of the basis rows; the fully
        # broadcast pairs take the per-pair sum.  Relative to the largest
        # value: near the kernel's zeros either form holds rounding alone.
        basis = TMBasis(_random_sequence(32, 0.9, 4), 32)
        rng = np.random.default_rng(6)
        t = np.exp(2j * np.pi * rng.random(t_shape))
        z = np.exp(2j * np.pi * rng.random(z_shape))
        got = np.asarray(fejer_kernel(basis, t, z))
        want = np.asarray(fejer_kernel(basis, *np.broadcast_arrays(t, z)))
        assert got.shape == want.shape == np.broadcast_shapes(t_shape, z_shape)
        assert np.abs(got - want).max() <= 1e-13 * want.max()

    @staticmethod
    def rows_formula(basis, t, z):
        """|conj(V_z)^T V_t|^2 / sum |V_z|^2 from the basis rows at the flat
        points, one row per z: the outer-product path without the spectrum."""
        vt, vz = phi_values(basis, t), phi_values(basis, z)
        return np.abs(np.conj(vz).T @ vt) ** 2 / (np.abs(vz) ** 2).sum(axis=0)[:, None]

    @staticmethod
    def layout(t, z, shape):
        """t and z arranged as (1, N) x (K, 1), (N, 1) x (1, K) or, with a
        single z, (N,) x scalar, and the map from (K, N) rows to that layout."""
        if shape == "rows":
            return t[None, :], z[:, None], lambda rows: rows
        if shape == "columns":
            return t[:, None], z[None, :], lambda rows: rows.T
        return t, complex(z[0]), lambda rows: rows[0]

    @pytest.mark.parametrize("shape", ["rows", "columns", "scalar"])
    @pytest.mark.parametrize(
        "npts, offset, order, modulus",
        [(512, 0.0, 16, 0.5), (2048, 0.37, 32, 0.7), (4096, 0.0, 8, 0.7)],
        ids=["512", "2048-rotated", "4096"],
    )
    def test_spectral_rows_on_uniform_grids(self, npts, offset, order, modulus, shape, monkeypatch):
        # The basis spectrum resolves on fewer than N points, so no basis
        # row is evaluated on the grid itself.  Two references: the rows
        # formula, and the closed form |B_n(t) - B_n(z)|^2 / (|t - z|^2
        # |B_n'(z)|) from the product B_n and the Frostman sum, which holds
        # off the diagonal; on it the kernel is |B_n'(z)|.
        seq = _random_sequence(order, modulus, order)
        basis = TMBasis(seq, order)
        t = circle_grid(npts) * np.exp(1j * offset)
        z = np.append(t[[0, npts // 5, npts // 2]], np.exp(2.1j))[: 1 if shape == "scalar" else 4]
        sizes, inner = [], operators.phi_values
        monkeypatch.setattr(
            operators, "phi_values", lambda b, p: sizes.append(np.size(p)) or inner(b, p)
        )
        tt, zz, arrange = self.layout(t, z, shape)
        got = np.asarray(fejer_kernel(basis, tt, zz))
        assert max(sizes) < npts
        want = self.rows_formula(basis, t, z)
        assert got.shape == arrange(want).shape
        assert np.abs(got - arrange(want)).max() <= 1e-13 * want.max()

        rows = got.T if shape == "columns" else got.reshape(len(z), npts)
        gap = np.abs(t[None, :] - z[:, None])
        off = gap > 1e-2
        b_t, b_z = (eval_blaschke(seq, order, p).value for p in (t, z))
        dz = boundary_derivative_modulus(seq, order, np.angle(z))[:, None]
        closed = np.abs(b_t[None, :] - b_z[:, None]) ** 2 / (np.where(off, gap, 1.0) ** 2 * dz)
        assert np.abs(np.where(off, rows - closed, 0.0)).max() <= 1e-13 * want.max()
        on_grid = gap < 1e-12
        assert on_grid.sum() == min(len(z), 3)
        diagonal = rows[on_grid] / np.broadcast_to(dz, rows.shape)[on_grid]
        assert np.abs(diagonal - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("case", ["64-points", "48-points", "near-circle", "off-grid"])
    def test_spectral_route_declines_bit_for_bit(self, case):
        # 64 points at n = 8 (|a| <= 0.7): the spectrum needs M0 = 512 >= N;
        # 48 points are no power of two; poles 1 - 2^-k need J > 1024 power
        # sums; one of 512 points 1e-12 off the grid, where 256 points
        # would resolve the spectrum.  Each takes the rows formula exactly.
        sizes = {"64-points": (8, 64), "48-points": (8, 48), "near-circle": (30, 4096)}
        order, npts = sizes.get(case, (8, 512))
        if case == "near-circle":
            seq = PointSequence(tuple(1.0 - 0.5 ** np.arange(1.0, order + 1.0)))
        else:
            seq = _random_sequence(order, 0.5 if case == "off-grid" else 0.7, order)
        basis = TMBasis(seq, order)
        t = circle_grid(npts)
        if case == "off-grid":
            t[100] *= np.exp(1e-12j)
        z = np.exp(1j * np.array([0.0, 0.3, 2.1, 4.4]))
        for shape in ("rows", "columns", "scalar"):
            zs = z[:1] if shape == "scalar" else z
            tt, zz, arrange = self.layout(t, zs, shape)
            got = np.asarray(fejer_kernel(basis, tt, zz))
            assert got.tobytes() == arrange(self.rows_formula(basis, t, zs)).tobytes()

    def test_fine_grid_rows_peak_below_12mb(self):
        # n = 32 on 2^16 points: the n x N basis rows would take 32 MB; the
        # spectral route forms the four rows of K_n and their moduli.
        basis = TMBasis(_random_sequence(32, 0.7, 9), 32)
        t = circle_grid(1 << 16)
        rows_at = np.exp(2j * np.pi * np.array([0.1, 0.35, 0.6, 0.85]))
        assert _traced_peak(lambda: fejer_kernel(basis, t[None, :], rows_at[:, None])) < 12e6


class TestSigmaPositive:
    def test_preserves_constants(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        z = np.array([0.0, 0.1 + 0.2j, -0.5, 0.3j, complex(np.exp(0.4j))])
        out = np.asarray(sigma_positive(constant_one(), basis, z))
        assert np.abs(out - 1.0).max() < 1e-12

    def test_identity_map_closed_form(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        z = np.array([0.1 + 0.2j, -0.5, 0.3j, 0.7 - 0.1j])
        be = eval_blaschke(seq_mixed, 8, z)
        b0 = eval_blaschke(seq_mixed, 8, 0.0).value
        expected = z - be.value / be.derivative * (1.0 - np.conj(b0) * be.value)
        got = np.asarray(sigma_positive(identity_map(), basis, z))
        assert np.abs(got - expected).max() < 1e-10

    def test_mobius_closed_form(self, seq_mixed):
        # sigma+(w_alpha) = w_alpha - w_alpha'(z) (B/B')(1 - conj(B(alpha)) B(z)).
        alpha = 0.3
        basis = TMBasis(seq_mixed, 6)
        f = mobius(alpha)
        z = np.array([0.15 - 0.3j, 0.45j, -0.2 + 0.2j])
        be = eval_blaschke(seq_mixed, 6, z)
        ba = eval_blaschke(seq_mixed, 6, alpha).value
        expected = np.asarray(f.value(z)) - np.asarray(f.derivative(z)) * (
            be.value / be.derivative
        ) * (1.0 - np.conj(ba) * be.value)
        got = np.asarray(sigma_positive(f, basis, z))
        assert np.abs(got - expected).max() < 1e-10

    def test_classical_monomials(self):
        basis = TMBasis(zeros_sequence(6), 6)
        z = np.array([0.3 + 0.1j, -0.6j, 0.8])
        for m in range(6):
            f = polynomial((0.0,) * m + (1.0,), label=f"z^{m}")
            got = np.asarray(sigma_positive(f, basis, z))
            assert np.abs(got - (1.0 - m / 6.0) * z**m).max() < 1e-12

    def test_critical_point_raises(self):
        basis = TMBasis(PointSequence((0.5, -0.5)), 2)
        with pytest.raises(CriticalPoint):
            sigma_positive(identity_map(), basis, 0.0 + 0j)

    def test_repeated_node_degenerates_to_partial_sum(self):
        basis = TMBasis(PointSequence((0.3, 0.3)), 2)
        f = simple_pole(1.6)
        c = coefficients_of(f, basis)
        got = complex(sigma_positive(f, basis, 0.3 + 0j, coeffs=c))
        partial_sum = complex(c[1:] @ phi_values(basis, 0.3 + 0j))
        assert got == pytest.approx(partial_sum, abs=1e-12)

    def test_off_the_closed_disc_raises(self, seq_short):
        # The Taylor series of g is cut at rounding level on the circle, so
        # it loses digits beyond it.
        basis = TMBasis(seq_short, 3)
        f = simple_pole(1.6)
        with pytest.raises(ValueError, match="^sigma_positive requires"):
            sigma_positive(f, basis, np.array([0.5, -1.0 - 2.0 * CIRCLE_TOL]))
        edge = complex(-1.0 - 0.5 * CIRCLE_TOL)
        assert complex(sigma_positive(f, basis, edge)) == pytest.approx(
            complex(self._by_recursion(f, basis, np.array([edge]))[0]), abs=1e-14
        )

    def test_precomputed_coefficients_match(self, seq_short):
        basis = TMBasis(seq_short, 3)
        f = mobius(-0.4 + 0.2j)
        c = coefficients_of(f, basis)
        z = 0.3 - 0.2j
        assert complex(sigma_positive(f, basis, z, coeffs=c)) == pytest.approx(
            complex(sigma_positive(f, basis, z)), abs=1e-14
        )
        with pytest.raises(ValueError):
            sigma_positive(f, basis, z, coeffs=c[2:])

    # Every point set takes g' from one projection.  A full uniform grid
    # that holds the power sums of B_n sums it by an inverse FFT; every
    # other point set takes one recursion for B_n and B_n' and Horner's
    # rule.  The reference sums S_n and S_n' instead.

    @staticmethod
    def _by_recursion(f, basis, z, c=None):
        n = basis.order
        if c is None:
            c = coefficients_of(f, basis)
        return _sigma_from_sums(*_recurse(basis.sequence, n, z, c=c[n - 1 :]))

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"_recurse": 0, "coefficients_of": 0}
        for name in calls:
            inner = getattr(operators, name)

            def counting(*args, name=name, inner=inner, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(operators, name, counting)
        return calls

    @pytest.mark.parametrize("offset", [0.0, 0.37], ids=["unrotated", "rotated"])
    @pytest.mark.parametrize("npts", [4096, 8192])
    @pytest.mark.parametrize("order", [8, 16, 32, 128])
    def test_grid_route_accuracy(self, order, npts, offset, monkeypatch):
        seq = _random_sequence(order, 0.9, order)
        basis = TMBasis(seq, order)
        t = np.exp(2j * np.pi * (np.arange(npts) + offset) / npts)
        coeffs = [coefficients_of(f, basis) for f in rational_corpus(12)]
        want = [self._by_recursion(f, basis, t, c) for f, c in zip(rational_corpus(12), coeffs)]
        calls = self._count_calls(monkeypatch)
        got = [sigma_positive(f, basis, t, coeffs=c) for f, c in zip(rational_corpus(12), coeffs)]
        assert calls["_recurse"] == 0
        for f, g, w in zip(rational_corpus(12), got, want):
            assert np.abs(g - w).max() <= 1e-13, f.label
        # got[0] is the constant, got[1] the identity.
        assert np.abs(got[0] - 1.0).max() <= 1e-13
        be = eval_blaschke(seq, order, t)
        b0 = complex(np.prod(-seq.as_array()))
        closed = t - be.value / be.derivative * (1.0 - np.conj(b0) * be.value)
        assert np.abs(got[1] - closed).max() <= 1e-13

    def test_grid_route_does_no_hidden_work(self, monkeypatch):
        basis = TMBasis(_random_sequence(32, 0.7, 5), 32)
        t = circle_grid(4096)
        calls = self._count_calls(monkeypatch)
        # A Cauchy transform of a degree-6 density takes the route like any
        # other member that passes the guard.
        smooth = cauchy_transform(random_unit_density(np.random.default_rng(2)))
        for f in rational_corpus(12) + (smooth,):
            sigma_positive(f, basis, t)
        assert calls == {"_recurse": 0, "coefficients_of": 0}
        with pytest.raises(ValueError, match="^sigma_positive of order 32"):
            sigma_positive(identity_map(), basis, t, coeffs=np.ones(62, dtype=complex))

    @pytest.mark.parametrize(
        "case",
        [
            "low-order",
            "many-terms",
            "cauchy",
            "moved-point",
            "m48",
            "m3000",
            "scalar",
            "high-degree",
            "gapped",
            "past-quarter",
            "clustered",
        ],
    )
    def test_off_the_guard_bit_for_bit(self, case, monkeypatch):
        seq, order, f = _random_sequence(16, 0.7, 1), 16, mobius(0.3)
        z = circle_grid(4096)
        if case == "low-order":
            # The order does not pick the route: 8 poles whose 57 power
            # sums fit in 128 points take the grid.
            seq, order, z = PointSequence(MIXED), 8, circle_grid(128)
        elif case == "many-terms":
            # geometric:0.5 needs about 10^6 power sums at n = 16.
            seq = PointSequence(tuple(1.0 - 0.5 ** np.arange(1, 17)))
            z = circle_grid(1 << 17)
        elif case == "cauchy":
            # The Cauchy transform of |Im t|, a polynomial of 471 terms,
            # grows too fast beyond the circle for the band of 4096 points;
            # the grid asks nothing of f.
            f = cauchy_transform(BoundaryGridFunction.from_callable(lambda t: np.abs(t.imag), 4096))
        elif case == "moved-point":
            z = z.copy()
            z[1000] *= np.exp(1e-12j)
        elif case == "m48":
            z = circle_grid(48)
        elif case == "m3000":
            z = circle_grid(3000)
        elif case == "scalar":
            z = complex(np.exp(0.4j))
        elif case == "high-degree":
            # Entire, and z^200 fills the band 128 .. 255 of a 512-point grid.
            f, z = polynomial([0.0] * 200 + [1.0]), circle_grid(512)
        elif case == "gapped":
            # 1 + z^600 has more terms than the grid has points, so its
            # series folds onto low frequencies.
            seq = PointSequence(tuple(0.5 * np.exp(2j * np.pi * (np.arange(16) + 0.1) / 16)))
            f, z = polynomial([1.0] + [0.0] * 599 + [1.0]), circle_grid(512)
        elif case == "past-quarter":
            # 64 zero poles on 128 points: g' comes from the projection's
            # own grid, so n need not stay within M / 4.
            seq, order, f = zeros_sequence(64), 64, identity_map()
            z = circle_grid(128)
        else:
            # 4096 points do not resolve conj(B_n); the projection doubles
            # its own grid.
            a = 0.96 * np.exp(1j * (0.3 + 1e-3 * np.arange(64)))
            seq, order, f = PointSequence(tuple(a)), 64, identity_map()
        basis = TMBasis(seq, order)
        zs = np.atleast_1d(z)
        on_grid = case in ("low-order", "cauchy", "high-degree", "gapped", "past-quarter", "clustered")
        assert (operators._uniform_grid(seq, order, zs) is not None) == on_grid
        if case == "many-terms":
            # The recursion's sums lose digits on poles this near the
            # circle, so the constant and the identity check closed forms.
            be = eval_blaschke(seq, order, zs)
            b0 = np.conj(eval_blaschke(seq, order, 0.0).value)
            closed = zs - be.value / be.derivative * (1.0 - b0 * be.value)
            members = [(constant_one(), np.ones_like(zs)), (identity_map(), closed)]
        else:
            members = [(f, self._by_recursion(f, basis, zs))]
        # Off the grid sigma_positive is the points route bit for bit: one
        # recursion for B_n and B_n' at the points and f' - B_n g' from the
        # projection.  On either route the projection's contour rule, where
        # the FFT on the circle declines, runs the recursion at its own points.
        routes, passes = [], 0
        for f, _ in members:
            bz, bpz, _, _ = _recurse(seq, order, zs)
            d = _delta_at(f, *operators._projections(f, seq, [order])[0], zs, bz)
            routes.append(_sigma_from_sums(bz, bpz, f.value(zs), d))
            passes += (not on_grid) + (operators._projected_derivative(f, seq, order) is None)
        calls = self._count_calls(monkeypatch)
        for (f, want), route in zip(members, routes):
            got = np.atleast_1d(sigma_positive(f, basis, z))
            assert on_grid or np.array_equal(got, route), f.label
            assert np.abs(got - want).max() <= 1e-12 * np.abs(f.value(zs)).max(), f.label
        # No coefficients.
        assert calls == {"_recurse": passes, "coefficients_of": 0}

    def test_grid_series_folds_more_terms_than_points(self):
        # 600 terms on a rotated 512-point grid: t^k lands on frequency
        # k mod 512.  The terms past 511 carry 6e-3 of the largest here.
        z0, roots = complex(np.exp(0.37j * 2 * np.pi / 512)), circle_grid(512)
        zf = z0 * roots
        rng = np.random.default_rng(5)
        c = (rng.standard_normal(600) + 1j * rng.standard_normal(600)) * 0.99 ** np.arange(600)
        want = zf * _horner(c, zf)
        assert np.abs(operators._grid_series(c, z0, 512) - want).max() <= 1e-13 * np.abs(want).max()
        # A lone 600 t^600, the k f_k of 1 + z^600, folds onto frequency 88.
        # Horner at z0 roots is 4e-13 off here: the roots' angles carry
        # rounding that the 600th power multiplies.
        lone = np.zeros(600, dtype=complex)
        lone[-1] = 600.0
        want = 600.0 * z0**600 * roots[(88 * np.arange(512)) % 512]
        assert np.abs(operators._grid_series(lone, z0, 512) - want).max() <= 1e-13 * 600.0
        # No terms, as where g' vanishes to rounding: zeros on every point.
        empty = operators._grid_series(np.zeros(0, dtype=complex), z0, 512)
        assert empty.shape == (512,) and not empty.any()

    def test_grid_takes_the_contour_source(self):
        # z^1000 is tame only on grids past CONTOUR_CAP, so the projection
        # takes f' from the contour rule too, and the grid sums it.
        seq, f = _random_sequence(16, 0.7, 1), polynomial([0.0] * 1000 + [1.0])
        z = np.exp(2j * np.pi * (np.arange(4096) + 0.3) / 4096)
        assert operators._uniform_grid(seq, 16, z) is not None
        kf, kg = operators._projections(f, seq, [16])[0]
        assert kf is not None
        bz, bpz, _, _ = _recurse(seq, 16, z)
        route = _sigma_from_sums(bz, bpz, f.value(z), _delta_at(f, kf, kg, z, bz))
        got = sigma_positive(f, TMBasis(seq, 16), z)
        assert np.abs(got - route).max() <= 1e-12 * np.abs(f.value(z)).max()


def _random_sequence(n, max_modulus, seed):
    rng = np.random.default_rng(seed)
    r = max_modulus * np.sqrt(rng.uniform(size=n))
    return PointSequence(tuple(r * np.exp(2j * np.pi * rng.uniform(size=n))))


STREAMED = {
    "mixed": PointSequence(MIXED),
    "bracket": PointSequence(BRACKET),
    "random128": _random_sequence(128, 0.7, 11),
    "repeated": PointSequence((0.5, 0.5, 0.3j, -0.2, 0.3j, 0.3j)),
}


class TestStreamedSums:
    """S_n and S_n' summed inside the recursion, and its pole test."""

    @pytest.mark.parametrize("name", STREAMED)
    def test_sums_match_phi_jet_rows(self, name):
        seq = STREAMED[name]
        n = len(seq)
        rng = np.random.default_rng(n)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = np.concatenate(
            [circle_grid(256), 0.6 * circle_grid(64) + 0.1j, seq.as_array()]
        )
        vals, ders, b, bp = phi_jet(TMBasis(seq, n), z)
        got_b, got_bp, s, sp = _recurse(seq, n, z, c=c)
        assert np.array_equal(got_b, b) and np.array_equal(got_bp, bp)
        # Relative to sum_k |c_k phi_k|, the scale of the summation's rounding.
        assert (np.abs(s - c @ vals) <= 1e-13 * (np.abs(c) @ np.abs(vals))).all()
        assert (np.abs(sp - c @ ders) <= 1e-13 * (np.abs(c) @ np.abs(ders))).all()

    def test_no_rows_allocated(self):
        # The n x M rows of values and derivatives alone would take 33 MB.
        seq = STREAMED["random128"]
        c = np.random.default_rng(3).standard_normal(128) + 0j
        z = 0.95 * circle_grid(8192)
        _sigma_from_sums(*_recurse(seq, 128, z, c=c))
        tracemalloc.start()
        try:
            _sigma_from_sums(*_recurse(seq, 128, z, c=c))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("modulus", [0.5, 1.0 - 2e-12])
    def test_pole_proximity_raised_within_array(self, modulus):
        # A point within 1e-13 of 1/conj(a) among far points; for |a| -> 1
        # it lies just outside the circle.
        a = modulus * np.exp(0.7j)
        pole = 1.0 / np.conj(a)
        z = np.concatenate([0.4 * circle_grid(64), [pole - 5e-14 * pole / abs(pole)]])
        basis = TMBasis(PointSequence((0.3, a)), 2)
        with pytest.raises(PoleProximity):
            eval_blaschke(basis.sequence, 2, z)
        with pytest.raises(PoleProximity):
            phi_values(basis, z)
        # sigma_positive refuses points off the closed disc before any pass.
        raised = PoleProximity if abs(pole) <= 1.0 + CIRCLE_TOL else ValueError
        with pytest.raises(raised):
            sigma_positive(constant_one(), basis, z, coeffs=np.ones(3, dtype=complex))


class TestNearCircle:
    # Poles approaching the circle, at C4's tolerances: sigma(1) = 1 within
    # 1e-9 and the identity's closed form within 1e-8, on the circle and
    # inside, where like C4 the closed form is taken only at |B_n'| > 1e-6.
    # The unit-circle rule on the default grid missed by up to 0.52
    # (harmonic:1, n = 128).
    FAMILIES = {
        "harmonic:1": lambda k: 1.0 - 1.0 / (k + 1.0),
        "geometric:0.5": lambda k: 1.0 - 0.5**k,
        "geometric:0.9": lambda k: 1.0 - 0.9**k,
        # Complex poles: u = 1 - z conj(a) loses digits near their angle,
        # and S_n - (B_n/B_n') S_n' cancels there.
        "geometric:0.5@0.3": lambda k: (1.0 - 0.5**k) * np.exp(0.3j),
        "geometric:0.5@1": lambda k: (1.0 - 0.5**k) * np.exp(1j),
    }

    @pytest.mark.parametrize(
        "family,order",
        [
            ("harmonic:1", 16),
            ("harmonic:1", 64),
            ("harmonic:1", 128),
            ("geometric:0.5", 12),
            ("geometric:0.5", 16),
            ("geometric:0.5", 30),
            ("geometric:0.9", 32),
            ("geometric:0.9", 128),
            ("geometric:0.5@0.3", 30),
            ("geometric:0.5@0.3", 38),
            ("geometric:0.5@1", 30),
            ("geometric:0.5@1", 38),
        ],
    )
    def test_constant_and_identity(self, family, order):
        seq = PointSequence(tuple(self.FAMILIES[family](np.arange(1, order + 1))))
        basis = TMBasis(seq, order)
        # The grid, the angle that the poles approach, and interior probes.
        angle = np.exp(1j * np.angle(seq.points[-1]))
        z = np.concatenate([circle_grid(max(4096, 64 * order)), [angle], interior_probes(64)])
        one = np.asarray(sigma_positive(constant_one(), basis, z))
        assert np.abs(one - 1.0).max() < 1e-9
        z = z[np.abs(eval_blaschke(seq, order, z).derivative) > 1e-6]
        be = eval_blaschke(seq, order, z)
        b0 = complex(eval_blaschke(seq, order, 0.0 + 0j).value)
        closed = z - be.value / be.derivative * (1.0 - np.conj(b0) * be.value)
        got = np.asarray(sigma_positive(identity_map(), basis, z))
        assert np.abs(got - closed).max() < 1e-8

    @pytest.mark.parametrize("order", [8, 12, 16])
    def test_cauchy_transform_of_the_constant(self, order):
        # K(1) = 1 has <1, phi_k> = conj(phi_k(0)) and sigma_positive = 1.
        # A quadrature over the density's 4096 nodes missed the coefficients
        # by 8.8e-2 at n = 16 on a_k = 1 - 2^-k.
        seq = PointSequence(tuple(self.FAMILIES["geometric:0.5"](np.arange(1, order + 1))))
        basis = TMBasis(seq, order)
        f = cauchy_transform(BoundaryGridFunction.from_callable(constant_one().value, 4096))
        want = np.conj(phi_values(basis, 0.0 + 0j))
        assert np.abs(coefficients_of(f, basis)[order - 1 :] - want).max() <= 1e-14
        one = np.asarray(sigma_positive(f, basis, circle_grid(256)))
        assert np.abs(one - 1.0).max() <= 1e-12


class TestSigmaRusak:
    def test_unit_response(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        probes = circle_grid(32)
        out = np.asarray(sigma_rusak(grid_of(constant_one()), basis, probes))
        assert np.abs(out - 1.0).max() < 1e-10

    def test_positivity_on_nonnegative_data(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        t = circle_grid(4096)
        data = BoundaryGridFunction(1.0 + 0.9 * np.cos(np.angle(t)))
        out = np.asarray(sigma_rusak(data, basis, circle_grid(64)))
        assert np.abs(out.imag).max() < 1e-10
        assert out.real.min() >= -1e-10

    def test_classical_cesaro_mean(self):
        # a == 0 turns the kernel into the Fejer kernel, so the operator
        # computes the classical (C,1) mean of the Fourier series.
        n = 4
        basis = TMBasis(zeros_sequence(n), n)
        theta = np.angle(circle_grid(4096))
        data = BoundaryGridFunction(3.0 + np.cos(theta) + 0.5 * np.sin(2.0 * theta))
        probes = circle_grid(16)
        pt = np.angle(probes)
        expected = (
            3.0
            + (1.0 - 1.0 / n) * np.cos(pt)
            + (1.0 - 2.0 / n) * 0.5 * np.sin(2.0 * pt)
        )
        got = np.asarray(sigma_rusak(data, basis, probes))
        assert np.abs(got - expected).max() < 1e-10

    def test_agreement_with_sigma_positive(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        probes = circle_grid(64)
        for f in rational_corpus(6):
            sr = np.asarray(sigma_rusak(grid_of(f), basis, probes))
            sp = np.asarray(sigma_positive(f, basis, probes))
            assert np.abs(sr - sp).max() < 1e-7, f.label

    def test_gram_form_is_the_kernel_quadrature(self, seq_mixed):
        # The Fourier form T(c) + conj(T(d)) - f_0 against the grid sum of
        # f(t) F_n(t, z) taken directly; probes on the grid put t = z
        # inside the sum.
        basis = TMBasis(seq_mixed, 8)
        t = circle_grid(1024)
        probes = np.concatenate([t[::97], circle_grid(13) * np.exp(0.01j)])
        for f in rational_corpus(4):
            data = grid_of(f, 1024)
            kern = np.asarray(fejer_kernel(basis, t[None, :], probes[:, None]))
            quadrature = (data.samples * kern).mean(axis=1)
            got = np.asarray(sigma_rusak(data, basis, probes))
            assert np.abs(got - quadrature).max() < 1e-12, f.label

    @staticmethod
    def gram_form(data, vt, vz):
        """phi(z)^T G conj(phi(z)) / |phi(z)|^2 with the n x n matrix
        G_jk = mean_t f(t) conj(phi_j(t)) phi_k(t) over the data's grid, from
        basis rows vt there and vz at the probes: the grid sum of
        f(t) F_n(t, z) reordered, so positive by construction."""
        gram = (np.conj(vt) * data.samples) @ vt.T / data.resolution
        return (vz * (gram @ np.conj(vz))).sum(axis=0) / (np.abs(vz) ** 2).sum(axis=0)

    def assert_gram_form(self, basis, resolution=4096):
        """sigma_rusak within 1e-13 max|f| of the Gram form on complex
        holomorphic data, a kink, a 0/1 step and a unimodular step."""
        theta = np.angle(circle_grid(resolution)) % (2.0 * np.pi)
        data = [grid_of(f, resolution) for f in rational_corpus(12)] + [
            BoundaryGridFunction(np.abs(np.sin(theta / 2.0)) + 0j),
            BoundaryGridFunction((theta < 2.0) + 0j),
            BoundaryGridFunction(np.where(theta < 2.0, 1.0, np.exp(2.5j))),
        ]
        probes = circle_grid(256) * np.exp(0.3j)
        vt, vz = phi_values(basis, data[0].points), phi_values(basis, probes)
        for f in data:
            want = self.gram_form(f, vt, vz)
            got = np.asarray(sigma_rusak(f, basis, probes))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(f.samples).max()

    @pytest.mark.parametrize("order", [8, 32, 64])
    def test_fourier_form_matches_the_gram_form(self, order):
        # Poles up to |a| = 0.97.
        seq = _random_sequence(order, 0.97, order)
        seq = PointSequence((0.97 * np.exp(0.4j),) + seq.points[1:])
        self.assert_gram_form(TMBasis(seq, order))

    @staticmethod
    def spectrum_sizes(basis, resolution):
        """The grid sizes on which `_parseval_coefficients` takes the basis
        spectrum for data on `resolution` points."""
        sizes, inner = [], operators.phi_values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "phi_values", lambda b, z: sizes.append(np.size(z)) or inner(b, z))
            operators._parseval_coefficients(grid_of(constant_one(), resolution), basis)
        return sizes

    @pytest.mark.parametrize("order", [8, 32])
    def test_parseval_on_the_first_grid(self, order):
        # |a| <= 0.7: J <= 110 power sums, so 512 points resolve the
        # spectrum of the rows and no n x N array is formed.
        basis = TMBasis(_random_sequence(order, 0.7, order), order)
        assert self.spectrum_sizes(basis, 4096) == [512]
        self.assert_gram_form(basis)

    def test_parseval_doubles_a_grid_that_does_not_resolve(self):
        # 64 poles of modulus 0.96 within 0.063 rad: the spectrum of the
        # rows reaches past 2048, so 4096 and 8192 points leave the band
        # above rounding and 16384 resolve it, short of the data's 32768.
        a = 0.96 * np.exp(1j * (0.3 + 1e-3 * np.arange(64)))
        seq = PointSequence(tuple(a))
        basis = TMBasis(seq, 64)
        assert operators._grid_start(seq, 64) == (4096, 959)
        assert self.spectrum_sizes(basis, 1 << 15) == [4096, 8192, 16384]
        self.assert_gram_form(basis, 1 << 15)

    @pytest.mark.parametrize(
        "poles,order,resolution",
        [("geometric", 16, 4096), ("geometric", 30, 4096), ("random", 8, 64)],
    )
    def test_parseval_on_the_data_grid(self, poles, order, resolution):
        # Poles 1 - 2^-k need J > 1024 power sums, so `_grid_start`
        # declines; on 64 points the first grid, 512 points, passes N.
        # Either way the spectrum is taken on the data grid itself.
        if poles == "geometric":
            seq = PointSequence(tuple(1.0 - 0.5 ** np.arange(1.0, order + 1.0)))
            assert operators._grid_start(seq, order) is None
        else:
            seq = _random_sequence(order, 0.7, order)
        basis = TMBasis(seq, order)
        assert self.spectrum_sizes(basis, resolution) == [resolution]
        self.assert_gram_form(basis, resolution)

    def test_one_pass_over_the_poles(self, seq_mixed, monkeypatch):
        # One recursion sums the block [c, d]; the result is that of one
        # recursion per coefficient vector, bit for bit.
        basis = TMBasis(seq_mixed, 8)
        data = grid_of(mobius(0.3))
        probes = circle_grid(64) * np.exp(0.2j)
        calls, inner = [], operators._recurse
        monkeypatch.setattr(
            operators, "_recurse", lambda *a, **kw: calls.append(1) or inner(*a, **kw)
        )
        got = np.asarray(sigma_rusak(data, basis, probes))
        assert len(calls) == 1
        c, d = operators._parseval_coefficients(data, basis).T
        tc, td = (_sigma_from_sums(*inner(seq_mixed, 8, probes, c=g)) for g in (c, d))
        assert got.tobytes() == (tc + np.conj(td) - data.samples.mean()).tobytes()

    def test_boundary_calls_peak_below_4mb(self):
        # n = 32 on 4096 points: the n x N rows take 2 MB, and neither call
        # may form more than about one such array.  On 2^16 points they
        # would take 32 MB; sigma_rusak forms none, only the basis spectrum
        # on 512 points and one FFT of the samples.
        basis = TMBasis(_random_sequence(32, 0.7, 9), 32)
        t = circle_grid(4096)
        data, large = grid_of(mobius(0.3)), grid_of(mobius(0.3), 1 << 16)
        rows_at = np.exp(2j * np.pi * np.array([0.1, 0.35, 0.6, 0.85]))
        probes = circle_grid(256) * np.exp(0.2j)
        calls = (
            lambda: fejer_kernel(basis, t[None, :], rows_at[:, None]),
            lambda: sigma_rusak(data, basis, probes),
            lambda: sigma_rusak(large, basis, probes),
        )
        for call in calls:
            assert _traced_peak(call) < 4e6

    def test_contraction_in_all_norms(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        probes = circle_grid(256)
        for f in rational_corpus(5):
            data = grid_of(f)
            a = np.abs(data.samples)
            out = np.abs(np.asarray(sigma_rusak(data, basis, probes)))
            assert out.max() <= a.max() + 1e-9
            assert out.mean() <= a.mean() + 1e-9
            assert np.sqrt((out**2).mean()) <= np.sqrt((a**2).mean()) + 1e-9

    def test_requires_circle(self, seq_short):
        basis = TMBasis(seq_short, 2)
        with pytest.raises(ExtendedOffCircle):
            sigma_rusak(grid_of(constant_one()), basis, 0.5 + 0j)


class TestDelta:
    def test_constant_gives_zero(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        z = np.array([0.0, 0.2 + 0.3j, -0.6j, 0.85])
        assert np.abs(np.asarray(delta(constant_one(), basis, z))).max() < 1e-12

    def test_interpolates_derivative_at_nodes(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        nodes = seq_mixed.as_array()
        for f in rational_corpus(6):
            got = np.asarray(delta(f, basis, nodes))
            want = np.asarray(f.derivative(nodes))
            assert np.abs(got - want).max() < 1e-8, f.label

    def test_interpolates_at_repeated_node(self):
        basis = TMBasis(PointSequence((0.3, 0.3)), 2)
        f = simple_pole(1.6)
        assert complex(delta(f, basis, 0.3 + 0j)) == pytest.approx(
            complex(f.derivative(0.3 + 0j)), abs=1e-10
        )

    def test_algebraic_and_integral_routes_agree(self, seq_mixed):
        # The FFT of a holomorphic member against the Taylor route of its
        # Cauchy wrapper.
        basis = TMBasis(seq_mixed, 8)
        f = mobius(-0.4 + 0.2j)
        wrapped = cauchy_transform(grid_of(f), label="wrapped")
        z = np.array([0.2 + 0.3j, -0.4 + 0.1j, 0.5j, 0.75])
        assert np.abs(
            np.asarray(delta(f, basis, z)) - np.asarray(delta(wrapped, basis, z))
        ).max() < 1e-8

    def test_integral_route_at_origin_explicit_sum(self):
        # At z = 0 the weighted integral collapses to
        # mean(conj(t) conj(B(t)) f(t)), an independent one-line oracle.
        seq = PointSequence((0.5, -0.5))
        basis = TMBasis(seq, 2)
        f = simple_pole(1.6)
        t = circle_grid(4096)
        bt = eval_blaschke(seq, 2, t).value
        integral = (np.conj(t) * np.conj(bt) * f.value(t)).mean()
        b0 = eval_blaschke(seq, 2, 0.0).value
        oracle = complex(f.derivative(0.0)) - b0 * integral
        # B' vanishes at 0, where (B'/B)(f - sigma_positive(f)) is 0/0;
        # f' - B g' has no such point.
        assert complex(delta(f, basis, 0.0 + 0j)) == pytest.approx(oracle, abs=1e-12)

    def test_contour_form_matches_algebraic_route(self, seq_mixed):
        # f' - B_n g' with g' from the Taylor coefficients that one FFT on
        # the contour gives must reproduce delta, which takes the FFT here.
        # The constant, whose delta vanishes, is test_constant_gives_zero.
        basis = TMBasis(seq_mixed, 8)
        z = interior_probes(48)
        be = eval_blaschke(seq_mixed, 8, z)
        keep = (np.abs(be.value) >= 1e-3) & (np.abs(be.derivative) >= 1e-3)
        z, bz = z[keep], be.value[keep]
        assert z.size >= 40
        for f in rational_corpus(12)[1:]:
            contour = _contour_delta(f, seq_mixed, 8, z, bz)
            np.testing.assert_allclose(contour, delta(f, basis, z), rtol=1e-10, err_msg=f.label)

    def test_contour_integral_matches_fine_unit_grid(self):
        # g' from the Taylor coefficients of f on the contour |t| = R
        # against g' from those of its Cauchy wrapper, read off the DFT of
        # its samples on 2^16 points of the unit circle, for poles with
        # |a| <= 0.7.
        rng = np.random.default_rng(3)
        poles = 0.7 * np.sqrt(rng.random(8)) * np.exp(2j * np.pi * rng.random(8))
        seq = PointSequence(tuple(poles))
        z = interior_probes(8)
        for f in rational_corpus(12):
            fine = _contour_dg(cauchy_transform(grid_of(f, 1 << 16)), seq, 8, z)
            contour = _contour_dg(f, seq, 8, z)
            np.testing.assert_allclose(contour, fine, rtol=1e-10, atol=1e-13, err_msg=f.label)

    def test_stacked_integral_matches_columns(self, seq_mixed):
        # The Taylor coefficients mu_0..mu_6 of four densities as the
        # columns of one (7, 4) array, projected at once and one by one.
        rng = np.random.default_rng(5)
        densities = [random_unit_density(rng, 1024).samples for _ in range(4)]
        stacked = np.stack([np.fft.fft(d)[:7] / 1024 for d in densities], axis=1)
        both = _projected_taylor(stacked, seq_mixed, 6)
        assert both.shape == (7, 4)
        for j in range(4):
            one = _projected_taylor(stacked[:, j], seq_mixed, 6)
            assert one.shape == (7,)
            np.testing.assert_allclose(both[:, j], one, rtol=1e-13, atol=1e-15)

    def test_near_boundary_rejected(self, seq_short):
        basis = TMBasis(seq_short, 3)
        with pytest.raises(NearBoundary):
            delta(constant_one(), basis, 0.9999999996)

    def test_voronovskaya_bound_small_sample(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        rng = np.random.default_rng(11)
        z = np.array([0.3, 0.55j, -0.4 + 0.2j])
        bound = np.abs(eval_blaschke(seq_mixed, 8, z).value) / (
            1.0 - np.abs(z) ** 2
        )
        for _ in range(10):
            f = cauchy_transform(random_unit_density(rng, 4096))
            gap = np.abs(
                np.asarray(delta(f, basis, z)) - np.asarray(f.derivative(z))
            )
            assert (gap <= bound + 1e-7).all()

    def test_extremal_equality(self, seq_mixed):
        # The Blaschke product over (a_0, ..., a_7, z), as the Cauchy
        # transform of its boundary trace, attains the bound at z.
        basis = TMBasis(seq_mixed, 8)
        for z in (0.3 + 0.4j, -0.55, 0.7j):
            member = blaschke_multiple(seq_mixed.points[:8] + (z,))
            k = cauchy_transform(grid_of(member))
            gap = abs(complex(delta(k, basis, z)) - complex(k.derivative(z)))
            bound = abs(eval_blaschke(seq_mixed, 8, z).value) / (1.0 - abs(z) ** 2)
            assert gap == pytest.approx(bound, abs=1e-7)

    def test_boundary_equality_for_constant(self, seq_mixed):
        # delta(e0) vanishes identically, so on the circle the weighted
        # distance |delta(e0) - B' conj(B) e0| reduces to |B'| exactly.
        basis = TMBasis(seq_mixed, 8)
        assert np.abs(np.asarray(delta(constant_one(), basis, 0.5 - 0.2j))).max() < 1e-12
        t = circle_grid(64)
        be = eval_blaschke(seq_mixed, 8, t)
        lhs = np.abs(0.0 - be.derivative * np.conj(be.value) * 1.0)
        assert np.abs(lhs - np.abs(be.derivative)).max() < 1e-9

    @pytest.mark.parametrize("order", [8, 32])
    def test_matches_its_definition_through_sigma_positive(self, order):
        # Where |B_n| and |B_n'| stay above 1e-3 the quotient is well
        # conditioned, and (B_n'/B_n)(f - sigma_positive(f)) must reproduce
        # f' - B_n g'.  The constant, whose delta vanishes, is
        # test_constant_gives_zero.
        seq = _random_sequence(order, 0.7, order)
        basis = TMBasis(seq, order)
        z = interior_probes(96)
        be = eval_blaschke(seq, order, z)
        keep = (np.abs(be.value) >= 1e-3) & (np.abs(be.derivative) >= 1e-3)
        z, bz, dbz = z[keep], be.value[keep], be.derivative[keep]
        assert z.size >= 16
        for f in rational_corpus(12)[1:]:
            want = dbz / bz * (f.value(z) - sigma_positive(f, basis, z))
            np.testing.assert_allclose(delta(f, basis, z), want, rtol=1e-10, err_msg=f.label)

    @staticmethod
    def _count_passes(monkeypatch, seq):
        """(size, jet) of every recursion over the poles of seq; members such
        as Schur products run their own sequences."""
        passes = []

        def counting(sequence, n, zf, *args, jet=True, **kwargs):
            if sequence is seq:
                passes.append((zf.size, jet))
            return _recurse(sequence, n, zf, *args, jet=jet, **kwargs)

        for module in (blaschke, tm_basis, operators):
            monkeypatch.setattr(module, "_recurse", counting)
        return passes

    def test_wrong_coefficient_length_names_delta(self, seq_short):
        basis = TMBasis(seq_short, 3)
        with pytest.raises(ValueError, match="^delta of order 3"):
            delta(constant_one(), basis, 0.2 + 0j, coeffs=np.ones(4, dtype=complex))

    # Members with a radius take the FFT route for g' in f' - B_n g',
    # g = P_+(conj(B_n) f), at every order; where it declines, f' and g'
    # come from the contour rule.

    @pytest.mark.parametrize("modulus", [0.7, 0.9])
    @pytest.mark.parametrize("order", [16, 32])
    def test_grid_route_matches_contour_route(self, order, modulus):
        seq = _random_sequence(order, modulus, order)
        basis = TMBasis(seq, order)
        z = interior_probes(48)
        bz = eval_blaschke(seq, order, z).value
        for f in rational_corpus(12):
            assert operators._projected_derivative(f, seq, order) is not None, f.label
            contour = _contour_delta(f, seq, order, z, bz)
            assert np.abs(delta(f, basis, z) - contour).max() <= 1e-12, f.label

    @pytest.mark.parametrize("order", [32, 128])
    def test_grid_route_returns_the_derivative_at_nodes(self, order):
        seq = _random_sequence(order, 0.7, 3)
        basis = TMBasis(seq, order)
        nodes = seq.as_array()
        for f in rational_corpus(12):
            assert np.array_equal(delta(f, basis, nodes), f.derivative(nodes)), f.label

    @pytest.mark.parametrize("case", ["order-8", "order-32", "cauchy"])
    def test_grid_route_does_no_hidden_work(self, case, monkeypatch):
        # One recursion over the points, for B_n alone, and no coefficients:
        # the FFT reads f, a Cauchy transform too, on a grid of its own.
        # Passed coefficients are only length-checked and change no bit.
        order = 8 if case == "order-8" else 32
        seq = PointSequence(MIXED) if order == 8 else _random_sequence(32, 0.7, 5)
        basis = TMBasis(seq, order)
        nodes = seq.as_array()
        z = np.concatenate([interior_probes(48), nodes, nodes[:3] + 1e-8])
        if case == "cauchy":
            density = random_unit_density(np.random.default_rng(2))
            members = [cauchy_transform(density)]
        else:
            members = rational_corpus(12)
        coeffs = [coefficients_of(f, basis) for f in members]
        passes = self._count_passes(monkeypatch, seq)
        calls = []
        inner = operators.coefficients_of

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(operators, "coefficients_of", counting)
        for f, c in zip(members, coeffs):
            passes.clear()
            got = delta(f, basis, z)
            assert passes == [(z.size, False)], f.label
            assert np.array_equal(delta(f, basis, z, coeffs=c), got), f.label
            with pytest.raises(ValueError, match=f"^delta of order {order}"):
                delta(f, basis, z, coeffs=np.ones(2 * order - 2, dtype=complex))
        assert not calls

    @staticmethod
    def _mixed_points(seq):
        # Interior probes, the nodes, where B_n = 0, and points 1e-8 off them.
        nodes = seq.as_array()
        return np.concatenate([interior_probes(48), nodes, nodes[:3] + 1e-8])

    def test_one_recursion_over_the_points(self, seq_mixed, monkeypatch):
        # One jet-free pass over the M points, for B_n, and none over a contour.
        basis = TMBasis(seq_mixed, 8)
        z = self._mixed_points(seq_mixed)
        passes = self._count_passes(monkeypatch, seq_mixed)
        for f in rational_corpus(12):
            passes.clear()
            delta(f, basis, z)
            assert passes == [(z.size, False)], f.label

    def test_coefficients_computed_when_none_passed(self, seq_mixed):
        # Leaving the coefficients out gives the bits that passing them gives.
        basis = TMBasis(seq_mixed, 8)
        z = self._mixed_points(seq_mixed)
        for f in rational_corpus(12):
            want = delta(f, basis, z, coeffs=coefficients_of(f, basis))
            assert np.array_equal(delta(f, basis, z), want), f.label

    @pytest.mark.parametrize("poles", ["zero64", "zero128", "small128"])
    def test_grid_route_matches_closed_forms(self, poles):
        # The grid holds conj(B_n) apart from f whatever J: 64 zero poles
        # on 64 points would give conj(B_n) = 1 there and lose z^64.  For
        # f = z and z^2, g = P_+(conj(B_n) f) has the Taylor coefficients
        # of B_n at 0 alone: delta(z) = 1 - conj(B_n(0)) B_n(z) and
        # delta(z^2) = 2z - B_n(z) (2 conj(B_n(0)) z + conj(B_n'(0))).
        if poles == "small128":
            seq, order = _random_sequence(128, 0.1, 128), 128
        else:
            order = int(poles[4:])
            seq = zeros_sequence(order)
        basis = TMBasis(seq, order)
        z = np.concatenate([interior_probes(16), [0.97, -0.95j]])
        at0, bz = eval_blaschke(seq, order, 0.0), eval_blaschke(seq, order, z).value
        b0, db0 = np.conj(at0.value), np.conj(at0.derivative)
        square = polynomial([0.0, 0.0, 1.0])
        closed = ((identity_map(), 1.0 - b0 * bz), (square, 2.0 * z - bz * (2.0 * b0 * z + db0)))
        for f, want in closed:
            assert operators._projected_derivative(f, seq, order) is not None, f.label
            assert np.abs(delta(f, basis, z) - want).max() <= 1e-14, f.label

    def test_grid_route_doubles_a_grid_that_does_not_resolve(self, monkeypatch):
        # 64 poles of modulus 0.96 within 0.07 rad: the first grid, 4096
        # points, passes the tests on f, n and J, but conj(B_n) reaches
        # past -2048 and fills the band; 8192 points resolve it.
        a = 0.96 * np.exp(1j * (0.3 + 1e-3 * np.arange(64)))
        seq, f = PointSequence(tuple(a)), identity_map()
        basis = TMBasis(seq, 64)
        z = interior_probes(16)
        assert operators._grid_start(seq, 64) == (4096, 959)
        sizes = []
        inner = operators._grid_blaschke

        def spy(sequence, n, z0, roots, terms):
            sizes.append(roots.size)
            return inner(sequence, n, z0, roots, terms)

        monkeypatch.setattr(operators, "_grid_blaschke", spy)
        got = delta(f, basis, z)
        assert sizes == [4096, 8192]
        bz = eval_blaschke(seq, 64, z).value
        b0 = np.conj(eval_blaschke(seq, 64, 0.0).value)
        assert np.abs(got - (1.0 - b0 * bz)).max() <= 1e-14

    @pytest.mark.parametrize("case", ["cauchy", "many-terms", "past-the-cap", "unresolved"])
    def test_grid_route_off_the_guard_bit_for_bit(self, case):
        seq, order, f = _random_sequence(16, 0.7, 1), 16, mobius(0.3)
        geometric = PointSequence(tuple(1.0 - 0.5 ** np.arange(1, 17)))
        if case == "cauchy":
            # A Cauchy transform declines where any other member does.
            seq = geometric
            f = cauchy_transform(random_unit_density(np.random.default_rng(2)))
        elif case == "many-terms":
            # geometric:0.5 needs about 10^6 power sums at n = 16.
            seq = geometric
        elif case == "past-the-cap":
            # z^1000 stays within the growth cap only on grids past CONTOUR_CAP.
            f = polynomial([0.0] * 1000 + [1.0])
        else:
            # 384 poles at 0.96 give max|B_n'| = 18816: conj(B_n) fills
            # the band on every grid up to CONTOUR_CAP = 2 * 16384 points.
            seq, order, f = PointSequence((0.96,) * 384), 384, identity_map()
        basis = TMBasis(seq, order)
        z = np.concatenate([interior_probes(16), seq.as_array()[:2]])
        bz = eval_blaschke(seq, order, z).value
        live = bz != 0.0
        assert live.sum() == 16
        assert operators._projected_derivative(f, seq, order) is None
        want = np.array(np.broadcast_to(f.derivative(z), z.shape), dtype=complex)
        want[live] = _contour_delta(f, seq, order, z[live], bz[live])
        assert np.array_equal(delta(f, basis, z), want)

    @pytest.mark.parametrize("member", [constant_one, identity_map], ids=["one", "identity"])
    def test_order_128_taylor_route_matches_closed_forms(self, member):
        # delta takes the FFT route here, so the contour rule is called
        # directly, at probes where |B_128| < 1e-6.  g = P_+(conj(B_n) f)
        # is the constant conj(B_n(0)) for f = 1, and for f = z it is
        # conj(B_n'(0)) + conj(B_n(0)) z, so g' = 0 and conj(B_n(0)).
        seq = _random_sequence(128, 0.7, 7)
        basis = TMBasis(seq, 128)
        rng = np.random.default_rng(7)
        z = rng.uniform(0.85, 0.9, 16) * np.exp(2j * np.pi * rng.random(16))
        f = member()
        bz = eval_blaschke(seq, 128, z).value
        assert (np.abs(bz) < 1e-6).all()
        want = 0.0 if member is constant_one else np.conj(eval_blaschke(seq, 128, 0.0).value)
        assert np.abs(_contour_dg(f, seq, 128, z) - want).max() <= 1e-14
        # The C8 bound; delta(1) = 0 and delta(z) = 1 - conj(B_n(0)) B_n(z).
        got = delta(f, basis, z, coeffs=coefficients_of(f, basis))
        assert (np.abs(got - f.derivative(z)) <= np.abs(bz) / (1.0 - np.abs(z) ** 2)).all()


class TestSchurPointwiseBound:
    def test_two_sided_bound_attained(self, seq_mixed):
        basis = TMBasis(seq_mixed, 4)
        for z in (0.25 + 0.3j, -0.5j, 0.6):
            be = eval_blaschke(seq_mixed, 4, z)
            assert abs(be.derivative) > 1e-3
            floor = (
                abs(be.value / be.derivative)
                * (1.0 - abs(be.value) ** 2)
                / (1.0 - abs(z) ** 2)
            )
            members = list(schur_corpus()) + [mobius(z)]
            values = [
                abs(complex(f.value(z)) - complex(sigma_positive(f, basis, z)))
                for f in members
            ]
            # every member obeys the upper estimate ...
            for f, v in zip(members, values):
                assert v <= floor + abs(be.value) ** 2 + 1e-7, f.label
            # ... and the Moebius factor vanishing at z attains the floor.
            assert max(values) >= floor - 1e-7
            assert values[-1] == pytest.approx(floor, abs=1e-9)


class TestExtremalMember:
    def test_cauchy_self_consistency(self, seq_mixed):
        # Quadrature of the extremal member's boundary trace through the
        # Cauchy kernel must reproduce the explicit product inside the disc.
        member = blaschke_multiple(seq_mixed.points[:8] + (0.3 + 0.4j,))
        k = cauchy_transform(grid_of(member))
        z = np.array([0.1 - 0.2j, 0.5j, -0.3])
        assert np.abs(
            np.asarray(k.value(z)) - np.asarray(member.value(z))
        ).max() < 1e-9
        assert np.abs(
            np.asarray(k.derivative(z)) - np.asarray(member.derivative(z))
        ).max() < 1e-9
