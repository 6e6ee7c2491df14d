"""Experiment drivers: diagnostics, convergence rows, saturation, counterexample."""

import tracemalloc

import numpy as np
import pytest

from conftest import BRACKET, MIXED, zeros_sequence
from tmfejer import analysis, blaschke, operators, quadrature
from tmfejer.analysis import (
    cesaro_counterexample,
    convergence_experiment,
    diagnose_sequence,
    interior_probes,
    saturation_check,
    voronovskaya_experiment,
)
from tmfejer.blaschke import PointSequence, boundary_derivative_modulus, eval_blaschke
from tmfejer.corpus import (
    blaschke_multiple,
    cauchy_transform,
    constant_one,
    identity_map,
    mobius,
    random_unit_density,
    simple_pole,
    standard_corpus,
)
from tmfejer.operators import delta, sigma_positive
from tmfejer.quadrature import (
    BoundaryGridFunction,
    NoConvergence,
    refined_maximum,
    refined_minimum,
)
from tmfejer.tm_basis import TMBasis, phi_values

# geometric:0.5, a_k = 1 - 2^-k for k = 1..12: poles that approach the circle.
NEAR_CIRCLE = 1.0 - 0.5 ** np.arange(1, 13)
NEAR_CIRCLE_39 = list(1.0 - 0.5 ** np.arange(1, 40))


class TestInteriorProbes:
    def test_deterministic_and_interior(self):
        a = interior_probes(16)
        b = interior_probes(16)
        assert np.array_equal(a, b)
        assert np.abs(a).max() <= 0.88 + 1e-12
        assert np.abs(a).min() > 0.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            interior_probes(0)


class TestDiagnostics:
    def test_zeros_sequence_exact_values(self):
        d = diagnose_sequence(zeros_sequence(4), 4)
        assert d.blaschke_sum == pytest.approx(4.0)
        assert d.frostman_min == pytest.approx(4.0, abs=1e-10)
        assert d.derivative_l1 == pytest.approx(4.0, abs=1e-12)
        assert d.sup_inverse == pytest.approx(0.25, abs=1e-10)
        assert d.product_modulus == 0.0

    def test_half_blaschke_inequality_spec_sequences(self):
        # 1 - 1/(k+1)^2 satisfies the Blaschke condition; 1 - 1/(k+2) does not.
        fast = PointSequence(tuple(1.0 - 1.0 / (k + 1) ** 2 for k in range(1, 9)))
        slow = PointSequence(tuple(1.0 - 1.0 / (k + 2) for k in range(1, 9)))
        for seq in (fast, slow):
            for n in (1, 4, 8):
                d = diagnose_sequence(seq, n)
                assert d.frostman_min >= 0.5 * d.blaschke_sum - 1e-12

    def test_harmonic_partial_sums(self):
        seq = PointSequence(tuple(1.0 - 1.0 / (k + 2) for k in range(1, 9)))
        d = diagnose_sequence(seq, 8)
        assert d.blaschke_sum == pytest.approx(sum(1.0 / (k + 2) for k in range(1, 9)))

    def test_norm_identity_dual_route(self, seq_bracket):
        # sup of 1/|B_n'| equals 1 / (certified min of |B_n'|).
        for n in (2, 5, 8):
            d = diagnose_sequence(seq_bracket, n)

            def inv(theta):
                return 1.0 / np.asarray(
                    boundary_derivative_modulus(seq_bracket, n, theta)
                )

            _, sup = refined_maximum(inv)
            assert sup == pytest.approx(d.sup_inverse, abs=1e-9)

    def test_scan_shared_by_minimum_and_mean(self, seq_mixed):
        # The minimum is refined_minimum's and the mean is over its scan, exactly.
        grid = 2.0 * np.pi * np.arange(8192) / 8192
        for n in (3, 6):

            def ev(theta, n=n):
                return np.asarray(boundary_derivative_modulus(seq_mixed, n, theta))

            d = diagnose_sequence(seq_mixed, n)
            assert d.derivative_l1 == float(ev(grid).mean())
            assert (d.argmin_angle, d.frostman_min) == refined_minimum(ev)

    def test_order_validation(self, seq_short):
        with pytest.raises(ValueError):
            diagnose_sequence(seq_short, 0)

    def test_l1_drift_closed_form(self):
        # a_k = 1 - 2^-k: from n = 9 on the 8192-angle mean of |B_n'| drifts
        # off n by the closed form, and the diagnostics refuse it.
        seq = PointSequence(tuple(1.0 - 0.5**k for k in range(1, 13)))
        grid = 2.0 * np.pi * np.arange(8192) / 8192
        for n in (10, 11, 12):
            drift = boundary_derivative_modulus(seq, n, grid).mean() - n
            assert analysis._l1_drift(seq, n) == pytest.approx(drift, rel=1e-10, abs=1e-12)
            with pytest.raises(NoConvergence, match="misses order"):
                diagnose_sequence(seq, n)
        assert abs(diagnose_sequence(seq, 8).derivative_l1 - 8) < 1e-10


class TestConvergence:
    def test_constant_gives_zero_errors(self, seq_short):
        rows = convergence_experiment(constant_one(), seq_short, (1, 2, 3))
        for r in rows:
            assert r.error_sup < 1e-9
            assert r.error_l1 < 1e-9
            assert r.error_l2 < 1e-9

    def test_identity_respects_two_sided_bracket(self, seq_bracket):
        rows = convergence_experiment(identity_map(), seq_bracket, (1, 2, 4, 8))
        for r in rows:
            assert r.lower_sup - 1e-8 <= r.error_sup <= r.upper_sup + 1e-8
            assert r.lower_l1 - 1e-8 <= r.error_l1 <= r.upper_l1 + 1e-8

    def test_classical_identity_error_is_one_over_n(self):
        rows = convergence_experiment(identity_map(), zeros_sequence(8), (1, 2, 4, 8))
        for r in rows:
            assert r.error_sup == pytest.approx(1.0 / r.order, abs=1e-9)

    def test_row_fields_are_finite(self, seq_short):
        rows = convergence_experiment(mobius(0.3), seq_short, (1, 3))
        for r in rows:
            for v in r.to_row().values():
                assert np.isfinite(v)

    def test_order_validation(self, seq_short):
        with pytest.raises(ValueError):
            convergence_experiment(constant_one(), seq_short, (0,))

    @pytest.mark.parametrize("order", [32, 256])
    def test_norm_columns_match_a_fine_grid(self, order):
        # The scan's means against a 2^17-point trapezoid rule.
        rng = np.random.default_rng(order)
        a = 0.7 * np.sqrt(rng.random(order)) * np.exp(2j * np.pi * rng.random(order))
        seq = PointSequence(tuple(a))
        f = identity_map()
        (row,) = convergence_experiment(f, seq, [order])
        theta = 2.0 * np.pi * np.arange(1 << 17) / (1 << 17)
        t = np.exp(1j * theta)
        err = np.abs(f.value(t) - sigma_positive(f, TMBasis(seq, order), t))
        inv_l1 = float((1.0 / boundary_derivative_modulus(seq, order, theta)).mean())
        pm2 = float(np.prod(np.abs(a))) ** 2
        want = {
            "error_l1": float(err.mean()),
            "error_l2": float(np.sqrt((err**2).mean())),
            "upper_l1": 2.0 * inv_l1,
            "lower_l1": pm2 * inv_l1,
        }
        for key, value in want.items():
            assert getattr(row, key) == pytest.approx(value, rel=1e-13, abs=0.0), key

    def test_one_pass_reads_norms_off_its_scans(self, seq_bracket, monkeypatch):
        # Each refined search is one scan and six zoom rounds; no other grid.
        calls = {"_recurse": 0, "_frostman_prefixes": 0}
        for name in calls:
            inner = getattr(analysis, name)

            def counting(*args, name=name, inner=inner, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(analysis, name, counting)
        convergence_experiment(identity_map(), seq_bracket, (1, 2, 4, 8))
        assert calls == {"_recurse": 7, "_frostman_prefixes": 7}

    @pytest.mark.parametrize("orders", [[64, 65], [62, 64]], ids=["grid-step", "one-grid"])
    def test_orders_across_a_grid_step_share_a_pass(self, orders, monkeypatch):
        # A grid of max(4096, 64 n) points, rounded up to a power of two,
        # steps between n = 64 and 65; converge samples on no such grid, so
        # either pair of orders takes one pass.
        rng = np.random.default_rng(3)
        a = 0.6 * np.sqrt(rng.random(70)) * np.exp(2j * np.pi * rng.random(70))
        calls = []
        inner = analysis._recurse
        monkeypatch.setattr(
            analysis, "_recurse", lambda *args, **kw: calls.append(1) or inner(*args, **kw)
        )
        convergence_experiment(identity_map(), PointSequence(tuple(a)), orders)
        assert len(calls) == 7

    def test_poles_past_the_largest_order_change_no_bit(self):
        # No coefficient vector enters the rows: each order reads its own
        # poles alone, so a long tail neither changes a bit nor costs a sum.
        f, head = simple_pole(1.3), (0.5,) * 8
        want = convergence_experiment(f, PointSequence(head), [2, 4, 8])
        assert convergence_experiment(f, PointSequence(head + (0.3,) * 2000), [2, 4, 8]) == want
        assert convergence_experiment(f, PointSequence(head + (0.3,) * 2000), []) == []


class TestVoronovskaya:
    def test_rows_within_bound_and_extremal(self, seq_mixed):
        rows = voronovskaya_experiment(seq_mixed, 6, probes=6, trials=8, seed=4)
        assert len(rows) == 6
        for r in rows:
            assert r.random_max <= r.bound + 1e-7
            assert r.extremal_value == pytest.approx(r.bound, abs=1e-7)

    @pytest.mark.parametrize(
        "poles, order, probes, trials",
        [(MIXED, 6, 6, 8)]
        + [
            (tuple(NEAR_CIRCLE * turn), n, 4, 4)
            for turn in (1.0, np.exp(0.3j))
            for n in (10, 12)
        ],
        ids=["mixed", "near-10", "near-12", "rotated-10", "rotated-12"],
    )
    def test_random_max_matches_public_path(self, poles, order, probes, trials):
        # The gaps |B_n(z) g'(z)| against |delta(f) - f'| per trial, with the
        # densities redrawn from the same seed in the same order and sampled
        # on the default 4096 points, also for poles 1 - 2^-k: both read the
        # density's Taylor coefficients, with no quadrature.
        seq = PointSequence(poles)
        rows = voronovskaya_experiment(seq, order, probes=probes, trials=trials, seed=4)
        basis = TMBasis(seq, order)
        zs = interior_probes(probes)
        rng = np.random.default_rng(4)
        want = np.zeros(probes)
        for _ in range(trials):
            f = cauchy_transform(random_unit_density(rng))
            gap = np.abs(np.asarray(delta(f, basis, zs)) - np.asarray(f.derivative(zs)))
            want = np.maximum(want, gap)
        got = np.array([r.random_max for r in rows])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_extremal_matches_public_path(self, seq_mixed):
        # The traced gap |B_n(z) I(z)| against |delta(K) - K'| for K the
        # Cauchy transform of the Blaschke product over (a_0, ..., a_5, z).
        rows = voronovskaya_experiment(seq_mixed, 6, probes=6, trials=1, seed=4)
        basis = TMBasis(seq_mixed, 6)
        for r in rows:
            member = blaschke_multiple(seq_mixed.points[:6] + (r.z,))
            k = cauchy_transform(
                BoundaryGridFunction.from_callable(member.value, 4096)
            )
            want = abs(complex(delta(k, basis, r.z)) - complex(k.derivative(r.z)))
            assert r.extremal_value == pytest.approx(want, rel=1e-12)

    def test_no_trials_leaves_random_max_zero(self, seq_mixed):
        rows = voronovskaya_experiment(seq_mixed, 6, probes=4, trials=0, seed=4)
        assert [r.random_max for r in rows] == [0.0] * 4
        assert all(r.extremal_value == pytest.approx(r.bound, abs=1e-7) for r in rows)

    def test_one_recursion_at_the_probes(self, seq_mixed, monkeypatch):
        # B_n at the probes is the only evaluation: no density grid, no
        # weights and no B_n on the circle, in any module.
        calls = []
        inner = blaschke._recurse

        def recording(sequence, n, zf, **kwargs):
            calls.append((n, zf.copy(), kwargs))
            return inner(sequence, n, zf, **kwargs)

        for module in (analysis, blaschke, operators):
            monkeypatch.setattr(module, "_recurse", recording)
        for n in (2, 6):
            calls.clear()
            voronovskaya_experiment(seq_mixed, n, probes=4, trials=3, seed=1)
            assert len(calls) == 1
            order, zf, kwargs = calls[0]
            assert order == n and kwargs == {"jet": False}
            assert np.array_equal(zf, interior_probes(4))

    def test_order_validation(self, seq_mixed):
        for n in (0, len(seq_mixed) + 1):
            with pytest.raises(ValueError):
                voronovskaya_experiment(seq_mixed, n, probes=2, trials=1)

    def test_bound_decays_with_order(self, seq_mixed):
        # |B_n(z)| is non-increasing in n, so the theoretical bound decays.
        zs = interior_probes(6)
        prev = None
        for n in (2, 4, 6, 8):
            b = np.abs(eval_blaschke(seq_mixed, n, zs).value) / (
                1.0 - np.abs(zs) ** 2
            )
            if prev is not None:
                assert (b <= prev + 1e-12).all()
            prev = b


class TestSaturation:
    def test_error_at_least_node_floor(self, seq_mixed):
        rows = saturation_check(seq_mixed, 6)
        assert rows
        for r in rows:
            assert r.error_sup >= r.lower_bound - 1e-8, r.label

    def test_classical_equality_for_identity(self):
        for n in (1, 2, 5):
            rows = saturation_check(zeros_sequence(n), n, members=[identity_map()])
            (r,) = rows
            assert r.error_sup == pytest.approx(1.0 / n, abs=1e-10)
            assert r.lower_bound == pytest.approx(1.0 / n, abs=1e-10)

    def test_constant_floor_vanishes(self, seq_short):
        (r,) = saturation_check(seq_short, 3, members=[constant_one()])
        assert r.lower_bound == 0.0
        assert r.error_sup < 1e-9

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_error_sup_is_convergence_error_sup(self, seq_mixed, order):
        # Both take the sup from the same error map and the same refined search.
        members = [f for f in standard_corpus() if f.kind != "cauchy_transform"]
        rows = saturation_check(seq_mixed, order, members=members)
        for r, f in zip(rows, members, strict=True):
            assert r.error_sup == convergence_experiment(f, seq_mixed, [order])[0].error_sup, f.label


class TestCounterexample:
    def test_closed_form_and_kernel_contrast(self):
        # rusak_sup over the 256 circle points that the CLI uses as well.
        rows = cesaro_counterexample([0.5] * 4, (1, 2, 3, 4))
        for r in rows:
            assert r.excess == pytest.approx(r.closed_form, abs=1e-9)
            assert r.excess > 1.0
            assert r.rusak_sup == pytest.approx(1.0, abs=1e-12)
        assert rows[0].excess == pytest.approx(1.5, abs=1e-9)
        assert rows[1].excess == pytest.approx(1.375, abs=1e-9)

    def test_rejects_complex_or_exterior_values(self):
        with pytest.raises(ValueError):
            cesaro_counterexample([0.5, 0.3 + 0.2j], (1,))
        with pytest.raises(ValueError):
            cesaro_counterexample([-0.5], (1,))

    def test_order_validation(self):
        # An order past the sequence is named, whatever the other orders.
        with pytest.raises(ValueError, match="order 2 outside"):
            cesaro_counterexample([0.5], (2,))
        with pytest.raises(ValueError, match="order 5 outside"):
            cesaro_counterexample([0.5, 0.3], (1, 5))

    def test_poles_past_the_largest_order_change_no_bit(self):
        # c_k = conj(phi_k(0)) depends on a_0..a_k alone, so trailing poles
        # neither enter the rows nor cost a contour sum.
        values = [0.5, 0.3, 0.7, 0.1, 0.6, 0.2, 0.4, 0.8]
        tail = list(np.random.default_rng(3).uniform(0.0, 0.9, 2000))
        assert cesaro_counterexample(values + tail, [2, 5, 8]) == cesaro_counterexample(
            values, [2, 5, 8]
        )
        assert cesaro_counterexample(values + tail, []) == []

    @pytest.mark.parametrize(
        "values,order",
        [
            (NEAR_CIRCLE_39[:8], 8),
            (NEAR_CIRCLE_39[:10], 10),
            ([1.0 - 1.0 / (k + 1.0) for k in range(1, 65)], 64),
            (NEAR_CIRCLE_39[:30], 30),
            (NEAR_CIRCLE_39, 39),
        ],
        ids=["geometric-8", "geometric-10", "harmonic-64", "geometric-30", "geometric-39"],
    )
    def test_rusak_sup_is_one(self, values, order):
        # sigma_rusak(1) = 2 Re T(c) - 1 with the constant's exact
        # coefficients, so the sup is one to rounding even with a_39 within
        # 2^-39 of the circle.
        (row,) = cesaro_counterexample(values, [order])
        assert abs(row.rusak_sup - 1.0) <= 1e-12
        assert abs(row.excess - row.closed_form) <= 1e-12

    def test_rusak_sup_off_one_raises(self, monkeypatch):
        # The 1e-9 guard on sigma(1) = 1 stays as a residual check.
        inner = analysis._sigma_from_sums
        monkeypatch.setattr(analysis, "_sigma_from_sums", lambda *a: inner(*a) + 1e-6)
        with pytest.raises(NoConvergence, match="at order 4"):
            cesaro_counterexample([0.5] * 4, [4])


# A multi-order call returns exactly the rows of one call per order: the
# bundled sequences, a repeated pole, and orders far apart ("two-grids": 8
# and 100 lie on either side of the step of a max(4096, 64 n) grid).
HARMONIC = PointSequence(tuple(1.0 - 1.0 / (k + 1.0) for k in range(1, 101)))
REPEATED = (0.5, 0.3, 0.5, 0.5, 0.2)
MULTI_ORDER_CASES = [
    (PointSequence(BRACKET), [1, 2, 3, 4, 6, 8]),
    (PointSequence(MIXED), [2, 4, 8]),
    (HARMONIC, [1, 2, 4, 8, 12, 16]),
    (HARMONIC, [8, 100]),
    (PointSequence(REPEATED), [1, 2, 3, 4, 5]),
]
CASE_IDS = ["bracket", "mixed", "harmonic", "two-grids", "repeated"]


class TestOrdersInOnePass:
    @pytest.mark.parametrize("seq,orders", MULTI_ORDER_CASES, ids=CASE_IDS)
    def test_diagnostics(self, seq, orders):
        want = [diagnose_sequence(seq, n) for n in orders]
        assert analysis._diagnose_orders(seq, orders) == want

    def test_diagnostics_over_several_passes_in_any_order(self):
        orders = [16, *range(1, 13), 3]
        want = [diagnose_sequence(HARMONIC, n) for n in orders]
        assert analysis._diagnose_orders(HARMONIC, orders) == want

    @pytest.mark.parametrize("seq,orders", MULTI_ORDER_CASES, ids=CASE_IDS)
    def test_convergence(self, seq, orders):
        f = identity_map()
        want = [convergence_experiment(f, seq, [n])[0] for n in orders]
        assert convergence_experiment(f, seq, orders) == want

    @pytest.mark.parametrize(
        "values,orders",
        [([0.5] * 8, [1, 2, 3, 4, 6, 8]), ([0.5] * 100, [8, 100]), (REPEATED, [1, 2, 3, 4, 5])],
        ids=["bundled", "two-grids", "repeated"],
    )
    def test_counterexample(self, values, orders):
        want = [cesaro_counterexample(values, [n])[0] for n in orders]
        assert cesaro_counterexample(values, orders) == want

    def test_memory_flat_in_the_number_of_orders(self):
        rng = np.random.default_rng(1)
        seq = PointSequence(tuple(0.5 * rng.random(64) * np.exp(2j * np.pi * rng.random(64))))

        def peak(orders):
            tracemalloc.start()
            try:
                convergence_experiment(identity_map(), seq, orders)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(range(1, 65)) <= 1.1 * peak(range(57, 65))


class TestScanIdentities:
    """The identities that let one pass serve converge and counterexample."""

    @pytest.mark.parametrize(
        "seq,orders",
        [(PointSequence(BRACKET), [1, 2, 4, 8]), (PointSequence(tuple(NEAR_CIRCLE)), [8])],
        ids=["bracket", "geometric:0.5"],
    )
    @pytest.mark.parametrize(
        "f", [identity_map(), mobius(0.3), simple_pole(1.6)], ids=lambda f: f.label
    )
    def test_error_rows_equal_the_jet_recursion(self, seq, orders, f):
        # |B_n| = 1 and |B_n'| = the Frostman sum on the circle, so the error
        # rows |f' - B_n g'| / |B_n'| are |B_n / B_n'| |f' - B_n g'|.
        scan = -analysis._boundary_errors([f], seq, orders)[2][len(orders) :]
        t = np.exp(1j * analysis._scan_angles())
        for row, n in zip(scan, orders):
            b, bp, _, _ = blaschke._recurse(seq, n, t)
            ((kf, kg),) = operators._projections(f, seq, [n])
            want = np.abs(b / bp) * np.abs(operators._delta_at(f, kf, kg, t, b))
            assert (np.abs(row - want) <= 1e-14 * want).all(), n

    @pytest.mark.parametrize(
        "values", [[0.5] * 30, list(1.0 - 0.5 ** np.arange(1, 31))], ids=["constant", "geometric"]
    )
    def test_cesaro_gap_reads_the_blaschke_product(self, values):
        # 1 - S_n(c) is the constant's part in B_n H^2: conj(B_n(0)) B_n.
        # Within 3 scan steps of the angle 0 that geometric:0.5 approaches,
        # each side is up to 1.4e-14 off the 50-digit product at n = 30.
        seq, n = PointSequence(tuple(values)), 30
        c = np.conj(phi_values(TMBasis(seq, n), 0.0))
        t = np.exp(1j * analysis._scan_angles())
        block = np.stack([c, np.arange(n) * c], axis=1)
        b, _, s, _ = blaschke._recurse(seq, n, t, c=block, jet=False)
        b0 = np.prod(-np.asarray(values))
        gap = np.abs(np.conj(b0) * b - (1.0 - s[0]))
        assert gap[4:-3].max() <= 1e-14
        assert gap.max() <= 2e-14


def zoom_sizes(monkeypatch) -> list:
    """The number of angles that each zoom round sends through its function."""
    sizes, inner = [], quadrature._zoom

    def counting(fn, x, v, half):
        def counted(a):
            sizes.append(a.size)
            return fn(a)

        return inner(counted, x, v, half)

    monkeypatch.setattr(quadrature, "_zoom", counting)
    return sizes


class TestDistinctWindows:
    """Each refined search zooms every distinct (row, window) once."""

    def test_bundled_converge(self, monkeypatch):
        # Twelve rows; the Frostman rows' seeds are their own scan argmins,
        # and one error row's scan argmin is its seed: 17 windows, not 24.
        sizes = zoom_sizes(monkeypatch)
        convergence_experiment(identity_map(), PointSequence(BRACKET), [1, 2, 3, 4, 6, 8])
        assert sizes == [17 * 33] * 6

    def test_bundled_counterexample(self, monkeypatch):
        # Every gap but order 1's, a constant 1/2, peaks at the candidate pi.
        sizes = zoom_sizes(monkeypatch)
        cesaro_counterexample([0.5] * 8, [1, 2, 3, 4, 6, 8])
        assert sizes == [7 * 33] * 6


def frostman_reference(seq, orders):
    """The full-circle search of the Frostman sums: angles, minima and scan."""
    rows = lambda th: blaschke._frostman_prefixes(seq, orders, th)  # noqa: E731
    return analysis._refined_minima(rows, np.empty((len(orders), 0)))


REAL_LIST = [0.5, -0.6, 0.3, -0.2, 0.8, -0.75, 0.1, 0.4]


class TestHalfCircle:
    """Real poles make |B_n'| and the Cesaro gap even in the angle, so their
    searches scan [0, pi] and match the full circle."""

    @pytest.mark.parametrize(
        "values,orders",
        [
            ([0.5] * 30, [8, 10, 16, 30]),
            (list(NEAR_CIRCLE_39[:30]), [8, 10, 16, 30]),
            ([1.0 - 1.0 / (k + 1.0) for k in range(1, 17)], [1, 2, 4, 8, 12, 16]),
        ],
        ids=["constant", "geometric", "harmonic"],
    )
    def test_counterexample_equals_the_full_circle(self, values, orders):
        rows = cesaro_counterexample(values, orders)
        for row, n in zip(rows, orders):
            a = np.asarray(values[:n])
            seq = PointSequence(tuple(a))
            kc = np.arange(n) * np.conj(phi_values(TMBasis(seq, n), 0.0))
            b0 = np.cumprod(-a)[-1]

            def gap(theta, seq=seq, kc=kc, b0=b0, n=n):
                t = np.exp(1j * theta)
                b, _, s, _ = blaschke._recurse(seq, n, t, c=kc, jet=False, orders=[n])
                return -np.abs(b * b0 + s / n)

            _, v, _ = analysis._refined_minima(gap, np.array([[np.pi]]))
            assert row.excess == 1.0 - v[0], n

    @pytest.mark.parametrize(
        "seq,orders",
        [
            (HARMONIC, [1, 2, 4, 8, 12, 16]),
            (PointSequence(tuple(NEAR_CIRCLE[:8])), [2, 4, 8]),
            (PointSequence(tuple(REAL_LIST)), [2, 4, 8]),
            (PointSequence(tuple(-x for x in REAL_LIST)), [2, 4, 8]),
        ],
        ids=["harmonic", "geometric", "list", "negated"],
    )
    def test_frostman_on_real_poles(self, seq, orders):
        x, v, scan = frostman_reference(seq, orders)
        for j, row in enumerate(analysis._diagnose_orders(seq, orders)):
            assert row.frostman_min == pytest.approx(v[j], rel=1e-15, abs=0.0)
            assert abs(row.derivative_l1 - scan[j].mean()) <= 1e-13
            assert 0.0 <= row.argmin_angle <= np.pi

    def test_frostman_on_complex_poles_keeps_the_full_circle(self, seq_mixed):
        orders = [2, 4, 8]
        x, v, scan = frostman_reference(seq_mixed, orders)
        for j, row in enumerate(analysis._diagnose_orders(seq_mixed, orders)):
            assert (row.argmin_angle, row.frostman_min) == (x[j], v[j])
            assert row.derivative_l1 == scan[j].mean()

    @pytest.mark.parametrize("seed", range(8))
    def test_real_rows_of_a_mixed_pass_equal_their_one_order_call(self, seed):
        # The first four poles are real, the rest complex: rows 2 and 4 read
        # the half circle inside a full-circle pass, as on their own.
        rng = np.random.default_rng(seed)
        real = rng.uniform(-0.9, 0.9, 4)
        cplx = 0.8 * np.sqrt(rng.random(4)) * np.exp(2j * np.pi * rng.random(4))
        seq = PointSequence((*map(float, real), *map(complex, cplx)))
        orders = [2, 4, 8]
        want = [diagnose_sequence(seq, n) for n in orders]
        assert analysis._diagnose_orders(seq, orders) == want
