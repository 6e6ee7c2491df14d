"""Boundary grids, grid norms, refined extrema by grid scan and zoom."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfejer.quadrature import (
    _HALF,
    BoundaryGridFunction,
    _refined_minima,
    _scan_angles,
    _zoom,
    next_power_of_two,
    norms,
    refined_maximum,
    refined_minimum,
)


class TestGridFunction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BoundaryGridFunction(np.ones(24))
        with pytest.raises(ValueError):
            BoundaryGridFunction(np.ones(8))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            BoundaryGridFunction(np.ones((4, 8)))

    def test_points_lie_on_circle(self):
        f = BoundaryGridFunction.from_callable(lambda z: z, 32)
        assert np.abs(np.abs(f.points) - 1.0).max() < 1e-15
        assert np.abs(f.samples - f.points).max() == 0.0

    def test_samples_read_only(self):
        f = BoundaryGridFunction.from_callable(lambda z: z, 16)
        with pytest.raises(ValueError):
            f.samples[0] = 0.0


class TestIntegrate:
    def test_norm_report_hand_value(self):
        f = BoundaryGridFunction.from_callable(lambda z: z + 1.0, 4096)
        rep = norms(f)
        assert rep.sup_norm == pytest.approx(2.0, abs=1e-6)
        # (1/2pi) integral |1 + e^{ix}| dx = 4/pi.
        assert rep.l1_norm == pytest.approx(4.0 / np.pi, abs=1e-6)
        assert rep.l2_norm == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        vals=st.lists(
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            min_size=16,
            max_size=16,
        )
    )
    def test_norm_ordering(self, vals):
        rep = norms(BoundaryGridFunction(np.asarray(vals)))
        assert rep.l1_norm <= rep.l2_norm + 1e-12
        assert rep.l2_norm <= rep.sup_norm + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        vals=st.lists(
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            min_size=16,
            max_size=16,
        ),
        scale=st.floats(min_value=1.0, max_value=3.0),
    )
    def test_norms_monotone_under_domination(self, vals, scale):
        a = np.asarray(vals)
        small, big = norms(BoundaryGridFunction(a)), norms(BoundaryGridFunction(scale * a))
        assert small.sup_norm <= big.sup_norm + 1e-12
        assert small.l1_norm <= big.l1_norm + 1e-12
        assert small.l2_norm <= big.l2_norm + 1e-12


class TestRefinement:
    def test_refined_minimum_cosine(self):
        x, v = refined_minimum(lambda th: 2.0 + np.cos(th - 0.7))
        assert v == pytest.approx(1.0, abs=1e-12)
        assert x == pytest.approx(0.7 + np.pi, abs=1e-6)

    def test_refined_maximum_cosine(self):
        x, v = refined_maximum(lambda th: 2.0 + np.cos(th - 0.7))
        assert v == pytest.approx(3.0, abs=1e-12)
        assert x == pytest.approx(0.7, abs=1e-6)

    def test_refinement_not_worse_than_grid(self):
        def ev(th):
            return np.asarray(np.abs(np.sin(3 * th)) + 0.1 * np.cos(th))

        grid = 2.0 * np.pi * np.arange(8192) / 8192
        _, v = refined_minimum(ev)
        assert v <= ev(grid).min() + 1e-15

    def test_candidate_window_finds_narrow_bump(self):
        # A bump of width 1e-4 midway between two of the 8192 scan angles
        # (step 7.7e-4) adds under 1e-5 at either; the scan keeps the
        # cosine's peak at 0.  The candidate sits off the bump's centre, so
        # only the zoom on its window reaches the top.
        step = 2.0 * np.pi / 8192
        c = 0.5 * np.pi + 0.5 * step

        def ev(th):
            return 5.0 * np.exp(-(((th - c) / 1e-4) ** 2)) + np.cos(th)

        _, v = refined_maximum(ev)
        assert v == pytest.approx(1.0, abs=1e-12)
        x, v = refined_maximum(ev, candidates=(c + 5e-5,))
        assert x == pytest.approx(c, abs=1e-8)
        assert v == pytest.approx(5.0 + np.cos(c), abs=1e-8)

    def test_zoom_reaches_tolerance(self):
        # A corner pins the argmin where a smooth minimum leaves it flat to
        # sqrt(eps); the zoom stops below a half-width of 1e-10.
        c = 1.234567
        x, v = refined_minimum(lambda th: np.abs(np.sin(0.5 * (th - c))))
        assert x == pytest.approx(c, abs=1e-10)
        assert v < 1e-10

    def test_zoom_is_a_few_array_calls(self):
        # The scan plus six zoom rounds; every window is sampled in the same
        # call, so no call evaluates a lone angle.
        sizes = []

        def ev(th):
            sizes.append(np.asarray(th).size)
            return np.cos(th - 0.7) + 0.1 * np.cos(5 * th)

        refined_minimum(ev, candidates=(1.0, 4.0))
        assert len(sizes) <= 7
        assert min(sizes) >= 33

    def test_zoom_rows_are_independent(self):
        # Three functions with two windows each zoom as three one-row calls.
        shifts = np.array([[0.7], [2.0], [-1.1]])

        def ev(th):
            return np.cos(th - shifts[: th.shape[0]]) + 0.1 * np.cos(5 * th)

        x0 = np.array([[3.5, 1.0], [5.0, 4.0], [2.0, 0.3]])
        v0 = np.array([[np.inf, 0.2], [np.inf, np.inf], [-0.5, np.inf]])
        x, v = _zoom(ev, x0, v0, 0.05)
        for f in range(3):

            def one(th, f=f):
                return np.cos(th - shifts[f]) + 0.1 * np.cos(5 * th)

            xf, vf = _zoom(one, x0[f : f + 1], v0[f : f + 1], 0.05)
            assert np.array_equal(x[f : f + 1], xf)
            assert np.array_equal(v[f : f + 1], vf)


SHIFTS = np.array([0.7, 2.0, -1.1])


def shifted(th):
    """Three functions of the flat angles th, row f with its minimum at SHIFTS[f] + pi."""
    return np.cos(th - SHIFTS[:, None]) + 0.1 * np.cos(5 * th)


class TestDistinctWindows:
    def counted(self, sizes):
        def ev(th):
            sizes.append(th.size)
            return shifted(th)

        return ev

    def test_candidate_at_the_scan_argmin_adds_no_window(self):
        # Each row's candidate is its own scan argmin: a zoom round sends one
        # window per row, F * 33 angles, and nothing moves against the
        # search without candidates.
        scan = shifted(_scan_angles())
        cands = _scan_angles()[scan.argmin(axis=1)][:, None]
        sizes = []
        x, v, _ = _refined_minima(self.counted(sizes), cands)
        assert sizes == [8192] + [3 * 33] * 6
        x0, v0, _ = _refined_minima(shifted, np.empty((3, 0)))
        assert np.array_equal(x, x0) and np.array_equal(v, v0)

    def test_a_candidate_elsewhere_keeps_its_window(self):
        scan = shifted(_scan_angles())
        cands = _scan_angles()[scan.argmin(axis=1)][:, None]
        cands[1, 0] = 1.0
        sizes = []
        _refined_minima(self.counted(sizes), cands)
        assert sizes == [8192] + [4 * 33] * 6

    def test_a_tie_keeps_the_scan_window(self):
        # Two plateaus at -1: the candidate's window moves to its first
        # sample and ends at the same value, so the scan argmin stays.
        def ev(th):
            flat = (np.abs(th - 1.0) < 1e-3) | (np.abs(th - 4.0) < 1e-3)
            return np.where(flat, -1.0, np.cos(th))[None]

        x0 = _scan_angles()[ev(_scan_angles())[0].argmin()]
        x, v, _ = _refined_minima(ev, np.array([[4.0]]))
        assert (x[0], v[0]) == (x0, -1.0)

    def test_a_half_scan_on_an_even_function(self):
        # The first _HALF scan angles cover [0, pi]; an even function keeps
        # its minimum there and reaches the full scan's value.
        def ev(th):
            return (0.5 * np.cos(th) ** 2 + 0.2 * np.cos(3 * th))[None]

        half = ev(_scan_angles()[:_HALF])
        x, v, scan = _refined_minima(ev, np.empty((1, 0)), half)
        assert scan.shape == (1, _HALF) and 0.0 <= x[0] <= np.pi
        assert v[0] == pytest.approx(_refined_minima(ev, np.empty((1, 0)))[1][0], abs=1e-15)


class TestResolutions:
    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(4095) == 4096
        assert next_power_of_two(4096) == 4096
        assert next_power_of_two(4097) == 8192
