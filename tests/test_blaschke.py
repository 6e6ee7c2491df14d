"""Blaschke product evaluation against independent oracles.

Derivatives are checked by central differences, and the closed-form
constants were computed by hand from the defining formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import angles, central_difference, disc_points, small_sequences
from tmfejer import blaschke
from tmfejer.blaschke import (
    PointSequence,
    PoleProximity,
    _frostman_prefixes,
    _recurse,
    boundary_derivative_modulus,
    eval_blaschke,
)


def long_sequence() -> PointSequence:
    """128 poles with 0.5 <= |a_k| < 0.9, a_7 repeated as a_40."""
    rng = np.random.default_rng(22)
    a = (0.5 + 0.4 * rng.random(128)) * np.exp(2j * np.pi * rng.random(128))
    a[40] = a[7]
    return PointSequence(tuple(a))


class TestPointSequence:
    def test_rejects_boundary_modulus(self):
        with pytest.raises(ValueError):
            PointSequence((1.0,))
        with pytest.raises(ValueError):
            PointSequence((0.5, 1.0 - 1e-13))

    @pytest.mark.parametrize("bad", [complex("nan"), complex(0.5, float("nan"))])
    def test_rejects_nan(self, bad):
        # NaN fails every comparison, so the check must be "not |a| < bound".
        with pytest.raises(ValueError):
            PointSequence((bad,))

    def test_coerces_real_entries(self):
        seq = PointSequence((0.5, 0, -0.25))
        assert seq.points[1] == 0j
        assert seq.as_array().dtype == np.complex128

    def test_length_and_indexing(self):
        seq = PointSequence((0.1, 0.2j))
        assert len(seq) == 2
        assert seq.points[1] == 0.2j


class TestEvalBlaschke:
    def test_monomial_reduction(self):
        # a == 0 collapses B_n to z^n.
        seq = PointSequence((0.0,) * 4)
        be = eval_blaschke(seq, 3, 0.5)
        assert be.value == pytest.approx(0.125)
        assert be.derivative == pytest.approx(0.75)

    def test_derivative_against_central_difference(self, seq_mixed):
        for z in (0.3 + 0.25j, -0.6, 0.1 - 0.7j, 0.0):
            be = eval_blaschke(seq_mixed, 8, z)
            fd = central_difference(lambda w: eval_blaschke(seq_mixed, 8, w).value, z)
            assert be.derivative == pytest.approx(fd, abs=5e-9)

    def test_derivative_at_a_zero_of_the_product(self, seq_mixed):
        # B vanishes at each a_j; the recursion never divides by z - a_j,
        # so the derivative there must still match the difference oracle.
        for j in (0, 3, 5):
            z = seq_mixed.points[j]
            be = eval_blaschke(seq_mixed, 8, z)
            assert abs(be.value) < 1e-15
            fd = central_difference(lambda w: eval_blaschke(seq_mixed, 8, w).value, z)
            assert be.derivative == pytest.approx(fd, abs=5e-9)

    def test_pole_proximity_raised(self):
        seq = PointSequence((0.5,))
        with pytest.raises(PoleProximity):
            eval_blaschke(seq, 1, 2.0)

    def test_order_validation(self, seq_short):
        # Orders run over 1..len(sequence); B_0 = 1 is only the recursion's start.
        for n in (0, -1, 4):
            with pytest.raises(ValueError):
                eval_blaschke(seq_short, n, 0.1)
            with pytest.raises(ValueError):
                boundary_derivative_modulus(seq_short, n, 0.0)

    def test_broadcasting(self, seq_short):
        z = np.array([[0.1, 0.2j], [0.3, -0.4]])
        be = eval_blaschke(seq_short, 3, z)
        assert be.value.shape == z.shape
        assert isinstance(eval_blaschke(seq_short, 3, 0.1).value, complex)

    @settings(max_examples=60, deadline=None)
    @given(seq=small_sequences(), z=disc_points(0.8))
    def test_modulus_below_one_inside(self, seq, z):
        be = eval_blaschke(seq, len(seq), z)
        assert abs(be.value) <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seq=small_sequences(), x=angles())
    def test_unimodular_on_circle(self, seq, x):
        t = complex(np.exp(1j * x))
        be = eval_blaschke(seq, len(seq), t)
        assert abs(be.value) == pytest.approx(1.0, abs=1e-10)


class TestBoundaryDensities:
    def test_frozen_frostman_value(self):
        # sum (1 - 0.81) / |1 - 0.9|^2 twice = 2 * 0.19 / 0.01.
        seq = PointSequence((0.9, 0.9))
        assert boundary_derivative_modulus(seq, 2, 0.0) == pytest.approx(38.0, abs=1e-9)

    def test_matches_derivative_modulus_on_circle(self, seq_mixed):
        xs = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
        direct = np.abs(eval_blaschke(seq_mixed, 8, np.exp(1j * xs)).derivative)
        assert np.abs(
            direct - boundary_derivative_modulus(seq_mixed, 8, xs)
        ).max() < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seq=small_sequences(), x=angles())
    def test_derivative_argument_identity(self, seq, x):
        # t B'(t) / B(t) is real and equals |B'(t)| on the circle.
        t = complex(np.exp(1j * x))
        be = eval_blaschke(seq, len(seq), t)
        val = t * be.derivative / be.value
        assert abs(val.imag) < 1e-9
        assert val.real == pytest.approx(abs(be.derivative), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seq=small_sequences())
    def test_frostman_dominates_half_blaschke_sum(self, seq):
        n = len(seq)
        xs = 2.0 * np.pi * np.arange(512) / 512
        frostman = np.asarray(boundary_derivative_modulus(seq, n, xs))
        half_sum = 0.5 * (1.0 - np.abs(seq.as_array())).sum()
        assert frostman.min() >= half_sum - 1e-12


class TestOrdersInOnePass:
    # A repeated order: two snapshots at the same order.
    ORDERS = [1, 3, 3, 8]

    def test_columns_equal_one_order_calls(self, seq_mixed):
        rng = np.random.default_rng(4)
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        # Circle and interior points, and a_2, a zero of B_n from n = 3 on.
        zf = np.concatenate(
            [np.exp(2j * np.pi * np.arange(16) / 16), 0.6 * np.exp(1j * np.arange(5.0))]
        )
        zf = np.append(zf, seq_mixed.points[2])
        many = _recurse(seq_mixed, 8, zf, c=c, orders=self.ORDERS)
        for j, n in enumerate(self.ORDERS):
            one = _recurse(seq_mixed, n, zf, c=c[:n])
            for got, want in zip(many, one):
                assert got[j].tobytes() == want.tobytes()
        assert np.all(many[0][1:, -1] == 0.0)

    def test_pole_proximity_names_the_same_pole(self, seq_short):
        z = np.array([0.2, 1.0 / np.conj(seq_short.points[1])])
        c = np.ones(3, dtype=np.complex128)
        with pytest.raises(PoleProximity) as one:
            _recurse(seq_short, 3, z, c=c)
        with pytest.raises(PoleProximity) as many:
            _recurse(seq_short, 3, z, c=c, orders=[1, 2, 3])
        assert "phi_1" in str(one.value)
        assert str(many.value) == str(one.value)
        # Past the first block of poles: on _BLOCK // 40 points the 128
        # poles come 40 at a time, the poles of phi_100 and phi_110 lie in
        # the third block and that of phi_120 in the fourth; phi_100 fires first.
        seq = long_sequence()
        z = 0.5 * np.exp(1j * np.arange(blaschke._BLOCK // 40))
        z[[1, 2, 3]] = [1.0 / np.conj(seq.points[k]) for k in (110, 120, 100)]
        assert blaschke._BLOCK // z.size <= 40
        c = np.ones(128, dtype=np.complex128)
        with pytest.raises(PoleProximity) as one:
            _recurse(seq, 128, z, c=c)
        with pytest.raises(PoleProximity) as many:
            _recurse(seq, 128, z, c=c, orders=[1, 64, 128])
        assert str(one.value).endswith("phi_100")
        assert str(many.value) == str(one.value)

    def test_frostman_prefixes_equal_one_order_sums(self, seq_mixed):
        ang = 2.0 * np.pi * np.arange(33) / 33
        rows = _frostman_prefixes(seq_mixed, self.ORDERS, ang)
        for row, n in zip(rows, self.ORDERS):
            assert row.tobytes() == boundary_derivative_modulus(seq_mixed, n, ang).tobytes()

    def test_scalar_angle_equals_array_element(self):
        # A single angle takes the same running sum as an array of angles.
        rng = np.random.default_rng(11)
        poles = 0.9 * np.sqrt(rng.random(16)) * np.exp(2j * np.pi * rng.random(16))
        seq = PointSequence(tuple(poles))
        ang = 2.0 * np.pi * rng.random(200)
        for n in (8, 9, 16):
            many = boundary_derivative_modulus(seq, n, ang)
            one = np.array([boundary_derivative_modulus(seq, n, x) for x in ang])
            assert one.tobytes() == many.tobytes()


class TestCoefficientBlocks:
    """A block of K coefficient vectors gives K sums in one pass, each
    column bit for bit the one-column call."""

    @pytest.mark.parametrize("jet", [True, False], ids=["derivatives", "sums"])
    @pytest.mark.parametrize("orders", [None, [1, 3, 3, 8]], ids=["one-order", "snapshots"])
    @pytest.mark.parametrize("npts", [1, 2, 22])
    def test_columns_equal_one_column_calls(self, seq_mixed, jet, orders, npts):
        rng = np.random.default_rng(9)
        c = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        # Circle and interior points, and a_2, a zero of B_n from n = 3 on.
        zf = np.append(0.8 * np.exp(1j * np.arange(npts - 1.0)), seq_mixed.points[2])
        b, bp, s, sp = _recurse(seq_mixed, 8, zf, jet=jet, c=c, orders=orders)
        assert s.shape == (3,) + np.shape(b)
        assert (bp is None, sp is None) == (not jet, not jet)
        for j in range(3):
            one = _recurse(seq_mixed, 8, zf, jet=jet, c=c[:, j].copy(), orders=orders)
            assert one[0].tobytes() == b.tobytes()
            assert one[2].tobytes() == s[j].tobytes()
            if jet:
                assert one[1].tobytes() == bp.tobytes()
                assert one[3].tobytes() == sp[j].tobytes()


class TestPoleBlocks:
    """The factors of K poles formed at once change no bit: a budget of
    one value per block, which holds one pole per block, gives the bytes
    of the default budget in every mode."""

    C = np.array([1.0, 1j]) @ np.random.default_rng(5).normal(size=(2, 128))
    MODES = {
        "B": dict(jet=False),
        "B and B'": dict(),
        "rows": dict(rows=True, jet=False),
        "rows and derivatives": dict(rows=True),
        "sums": dict(c=C, jet=False),
        "sums and derivatives": dict(c=C),
        "snapshots": dict(c=C, orders=[1, 40, 41, 41, 100, 128]),
        "block snapshots": dict(
            c=np.stack([C, 2.0 * C], axis=1), jet=False, orders=[1, 40, 41, 41, 100, 128]
        ),
    }

    @pytest.mark.parametrize("mode", list(MODES))
    def test_one_pole_per_block_gives_the_same_bytes(self, monkeypatch, mode):
        seq = long_sequence()
        # Circle points, interior points, the repeated pole a_7 = a_40 and
        # the pole a_90, on _BLOCK // 50 points: blocks of 50, 50 and 28 poles.
        npts = blaschke._BLOCK // 50
        z = 0.95 * np.sqrt(np.linspace(0.0, 1.0, npts)) * np.exp(1j * np.arange(npts))
        z[: npts // 2] = np.exp(2j * np.pi * np.arange(npts // 2) / (npts // 2))
        z[[-1, -2]] = seq.points[7], seq.points[90]
        assert -(-128 // (blaschke._BLOCK // npts)) >= 3
        blocked = _recurse(seq, 128, z, **self.MODES[mode])
        monkeypatch.setattr(blaschke, "_BLOCK", 1)
        single = _recurse(seq, 128, z, **self.MODES[mode])
        for got, want in zip(blocked, single):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()
        # B_128 vanishes at a_7 and at a_90.
        assert np.all(np.atleast_2d(blocked[0])[-1, -2:] == 0.0)
