"""Basis functions, extended boundary system, Christoffel-Darboux kernel."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import angles, central_difference, circle_grid, disc_points, small_sequences
from tmfejer.blaschke import PointSequence, eval_blaschke
from tmfejer.tm_basis import DiagonalSingularity, TMBasis, cd_kernel, phi_jet, phi_values


class TestBasisConstruction:
    def test_order_bounds(self, seq_short):
        TMBasis(seq_short, 1)
        TMBasis(seq_short, 3)
        for n in (0, -1, 4):
            with pytest.raises(ValueError):
                TMBasis(seq_short, n)


class TestPhiValues:
    def test_first_function_frozen(self):
        # phi_0(0) = sqrt(1 - 0.25) for a_0 = 0.5.
        basis = TMBasis(PointSequence((0.5,)), 1)
        assert phi_values(basis, 0.0)[0] == pytest.approx(np.sqrt(0.75), abs=1e-15)

    def test_monomial_reduction(self):
        basis = TMBasis(PointSequence((0.0,) * 5), 5)
        z = 0.3 - 0.2j
        vals = phi_values(basis, z)
        assert np.abs(vals - z ** np.arange(5)).max() < 1e-14

    def test_orthonormal_on_default_grid(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        t = circle_grid(4096)
        vals = phi_values(basis, t)
        gram = (vals @ vals.conj().T) / t.size
        assert np.abs(gram - np.eye(8)).max() < 1e-8

    def test_jet_derivative_against_central_difference(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        z = 0.3 + 0.25j
        _, ders, _, _ = phi_jet(basis, z)
        for k in range(8):
            fd = central_difference(lambda w, k=k: phi_values(basis, w)[k], z)
            assert ders[k] == pytest.approx(fd, abs=5e-9)


class TestExtendedSystem:
    def test_extended_orthonormality(self, seq_short):
        # The 2n - 1 functions phi_k, |k| < n, stay orthonormal on the circle.
        basis = TMBasis(seq_short, 3)
        t = circle_grid(4096)
        # phi_{-k}(t) = conj(t * phi_{k-1}(t)) for k = 1, 2.
        vals = phi_values(basis, t)
        rows = np.concatenate([np.conj(t * vals[1::-1]), vals])
        gram = (rows @ rows.conj().T) / t.size
        assert np.abs(gram - np.eye(5)).max() < 1e-10


class TestChristoffelDarboux:
    def test_closed_form_matches_explicit_sum(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        rng = np.random.default_rng(5)
        for _ in range(25):
            z, t = (
                complex(r * np.exp(2j * np.pi * p))
                for r, p in rng.uniform(0, 0.95, (2, 2))
            )
            explicit = (phi_values(basis, z) * np.conj(phi_values(basis, t))).sum()
            assert cd_kernel(basis, z, t) == pytest.approx(explicit, abs=1e-10)

    def test_diagonal_frozen_value(self):
        # n = 1, a = 0.5, t = 1: (1 - 0.25)/|1 - 0.5|^2 = 3.
        basis = TMBasis(PointSequence((0.5,)), 1)
        diagonal = (np.abs(phi_values(basis, 1.0 + 0j)) ** 2).sum()
        assert diagonal == pytest.approx(3.0, abs=1e-12)

    def test_diagonal_matches_derivative_modulus(self, seq_mixed):
        basis = TMBasis(seq_mixed, 8)
        t = circle_grid(16)
        direct = np.abs(eval_blaschke(seq_mixed, 8, t).derivative)
        diagonal = (np.abs(phi_values(basis, t)) ** 2).sum(axis=0)
        assert np.abs(diagonal - direct).max() < 1e-12

    def test_coincidence_guard(self, seq_short):
        # The quotient blows up where z * conj(t) = 1: equal boundary points,
        # or reflected pairs z = 1/conj(t).  Interior coincidence is regular.
        basis = TMBasis(seq_short, 3)
        t = np.exp(0.3j)
        with pytest.raises(DiagonalSingularity):
            cd_kernel(basis, t, t)
        w = 0.4 + 0.1j
        with pytest.raises(DiagonalSingularity):
            cd_kernel(basis, 1.0 / np.conj(w), w)
        interior = cd_kernel(basis, w, w)
        assert np.isfinite(interior) and interior.real > 0

    @settings(max_examples=40, deadline=None)
    @given(seq=small_sequences(4), z=disc_points(0.8), t=disc_points(0.8))
    def test_hermitian_symmetry(self, seq, z, t):
        if abs(z - t) < 1e-6:
            return
        basis = TMBasis(seq, len(seq))
        assert cd_kernel(basis, z, t) == pytest.approx(
            np.conj(cd_kernel(basis, t, z)), abs=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(seq=small_sequences(4), x=angles())
    def test_diagonal_positive(self, seq, x):
        basis = TMBasis(seq, len(seq))
        t = complex(np.exp(1j * x))
        assert (np.abs(phi_values(basis, t)) ** 2).sum() > 0.0
