"""Corpus self-checks: derivative closures, class membership, transforms."""

import numpy as np
import pytest

from conftest import central_difference, circle_grid, schur_corpus
from tmfejer.analysis import interior_probes
from tmfejer.blaschke import PointSequence, eval_blaschke
from tmfejer.corpus import (
    _PEAK_SCAN,
    _peak_windows,
    _unit_densities,
    blaschke_multiple,
    cauchy_transform,
    constant_one,
    identity_map,
    mobius,
    polynomial,
    random_unit_density,
    rational_corpus,
    schur_product,
    simple_pole,
    standard_corpus,
)
from tmfejer.operators import AnalyticTestFunction
from tmfejer.quadrature import BoundaryGridFunction, _zoom, refined_maximum


class TestDerivativeClosures:
    def test_every_member_matches_central_difference(self):
        probes = interior_probes(8)
        for f in standard_corpus():
            for z in probes:
                fd = central_difference(f.value, complex(z))
                got = complex(np.asarray(f.derivative(np.asarray(z))))
                assert got == pytest.approx(fd, abs=2e-6), f.label


class TestClassMembership:
    def test_schur_members_bounded_by_one(self):
        zs = np.concatenate([interior_probes(16), circle_grid(64)])
        for f in schur_corpus():
            vals = np.abs(np.asarray(f.value(zs)))
            assert vals.max() <= 1.0 + 1e-10, f.label

    def test_blaschke_multiple_unimodular_scale(self):
        f = blaschke_multiple((0.4, -0.3j), scale=0.9)
        t = circle_grid(64)
        assert np.abs(np.abs(np.asarray(f.value(t))) - 0.9).max() < 1e-12

    def test_blaschke_values_equal_eval_blaschke(self):
        # The members take B without its derivative; B agrees bit for bit
        # across the recursion's modes, for arrays of any shape and scalars.
        points = (0.4, -0.3j, 0.2 + 0.5j)
        seq = PointSequence(points)
        z = np.concatenate([interior_probes(16), circle_grid(64)])
        members = ((schur_product(points), 1.0), (blaschke_multiple(points, scale=0.9), 0.9))
        for f, scale in members:
            want = scale * eval_blaschke(seq, 3, z).value
            assert np.array_equal(f.value(z), want), f.label
            assert np.array_equal(f.value(z.reshape(8, 10)), want.reshape(8, 10)), f.label
            got = f.value(complex(z[3]))
            assert np.ndim(got) == 0 and got == want[3], f.label
        with pytest.raises(ValueError):
            blaschke_multiple(()).value(0.1)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            AnalyticTestFunction(lambda z: z, lambda z: 1.0, kind="unknown")
        with pytest.raises(ValueError):
            AnalyticTestFunction(lambda z: z, lambda z: 1.0, kind="cauchy_transform", radius=np.inf)

    def test_holomorphic_members_need_a_radius(self):
        # Every member, a Cauchy transform too, is integrated on a contour
        # sized from its radius of analyticity; there is no default.
        for radius in (None, 1.0, 0.5, float("nan")):
            with pytest.raises(ValueError):
                AnalyticTestFunction(lambda z: z, lambda z: 1.0, kind="rational", radius=radius)

    def test_constructors_record_their_radius(self):
        assert constant_one().radius == identity_map().radius == np.inf
        assert polynomial((1.0, 2.0)).radius == np.inf
        assert mobius(0.0).radius == np.inf
        assert mobius(-0.4 + 0.3j).radius == pytest.approx(2.0)
        assert simple_pole(-1.25j).radius == pytest.approx(1.25)
        assert schur_product((0.2, -0.5j)).radius == pytest.approx(2.0)
        assert blaschke_multiple((0.4, -0.25j)).radius == pytest.approx(2.5)
        assert cauchy_transform(random_unit_density(np.random.default_rng(1))).radius == np.inf

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mobius(1.0)
        with pytest.raises(ValueError):
            simple_pole(0.5)
        with pytest.raises(ValueError):
            schur_product((0.5, 1.2))
        for bad in (complex("nan"), complex(0.5, float("nan"))):
            with pytest.raises(ValueError):
                mobius(bad)
            with pytest.raises(ValueError):
                simple_pole(bad)


class TestCauchyTransform:
    def test_reproduces_holomorphic_members(self):
        # K applied to the boundary trace is the identity on H^2.
        zs = interior_probes(12)
        for f in rational_corpus(8):
            trace = BoundaryGridFunction.from_callable(f.value, 4096)
            k = cauchy_transform(trace, label=f"K[{f.label}]")
            assert np.abs(
                np.asarray(k.value(zs)) - np.asarray(f.value(zs))
            ).max() < 1e-10, f.label
            assert np.abs(
                np.asarray(k.derivative(zs)) - np.asarray(f.derivative(zs))
            ).max() < 1e-9, f.label

    def test_kills_antiholomorphic_part(self):
        # K annihilates conj(t): the transform of t-bar is 0 in the disc.
        trace = BoundaryGridFunction.from_callable(np.conj, 4096)
        k = cauchy_transform(trace)
        zs = interior_probes(8)
        assert np.abs(np.asarray(k.value(zs))).max() < 1e-12

    def test_degree_six_member_near_the_circle(self):
        # K(mu) of a degree-6 density is sum_{m<=6} mu_m z^m; a quadrature
        # over the density's 4096 nodes misses it near the circle.
        (g,), (peak,) = _unit_densities(np.random.default_rng(2026), 1)
        mu = g[6:] / peak
        k = cauchy_transform(random_unit_density(np.random.default_rng(2026)))
        z = 0.9999 * np.exp(0.3j)
        value = np.polynomial.polynomial.polyval(z, mu)
        slope = np.polynomial.polynomial.polyval(z, np.arange(1, 7) * mu[1:])
        assert abs(k.value(z) - value) <= 1e-13 * abs(value)
        assert abs(k.derivative(z) - slope) <= 1e-13 * abs(slope)


def _sampled(drawn, resolution: int) -> np.ndarray:
    """The densities of `_unit_densities` as the columns of (resolution, count)
    samples: the zero-padded inverse FFT of `random_unit_density`."""
    g, peaks = drawn
    spectrum = np.zeros((resolution, len(g)), dtype=np.complex128)
    spectrum[np.arange(-6, 7)] = g.T
    return np.fft.ifft(spectrum, axis=0) * (resolution / peaks)


class TestRandomDensities:
    def test_unit_sup_after_normalization(self):
        rng = np.random.default_rng(3)
        mu = random_unit_density(rng, 4096)
        peak = np.abs(mu.samples).max()
        assert peak <= 1.0 + 1e-9
        assert peak > 0.95

    def test_matches_direct_sum(self):
        # The density against sum_m g_m e^{im theta} / peak, summed term by
        # term here with the peak refined on that sum.
        ms = np.arange(-6, 7)

        def direct(g, theta):
            return np.exp(1j * np.outer(np.asarray(theta).reshape(-1), ms)) @ g

        fine = 2.0 * np.pi * np.arange(2**16) / 2**16
        for seed in (0, 21, 2026):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal(ms.size) + 1j * rng.standard_normal(ms.size)
            _, peak = refined_maximum(lambda th: np.abs(direct(g, th)))
            mu = random_unit_density(np.random.default_rng(seed), 2048)
            assert np.abs(mu.samples - direct(g, mu.angles) / peak).max() < 1e-13
            # The samples fix the trigonometric polynomial; its sup on a fine grid.
            h = np.fft.fft(mu.samples)[ms] / mu.resolution
            assert np.abs(direct(h, fine)).max() <= 1.0 + 1e-9

    def test_seed_reproducibility(self):
        a = random_unit_density(np.random.default_rng(9), 1024)
        b = random_unit_density(np.random.default_rng(9), 1024)
        assert np.array_equal(a.samples, b.samples)

    def test_batch_equals_successive_draws(self):
        rng = np.random.default_rng(17)
        batch = _sampled(_unit_densities(rng, 12), 1024)
        after_batch = rng.standard_normal()
        rng = np.random.default_rng(17)
        one_by_one = np.stack([random_unit_density(rng, 1024).samples for _ in range(12)], axis=1)
        assert batch.shape == (1024, 12)
        assert np.abs(batch - one_by_one).max() < 1e-13
        assert rng.standard_normal() == after_batch

    def test_peaks_certified_on_a_fine_grid(self):
        # 500 draws: no sample of a 2^16-angle grid exceeds one.  The grid can
        # sit half a step (4.8e-5) off a peak and read up to 18 (4.8e-5)^2 =
        # 4e-8 below it, so the lower check refines around each grid maximum
        # with the coefficients read back from 16 of the samples.
        rng = np.random.default_rng(11)
        n, ms = 2**16, np.arange(-6, 7)
        step = 2.0 * np.pi / n
        for _ in range(50):
            mu = _sampled(_unit_densities(rng, 10), n)
            mod = np.abs(mu)
            assert mod.max() <= 1.0 + 1e-12
            h = (np.fft.fft(mu[:: n // 16], axis=0) / 16)[ms]
            around = step * (mod.argmax(axis=0) + np.linspace(-1.0, 1.0, 257)[:, None])
            local = np.abs(np.einsum("kcm,mc->kc", np.exp(1j * around[..., None] * ms), h))
            assert local.max(axis=0).min() >= 1.0 - 1e-9
            assert local.max() <= 1.0 + 1e-12

    def test_nearly_tied_peaks_take_the_higher(self):
        # Two Fejer bumps of degree 6, the higher midway between the scan
        # angles 100 and 101 of 512, the lower on scan angle 356 and 9.6e-5
        # below it: the scan's best point is on the lower bump, so a density
        # scaled by a one-window search would exceed one on the higher.
        ms = np.arange(-6, 7)
        h = 2.0 * np.pi / 512
        g = (1.0 - np.abs(ms) / 7.0) * (
            np.exp(-1j * ms * 100.5 * h) + 0.9999 * np.exp(-1j * ms * 356 * h)
        )
        scan = np.abs(np.exp(1j * np.outer(h * np.arange(512), ms)) @ g)
        assert scan.argmax() == 356

        class Drawn:
            """Hands out g as the generator's normals."""

            def standard_normal(self, size):
                return np.stack([g.real, g.imag]).reshape(size)

        mod = np.abs(_sampled(_unit_densities(Drawn(), 1), 2**16)[:, 0])
        assert mod.max() <= 1.0 + 1e-12
        assert abs(mod.argmax() / 2**16 * 512 - 100.5) < 1.0
        assert mod.max() >= 1.0 - 1e-7

    @pytest.mark.parametrize("seed", range(10))
    def test_in_place_horner_peaks_bit_for_bit(self, seed):
        # The peak search runs Horner's rule in place on one buffer; the
        # form that allocates two arrays per step gives the same peaks.
        def allocating(g, theta):
            w = np.exp(1j * theta)
            acc = np.broadcast_to(g[:, -1:], w.shape)
            for k in range(11, -1, -1):
                acc = g[:, k : k + 1] + acc * w
            return -np.abs(acc)

        for count in (1, 7):
            g, peaks = _unit_densities(np.random.default_rng(seed), count)
            x = _peak_windows(g)
            half = 2.0 * np.pi / _PEAK_SCAN
            _, v = _zoom(lambda th: allocating(g, th), x, np.full(x.shape, np.inf), half)
            assert peaks.tobytes() == (-v.min(axis=1)).tobytes()


class TestCorpusShape:
    def test_standard_corpus_mix(self):
        members = standard_corpus()
        kinds = {m.kind for m in members}
        assert len(members) == 12
        assert kinds == {"rational", "schur", "blaschke_multiple", "cauchy_transform"}
        assert len({m.label for m in members}) == len(members)

    def test_labels_tell_close_parameters_apart(self):
        # Labels are the shortest round-trip text of the parameter.
        assert simple_pole(1.0000001).label == "pole@1.0000001+0j"
        assert simple_pole(1.004).label == "pole@1.004+0j"
        assert mobius(0.30000001).label != mobius(0.3).label
        labels = [m.label for m in standard_corpus()]
        for label in ("pole@1.6+0j", "pole@-0-1.25j", "mobius@0.3+0j", "mobius@-0.4+0.2j"):
            assert label in labels

    def test_rational_corpus_is_circle_safe(self):
        t = circle_grid(32)
        for f in rational_corpus(10):
            vals = np.asarray(f.value(t))
            assert np.isfinite(vals).all(), f.label

    def test_rational_corpus_count_validation(self):
        with pytest.raises(ValueError):
            rational_corpus(0)
        with pytest.raises(ValueError):
            rational_corpus(99)

    def test_constant_and_identity_frozen(self):
        assert complex(np.asarray(constant_one().value(0.3j))) == 1.0 + 0j
        assert complex(np.asarray(identity_map().value(0.3j))) == 0.3j
        assert complex(np.asarray(polynomial((1.0, 2.0)).derivative(0.5))) == 2.0 + 0j
