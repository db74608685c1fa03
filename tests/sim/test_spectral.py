"""Tests for spectral utilities."""

import numpy as np
import pytest

from repro.sim.spectral import (
    dissipation_rate,
    divergence,
    enstrophy,
    gradient,
    radial_energy_spectrum,
    solenoidal_random_field,
    spectral_gradient,
    von_karman_spectrum,
    vorticity,
    wavenumber_grid,
    wavenumber_magnitude,
)

SHAPE = (16, 16, 16)


class TestWavenumbers:
    def test_grid_shapes_broadcast(self):
        ks = wavenumber_grid(SHAPE)
        assert ks[0].shape == (16, 1, 1)
        assert ks[1].shape == (1, 16, 1)
        assert ks[2].shape == (1, 1, 9)  # rfft layout

    def test_magnitude_zero_at_origin(self):
        kmag = wavenumber_magnitude(SHAPE)
        assert kmag[0, 0, 0] == 0.0
        assert kmag.max() > 8

    def test_full_layout(self):
        ks = wavenumber_grid((8, 8), real=False)
        assert ks[1].shape == (1, 8)


class TestVonKarman:
    def test_peak_near_k_peak(self):
        k = np.linspace(0.1, 40, 400)
        spec = von_karman_spectrum(k, k_peak=4.0)
        assert 2.0 < k[np.argmax(spec)] < 8.0

    def test_inertial_range_slope(self):
        """Far above the peak the log-slope approaches -5/3."""
        k = np.array([40.0, 80.0])
        spec = von_karman_spectrum(k, k_peak=2.0)
        slope = np.log(spec[1] / spec[0]) / np.log(2.0)
        assert slope == pytest.approx(-5.0 / 3.0, abs=0.05)

    def test_cutoff_suppresses_high_k(self):
        with_cut = von_karman_spectrum(np.array([20.0]), k_peak=4.0, k_eta=8.0)
        without = von_karman_spectrum(np.array([20.0]), k_peak=4.0)
        assert with_cut < 1e-3 * without

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            von_karman_spectrum(np.array([1.0]), k_peak=0.0)
        with pytest.raises(ValueError):
            von_karman_spectrum(np.array([1.0]), k_eta=-1.0)


class TestSolenoidalField:
    def test_divergence_free(self):
        u, v, w = solenoidal_random_field(SHAPE, rng=0)
        div = divergence(u, v, w)
        assert np.abs(div).max() < 1e-10 * max(1.0, np.abs(u).max())

    def test_unit_rms(self):
        u, v, w = solenoidal_random_field(SHAPE, rng=1)
        rms = np.sqrt(np.mean(u**2 + v**2 + w**2))
        assert rms == pytest.approx(1.0)

    def test_spectrum_matches_target(self):
        u, v, w = solenoidal_random_field((32, 32, 32), k_peak=4.0, rng=2)
        k, spec = radial_energy_spectrum(u, v, w)
        # Spectral peak lands near k_peak.
        k_at_max = k[1:][np.argmax(spec[1:])]
        assert 2.0 <= k_at_max <= 7.0

    def test_anisotropy_suppresses_component(self):
        # The Leray projection couples components, so the requested 0.2 ratio
        # is diluted — but the vertical component must still be clearly weaker.
        u, v, w = solenoidal_random_field(SHAPE, anisotropy=(1.0, 1.0, 0.2), rng=3)
        assert w.std() < 0.7 * u.std()

    def test_deterministic(self):
        a = solenoidal_random_field(SHAPE, rng=5)
        b = solenoidal_random_field(SHAPE, rng=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            solenoidal_random_field((16, 16))  # type: ignore[arg-type]


class TestRadialSpectrum:
    def test_single_mode_lands_in_right_shell(self):
        n = 16
        x = np.linspace(0, 2 * np.pi, n, endpoint=False)
        field = np.sin(3 * x)[:, None, None] * np.ones((1, n, n))
        k, spec = radial_energy_spectrum(field)
        assert np.argmax(spec) == 3

    def test_parseval(self):
        """Total spectral energy equals mean physical kinetic energy."""
        rng = np.random.default_rng(6)
        u = rng.standard_normal(SHAPE)
        k, spec = radial_energy_spectrum(u)
        assert spec.sum() == pytest.approx(0.5 * np.mean(u**2), rel=1e-10)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            radial_energy_spectrum(np.zeros((4, 4, 4)), np.zeros((8, 8, 8)))


class TestDerivatives:
    def test_gradient_of_sine(self):
        n = 32
        x = np.linspace(0, 2 * np.pi, n, endpoint=False)
        field = np.sin(2 * x)[:, None, None] * np.ones((1, n, n))
        grad = spectral_gradient(field, 0)
        expected = 2 * np.cos(2 * x)[:, None, None] * np.ones((1, n, n))
        assert np.allclose(grad, expected, atol=1e-10)

    def test_vorticity_of_solid_rotation_mode(self):
        """u = (sin y, 0, 0) has w_z = -cos y."""
        n = 32
        y = np.linspace(0, 2 * np.pi, n, endpoint=False)
        u = np.broadcast_to(np.sin(y)[None, :, None], (n, n, n)).copy()
        v = np.zeros((n, n, n))
        w = np.zeros((n, n, n))
        _, _, wz = vorticity(u, v, w)
        assert np.allclose(wz, -np.cos(y)[None, :, None], atol=1e-10)

    def test_vorticity_2d(self):
        n = 32
        x = np.linspace(0, 2 * np.pi, n, endpoint=False)
        v = np.broadcast_to(np.sin(x)[:, None], (n, n)).copy()
        (wz,) = vorticity(np.zeros((n, n)), v)
        assert np.allclose(wz, np.cos(x)[:, None], atol=1e-10)

    def test_shared_spectra_are_bitwise_per_axis_formulas(self):
        """gradient() and vorticity() reuse one forward transform per
        field; every component must equal the per-axis formula bit for bit
        (non-cubic 3-D grid, plus the 2-D path)."""
        u, v, w = solenoidal_random_field((16, 12, 8), rng=3)
        r = u * v + w  # a generic non-solenoidal field
        for got, axis in zip(gradient(r), range(3)):
            assert np.array_equal(got, spectral_gradient(r, axis)), axis
        wx, wy, wz = vorticity(u, v, w)
        assert np.array_equal(wx, spectral_gradient(w, 1) - spectral_gradient(v, 2))
        assert np.array_equal(wy, spectral_gradient(u, 2) - spectral_gradient(w, 0))
        assert np.array_equal(wz, spectral_gradient(v, 0) - spectral_gradient(u, 1))
        u2, v2 = u[:, :, 0].copy(), v[:, :, 0].copy()
        (wz2,) = vorticity(u2, v2)
        assert np.array_equal(wz2, spectral_gradient(v2, 0) - spectral_gradient(u2, 1))
        assert len(gradient(u2)) == 2

    def test_dissipation_positive(self):
        u, v, w = solenoidal_random_field(SHAPE, rng=7)
        eps = dissipation_rate(u, v, w, nu=0.01)
        assert np.all(eps >= 0)
        assert eps.mean() > 0

    def test_enstrophy_nonnegative(self):
        u, v, w = solenoidal_random_field(SHAPE, rng=8)
        assert np.all(enstrophy(u, v, w) >= 0)
