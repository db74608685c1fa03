"""Fourier-space utilities for periodic turbulence fields.

All fields live on uniform periodic grids over ``[0, 2*pi)^d`` unless stated
otherwise; rfftn layouts keep memory at roughly half the complex spectrum.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils.rng import resolve_rng

__all__ = [
    "wavenumber_grid",
    "wavenumber_magnitude",
    "von_karman_spectrum",
    "solenoidal_random_field",
    "radial_energy_spectrum",
    "spectral_gradient",
    "gradient",
    "vorticity",
    "divergence",
    "dissipation_rate",
    "enstrophy",
]


def wavenumber_grid(
    shape: tuple[int, ...], real: bool = True, zero_nyquist: bool = False
) -> list[np.ndarray]:
    """Integer wavenumber arrays (broadcastable) for an FFT of `shape`.

    With ``real=True`` the last axis uses the rfft layout.  ``zero_nyquist``
    zeroes the ±n/2 entries: the Nyquist mode is its own reflection partner,
    so multiplying a real field's spectrum by the *odd* function k there
    breaks Hermitian symmetry — derivative-like operators must drop it.
    """
    if len(shape) < 1:
        raise ValueError("shape must have at least one axis")
    return [k.copy() for k in _wavenumber_grid_cached(tuple(shape), real, zero_nyquist)]


@lru_cache(maxsize=64)
def _wavenumber_grid_cached(
    shape: tuple[int, ...], real: bool, zero_nyquist: bool
) -> tuple[np.ndarray, ...]:
    """Read-only cached wavenumber arrays; grids recur per field shape."""
    ks = []
    for ax, n in enumerate(shape):
        if ax == len(shape) - 1 and real:
            k = np.fft.rfftfreq(n, d=1.0 / n)
        else:
            k = np.fft.fftfreq(n, d=1.0 / n)
        if zero_nyquist and n % 2 == 0:
            k = k.copy()
            k[np.abs(k) == n // 2] = 0.0
        k = k.reshape([-1 if a == ax else 1 for a in range(len(shape))])
        k.flags.writeable = False
        ks.append(k)
    return tuple(ks)


def wavenumber_magnitude(shape: tuple[int, ...], real: bool = True) -> np.ndarray:
    """|k| on the (r)fft grid."""
    ks = wavenumber_grid(shape, real=real)
    return np.sqrt(sum(k**2 for k in ks))


def von_karman_spectrum(k: np.ndarray, k_peak: float = 4.0, k_eta: float | None = None) -> np.ndarray:
    """Model energy spectrum: k^4 rise, k^{-5/3} inertial range, viscous cutoff.

        E(k) ∝ (k/k_peak)^4 / (1 + (k/k_peak)^2)^(17/6) * exp(-2 (k/k_eta)^2)

    ``k_eta`` defaults to no cutoff (useful on coarse grids where the grid
    itself truncates the spectrum).
    """
    k = np.asarray(k, dtype=np.float64)
    if k_peak <= 0:
        raise ValueError("k_peak must be positive")
    kk = k / k_peak
    spec = kk**4 / (1.0 + kk**2) ** (17.0 / 6.0)
    if k_eta is not None:
        if k_eta <= 0:
            raise ValueError("k_eta must be positive")
        spec = spec * np.exp(-2.0 * (k / k_eta) ** 2)
    return spec


def _hermitian_noise(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Complex spectral noise whose inverse rfftn is real (by construction)."""
    real_field = rng.standard_normal(shape)
    return np.fft.rfftn(real_field)


def solenoidal_random_field(
    shape: tuple[int, int, int],
    spectrum: np.ndarray | None = None,
    k_peak: float = 4.0,
    rng: np.random.Generator | int | None = None,
    anisotropy: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random divergence-free velocity field with a prescribed energy spectrum.

    Each component starts as white noise in spectral space, is projected onto
    the divergence-free subspace (P_ij = δ_ij - k_i k_j / k²), then the radial
    shells are rescaled so the realized spectrum matches the target (default:
    von Kármán with peak at `k_peak`).  `anisotropy` scales per-component
    variance (e.g. ``(1, 1, 0.3)`` suppresses vertical motions, mimicking
    stratified turbulence's pancake structure).

    Returns (u, v, w) in physical space, unit RMS velocity overall.
    """
    if len(shape) != 3:
        raise ValueError("solenoidal fields are 3-D; use shape (nx, ny, nz)")
    rng = resolve_rng(rng)
    ks = wavenumber_grid(shape, real=True)
    kmag = np.sqrt(sum(k**2 for k in ks))
    kmag_safe = np.where(kmag == 0, 1.0, kmag)

    uh = [anisotropy[i] * _hermitian_noise(shape, rng) for i in range(3)]
    # Zero Nyquist planes: they are unprojectable (self-conjugate under the
    # Hermitian reflection) and carry negligible energy anyway.
    nyq = np.zeros(kmag.shape, dtype=bool)
    for ax, n in enumerate(shape):
        if n % 2 == 0:
            idx = [slice(None)] * 3
            idx[ax] = n // 2
            nyq[tuple(idx)] = True
    for f in uh:
        f[nyq] = 0.0
    # Leray projection: remove the compressive component.  (Anisotropy is
    # applied *before* projection so the result stays divergence-free.)
    div = sum(k * f for k, f in zip(ks, uh))
    for i in range(3):
        uh[i] = uh[i] - ks[i] * div / kmag_safe**2
        uh[i][kmag == 0] = 0.0

    # Shell-rescale so the *shell-integrated* energy follows the target E(k).
    shell = np.rint(kmag).astype(np.int64)
    nshells = int(shell.max()) + 1
    k_shells = np.arange(nshells, dtype=np.float64)
    wanted = (
        np.asarray(spectrum, dtype=np.float64)
        if spectrum is not None
        else von_karman_spectrum(k_shells, k_peak=k_peak)
    )
    if wanted.shape != (nshells,):
        raise ValueError(f"spectrum must be per-shell with {nshells} entries, got {wanted.shape}")
    # rfft layout: interior kz-planes represent conjugate pairs → weight 2.
    weight = np.full(shape[:2] + (shape[2] // 2 + 1,), 2.0)
    weight[..., 0] = 1.0
    if shape[2] % 2 == 0:
        weight[..., -1] = 1.0
    current = np.zeros(nshells)
    energy_density = weight * sum(np.abs(f) ** 2 for f in uh)
    np.add.at(current, shell.ravel(), energy_density.ravel())
    scale_shell = np.sqrt(np.divide(wanted, current, out=np.zeros(nshells), where=current > 0))
    scale = scale_shell[shell]
    for i in range(3):
        uh[i] = uh[i] * scale

    u, v, w = (np.fft.irfftn(f, s=shape, axes=(0, 1, 2)) for f in uh)
    rms = np.sqrt(np.mean(u**2 + v**2 + w**2))
    if rms > 0:
        u, v, w = u / rms, v / rms, w / rms
    return u, v, w


def radial_energy_spectrum(*components: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shell-averaged kinetic energy spectrum E(k) of velocity components.

    Returns (k, E) with ``sum(E) ≈ mean kinetic energy``.
    """
    if not components:
        raise ValueError("need at least one velocity component")
    shape = components[0].shape
    for c in components:
        if c.shape != shape:
            raise ValueError("components must share a shape")
    n_total = float(np.prod(shape))
    kmag = wavenumber_magnitude(shape, real=True)
    shell = np.rint(kmag).astype(np.int64)
    nshells = int(shell.max()) + 1
    weight = np.ones(kmag.shape)
    weight[..., 1:] = 2.0
    if shape[-1] % 2 == 0:
        weight[..., -1] = 1.0
    spec = np.zeros(nshells)
    for c in components:
        ch = np.fft.rfftn(c) / n_total
        np.add.at(spec, shell.ravel(), (weight * 0.5 * np.abs(ch) ** 2).ravel())
    return np.arange(nshells, dtype=np.float64), spec


def spectral_gradient(field: np.ndarray, axis: int) -> np.ndarray:
    """d(field)/dx_axis for a periodic field on [0, 2*pi)^d, via FFT."""
    ks = _wavenumber_grid_cached(field.shape, True, True)
    return _gradient_from_spectrum(np.fft.rfftn(field), ks, axis, field.shape)


def gradient(field: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every d(field)/dx_i from one forward transform; each component is
    bitwise-equal to ``spectral_gradient(field, i)``."""
    ks = _wavenumber_grid_cached(field.shape, True, True)
    fh = np.fft.rfftn(field)
    return tuple(
        _gradient_from_spectrum(fh, ks, axis, field.shape)
        for axis in range(field.ndim)
    )


def _gradient_from_spectrum(
    fh: np.ndarray, ks: tuple[np.ndarray, ...], axis: int, shape: tuple[int, ...]
) -> np.ndarray:
    axes = tuple(range(len(shape)))
    return np.fft.irfftn(1j * ks[axis] * fh, s=shape, axes=axes)


def vorticity(u: np.ndarray, v: np.ndarray, w: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Vorticity components; 2-D inputs return the scalar (w_z,).

    One forward transform per velocity component, shared by the two
    derivatives that need it (bitwise-equal to per-pair
    :func:`spectral_gradient` calls, which redo each forward transform).
    """
    ks = _wavenumber_grid_cached(u.shape, True, True)

    def d(fh: np.ndarray, axis: int) -> np.ndarray:
        return _gradient_from_spectrum(fh, ks, axis, u.shape)

    uh, vh = np.fft.rfftn(u), np.fft.rfftn(v)
    if w is None:
        return (d(vh, 0) - d(uh, 1),)
    wh = np.fft.rfftn(w)
    return d(wh, 1) - d(vh, 2), d(uh, 2) - d(wh, 0), d(vh, 0) - d(uh, 1)


def divergence(u: np.ndarray, v: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Velocity divergence (should vanish for incompressible fields)."""
    out = spectral_gradient(u, 0) + spectral_gradient(v, 1)
    if w is not None:
        out = out + spectral_gradient(w, 2)
    return out


def dissipation_rate(u: np.ndarray, v: np.ndarray, w: np.ndarray, nu: float = 1.0) -> np.ndarray:
    """Local dissipation ε = 2 ν S_ij S_ij from the strain-rate tensor."""
    # One forward FFT per component, one inverse per distinct du_i/dx_j:
    # the naive per-pair formulation redoes the forward transforms 6x.  The
    # accumulation below visits (i, j) in the same order with bitwise-equal
    # sij (S is symmetric and fp addition commutes), so ε is unchanged.
    grad = [gradient(c) for c in (u, v, w)]
    eps = np.zeros_like(u)
    for i in range(3):
        for j in range(3):
            sij = 0.5 * (grad[i][j] + grad[j][i])
            eps += 2.0 * nu * sij**2
    return eps


def enstrophy(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Local enstrophy Ω = |curl u|² (GESTS's K-means cluster variable)."""
    wx, wy, wz = vorticity(u, v, w)
    return wx**2 + wy**2 + wz**2
