"""Multimode Gaussian states and the symplectic transformations acting on them.

States are pure values: every operation consumes a :class:`GaussianState`
and returns a new one, so instances can be shared freely across threads.
All matrices are dense; the schemes built on top of this module never use
more than a handful of modes.

The quadrature layout and sign conventions of every module, asserted by tests:

* Quadratures are ``X = a + a*`` and ``Y = -i (a - a*)``, so the vacuum has
  ``Var(X) = Var(Y) = 1``.  That vacuum variance is the shot-noise unit
  (SNU) to which all variances and spectra are normalised.
* An ``n``-mode state stores first moments as ``(X1, Y1, X2, Y2, ..., Xn,
  Yn)`` and its covariance matrix in the same interleaved ordering.
* A phase shift by ``theta`` maps ``a -> a exp(i theta)``; on quadratures
  this is ``X' = X cos(theta) - Y sin(theta)``,
  ``Y' = X sin(theta) + Y cos(theta)``, i.e. a mean of ``(m, 0)`` rotates
  to ``(0, m)`` for ``theta = pi/2``.
* A homodyne detector with LO phase ``theta`` measures
  ``X(theta) = X cos(theta) + Y sin(theta)``.
* A coherent amplitude ``alpha`` corresponds to means
  ``(2 Re(alpha), 2 Im(alpha))`` and carries ``|alpha|^2`` photons, so an
  amplitude modulation of depth ``eps`` on a beam of photon number ``n``
  displaces ``X`` by ``2 sqrt(n) eps`` (and phase modulation displaces
  ``Y`` likewise).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys

import numpy as np

_SYMMETRY_TOL = 1e-12
# Relative to the largest covariance entry: the rounding floor of cov + i omega.
_UNCERTAINTY_TOL = 1e-12


def normalize_angle(theta: float) -> float:
    """Map an angle in radians into [0, 2*pi); a tiny negative angle, whose remainder rounds to 2*pi, maps to 0."""
    angle = float(theta) % (2.0 * math.pi)
    return 0.0 if angle == 2.0 * math.pi else angle


def xy_indices(mode: int) -> tuple[int, int]:
    """Indices of the X and Y quadratures of ``mode`` in the interleaved layout."""
    return 2 * mode, 2 * mode + 1


@functools.cache
def _symplectic_forms(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    form = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        form[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = j
    i_form = 1j * form
    form.flags.writeable = False
    i_form.flags.writeable = False
    return form, i_form


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for the interleaved (X1, Y1, X2, Y2, ...) ordering.

    Block diagonal with ``[[0, 1], [-1, 0]]`` per mode.  A quadrature map S
    is physical iff ``S @ omega @ S.T == omega``.  The array is built once
    per ``n_modes`` and shared, so it is read-only.
    """
    return _symplectic_forms(n_modes)[0]


def i_omega(n_modes: int) -> np.ndarray:
    """``1j * omega(n_modes)``, the form of the uncertainty relation
    ``cov + i omega >= 0``; shared and read-only like :func:`omega`."""
    return _symplectic_forms(n_modes)[1]


# Built at import for every mode count the schemes and verify's random
# pipelines use: these arrays live as long as the process, and made midway
# through a run they sat high in the heap and kept it from shrinking, which
# raised the peak memory of a full verify run by 0.6 MB.
for _n_modes in range(1, 7):
    _symplectic_forms(_n_modes)


def _check_gain(gain: float) -> None:
    """The amplifier gain rules: G >= 1 (NaN fails it) and G^2 is a finite float."""
    if not (gain >= 1.0):
        raise ValueError(f"amplifier gain must be >= 1, got {gain}")
    if gain * gain > sys.float_info.max:
        raise ValueError(f"amplifier gain {gain} is too large: its square overflows")


@dataclasses.dataclass(frozen=True)
class OpaParams:
    """Two-mode squeezer settings.

    ``gain`` is the amplitude gain G >= 1 of ``a' = G a + g e^{i phi} b*``;
    the conjugate gain ``g = sqrt(G^2 - 1)`` is always derived from it.
    """

    gain: float
    pump_phase: float = 0.0

    def __post_init__(self):
        _check_gain(self.gain)

    @property
    def conjugate_gain(self) -> float:
        return math.sqrt(self.gain**2 - 1.0)


@dataclasses.dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector and covariance matrix over ``n_modes`` modes.

    ``mean`` has length ``2 n_modes`` ordered (X1, Y1, X2, Y2, ...);
    ``cov`` is the real symmetric covariance matrix in the same ordering,
    with the vacuum normalised to the identity.  It must be physical
    (``cov + i omega >= 0``, the uncertainty relation), up to rounding on
    the scale of its largest entry.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        n_modes = self.n_modes
        if n_modes < 1:
            raise ValueError("a Gaussian state needs at least one mode")
        mean = np.array(self.mean, dtype=float)
        # Not copied: stored as given if exactly symmetric, else symmetrised below.
        cov = np.asarray(self.cov, dtype=float, order="C")
        d = 2 * n_modes
        if mean.shape != (d,):
            raise ValueError(f"mean must have shape ({d},), got {mean.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        # The largest magnitude is finite iff every entry is (max keeps a NaN; a sum
        # could overflow), read with the abs and max the checks below use anyway.
        scale = np.abs(cov).max()
        if not (math.isfinite(np.abs(mean).max()) and math.isfinite(scale)):
            raise ValueError("state moments must be finite")
        cov_t = cov.T
        asym = np.abs(cov - cov_t).max()
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"covariance matrix is not symmetric (defect {asym:.3e})")
        if asym > 0.0:
            cov = 0.5 * (cov + cov_t)
            scale = np.abs(cov).max()
        # Symmetrising gives an exactly symmetric cov back bit for bit, unless an
        # entry above half the float range makes cov + cov.T inf: caught here.
        if scale > (sys.float_info.max if asym > 0.0 else sys.float_info.max / 2.0):
            raise ValueError("covariance entries overflow the float range when symmetrised")
        lowest = np.linalg.eigvalsh(cov + i_omega(n_modes))[0]
        if lowest < -_UNCERTAINTY_TOL * max(1.0, scale):
            raise ValueError(
                "covariance matrix violates the uncertainty relation: cov + i omega is "
                f"not positive definite up to rounding (smallest eigenvalue {lowest:.3e})"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def _check_mode(n_modes: int, mode: int) -> None:
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")


def vacuum_state(n_modes: int) -> GaussianState:
    """All-mode vacuum: zero means, identity covariance (the shot-noise unit)."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return GaussianState(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))


def displace(state: GaussianState, mode: int, dx: float, dy: float) -> GaussianState:
    """Shift the mean of one mode by (dx, dy); the covariance is untouched."""
    _check_mode(state.n_modes, mode)
    shift = np.zeros(2 * state.n_modes)
    shift[list(xy_indices(mode))] = dx, dy
    return apply_channel(state, np.eye(2 * state.n_modes), shift=shift)


def two_mode_squeezer_matrix(gain: float, pump_phase: float = 0.0) -> np.ndarray:
    """4x4 symplectic of ``a' = G a + g e^{i phi} b*`` on (Xa, Ya, Xb, Yb).

    The conjugate coupling block is a reflection: for pump phase 0 it sends
    ``Xa' = G Xa + g Xb`` and ``Ya' = G Ya - g Yb``, which is what makes
    X sums and Y differences of the two modes correlated.
    """
    _check_gain(gain)
    g = math.sqrt(gain**2 - 1.0)  # as in OpaParams.conjugate_gain
    gc, gs = g * math.cos(pump_phase), g * math.sin(pump_phase)
    return np.array(
        [
            [gain, 0.0, gc, gs],
            [0.0, gain, gs, -gc],
            [gc, gs, gain, 0.0],
            [gs, -gc, 0.0, gain],
        ]
    )


def beam_splitter_matrix(transmissivity: float, phase: float = 0.0) -> np.ndarray:
    """4x4 symplectic of a beam splitter with the given power transmissivity.

    Mode convention: ``a' = t a + r e^{i phase} b``,
    ``b' = -r e^{-i phase} a + t b`` with ``t = sqrt(T)``, ``r = sqrt(1-T)``.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    t = math.sqrt(transmissivity)
    r = math.sqrt(1.0 - transmissivity)
    # The lower-left block is -r times the rotation by -phase; cos and sin
    # are taken at -phase, not folded by parity, which a libm need not keep
    # to the last bit.
    rc, rs = r * math.cos(phase), r * math.sin(phase)
    lc, ls = -r * math.cos(-phase), -r * math.sin(-phase)
    return np.array(
        [
            [t, 0.0, rc, -rs],
            [0.0, t, rs, rc],
            [lc, -ls, t, 0.0],
            [ls, lc, 0.0, t],
        ]
    )


def phase_shift_matrix(theta: float) -> np.ndarray:
    """2x2 symplectic of ``a -> a exp(i theta)``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _embed(block: np.ndarray, n_modes: int, *modes: int) -> np.ndarray:
    """Identity on ``n_modes`` modes except ``block`` acting on ``modes``.

    A block that already acts on every mode in order is returned itself,
    not a copy.
    """
    for mode in modes:
        _check_mode(n_modes, mode)
    if len(set(modes)) != len(modes):
        raise ValueError(f"a two-mode element needs two distinct modes, got {modes}")
    if modes == tuple(range(n_modes)):
        return block
    full = np.eye(2 * n_modes)
    for i, a in enumerate(modes):
        for j, b in enumerate(modes):
            full[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = block[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
    return full


def loss_channel(n_modes: int, mode: int, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrix and added vacuum noise of :func:`apply_loss`."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission eta must lie in [0, 1], got {eta}")
    _check_mode(n_modes, mode)
    ix, iy = xy_indices(mode)
    transfer = np.eye(2 * n_modes)
    transfer[ix, ix] = transfer[iy, iy] = math.sqrt(eta)
    noise = np.zeros((2 * n_modes, 2 * n_modes))
    noise[ix, ix] = noise[iy, iy] = 1.0 - eta
    return transfer, noise


def apply_channel(state: GaussianState, transfer: np.ndarray, noise=0.0, shift=0.0) -> GaussianState:
    """Affine Gaussian channel: ``mean -> transfer mean + shift`` and
    ``cov -> transfer cov transfer^T + noise``."""
    cov = transfer @ state.cov @ transfer.T + noise
    return GaussianState(state.n_modes, transfer @ state.mean + shift, 0.5 * (cov + cov.T))


def apply_two_mode_squeezer(
    state: GaussianState, mode_a: int, mode_b: int, opa: OpaParams
) -> GaussianState:
    """Two-mode squeeze (parametric amplification) of a pair of distinct modes."""
    s4 = two_mode_squeezer_matrix(opa.gain, opa.pump_phase)
    return apply_channel(state, _embed(s4, state.n_modes, mode_a, mode_b))


def apply_beam_splitter(
    state: GaussianState,
    mode_a: int,
    mode_b: int,
    transmissivity: float,
    phase: float = 0.0,
) -> GaussianState:
    """Mix two distinct modes on a beam splitter of the given transmissivity."""
    s4 = beam_splitter_matrix(transmissivity, phase)
    return apply_channel(state, _embed(s4, state.n_modes, mode_a, mode_b))


def apply_phase_shift(state: GaussianState, mode: int, theta: float) -> GaussianState:
    """Rotate one mode's quadrature pair by ``theta``."""
    return apply_channel(state, _embed(phase_shift_matrix(theta), state.n_modes, mode))


def apply_loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Attenuate one mode by power transmission ``eta``, admixing vacuum.

    Means scale by sqrt(eta), the mode's variances map to
    ``eta V + (1 - eta)`` and covariances with other modes scale by
    sqrt(eta).
    """
    return apply_channel(state, *loss_channel(state.n_modes, mode, eta))


def homodyne_stats(state: GaussianState, mode, lo_phase):
    """Mean and variance of X(lo_phase) on a mode, seen by an ideal detector.

    ``mode`` and ``lo_phase`` broadcast together, and so do both results.
    The variance is in shot-noise units: the vacuum reads 1 for any LO
    phase.  Detector loss lives in :class:`suisim.schemes.MeasurementModel`.
    """
    mode, n = np.asarray(mode), state.n_modes
    if not 0 <= mode.min() <= mode.max() < n:
        raise ValueError(f"mode {mode} out of range for {n} modes")
    c, s = np.cos(lo_phase), np.sin(lo_phase)
    mean = c * state.mean[2 * mode] + s * state.mean[2 * mode + 1]
    # Each mode's 2x2 block, multiplied in the order of a single (c, s) read.
    cs = np.stack([c, s], axis=-1)[..., None, :]
    var = cs @ state.cov.reshape(n, 2, n, 2)[mode, :, mode, :] @ np.swapaxes(cs, -1, -2)
    return mean[()], var[..., 0, 0][()]


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Symplectic spectrum of the covariance matrix, nonincreasing.

    The eigenvalues of ``omega @ cov`` come in conjugate pairs ``+/- i nu``;
    physical states have every ``nu >= 1`` in this normalisation.  The
    absolute error of each ``nu`` is about ``eps * max|cov|^2`` (``eps`` the
    float64 rounding unit), about 1e-3 for a two-mode squeezed vacuum at
    gain G = 1e3; at G = 1e4 the stored covariance no longer determines
    the spectrum at all.
    """
    moduli = np.sort(np.abs(np.linalg.eigvals(omega(state.n_modes) @ state.cov)))
    return moduli[::-1][::2]


def mean_photon_number(state: GaussianState, mode: int) -> float:
    """Mean photon number of one mode (coherent part plus excess noise)."""
    _check_mode(state.n_modes, mode)
    ix, iy = xy_indices(mode)
    mx, my = state.mean[ix], state.mean[iy]
    vx, vy = state.cov[ix, ix], state.cov[iy, iy]
    return float((mx**2 + my**2) / 4.0 + (vx + vy - 2.0) / 4.0)
