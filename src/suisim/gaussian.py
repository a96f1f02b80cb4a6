"""Multimode Gaussian states and the symplectic transformations acting on them.

States are pure values: every operation consumes a :class:`GaussianState`
and returns a new one, so instances can be shared freely across threads.
All matrices are dense; the schemes built on top of this module never use
more than a handful of modes.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .conventions import i_omega, omega, rotation_block, xy_indices

_SYMMETRY_TOL = 1e-12
# Relative to the largest covariance entry: the rounding floor of cov + i omega.
_UNCERTAINTY_TOL = 1e-12


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
        cov = np.array(self.cov, dtype=float, order="C")
        d = 2 * n_modes
        if mean.shape != (d,):
            raise ValueError(f"mean must have shape ({d},), got {mean.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        # Elementwise: a sum of finite entries can overflow to inf.
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("state moments must be finite")
        cov_t = cov.T
        asym = np.abs(cov - cov_t).max()
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"covariance matrix is not symmetric (defect {asym:.3e})")
        # Not redundant for a covariance that is already symmetric: entries
        # above half the float range make cov + cov.T inf, and this is where
        # such a state is caught.
        cov = 0.5 * (cov + cov_t)
        scale = np.abs(cov).max()
        if scale == math.inf:
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


def displacement(n_modes: int, mode: int, dx: float, dy: float) -> np.ndarray:
    """Mean shift of (dx, dy) on one of ``n_modes`` modes."""
    _check_mode(n_modes, mode)
    shift = np.zeros(2 * n_modes)
    shift[list(xy_indices(mode))] = dx, dy
    return shift


def displace(state: GaussianState, mode: int, dx: float, dy: float) -> GaussianState:
    """Shift the mean of one mode by (dx, dy); the covariance is untouched."""
    shift = displacement(state.n_modes, mode, dx, dy)
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
    return rotation_block(theta)


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


def homodyne_stats(
    state: GaussianState, mode: int, lo_phase: float, eta_det: float = 1.0
) -> tuple[float, float]:
    """Mean and variance of X(lo_phase) on one mode, seen by a detector of
    efficiency ``eta_det``.

    The variance is in shot-noise units: the vacuum reads 1 for any LO
    phase and any detector efficiency.
    """
    _check_mode(state.n_modes, mode)
    if not 0.0 <= eta_det <= 1.0:
        raise ValueError(f"detection efficiency must lie in [0, 1], got {eta_det}")
    lossy = apply_loss(state, mode, eta_det) if eta_det != 1.0 else state
    c, s = math.cos(lo_phase), math.sin(lo_phase)
    ix, iy = xy_indices(mode)
    mean = c * lossy.mean[ix] + s * lossy.mean[iy]
    block = lossy.cov[ix : iy + 1, ix : iy + 1]
    var = float(np.array([c, s]) @ block @ np.array([c, s]))
    return float(mean), var


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
