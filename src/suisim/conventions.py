"""Quadrature ordering and sign conventions shared by every module.

Single source of truth, asserted by round-trip tests:

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

import math

import numpy as np

def normalize_angle(theta: float) -> float:
    """Map an angle in radians into [0, 2*pi)."""
    return float(theta) % (2.0 * math.pi)


def xy_indices(mode: int) -> tuple[int, int]:
    """Indices of the X and Y quadratures of ``mode`` in the interleaved layout."""
    return 2 * mode, 2 * mode + 1


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for the interleaved (X1, Y1, X2, Y2, ...) ordering.

    Block diagonal with ``[[0, 1], [-1, 0]]`` per mode.  A quadrature map S
    is physical iff ``S @ omega @ S.T == omega``.
    """
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        out[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = j
    return out


def rotation_block(theta: float) -> np.ndarray:
    """2x2 quadrature block of ``a -> a exp(i theta)``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])
