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

import functools
import math

import numpy as np


def normalize_angle(theta: float) -> float:
    """Map an angle in radians into [0, 2*pi)."""
    return float(theta) % (2.0 * math.pi)


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


def rotation_block(theta: float) -> np.ndarray:
    """2x2 quadrature block of ``a -> a exp(i theta)``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])
