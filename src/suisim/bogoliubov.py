"""Operator-level ground truth for cross-validating the covariance engine.

Instead of covariance matrices, this module propagates the coefficients of
each output annihilation operator over the input operators (including the
fresh vacua injected by loss channels):

    a_out[m] = sum_k u[m, k] a_in[k] + v[m, k] a_in*[k] + amplitude[m]

Homodyne means and variances follow directly from these coefficients, with
no symplectic algebra shared with :mod:`suisim.gaussian`, which is what
makes the comparison between the two routes meaningful.

The closed-form SNRs of the three schemes live here as well.  They read a
:class:`~suisim.schemes.SchemeInstance` (its kind, probe photon number,
gains and the depths of its tones at angles 0 and pi/2), so a scheme's own
checks are the only ones its closed form needs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .schemes import (
    Displace,
    Element,
    Loss,
    PhaseShift,
    SchemeInstance,
    Splitter,
    TwoModeSqueeze,
    _with_tones,
    pipeline_elements,
    tone_at_angle,
)


@dataclasses.dataclass(frozen=True)
class TransferMap:
    """Bogoliubov coefficients from every vacuum input to every output mode.

    ``u`` multiplies annihilation inputs, ``v`` creation inputs; rows of the
    conjugate (creation) outputs are implied, a_out* having coefficients
    (conj(v), conj(u)).  ``amplitude`` is the accumulated coherent amplitude
    per output mode.
    """

    u: np.ndarray
    v: np.ndarray
    amplitude: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.u.shape[0]

    def commutator_defect(self) -> np.ndarray:
        """|sum |u|^2 - sum |v|^2 - 1| per output mode; zero when physical."""
        norm = np.sum(np.abs(self.u) ** 2, axis=1) - np.sum(np.abs(self.v) ** 2, axis=1)
        return np.abs(norm - 1.0)


def identity_transfer(n_modes: int) -> TransferMap:
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return TransferMap(
        u=np.eye(n_modes, dtype=complex),
        v=np.zeros((n_modes, n_modes), dtype=complex),
        amplitude=np.zeros(n_modes, dtype=complex),
    )


def _apply_element(tm: TransferMap, element: Element) -> TransferMap:
    u, v = tm.u.copy(), tm.v.copy()
    amp = tm.amplitude.copy()

    if isinstance(element, Displace):
        amp[element.mode] += (element.dx + 1j * element.dy) / 2.0
    elif isinstance(element, TwoModeSqueeze):
        a, b = element.mode_a, element.mode_b
        gain = element.gain
        conj_gain = math.sqrt(gain**2 - 1.0)
        phase = np.exp(1j * element.pump_phase)
        ua, va, aa = u[a].copy(), v[a].copy(), amp[a]
        ub, vb, ab = u[b].copy(), v[b].copy(), amp[b]
        u[a] = gain * ua + conj_gain * phase * np.conj(vb)
        v[a] = gain * va + conj_gain * phase * np.conj(ub)
        u[b] = gain * ub + conj_gain * phase * np.conj(va)
        v[b] = gain * vb + conj_gain * phase * np.conj(ua)
        amp[a] = gain * aa + conj_gain * phase * np.conj(ab)
        amp[b] = gain * ab + conj_gain * phase * np.conj(aa)
    elif isinstance(element, Splitter):
        a, b = element.mode_a, element.mode_b
        t = math.sqrt(element.transmissivity)
        r = math.sqrt(1.0 - element.transmissivity)
        phase = np.exp(1j * element.phase)
        for block in (u, v):
            row_a, row_b = block[a].copy(), block[b].copy()
            block[a] = t * row_a + r * phase * row_b
            block[b] = -r * np.conj(phase) * row_a + t * row_b
        aa, ab = amp[a], amp[b]
        amp[a] = t * aa + r * phase * ab
        amp[b] = -r * np.conj(phase) * aa + t * ab
    elif isinstance(element, PhaseShift):
        m = element.mode
        phase = np.exp(1j * element.theta)
        u[m] *= phase
        v[m] *= phase
        amp[m] *= phase
    elif isinstance(element, Loss):
        m = element.mode
        root = math.sqrt(element.eta)
        u[m] *= root
        v[m] *= root
        amp[m] *= root
        fresh_u = np.zeros((tm.n_modes, 1), dtype=complex)
        fresh_u[m, 0] = math.sqrt(1.0 - element.eta)
        u = np.hstack([u, fresh_u])
        v = np.hstack([v, np.zeros((tm.n_modes, 1), dtype=complex)])
    else:
        raise ValueError(f"unsupported pipeline element for the transfer map: {element!r}")

    return TransferMap(u=u, v=v, amplitude=amp)


def build_transfer_from_elements(n_modes: int, elements: list[Element]) -> TransferMap:
    tm = identity_transfer(n_modes)
    for element in elements:
        tm = _apply_element(tm, element)
    return tm


def build_transfer(
    scheme: SchemeInstance, active_tones: frozenset[float] | None = None
) -> TransferMap:
    """Operator transfer map of a scheme's pipeline (detector losses excluded)."""
    return build_transfer_from_elements(scheme.n_modes, pipeline_elements(_with_tones(scheme, active_tones)))


def oracle_homodyne_variance(tm: TransferMap, port, theta, efficiency: float = 1.0):
    """Variance of X(theta) at an output mode, in shot-noise units.

    X(theta) = e^{-i theta} a + e^{i theta} a*; with all inputs in vacuum
    the variance is the squared norm of the annihilation-side coefficient
    vector of that combination.  ``port`` and ``theta`` broadcast together.
    """
    theta = np.asarray(theta)[..., None]
    if not 0 <= np.min(port) <= np.max(port) < tm.n_modes:
        raise ValueError(f"port {port} out of range")
    coeff = np.exp(-1j * theta) * tm.u[port] + np.exp(1j * theta) * np.conj(tm.v[port])
    bare = np.sum(np.abs(coeff) ** 2, axis=-1)
    return (efficiency * bare + (1.0 - efficiency))[()]


def oracle_homodyne_mean(tm: TransferMap, port, theta, efficiency: float = 1.0):
    """Mean of X(theta) at an output mode; broadcasts like the variance."""
    if not 0 <= np.min(port) <= np.max(port) < tm.n_modes:
        raise ValueError(f"port {port} out of range")
    # Real arithmetic: a complex array product may fuse a multiply-add.
    phase, amplitude = np.exp(-1j * np.asarray(theta)), tm.amplitude[port]
    return (2.0 * math.sqrt(efficiency) * (phase.real * amplitude.real - phase.imag * amplitude.imag))[()]


# --------------------------------------------------------------------------
# closed-form SNRs
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ClosedFormSnr:
    """SNRs of the amplitude (x) and phase (y) readouts of one scheme.

    ``asymptotic`` flags the SU(1,1) expression, which holds only for a
    recombining gain much larger than the splitting gain; the finite-gain
    value is whatever the engine computes.
    """

    snr_x: float
    snr_y: float
    asymptotic: bool


def closed_form_snr(scheme: SchemeInstance) -> ClosedFormSnr:
    """Lossless closed-form SNRs of a scheme's amplitude and phase readouts.

    ``eps`` and ``delta`` are the depths of the scheme's tones at angles 0
    and pi/2 (0 without such a tone) and ``I`` its probe photon number; its
    losses and detector efficiencies are not read.

    bs:  (2 I eps^2, 2 I delta^2)
    sui: 2 (G1 + g1)^2 I eps^2 and the same with delta, valid for G2 >> G1
    amp: (4 G^2 I eps^2 / (G^2 + g^2), 4 g^2 I delta^2 / (G^2 + g^2))
    """
    i_ps = scheme.probe_photon_number
    eps, delta = (
        0.0 if tone is None else tone.depth
        for tone in (tone_at_angle(scheme, 0.0), tone_at_angle(scheme, math.pi / 2))
    )
    if scheme.kind == "bs":
        return ClosedFormSnr(2.0 * i_ps * eps**2, 2.0 * i_ps * delta**2, False)
    if scheme.kind == "sui":
        factor = 2.0 * (scheme.opa1.gain + scheme.opa1.conjugate_gain) ** 2 * i_ps
        return ClosedFormSnr(factor * eps**2, factor * delta**2, True)
    gain, conj = scheme.opa2_or_amp.gain, scheme.opa2_or_amp.conjugate_gain
    total = gain**2 + conj**2
    return ClosedFormSnr(
        4.0 * gain**2 * i_ps * eps**2 / total,
        4.0 * conj**2 * i_ps * delta**2 / total,
        False,
    )
