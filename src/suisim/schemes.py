"""Builders and single-shot analysis for the three joint-measurement schemes.

A scheme is a declarative, immutable description of one optical pipeline:

* ``bs``  - coherent probe, modulators, 50/50 splitter, two homodyne ports.
* ``amp`` - coherent probe, modulators, one parametric amplifier, homodyne
  on its signal and idler outputs.
* ``sui`` - SU(1,1) interferometer: seeded amplifier OPA1, modulators on
  the signal arm, internal transmission loss, recombining amplifier OPA2
  at a relative phase phi (dark fringe at phi = pi), homodyne ports.

Any scheme may split its signal output 50/50 onto a third ("tap") port.
The modulation tones enter the single-shot picture as static displacements
of magnitude ``2 sqrt(I_ps) depth`` at the tone angle; their time
dependence lives in :mod:`suisim.spectra`.

Every analysis reads one compiled channel: :func:`compile_pipeline` folds
the element list into an affine Gaussian map ``(S, N, D)`` with output
covariance ``S S^T + N`` and one output shift per displacement (carrier
first, then each tone).  :func:`measurement_model` projects that channel
onto the homodyne ports; port variances, tone amplitudes and SNRs are read
off the model.  Each evaluation builds and checks one state, the channel's
output on the vacuum (:func:`vacuum_output`).  :func:`find_dark_fringe`
reads the ``sui`` dark fringe in closed form off the channel of the
pipeline up to the recombining amplifier, and builds no state.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings

import numpy as np

from .conventions import normalize_angle, xy_indices
from .gaussian import (
    GaussianState,
    OpaParams,
    _check_mode,
    _embed,
    beam_splitter_matrix,
    loss_channel,
    phase_shift_matrix,
    two_mode_squeezer_matrix,
)

SCHEME_KINDS = ("bs", "sui", "amp")
PORT_SIGNAL = "signal"
PORT_IDLER = "idler"
PORT_TAP = "tap"

# Depths beyond this strain the first-order (pure displacement) modulation model.
WEAK_MODULATION_BOUND = 0.05

# Largest output moment (covariance entry or squared mean field) a scheme
# may have: the float range, less headroom for the sums of moments formed
# downstream, such as the lock's fringe mean, (G2^2 + g2^2) times a trace.
_MAX_MOMENT = sys.float_info.max / 2**16


class ParameterError(ValueError):
    """A bad value of one named parameter; ``name`` is the field it belongs to,
    so that a config loader can report where the value came from."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


# --------------------------------------------------------------------------
# pipeline elements
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Displace:
    mode: int
    dx: float
    dy: float


@dataclasses.dataclass(frozen=True)
class TwoModeSqueeze:
    mode_a: int
    mode_b: int
    gain: float
    pump_phase: float


@dataclasses.dataclass(frozen=True)
class Splitter:
    mode_a: int
    mode_b: int
    transmissivity: float
    phase: float


@dataclasses.dataclass(frozen=True)
class PhaseShift:
    mode: int
    theta: float


@dataclasses.dataclass(frozen=True)
class Loss:
    mode: int
    eta: float


Element = Displace | TwoModeSqueeze | Splitter | PhaseShift | Loss

def _element_channel(n_modes: int, element: Element) -> tuple[np.ndarray, np.ndarray | float]:
    """Transfer matrix and added noise of one element other than a displacement."""
    noise = 0.0
    if isinstance(element, TwoModeSqueeze):
        s4 = two_mode_squeezer_matrix(element.gain, element.pump_phase)
        transfer = _embed(s4, n_modes, element.mode_a, element.mode_b)
    elif isinstance(element, Splitter):
        s4 = beam_splitter_matrix(element.transmissivity, element.phase)
        transfer = _embed(s4, n_modes, element.mode_a, element.mode_b)
    elif isinstance(element, PhaseShift):
        transfer = _embed(phase_shift_matrix(element.theta), n_modes, element.mode)
    elif isinstance(element, Loss):
        transfer, noise = loss_channel(n_modes, element.mode, element.eta)
    else:
        raise ValueError(f"unsupported pipeline element: {element!r}")
    return transfer, noise


def compile_pipeline(n_modes: int, elements: list[Element]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold a pipeline into one affine Gaussian channel ``(S, N, D)``.

    An input of mean ``m`` and covariance ``V`` leaves with mean
    ``S m + D.sum(axis=1)`` and covariance ``S V S^T + N``.  Column k of ``D``
    is the output shift of the k-th :class:`Displace` on its own.
    """
    dim = 2 * n_modes
    transfer, noise, shifts = np.eye(dim), np.zeros((dim, dim)), np.zeros((dim, 0))
    for element in elements:
        if isinstance(element, Displace):
            # The new column is the displacement: (dx, dy) on its mode, zero elsewhere.
            _check_mode(n_modes, element.mode)
            k = shifts.shape[1]
            grown = np.zeros((dim, k + 1))
            grown[:, :k] = shifts
            ix, iy = xy_indices(element.mode)
            grown[ix, k], grown[iy, k] = element.dx, element.dy
            shifts = grown
            continue
        m, added = _element_channel(n_modes, element)
        transfer, noise = m @ transfer, m @ noise @ m.T + added
        if shifts.shape[1]:
            shifts = m @ shifts
    return transfer, noise, shifts


def vacuum_output(n_modes: int, transfer: np.ndarray, noise: np.ndarray, shifts: np.ndarray) -> GaussianState:
    """The state a compiled channel makes of the vacuum, checked once for physicality.

    The vacuum covariance is the identity and ``S I == S`` exactly, so this
    equals ``apply_channel(vacuum_state(n_modes), S, N, D.sum(axis=1))``
    without building the vacuum state.
    """
    cov = transfer @ transfer.T + noise
    return GaussianState(n_modes, shifts.sum(axis=1), 0.5 * (cov + cov.T))


# --------------------------------------------------------------------------
# scheme description
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ModulationTone:
    """One encoded signal: frequency, depth and target quadrature angle.

    angle 0 is amplitude modulation (X), pi/2 phase modulation (Y); any
    other angle encodes on the rotated quadrature X(angle).
    """

    frequency_hz: float
    depth: float
    angle: float

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise ParameterError("frequency_hz", "tone frequency must be positive")
        if self.depth < 0:
            raise ParameterError("depth", "modulation depth must be nonnegative")
        if self.depth > WEAK_MODULATION_BOUND:
            warnings.warn(
                f"modulation depth {self.depth} exceeds the weak-modulation "
                f"bound {WEAK_MODULATION_BOUND}; the linearised displacement "
                "model loses accuracy",
                stacklevel=2,
            )
        object.__setattr__(self, "angle", normalize_angle(self.angle))


@dataclasses.dataclass(frozen=True)
class LossBudget:
    """Transmission/detection efficiencies of one experimental layout."""

    eta_internal: float = 1.0
    eta_signal_det: float = 1.0
    eta_idler_det: float = 1.0
    eta_tap_det: float = 1.0

    def __post_init__(self):
        for name in ("eta_internal", "eta_signal_det", "eta_idler_det", "eta_tap_det"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(name, f"{name} must lie in [0, 1], got {value}")


@dataclasses.dataclass(frozen=True)
class HomodyneChannel:
    """One readout port: name, LO phase and detector efficiency."""

    port_name: str
    lo_phase: float
    efficiency: float = 1.0

    def __post_init__(self):
        if self.port_name not in (PORT_SIGNAL, PORT_IDLER, PORT_TAP):
            raise ValueError(f"unknown port name {self.port_name!r}")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ParameterError("efficiency", f"port efficiency must lie in [0, 1], got {self.efficiency}")
        object.__setattr__(self, "lo_phase", normalize_angle(self.lo_phase))


@dataclasses.dataclass(frozen=True)
class SchemeInstance:
    """One fully specified measurement scheme, immutable after construction."""

    kind: str
    probe_photon_number: float
    losses: LossBudget
    tones: tuple[ModulationTone, ...]
    ports: tuple[HomodyneChannel, ...]
    opa1: OpaParams | None = None
    opa2_or_amp: OpaParams | None = None
    interferometer_phase: float = math.pi
    tap_enabled: bool = False

    def __post_init__(self):
        # The rules a config can break are named by the config path it sets them at.
        if self.kind not in SCHEME_KINDS:
            raise ParameterError("scheme.kind", f"unknown scheme kind {self.kind!r}")
        if self.probe_photon_number < 0:
            raise ParameterError("scheme.probe_photon_number", "probe photon number must be nonnegative")
        if self.kind == "sui":
            if self.opa1 is None or self.opa2_or_amp is None:
                missing = "scheme.gain_g1" if self.opa1 is None else "scheme.gain_g2"
                raise ParameterError(missing, "the SU(1,1) scheme needs gain_g1 and gain_g2")
            if self.losses.eta_internal == 0.0 and self.probe_photon_number > 0:
                raise ParameterError(
                    "losses.eta_internal",
                    "eta_internal = 0 cannot deliver a nonzero probe to the sensing plane",
                )
        elif self.kind == "amp":
            if self.opa2_or_amp is None:
                raise ParameterError("scheme.gain_g2", "the amplifier scheme needs gain_g2")
            if self.opa1 is not None:
                raise ParameterError("scheme.gain_g1", "gain_g1 is not used by the amplifier scheme")
        elif self.opa1 is not None or self.opa2_or_amp is not None:
            given = "scheme.gain_g1" if self.opa1 is not None else "scheme.gain_g2"
            raise ParameterError(given, "the beam-splitter scheme takes no gains")
        self._check_moments()
        freqs = [t.frequency_hz for t in self.tones]
        for i, frequency in enumerate(freqs):
            if frequency in freqs[:i]:
                raise ParameterError(
                    f"tones[{i}].frequency_hz",
                    f"tone frequencies must be unique within a scheme; {frequency} Hz repeats",
                )
        names = [p.port_name for p in self.ports]
        if len(set(names)) != len(names):
            raise ValueError("port names must be unique")
        expected = {PORT_SIGNAL, PORT_IDLER, PORT_TAP} if self.tap_enabled else {PORT_SIGNAL, PORT_IDLER}
        if set(names) != expected:
            raise ValueError(
                f"a scheme with tap_enabled={self.tap_enabled} needs exactly the ports "
                f"{sorted(expected)}, got {sorted(names)}"
            )
        object.__setattr__(
            self, "interferometer_phase", normalize_angle(self.interferometer_phase)
        )
        object.__setattr__(self, "tones", tuple(self.tones))
        object.__setattr__(self, "ports", tuple(self.ports))

    def _check_moments(self) -> None:
        """Reject a scheme whose output covariance or mean field would overflow
        a float, naming the setting that drives it.

        Beam splitters and losses attenuate, and an amplifier of gain G scales
        an amplitude by at most G + g.  So the output covariance is at most the
        product of (G + g)^2, and the output mean field at most the last
        amplifier's G + g times the field entering it: the probe's 2 sqrt(N),
        2 sqrt(N) depth per tone and, in ``sui``, the idler's field, below
        2 sqrt(N / eta_internal) since the seed is back-solved through the loss.
        A tone depth is squared on its own too (the closed-form SNRs), so its
        square is bounded whatever the probe.
        """
        for i, tone in enumerate(self.tones):
            if tone.depth * tone.depth > _MAX_MOMENT:
                raise ParameterError(
                    f"tones[{i}].depth",
                    f"the depth {tone.depth:.3g} squares beyond the largest state moment {_MAX_MOMENT:.3g}",
                )
        g1, g2 = (1.0 if a is None else a.gain + a.conjugate_gain for a in (self.opa1, self.opa2_or_amp))
        if (g1 * g2) * (g1 * g2) > _MAX_MOMENT:
            raise ParameterError(
                "scheme.gain_g1" if g1 > g2 else "scheme.gain_g2",
                f"the gains amplify the output covariance up to ({g1 * g2:.3g})^2, "
                f"beyond the largest state moment {_MAX_MOMENT:.3g}",
            )
        root_n = math.sqrt(self.probe_photon_number)
        probe = 2.0 * root_n
        if self.kind == "sui" and self.probe_photon_number > 0:
            probe += 2.0 * math.sqrt(self.probe_photon_number / self.losses.eta_internal)
        field = (probe + 2.0 * root_n * sum(t.depth for t in self.tones)) * g2
        if field * field > _MAX_MOMENT:
            # Name the largest of the factors that the bound multiplies.
            factors = {"scheme.gain_g2": g2, "scheme.probe_photon_number": 2.0 * root_n}
            if self.kind == "sui":
                factors["losses.eta_internal"] = 1.0 / math.sqrt(self.losses.eta_internal)
            factors.update({f"tones[{i}].depth": t.depth for i, t in enumerate(self.tones)})
            raise ParameterError(
                max(factors, key=factors.get),
                f"the output mean field reaches up to {field:.3g}, whose square is beyond "
                f"the largest state moment {_MAX_MOMENT:.3g}",
            )

    @property
    def n_modes(self) -> int:
        return 3 if self.tap_enabled else 2

    def port(self, port_name: str) -> HomodyneChannel:
        for channel in self.ports:
            if channel.port_name == port_name:
                return channel
        raise ValueError(
            f"unknown port {port_name!r}; available: {[p.port_name for p in self.ports]}"
        )


def _default_ports(losses: LossBudget, tap_enabled: bool) -> tuple[HomodyneChannel, ...]:
    ports = [
        HomodyneChannel(PORT_SIGNAL, 0.0, losses.eta_signal_det),
        HomodyneChannel(PORT_IDLER, math.pi / 2, losses.eta_idler_det),
    ]
    if tap_enabled:
        ports.append(HomodyneChannel(PORT_TAP, math.pi / 4, losses.eta_tap_det))
    return tuple(ports)


def _amplifier(key: str, gain: float | None) -> OpaParams | None:
    """The amplifier of a given gain, if any; a bad gain is named ``scheme.<key>``."""
    try:
        return None if gain is None else OpaParams(gain, 0.0)
    except ValueError as exc:
        raise ParameterError(f"scheme.{key}", str(exc)) from exc


def build_scheme(
    kind: str,
    *,
    probe_photon_number: float,
    tones: tuple[ModulationTone, ...] | list[ModulationTone] = (),
    losses: LossBudget | None = None,
    gain_g1: float | None = None,
    gain_g2: float | None = None,
    interferometer_phase: float = math.pi,
    tap_enabled: bool = False,
    ports: tuple[HomodyneChannel, ...] | list[HomodyneChannel] | None = None,
) -> SchemeInstance:
    """Assemble a :class:`SchemeInstance` with default losses and ports.

    ``gain_g2`` is the gain of the single amplifier in the ``amp`` scheme
    and of the recombining amplifier in the ``sui`` scheme; ``gain_g1`` is
    only meaningful for ``sui``.  Which gains a kind needs is checked by
    :class:`SchemeInstance`.  Port LO phases default to 0 (signal), pi/2
    (idler) and pi/4 (tap), with efficiencies taken from ``losses``.
    """
    losses = losses if losses is not None else LossBudget()
    if ports is None:
        ports = _default_ports(losses, tap_enabled)
    return SchemeInstance(
        kind=kind,
        probe_photon_number=probe_photon_number,
        losses=losses,
        tones=tuple(tones),
        ports=tuple(ports),
        opa1=_amplifier("gain_g1", gain_g1),
        opa2_or_amp=_amplifier("gain_g2", gain_g2),
        interferometer_phase=interferometer_phase,
        tap_enabled=tap_enabled,
    )


# --------------------------------------------------------------------------
# pipeline construction and evaluation
# --------------------------------------------------------------------------


def pipeline_elements(scheme: SchemeInstance) -> list[Element]:
    """Element list realising the scheme, in propagation order.

    The carrier comes first and each tone is its own displacement after it.
    Detector efficiencies are not part of the pipeline, they belong to the ports.
    """
    i_ps = scheme.probe_photon_number
    tone_elements = [
        Displace(
            0,
            2.0 * math.sqrt(i_ps) * t.depth * math.cos(t.angle),
            2.0 * math.sqrt(i_ps) * t.depth * math.sin(t.angle),
        )
        for t in scheme.tones
    ]
    # The tap keeps the transmitted signal on mode 0 and sends the +phase
    # reflection to mode 2, so both outputs carry the signal mean with the
    # same sign (needed by the post-detection combination).
    tap = [Splitter(0, 2, 0.5, math.pi)] if scheme.tap_enabled else []

    if scheme.kind == "bs":
        probe = [Displace(0, 2.0 * math.sqrt(i_ps), 0.0)]
        return probe + tone_elements + [Splitter(0, 1, 0.5, 0.0)] + tap

    if scheme.kind == "amp":
        probe = [Displace(0, 2.0 * math.sqrt(i_ps), 0.0)]
        amp = TwoModeSqueeze(0, 1, scheme.opa2_or_amp.gain, scheme.opa2_or_amp.pump_phase)
        return probe + tone_elements + [amp] + tap

    # SU(1,1): the seed is back-solved so the probe at the sensing plane
    # (after the internal loss, where the modulators act) carries i_ps
    # photons in its mean field.
    eta_int = scheme.losses.eta_internal
    g1 = scheme.opa1.gain
    seed_amplitude = math.sqrt(i_ps / eta_int) / g1 if i_ps > 0 else 0.0
    elements: list[Element] = [
        Displace(0, 2.0 * seed_amplitude, 0.0),
        TwoModeSqueeze(0, 1, g1, scheme.opa1.pump_phase),
    ]
    if eta_int != 1.0:
        elements.append(Loss(0, eta_int))
    elements += tone_elements
    elements.append(TwoModeSqueeze(0, 1, scheme.opa2_or_amp.gain, scheme.interferometer_phase))
    elements += tap
    return elements


def tone_at_angle(scheme: SchemeInstance, angle: float) -> ModulationTone | None:
    """The first of the scheme's tones encoded at quadrature ``angle``, if any."""
    for tone in scheme.tones:
        if math.isclose(tone.angle, angle, abs_tol=1e-12):
            return tone
    return None


def port_modes(scheme: SchemeInstance) -> dict[str, int]:
    modes = {PORT_SIGNAL: 0, PORT_IDLER: 1}
    if scheme.tap_enabled:
        modes[PORT_TAP] = 2
    return modes


def _with_tones(scheme: SchemeInstance, active_tones: frozenset[float] | None) -> SchemeInstance:
    """The scheme keeping only the tones at ``active_tones`` (None keeps all)."""
    if active_tones is None:
        return scheme
    return dataclasses.replace(scheme, tones=tuple(t for t in scheme.tones if t.frequency_hz in active_tones))


def output_state(
    scheme: SchemeInstance, active_tones: frozenset[float] | None = None
) -> tuple[GaussianState, dict[str, int]]:
    """Deterministic state at the measurement plane plus port-to-mode map."""
    channel = compile_pipeline(scheme.n_modes, pipeline_elements(_with_tones(scheme, active_tones)))
    return vacuum_output(scheme.n_modes, *channel), port_modes(scheme)


@dataclasses.dataclass(frozen=True)
class MeasurementModel:
    """Everything the analysis and the photocurrent generator need about the ports.

    ``noise_cov`` is the joint covariance of the port readouts with
    detector efficiencies folded in; ``tone_amplitudes`` maps each tone
    frequency to the signed sinusoid amplitude it contributes per port.
    """

    port_names: tuple[str, ...]
    lo_phases: tuple[float, ...]
    efficiencies: tuple[float, ...]
    noise_cov: np.ndarray
    tone_amplitudes: dict[float, tuple[float, ...]]

    def _port_index(self, port_name: str) -> int:
        if port_name not in self.port_names:
            raise ValueError(f"unknown port {port_name!r}; available: {list(self.port_names)}")
        return self.port_names.index(port_name)

    def variance(self, port_name: str) -> float:
        """Homodyne noise variance (SNU) at a port, detector efficiency included."""
        index = self._port_index(port_name)
        return float(self.noise_cov[index, index])

    def amplitude(self, port_name: str, frequency_hz: float) -> float:
        """Signed mean shift a tone produces at a port's readout, sqrt(efficiency) included."""
        if frequency_hz not in self.tone_amplitudes:
            raise ValueError(f"no tone at {frequency_hz} Hz; available: {list(self.tone_amplitudes)}")
        return self.tone_amplitudes[frequency_hz][self._port_index(port_name)]

    def snr(self, port_name: str, frequency_hz: float) -> float:
        """Single-shot SNR of one tone at one port: squared mean shift over noise."""
        return self.amplitude(port_name, frequency_hz) ** 2 / self.variance(port_name)

    def best_port(self, frequency_hz: float) -> tuple[str, float]:
        """Port with the largest SNR for one tone, and that SNR."""
        return max(((p, self.snr(p, frequency_hz)) for p in self.port_names), key=lambda ps: ps[1])


def measurement_model(scheme: SchemeInstance) -> MeasurementModel:
    """Read the ports off the scheme's compiled channel ``(S, N, D)``.

    With LO projections ``P`` and ``E = diag(sqrt(eta))`` for the detectors,
    ``noise_cov = E P V P^T E + diag(1 - eta)`` for the output covariance
    ``V = S S^T + N``; the tone amplitudes are ``E P D`` past the carrier column.
    """
    transfer, noise, shifts = compile_pipeline(scheme.n_modes, pipeline_elements(scheme))
    state = vacuum_output(scheme.n_modes, transfer, noise, shifts)
    modes = port_modes(scheme)
    eta = np.array([c.efficiency for c in scheme.ports])
    readout = np.zeros((len(scheme.ports), 2 * scheme.n_modes))
    for row, channel in zip(readout, scheme.ports):
        ix, iy = xy_indices(modes[channel.port_name])
        row[ix], row[iy] = math.cos(channel.lo_phase), math.sin(channel.lo_phase)
    readout *= np.sqrt(eta)[:, None]
    tones = shifts[:, 1:]
    amplitudes = readout @ tones
    # A port orthogonal to a tone reads only the rounding of cos(pi/2), some
    # 1e-16 of the tone; zero it so that no sinusoid is synthesised for it.
    amplitudes[np.abs(amplitudes) <= 1e-12 * np.linalg.norm(tones, axis=0)] = 0.0
    return MeasurementModel(
        port_names=tuple(c.port_name for c in scheme.ports),
        lo_phases=tuple(c.lo_phase for c in scheme.ports),
        efficiencies=tuple(c.efficiency for c in scheme.ports),
        noise_cov=readout @ state.cov @ readout.T + np.diag(1.0 - eta),
        tone_amplitudes={
            tone.frequency_hz: tuple(amplitudes[:, k].tolist()) for k, tone in enumerate(scheme.tones)
        },
    )


def port_noise_variance(scheme: SchemeInstance, port_name: str) -> float:
    """:meth:`MeasurementModel.variance` of the scheme's model."""
    return measurement_model(scheme).variance(port_name)


def tone_port_amplitude(scheme: SchemeInstance, port_name: str, frequency_hz: float) -> float:
    """:meth:`MeasurementModel.amplitude` of the scheme's model."""
    return measurement_model(scheme).amplitude(port_name, frequency_hz)


def port_snr(scheme: SchemeInstance, port_name: str, frequency_hz: float) -> float:
    """:meth:`MeasurementModel.snr` of the scheme's model."""
    return measurement_model(scheme).snr(port_name, frequency_hz)


# --------------------------------------------------------------------------
# dark fringe
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DarkFringeResult:
    phi_star: float
    flat: bool
    #: Fringe amplitude over its mean, (max - min) / (max + min); 0 when flat.
    visibility: float


def find_dark_fringe(scheme: SchemeInstance) -> DarkFringeResult:
    """Interferometer phase minimising the total output power of an SU(1,1) scheme.

    The lock reads the carrier alone, column 0 of ``D``: the
    sinusoidal tones average to zero over any realistic lock bandwidth, so
    they must not bias the operating point.  OPA2 is the only element that
    reads the phase, and the tap after it is passive, so with ``M = V + m m^T``
    the second moments entering OPA2 (gains G2, g2) the total output photon
    number is the interference fringe of Yurke, McCall and Klauder
    (Phys. Rev. A 33, 4033, 1986)::

        N(phi) = mean + G2 g2 (A cos(phi) + B sin(phi)),
        A = M[Xs, Xi] - M[Ys, Yi],   B = M[Xs, Yi] + M[Ys, Xi],
        mean = ((G2^2 + g2^2) tr M_si + tr M_rest - 2 n) / 4,

    where ``M_si`` is the signal-idler block, ``M_rest`` the tap mode's and
    ``n`` the number of modes.  Its minimum, at ``atan2(-B, -A)``, is read
    off one compile of the pipeline up to OPA2.  If the fringe is flat
    (either amplifier at unit gain), the canonical phase pi is returned with
    ``flat=True``.  No state is built here: whoever reads the locked scheme
    (:func:`measurement_model`, :func:`output_state`) checks its state.
    """
    if scheme.kind != "sui":
        raise ValueError("the dark fringe is only defined for the SU(1,1) scheme")
    # Drop OPA2 and the tap; the tones end the prefix, so column 0 is the carrier as if they were absent.
    elements = pipeline_elements(scheme)
    transfer, noise, shifts = compile_pipeline(scheme.n_modes, elements[: -2 if scheme.tap_enabled else -1])
    carrier = shifts[:, 0]
    moments = transfer @ transfer.T + noise + np.outer(carrier, carrier)
    (xs, ys), (xi, yi) = xy_indices(0), xy_indices(1)
    a = moments[xs, xi] - moments[ys, yi]
    b = moments[xs, yi] + moments[ys, xi]
    # Signal and idler are modes 0 and 1: the first four quadratures.
    pair = float(np.trace(moments[:4, :4]))
    rest = float(np.trace(moments[4:, 4:]))
    gain, conj = scheme.opa2_or_amp.gain, scheme.opa2_or_amp.conjugate_gain
    mean = ((gain * gain + conj * conj) * pair + rest - 2.0 * scheme.n_modes) / 4.0
    amplitude = gain * conj * math.hypot(a, b)
    if 2.0 * amplitude <= 1e-9 * max(1.0, mean + amplitude):
        return DarkFringeResult(math.pi, True, 0.0)
    return DarkFringeResult(normalize_angle(math.atan2(-b, -a)), False, amplitude / mean)


# --------------------------------------------------------------------------
# derived analyses
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EfficiencyPoint:
    eta: float
    snr: float
    ratio: float


def snr_vs_detection_efficiency(
    scheme: SchemeInstance, port_name: str, frequency_hz: float, eta_grid
) -> list[EfficiencyPoint]:
    """SNR of one tone at one port as the detector efficiency is swept.

    For a shot-noise-limited port the SNR ratio to eta = 1 is exactly eta;
    for a port of variance V > 1 it is eta V / (eta V + 1 - eta), which is
    why amplified schemes barely feel detection loss.
    """

    def with_eta(eta: float) -> SchemeInstance:
        ports = tuple(
            dataclasses.replace(p, efficiency=eta) if p.port_name == port_name else p
            for p in scheme.ports
        )
        return dataclasses.replace(scheme, ports=ports)

    reference = measurement_model(with_eta(1.0)).snr(port_name, frequency_hz)
    points = []
    for eta in eta_grid:
        eta = float(eta)
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"detection efficiency grid values must lie in (0, 1], got {eta}")
        snr = measurement_model(with_eta(eta)).snr(port_name, frequency_hz)
        points.append(EfficiencyPoint(eta, snr, snr / reference if reference > 0 else 0.0))
    return points


def best_port_snr(scheme: SchemeInstance, frequency_hz: float) -> tuple[str, float]:
    """:meth:`MeasurementModel.best_port` of the scheme's model."""
    return measurement_model(scheme).best_port(frequency_hz)


@dataclasses.dataclass(frozen=True)
class ToneEnhancement:
    frequency_hz: float
    angle: float
    sui_port: str
    sui_snr: float
    baseline_port: str
    baseline_snr: float
    ratio: float


@dataclasses.dataclass(frozen=True)
class EnhancementReport:
    per_tone: tuple[ToneEnhancement, ...]
    # Two reference ratios bracketing the expected quantum advantage over a
    # beam-splitter baseline; they agree at large gain once the 3 dB
    # splitting penalty of the baseline is accounted for.
    ref_ratio_coherent_gain: float  # (G1 + g1)^2
    ref_ratio_photon_gain: float  # G1^2 + g1^2


def enhancement_report(sui: SchemeInstance, baseline: SchemeInstance) -> EnhancementReport:
    """Per-tone SNR ratios of an SU(1,1) scheme against a classical baseline.

    Refuses comparisons that are not like for like: the probe photon
    number and the tone plan must match exactly.
    """
    if sui.kind != "sui":
        raise ValueError("the first scheme must be the SU(1,1) interferometer")
    if baseline.kind not in ("bs", "amp"):
        raise ValueError("the baseline must be the beam-splitter or amplifier scheme")
    if sui.probe_photon_number != baseline.probe_photon_number:
        raise ValueError(
            "schemes use different probe photon numbers; equalise them for a fair comparison"
        )
    plan = lambda s: tuple((t.frequency_hz, t.depth, t.angle) for t in s.tones)
    if plan(sui) != plan(baseline):
        raise ValueError("schemes use different tone plans; equalise them for a fair comparison")

    return enhancement_from_models(sui, measurement_model(sui), measurement_model(baseline))


def enhancement_from_models(
    sui: SchemeInstance, sui_model: MeasurementModel, baseline_model: MeasurementModel
) -> EnhancementReport:
    """:func:`enhancement_report` read off models already built for both schemes."""
    rows = []
    for tone in sui.tones:
        sui_port, sui_snr = sui_model.best_port(tone.frequency_hz)
        base_port, base_snr = baseline_model.best_port(tone.frequency_hz)
        ratio = sui_snr / base_snr if base_snr > 0 else math.inf if sui_snr > 0 else 1.0
        rows.append(
            ToneEnhancement(
                tone.frequency_hz, tone.angle, sui_port, sui_snr, base_port, base_snr, ratio
            )
        )
    g1 = sui.opa1.gain
    c1 = sui.opa1.conjugate_gain
    return EnhancementReport(
        per_tone=tuple(rows),
        ref_ratio_coherent_gain=(g1 + c1) ** 2,
        ref_ratio_photon_gain=g1**2 + c1**2,
    )


def matched_baseline(sui: SchemeInstance, kind: str) -> SchemeInstance:
    """Classical baseline sharing the SU(1,1) scheme's probe, tones and detectors.

    The amplifier baseline reuses the recombining amplifier's gain so the
    two schemes have equal signal gain.
    """
    if sui.kind != "sui":
        raise ValueError("a baseline is derived from an SU(1,1) scheme")
    if kind not in ("bs", "amp"):
        raise ValueError(f"unknown baseline kind {kind!r}")
    return build_scheme(
        kind,
        probe_photon_number=sui.probe_photon_number,
        tones=sui.tones,
        losses=sui.losses,
        gain_g2=sui.opa2_or_amp.gain if kind == "amp" else None,
        tap_enabled=sui.tap_enabled,
        ports=sui.ports,
    )
