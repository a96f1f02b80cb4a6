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
pipeline up to OPA2, the sensing plane, which the locked model reuses.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings

import numpy as np

from .gaussian import (
    GaussianState,
    OpaParams,
    _check_mode,
    _embed,
    beam_splitter_matrix,
    loss_channel,
    normalize_angle,
    phase_shift_matrix,
    two_mode_squeezer_matrix,
    xy_indices,
)

SCHEME_KINDS = ("bs", "sui", "amp")
PORT_SIGNAL = "signal"
PORT_IDLER = "idler"
PORT_TAP = "tap"
# The homodyne ports in mode order: name, default LO phase and the LossBudget
# field holding the detector efficiency.  The tap, on mode 2, is optional.
_PORTS = (
    (PORT_SIGNAL, 0.0, "eta_signal_det"),
    (PORT_IDLER, math.pi / 2, "eta_idler_det"),
    (PORT_TAP, math.pi / 4, "eta_tap_det"),
)

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
    is the output shift of the k-th :class:`Displace` on its own.  The fold
    starts from the identity channel: ``S = I``, ``N = 0`` and no columns.
    """
    dim = 2 * n_modes
    return _fold(n_modes, (np.eye(dim), np.zeros((dim, dim)), np.zeros((dim, 0))), elements)


def _fold(n_modes: int, channel: tuple, elements: list[Element]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The channel ``(S, N, D)`` followed by ``elements``, folded element by element.

    An element of transfer ``M`` and added noise ``A`` maps the channel to
    ``(M S, M N M^T + A, M D)``; a :class:`Displace` appends its shift as a new column of ``D``.
    """
    transfer, noise, shifts = channel
    for element in elements:
        if isinstance(element, Displace):
            _check_mode(n_modes, element.mode)
            column = np.zeros((2 * n_modes, 1))
            ix, iy = xy_indices(element.mode)
            column[ix, 0], column[iy, 0] = element.dx, element.dy
            shifts = np.concatenate([shifts, column], axis=1)
            continue
        m, added = _element_channel(n_modes, element)
        transfer, noise, shifts = m @ transfer, m @ noise @ m.T + added, m @ shifts
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
                stacklevel=3,
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
        if self.port_name not in [name for name, _, _ in _PORTS]:
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
        names = sorted(p.port_name for p in self.ports)
        expected = sorted(name for name, _, _ in _PORTS[: self.n_modes])
        if names != expected:
            raise ValueError(
                f"a scheme with tap_enabled={self.tap_enabled} needs exactly the ports {expected}, got {names}"
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
    ports = _PORTS if tap_enabled else _PORTS[:2]
    return tuple(HomodyneChannel(name, lo_phase, getattr(losses, field)) for name, lo_phase, field in ports)


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
    return _sensing_plane_elements(scheme) + _readout_elements(scheme, scheme.interferometer_phase)


def _sensing_plane_elements(scheme: SchemeInstance) -> list[Element]:
    """The first elements of the pipeline, up to the sensing plane: the
    carrier, OPA1 and the internal loss for SU(1,1), then the tones."""
    i_ps = scheme.probe_photon_number
    tone_elements = [
        Displace(
            0,
            2.0 * math.sqrt(i_ps) * t.depth * math.cos(t.angle),
            2.0 * math.sqrt(i_ps) * t.depth * math.sin(t.angle),
        )
        for t in scheme.tones
    ]
    if scheme.kind != "sui":
        return [Displace(0, 2.0 * math.sqrt(i_ps), 0.0)] + tone_elements

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
    return elements + tone_elements


def _readout_elements(scheme: SchemeInstance, phase: float) -> list[Element]:
    """The last elements of the pipeline: the splitter, the amplifier or OPA2
    (pumped at ``phase``) that mixes signal and idler, then the tap if any."""
    if scheme.kind == "bs":
        mixer = Splitter(0, 1, 0.5, 0.0)
    else:
        amp = scheme.opa2_or_amp
        mixer = TwoModeSqueeze(0, 1, amp.gain, phase if scheme.kind == "sui" else amp.pump_phase)
    # The tap keeps the transmitted signal on mode 0 and sends the +phase
    # reflection to mode 2, so both outputs carry the signal mean with the
    # same sign (needed by the post-detection combination).
    return [mixer, Splitter(0, 2, 0.5, math.pi)] if scheme.tap_enabled else [mixer]


def tone_at_angle(scheme: SchemeInstance, angle: float) -> ModulationTone | None:
    """The first of the scheme's tones encoded at quadrature ``angle``, if any."""
    for tone in scheme.tones:
        if math.isclose(tone.angle, angle, abs_tol=1e-12):
            return tone
    return None


def port_modes(scheme: SchemeInstance) -> dict[str, int]:
    return {name: mode for mode, (name, _, _) in enumerate(_PORTS[: scheme.n_modes])}


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

    def snr_table(self) -> dict[str, list[float]]:
        """Every port's SNR for every tone: port name -> SNRs in ``tone_amplitudes`` order."""
        variances = self.noise_cov.diagonal().tolist()
        amplitudes = list(self.tone_amplitudes.values())
        return {name: [a[i] ** 2 / variances[i] for a in amplitudes] for i, name in enumerate(self.port_names)}


def measurement_model(scheme: SchemeInstance, *, lock: DarkFringeResult | None = None) -> MeasurementModel:
    """Read the ports off the scheme's compiled channel ``(S, N, D)``.

    With LO projections ``P`` and ``E = diag(sqrt(eta))`` for the detectors,
    ``noise_cov = E P V P^T E + diag(1 - eta)`` for the output covariance
    ``V = S S^T + N``; the tone amplitudes are ``E P D`` past the carrier column.
    Given ``lock``, :func:`find_dark_fringe` of ``scheme``, the scheme is read at ``lock.phi_star``:
    only OPA2 and the tap are folded onto ``lock.sensing_plane``, as :func:`compile_pipeline` folds them.
    """
    n_modes, ports = scheme.n_modes, scheme.ports
    if lock is None:
        channel = compile_pipeline(n_modes, pipeline_elements(scheme))
    else:
        channel = _fold(n_modes, lock.sensing_plane, _readout_elements(scheme, lock.phi_star))
    state = vacuum_output(n_modes, *channel)
    modes = port_modes(scheme)
    eta = [c.efficiency for c in ports]
    # Rows, tone norms and the diagonal are a few scalars each: they are read
    # and assembled on Python floats, since each numpy call costs more than its arithmetic.
    rows = []
    for port, root in zip(ports, map(math.sqrt, eta)):
        row = [0.0] * (2 * n_modes)
        ix, iy = xy_indices(modes[port.port_name])
        row[ix], row[iy] = math.cos(port.lo_phase) * root, math.sin(port.lo_phase) * root
        rows.append(row)
    readout = np.array(rows)
    shifts = channel[2]
    amplitudes = (readout @ shifts[:, 1:]).tolist()
    # A port orthogonal to a tone reads only the rounding of cos(pi/2), some
    # 1e-16 of the tone; zero it so that no sinusoid is synthesised for it.
    tone_amplitudes = {}
    for k, (tone, column) in enumerate(zip(scheme.tones, list(zip(*shifts.tolist()))[1:])):
        bound = 1e-12 * math.sqrt(sum([x * x for x in column]))
        tone_amplitudes[tone.frequency_hz] = tuple(0.0 if abs(a[k]) <= bound else a[k] for a in amplitudes)
    noise_cov = readout @ state.cov @ readout.T
    noise_cov.flat[:: len(eta) + 1] += [1.0 - e for e in eta]
    return MeasurementModel(
        port_names=tuple(c.port_name for c in ports),
        lo_phases=tuple(c.lo_phase for c in ports),
        efficiencies=tuple(eta),
        noise_cov=noise_cov,
        tone_amplitudes=tone_amplitudes,
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
    #: The channel ``(S, N, D)`` of the pipeline up to OPA2, the sensing plane, that the lock read.
    sensing_plane: tuple = dataclasses.field(repr=False, compare=False)


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
    off one compile of the pipeline up to OPA2, kept as ``sensing_plane``.  If
    the fringe is flat (either amplifier at unit gain), the canonical phase pi
    is returned with ``flat=True``.  No state is built here: whoever reads the
    locked scheme (:func:`measurement_model`, :func:`output_state`) checks its state.
    """
    if scheme.kind != "sui":
        raise ValueError("the dark fringe is only defined for the SU(1,1) scheme")
    # The tones end the sensing plane's elements, so column 0 is the carrier as if they were absent.
    sensing_plane = compile_pipeline(scheme.n_modes, _sensing_plane_elements(scheme))
    transfer, noise, shifts = sensing_plane
    # The fringe reads a few moments: Python floats off one product, since each
    # numpy call costs more than its arithmetic.
    carrier = [row[0] for row in shifts.tolist()]
    cov = (transfer @ transfer.T + noise).tolist()
    moments = [[v + ci * cj for v, cj in zip(row, carrier)] for row, ci in zip(cov, carrier)]
    (xs, ys), (xi, yi) = xy_indices(0), xy_indices(1)
    a = moments[xs][xi] - moments[ys][yi]
    b = moments[xs][yi] + moments[ys][xi]
    # Signal and idler are modes 0 and 1: the first four quadratures, each trace summed in order.
    diagonal = [row[i] for i, row in enumerate(moments)]
    pair, rest = sum(diagonal[:4]), sum(diagonal[4:], 0.0)
    gain, conj = scheme.opa2_or_amp.gain, scheme.opa2_or_amp.conjugate_gain
    mean = ((gain * gain + conj * conj) * pair + rest - 2.0 * scheme.n_modes) / 4.0
    amplitude = gain * conj * math.hypot(a, b)
    if 2.0 * amplitude <= 1e-9 * max(1.0, mean + amplitude):
        return DarkFringeResult(math.pi, True, 0.0, sensing_plane)
    return DarkFringeResult(normalize_angle(math.atan2(-b, -a)), False, amplitude / mean, sensing_plane)


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
    """:func:`_best_port` of the tone at ``frequency_hz`` in the scheme model's SNR table."""
    model = measurement_model(scheme)
    if frequency_hz not in model.tone_amplitudes:
        raise ValueError(f"no tone at {frequency_hz} Hz; available: {list(model.tone_amplitudes)}")
    return _best_port(model.snr_table(), list(model.tone_amplitudes).index(frequency_hz))


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

    return enhancement_from_tables(sui, measurement_model(sui).snr_table(), measurement_model(baseline).snr_table())


def _best_port(table: dict[str, list[float]], k: int) -> tuple[str, float]:
    """The first port, in table order, with the largest SNR of tone ``k``, and that SNR."""
    return max(((port, row[k]) for port, row in table.items()), key=lambda ps: ps[1])


def enhancement_from_tables(
    sui: SchemeInstance, sui_table: dict[str, list[float]], baseline_table: dict[str, list[float]]
) -> EnhancementReport:
    """:func:`enhancement_report` read off the :meth:`MeasurementModel.snr_table` of both schemes' models."""
    rows = []
    for k, tone in enumerate(sui.tones):
        sui_port, sui_snr = _best_port(sui_table, k)
        base_port, base_snr = _best_port(baseline_table, k)
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
