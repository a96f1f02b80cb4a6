"""Run-configuration loading, strict validation and bundled presets.

Configs are JSON documents with the sections ``scheme``, ``losses``,
``tones``, ``ports``, ``sim`` and ``output``.  The document is checked and
read in one pass: each section's type and keys are checked where its values
are read.  Unknown keys are rejected rather than ignored so that a saved
config reproduces exactly the run it came from.  The bundled presets
``fig2`` .. ``fig5`` encode the reference operating points used throughout
the test suite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import sys
import types

from .schemes import (
    HomodyneChannel,
    LossBudget,
    ModulationTone,
    ParameterError,
    SchemeInstance,
    _default_ports,
    build_scheme,
)
from .spectra import (
    DEFAULT_DURATION,
    DEFAULT_RBW,
    DEFAULT_SAMPLE_RATE,
    CombineSettings,
    check_readout,
)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


#: The ``scheme.interferometer_phase`` value that locks to the dark fringe.
AUTO_DARK_FRINGE = "auto-dark-fringe"

#: Internal transmission (fibre coupling plus temporal mode mismatch)
#: calibrated so the reference SU(1,1)/amplifier operating point
#: reproduces the measured SNR ratios; see the calibration check in
#: :mod:`suisim.verify`.
CALIBRATED_ETA_INTERNAL = 0.41

_SCHEME_KEYS = {
    "kind",
    "probe_photon_number",
    "gain_g1",
    "gain_g2",
    "gain_convention",
    "interferometer_phase",
    "compare_with",
}

#: Config paths cmd_sweep may vary.
SWEEP_PARAMETERS = (
    "scheme.probe_photon_number",
    "scheme.gain_g1",
    "scheme.gain_g2",
    "scheme.interferometer_phase",
    "losses.eta_internal",
    "losses.eta_signal_det",
    "losses.eta_idler_det",
    "losses.eta_tap_det",
)


@dataclasses.dataclass(frozen=True)
class SimSettings:
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE
    duration_s: float = DEFAULT_DURATION
    rbw_hz: float = DEFAULT_RBW
    seed: int = 0
    combine: CombineSettings | None = None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    scheme: SchemeInstance
    auto_dark_fringe: bool
    compare_with: str | None
    sim: SimSettings
    output_dir: str | None
    #: The config as given, without default expansion; parameter sweeps
    #: rebase on this so port efficiencies keep tracking the loss budget
    #: unless a channel pinned its own.
    raw: dict

    def __post_init__(self):
        if self.output_dir is not None and not (isinstance(self.output_dir, str) and self.output_dir):
            raise ConfigError("config key 'output.directory' must be a nonempty string")

    @property
    def resolved(self) -> dict:
        """Fully expanded config (defaults filled in), embedded in outputs."""
        scheme, combine = self.scheme, self.sim.combine
        # Shallow dicts of the dataclass fields: dataclasses.asdict would deep-copy every float.
        gains = {"gain_g1": scheme.opa1, "gain_g2": scheme.opa2_or_amp}
        return {
            "scheme": {
                "kind": scheme.kind,
                "probe_photon_number": scheme.probe_photon_number,
                "interferometer_phase": (
                    AUTO_DARK_FRINGE if self.auto_dark_fringe else scheme.interferometer_phase
                ),
                "compare_with": self.compare_with,
                **{key: opa.gain for key, opa in gains.items() if opa is not None},
            },
            "losses": dict(vars(scheme.losses)),
            "tones": [
                {"frequency_hz": t.frequency_hz, "depth": t.depth, "angle_rad": t.angle}
                for t in scheme.tones
            ],
            "ports": {
                "tap_enabled": scheme.tap_enabled,
                "channels": [
                    {"name": p.port_name, "lo_phase_rad": p.lo_phase, "efficiency": p.efficiency}
                    for p in scheme.ports
                ],
            },
            "sim": {**vars(self.sim), "combine": None if combine is None else dict(vars(combine))},
            "output": {"directory": self.output_dir},
        }


def _section(value, path: str, keys) -> dict:
    """``value``, checked to be a mapping whose keys all lie in ``keys``;
    ``path`` is empty for the top level."""
    if not isinstance(value, dict):
        raise ConfigError(f"config section '{path or '<top>'}' must be a mapping")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown config key '{path}.{key}'" if path else f"unknown config key '{key}'")
    return value


def _list(value, what: str) -> list:
    """``value``, checked to be a list; ``what`` names it in the error."""
    if not isinstance(value, list):
        raise ConfigError(f"config {what} must be a list")
    return value


@functools.cache
def _defaults(cls) -> types.MappingProxyType:
    """Field names of a settings dataclass, which are its config keys, and their defaults; shared, so read-only."""
    return types.MappingProxyType({field.name: field.default for field in dataclasses.fields(cls)})


def _copy(value):
    """Copy of a JSON-shaped value: new dicts, lists and tuples; numbers and strings shared."""
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_copy(item) for item in value)
    return value


def _is_finite_number(value) -> bool:
    """True for a JSON number (not a boolean) that is a finite float; the
    comparison is false for NaN and for integers beyond the float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _number(section: dict, key: str, path: str, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required config key '{path}.{key}'")
        return default
    value = section[key]
    if not _is_finite_number(value):
        raise ConfigError(f"config key '{path}.{key}' must be a finite number")
    return float(value)


class _values_under(contextlib.AbstractContextManager):
    """Report a :class:`ParameterError` raised inside as a config error at
    ``path.<parameter>``; any other exception passes through."""

    def __init__(self, path: str):
        self.path = path

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, ParameterError):
            key = f"{self.path}.{exc.name}" if self.path else exc.name
            raise ConfigError(f"config key '{key}': {exc}") from exc


def _resolve_gain(scheme_raw: dict, key: str) -> float | None:
    convention = scheme_raw.get("gain_convention", "amplitude")
    if convention not in ("amplitude", "power"):
        raise ConfigError("config key 'scheme.gain_convention' must be 'amplitude' or 'power'")
    if key not in scheme_raw:
        return None
    value = _number(scheme_raw, key, "scheme")
    if convention == "power":
        if value < 1.0:
            raise ConfigError(f"power gain 'scheme.{key}' must be >= 1")
        return math.sqrt(value)
    return value


def _read_ports(ports_raw, losses: LossBudget) -> tuple[bool, list]:
    """``tap_enabled`` and the port channels: the defaults for the loss budget,
    overridden per port by the ``ports.channels`` entries."""
    ports_raw = _section(ports_raw, "ports", {"tap_enabled", "channels"})
    tap_enabled = ports_raw.get("tap_enabled", False)
    if not isinstance(tap_enabled, bool):
        raise ConfigError("config key 'ports.tap_enabled' must be true or false")
    defaults = _default_ports(losses, tap_enabled)
    names = [default.port_name for default in defaults]
    overrides = {}
    for i, channel in enumerate(_list(ports_raw.get("channels", []), "key 'ports.channels'")):
        path = f"ports.channels[{i}]"
        name = _section(channel, path, {"name", "lo_phase_rad", "efficiency"}).get("name")
        if name not in names:
            raise ConfigError(f"config key '{path}.name' must be one of {names}, got {name!r}")
        if name in overrides:
            raise ConfigError(f"config key '{path}.name' repeats the channel {name!r}")
        overrides[name] = (channel, path)
    ports = []
    for default in defaults:
        channel, path = overrides.get(default.port_name, ({}, "ports"))
        lo_phase = _number(channel, "lo_phase_rad", path, default.lo_phase)
        efficiency = _number(channel, "efficiency", path, default.efficiency)
        with _values_under(path):
            ports.append(HomodyneChannel(default.port_name, lo_phase, efficiency))
    return tap_enabled, ports


def theta_label(theta: float) -> str:
    """Name of the combined readout at ``theta`` (rad) in its spectrum file and
    report key; the thetas of one run must have distinct labels."""
    return f"{theta:.4f}"


def _read_combine(combine_raw, tap_enabled: bool, frequencies: list[float]) -> CombineSettings | None:
    """The post-detection combination of ``sim.combine``, if one is given."""
    if combine_raw is None:
        return None
    combine_raw = _section(combine_raw, "sim.combine", _defaults(CombineSettings))
    thetas = combine_raw.get("thetas", [])
    if not isinstance(thetas, (list, tuple)) or not all(_is_finite_number(v) for v in thetas):
        raise ConfigError("config key 'sim.combine.thetas' must be a list of finite numbers")
    if not tap_enabled:
        raise ConfigError("config key 'sim.combine' needs ports.tap_enabled = true")
    combine = CombineSettings(
        thetas=tuple(float(v) for v in thetas),
        calibration_tone_hz=_number(combine_raw, "calibration_tone_hz", "sim.combine"),
    )
    labels = [theta_label(theta) for theta in combine.thetas]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigError(
                f"config key 'sim.combine.thetas[{i}]': theta {combine.thetas[i]} has the label {label} of "
                f"sim.combine.thetas[{labels.index(label)}], and its spectrum file and report key would overwrite them"
            )
    if combine.calibration_tone_hz not in frequencies:
        raise ConfigError(
            "config key 'sim.combine.calibration_tone_hz' must be one of the tone "
            f"frequencies {frequencies}, got {combine.calibration_tone_hz}"
        )
    return combine


def load_config(source: str | dict) -> RunConfig:
    """Build a validated :class:`RunConfig` from a JSON file path or a dict."""
    try:
        if isinstance(source, str):
            with open(source, encoding="utf-8") as handle:
                raw = json.load(handle)
        else:
            raw = _copy(source)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file '{source}': {exc}") from exc
    except RecursionError as exc:
        # JSON nested past the recursion limit, or a dict that contains itself.
        raise ConfigError("the config nests too deeply") from exc
    _section(raw, "", {"scheme", "losses", "tones", "ports", "sim", "output"})
    scheme_raw = _section(raw.get("scheme", {}), "scheme", _SCHEME_KEYS)
    if "kind" not in scheme_raw:
        raise ConfigError("missing required config key 'scheme.kind'")

    try:
        losses_raw = _section(raw.get("losses", {}), "losses", _defaults(LossBudget))
        with _values_under("losses"):
            losses = LossBudget(
                **{
                    key: _number(losses_raw, key, "losses", default)
                    for key, default in _defaults(LossBudget).items()
                }
            )
        tones = []
        for i, tone in enumerate(_list(raw.get("tones", []), "section 'tones'")):
            path = f"tones[{i}]"
            _section(tone, path, {"frequency_hz", "depth", "angle_rad"})
            with _values_under(path):
                tones.append(
                    ModulationTone(
                        frequency_hz=_number(tone, "frequency_hz", path),
                        depth=_number(tone, "depth", path),
                        angle=_number(tone, "angle_rad", path, 0.0),
                    )
                )
        tap_enabled, ports = _read_ports(raw.get("ports", {}), losses)

        phase_raw = scheme_raw.get("interferometer_phase", math.pi)
        auto = isinstance(phase_raw, str)
        if auto and phase_raw != AUTO_DARK_FRINGE:
            raise ConfigError(
                f"config key 'scheme.interferometer_phase' must be a number or {AUTO_DARK_FRINGE!r}"
            )
        with _values_under(""):
            scheme = build_scheme(
                scheme_raw["kind"],
                probe_photon_number=_number(scheme_raw, "probe_photon_number", "scheme"),
                tones=tones,
                losses=losses,
                gain_g1=_resolve_gain(scheme_raw, "gain_g1"),
                gain_g2=_resolve_gain(scheme_raw, "gain_g2"),
                interferometer_phase=(
                    math.pi if auto else _number(scheme_raw, "interferometer_phase", "scheme", math.pi)
                ),
                tap_enabled=tap_enabled,
                ports=ports,
            )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    compare_with = scheme_raw.get("compare_with")
    if compare_with is not None and compare_with not in ("bs", "amp"):
        raise ConfigError("config key 'scheme.compare_with' must be 'bs', 'amp' or null")
    if compare_with is not None and scheme.kind != "sui":
        raise ConfigError("config key 'scheme.compare_with' needs scheme.kind = 'sui'")

    frequencies = [t.frequency_hz for t in scheme.tones]
    sim_raw = _section(raw.get("sim", {}), "sim", _defaults(SimSettings))
    sim = SimSettings(
        sample_rate_hz=_number(sim_raw, "sample_rate_hz", "sim", SimSettings.sample_rate_hz),
        duration_s=_number(sim_raw, "duration_s", "sim", SimSettings.duration_s),
        rbw_hz=_number(sim_raw, "rbw_hz", "sim", SimSettings.rbw_hz),
        seed=sim_raw.get("seed", 0),
        combine=_read_combine(sim_raw.get("combine"), tap_enabled, frequencies),
    )
    check_seed(sim.seed, "config key 'sim.seed'")
    with _values_under("sim"):
        check_readout(sim.duration_s, sim.sample_rate_hz, sim.rbw_hz, frequencies)
    return RunConfig(
        scheme=scheme,
        auto_dark_fringe=auto,
        compare_with=compare_with,
        sim=sim,
        output_dir=_section(raw.get("output", {}), "output", {"directory"}).get("directory"),
        raw=raw,
    )


def check_seed(seed, name: str) -> None:
    """Raise :class:`ConfigError` unless ``seed`` is a nonnegative integer; ``name`` is its config key or option."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{name} must be a nonnegative integer")


def check_sweep_parameter(path: str) -> None:
    """Raise :class:`ConfigError` unless ``path`` is in :data:`SWEEP_PARAMETERS`."""
    if path not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"unknown sweep parameter '{path}'; valid parameters: {', '.join(SWEEP_PARAMETERS)}"
        )


def set_parameter(raw: dict, path: str, value: float) -> dict:
    """Copy of ``raw`` with one sweepable config path replaced."""
    check_sweep_parameter(path)
    out = _copy(raw)
    section, key = path.split(".")
    out.setdefault(section, {})[key] = value
    return out


# --------------------------------------------------------------------------
# presets
# --------------------------------------------------------------------------


def _reference_scheme(compare_with: str | None = "amp") -> dict:
    return {
        "kind": "sui",
        "probe_photon_number": 1.0e4,
        "gain_g1": 2.0,
        "gain_g2": 9.0,
        "gain_convention": "amplitude",
        "interferometer_phase": AUTO_DARK_FRINGE,
        "compare_with": compare_with,
    }


_REFERENCE_LOSSES = {
    "eta_internal": CALIBRATED_ETA_INTERNAL,
    "eta_signal_det": 0.72,
    "eta_idler_det": 0.62,
    "eta_tap_det": 0.80,
}

_PRESETS: dict[str, dict] = {
    # Two-port joint readout of amplitude and phase modulations.
    "fig2": {
        "scheme": _reference_scheme(),
        "losses": dict(_REFERENCE_LOSSES),
        "tones": [
            {"frequency_hz": 0.8e6, "depth": 0.01, "angle_rad": 0.0},
            {"frequency_hz": 1.2e6, "depth": 0.01, "angle_rad": math.pi / 2},
        ],
        "ports": {"tap_enabled": False},
        "sim": {"seed": 20},
    },
    # Non-orthogonal pair: amplitude tone plus a tone on the pi/4
    # quadrature.  The idler reads a rotated quadrature through phase
    # conjugation, so its LO sits at -pi/4 to catch the pi/4 tone.
    "fig3": {
        "scheme": _reference_scheme(),
        "losses": dict(_REFERENCE_LOSSES),
        "tones": [
            {"frequency_hz": 0.8e6, "depth": 0.01, "angle_rad": 0.0},
            {"frequency_hz": 1.0e6, "depth": 0.01, "angle_rad": math.pi / 4},
        ],
        "ports": {
            "tap_enabled": False,
            "channels": [
                {"name": "signal", "lo_phase_rad": 0.0},
                {"name": "idler", "lo_phase_rad": -math.pi / 4 % (2 * math.pi)},
            ],
        },
        "sim": {"seed": 21},
    },
    # Three tones on three non-commuting quadratures, read by three ports
    # after splitting the signal output.
    "fig4": {
        "scheme": _reference_scheme(),
        "losses": dict(_REFERENCE_LOSSES),
        "tones": [
            {"frequency_hz": 0.8e6, "depth": 0.01, "angle_rad": 0.0},
            {"frequency_hz": 1.0e6, "depth": 0.01, "angle_rad": math.pi / 4},
            {"frequency_hz": 1.2e6, "depth": 0.01, "angle_rad": math.pi / 2},
        ],
        "ports": {
            "tap_enabled": True,
            "channels": [
                {"name": "signal", "lo_phase_rad": 0.0},
                {"name": "idler", "lo_phase_rad": math.pi / 2},
                {"name": "tap", "lo_phase_rad": math.pi / 4},
            ],
        },
        "sim": {"seed": 22},
    },
    # Post-detection combination i(theta) = i1 cos(theta) + k i3 sin(theta)
    # from the two tap outputs at LO phases 0 and pi/2.
    "fig5": {
        "scheme": _reference_scheme(compare_with=None),
        "losses": dict(_REFERENCE_LOSSES),
        "tones": [
            {"frequency_hz": 0.8e6, "depth": 0.01, "angle_rad": 0.0},
            {"frequency_hz": 1.0e6, "depth": 0.01, "angle_rad": math.pi / 4},
            {"frequency_hz": 1.2e6, "depth": 0.01, "angle_rad": math.pi / 2},
        ],
        "ports": {
            "tap_enabled": True,
            "channels": [
                {"name": "signal", "lo_phase_rad": 0.0},
                {"name": "idler", "lo_phase_rad": math.pi / 2},
                {"name": "tap", "lo_phase_rad": math.pi / 2},
            ],
        },
        "sim": {
            "seed": 23,
            "combine": {
                "thetas": [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4],
                "calibration_tone_hz": 1.0e6,
            },
        },
    },
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_config(name: str) -> dict:
    """Deep copy of a bundled preset's raw config."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return _copy(_PRESETS[name])
