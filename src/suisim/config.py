"""Run-configuration loading, strict validation and bundled presets.

Configs are JSON documents with the sections ``scheme``, ``losses``,
``tones``, ``ports``, ``sim`` and ``output``.  Unknown keys are rejected
rather than ignored so that a saved config reproduces exactly the run it
came from.  The bundled presets ``fig2`` .. ``fig5`` encode the reference
operating points used throughout the test suite.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import math
import sys

from .schemes import (
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
_LOSS_KEYS = {"eta_internal", "eta_signal_det", "eta_idler_det", "eta_tap_det"}
_TONE_KEYS = {"frequency_hz", "depth", "angle_rad"}
_PORTS_KEYS = {"tap_enabled", "channels"}
_CHANNEL_KEYS = {"name", "lo_phase_rad", "efficiency"}
_SIM_KEYS = {"sample_rate_hz", "duration_s", "rbw_hz", "seed", "combine"}
_COMBINE_KEYS = {"thetas", "calibration_tone_hz"}
_OUTPUT_KEYS = {"directory"}
_TOP_KEYS = {"scheme", "losses", "tones", "ports", "sim", "output"}

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

    def __post_init__(self):
        # Checked here rather than in load_config so that the CLI's --seed
        # override, applied with dataclasses.replace, is checked as well.
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("config key 'sim.seed' must be a nonnegative integer")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    scheme: SchemeInstance
    auto_dark_fringe: bool
    compare_with: str | None
    sim: SimSettings
    output_dir: str | None
    #: Fully expanded config (defaults filled in), embedded in outputs.
    resolved: dict
    #: The config as given, without default expansion; parameter sweeps
    #: rebase on this so port efficiencies keep tracking the loss budget
    #: unless a channel pinned its own.
    raw: dict


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config section '{path}' must be a mapping")
    return value


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{path}.{key}'" if path else f"unknown config key '{key}'")


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


@contextlib.contextmanager
def _values_under(path: str):
    """Report a :class:`ParameterError` raised inside as a config error at
    ``path.<parameter>``."""
    try:
        yield
    except ParameterError as exc:
        key = f"{path}.{exc.name}" if path else exc.name
        raise ConfigError(f"config key '{key}': {exc}") from exc


def validate_raw(raw: dict) -> None:
    """Structural validation; value-level checks happen at build time."""
    _require_mapping(raw, "<top>")
    _check_keys(raw, _TOP_KEYS, "")
    scheme = _require_mapping(raw.get("scheme", {}), "scheme")
    _check_keys(scheme, _SCHEME_KEYS, "scheme")
    if "kind" not in scheme:
        raise ConfigError("missing required config key 'scheme.kind'")
    losses = _require_mapping(raw.get("losses", {}), "losses")
    _check_keys(losses, _LOSS_KEYS, "losses")
    tones = raw.get("tones", [])
    if not isinstance(tones, list):
        raise ConfigError("config section 'tones' must be a list")
    for i, tone in enumerate(tones):
        _check_keys(_require_mapping(tone, f"tones[{i}]"), _TONE_KEYS, f"tones[{i}]")
    ports = _require_mapping(raw.get("ports", {}), "ports")
    _check_keys(ports, _PORTS_KEYS, "ports")
    channels = ports.get("channels", [])
    if not isinstance(channels, list):
        raise ConfigError("config key 'ports.channels' must be a list")
    for i, channel in enumerate(channels):
        _check_keys(
            _require_mapping(channel, f"ports.channels[{i}]"),
            _CHANNEL_KEYS,
            f"ports.channels[{i}]",
        )
    sim = _require_mapping(raw.get("sim", {}), "sim")
    _check_keys(sim, _SIM_KEYS, "sim")
    if "combine" in sim and sim["combine"] is not None:
        _check_keys(_require_mapping(sim["combine"], "sim.combine"), _COMBINE_KEYS, "sim.combine")
    output = _require_mapping(raw.get("output", {}), "output")
    _check_keys(output, _OUTPUT_KEYS, "output")


def _resolve_gain(scheme_raw: dict, key: str, path: str) -> float | None:
    if key not in scheme_raw:
        return None
    value = _number(scheme_raw, key, path="scheme")
    convention = scheme_raw.get("gain_convention", "amplitude")
    if convention == "amplitude":
        return value
    if convention == "power":
        if value < 1.0:
            raise ConfigError(f"power gain 'scheme.{key}' must be >= 1")
        return math.sqrt(value)
    raise ConfigError("config key 'scheme.gain_convention' must be 'amplitude' or 'power'")


def load_config(source: str | dict) -> RunConfig:
    """Build a validated :class:`RunConfig` from a JSON file path or a dict."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            raw = json.load(handle)
    else:
        raw = copy.deepcopy(source)
    validate_raw(raw)
    raw_input = copy.deepcopy(raw)

    scheme_raw = raw.get("scheme", {})
    kind = scheme_raw.get("kind")
    losses_raw = raw.get("losses", {})
    try:
        with _values_under("losses"):
            losses = LossBudget(
                **{
                    field.name: _number(losses_raw, field.name, "losses", field.default)
                    for field in dataclasses.fields(LossBudget)
                }
            )
        tones = []
        for i, t in enumerate(raw.get("tones", [])):
            with _values_under(f"tones[{i}]"):
                tones.append(
                    ModulationTone(
                        frequency_hz=_number(t, "frequency_hz", f"tones[{i}]"),
                        depth=_number(t, "depth", f"tones[{i}]"),
                        angle=_number(t, "angle_rad", f"tones[{i}]", 0.0),
                    )
                )

        ports_raw = raw.get("ports", {})
        tap_enabled = ports_raw.get("tap_enabled", False)
        if not isinstance(tap_enabled, bool):
            raise ConfigError("config key 'ports.tap_enabled' must be true or false")
        defaults = _default_ports(losses, tap_enabled)
        names = [default.port_name for default in defaults]
        overrides = {}
        for i, channel in enumerate(ports_raw.get("channels", [])):
            name = channel.get("name")
            if name not in names:
                raise ConfigError(
                    f"config key 'ports.channels[{i}].name' must be one of {names}, got {name!r}"
                )
            if name in overrides:
                raise ConfigError(f"config key 'ports.channels[{i}].name' repeats the channel {name!r}")
            overrides[name] = (channel, f"ports.channels[{i}]")
        ports = []
        for default in defaults:
            channel, path = overrides.get(default.port_name, ({}, "ports"))
            lo_phase = _number(channel, "lo_phase_rad", path, default.lo_phase)
            efficiency = _number(channel, "efficiency", path, default.efficiency)
            with _values_under(path):
                ports.append(dataclasses.replace(default, lo_phase=lo_phase, efficiency=efficiency))

        phase_raw = scheme_raw.get("interferometer_phase", math.pi)
        auto = isinstance(phase_raw, str)
        if auto and phase_raw != AUTO_DARK_FRINGE:
            raise ConfigError(
                f"config key 'scheme.interferometer_phase' must be a number or {AUTO_DARK_FRINGE!r}"
            )
        phase = math.pi if auto else _number(scheme_raw, "interferometer_phase", "scheme", math.pi)

        with _values_under(""):
            scheme = build_scheme(
                kind,
                probe_photon_number=_number(scheme_raw, "probe_photon_number", "scheme"),
                tones=tones,
                losses=losses,
                gain_g1=_resolve_gain(scheme_raw, "gain_g1", "scheme"),
                gain_g2=_resolve_gain(scheme_raw, "gain_g2", "scheme"),
                interferometer_phase=phase,
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
    if compare_with is not None and kind != "sui":
        raise ConfigError("config key 'scheme.compare_with' needs scheme.kind = 'sui'")

    frequencies = [t.frequency_hz for t in scheme.tones]
    sim_raw = raw.get("sim", {})
    combine = None
    if sim_raw.get("combine") is not None:
        combine_raw = sim_raw["combine"]
        thetas = combine_raw.get("thetas", [])
        if not isinstance(thetas, list) or not all(_is_finite_number(v) for v in thetas):
            raise ConfigError("config key 'sim.combine.thetas' must be a list of finite numbers")
        if not tap_enabled:
            raise ConfigError("config key 'sim.combine' needs ports.tap_enabled = true")
        combine = CombineSettings(
            thetas=tuple(float(v) for v in thetas),
            calibration_tone_hz=_number(combine_raw, "calibration_tone_hz", "sim.combine"),
        )
        if combine.calibration_tone_hz not in frequencies:
            raise ConfigError(
                "config key 'sim.combine.calibration_tone_hz' must be one of the tone "
                f"frequencies {frequencies}, got {combine.calibration_tone_hz}"
            )
    sim = SimSettings(
        sample_rate_hz=_number(sim_raw, "sample_rate_hz", "sim", SimSettings.sample_rate_hz),
        duration_s=_number(sim_raw, "duration_s", "sim", SimSettings.duration_s),
        rbw_hz=_number(sim_raw, "rbw_hz", "sim", SimSettings.rbw_hz),
        seed=sim_raw.get("seed", 0),
        combine=combine,
    )
    with _values_under("sim"):
        check_readout(sim.duration_s, sim.sample_rate_hz, sim.rbw_hz, frequencies)
    output_dir = raw.get("output", {}).get("directory")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("config key 'output.directory' must be a string")

    resolved = _resolved_dict(scheme, phase_raw, compare_with, sim, output_dir)
    return RunConfig(
        scheme=scheme,
        auto_dark_fringe=auto,
        compare_with=compare_with,
        sim=sim,
        output_dir=output_dir,
        resolved=resolved,
        raw=raw_input,
    )


def _resolved_dict(scheme, phase_raw, compare_with, sim, output_dir) -> dict:
    scheme_section = {
        "kind": scheme.kind,
        "probe_photon_number": scheme.probe_photon_number,
        "interferometer_phase": phase_raw if isinstance(phase_raw, str) else float(phase_raw),
        "compare_with": compare_with,
    }
    if scheme.opa1 is not None:
        scheme_section["gain_g1"] = scheme.opa1.gain
    if scheme.opa2_or_amp is not None:
        scheme_section["gain_g2"] = scheme.opa2_or_amp.gain
    combine = None
    if sim.combine is not None:
        combine = {
            "thetas": list(sim.combine.thetas),
            "calibration_tone_hz": sim.combine.calibration_tone_hz,
        }
    return {
        "scheme": scheme_section,
        "losses": dataclasses.asdict(scheme.losses),
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
        "sim": {
            "sample_rate_hz": sim.sample_rate_hz,
            "duration_s": sim.duration_s,
            "rbw_hz": sim.rbw_hz,
            "seed": sim.seed,
            "combine": combine,
        },
        "output": {"directory": output_dir},
    }


def set_parameter(raw: dict, path: str, value: float) -> dict:
    """Copy of ``raw`` with one sweepable config path replaced."""
    if path not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"unknown sweep parameter '{path}'; valid parameters: {', '.join(SWEEP_PARAMETERS)}"
        )
    out = copy.deepcopy(raw)
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
    return copy.deepcopy(_PRESETS[name])
