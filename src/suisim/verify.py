"""Built-in verification suite: engine invariants and acceptance checks.

Each check is a zero-argument callable returning a :class:`CheckResult`;
its body returns ``(passed, detail)`` and :func:`_check` names the result
and records the check's wall time.  ``run_all`` executes every registered
check with fixed seeds, so every result but its duration is deterministic,
and the suite doubles as the ``suisim verify`` command and as the
acceptance test module.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Callable

import numpy as np

from . import gaussian
from .bogoliubov import (
    build_transfer_from_elements,
    closed_form_snr,
    exact_port_variances,
    oracle_homodyne_mean,
    oracle_homodyne_variance,
)
from .config import load_config, preset_config
from .gaussian import (
    apply_loss,
    apply_phase_shift,
    homodyne_stats,
    mean_photon_number,
    omega,
    symplectic_eigenvalues,
)
from .schemes import (
    PORT_TAP,
    Displace,
    Element,
    HomodyneChannel,
    Loss,
    LossBudget,
    MeasurementModel,
    PhaseShift,
    SchemeInstance,
    Splitter,
    TwoModeSqueeze,
    build_scheme,
    compile_pipeline,
    find_dark_fringe,
    matched_baseline,
    measurement_model,
    output_state,
    snr_vs_detection_efficiency,
    vacuum_output,
)
from .spectra import CombineSettings, _median, band_floor, report_band, simulate_spectra, tone_power


@dataclasses.dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str
    #: Wall time of the check in seconds; results that differ only in it are equal.
    duration_s: float = dataclasses.field(default=0.0, compare=False)


_REGISTRY: list[tuple[str, Callable[[], CheckResult]]] = []


def _check(check_id: str):
    """Register a check whose body returns ``(passed, detail)``."""

    def decorator(func):
        @functools.wraps(func)
        def check() -> CheckResult:
            start = time.perf_counter()
            passed, detail = func()
            return CheckResult(check_id, bool(passed), detail, time.perf_counter() - start)

        _REGISTRY.append((check_id, check))
        return check

    return decorator


def check_ids() -> list[str]:
    return [check_id for check_id, _ in _REGISTRY]


def run_check(check_id: str) -> CheckResult:
    for cid, func in _REGISTRY:
        if cid == check_id:
            return func()
    raise ValueError(f"unknown check {check_id!r}")


def run_all(progress: Callable[[CheckResult], None] | None = None) -> list[CheckResult]:
    results = []
    for _, func in _REGISTRY:
        result = func()
        results.append(result)
        if progress is not None:
            progress(result)
    return results


# --------------------------------------------------------------------------
# random pipelines shared by several checks
# --------------------------------------------------------------------------


def random_pipeline(
    rng: np.random.Generator,
    with_loss: bool = True,
    with_displacement: bool = False,
    max_squeezers: int = 3,
    max_gain: float = 5.0,
) -> tuple[int, list[Element]]:
    """Random well-formed element list for cross-engine comparisons.

    Squeezer count is capped so variances stay small enough for the
    1e-9 absolute agreement bound to be meaningful in double precision.
    """
    n_modes = int(rng.integers(2, 7))
    elements: list[Element] = []
    if with_displacement:
        for mode in range(n_modes):
            if rng.random() < 0.5:
                elements.append(Displace(mode, float(rng.normal(0, 5)), float(rng.normal(0, 5))))
    n_elements = int(rng.integers(3, 9))
    n_squeezers = 0
    kinds = ("squeeze", "split", "phase", "loss" if with_loss else "phase")
    for _ in range(n_elements):
        kind = kinds[rng.integers(4)]
        if kind == "squeeze" and n_squeezers < max_squeezers:
            a, b = rng.choice(n_modes, size=2, replace=False)
            elements.append(
                TwoModeSqueeze(
                    int(a),
                    int(b),
                    float(rng.uniform(1.0, max_gain)),
                    float(rng.uniform(0, 2 * math.pi)),
                )
            )
            n_squeezers += 1
        elif kind == "split":
            a, b = rng.choice(n_modes, size=2, replace=False)
            elements.append(
                Splitter(
                    int(a), int(b), float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * math.pi))
                )
            )
        elif kind == "loss":
            elements.append(Loss(int(rng.integers(n_modes)), float(rng.uniform(0.2, 1.0))))
        else:
            elements.append(PhaseShift(int(rng.integers(n_modes)), float(rng.uniform(0, 2 * math.pi))))
    return n_modes, elements


# The reference operating point: the fig2 preset's scheme at the dark fringe, phi = pi.
# The three-port checks take fig4's tones, which put a pi/4 tone between fig2's two.
_FIG2 = load_config(preset_config("fig2")).scheme
_PROBE_PHOTONS = _FIG2.probe_photon_number
_GAINS = (_FIG2.opa1.gain, _FIG2.opa2_or_amp.gain)
_TONES = _FIG2.tones
_THREE_TONES = load_config(preset_config("fig4")).scheme.tones
_X_HZ, _Y_HZ = (t.frequency_hz for t in _TONES)  # the tones at angles 0 and pi/2
_THREE_HZ = tuple(t.frequency_hz for t in _THREE_TONES)  # the tones at angles 0, pi/4 and pi/2

#: The paper's sui/amp ratios at that point, "target+-tolerance": the x and y tones' SNRs and the noise floor.
_TARGETS = {"ratio_x": "1.256+-0.05", "ratio_y": "1.270+-0.05", "noise-floor ratio": "0.80+-0.03"}
_TARGET_VALUES = [tuple(map(float, target.split("+-"))) for target in _TARGETS.values()]  # (target, tolerance)


def _reference_sui(eta_internal: float = _FIG2.losses.eta_internal, **changes) -> SchemeInstance:
    """The fig2 scheme at ``eta_internal``, with ``changes`` to its :func:`build_scheme` arguments."""
    arguments = {
        "probe_photon_number": _PROBE_PHOTONS,
        "tones": _TONES,
        "losses": dataclasses.replace(_FIG2.losses, eta_internal=eta_internal),
        "gain_g1": _GAINS[0],
        "gain_g2": _GAINS[1],
        "interferometer_phase": _FIG2.interferometer_phase,
    }
    return build_scheme("sui", **(arguments | changes))


# --------------------------------------------------------------------------
# engine invariants
# --------------------------------------------------------------------------


@_check("invariant-symplectic-transforms")
def check_symplectic_transforms() -> tuple[bool, str]:
    rng = np.random.default_rng(101)
    form = omega(2)
    worst = 0.0
    for _ in range(200):
        candidates = [
            gaussian.two_mode_squeezer_matrix(rng.uniform(1, 5), rng.uniform(0, 2 * math.pi)),
            gaussian.beam_splitter_matrix(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)),
        ]
        for s in candidates:
            worst = max(worst, float(np.max(np.abs(s @ form @ s.T - form))))
        s2 = gaussian.phase_shift_matrix(rng.uniform(0, 2 * math.pi))
        worst = max(worst, float(np.max(np.abs(s2 @ omega(1) @ s2.T - omega(1)))))
    return worst < 1e-12, f"max |S O S^T - O| = {worst:.3e}"


@_check("invariant-uncertainty-and-purity")
def check_uncertainty_and_purity() -> tuple[bool, str]:
    rng = np.random.default_rng(102)
    min_nu = math.inf
    worst_purity = 0.0
    for _ in range(150):
        lossy = bool(rng.integers(2))
        # Compounded squeezing is bounded so covariance norms stay around
        # 1e3; beyond that the 1e-9 absolute eigenvalue bound drops below
        # double-precision resolution of the matrix itself.
        n_modes, elements = random_pipeline(rng, with_loss=lossy, max_squeezers=2, max_gain=3.0)
        state = vacuum_output(n_modes, *compile_pipeline(n_modes, elements))
        nus = symplectic_eigenvalues(state)
        min_nu = min(min_nu, float(nus.min()))
        if not lossy:
            worst_purity = max(worst_purity, abs(float(np.prod(nus)) - 1.0))
    passed = min_nu >= 1.0 - 1e-9 and worst_purity <= 1e-9
    return passed, f"min symplectic eigenvalue {min_nu:.12f}, max lossless purity defect {worst_purity:.3e}"


@_check("invariant-loss-composition")
def check_loss_composition() -> tuple[bool, str]:
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        # Moderate gains keep covariance entries of order 10, where the
        # 1e-12 absolute agreement bound is meaningful in double precision.
        n_modes, elements = random_pipeline(rng, max_squeezers=2, max_gain=2.5)
        state = vacuum_output(n_modes, *compile_pipeline(n_modes, elements))
        mode = int(rng.integers(n_modes))
        eta1, eta2 = rng.uniform(0.1, 1.0, size=2)
        chained = apply_loss(apply_loss(state, mode, eta1), mode, eta2)
        merged = apply_loss(state, mode, eta1 * eta2)
        worst = max(
            worst,
            float(np.max(np.abs(chained.mean - merged.mean))),
            float(np.max(np.abs(chained.cov - merged.cov))),
        )
    return worst < 1e-12, f"max deviation {worst:.3e}"


@_check("invariant-homodyne-rotation")
def check_homodyne_rotation() -> tuple[bool, str]:
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n_modes, elements = random_pipeline(rng, with_displacement=True)
        state = vacuum_output(n_modes, *compile_pipeline(n_modes, elements))
        mode = int(rng.integers(n_modes))
        theta = float(rng.uniform(0, 2 * math.pi))
        direct = homodyne_stats(state, mode, theta)
        rotated = homodyne_stats(apply_phase_shift(state, mode, -theta), mode, 0.0)
        worst = max(worst, abs(direct[0] - rotated[0]), abs(direct[1] - rotated[1]))
    return worst < 1e-12, f"max deviation {worst:.3e}"


@_check("invariant-photon-conservation")
def check_photon_conservation() -> tuple[bool, str]:
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        n_modes, elements = random_pipeline(rng, with_loss=False, with_displacement=True)
        state = vacuum_output(n_modes, *compile_pipeline(n_modes, elements))
        a, b = rng.choice(n_modes, size=2, replace=False)
        before = mean_photon_number(state, int(a)) + mean_photon_number(state, int(b))
        mixed = gaussian.apply_beam_splitter(
            state, int(a), int(b), float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * math.pi))
        )
        after = mean_photon_number(mixed, int(a)) + mean_photon_number(mixed, int(b))
        worst = max(worst, abs(before - after) / max(1.0, abs(before)))
    return worst < 1e-12, f"max relative leak {worst:.3e}"


# --------------------------------------------------------------------------
# acceptance criteria
# --------------------------------------------------------------------------


@_check("acceptance-01-formula-regression")
def check_formula_regression() -> tuple[bool, str]:
    worst = 0.0
    for i_ps in (1e2, 1e4):
        for depth in (0.005, 0.01, 0.02):
            scaled = tuple(dataclasses.replace(t, depth=depth) for t in _TONES)
            cases = [build_scheme("bs", probe_photon_number=i_ps, tones=scaled)]
            cases += [
                build_scheme("amp", probe_photon_number=i_ps, tones=scaled, gain_g2=gain)
                for gain in (1.5, 3.0, 9.0)
            ]
            for scheme in cases:
                model, ref = measurement_model(scheme), closed_form_snr(scheme)
                worst = max(
                    worst,
                    abs(model.snr("signal", _X_HZ) / ref.snr_x - 1.0),
                    abs(model.snr("idler", _Y_HZ) / ref.snr_y - 1.0),
                )
    return worst < 1e-3, f"max relative deviation {worst:.3e}"


@_check("acceptance-02-sui-asymptote")
def check_sui_asymptote() -> tuple[bool, str]:
    scheme = _reference_sui(losses=LossBudget(), gain_g2=50.0)
    sui, ref = measurement_model(scheme), closed_form_snr(scheme)
    dev_x = abs(sui.snr("signal", _X_HZ) / ref.snr_x - 1.0)
    dev_y = abs(sui.snr("idler", _Y_HZ) / ref.snr_y - 1.0)
    return (
        max(dev_x, dev_y) < 0.01,
        f"signal-X dev {dev_x:.2%}, idler-Y dev {dev_y:.2%} from 2(G1+g1)^2 I eps^2 = {ref.snr_x:.4f}",
    )


@_check("acceptance-03-amp-equals-bs-limit")
def check_amp_equals_bs_limit() -> tuple[bool, str]:
    amp = closed_form_snr(build_scheme("amp", probe_photon_number=_PROBE_PHOTONS, tones=_TONES, gain_g2=10.0))
    bs = closed_form_snr(build_scheme("bs", probe_photon_number=_PROBE_PHOTONS, tones=_TONES))
    dev = max(abs(amp.snr_x / bs.snr_x - 1.0), abs(amp.snr_y / bs.snr_y - 1.0))
    return dev < 0.01, f"componentwise deviation {dev:.3%} at G = 10"


@_check("acceptance-04-dark-fringe")
def check_dark_fringe() -> tuple[bool, str]:
    details = []
    passed = True
    for label, scheme in (
        ("lossless", _reference_sui(eta_internal=1.0)),
        ("calibrated-loss", _reference_sui()),
    ):
        fringe = find_dark_fringe(scheme)
        phi_err = abs(fringe.phi_star - math.pi)
        locked = dataclasses.replace(scheme, interferometer_phase=fringe.phi_star)
        state, modes = output_state(locked)
        _, variances = homodyne_stats(state, modes["signal"], np.linspace(0, 2 * math.pi, 32, endpoint=False))
        spread = float(variances.max() / variances.min() - 1.0)
        passed &= phi_err < 1e-3 and spread < 1e-6 and not fringe.flat
        details.append(f"{label}: |phi*-pi| = {phi_err:.2e}, LO-angle spread {spread:.2e}")
    return passed, "; ".join(details)


def _calibration_ratios(sui: MeasurementModel, amp: MeasurementModel):
    ratio_x = sui.snr("signal", _X_HZ) / amp.snr("signal", _X_HZ)
    ratio_y = sui.snr("idler", _Y_HZ) / amp.snr("idler", _Y_HZ)
    floor = sui.variance("signal") / amp.variance("signal")
    return ratio_x, ratio_y, floor


def _calibration_deviation(eta_internal: np.ndarray, power_reading: bool = False) -> np.ndarray:
    """Max normalised deviation from the calibration targets at each internal transmission.

    It is read off the exact no-tap port variances, a whole grid per call.
    The matched ``amp`` baseline shares the ``sui`` scheme's G2, probe, tones
    and detectors, so each SNR ratio is the inverse ratio of the port
    variances, and the noise-floor ratio is the inverse of the x ratio.
    """
    # The power reading takes the reference gains as intensity gains G^2.
    g1, g2 = (math.sqrt(g) for g in _GAINS) if power_reading else _GAINS
    e_s, e_i = _FIG2.losses.eta_signal_det, _FIG2.losses.eta_idler_det
    amp_s, amp_i = exact_port_variances("amp", gain_g2=g2, eta_signal_det=e_s, eta_idler_det=e_i)
    sui_s, sui_i = exact_port_variances("sui", g1, g2, eta_internal, e_s, e_i)
    ratio_x, ratio_y = amp_s / sui_s, amp_i / sui_i
    readings = (ratio_x, ratio_y, 1.0 / ratio_x)
    return np.maximum.reduce([abs(r - target) / tol for r, (target, tol) in zip(readings, _TARGET_VALUES)])


# The internal transmissions the fit evaluates: all of (0, 1] at a 0.002 step.
_ETA_GRID = np.arange(1, 501) * 0.002


def fit_eta_internal(power_reading: bool = False) -> tuple[float, float]:
    """Internal transmission minimising the joint calibration deviation.

    Returns (eta_internal, max normalised deviation); a deviation <= 1
    means every target is inside its tolerance band.  A golden-section
    search between the neighbours of the best point of ``_ETA_GRID`` narrows
    a bracket of the minimum, a kink where two terms cross, to 1e-12.
    """
    grid = _ETA_GRID
    k = int(np.argmin(_calibration_deviation(grid, power_reading)))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = _calibration_deviation(c, power_reading), _calibration_deviation(d, power_reading)
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = _calibration_deviation(c, power_reading)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = _calibration_deviation(d, power_reading)
    return (float(c), float(fc)) if fc < fd else (float(d), float(fd))


@_check("acceptance-05-experimental-calibration")
def check_experimental_calibration() -> tuple[bool, str]:
    eta_star, dev = fit_eta_internal()
    sui = _reference_sui(eta_star)
    sui, amp = measurement_model(sui), measurement_model(matched_baseline(sui, "amp"))
    readings = _calibration_ratios(sui, amp)
    _, dev_power = fit_eta_internal(power_reading=True)
    # The shipped transmission fits too, so a preset edit that moves the fit off it fails.
    shipped_dev = _calibration_deviation(_FIG2.losses.eta_internal)
    in_bounds = all(abs(r - target) <= tol for r, (target, tol) in zip(readings, _TARGET_VALUES))
    passed = dev <= 1.0 and shipped_dev <= 1.0 and dev_power > 1.0 and in_bounds
    targets = ", ".join(f"{name} {r:.4f} (target {t})" for (name, t), r in zip(_TARGETS.items(), readings))
    detail = (
        f"fitted eta_internal = {eta_star:.4f}: {targets}; amplitude-gain reading fits "
        f"(max dev {dev:.2f}), power-gain reading does not (best dev {dev_power:.2f})"
    )
    return passed, detail


@_check("acceptance-06-loss-sensitivity")
def check_loss_sensitivity() -> tuple[bool, str]:
    bs = build_scheme("bs", probe_photon_number=_PROBE_PHOTONS, tones=_TONES)
    grid = np.linspace(0.1, 1.0, 10)
    bs_points = snr_vs_detection_efficiency(bs, "signal", _X_HZ, grid)
    bs_dev = max(abs(p.ratio - p.eta) for p in bs_points)

    amp = build_scheme("amp", probe_photon_number=_PROBE_PHOTONS, tones=_TONES, gain_g2=_GAINS[1])
    [point] = snr_vs_detection_efficiency(amp, "signal", _X_HZ, [0.5])
    variance, _ = exact_port_variances("amp", gain_g2=_GAINS[1])
    law = 0.5 * variance / (0.5 * variance + 0.5)
    amp_dev = abs(point.ratio - law)
    passed = bs_dev < 1e-9 and point.ratio >= 0.99 and amp_dev < 1e-9
    return (
        passed,
        f"BS ratio-vs-eta max deviation {bs_dev:.2e}; amplifier retains {point.ratio:.4%} "
        f"at eta = 0.5 (law {law:.6f}, deviation {amp_dev:.2e})",
    )


@_check("acceptance-07-tap-robustness")
def check_tap_robustness() -> tuple[bool, str]:
    sui_plain = _reference_sui(tap_enabled=False)
    snr_plain = measurement_model(sui_plain).snr("signal", _X_HZ)
    snr_tap = measurement_model(_reference_sui(tap_enabled=True)).snr("signal", _X_HZ)
    sui_change = 1.0 - snr_tap / snr_plain

    # A 50/50 tap followed by a detector of efficiency eta is exactly a
    # detector of efficiency eta/2 on the untapped port.
    eta_s = sui_plain.port("signal").efficiency
    [half] = snr_vs_detection_efficiency(sui_plain, "signal", _X_HZ, [eta_s / 2.0])
    law_dev = abs(snr_tap - half.snr)

    bs_snr = [
        measurement_model(
            build_scheme("bs", probe_photon_number=_PROBE_PHOTONS, tones=_TONES, tap_enabled=tap)
        ).snr("signal", _X_HZ)
        for tap in (False, True)
    ]
    bs_ratio = bs_snr[1] / bs_snr[0]

    passed = sui_change < 0.02 and law_dev < 1e-9 and abs(bs_ratio - 0.5) < 0.005
    return (
        passed,
        f"SU(1,1) signal SNR changes by {sui_change:.3%} (< 2%), matches the eta/2 law to "
        f"{law_dev:.2e}; the same tap scales the BS SNR by {bs_ratio:.6f}",
    )


@_check("acceptance-08-oracle-equivalence")
def check_oracle_equivalence() -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    worst_var = 0.0
    worst_mean = 0.0
    angles = np.arange(8) * math.pi / 4
    for _ in range(1000):
        n_modes, elements = random_pipeline(rng, with_displacement=True)
        state = vacuum_output(n_modes, *compile_pipeline(n_modes, elements))
        transfer = build_transfer_from_elements(n_modes, elements)
        modes = np.arange(n_modes)[:, None]  # every mode (rows) at every angle (columns)
        mean_e, var_e = homodyne_stats(state, modes, angles)
        worst_var = max(worst_var, np.abs(var_e - oracle_homodyne_variance(transfer, modes, angles)).max())
        worst_mean = max(worst_mean, np.abs(mean_e - oracle_homodyne_mean(transfer, modes, angles)).max())
    passed = worst_var < 1e-9 and worst_mean < 1e-9
    return (
        passed,
        f"1000 random schemes: max variance deviation {worst_var:.3e}, "
        f"max mean deviation {worst_mean:.3e}",
    )


@_check("acceptance-09-monte-carlo-fidelity")
def check_monte_carlo_fidelity() -> tuple[bool, str]:
    issues = []

    # Welch floors against analytic variances, and the SUI/AMP floor ratio.
    sui = _reference_sui()
    models = {"sui": measurement_model(sui), "amp": measurement_model(matched_baseline(sui, "amp"))}
    exclude = tuple(t.frequency_hz for t in sui.tones)
    floors = {}
    for (label, model), seed in zip(models.items(), (11, 12)):
        spectra = simulate_spectra(model, seed=seed).spectra
        for port in ("signal", "idler"):
            spec = spectra[port]
            if spec.n_averages < 200:
                issues.append(f"{label}/{port}: only {spec.n_averages} averages")
            measured = band_floor(spec, *report_band(spec.psd_snu.size, spec.bin_width, exclude), exclude=exclude)
            analytic = model.variance(port)
            floors[(label, port)] = measured
            if abs(measured / analytic - 1.0) > 0.02:
                issues.append(
                    f"{label}/{port} floor {measured:.3f} vs analytic {analytic:.3f}"
                )
    ratio = floors[("sui", "signal")] / floors[("amp", "signal")]
    analytic_ratio = models["sui"].variance("signal") / models["amp"].variance("signal")
    if abs(ratio / analytic_ratio - 1.0) > 0.03:
        issues.append(f"floor ratio {ratio:.4f} vs analytic {analytic_ratio:.4f}")
    target, tol = _TARGET_VALUES[2]
    if abs(ratio - target) > tol:
        issues.append(f"floor ratio {ratio:.4f} outside {_TARGETS['noise-floor ratio']}")

    # Tone power scales as depth^2.
    depths = (0.002, 0.005, 0.01, 0.02, 0.05)
    scaled = []
    for i, depth in enumerate(depths):
        tones = (dataclasses.replace(_TONES[0], depth=depth),)
        bs = build_scheme("bs", probe_photon_number=_PROBE_PHOTONS, tones=tones)
        spec = simulate_spectra(measurement_model(bs), seed=30 + i).spectra["signal"]
        scaled.append(tone_power(spec, _X_HZ) / depth**2)
    scaled = np.array(scaled)
    linearity = float(np.max(np.abs(scaled / _median(scaled) - 1.0)))
    if linearity > 0.03:
        issues.append(f"depth-squared linearity deviation {linearity:.3%}")

    # Three-tone projection pattern: relative powers follow cos^2.
    model = measurement_model(_reference_sui(tap_enabled=True, tones=_THREE_TONES))
    spectra = simulate_spectra(model, seed=40).spectra
    worst_projection = 0.0
    for port, lo_phase in zip(model.port_names, model.lo_phases):
        powers = np.array([tone_power(spectra[port], f, exclude=_THREE_HZ) for f in _THREE_HZ])
        measured = powers / powers.max()
        expected = np.array([math.cos(t.angle - lo_phase) ** 2 for t in _THREE_TONES])
        expected = expected / expected.max()
        worst_projection = max(worst_projection, float(np.max(np.abs(measured - expected))))
    if worst_projection > 0.05:
        issues.append(f"projection pattern deviation {worst_projection:.3f}")

    detail = (
        f"floor ratio {ratio:.4f} (analytic {analytic_ratio:.4f}), depth^2 linearity "
        f"{linearity:.3%}, worst cos^2 projection deviation {worst_projection:.4f}"
    )
    if issues:
        detail += "; issues: " + "; ".join(issues)
    return not issues, detail


def _with_channel_gain(model: MeasurementModel, port_name: str, gain: float) -> MeasurementModel:
    """``model`` read through an amplitude gain ``gain`` on one port's channel."""
    scale = np.where(np.array(model.port_names) == port_name, gain, 1.0)
    return dataclasses.replace(
        model,
        noise_cov=model.noise_cov * np.outer(scale, scale),
        tone_amplitudes={
            frequency: tuple(a * g for a, g in zip(amplitudes, scale))
            for frequency, amplitudes in model.tone_amplitudes.items()
        },
    )


@_check("acceptance-10-post-detection-combination")
def check_post_detection_combination() -> tuple[bool, str]:
    # Symmetric tap channels, with channel 1 deliberately running at 0.84x
    # gain so the balance calibration has something to recover.
    scheme = _reference_sui(tap_enabled=True, tones=_THREE_TONES)
    tap = HomodyneChannel(PORT_TAP, math.pi / 2, scheme.port("signal").efficiency)
    scheme = dataclasses.replace(scheme, ports=scheme.ports[:2] + (tap,))
    model = _with_channel_gain(measurement_model(scheme), "signal", 0.84)
    thetas = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    run = simulate_spectra(model, seed=50, combine=CombineSettings(thetas, _THREE_HZ[1]))
    k = run.balance_gain_k

    powers = {}
    floors = {}
    for theta, spec in zip(thetas, run.combined):
        powers[theta] = tone_power(spec, _THREE_HZ[1], exclude=_THREE_HZ)
        floors[theta] = band_floor(spec, *report_band(spec.psd_snu.size, spec.bin_width, _THREE_HZ), exclude=_THREE_HZ)
    suppression = powers[math.pi / 4] / max(powers[3 * math.pi / 4], 1e-30)
    floor_values = np.array(list(floors.values()))
    floor_spread = float(floor_values.max() / floor_values.min() - 1.0)

    passed = abs(k - 0.84) <= 0.02 and suppression >= 100.0 and floor_spread <= 0.03
    suppression_db = 10.0 * math.log10(suppression)
    return (
        passed,
        f"recovered k = {k:.4f} (target 0.84+-0.02); pi/4 tone suppressed by "
        f"{suppression_db:.1f} dB at theta = 3pi/4 (>= 20 dB); combined noise floor "
        f"spread {floor_spread:.3%} across theta (<= 3%)",
    )
