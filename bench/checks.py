"""Correctness checks made apart from the program.

Each check returns a list of problems (empty when the output is correct).
The closed forms are written out here from the scheme definitions; none is
taken from :mod:`suisim.bogoliubov`.  Conventions follow suisim: the vacuum
quadrature variance is 1, an amplifier of amplitude gain ``G`` has
conjugate gain ``g = sqrt(G^2 - 1)``, and a tone of depth ``d`` at angle
``a`` displaces the probe by ``2 sqrt(I_ps) d`` along ``a``.
"""

from __future__ import annotations

import math

#: Relative agreement demanded of analytic SNRs and variances.
CLOSED_FORM_RTOL = 1e-9
#: The engine against the operator-transfer oracle, at gains up to 1e3.
ORACLE_RTOL = 1e-7
#: The paper's calibration targets at the fig2 operating point.
FIG2_RATIO_X = (1.256, 0.05)
FIG2_RATIO_Y = (1.270, 0.05)
FLOOR_RATIO = (0.80, 0.03)
#: Measured Welch floor against the analytic variance.  The floor of a
#: 0.2 s record scatters by 0.35% between seeds, so 2% is about 6 sigma.
FLOOR_RTOL = 0.02
#: Normalised combined tone power against cos^2(theta0 - theta).
PATTERN_ATOL = 0.05
#: Largest phase error of the dark-fringe lock, and the probe step for
#: showing that the locked phase is a minimum of the output photon number.
FRINGE_ATOL = 1e-3
FRINGE_STEP = 1e-2


def closed_form_port(
    kind: str,
    port: str,
    *,
    i_ps: float,
    depth: float,
    tone_angle: float,
    lo_phase: float,
    efficiency: float,
    tap: bool,
    gain: float = 1.0,
) -> tuple[float, float]:
    """(SNR, noise variance) of one tone at one port of a ``bs`` or ``amp`` scheme.

    bs:  a 50/50 split sends half the probe power to each port, so
         ``SNR = 2 eta I_ps d^2 cos^2(a - phi_LO)`` on a vacuum floor.
    amp: the signal output carries ``G`` times the tone and the idler its
         conjugate ``g``, on a thermal floor ``G^2 + g^2``; the idler reads
         the mirrored angle, so its projection is ``cos(a + phi_LO)``.
    A 50/50 tap on the signal output halves the signal power on the signal
    and tap ports and mixes their floor with vacuum.
    """
    amp0 = 2.0 * math.sqrt(i_ps) * depth
    if kind == "bs":
        power = 0.5 * amp0**2 * math.cos(tone_angle - lo_phase) ** 2
        variance = 1.0
        if port != "idler" and tap:
            power *= 0.5
    elif kind == "amp":
        conj = math.sqrt(gain**2 - 1.0)
        variance = gain**2 + conj**2
        if port == "idler":
            power = (conj * amp0 * math.cos(tone_angle + lo_phase)) ** 2
        else:
            power = (gain * amp0 * math.cos(tone_angle - lo_phase)) ** 2
            if tap:
                power *= 0.5
                variance = 0.5 * (variance + 1.0)
    else:
        raise ValueError(f"no closed form for scheme kind {kind!r}")
    detected = efficiency * variance + 1.0 - efficiency
    return efficiency * power / detected, detected


def close(got: float, want: float, rtol: float, scale: float | None = None) -> bool:
    """|got - want| within ``rtol`` of ``scale`` (default ``|want|``)."""
    ref = abs(want) if scale is None else scale
    return math.isfinite(got) and abs(got - want) <= rtol * max(ref, 1e-300)


def in_band(value: float, target: tuple[float, float]) -> bool:
    centre, half_width = target
    return abs(value - centre) <= half_width


def check_section(section: dict, expected: dict, rtol: float, label: str) -> list[str]:
    """Compare a report's ``ports``/``snr`` section with expected values.

    ``expected`` maps ``(port, tone_key)`` to ``(snr, snr_scale)`` and
    ``port`` to its noise variance.  ``snr_scale`` is the SNR the tone
    would give at the best LO phase, so a tone read at right angles is
    judged against that size rather than against zero.
    """
    problems = []
    for key, want in expected.items():
        if isinstance(key, tuple):
            port, tone = key
            got = section["snr"][port][tone]
            snr, scale = want
            if not close(got, snr, rtol, scale):
                problems.append(f"{label}: SNR {port}@{tone} = {got!r}, expected {snr!r}")
        else:
            got = section["ports"][key]["noise_variance_snu"]
            if not close(got, want, rtol):
                problems.append(f"{label}: variance {key} = {got!r}, expected {want!r}")
    return problems


def check_fringe(phi_star: float, flat: bool, photons) -> list[str]:
    """The lock sits at pi and the output photon number is lowest there.

    ``photons(phi)`` gives the total output photon number of the
    unmodulated scheme at interferometer phase ``phi``.
    """
    if flat:
        return [] if phi_star == math.pi else [f"flat fringe locked at {phi_star!r}, not pi"]
    problems = []
    if abs(phi_star - math.pi) >= FRINGE_ATOL:
        problems.append(f"dark fringe at {phi_star!r}, {abs(phi_star - math.pi):.2e} from pi")
    centre = photons(phi_star)
    for side in (-FRINGE_STEP, FRINGE_STEP):
        if photons(phi_star + side) < centre:
            problems.append(f"output photon number drops at phi* {side:+g}")
    return problems


def check_fig2_targets(ratio_x: float, ratio_y: float, floor_ratio: float) -> list[str]:
    problems = []
    for name, value, target in (
        ("ratio_x", ratio_x, FIG2_RATIO_X),
        ("ratio_y", ratio_y, FIG2_RATIO_Y),
        ("floor ratio", floor_ratio, FLOOR_RATIO),
    ):
        if not in_band(value, target):
            problems.append(f"fig2 {name} {value:.4f} outside {target[0]} +- {target[1]}")
    return problems


def check_floor(measured: float, analytic: float, label: str) -> list[str]:
    if abs(measured / analytic - 1.0) <= FLOOR_RTOL:
        return []
    return [f"{label}: floor {measured:.4f} vs analytic {analytic:.4f}"]


def check_floor_ratio(ratio: float, label: str) -> list[str]:
    if in_band(ratio, FLOOR_RATIO):
        return []
    return [f"{label}: sui/amp floor ratio {ratio:.4f} outside {FLOOR_RATIO[0]} +- {FLOOR_RATIO[1]}"]


def check_projection(powers: dict[float, float], tone_angle: float, label: str) -> list[str]:
    """Combined tone powers over readout angles follow cos^2(theta0 - theta)."""
    expected = {theta: math.cos(tone_angle - theta) ** 2 for theta in powers}
    top_measured = max(powers.values())
    top_expected = max(expected.values())
    worst = max(abs(powers[t] / top_measured - expected[t] / top_expected) for t in powers)
    if worst <= PATTERN_ATOL:
        return []
    return [f"{label}: cos^2 projection deviation {worst:.3f}"]


def combined_variance(cov, k: float, theta: float, i1: int, i3: int) -> float:
    """Variance of ``i1 cos(theta) + k i3 sin(theta)`` from the port covariance."""
    c, s = math.cos(theta), math.sin(theta)
    return c * c * cov[i1][i1] + (k * s) ** 2 * cov[i3][i3] + 2.0 * k * c * s * cov[i1][i3]
