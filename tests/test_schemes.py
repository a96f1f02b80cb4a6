import dataclasses
import inspect
import math
import os
import warnings

import numpy as np
import pytest

from suisim import schemes
from suisim.bogoliubov import (
    build_transfer,
    build_transfer_from_elements,
    closed_form_snr,
    oracle_homodyne_mean,
    oracle_homodyne_variance,
)
from suisim.cli import _resolve_scheme, cmd_snr
from suisim.config import load_config, preset_config, set_parameter
from suisim.gaussian import (
    GaussianState,
    OpaParams,
    apply_channel,
    displace,
    homodyne_stats,
    mean_photon_number,
    normalize_angle,
    vacuum_state,
    xy_indices,
)
from suisim.schemes import (
    Displace,
    HomodyneChannel,
    Loss,
    LossBudget,
    ModulationTone,
    ParameterError,
    SchemeInstance,
    Splitter,
    TwoModeSqueeze,
    build_scheme,
    enhancement_report,
    find_dark_fringe,
    matched_baseline,
    measurement_model,
    output_state,
    pipeline_elements,
    port_modes,
    port_noise_variance,
    port_snr,
    snr_vs_detection_efficiency,
    tone_port_amplitude,
)

SQRT3 = math.sqrt(3.0)
AM = 0.8e6
PM = 1.2e6


def two_tones(depth=0.01):
    return (ModulationTone(AM, depth, 0.0), ModulationTone(PM, depth, math.pi / 2))


def reference_losses(eta_internal=0.41):
    return LossBudget(
        eta_internal=eta_internal,
        eta_signal_det=0.72,
        eta_idler_det=0.62,
        eta_tap_det=0.80,
    )


def reference_sui(eta_internal=0.41, tap_enabled=False, g2=9.0):
    return build_scheme(
        "sui",
        probe_photon_number=1e4,
        tones=two_tones(),
        losses=reference_losses(eta_internal),
        gain_g1=2.0,
        gain_g2=g2,
        interferometer_phase=math.pi,
        tap_enabled=tap_enabled,
    )


class TestBuilders:
    def test_bs_has_two_ports(self):
        scheme = build_scheme("bs", probe_photon_number=1e4, tones=two_tones())
        assert {p.port_name for p in scheme.ports} == {"signal", "idler"}
        assert scheme.n_modes == 2

    def test_sui_reference_point_builds(self):
        scheme = reference_sui()
        assert scheme.opa1.gain == 2.0
        assert scheme.opa2_or_amp.gain == 9.0

    def test_unit_gain_amplifier_is_direct_homodyne(self):
        # G = 1 passes the probe through: port SNR equals homodyne on the
        # undivided beam, (2 sqrt(I) eps)^2 / 1.
        amp = build_scheme("amp", probe_photon_number=1e4, tones=two_tones(), gain_g2=1.0)
        direct = displace(vacuum_state(1), 0, 2 * math.sqrt(1e4) * 0.01, 0.0)
        mean, var = homodyne_stats(direct, 0, 0.0)
        assert port_snr(amp, "signal", AM) == pytest.approx(mean**2 / var, rel=1e-12)

    def test_sui_needs_both_gains(self):
        with pytest.raises(ValueError, match="gain"):
            build_scheme("sui", probe_photon_number=1.0, gain_g1=2.0)

    def test_bs_rejects_gains(self):
        with pytest.raises(ValueError, match="gain"):
            build_scheme("bs", probe_photon_number=1.0, gain_g2=3.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            build_scheme("mzi", probe_photon_number=1.0)

    def test_port_count_must_match_tap_flag(self):
        cases = [
            (False, ("signal",)),
            (False, ("signal", "signal")),
            (False, ("signal", "idler", "tap")),
            (True, ("signal", "idler")),
            (True, ("signal", "idler", "idler")),
        ]
        for tap_enabled, names in cases:
            with pytest.raises(ValueError, match="needs exactly the ports"):
                SchemeInstance(
                    kind="bs",
                    probe_photon_number=1.0,
                    losses=LossBudget(),
                    tones=(),
                    ports=tuple(HomodyneChannel(name, 0.0) for name in names),
                    tap_enabled=tap_enabled,
                )

    def test_amp_needs_gain_g2(self):
        with pytest.raises(ParameterError) as info:
            build_scheme("amp", probe_photon_number=1.0)
        assert info.value.name == "scheme.gain_g2"

    def test_zero_internal_transmission_rejected_for_sui(self):
        with pytest.raises(ValueError, match="eta_internal"):
            build_scheme(
                "sui",
                probe_photon_number=1e4,
                gain_g1=2.0,
                gain_g2=9.0,
                losses=LossBudget(eta_internal=0.0),
            )

    def test_overflowing_mean_field_names_its_largest_factor(self):
        with pytest.warns(UserWarning, match="weak-modulation"), pytest.raises(ParameterError) as info:
            build_scheme(
                "bs",
                probe_photon_number=1e4,
                tones=(ModulationTone(AM, 0.01, 0.0), ModulationTone(PM, 1e300, 0.0)),
            )
        assert info.value.name == "tones[1].depth"

    def test_duplicate_tone_frequencies_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            build_scheme(
                "bs",
                probe_photon_number=1.0,
                tones=(ModulationTone(1e6, 0.01, 0.0), ModulationTone(1e6, 0.01, 1.0)),
            )

    def test_deep_modulation_warns(self):
        with pytest.warns(UserWarning, match="weak-modulation"):
            ModulationTone(1e6, 0.2, 0.0)

    def test_weak_modulation_warning_names_its_caller(self):
        # Not the dataclass's generated __init__, whose file reads "<string>".
        with pytest.warns(UserWarning, match="weak-modulation") as caught:
            ModulationTone(1e6, 0.2, 0.0)
        assert [w.filename for w in caught] == [__file__]
        raw = {"scheme": {"kind": "bs", "probe_photon_number": 1e4}, "tones": [{"frequency_hz": 1e6, "depth": 0.2}]}
        with pytest.warns(UserWarning, match="weak-modulation") as caught:
            load_config(raw)
        assert [os.path.basename(w.filename) for w in caught] == ["config.py"]


class TestOutputState:
    def test_bs_port_means_and_variances(self):
        i_ps = 1e4
        scheme = build_scheme("bs", probe_photon_number=i_ps, tones=two_tones())
        expected = math.sqrt(2.0) * math.sqrt(i_ps) * 0.01
        assert tone_port_amplitude(scheme, "signal", AM) == pytest.approx(expected, rel=1e-12)
        assert abs(tone_port_amplitude(scheme, "idler", PM)) == pytest.approx(expected, rel=1e-12)
        assert port_noise_variance(scheme, "signal") == pytest.approx(1.0, rel=1e-12)
        assert port_noise_variance(scheme, "idler") == pytest.approx(1.0, rel=1e-12)

    def test_amp_port_variances(self):
        scheme = build_scheme("amp", probe_photon_number=1e4, tones=two_tones(), gain_g2=2.0)
        lossless = dataclasses.replace(
            scheme,
            ports=tuple(dataclasses.replace(p, efficiency=1.0) for p in scheme.ports),
        )
        assert port_noise_variance(lossless, "signal") == pytest.approx(7.0, rel=1e-12)
        assert port_noise_variance(lossless, "idler") == pytest.approx(7.0, rel=1e-12)

    def test_balanced_sui_dark_fringe_output(self):
        # Equal gains, lossless, phi = pi: the recombiner undoes the
        # splitter.  The idler mean vanishes, the signal carrier is
        # deamplified to 2 sqrt(I)/G, and both outputs are exactly vacuum
        # in their noise.
        i_ps, gain = 1e4, 2.0
        scheme = build_scheme(
            "sui",
            probe_photon_number=i_ps,
            tones=(),
            gain_g1=gain,
            gain_g2=gain,
            interferometer_phase=math.pi,
        )
        state, modes = output_state(scheme)
        assert state.mean[2 * modes["idler"]] == pytest.approx(0.0, abs=1e-9)
        assert state.mean[2 * modes["signal"]] == pytest.approx(
            2 * math.sqrt(i_ps) / gain, rel=1e-12
        )
        for mode in modes.values():
            for theta in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                _, var = homodyne_stats(state, mode, theta)
                assert var == pytest.approx(1.0, abs=1e-10)

    def test_dark_fringe_variance_is_global_minimum(self):
        scheme = reference_sui()
        reference = port_noise_variance(scheme, "signal")
        for phi in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            variant = dataclasses.replace(scheme, interferometer_phase=phi)
            assert port_noise_variance(variant, "signal") >= reference - 1e-9


class TestDarkFringe:
    def test_reference_point_locks_to_pi(self):
        fringe = find_dark_fringe(reference_sui())
        assert not fringe.flat
        assert fringe.phi_star == pytest.approx(math.pi, abs=1e-12)

    def test_lock_ignores_modulation_depths(self):
        deep = dataclasses.replace(
            reference_sui(),
            tones=(ModulationTone(AM, 0.05, 0.0), ModulationTone(PM, 0.05, math.pi / 2)),
        )
        fringe = find_dark_fringe(deep)
        assert fringe.phi_star == pytest.approx(math.pi, abs=1e-12)

    def test_internal_loss_does_not_shift_the_fringe(self):
        fringe = find_dark_fringe(reference_sui(eta_internal=0.8))
        assert fringe.phi_star == pytest.approx(math.pi, abs=1e-12)

    def test_unit_recombiner_gain_is_flat(self):
        fringe = find_dark_fringe(reference_sui(g2=1.0))
        assert fringe.flat
        assert fringe.phi_star == math.pi and fringe.visibility == 0.0

    def test_unit_first_gain_is_flat(self):
        scheme = build_scheme(
            "sui", probe_photon_number=1e4, tones=two_tones(), losses=reference_losses(), gain_g1=1.0, gain_g2=9.0
        )
        fringe = find_dark_fringe(scheme)
        assert fringe.flat
        assert fringe.phi_star == math.pi and fringe.visibility == 0.0

    def test_only_defined_for_sui(self):
        bs = build_scheme("bs", probe_photon_number=1.0)
        with pytest.raises(ValueError, match="SU\\(1,1\\)"):
            find_dark_fringe(bs)

    def test_dark_fringe_noise_is_lo_phase_flat(self):
        scheme = reference_sui()
        state, modes = output_state(scheme, active_tones=frozenset())
        variances = [
            homodyne_stats(state, modes["signal"], theta)[1]
            for theta in np.linspace(0, 2 * math.pi, 32, endpoint=False)
        ]
        assert max(variances) / min(variances) - 1.0 < 1e-6


class TestPortSnr:
    def test_bs_matches_formula(self):
        scheme = build_scheme("bs", probe_photon_number=1e4, tones=two_tones())
        assert port_snr(scheme, "signal", AM) == pytest.approx(2.0, rel=1e-9)
        assert port_snr(scheme, "idler", PM) == pytest.approx(2.0, rel=1e-9)

    def test_sui_asymptote(self):
        lossless = build_scheme(
            "sui",
            probe_photon_number=1e4,
            tones=two_tones(),
            gain_g1=2.0,
            gain_g2=50.0,
            interferometer_phase=math.pi,
        )
        assert port_snr(lossless, "signal", AM) == pytest.approx(
            2.0 * (2.0 + SQRT3) ** 2, rel=0.01
        )

    def test_zero_depth_gives_zero_snr(self):
        scheme = build_scheme(
            "bs", probe_photon_number=1e4, tones=(ModulationTone(AM, 0.0, 0.0),)
        )
        assert port_snr(scheme, "signal", AM) == 0.0

    def test_unknown_tone_and_port(self):
        scheme = build_scheme("bs", probe_photon_number=1e4, tones=two_tones())
        with pytest.raises(ValueError, match="no tone"):
            port_snr(scheme, "signal", 9.9e6)
        with pytest.raises(ValueError, match="unknown port"):
            port_snr(scheme, "monitor", AM)

    def test_projection_follows_cosine_squared(self):
        # A tone at angle theta read at LO angle phi on the signal path
        # carries amplitude proportional to cos(theta - phi).
        theta_tone = math.pi / 4
        base = build_scheme(
            "sui",
            probe_photon_number=1e4,
            tones=(ModulationTone(1e6, 0.01, theta_tone),),
            gain_g1=2.0,
            gain_g2=9.0,
            interferometer_phase=math.pi,
        )
        def amplitude_at(phi):
            ports = tuple(
                dataclasses.replace(p, lo_phase=phi) if p.port_name == "signal" else p
                for p in base.ports
            )
            return tone_port_amplitude(dataclasses.replace(base, ports=ports), "signal", 1e6)

        peak = amplitude_at(theta_tone)
        for phi in np.linspace(0, 2 * math.pi, 12, endpoint=False):
            assert abs(amplitude_at(phi)) == pytest.approx(
                peak * abs(math.cos(theta_tone - phi)), abs=1e-9 * peak
            )


class TestDetectionEfficiency:
    def test_bs_ratio_is_exactly_eta(self):
        scheme = build_scheme("bs", probe_photon_number=1e4, tones=two_tones())
        for point in snr_vs_detection_efficiency(scheme, "signal", AM, np.linspace(0.1, 1, 10)):
            assert point.ratio == pytest.approx(point.eta, abs=1e-9)

    def test_amp_follows_variance_law(self):
        scheme = build_scheme("amp", probe_photon_number=1e4, tones=two_tones(), gain_g2=9.0)
        [point] = snr_vs_detection_efficiency(scheme, "signal", AM, [0.5])
        variance = 161.0
        assert point.ratio == pytest.approx(0.5 * variance / (0.5 * variance + 0.5), abs=1e-9)
        assert point.ratio > 0.99

    def test_unit_efficiency_ratio_is_one(self):
        scheme = reference_sui()
        [point] = snr_vs_detection_efficiency(scheme, "signal", AM, [1.0])
        assert point.ratio == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_efficiency(self):
        scheme = build_scheme("bs", probe_photon_number=1e4, tones=two_tones())
        with pytest.raises(ValueError, match="efficiency"):
            snr_vs_detection_efficiency(scheme, "signal", AM, [0.0])


class TestEnhancement:
    def test_large_gain_sui_vs_bs_ratio(self):
        sui = build_scheme(
            "sui",
            probe_photon_number=1e4,
            tones=two_tones(),
            gain_g1=2.0,
            gain_g2=50.0,
            interferometer_phase=math.pi,
        )
        report = enhancement_report(sui, matched_baseline(sui, "bs"))
        for row in report.per_tone:
            assert row.ratio == pytest.approx((2.0 + SQRT3) ** 2, rel=0.01)
        assert report.ref_ratio_coherent_gain == pytest.approx((2.0 + SQRT3) ** 2)
        assert report.ref_ratio_photon_gain == pytest.approx(7.0)

    def test_no_entanglement_means_no_enhancement(self):
        sui = build_scheme(
            "sui",
            probe_photon_number=1e4,
            tones=two_tones(),
            gain_g1=1.0,
            gain_g2=9.0,
            interferometer_phase=math.pi,
        )
        report = enhancement_report(sui, matched_baseline(sui, "bs"))
        for row in report.per_tone:
            assert row.ratio == pytest.approx(1.0, rel=0.01)

    def test_reference_point_vs_amplifier(self):
        sui = reference_sui()
        report = enhancement_report(sui, matched_baseline(sui, "amp"))
        by_freq = {row.frequency_hz: row.ratio for row in report.per_tone}
        assert by_freq[AM] == pytest.approx(1.26, abs=0.05)
        assert by_freq[PM] == pytest.approx(1.27, abs=0.05)

    def test_refuses_mismatched_probe(self):
        sui = reference_sui()
        baseline = build_scheme(
            "amp", probe_photon_number=2e4, tones=two_tones(),
            losses=reference_losses(), gain_g2=9.0,
        )
        with pytest.raises(ValueError, match="fair comparison"):
            enhancement_report(sui, baseline)

    def test_refuses_mismatched_tone_plan(self):
        sui = reference_sui()
        baseline = build_scheme(
            "amp",
            probe_photon_number=1e4,
            tones=(ModulationTone(AM, 0.02, 0.0), ModulationTone(PM, 0.02, math.pi / 2)),
            losses=reference_losses(),
            gain_g2=9.0,
        )
        with pytest.raises(ValueError, match="tone plans"):
            enhancement_report(sui, baseline)

    def test_snr_table_is_every_port_snr_and_ties_go_to_the_first_port(self):
        sui = reference_sui(tap_enabled=True)
        model = measurement_model(sui)
        table = model.snr_table()
        assert list(table) == list(model.port_names)
        for port, row in table.items():
            assert row == [model.snr(port, f) for f in model.tone_amplitudes]
        # Every port reads the same SNR: the first port wins.
        even = dataclasses.replace(
            model,
            noise_cov=np.eye(3),
            tone_amplitudes={f: (1.0, 1.0, 1.0) for f in model.tone_amplitudes},
        )
        report = schemes.enhancement_from_tables(sui, even.snr_table(), even.snr_table())
        for row in report.per_tone:
            assert (row.sui_port, row.baseline_port) == (even.port_names[0],) * 2
            assert (row.sui_port, row.sui_snr) == ("signal", 1.0)

    def test_best_port_snr_is_the_first_maximum_of_the_snr_table(self):
        sui = reference_sui(tap_enabled=True)
        table = measurement_model(sui).snr_table()
        for k, tone in enumerate(sui.tones):
            snrs = [(port, row[k]) for port, row in table.items()]
            first = next(ps for ps in snrs if ps[1] == max(snr for _, snr in snrs))
            assert schemes.best_port_snr(sui, tone.frequency_hz) == first
        with pytest.raises(ValueError, match="no tone"):
            schemes.best_port_snr(sui, 1.0)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda sui: enhancement_report(matched_baseline(sui, "bs"), sui), "first scheme"),
            (lambda sui: enhancement_report(sui, sui), "baseline must be"),
            (lambda sui: matched_baseline(matched_baseline(sui, "bs"), "amp"), "derived from an SU"),
            (lambda sui: matched_baseline(sui, "mzi"), "unknown baseline kind"),
        ],
    )
    def test_kinds_are_checked(self, call, match):
        with pytest.raises(ValueError, match=match):
            call(reference_sui())


class TestTap:
    def test_bs_tap_halves_snr(self):
        plain = build_scheme("bs", probe_photon_number=1e4, tones=two_tones())
        tapped = build_scheme("bs", probe_photon_number=1e4, tones=two_tones(), tap_enabled=True)
        ratio = port_snr(tapped, "signal", AM) / port_snr(plain, "signal", AM)
        assert ratio == pytest.approx(0.5, abs=0.005 * 0.5)

    def test_sui_tap_barely_matters_at_reference_point(self):
        plain = reference_sui()
        tapped = reference_sui(tap_enabled=True)
        ratio = port_snr(tapped, "signal", AM) / port_snr(plain, "signal", AM)
        assert ratio > 0.98

    def test_tap_equivalent_to_half_efficiency(self):
        plain = reference_sui()
        tapped = reference_sui(tap_enabled=True)
        eta = plain.port("signal").efficiency
        [half] = snr_vs_detection_efficiency(plain, "signal", AM, [eta / 2.0])
        assert port_snr(tapped, "signal", AM) == pytest.approx(half.snr, abs=1e-9)


class TestMeasurementModel:
    def test_noise_cov_matches_port_variances(self):
        scheme = reference_sui(tap_enabled=True)
        model = measurement_model(scheme)
        for idx, name in enumerate(model.port_names):
            assert model.noise_cov[idx, idx] == pytest.approx(
                port_noise_variance(scheme, name), rel=1e-12
            )
        assert np.allclose(model.noise_cov, model.noise_cov.T)
        assert np.linalg.eigvalsh(model.noise_cov).min() > 0

    def test_tone_amplitudes_match_single_shot_analysis(self):
        scheme = reference_sui()
        model = measurement_model(scheme)
        for tone in scheme.tones:
            for idx, name in enumerate(model.port_names):
                assert model.tone_amplitudes[tone.frequency_hz][idx] == pytest.approx(
                    tone_port_amplitude(scheme, name, tone.frequency_hz), abs=1e-12
                )

    def test_orthogonal_port_reads_exactly_zero(self):
        # The X port of a pi/2 tone sees only the rounding of cos(pi/2).
        for scheme in (reference_sui(), build_scheme("bs", probe_photon_number=1e4, tones=two_tones())):
            model = measurement_model(scheme)
            assert model.tone_amplitudes[PM][model.port_names.index("signal")] == 0.0
            assert port_snr(scheme, "signal", PM) == 0.0

    def test_both_tap_outputs_carry_positive_signal_mean(self):
        scheme = reference_sui(tap_enabled=True)
        model = measurement_model(scheme)
        amps = dict(zip(model.port_names, model.tone_amplitudes[AM]))
        assert amps["signal"] > 0
        assert amps["tap"] > 0


def oracle_port_readings(scheme):
    """Per-port variances and per-(port, tone) amplitudes from the operator
    transfer oracle; each amplitude is the difference of two oracle means."""
    modes = port_modes(scheme)
    base = build_transfer(scheme, active_tones=frozenset())
    variances, amplitudes = {}, {}
    for port in scheme.ports:
        mode, lo, eta = modes[port.port_name], port.lo_phase, port.efficiency
        variances[port.port_name] = oracle_homodyne_variance(base, mode, lo, eta)
        carrier = oracle_homodyne_mean(base, mode, lo, eta)
        for tone in scheme.tones:
            single = build_transfer(scheme, active_tones=frozenset({tone.frequency_hz}))
            shifted = oracle_homodyne_mean(single, mode, lo, eta)
            amplitudes[port.port_name, tone.frequency_hz] = (shifted - carrier, abs(carrier))
    return variances, amplitudes


def random_scheme(rng, kind, tap_enabled):
    # Tone angles stay at least 0.1 rad away from every multiple of pi/2.
    angles = rng.uniform(0.1, 1.4, size=2) + rng.choice([0.0, math.pi / 2, math.pi], size=2)
    tones = tuple(
        ModulationTone(freq, float(rng.uniform(0.002, 0.02)), float(angle))
        for freq, angle in zip((0.8e6, 1.2e6), angles)
    )
    losses = LossBudget(*(float(x) for x in rng.uniform(0.3, 1.0, size=4)))
    gains = {
        "bs": {},
        "amp": {"gain_g2": float(rng.uniform(1.2, 20.0))},
        "sui": {"gain_g1": float(rng.uniform(1.1, 3.0)), "gain_g2": float(rng.uniform(1.2, 20.0))},
    }[kind]
    return build_scheme(
        kind,
        probe_photon_number=float(10 ** rng.uniform(2, 5)),
        tones=tones,
        losses=losses,
        interferometer_phase=float(rng.uniform(0, 2 * math.pi)) if kind == "sui" else math.pi,
        tap_enabled=tap_enabled,
        **gains,
    )


PRESET_SCHEMES = [(name, load_config(preset_config(name)).scheme) for name in ("fig2", "fig3", "fig4", "fig5")]
RANDOM_SCHEMES = [
    (f"random-{kind}-tap{int(tap)}", random_scheme(np.random.default_rng(900 + k), kind, tap))
    for k, (kind, tap) in enumerate((kind, tap) for kind in ("bs", "amp", "sui") for tap in (False, True))
]
ORACLE_SCHEMES = PRESET_SCHEMES + RANDOM_SCHEMES


@pytest.mark.parametrize("scheme", [s for _, s in ORACLE_SCHEMES], ids=[label for label, _ in ORACLE_SCHEMES])
def test_measurement_model_matches_oracle(scheme):
    model = measurement_model(scheme)
    variances, amplitudes = oracle_port_readings(scheme)
    for idx, name in enumerate(model.port_names):
        assert model.noise_cov[idx, idx] == pytest.approx(variances[name], rel=1e-9)
        for tone in scheme.tones:
            expected, carrier = amplitudes[name, tone.frequency_hz]
            assert model.tone_amplitudes[tone.frequency_hz][idx] == pytest.approx(
                expected, abs=1e-9 * (1.0 + carrier)
            )


def high_gain_sui(g1, g2):
    return build_scheme(
        "sui",
        probe_photon_number=1e4,
        tones=two_tones(),
        gain_g1=g1,
        gain_g2=g2,
        interferometer_phase=math.pi,
    )


HIGH_GAIN_SCHEMES = [
    ("sui-3x1e3", high_gain_sui(3.0, 1e3)),
    ("sui-5x500", high_gain_sui(5.0, 500.0)),
    ("fig2-g2-1e4", load_config(set_parameter(preset_config("fig2"), "scheme.gain_g2", 1e4)).scheme),
]


@pytest.mark.parametrize("scheme", [s for _, s in HIGH_GAIN_SCHEMES], ids=[label for label, _ in HIGH_GAIN_SCHEMES])
def test_high_gain_lock_and_snr_table_match_oracle(scheme):
    # These gains once failed the lock with a spurious "not positive definite".
    fringe = find_dark_fringe(scheme)
    assert fringe.phi_star == pytest.approx(math.pi, abs=1e-12)
    locked = dataclasses.replace(scheme, interferometer_phase=fringe.phi_star)
    model = measurement_model(locked)
    variances, amplitudes = oracle_port_readings(locked)
    for tone in locked.tones:
        expected = {name: amplitudes[name, tone.frequency_hz][0] ** 2 / variances[name] for name in variances}
        scale = max(expected.values())
        for name in model.port_names:
            assert model.variance(name) == pytest.approx(variances[name], rel=1e-7)
            assert model.snr(name, tone.frequency_hz) == pytest.approx(
                expected[name], rel=1e-7, abs=1e-7 * scale
            )


def test_amp_at_high_gain_matches_closed_form():
    amp = build_scheme("amp", probe_photon_number=1e4, tones=two_tones(), gain_g2=1e4)
    closed = closed_form_snr(amp)
    assert port_snr(amp, "signal", AM) == pytest.approx(closed.snr_x, rel=1e-9)
    assert port_snr(amp, "idler", PM) == pytest.approx(closed.snr_y, rel=1e-9)
    assert port_noise_variance(amp, "signal") == pytest.approx(2 * 1e8 - 1, rel=1e-9)


@pytest.mark.parametrize("g2", [3.0, 9.0, 50.0, 100.0])
@pytest.mark.parametrize("g1", [1.5, 2.0, 5.0, 20.0])
def test_lossless_sui_is_one_two_mode_squeezer(g1, g2):
    # Lossless at phi = pi the interferometer is one two-mode squeezer of
    # strength r2 - r1, with G = cosh r (Yurke, McCall and Klauder, Phys. Rev.
    # A 33, 4033, 1986): the amplified tones sit on a floor cosh(2 (r2 - r1)).
    depth, photons = 0.01, 1e4
    scheme = build_scheme("sui", probe_photon_number=photons, tones=two_tones(depth), gain_g1=g1, gain_g2=g2)
    model = measurement_model(scheme)
    floor = math.cosh(2.0 * (math.acosh(g2) - math.acosh(g1)))
    assert model.snr("signal", AM) == pytest.approx(4 * g2**2 * photons * depth**2 / floor, rel=1e-11)
    assert model.snr("idler", PM) == pytest.approx(4 * (g2**2 - 1) * photons * depth**2 / floor, rel=1e-11)


def output_photons(scheme, phi):
    variant = dataclasses.replace(scheme, interferometer_phase=phi)
    state, _ = output_state(variant, active_tones=frozenset())
    return sum(mean_photon_number(state, m) for m in range(state.n_modes))


def random_lock_scheme(seed, tap_enabled, g2_decades):
    """A random SU(1,1) scheme whose gain_g2 lies between 10**g2_decades[0] and 10**g2_decades[1]."""
    rng = np.random.default_rng(seed)
    eta_internal, *detectors = (float(x) for x in rng.uniform(0.3, 1.0, size=4))
    return build_scheme(
        "sui",
        probe_photon_number=float(10 ** rng.uniform(2, 5)),
        tones=two_tones(),
        losses=LossBudget(eta_internal, *detectors),
        gain_g1=float(10 ** rng.uniform(0.02, 0.7)),
        gain_g2=float(10 ** rng.uniform(*g2_decades)),
        interferometer_phase=float(rng.uniform(0, 2 * math.pi)),
        tap_enabled=tap_enabled,
    )


def lock_case(k):
    """One scheme per half decade of gain_g2 from 1 to 1e3, tap on and off in turn."""
    return random_lock_scheme(950 + k, k % 2 == 1, (max(0.5 * k, 0.02), 0.5 * (k + 1)))


def scan_photons(scheme, phases):
    """Total output photon number at each phase: one stacked product of OPA2
    (and the tap) on the compiled tone-free pipeline that precedes OPA2."""
    n = scheme.n_modes
    elements = pipeline_elements(dataclasses.replace(scheme, tones=()))
    transfer, noise, shifts = schemes.compile_pipeline(n, elements[: -2 if scheme.tap_enabled else -1])
    carrier = shifts.sum(axis=1)
    moments = transfer @ transfer.T + noise + np.outer(carrier, carrier)
    gain = scheme.opa2_or_amp.gain
    conj = math.sqrt(gain**2 - 1.0)
    c, s = conj * np.cos(phases), conj * np.sin(phases)
    # OPA2 on (Xs, Ys, Xi, Yi) at every phase, as in gaussian.two_mode_squeezer_matrix.
    total = np.tile(np.eye(2 * n), (len(phases), 1, 1))
    for i in range(4):
        total[:, i, i] = gain
    total[:, 0, 2] = total[:, 2, 0] = c
    total[:, 0, 3] = total[:, 3, 0] = s
    total[:, 1, 2] = total[:, 2, 1] = s
    total[:, 1, 3] = total[:, 3, 1] = -c
    if scheme.tap_enabled:
        total = schemes.compile_pipeline(n, elements[-1:])[0] @ total
    # Summed over modes, (|mean|^2 + Var X + Var Y - 2) / 4 is (tr(T M T^T) - 2 n) / 4.
    return (np.einsum("bij,jk,bik->b", total, moments, total) - 2.0 * n) / 4.0


@pytest.mark.parametrize("k", range(6))
def test_lock_is_the_minimum_of_a_dense_scan(k):
    scheme = lock_case(k)
    fringe = find_dark_fringe(scheme)
    assert not fringe.flat
    assert fringe.phi_star == pytest.approx(math.pi, abs=1e-12)
    scan = scan_photons(scheme, np.linspace(0, 2 * math.pi, 4096, endpoint=False))
    assert output_photons(scheme, fringe.phi_star) <= scan.min() * (1 + 1e-12)
    assert fringe.visibility == pytest.approx((scan.max() - scan.min()) / (scan.max() + scan.min()), rel=1e-9)


def oracle_photons(scheme, phi):
    """Total output photon number of the tone-free pipeline at phase ``phi``
    from the operator transfer oracle: |amplitude|^2 + sum |v|^2 per mode."""
    tm = build_transfer(dataclasses.replace(scheme, interferometer_phase=phi), active_tones=frozenset())
    return float(np.sum(np.abs(tm.amplitude) ** 2) + np.sum(np.abs(tm.v) ** 2))


def oracle_lock_scheme(rng):
    eta_internal, *detectors = (float(x) for x in rng.uniform(0.05, 1.0, size=4))
    scheme = build_scheme(
        "sui",
        probe_photon_number=float(10 ** rng.uniform(0, 5)),
        losses=LossBudget(eta_internal, *detectors),
        gain_g1=float(rng.uniform(1.01, 5.0)),
        gain_g2=float(rng.uniform(1.01, 50.0)),
        tap_enabled=bool(rng.integers(2)),
    )
    return dataclasses.replace(scheme, opa1=OpaParams(scheme.opa1.gain, float(rng.uniform(0, 2 * math.pi))))


def test_lock_matches_the_oracle_fringe():
    # The fringe is a pure first harmonic, so eight uniform phases fix it exactly.
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    cases = [oracle_lock_scheme(rng) for _ in range(60)]
    assert {s.tap_enabled for s in cases} == {False, True}
    for scheme in cases:
        photons = np.array([oracle_photons(scheme, phi) for phi in grid])
        harmonics = np.fft.rfft(photons)
        mean, amplitude = harmonics[0].real / 8, 2.0 * abs(harmonics[1]) / 8
        phi_ref = math.pi - float(np.angle(harmonics[1]))
        fringe = find_dark_fringe(scheme)
        assert not fringe.flat
        # Compared on the circle, on the scale of phi*.
        assert abs(math.remainder(fringe.phi_star - phi_ref, 2.0 * math.pi)) <= 1e-9 * fringe.phi_star
        assert fringe.visibility == pytest.approx(amplitude / mean, rel=1e-9)
        assert oracle_photons(scheme, fringe.phi_star) <= photons.min() * (1 + 1e-12)


@pytest.mark.parametrize(
    "gains, probe, tap",
    [((None, 2.0), 1e4, True), ((2.0, None), 0.0, False)],
    ids=["gain_g1", "gain_g2"],
)
def test_lock_just_below_the_moment_bound(gains, probe, tap):
    # The free gain puts (g1 g2)^2, with g = G + sqrt(G^2 - 1) per amplifier,
    # just below the bound that SchemeInstance enforces.
    fixed = next(g for g in gains if g is not None)
    free = math.sqrt(schemes._MAX_MOMENT) / (fixed + math.sqrt(fixed**2 - 1.0)) / 2.0 * (1.0 - 1e-9)
    g1, g2 = (free if g is None else g for g in gains)
    scheme = build_scheme(
        "sui", probe_photon_number=probe, losses=reference_losses(), gain_g1=g1, gain_g2=g2, tap_enabled=tap
    )
    bound = ((g1 + math.sqrt(g1**2 - 1.0)) * (g2 + math.sqrt(g2**2 - 1.0))) ** 2
    assert 0.999 * schemes._MAX_MOMENT < bound < schemes._MAX_MOMENT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            fringe = find_dark_fringe(scheme)
    assert math.isfinite(fringe.phi_star) and not fringe.flat
    assert 0.0 <= fringe.visibility <= 1.0


@pytest.fixture
def states(monkeypatch):
    """The GaussianStates constructed, and so checked, in order."""
    made, post_init = [], GaussianState.__post_init__

    def counted(state):
        made.append(state)
        post_init(state)

    monkeypatch.setattr(GaussianState, "__post_init__", counted)
    return made


@pytest.fixture
def built(monkeypatch):
    """The pipeline elements whose channels are built, in order."""
    made, build = [], schemes._element_channel

    def counted(n_modes, element):
        made.append(element)
        return build(n_modes, element)

    monkeypatch.setattr(schemes, "_element_channel", counted)
    return made


def test_lock_builds_its_prefix_once_and_no_state(states, built):
    lossy = lock_case(3)
    assert lossy.tap_enabled and lossy.losses.eta_internal < 1.0
    lossless = build_scheme("sui", probe_photon_number=1e4, tones=two_tones(), gain_g1=2.0, gain_g2=9.0)
    # Only the prefix, OPA1 and any internal loss, is built; the locked
    # state is checked by whoever reads the locked scheme.
    for scheme, expected, flat in (
        (lossy, [TwoModeSqueeze, Loss], False),
        (lossless, [TwoModeSqueeze], False),
        (reference_sui(g2=1.0), [TwoModeSqueeze, Loss], True),
    ):
        built.clear()
        fringe = find_dark_fringe(scheme)
        assert [type(e) for e in built] == expected and states == []
        assert fringe.flat == flat


def channel_elements(*schemes_):
    """The elements of the schemes' pipelines that have a channel to build."""
    return [e for scheme in schemes_ for e in pipeline_elements(scheme) if not isinstance(e, Displace)]


@pytest.mark.parametrize("preset", ["fig2", "fig4"])
def test_snr_report_builds_each_element_once_per_scheme(built, preset):
    cfg = load_config(preset_config(preset))
    report = cmd_snr(cfg)
    locked = dataclasses.replace(cfg.scheme, interferometer_phase=report["dark_fringe"]["phi_star"])
    # OPA1 and the internal loss are built by the lock alone.
    assert built == channel_elements(locked, matched_baseline(locked, "amp"))


@pytest.fixture
def channels(monkeypatch):
    """The channels ``(S, N, D)`` that states are read off, in order."""
    seen, read = [], schemes.vacuum_output

    def capture(n_modes, *channel):
        seen.append(channel)
        return read(n_modes, *channel)

    monkeypatch.setattr(schemes, "vacuum_output", capture)
    return seen


def assert_full_compile(channel, scheme):
    full = schemes.compile_pipeline(scheme.n_modes, pipeline_elements(scheme))
    assert all(np.array_equal(a, b) for a, b in zip(channel, full, strict=True))


@pytest.mark.parametrize("k", range(6))
def test_locked_model_folds_the_rest_onto_the_locks_prefix(built, channels, k):
    scheme = lock_case(k)
    fringe = find_dark_fringe(scheme)
    model = measurement_model(scheme, lock=fringe)
    locked = dataclasses.replace(scheme, interferometer_phase=fringe.phi_star)
    assert built == channel_elements(locked)
    unlocked = measurement_model(locked)
    for channel in channels:
        assert_full_compile(channel, locked)
    assert np.array_equal(model.noise_cov, unlocked.noise_cov)
    assert model.tone_amplitudes == unlocked.tone_amplitudes


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", "fig5"])
def test_cli_model_is_read_off_the_full_compile(channels, preset):
    cfg = load_config(preset_config(preset))
    fringe_info, _ = _resolve_scheme(cfg)
    assert len(channels) == 1
    assert_full_compile(channels[0], dataclasses.replace(cfg.scheme, interferometer_phase=fringe_info["phi_star"]))


@pytest.mark.parametrize("preset", ["fig2", "fig4"])
def test_snr_report_checks_one_state_per_scheme(states, preset):
    cfg = load_config(preset_config(preset))
    assert cfg.scheme.kind == "sui" and cfg.compare_with == "amp"
    states.clear()
    cmd_snr(cfg)
    # The sui measurement model and the amp baseline's.
    assert len(states) == 2


@pytest.mark.parametrize("k", range(6))
def test_vacuum_reader_checks_one_state_per_pipeline(states, k):
    scheme = lock_case(k)
    for active in (None, frozenset()):
        states.clear()
        state, _ = output_state(scheme, active_tones=active)
        assert states == [state]
    states.clear()
    measurement_model(scheme)
    assert len(states) == 1


@pytest.mark.parametrize("k", range(6))
def test_lock_returns_a_canonical_phase_and_leaves_the_scheme_unchanged(k):
    scheme = lock_case(k)
    original = dataclasses.replace(scheme)
    fringe = find_dark_fringe(scheme)
    assert type(fringe.phi_star) is float and 0.0 <= fringe.phi_star < 2.0 * math.pi
    # The same phase a turn below and two above gives the same point.
    locked = output_photons(scheme, fringe.phi_star)
    for turns in (-1, 2):
        shifted = output_photons(scheme, fringe.phi_star + 2.0 * math.pi * turns)
        assert shifted == pytest.approx(locked, rel=1e-9)
    assert scheme == original


def preset_or_lock_case(case):
    if case.startswith("fig"):
        return load_config(preset_config(case)).scheme
    return lock_case(int(case[len("lock"):]))


def old_route_output(n_modes, transfer, noise, shifts):
    return apply_channel(vacuum_state(n_modes), transfer, noise, shifts.sum(axis=1))


@pytest.mark.parametrize("case", ["fig2", "fig3", "fig4", "fig5", *(f"lock{k}" for k in range(6))])
def test_vacuum_output_is_the_old_route_bit_for_bit(case, monkeypatch):
    """``output_state`` and ``measurement_model`` read the compiled channel
    without a vacuum state; they must equal the route through
    ``apply_channel(vacuum_state(n), ...)`` exactly."""
    scheme = preset_or_lock_case(case)
    variants = [
        dataclasses.replace(scheme, interferometer_phase=phi)
        for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    ]
    for variant in variants:
        for active in (None, frozenset()):
            state, _ = output_state(variant, active_tones=active)
            elements = pipeline_elements(schemes._with_tones(variant, active))
            channel = schemes.compile_pipeline(variant.n_modes, elements)
            old = old_route_output(variant.n_modes, *channel)
            assert np.array_equal(state.cov, old.cov) and np.array_equal(state.mean, old.mean)
    models = [measurement_model(v) for v in variants]
    monkeypatch.setattr(schemes, "vacuum_output", old_route_output)
    for variant, model in zip(variants, models):
        old = measurement_model(variant)
        assert np.array_equal(model.noise_cov, old.noise_cov)
        assert model.tone_amplitudes == old.tone_amplitudes


def test_lock_reads_the_carrier_column_of_the_schemes_own_pipeline():
    """The lock compiles the scheme's pipeline, tones included, and reads
    column 0 of D; it must equal the array-form lock of the tone-free scheme exactly."""
    rng = np.random.default_rng(2024)
    cases = [preset_or_lock_case(c) for c in ("fig2", "fig3", "fig4", "fig5", *(f"lock{k}" for k in range(6)))]
    cases += [oracle_lock_scheme(rng) for _ in range(60)]
    assert any(s.tones for s in cases) and any(s.tap_enabled for s in cases)
    for scheme in cases:
        fringe = find_dark_fringe(scheme)
        assert (fringe.phi_star, fringe.flat, fringe.visibility) == array_lock(dataclasses.replace(scheme, tones=()))


@pytest.mark.parametrize("case", ["fig2", "fig3", "fig4", "fig5", *(f"lock{k}" for k in range(6))])
def test_tone_subsets_read_as_the_old_element_filter(case):
    """``active_tones`` keeps a subset of the tones by making it a scheme of
    its own; the state and the transfer map must equal those of the element
    list with the other tones' displacements filtered out."""

    def filtered_elements(scheme, active_tones):
        elements = pipeline_elements(scheme)
        slots = [i for i, e in enumerate(elements) if i > 0 and isinstance(e, Displace)]
        assert len(slots) == len(scheme.tones)
        dropped = {
            i for i, t in zip(slots, scheme.tones) if active_tones is not None and t.frequency_hz not in active_tones
        }
        return [e for i, e in enumerate(elements) if i not in dropped]

    scheme = preset_or_lock_case(case)
    n = scheme.n_modes
    for active in (None, frozenset(), *(frozenset({t.frequency_hz}) for t in scheme.tones)):
        elements = filtered_elements(scheme, active)
        state, modes = output_state(scheme, active_tones=active)
        old = schemes.vacuum_output(n, *schemes.compile_pipeline(n, elements))
        assert np.array_equal(state.cov, old.cov) and np.array_equal(state.mean, old.mean)
        assert modes == port_modes(scheme)
        tm, old_tm = build_transfer(scheme, active_tones=active), build_transfer_from_elements(n, elements)
        for actual, expected in zip((tm.u, tm.v, tm.amplitude), (old_tm.u, old_tm.v, old_tm.amplitude)):
            assert np.array_equal(actual, expected)


def test_lock_compiles_the_scheme_itself(monkeypatch):
    seen, build = [], schemes._sensing_plane_elements

    def recorded(scheme):
        seen.append(scheme)
        return build(scheme)

    monkeypatch.setattr(schemes, "_sensing_plane_elements", recorded)
    for scheme in (lock_case(2), lock_case(3), load_config(preset_config("fig5")).scheme):
        seen.clear()
        find_dark_fringe(scheme)
        assert len(seen) == 1 and seen[0] is scheme


def test_pipeline_elements_takes_only_the_scheme():
    assert list(inspect.signature(pipeline_elements).parameters) == ["scheme"]


# The port readout and the lock read their few scalars on Python floats;
# these are the array forms they replace, copied as they were.


def array_readout(scheme, channel):
    """``noise_cov`` and ``tone_amplitudes`` of the channel ``(S, N, D)``, read with arrays."""
    state = schemes.vacuum_output(scheme.n_modes, *channel)
    modes = port_modes(scheme)
    eta = np.array([c.efficiency for c in scheme.ports])
    readout = np.zeros((len(scheme.ports), 2 * scheme.n_modes))
    for row, port in zip(readout, scheme.ports):
        ix, iy = xy_indices(modes[port.port_name])
        row[ix], row[iy] = math.cos(port.lo_phase), math.sin(port.lo_phase)
    readout *= np.sqrt(eta)[:, None]
    tones = channel[2][:, 1:]
    amplitudes = readout @ tones
    amplitudes[np.abs(amplitudes) <= 1e-12 * np.linalg.norm(tones, axis=0)] = 0.0
    noise_cov = readout @ state.cov @ readout.T + np.diag(1.0 - eta)
    return noise_cov, {tone.frequency_hz: tuple(amplitudes[:, k].tolist()) for k, tone in enumerate(scheme.tones)}


def array_lock(scheme):
    """``(phi_star, flat, visibility)`` of the lock, its moments read with arrays."""
    elements = pipeline_elements(scheme)
    transfer, noise, shifts = schemes.compile_pipeline(scheme.n_modes, elements[: -2 if scheme.tap_enabled else -1])
    carrier = shifts[:, 0]
    moments = transfer @ transfer.T + noise + np.outer(carrier, carrier)
    a = moments[0, 2] - moments[1, 3]
    b = moments[0, 3] + moments[1, 2]
    pair, rest = float(np.trace(moments[:4, :4])), float(np.trace(moments[4:, 4:]))
    gain, conj = scheme.opa2_or_amp.gain, scheme.opa2_or_amp.conjugate_gain
    mean = ((gain * gain + conj * conj) * pair + rest - 2.0 * scheme.n_modes) / 4.0
    amplitude = gain * conj * math.hypot(a, b)
    if 2.0 * amplitude <= 1e-9 * max(1.0, mean + amplitude):
        return math.pi, True, 0.0
    return normalize_angle(math.atan2(-b, -a)), False, amplitude / mean


def bits(values):
    """Float values by their bits, so that 0.0 and -0.0 differ."""
    return [float(v).hex() for v in values]


def readout_case(rng, kind, tap_enabled, lossy, n_tones):
    """A random scheme: tones on and off the quadrature axes, default or
    random LO phases, and every efficiency 1 unless ``lossy``."""
    on_axis = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    angles = [float(rng.choice(on_axis)) if rng.random() < 0.5 else float(rng.uniform(0, 2 * math.pi)) for _ in range(n_tones)]
    tones = [ModulationTone(0.8e6 + 0.2e6 * k, float(rng.uniform(0.002, 0.02)), a) for k, a in enumerate(angles)]
    etas = [float(rng.choice([0.0, 1.0, rng.uniform(0.05, 1.0)])) if lossy else 1.0 for _ in range(4)]
    if lossy and kind == "sui":
        etas[0] = float(rng.uniform(0.05, 1.0))
    losses = LossBudget(*etas)
    ports = None
    if rng.random() < 0.5:
        names = ["signal", "idler"] + (["tap"] if tap_enabled else [])
        lo = [float(rng.choice(on_axis)) if rng.random() < 0.5 else float(rng.uniform(0, 2 * math.pi)) for _ in names]
        ports = [HomodyneChannel(name, phase, eta) for name, phase, eta in zip(names, lo, etas[1:])]
    gains = {
        "bs": {},
        "amp": {"gain_g2": float(10 ** rng.uniform(0.02, 2))},
        "sui": {"gain_g1": float(10 ** rng.uniform(0.02, 0.5)), "gain_g2": float(10 ** rng.uniform(0.02, 2))},
    }[kind]
    return build_scheme(
        kind,
        probe_photon_number=float(10 ** rng.uniform(2, 5)),
        tones=tones,
        losses=losses,
        interferometer_phase=float(rng.uniform(0, 2 * math.pi)) if kind == "sui" else math.pi,
        tap_enabled=tap_enabled,
        ports=ports,
        **gains,
    )


@pytest.mark.parametrize("kind", ["bs", "amp", "sui"])
@pytest.mark.parametrize("tap_enabled", [False, True], ids=["notap", "tap"])
@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
def test_readout_and_lock_read_as_their_array_forms(kind, tap_enabled, lossy):
    rng = np.random.default_rng(["bs", "amp", "sui"].index(kind) * 4 + 2 * tap_enabled + lossy + 3100)
    zeros = 0
    for k in range(40):
        scheme = readout_case(rng, kind, tap_enabled, lossy, 2 + k % 2)
        n = scheme.n_modes
        models = [(scheme, measurement_model(scheme))]
        if kind == "sui":
            fringe = find_dark_fringe(scheme)
            assert bits((fringe.phi_star, fringe.visibility)) == bits(array_lock(scheme)[::2])
            assert fringe.flat == array_lock(scheme)[1]
            locked = dataclasses.replace(scheme, interferometer_phase=fringe.phi_star)
            models.append((locked, measurement_model(scheme, lock=fringe)))
        for read, model in models:
            noise_cov, amplitudes = array_readout(read, schemes.compile_pipeline(n, pipeline_elements(read)))
            assert np.array_equal(model.noise_cov, noise_cov)
            assert list(model.tone_amplitudes) == list(amplitudes)
            for frequency, row in amplitudes.items():
                assert bits(model.tone_amplitudes[frequency]) == bits(row)
                zeros += row.count(0.0)
    # Some port is orthogonal to some tone, and reads exactly 0.0.
    assert zeros > 0, zeros
