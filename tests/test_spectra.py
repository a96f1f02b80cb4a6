import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import suisim

from suisim.config import load_config, preset_config
from suisim.schemes import (
    HomodyneChannel,
    LossBudget,
    ModulationTone,
    ParameterError,
    build_scheme,
    measurement_model,
    port_noise_variance,
)
from suisim.spectra import (
    CombineParams,
    CombineSettings,
    Spectrum,
    TimeSeries,
    band_floor,
    calibrate_k,
    check_readout,
    check_sampling,
    combine_currents,
    extract_peak_snr,
    shot_noise_calibration,
    simulate_currents,
    simulate_spectra,
    tone_power,
    welch_psd,
)

AM = 0.8e6
PM = 1.2e6


def bs_scheme(i_ps=1e4, depth=0.01):
    return build_scheme(
        "bs",
        probe_photon_number=i_ps,
        tones=(ModulationTone(AM, depth, 0.0), ModulationTone(PM, depth, math.pi / 2)),
    )


def white_series(n=200_000, fs=1e6, seed=0, sigma=1.0):
    rng = np.random.default_rng(seed)
    return TimeSeries(fs, sigma * rng.standard_normal(n), "test", 0.0, seed)


class TestSimulateCurrents:
    def test_identical_seeds_are_bit_identical(self):
        scheme = bs_scheme()
        a = simulate_currents(scheme, duration=0.01, seed=42)
        b = simulate_currents(scheme, duration=0.01, seed=42)
        for port in a:
            assert np.array_equal(a[port].samples, b[port].samples)

    def test_different_seeds_differ(self):
        scheme = bs_scheme()
        a = simulate_currents(scheme, duration=0.01, seed=1)
        b = simulate_currents(scheme, duration=0.01, seed=2)
        assert not np.array_equal(a["signal"].samples, b["signal"].samples)

    def test_toneless_bs_ports_are_shot_noise(self):
        scheme = build_scheme("bs", probe_photon_number=1e4)
        records = simulate_currents(scheme, duration=0.02, seed=3)
        for record in records.values():
            assert np.var(record.samples) == pytest.approx(1.0, abs=0.02)
            assert np.mean(record.samples) == pytest.approx(0.0, abs=0.02)

    def test_port_variance_matches_engine(self):
        scheme = build_scheme(
            "sui",
            probe_photon_number=1e4,
            losses=LossBudget(eta_internal=0.41, eta_signal_det=0.72, eta_idler_det=0.62),
            gain_g1=2.0,
            gain_g2=9.0,
            interferometer_phase=math.pi,
        )
        records = simulate_currents(scheme, duration=0.02, seed=4)
        for port in ("signal", "idler"):
            expected = port_noise_variance(scheme, port)
            assert np.var(records[port].samples) == pytest.approx(expected, rel=0.03)

    def test_interport_covariance_matches_model(self):
        amp = build_scheme(
            "amp",
            probe_photon_number=0.0,
            gain_g2=2.0,
            ports=(HomodyneChannel("signal", 0.0, 1.0), HomodyneChannel("idler", 0.0, 1.0)),
        )
        model = measurement_model(amp)
        records = simulate_currents(amp, duration=0.02, seed=5)
        samples = np.stack([records["signal"].samples, records["idler"].samples])
        measured = np.cov(samples)
        n = samples.shape[1]
        for i in range(2):
            for j in range(2):
                expected = model.noise_cov[i, j]
                stderr = math.sqrt(
                    (model.noise_cov[i, i] * model.noise_cov[j, j] + expected**2) / n
                )
                assert abs(measured[i, j] - expected) < 3 * stderr

    def test_balanced_coherent_split_is_uncorrelated(self):
        records = simulate_currents(bs_scheme(), duration=0.02, seed=6)
        samples = np.stack([records["signal"].samples, records["idler"].samples])
        n = samples.shape[1]
        assert abs(np.cov(samples)[0, 1]) < 3 / math.sqrt(n)

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError, match="alias"):
            simulate_currents(bs_scheme(), duration=0.01, sample_rate=1e6)

    def test_sample_budget_enforced(self):
        with pytest.raises(ValueError, match="limit"):
            simulate_currents(bs_scheme(), duration=100.0, sample_rate=10e6)


class TestWelch:
    def test_unit_white_noise_floor_is_one(self):
        spec = welch_psd(white_series(), rbw=5e3)
        assert spec.n_averages >= 200
        floor = float(np.median(spec.psd_snu[2:-2]))
        assert floor == pytest.approx(1.0, abs=0.02)

    def test_on_bin_tone_integrates_to_half_amplitude_squared(self):
        fs, n, amp = 1e6, 200_000, 0.8
        t = np.arange(n) / fs
        ts = TimeSeries(fs, amp * np.sin(2 * math.pi * 1e5 * t), "tone", 0.0, 0)
        spec = welch_psd(ts, rbw=5e3)
        assert tone_power(spec, 1e5) == pytest.approx(amp**2 / 2.0, rel=1e-6)

    def test_off_bin_tone_within_scalloping_bound(self):
        fs, n, amp = 1e6, 200_000, 0.8
        t = np.arange(n) / fs
        ts = TimeSeries(fs, amp * np.sin(2 * math.pi * 102_500 * t), "tone", 0.0, 0)
        spec = welch_psd(ts, rbw=5e3)
        assert tone_power(spec, 102_500) == pytest.approx(amp**2 / 2.0, rel=0.01)

    def test_rbw_finer_than_record_rejected(self):
        with pytest.raises(ValueError, match="rbw"):
            welch_psd(white_series(n=1000), rbw=100.0)

    def test_rbw_metadata(self):
        spec = welch_psd(white_series(), rbw=5e3)
        assert spec.rbw == pytest.approx(5e3)
        assert spec.bin_width == pytest.approx(5e3)

    @pytest.mark.parametrize("rbw", [5e3, 1e6 / 999])
    def test_matches_scipy_reference(self, rbw):
        signal = pytest.importorskip("scipy.signal")
        base = white_series(n=100_001)
        ts = TimeSeries(base.sample_rate, base.samples + 0.3, "test", 0.0, 0)
        nperseg = int(round(ts.sample_rate / rbw))
        freq, density = signal.welch(
            ts.samples,
            fs=ts.sample_rate,
            window="hann",
            nperseg=nperseg,
            noverlap=nperseg // 2,
            detrend="constant",
            scaling="density",
        )
        spec = welch_psd(ts, rbw)
        assert np.array_equal(spec.freq, freq)
        assert_allclose(spec.psd_snu, density * ts.sample_rate / 2.0, rtol=1e-12, atol=0.0)
        assert spec.rbw == ts.sample_rate / nperseg
        assert spec.n_averages == 1 + (ts.samples.size - nperseg) // (nperseg - nperseg // 2)

    def test_single_segment_matches_scipy_reference(self):
        signal = pytest.importorskip("scipy.signal")
        ts = white_series(n=1000)
        freq, density = signal.welch(
            ts.samples, fs=ts.sample_rate, window="hann", nperseg=1000, noverlap=500,
            detrend="constant", scaling="density",
        )
        spec = welch_psd(ts, rbw=1e3)
        assert spec.n_averages == 1
        assert np.array_equal(spec.freq, freq)
        assert_allclose(spec.psd_snu, density * ts.sample_rate / 2.0, rtol=1e-12, atol=0.0)


def preset_run_config(name):
    """A preset's run config; its scheme sits at the dark fringe, which the lock puts at exactly pi."""
    cfg = load_config(preset_config(name))
    assert cfg.scheme.interferometer_phase == math.pi
    return cfg


def single_draw_records(scheme, duration, sample_rate, seed):
    """Reference synthesis: one (n, ports) draw and one sin per (port, tone)."""
    model = measurement_model(scheme)
    n = int(round(duration * sample_rate))
    factor = np.linalg.cholesky(model.noise_cov)
    noise = np.random.default_rng(seed).standard_normal((n, len(model.port_names))) @ factor.T
    t = np.arange(n) / sample_rate
    records = {}
    for idx, name in enumerate(model.port_names):
        waveform = noise[:, idx].copy()
        for tone in scheme.tones:
            amp = model.tone_amplitudes[tone.frequency_hz][idx]
            if amp != 0.0:
                waveform += amp * np.sin(2.0 * math.pi * tone.frequency_hz * t)
        records[name] = waveform
    return records


class TestStreamedPass:
    # 40001 samples: two and a half synthesis blocks plus one sample.
    DURATION = 4.0001e-3

    @pytest.mark.parametrize("preset", ["fig4", "fig5"])
    def test_blocked_synthesis_equals_single_draw(self, preset):
        scheme = preset_run_config(preset).scheme
        records = simulate_currents(scheme, self.DURATION, seed=3)
        reference = single_draw_records(scheme, self.DURATION, 10e6, seed=3)
        assert records.keys() == reference.keys()
        for port, samples in reference.items():
            assert samples.size == 40001
            assert np.array_equal(records[port].samples, samples)

    @pytest.mark.parametrize("rbw", [10e3, 10e6 / 333])
    def test_port_spectra_equal_welch_of_records(self, rbw):
        scheme = preset_run_config("fig4").scheme
        run = simulate_spectra(measurement_model(scheme), 0.0123457, seed=5, rbw=rbw)
        records = simulate_currents(scheme, 0.0123457, seed=5)
        for port, record in records.items():
            expected = welch_psd(record, rbw)
            assert np.array_equal(run.spectra[port].psd_snu, expected.psd_snu)
            assert np.array_equal(run.spectra[port].freq, expected.freq)
            assert run.spectra[port].n_averages == expected.n_averages

    @pytest.mark.parametrize("gain", [1.0, 0.84])
    def test_combination_read_off_cross_spectrum(self, gain):
        cfg = preset_run_config("fig5")
        combine = cfg.sim.combine
        # The signal channel read through an amplitude gain, in the model and in the record.
        model = measurement_model(cfg.scheme)
        scale = np.array([gain if name == "signal" else 1.0 for name in model.port_names])
        model = dataclasses.replace(
            model,
            noise_cov=model.noise_cov * np.outer(scale, scale),
            tone_amplitudes={f: tuple(a * g for a, g in zip(amps, scale)) for f, amps in model.tone_amplitudes.items()},
        )
        run = simulate_spectra(model, 0.05, seed=cfg.sim.seed, combine=combine)
        records = simulate_currents(cfg.scheme, 0.05, seed=cfg.sim.seed)
        i1 = dataclasses.replace(records["signal"], samples=gain * records["signal"].samples)
        i3 = records["tap"]
        k = calibrate_k(i1, i3, combine.calibration_tone_hz)
        assert run.balance_gain_k == pytest.approx(k, rel=1e-12, abs=0.0)
        assert len(run.combined) == len(combine.thetas) == 4
        for theta, spec in zip(combine.thetas, run.combined):
            expected = welch_psd(combine_currents(i1, i3, CombineParams(theta, k)))
            assert_allclose(spec.psd_snu, expected.psd_snu, rtol=1e-11, atol=0.0)
            assert spec.n_averages == expected.n_averages

    def test_combination_needs_tap_port(self):
        with pytest.raises(ValueError, match="tap"):
            simulate_spectra(measurement_model(bs_scheme()), 0.01, combine=CombineSettings((0.0,), AM))

    def test_cmd_simulate_peak_memory_is_flat_in_duration(self, tmp_path):
        src = os.path.dirname(os.path.dirname(suisim.__file__))
        code = (
            "import sys, tracemalloc\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from suisim.cli import cmd_simulate\n"
            "from suisim.config import load_config, preset_config\n"
            "raw = preset_config('fig2')\n"
            "raw['sim']['duration_s'] = float(sys.argv[2])\n"
            "raw['output'] = {'directory': sys.argv[3]}\n"
            "cfg = load_config(raw)\n"
            "tracemalloc.start()\n"
            "cmd_simulate(cfg)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        peaks = {}
        for duration in ("0.2", "0.8"):
            result = subprocess.run(
                [sys.executable, "-c", code, src, duration, str(tmp_path / duration)],
                capture_output=True, text=True, check=True,
            )
            peaks[duration] = int(result.stdout)
        assert peaks["0.8"] <= 1.25 * peaks["0.2"], peaks


def test_package_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(suisim.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import suisim, suisim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


class TestShotNoiseCalibration:
    def test_factor_is_near_unity(self):
        factor = shot_noise_calibration(1e6, 0.2, seed=1, rbw=5e3)
        assert factor == pytest.approx(1.0, abs=0.02)

    def test_applying_twice_is_idempotent(self):
        factor = shot_noise_calibration(1e6, 0.2, seed=2, rbw=5e3)
        spec = welch_psd(white_series(seed=3), rbw=5e3)
        calibrated = float(np.mean(spec.psd_snu[2:-2] * factor))
        assert 1.0 / calibrated == pytest.approx(1.0, abs=0.02)

    def test_independent_seeds_agree(self):
        a = shot_noise_calibration(1e6, 0.2, seed=4, rbw=5e3)
        b = shot_noise_calibration(1e6, 0.2, seed=5, rbw=5e3)
        assert a == pytest.approx(b, abs=0.02)

    def test_floor_stays_one_when_rbw_doubles(self):
        record = white_series(seed=6)
        fine = welch_psd(record, rbw=5e3)
        coarse = welch_psd(record, rbw=10e3)
        assert float(np.median(coarse.psd_snu[2:-2])) == pytest.approx(
            float(np.median(fine.psd_snu[2:-2])), abs=0.02
        )


class TestPeakExtraction:
    def test_pure_noise_reads_near_one(self):
        spec = welch_psd(white_series(seed=7), rbw=5e3)
        snr = extract_peak_snr(spec, 2e5)
        # Maximum over a few bins biases slightly high on pure noise.
        assert 0.9 < snr < 1.3

    def test_synthetic_tone_ten_times_floor(self):
        fs, n = 1e6, 400_000
        rbw = 5e3
        enbw = 1.5 * rbw
        # On-bin peak density is (A^2/2)/ENBW in V^2/Hz, i.e. A^2 fs/(4 ENBW)
        # in shot-noise units; solve for a peak 9 above the unit floor.
        amp = math.sqrt(9.0 * 4.0 * enbw / fs)
        t = np.arange(n) / fs
        rng = np.random.default_rng(8)
        ts = TimeSeries(fs, rng.standard_normal(n) + amp * np.sin(2 * math.pi * 1e5 * t), "x", 0.0, 8)
        spec = welch_psd(ts, rbw=rbw)
        assert extract_peak_snr(spec, 1e5) == pytest.approx(10.0, rel=0.05)

    def test_peak_outside_span_rejected(self):
        spec = welch_psd(white_series(), rbw=5e3)
        with pytest.raises(ValueError, match="span"):
            extract_peak_snr(spec, 1e7)

    @pytest.mark.parametrize("nperseg", [324, 325, 326])
    def test_sampling_rejects_exactly_the_ambiguous_tone_pairs(self, nperseg):
        # fig4's 0.2 MHz spacing is exactly 6.5 bins, the limit, at nperseg = 325.
        fs, tones = 10e6, (0.8e6, 1.0e6)
        spec = Spectrum(np.fft.rfftfreq(nperseg, 1.0 / fs), np.ones(nperseg // 2 + 1), fs / nperseg, 1)
        try:
            extract_peak_snr(spec, tones[0], exclude=tones)
            ambiguous = False
        except ValueError as exc:
            assert "ambiguous" in str(exc)
            ambiguous = True
        if ambiguous:
            with pytest.raises(ParameterError) as info:
                check_sampling(0.01, fs, fs / nperseg, tones)
            assert info.value.name == "rbw_hz"
        else:
            check_sampling(0.01, fs, fs / nperseg, tones)

    @pytest.mark.parametrize(
        "fs, tones, npersegs",
        [
            (10e6, (0.8e6, 1.0e6, 1.2e6), range(320, 400)),
            (2.401e6, (0.8e6, 1.2e6), range(236, 250)),
        ],
        ids=["fig4-spacing", "fig2-odd-segments"],
    )
    def test_readout_check_rejects_exactly_the_unreadable_tone_plans(self, fs, tones, npersegs):
        # Each segment length is accepted iff every tone's peak and floor
        # can be read off a spectrum at that resolution.
        verdicts = set()
        for nperseg in npersegs:
            spec = Spectrum(np.fft.rfftfreq(nperseg, 1.0 / fs), np.ones(nperseg // 2 + 1), fs / nperseg, 1)
            try:
                for f in tones:
                    extract_peak_snr(spec, f, exclude=tones)
                    tone_power(spec, f, exclude=tones)
                readable = True
            except ValueError:
                readable = False
            verdicts.add(readable)
            if readable:
                check_readout(0.01, fs, fs / nperseg, tones)
            else:
                with pytest.raises(ParameterError) as info:
                    check_readout(0.01, fs, fs / nperseg, tones)
                assert info.value.name == "rbw_hz"
        assert verdicts == {True, False}

    def test_colliding_exclusion_is_ambiguous(self):
        spec = welch_psd(white_series(), rbw=5e3)
        with pytest.raises(ValueError, match="ambiguous"):
            extract_peak_snr(spec, 1e5, exclude=(1e5 + 5e3,))

    def test_tone_power_scales_with_depth_squared(self):
        values = {}
        for i, depth in enumerate((0.005, 0.02)):
            scheme = bs_scheme(depth=depth)
            records = simulate_currents(scheme, duration=0.05, seed=10 + i)
            spec = welch_psd(records["signal"])
            values[depth] = tone_power(spec, AM, exclude=(AM, PM))
        assert values[0.02] / values[0.005] == pytest.approx(16.0, rel=0.05)


class TestCalibrateK:
    def test_identical_channels_give_unity(self):
        scheme = bs_scheme()
        records = simulate_currents(scheme, duration=0.05, seed=11)
        i1 = records["signal"]
        assert calibrate_k(i1, dataclasses.replace(i1, port_name="copy"), AM) == pytest.approx(1.0)

    def test_scale_invariance(self):
        # A pi/4 tone projects onto both ports of the splitter.
        scheme = build_scheme(
            "bs", probe_photon_number=1e4, tones=(ModulationTone(1e6, 0.01, math.pi / 4),)
        )
        records = simulate_currents(scheme, duration=0.05, seed=13)
        i1, i3 = records["signal"], records["idler"]
        k0 = calibrate_k(i1, i3, 1e6)
        scaled = calibrate_k(
            dataclasses.replace(i1, samples=3.0 * i1.samples),
            dataclasses.replace(i3, samples=3.0 * i3.samples),
            1e6,
        )
        assert scaled == pytest.approx(k0, rel=1e-9)

    def test_recovers_artificial_gain_imbalance(self):
        scheme = build_scheme(
            "bs", probe_photon_number=1e4, tones=(ModulationTone(1e6, 0.01, math.pi / 4),)
        )
        records = simulate_currents(scheme, duration=0.05, seed=14)
        i1 = dataclasses.replace(records["signal"], samples=0.84 * records["signal"].samples)
        i3 = records["idler"]
        assert calibrate_k(i1, i3, 1e6) == pytest.approx(0.84, abs=0.02)

    def test_missing_tone_fails(self):
        records = simulate_currents(build_scheme("bs", probe_photon_number=1e4), duration=0.02, seed=15)
        with pytest.raises(ValueError, match="not found"):
            calibrate_k(records["signal"], records["idler"], 1e6)

    def test_mismatched_records_rejected(self):
        a = white_series(n=1000)
        b = white_series(n=2000)
        with pytest.raises(ValueError, match="length|sample rate"):
            calibrate_k(a, b, 1e5)


class TestCombineCurrents:
    def test_theta_zero_returns_first_channel(self):
        records = simulate_currents(bs_scheme(), duration=0.01, seed=16)
        i1, i3 = records["signal"], records["idler"]
        combined = combine_currents(i1, i3, CombineParams(0.0, 0.84))
        assert_allclose(combined.samples, i1.samples)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            combine_currents(white_series(n=1000), white_series(n=1200), CombineParams(0.1, 1.0))

    def test_invalid_balance_gain(self):
        with pytest.raises(ValueError, match="balance gain"):
            CombineParams(0.0, 0.0)

    def test_combination_matches_direct_readout(self):
        # i(theta) from records at 0 and pi/2 reproduces, statistically, a
        # direct homodyne at LO angle theta on the same scheme.
        tones = (
            ModulationTone(AM, 0.01, 0.0),
            ModulationTone(1.0e6, 0.01, math.pi / 4),
            ModulationTone(PM, 0.01, math.pi / 2),
        )
        losses = LossBudget(eta_internal=0.41, eta_signal_det=0.72, eta_idler_det=0.62, eta_tap_det=0.72)
        ports = (
            HomodyneChannel("signal", 0.0, 0.72),
            HomodyneChannel("idler", math.pi / 2, 0.62),
            HomodyneChannel("tap", math.pi / 2, 0.72),
        )
        scheme = build_scheme(
            "sui",
            probe_photon_number=1e4,
            tones=tones,
            losses=losses,
            gain_g1=2.0,
            gain_g2=9.0,
            interferometer_phase=math.pi,
            tap_enabled=True,
            ports=ports,
        )
        theta = math.pi / 4
        records = simulate_currents(scheme, duration=0.1, seed=17)
        k = calibrate_k(records["signal"], records["tap"], 1.0e6)
        combined = combine_currents(records["signal"], records["tap"], CombineParams(theta, k))
        spec_combined = welch_psd(combined)

        direct_ports = tuple(
            dataclasses.replace(p, lo_phase=theta) if p.port_name == "signal" else p
            for p in ports
        )
        direct_scheme = dataclasses.replace(scheme, ports=direct_ports)
        spec_direct = welch_psd(simulate_currents(direct_scheme, duration=0.1, seed=18)["signal"])

        freqs = tuple(t.frequency_hz for t in tones)
        floor_c = band_floor(spec_combined, 0.5e6, 1.5e6, exclude=freqs)
        floor_d = band_floor(spec_direct, 0.5e6, 1.5e6, exclude=freqs)
        assert floor_c == pytest.approx(floor_d, rel=0.03)
        for f in freqs:
            p_c = tone_power(spec_combined, f, exclude=freqs)
            p_d = tone_power(spec_direct, f, exclude=freqs)
            assert p_c == pytest.approx(p_d, rel=0.1, abs=0.05 * max(p_c, 1e-12))
