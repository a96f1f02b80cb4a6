import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import suisim

from suisim.cli import _spectrum_rows
from suisim.config import load_config, preset_config
from suisim.schemes import (
    HomodyneChannel,
    MeasurementModel,
    LossBudget,
    ModulationTone,
    ParameterError,
    build_scheme,
    measurement_model,
    port_noise_variance,
)
from suisim.spectra import (
    CombineSettings,
    Spectrum,
    TimeSeries,
    band_floor,
    calibrate_k,
    check_readout,
    combine_currents,
    extract_peak_snr,
    report_band,
    shot_noise_calibration,
    simulate_currents,
    simulate_spectra,
    tone_power,
    welch_psd,
)
from suisim.spectra import (
    _GRID,
    _bin_width,
    _GridPhasor,
    _LockIn,
    _median,
    _segment_length,
    _synthesize,
    _WelchSums,
    check_sampling,
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
    return TimeSeries(fs, sigma * rng.standard_normal(n), "test")


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
        ts = TimeSeries(fs, amp * np.sin(2 * math.pi * 1e5 * t), "tone")
        spec = welch_psd(ts, rbw=5e3)
        assert tone_power(spec, 1e5) == pytest.approx(amp**2 / 2.0, rel=1e-6)

    def test_off_bin_tone_within_scalloping_bound(self):
        fs, n, amp = 1e6, 200_000, 0.8
        t = np.arange(n) / fs
        ts = TimeSeries(fs, amp * np.sin(2 * math.pi * 102_500 * t), "tone")
        spec = welch_psd(ts, rbw=5e3)
        assert tone_power(spec, 102_500) == pytest.approx(amp**2 / 2.0, rel=0.01)

    def test_rbw_finer_than_record_rejected(self):
        with pytest.raises(ValueError, match="rbw"):
            welch_psd(white_series(n=1000), rbw=100.0)

    def test_rbw_metadata(self):
        spec = welch_psd(white_series(), rbw=5e3)
        assert spec.bin_width == pytest.approx(5e3)
        assert spec.freq[1] == spec.bin_width

    @pytest.mark.parametrize("samples", [np.zeros(1), np.zeros((2, 2))])
    def test_record_needs_two_samples_in_one_dimension(self, samples):
        with pytest.raises(ValueError, match="at least two samples"):
            TimeSeries(1e6, samples, "test")

    @pytest.mark.parametrize("rbw", [5e3, 1e6 / 999])
    def test_matches_scipy_reference(self, rbw):
        signal = pytest.importorskip("scipy.signal")
        base = white_series(n=100_001)
        ts = TimeSeries(base.sample_rate, base.samples + 0.3, "test")
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
        assert spec.bin_width == pytest.approx(ts.sample_rate / nperseg, rel=1e-15, abs=0.0)
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


class TestOneGrid:
    """A spectrum's bin ``k`` lies at ``k * bin_width``: ``np.fft.rfftfreq``
    bit for bit, for even and odd segments and rbws that do not divide the
    sample rate, in both the record-level and the streamed Welch sums."""

    CASES = [(fs, fs / nperseg) for fs in (1e7, 2.401e6, 1e6, 44.1e3) for nperseg in (240, 241, 1000, 1001)]
    # Rbws that do not divide the sample rate: 333, 240 and 44 samples.
    CASES += [(1e7, 3e4), (2.401e6, 1e4), (44.1e3, 1e3)]

    @staticmethod
    def assert_rfftfreq_grid(spec, fs, rbw):
        nperseg = round(fs / rbw)
        expected = np.fft.rfftfreq(nperseg, 1.0 / fs)
        assert spec.psd_snu.shape == expected.shape
        assert np.array_equal(spec.freq.view(np.int64), expected.view(np.int64))
        # The CSV header's rbw_hz is the bin width, as fs / nperseg prints it.
        header = _spectrum_rows(spec, 0).partition(",")[0]
        assert header == f"# rbw_hz={fs / nperseg:g}"

    @pytest.mark.parametrize("fs, rbw", CASES)
    def test_welch_psd_grid_is_rfftfreq(self, fs, rbw):
        nperseg = round(fs / rbw)
        self.assert_rfftfreq_grid(welch_psd(white_series(n=3 * nperseg, fs=fs), rbw), fs, rbw)

    @pytest.mark.parametrize("fs, rbw", CASES)
    def test_simulate_spectra_grid_is_rfftfreq(self, fs, rbw):
        vacuum = MeasurementModel(("vacuum",), (0.0,), (1.0,), np.eye(1), {})
        run = simulate_spectra(vacuum, 3 * round(fs / rbw) / fs, fs, 0, rbw)
        self.assert_rfftfreq_grid(run.spectra["vacuum"], fs, rbw)


def detrend_window_fft_sums(data, nperseg, cross):
    """Welch sums of the record ``data`` (rows x samples) as the kernel once
    took them: every segment has its mean removed, is windowed and
    transformed, and ``|X|^2`` is taken through ``np.abs``."""
    step = nperseg - nperseg // 2
    count = (data.shape[1] - nperseg) // step + 1
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(nperseg) / nperseg)
    segments = np.lib.stride_tricks.sliding_window_view(data, nperseg, axis=1)[:, : count * step : step]
    spectra = np.fft.rfft((segments - segments.mean(axis=2, keepdims=True)) * window, axis=2)
    power = np.sum(np.square(np.abs(spectra)), axis=1)
    a, b = spectra[cross[0]], spectra[cross[1]]
    return power, np.sum(a.real * b.real + a.imag * b.imag, axis=0)


class TestWelchKernel:
    """``_WelchSums`` against the detrend-window-FFT kernel it replaced, which
    removed each segment's mean before the FFT rather than from bins 0 and 1
    after it."""

    N = 5003
    # Split points of the record: whole, even blocks, and blocks of 1 to 1200 samples.
    BLOCKINGS = ([], list(range(1000, N, 1000)), [1, 2, 5, 338, 1338, 1339, 2539, 3000, 3001, 4200])

    @pytest.mark.parametrize("nperseg", [2, 3, 333, 1000, 1001])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("offset, rtol", [(0.0, 1e-13), (10.0, 1e-13), (1e3, 1e-11)])
    def test_matches_the_detrend_first_kernel(self, nperseg, rows, offset, rtol):
        rng = np.random.default_rng(1000 * rows + nperseg)
        sigma = 2.5
        # Each row's mean is up to offset * sigma, with both signs.
        means = offset * sigma * np.array([1.0, -0.7, 0.3])[:rows, None]
        data = sigma * rng.standard_normal((rows, self.N)) + means
        cross = [rows - 1, 0]
        power, cross_power = detrend_window_fft_sums(data, nperseg, cross)
        # Errors are taken relative to each row's mean power, its floor: a
        # bin's own power can lie near zero, and the cross sum has either sign.
        floor = power.mean(axis=1)
        scale = math.sqrt(floor[cross[0]] * floor[cross[1]])
        runs = []
        for splits in self.BLOCKINGS:
            sums = _WelchSums(rows, 1e6, nperseg, cross)
            for block in np.split(data, splits, axis=1):
                sums.slot(block.shape[1])[...] = block
                sums.take(block.shape[1])
            runs.append(sums)
            assert sums.n_segments == 1 + (self.N - nperseg) // (nperseg - nperseg // 2)
            assert np.all(np.abs(sums.power - power) <= rtol * floor[:, None])
            assert np.all(np.abs(sums.cross_power - cross_power) <= rtol * scale)
        # Segments add in order whatever the blocking, so the sums agree bit for bit.
        for sums in runs[1:]:
            assert np.array_equal(sums.power, runs[0].power)

    @pytest.mark.parametrize("nperseg, block", [(2, 16000), (1000, 16000), (10_000, 20_000), (100_000, 50_000)])
    def test_slot_holds_at_most_one_block(self, nperseg, block):
        # The fewest whole steps that hold 16000 samples, and no growth past them.
        sums = _WelchSums(2, 1e6, nperseg)
        assert sums.block == block
        sums.slot(block)[...] = 1.0
        sums.take(block)
        assert sums.slot(block).shape == (2, block)
        with pytest.raises(ValueError, match=f"block of {block + 1} samples"):
            sums.slot(block + 1)


def preset_run_config(name):
    """A preset's run config; its scheme sits at the dark fringe, which the lock puts at exactly pi."""
    cfg = load_config(preset_config(name))
    assert cfg.scheme.interferometer_phase == math.pi
    return cfg


def single_draw_records(scheme, duration, sample_rate, seed):
    """Reference synthesis: one (n, ports) draw and one whole-record phasor
    sine per (port, tone)."""
    model = measurement_model(scheme)
    n = int(round(duration * sample_rate))
    factor = np.linalg.cholesky(model.noise_cov)
    noise = np.random.default_rng(seed).standard_normal((n, len(model.port_names))) @ factor.T
    records = {}
    for idx, name in enumerate(model.port_names):
        waveform = noise[:, idx].copy()
        for tone in scheme.tones:
            amp = model.tone_amplitudes[tone.frequency_hz][idx]
            if amp != 0.0:
                waveform += amp * _GridPhasor(tone.frequency_hz, sample_rate).sin(0, n)
        records[name] = waveform
    return records


def count_blocks(monkeypatch, events):
    """Patch the pass's synthesis so each ``target(start, m)`` it writes appends ``("block", m)`` to ``events``."""
    synthesize = suisim.spectra._synthesize

    def counted_synthesize(model, n_samples, sample_rate, seed, block, target):
        def counted_target(start, m):
            events.append(("block", m))
            return target(start, m)

        return synthesize(model, n_samples, sample_rate, seed, block, counted_target)

    monkeypatch.setattr(suisim.spectra, "_synthesize", counted_synthesize)


class TestStreamedPass:
    # 40001 samples: two and a half synthesis blocks plus one sample.
    DURATION = 4.0001e-3

    @pytest.mark.parametrize("preset", ["fig4", "fig5"])
    def test_blocked_synthesis_equals_single_draw(self, preset):
        scheme = preset_run_config(preset).scheme
        # One sample short of a 16000-sample block, one block, two blocks, and DURATION.
        for n in (15999, 16000, 32000, 40001):
            records = simulate_currents(scheme, n / 10e6, seed=3)
            reference = single_draw_records(scheme, n / 10e6, 10e6, seed=3)
            assert records.keys() == reference.keys()
            for port, samples in reference.items():
                assert samples.size == n
                assert np.array_equal(records[port].samples, samples), (n, port)

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

    def test_short_segments_stream_in_sample_sized_units(self, monkeypatch):
        # At 333-sample segments the blocks once held 32 Welch steps (5344
        # samples) and each FFT call 8 segments (2664 samples per port).
        events, rfft = [], np.fft.rfft

        def counted_rfft(a, *args, **kwargs):
            # A chunk of segments is (ports, segments, nperseg); the window's own transform is 1-D.
            if a.ndim == 3:
                events.append(("rfft", a.shape[1] * a.shape[2]))
            return rfft(a, *args, **kwargs)

        count_blocks(monkeypatch, events)
        monkeypatch.setattr(np.fft, "rfft", counted_rfft)
        run = simulate_spectra(measurement_model(preset_run_config("fig2").scheme), 0.0123457, seed=5, rbw=10e6 / 333)
        blocks = [m for kind, m in events if kind == "block"]
        assert len(blocks) > 2 and min(blocks[:-1]) >= 16000
        assert sum(blocks) == 123457
        # The FFT calls of each block: all but its last transform 8000 samples or more of each port.
        calls, segments = [], 0
        for kind, size in events:
            if kind == "block":
                calls.append([])
            else:
                calls[-1].append(size)
                segments += size // 333
        assert all(len(sizes) > 0 and min(sizes[:-1], default=8000) >= 8000 for sizes in calls[:-1])
        assert segments == run.spectra["signal"].n_averages

    # 15 kHz: 667-sample segments, in blocks of 48 steps (16032 samples), and
    # 2 kHz: 5000-sample segments, in blocks of 7 steps (17500 samples), so
    # the pass's lock-in sums group unlike calibrate_k's 16000-sample blocks.
    @pytest.mark.parametrize(
        "gain, rbw", [(1.0, 10e3), (0.84, 10e3), (1.0, 15e3), (1.0, 2e3)], ids=["1.0", "0.84", "1.0-15kHz", "1.0-2kHz"]
    )
    def test_combination_read_off_cross_spectrum(self, gain, rbw):
        cfg = preset_run_config("fig5")
        combine = cfg.sim.combine
        # The signal channel read through an amplitude gain, in the model and in the record.
        model = measurement_model(cfg.scheme)
        check_readout(0.05, 10e6, rbw, list(model.tone_amplitudes))
        scale = np.array([gain if name == "signal" else 1.0 for name in model.port_names])
        model = dataclasses.replace(
            model,
            noise_cov=model.noise_cov * np.outer(scale, scale),
            tone_amplitudes={f: tuple(a * g for a, g in zip(amps, scale)) for f, amps in model.tone_amplitudes.items()},
        )
        run = simulate_spectra(model, 0.05, seed=cfg.sim.seed, rbw=rbw, combine=combine)
        records = simulate_currents(cfg.scheme, 0.05, seed=cfg.sim.seed)
        i1 = dataclasses.replace(records["signal"], samples=gain * records["signal"].samples)
        i3 = records["tap"]
        k = calibrate_k(i1, i3, combine.calibration_tone_hz)
        assert run.balance_gain_k == pytest.approx(k, rel=1e-12, abs=0.0)
        assert len(run.combined) == len(combine.thetas) == 4
        for theta, spec in zip(combine.thetas, run.combined):
            expected = welch_psd(combine_currents(i1, i3, theta, k), rbw)
            assert_allclose(spec.psd_snu, expected.psd_snu, rtol=1e-11, atol=0.0)
            assert spec.n_averages == expected.n_averages

    @pytest.mark.parametrize("order", [1, -1], ids=["signal-first", "tap-first"])
    def test_balance_gain_equals_calibrate_k_bit_for_bit(self, order):
        # At the default segments the pass's blocks are 16000 samples, as
        # calibrate_k's, so both sum the lock-in over the same draws in the
        # same groups; the pass reads the pair's rows off contiguous memory
        # whichever port comes first.
        cfg = preset_run_config("fig5")
        scheme = dataclasses.replace(cfg.scheme, ports=cfg.scheme.ports[::order])
        model = measurement_model(scheme)
        assert (model.port_names.index("signal") < model.port_names.index("tap")) == (order == 1)
        combine = cfg.sim.combine
        run = simulate_spectra(model, 0.0123457, seed=cfg.sim.seed, combine=combine)
        records = simulate_currents(scheme, 0.0123457, seed=cfg.sim.seed)
        assert run.balance_gain_k == calibrate_k(records["signal"], records["tap"], combine.calibration_tone_hz)

    def test_combination_leaves_the_port_spectra_unchanged(self):
        # The lock-in reads each synthesised block; the synthesis does not see it.
        cfg = preset_run_config("fig5")
        model = measurement_model(cfg.scheme)
        assert cfg.sim.combine.calibration_tone_hz in model.tone_amplitudes
        plain = simulate_spectra(model, 0.0123457, seed=cfg.sim.seed)
        combined = simulate_spectra(model, 0.0123457, seed=cfg.sim.seed, combine=cfg.sim.combine)
        assert plain.balance_gain_k is None and combined.balance_gain_k is not None
        assert list(combined.spectra) == list(plain.spectra) == list(model.port_names)
        for port, spec in plain.spectra.items():
            assert np.array_equal(combined.spectra[port].psd_snu, spec.psd_snu), port
            assert np.array_equal(combined.spectra[port].freq, spec.freq), port

    def test_perfectly_correlated_ports_draw_one_record(self):
        # Cholesky rejects this covariance, so the synthesis factors it through eigh.
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        model = MeasurementModel(("signal", "idler"), (0.0, math.pi / 2), (1.0, 1.0), cov, {})
        run = simulate_spectra(model, 0.02)
        signal, idler = run.spectra["signal"], run.spectra["idler"]
        assert np.array_equal(signal.psd_snu, idler.psd_snu)
        floor = band_floor(signal, *report_band(signal.freq.size, signal.bin_width, ()))
        assert floor == pytest.approx(1.0, rel=0.02)

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


class TestDrawWorker:
    """Each pass draws its noise on one worker thread, one block ahead of the
    blocks it colours and transforms.  The thread ends with the pass on every
    exit, and the samples do not depend on how the two threads interleave."""

    # 40001 samples: two full 16000-sample blocks and a partial one.
    DURATION = 4.0001e-3

    def fig5(self):
        cfg = preset_run_config("fig5")
        return measurement_model(cfg.scheme), cfg.sim

    def test_normal_end_joins_the_worker(self):
        model, sim = self.fig5()
        before = threading.active_count()
        simulate_spectra(model, self.DURATION, seed=sim.seed, combine=sim.combine)
        assert threading.active_count() == before

    def test_early_close_joins_the_worker(self):
        model, _ = self.fig5()
        before = threading.active_count()
        target = np.empty((len(model.port_names), 16000))
        blocks = _synthesize(model, 40001, 10e6, 3, 16000, lambda start, m: target[:, :m])
        next(blocks)
        assert threading.active_count() == before + 1
        blocks.close()
        assert threading.active_count() == before

    # The pass draws three blocks: block 0, block 1 while block 0 is read, and the partial last one.
    @pytest.mark.parametrize("failing", [1, 2, 3], ids=["first", "second", "last"])
    def test_draw_error_reaches_the_caller_unchanged(self, monkeypatch, failing):
        model, sim = self.fig5()
        default_rng, threads = np.random.default_rng, []

        class FailingGenerator:
            """A generator whose draw number ``failing`` raises."""

            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, out):
                threads.append(threading.current_thread())
                if len(threads) == failing:
                    raise FloatingPointError(f"draw {failing} failed")
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
        before = threading.active_count()
        with pytest.raises(FloatingPointError) as info:
            simulate_spectra(model, self.DURATION, seed=sim.seed, combine=sim.combine)
        assert info.type is FloatingPointError and str(info.value) == f"draw {failing} failed"
        assert len(threads) == failing
        assert threading.active_count() == before
        # Only the worker drew.
        assert threading.main_thread() not in threads

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="thread affinity is set on Linux only")
    def test_worker_draws_off_the_callers_cpu(self, monkeypatch):
        model, sim = self.fig5()
        default_rng, placements = np.random.default_rng, []

        class PlacedGenerator:
            """A generator that notes the CPUs its drawing thread may use."""

            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, out):
                placements.append(os.sched_getaffinity(0))
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(np.random, "default_rng", PlacedGenerator)
        allowed = os.sched_getaffinity(0)
        simulate_spectra(model, self.DURATION, seed=sim.seed, combine=sim.combine)
        assert len(placements) == 3
        expected = len(allowed) - 1 if len(allowed) > 1 else 1
        assert all(cpus <= allowed and len(cpus) == expected for cpus in placements), (allowed, placements)
        # The caller's own placement is left as it was.
        assert os.sched_getaffinity(0) == allowed

    def test_feed_error_mid_pass_joins_the_worker(self, monkeypatch):
        model, sim = self.fig5()
        take, calls = _WelchSums.take, []

        def failing_take(sums, m):
            calls.append(m)
            if len(calls) == 2:
                raise ArithmeticError("take 2 failed")
            take(sums, m)

        monkeypatch.setattr(_WelchSums, "take", failing_take)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as info:
            simulate_spectra(model, self.DURATION, seed=sim.seed, combine=sim.combine)
        assert info.type is ArithmeticError and str(info.value) == "take 2 failed"
        assert threading.active_count() == before

    @staticmethod
    def switching_fast(run):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return run()
        finally:
            sys.setswitchinterval(interval)

    def test_one_port_is_bit_identical_under_fast_switching(self):
        model = MeasurementModel(("signal",), (0.0,), (1.0,), np.array([[2.5]]), {AM: (0.3,)})
        run = self.switching_fast(lambda: simulate_spectra(model, self.DURATION, seed=11))
        samples = math.sqrt(2.5) * np.random.default_rng(11).standard_normal((40001, 1))[:, 0]
        samples += 0.3 * _GridPhasor(AM, 10e6).sin(0, 40001)
        expected = welch_psd(TimeSeries(10e6, samples, "signal"))
        assert np.array_equal(run.spectra["signal"].psd_snu, expected.psd_snu)

    @pytest.mark.parametrize("preset", ["fig2", "fig4", "fig5"])
    def test_ports_are_bit_identical_under_fast_switching(self, preset):
        cfg = preset_run_config(preset)
        model, combine = measurement_model(cfg.scheme), cfg.sim.combine
        run = self.switching_fast(lambda: simulate_spectra(model, self.DURATION, seed=7, combine=combine))
        records = simulate_currents(cfg.scheme, self.DURATION, seed=7)
        assert len(records) == {"fig2": 2, "fig4": 3, "fig5": 3}[preset]
        for port, record in records.items():
            assert np.array_equal(run.spectra[port].psd_snu, welch_psd(record).psd_snu)
        if combine is not None:
            # The lock-in and the cross sums as at the default switch interval.
            steady = simulate_spectra(model, self.DURATION, seed=7, combine=combine)
            assert run.balance_gain_k == steady.balance_gain_k
            for spec, expected in zip(run.combined, steady.combined, strict=True):
                assert np.array_equal(spec.psd_snu, expected.psd_snu)


    def test_concurrent_passes_are_bit_identical_under_fast_switching(self):
        # Three passes at once: six threads on the host's CPUs, each pass with its own generator.
        model = measurement_model(preset_run_config("fig4").scheme)
        seeds = (1, 2, 3)
        expected = [simulate_spectra(model, self.DURATION, seed=seed) for seed in seeds]
        runs = {}

        def run(seed):
            runs[seed] = simulate_spectra(model, self.DURATION, seed=seed)

        def concurrently():
            threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            return threads

        before = threading.active_count()
        threads = self.switching_fast(concurrently)
        assert not any(thread.is_alive() for thread in threads)
        assert threading.active_count() == before
        for seed, reference in zip(seeds, expected):
            for port, spec in reference.spectra.items():
                assert np.array_equal(runs[seed].spectra[port].psd_snu, spec.psd_snu)


class TestWorkingSet:
    """The streamed pass's memory is a fixed working set: buffers allocated
    once per pass, so its traced peak is the same for a record ten times as
    long.  The bounds sit about 10% above the measured peaks, which count
    the worker's second draw buffer: at the defaults 2.40 MB for fig4's
    three ports and 2.82 MB for fig5's with its combination (a pass that
    allocated each block's temporaries afresh read 3.36 and 3.80 MB); at
    1 kHz, 10000-sample segments in 20000-sample blocks, 2.49 MB for fig2
    and 4.05 MB for fig5 (blocks of 32 steps, 160000 samples, read 13.6 and
    19.1 MB)."""

    @pytest.mark.parametrize(
        "preset, rbw, block, bound",
        [
            ("fig4", 10e3, 16_000, 2.5e6),
            ("fig5", 10e3, 16_000, 2.95e6),
            ("fig2", 1e3, 20_000, 2.75e6),
            ("fig5", 1e3, 20_000, 4.45e6),
        ],
        ids=["fig4-2500000.0", "fig5-2950000.0", "fig2-1kHz", "fig5-1kHz"],
    )
    def test_peak_is_flat_in_duration_and_bounded(self, monkeypatch, preset, rbw, block, bound):
        cfg = preset_run_config(preset)
        model = measurement_model(cfg.scheme)
        sim = cfg.sim
        # One counted pass first, so one-off caches (the FFT plans) are not counted.
        events = []
        with monkeypatch.context() as patch:
            count_blocks(patch, events)
            simulate_spectra(model, 0.02, sim.sample_rate_hz, sim.seed, rbw, sim.combine)
        blocks = [m for _, m in events]
        assert sum(blocks) == 200_000 and set(blocks[:-1]) == {block}, blocks
        peaks = {}
        for duration in (0.02, 0.2):
            tracemalloc.start()
            try:
                simulate_spectra(model, duration, sim.sample_rate_hz, sim.seed, rbw, sim.combine)
                peaks[duration] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[0.2] - peaks[0.02]) <= 64e3, peaks
        assert max(peaks.values()) < bound, peaks


class TestMedian:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 10, 11, 20, 21, 99, 100, 199, 200])
    def test_equals_numpy_median_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        cases = [
            rng.standard_normal(size),
            rng.integers(0, 3, size).astype(float),  # ties
            np.full(size, 2.5),
            np.exp(rng.uniform(-30.0, 30.0, size)),
        ]
        with_nan = rng.standard_normal(size)
        with_nan[rng.integers(size)] = math.nan
        cases.append(with_nan)
        for x in cases:
            before = x.copy()
            got, expected = _median(x), float(np.median(x))
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (x, got, expected)
            assert np.array_equal(x, before, equal_nan=True)

    def test_a_spectrum_run_leaves_numpy_ma_unimported(self, tmp_path):
        src = os.path.dirname(os.path.dirname(suisim.__file__))
        code = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from suisim.cli import cmd_simulate\n"
            "from suisim.config import load_config, preset_config\n"
            "raw = preset_config('fig5')\n"
            "raw['sim']['duration_s'] = 0.01\n"
            "raw['output'] = {'directory': sys.argv[2]}\n"
            "cmd_simulate(load_config(raw))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, src, str(tmp_path / "out")], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip().splitlines()[-1] == "False"
        assert list((tmp_path / "out").glob("*.csv"))


class TestGridPhasor:
    N_MAX = 8_000_000
    FS = 10e6

    @pytest.mark.parametrize("frequency", [0.8e6, 1.2e6, 4.9e6])
    def test_matches_numpy_to_phase_rounding(self, frequency):
        phasor = _GridPhasor(frequency, self.FS)
        omega = 2.0 * math.pi * frequency
        bound = 8 * np.finfo(float).eps * omega * self.N_MAX / self.FS
        # Chunks off the grid rows, so every offset into a row is read.
        chunk = 1_000_003
        for start in range(0, self.N_MAX, chunk):
            m = min(chunk, self.N_MAX - start)
            angle = omega * (np.arange(start, start + m) / self.FS)
            assert np.max(np.abs(phasor.sin(start, m) - np.sin(angle))) <= bound
            assert np.max(np.abs(phasor.cos(start, m) - np.cos(angle))) <= bound

    @staticmethod
    def row_loop_join(phasor, start, m, weights):
        """The row-by-row join the phasor once made, one grid row at a time."""
        out = np.empty(m)
        for row in range(start - start % _GRID, start + m, _GRID):
            lo, hi = max(row, start), min(row + _GRID, start + m)
            a, b = weights(phasor.omega * (row / phasor.sample_rate))
            r = slice(lo - row, hi - row)
            out[lo - start : hi - start] = a * phasor.cos_phi[r] + b * phasor.sin_phi[r]
        return out

    @pytest.mark.parametrize("frequency", [0.8e6, 1.0e6, 1.2e6, 4.9e6])
    def test_join_equals_the_row_loop(self, frequency):
        phasor = _GridPhasor(frequency, self.FS)
        for start in (0, 1, 4095, 4096, 4097, 16000, 32005):
            for m in (1, 4096, 16000, 40001):
                sin = self.row_loop_join(phasor, start, m, lambda t: (math.sin(t), math.cos(t)))
                cos = self.row_loop_join(phasor, start, m, lambda t: (math.cos(t), -math.sin(t)))
                assert np.array_equal(phasor.sin(start, m), sin)
                assert np.array_equal(phasor.cos(start, m), cos)

    def test_lock_in_balance_gain_matches_numpy_reference(self):
        cfg = preset_run_config("fig5")
        f = cfg.sim.combine.calibration_tone_hz
        records = simulate_currents(cfg.scheme, 0.05, seed=cfg.sim.seed)
        i1, i3 = records["signal"], records["tap"]
        reference = np.exp(-2j * math.pi * f * (np.arange(i1.samples.size) / i1.sample_rate))
        expected = abs(i1.samples @ reference) / abs(i3.samples @ reference)
        lock_in = _LockIn(f, i1.sample_rate)
        lock_in.feed(0, np.stack((i1.samples, i3.samples)))
        a1, a3 = lock_in.amplitudes()
        assert a1 / a3 == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert calibrate_k(i1, i3, f) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("tap_lo", [math.pi / 2, 3 * math.pi / 4 + 1e-3], ids=["preset", "near-null"])
    def test_lock_in_reads_the_model_moments(self, tap_lo):
        # simulate_spectra decides whether the calibration tone is visible
        # from the model amplitude and the port variance plus A^2/2 per tone,
        # before any sample is drawn; the records must bear them out.
        raw = preset_config("fig5")
        raw["ports"]["channels"][2]["lo_phase_rad"] = tap_lo
        cfg = load_config(raw)
        f = cfg.sim.combine.calibration_tone_hz
        model = measurement_model(cfg.scheme)
        records = simulate_currents(cfg.scheme, 0.05, seed=cfg.sim.seed)
        lock_in = _LockIn(f, cfg.sim.sample_rate_hz)
        lock_in.feed(0, np.stack((records["signal"].samples, records["tap"].samples)))
        for port, measured in zip(("signal", "tap"), lock_in.amplitudes()):
            samples = records[port].samples
            variance = model.variance(port) + sum(model.amplitude(port, t) ** 2 / 2 for t in model.tone_amplitudes)
            noise_scale = 2.0 * math.sqrt(variance / samples.size)
            assert abs(measured - abs(model.amplitude(port, f))) <= 3.0 * noise_scale
            assert np.var(samples) == pytest.approx(variance, rel=0.02)


def test_package_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(suisim.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import suisim, suisim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_cli_import_does_not_load_the_draw_executor():
    """The spectral pass imports its executor when it runs, so the CLI's set-up
    does not pay for ``concurrent.futures`` and the ``queue`` it brings."""
    src = os.path.dirname(os.path.dirname(suisim.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import suisim.cli; "
        "print(sorted(m for m in sys.modules if m == 'queue' or m.split('.')[0] == 'concurrent'))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_package_binds_only_its_version():
    """The modules are the API: ``import suisim`` binds no public name and
    imports none of them."""
    src = os.path.dirname(os.path.dirname(suisim.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import suisim; "
        "print(sorted(n for n in vars(suisim) if not n.startswith('_')), hasattr(suisim, '__version__'), "
        "sorted(m for m in sys.modules if m.startswith('suisim.')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[] True []"


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
        ts = TimeSeries(fs, rng.standard_normal(n) + amp * np.sin(2 * math.pi * 1e5 * t), "x")
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
        spec = Spectrum(np.ones(nperseg // 2 + 1), _bin_width(fs, nperseg), 1)
        try:
            extract_peak_snr(spec, tones[0], exclude=tones)
            ambiguous = False
        except ValueError as exc:
            assert "ambiguous" in str(exc)
            ambiguous = True
        if ambiguous:
            with pytest.raises(ParameterError) as info:
                check_readout(0.01, fs, fs / nperseg, tones)
            assert info.value.name == "rbw_hz"
        else:
            check_readout(0.01, fs, fs / nperseg, tones)

    @pytest.mark.parametrize(
        "fs, tones, npersegs",
        [
            (10e6, (0.8e6, 1.0e6, 1.2e6), range(320, 400)),
            (2.401e6, (0.8e6, 1.2e6), range(236, 250)),
            (10e6, (), range(2, 80)),
            (10e6, (2.5e6,), range(2, 80)),
            (10e6, (1.0e6, 2.9e6), range(2, 80)),
            (10e6, (0.3e6, 4.7e6), range(2, 80)),
        ],
        ids=["fig4-spacing", "fig2-odd-segments", "toneless", "mid-span", "two-tones", "edge-tones"],
    )
    def test_readout_check_rejects_exactly_the_unreadable_tone_plans(self, fs, tones, npersegs):
        # Each segment length is accepted iff every tone's peak and floor,
        # and the floor band a report gives, can be read off a spectrum at
        # that resolution.
        verdicts = set()
        for nperseg in npersegs:
            spec = Spectrum(np.ones(nperseg // 2 + 1), _bin_width(fs, nperseg), 1)
            rejections = []
            for reader in (extract_peak_snr, tone_power):
                try:
                    for f in tones:
                        reader(spec, f, exclude=tones)
                except ValueError as exc:
                    rejections.append(exc)
            # Both readers apply the load-time rule and name its parameter.
            assert len(rejections) in (0, 2), rejections
            for exc in rejections:
                assert isinstance(exc, ParameterError) and exc.name == "rbw_hz", exc
            readable = not rejections
            if readable:
                try:
                    band_floor(spec, *report_band(spec.freq.size, spec.bin_width, tones), exclude=tones)
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

    @pytest.mark.parametrize("tones", [(), (0.8e6, 1.2e6)])
    def test_readout_check_builds_no_spectrum(self, tones):
        # Segments of MAX_SAMPLES samples: the spectrum would be 400 MB of bins.
        tracemalloc.start()
        try:
            check_readout(10.0, 10e6, 0.1, tones)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

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


# The readout rule as whole-spectrum masks, the form the readers and
# check_readout used before they decided on the few bins around each tone;
# the reference the scalar rule is held to.
def mask_near(freq, bin_width, centre, halfwidth_bins):
    return np.abs(freq - centre) <= halfwidth_bins * bin_width + 1e-9


def mask_clear_of(freq, bin_width, tones):
    clear = np.ones(freq.shape, dtype=bool)
    for f in tones:
        clear &= ~mask_near(freq, bin_width, f, 5.0)
    return clear


def mask_readout_bins(freq, bin_width, f0, tones):
    if not freq[0] <= f0 <= freq[-1]:
        raise ParameterError(
            "rbw_hz",
            f"the tone at {f0} Hz lies outside the spectrum span, up to the last bin at {freq[-1]:.6g} Hz",
        )
    others = [f for f in tones if f != f0]
    for f in others:
        if abs(f0 - f) <= 6.5 * bin_width:
            raise ParameterError(
                "rbw_hz", f"the tone at {f0} Hz is ambiguous: the tone at {f} Hz overlaps its readout window"
            )
    window = mask_near(freq, bin_width, f0, 1.5)
    floor = mask_near(freq, bin_width, f0, 5.0) & ~window & mask_clear_of(freq, bin_width, others)
    if not floor.any():
        raise ParameterError(
            "rbw_hz",
            f"{bin_width:.6g} Hz bins let the other tones' neighbourhoods cover "
            f"the whole floor annulus of the tone at {f0} Hz",
        )
    return window, floor


def mask_check_readout(duration, sample_rate, rbw, tones):
    """check_readout with every rbw rule run on the whole spectrum."""
    n_samples = check_sampling(duration, sample_rate, tones)
    nperseg = _segment_length(sample_rate, rbw, n_samples)
    freq = np.fft.rfftfreq(nperseg, 1.0 / sample_rate)
    bin_width = float(freq[1] - freq[0])
    for f in tones:
        mask_readout_bins(freq, bin_width, f, tones)
    lo, hi = report_band(freq.size, bin_width, tones)
    if not ((freq >= lo) & (freq <= hi) & mask_clear_of(freq, bin_width, tones)).any():
        raise ParameterError(
            "rbw_hz",
            f"{bin_width:.6g} Hz bins leave no bin of the report's floor band, {lo:.6g} to "
            f"{hi:.6g} Hz, outside the tones' neighbourhoods",
        )
    return n_samples


def readout_plans(seed):
    """Seeded (sample rate, rbw, tones) plans near every edge of the readout rule."""
    rng = np.random.default_rng(seed)
    fs = 1e6
    npersegs = [2, 3, 4, 5] + [int(n) for n in rng.integers(6, 600, size=40)]
    npersegs += [n + 1 for n in npersegs[4:]]
    for nperseg in npersegs:
        bin_width = fs / nperseg
        last = (nperseg // 2) * bin_width
        yield fs, fs / nperseg, (last,)
        yield fs, fs / nperseg, (last + 0.25 * bin_width,)
        yield fs, fs / nperseg, (0.3 * fs, last)
        first = float(rng.uniform(0.0, 0.5 * last))
        yield fs, fs / nperseg, (first, first + float(rng.uniform(6.0, 7.0)) * bin_width)
        # Tones 6.6 to 11 bins apart from near DC to near the last bin,
        # whose neighbourhoods may cover the report band.
        spacing = float(rng.uniform(6.6, 11.0)) * bin_width
        start = float(rng.uniform(1.0, 6.0)) * bin_width
        yield fs, fs / nperseg, tuple(start + j * spacing for j in range(int((last - start) / spacing) + 1))
        yield fs, fs / nperseg, tuple(float(f) for f in np.sort(rng.uniform(0.0, 0.5 * fs, rng.integers(0, 4))))


def readout_verdict(check, plan):
    fs, rbw, tones = plan
    try:
        return check(1e-3, fs, rbw, tones)
    except ParameterError as exc:
        return exc.name, str(exc)


@pytest.mark.parametrize("seed", [0, 1])
def test_readout_check_decides_as_the_whole_spectrum_rule(seed):
    verdicts = []
    for plan in readout_plans(seed):
        verdict = readout_verdict(check_readout, plan)
        assert verdict == readout_verdict(mask_check_readout, plan), plan
        verdicts.append(verdict)
    # The grid reaches acceptance and every rule.
    assert any(isinstance(v, int) for v in verdicts)
    texts = " ".join(v[1] for v in verdicts if isinstance(v, tuple))
    for rule in ("outside the spectrum span", "is ambiguous", "floor annulus", "floor band", "aliases"):
        assert rule in texts, rule


def mask_readers(spec, f0, exclude):
    window, floor = mask_readout_bins(spec.freq, spec.bin_width, f0, exclude)
    median = float(np.median(spec.psd_snu[floor]))
    peak = float(np.max(spec.psd_snu[window])) / median
    power = float(np.sum(spec.psd_snu[window] - median) * spec.bin_width / spec.freq[-1])
    return peak, power


def mask_band_floor(spec, f_lo, f_hi, exclude):
    mask = (spec.freq >= f_lo) & (spec.freq <= f_hi) & mask_clear_of(spec.freq, spec.bin_width, exclude)
    return float(np.median(spec.psd_snu[mask]))


@pytest.mark.parametrize("preset", ["fig2", "fig4", "fig5"])
def test_readers_equal_the_whole_spectrum_masks(preset):
    cfg = preset_run_config(preset)
    run = simulate_spectra(
        measurement_model(cfg.scheme), 0.02, cfg.sim.sample_rate_hz, 7, cfg.sim.rbw_hz, cfg.sim.combine
    )
    exclude = tuple(t.frequency_hz for t in cfg.scheme.tones)
    spectra = list(run.spectra.values()) + list(run.combined)
    assert len(spectra) == {"fig2": 2, "fig4": 3, "fig5": 7}[preset]
    for spec in spectra:
        band = report_band(spec.freq.size, spec.bin_width, exclude)
        assert band_floor(spec, *band, exclude=exclude) == mask_band_floor(spec, *band, exclude)
        for f in exclude:
            peak, power = mask_readers(spec, f, exclude)
            assert extract_peak_snr(spec, f, exclude=exclude) == peak
            assert tone_power(spec, f, exclude=exclude) == power


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
        combined = combine_currents(i1, i3, 0.0, 0.84)
        assert_allclose(combined.samples, i1.samples)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            combine_currents(white_series(n=1000), white_series(n=1200), 0.1, 1.0)

    def test_mismatched_sample_rates_rejected(self):
        with pytest.raises(ValueError, match="sample rate"):
            combine_currents(white_series(n=1000), white_series(n=1000, fs=2e6), 0.1, 1.0)

    def test_invalid_balance_gain(self):
        for k in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="balance gain"):
                combine_currents(white_series(n=1000), white_series(n=1000), 0.0, k)

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
        combined = combine_currents(records["signal"], records["tap"], theta, k)
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
