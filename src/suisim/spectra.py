"""Photocurrent simulation, shot-noise-normalised spectra and peak readout.

The time-domain model is deliberately simple: each homodyne port delivers
its deterministic tone sinusoids (amplitudes taken from the single-shot
engine, detector efficiency included) on top of white Gaussian noise whose
joint covariance across ports equals the output-state covariance.  The
flat noise floors this produces match the measured spectra over the band
of interest; no coloured-noise model is attempted.

Spectra are Welch periodograms (Hann window, 50% overlap, one sided)
normalised so unit-variance white noise sits at 1, i.e. the shot-noise
unit.  :func:`simulate_spectra` synthesises a run of a port model and
accumulates its spectra in blocks of a fixed number of Welch steps, so a
run's memory does not grow with its duration.  The record-level functions
(:func:`simulate_currents`, :func:`welch_psd`, :func:`calibrate_k`,
:func:`combine_currents`) compute the same run one whole record at a time;
they are the reference the streamed pass is tested against.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .schemes import (
    PORT_SIGNAL,
    PORT_TAP,
    MeasurementModel,
    ParameterError,
    SchemeInstance,
    measurement_model,
)

#: Defaults sized so 0.2 MHz tone spacing spans 20 bins and floors average
#: to well under 2% statistical error.
DEFAULT_SAMPLE_RATE = 10e6
DEFAULT_DURATION = 0.2
DEFAULT_RBW = 10e3

MAX_SAMPLES = 100_000_000

# Bins masked out around a tone when estimating noise floors.  Hann
# leakage is below 0.1% of the carrier beyond 4 bins.
_EXCLUDE_HALFWIDTH_BINS = 5.0
# Peak integration window; captures >= 99% of a Hann-windowed tone at any
# bin offset (exact on bin centres).
_PEAK_HALFWIDTH_BINS = 1.5


def _tones_collide(f: float, g: float, bin_width: float) -> bool:
    """True when a tone at ``g`` reaches into the readout window of one at ``f``."""
    return abs(f - g) <= (_PEAK_HALFWIDTH_BINS + _EXCLUDE_HALFWIDTH_BINS) * bin_width


def _bin_mask(freq: np.ndarray, bin_width: float, centre: float, halfwidth_bins: float) -> np.ndarray:
    return np.abs(freq - centre) <= halfwidth_bins * bin_width + 1e-9


def _floor_bins(freq: np.ndarray, bin_width: float, f0: float, exclude) -> np.ndarray:
    """Bins the floor under the tone at ``f0`` is read from: its +-5-bin
    annulus outside the peak window, less the neighbourhood of every other
    tone in ``exclude``."""
    annulus = _bin_mask(freq, bin_width, f0, _EXCLUDE_HALFWIDTH_BINS)
    annulus &= ~_bin_mask(freq, bin_width, f0, _PEAK_HALFWIDTH_BINS)
    for f in exclude:
        if f != f0:
            annulus &= ~_bin_mask(freq, bin_width, f, _EXCLUDE_HALFWIDTH_BINS)
    return annulus


# Welch steps per streamed block.  At the default settings a block is 16k
# samples, 0.4 MB for three ports, so synthesis and FFT work in cache; 16
# to 64 steps timed alike, 128 about 20% slower.
_BLOCK_STEPS = 32


def _block_length(nperseg: int) -> int:
    return _BLOCK_STEPS * (nperseg - nperseg // 2)


# Block of the work that has no segment length of its own (whole records,
# lock-in sums): the Welch block at the default settings.
_RECORD_BLOCK = _block_length(round(DEFAULT_SAMPLE_RATE / DEFAULT_RBW))


def _bin_width(sample_rate: float, nperseg: int) -> float:
    """Welch bin width as np.fft.rfftfreq computes it, so that the checks
    below and the readout agree to the last bit."""
    return 1.0 / (nperseg * (1.0 / sample_rate))


def _segment_length(sample_rate: float, rbw: float, n_samples: int) -> int:
    """Welch segment length for ``rbw``, checked against the record length."""
    if not rbw > 0:
        raise ParameterError("rbw_hz", f"rbw must be positive, got {rbw} Hz")
    segment = sample_rate / rbw
    nperseg = round(segment) if math.isfinite(segment) else math.inf
    if nperseg < 2:
        raise ParameterError("rbw_hz", f"rbw {rbw} Hz is too coarse for sample rate {sample_rate} Hz")
    if nperseg > n_samples:
        raise ParameterError(
            "rbw_hz",
            f"rbw {rbw} Hz needs {nperseg} samples per segment but the record has {n_samples}; "
            "record at least sample_rate/rbw samples",
        )
    return nperseg


def check_sampling(
    duration: float,
    sample_rate: float,
    rbw: float | None = None,
    tone_frequencies: tuple[float, ...] | list[float] = (),
) -> int:
    """Number of samples in a record of ``duration``, after checking that the
    record can be synthesised and, given ``rbw``, Welch-averaged.

    Given ``rbw``, no two tones may lie within each other's readout window.
    Raises :class:`ParameterError` named after the offending setting of a
    run config's ``sim`` section: ``duration_s``, ``sample_rate_hz`` or
    ``rbw_hz``.
    """
    if not sample_rate > 0:
        raise ParameterError("sample_rate_hz", f"sample rate must be positive, got {sample_rate} Hz")
    samples = duration * sample_rate
    if not samples < MAX_SAMPLES + 0.5:
        raise ParameterError("duration_s", f"requested {samples:.0f} samples, limit is {MAX_SAMPLES}")
    n_samples = int(round(samples))
    if n_samples < 2:
        raise ParameterError("duration_s", "duration times sample rate must give at least two samples")
    if tone_frequencies and sample_rate <= 2.0 * max(tone_frequencies):
        raise ParameterError(
            "sample_rate_hz",
            f"sample rate {sample_rate} Hz aliases the {max(tone_frequencies)} Hz tone; "
            "use more than twice the highest tone frequency",
        )
    if rbw is not None:
        nperseg = _segment_length(sample_rate, rbw, n_samples)
        bin_width = _bin_width(sample_rate, nperseg)
        frequencies = sorted(tone_frequencies)
        for f, g in zip(frequencies, frequencies[1:]):
            if _tones_collide(f, g, bin_width):
                raise ParameterError(
                    "rbw_hz",
                    f"rbw {rbw} Hz gives {bin_width:.6g} Hz bins, too coarse to resolve the "
                    f"tones at {f} and {g} Hz; their readout windows overlap",
                )
    return n_samples


def check_readout(
    duration: float,
    sample_rate: float,
    rbw: float,
    tone_frequencies: tuple[float, ...] | list[float],
) -> int:
    """:func:`check_sampling`, and further that every tone can be read off the
    Welch spectrum by :func:`extract_peak_snr` and :func:`tone_power`.

    No tone may lie above the last bin, which falls short of Nyquist when
    the segment length is odd, and no tone may have its whole floor annulus
    covered by the neighbourhoods of the others.  Raises
    :class:`ParameterError` named ``rbw_hz`` for either.
    """
    n_samples = check_sampling(duration, sample_rate, rbw, tone_frequencies)
    nperseg = _segment_length(sample_rate, rbw, n_samples)
    bin_width = _bin_width(sample_rate, nperseg)
    last_bin = nperseg // 2
    reach = math.ceil(_EXCLUDE_HALFWIDTH_BINS) + 1
    for f in tone_frequencies:
        if f > last_bin * bin_width:
            raise ParameterError(
                "rbw_hz",
                f"rbw {rbw} Hz gives {nperseg}-sample segments whose last bin, at "
                f"{last_bin * bin_width:.6g} Hz, lies below the tone at {f} Hz",
            )
        # The spectrum's bins around f, as np.fft.rfftfreq computes them.
        centre = round(f / bin_width)
        bins = np.arange(max(0, centre - reach), min(last_bin, centre + reach) + 1)
        if not np.any(_floor_bins(bins * bin_width, bin_width, f, tone_frequencies)):
            raise ParameterError(
                "rbw_hz",
                f"rbw {rbw} Hz gives {bin_width:.6g} Hz bins, so the neighbourhoods of the "
                f"other tones cover the whole floor annulus of the tone at {f} Hz",
            )
    return n_samples


@dataclasses.dataclass(frozen=True)
class TimeSeries:
    """One recorded photocurrent, in quadrature (shot-noise) units."""

    sample_rate: float
    samples: np.ndarray
    port_name: str
    lo_phase: float
    seed: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("a time series needs at least two samples")
        object.__setattr__(self, "samples", samples)


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """One-sided PSD in shot-noise units with resolution-bandwidth metadata."""

    freq: np.ndarray
    psd_snu: np.ndarray
    rbw: float
    n_averages: int

    def __post_init__(self):
        freq = np.asarray(self.freq, dtype=float)
        psd = np.asarray(self.psd_snu, dtype=float)
        if freq.shape != psd.shape:
            raise ValueError("freq and psd_snu must have matching shapes")
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "psd_snu", psd)

    @property
    def bin_width(self) -> float:
        return float(self.freq[1] - self.freq[0])

    @property
    def span(self) -> float:
        """Nyquist span covered by the one-sided spectrum."""
        return float(self.freq[-1])


@dataclasses.dataclass(frozen=True)
class CombineParams:
    """Readout angle and channel-balance gain of a post-detection combination."""

    theta: float
    balance_gain_k: float

    def __post_init__(self):
        if not (math.isfinite(self.balance_gain_k) and self.balance_gain_k > 0):
            raise ValueError("balance gain k must be finite and positive")


def _synthesize(model: MeasurementModel, n_samples: int, sample_rate: float, seed: int, block: int):
    """Yield ``(start, samples)``: the joint port record in blocks of ``block`` samples.

    ``samples`` has one row per port.  Each block takes one normal draw
    coloured by the port covariance, and each tone's sinusoid is computed
    once per block and added to every port it reaches.  Successive draws
    from one generator equal one draw of the whole record, so the blocks
    join into the same samples bit for bit whatever ``block`` is.
    """
    try:
        factor = np.linalg.cholesky(model.noise_cov)
    except np.linalg.LinAlgError:
        # Degenerate (perfectly correlated) port sets: factor via eigh.
        w, vecs = np.linalg.eigh(model.noise_cov)
        factor = vecs @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    rng = np.random.default_rng(seed)
    waves = [
        (2.0 * math.pi * frequency, amps)
        for frequency, amps in model.tone_amplitudes.items()
        if any(a != 0.0 for a in amps)
    ]
    for start in range(0, n_samples, block):
        m = min(block, n_samples - start)
        samples = (rng.standard_normal((m, len(model.port_names))) @ factor.T).T
        t = np.arange(start, start + m) / sample_rate
        for omega, amps in waves:
            wave = np.sin(omega * t)
            for row, amp in zip(samples, amps):
                if amp != 0.0:
                    row += amp * wave
        yield start, samples


class _WelchSums:
    """Running Welch sums over a multi-row record fed in blocks of samples.

    Segments are cut, detrended, Hann-windowed and transformed as the
    blocks arrive; the last ``nperseg - step`` or more samples of each
    block carry over to the next.  ``power`` is the sum of ``|X|^2`` per
    row, added in segment order, so any blocking gives the same sums bit
    for bit.  With ``cross = [i, j]`` it also sums ``Re(X_i conj X_j)``,
    from which the spectrum of any combination ``a x_i + b x_j`` follows:
    detrend, window and FFT are linear.
    """

    def __init__(self, rows: int, sample_rate: float, nperseg: int, cross: list[int] | None = None):
        self.sample_rate = sample_rate
        self.nperseg = nperseg
        self.step = nperseg - nperseg // 2
        self.window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(nperseg) / nperseg)
        self.power = np.zeros((rows, nperseg // 2 + 1))
        self.cross = cross
        self.cross_power = np.zeros(nperseg // 2 + 1)
        self.n_segments = 0
        self._carry = np.empty((rows, 0))
        self._tapered = self._squares = np.empty(0)

    def feed(self, samples: np.ndarray) -> None:
        data = np.concatenate((self._carry, samples), axis=1)
        count = max(0, (data.shape[1] - self.nperseg) // self.step + 1)
        if count:
            segments = np.lib.stride_tricks.sliding_window_view(data, self.nperseg, axis=1)
            segments = segments[:, : count * self.step : self.step]
            if self._tapered.shape != segments.shape:
                # Kept from block to block: allocating these afresh for every
                # block made the pass about a quarter slower.
                self._tapered = np.empty(segments.shape)
                self._squares = np.empty((len(data), count + 1, self.power.shape[1]))
            tapered = np.subtract(segments, segments.mean(axis=2, keepdims=True), out=self._tapered)
            tapered *= self.window
            spectra = np.fft.rfft(tapered, axis=2)
            # The running sum goes first, so adding along the segment axis
            # keeps segment order.
            squares = self._squares
            squares[:, 0] = self.power
            np.square(np.abs(spectra, out=squares[:, 1:]), out=squares[:, 1:])
            self.power = np.add.reduce(squares, axis=1)
            if self.cross is not None:
                a, b = spectra[self.cross[0]], spectra[self.cross[1]]
                self.cross_power += np.sum(a.real * b.real + a.imag * b.imag, axis=0)
            self.n_segments += count
        self._carry = data[:, count * self.step :]

    def spectrum(self, power: np.ndarray) -> Spectrum:
        """Shot-noise-normalised one-sided PSD from summed ``|X|^2``."""
        psd = power / self.n_segments / np.sum(self.window**2)
        # One-sided folding doubles every bin but DC and Nyquist; the shot-noise
        # unit halves them all again.
        psd[0] /= 2.0
        if self.nperseg % 2 == 0:
            psd[-1] /= 2.0
        return Spectrum(
            freq=np.fft.rfftfreq(self.nperseg, 1.0 / self.sample_rate),
            psd_snu=psd,
            rbw=self.sample_rate / self.nperseg,
            n_averages=self.n_segments,
        )


class _LockIn:
    """Running lock-in sums of a pair of records at one frequency, for :func:`calibrate_k`."""

    def __init__(self, frequency_hz: float, sample_rate: float):
        self.frequency_hz = frequency_hz
        self.sample_rate = sample_rate
        self.z = np.zeros(2, dtype=complex)
        self.total = np.zeros(2)
        self.squares = np.zeros(2)
        self.n = 0

    def feed(self, start: int, pair: np.ndarray) -> None:
        """Add the block of both records that begins at sample ``start``."""
        t = np.arange(start, start + pair.shape[1]) / self.sample_rate
        self.z += pair @ np.exp(-2j * math.pi * self.frequency_hz * t)
        self.total += pair.sum(axis=1)
        self.squares += np.einsum("ij,ij->i", pair, pair)
        self.n += pair.shape[1]

    def balance_gain(self, names: tuple[str, str]) -> float:
        amplitudes = []
        for z, total, squares, name in zip(self.z, self.total, self.squares, names):
            amp = abs(2.0 * z / self.n)
            # Lock-in noise floor: |z| of a toneless record is ~ 2 sigma/sqrt(N).
            variance = max(squares / self.n - (total / self.n) ** 2, 0.0)
            noise_scale = 2.0 * math.sqrt(variance / self.n)
            if amp < 10.0 * noise_scale:
                raise ValueError(
                    f"calibration tone at {self.frequency_hz} Hz not found in record "
                    f"{name!r} (response {amp:.3g} vs noise scale {noise_scale:.3g})"
                )
            amplitudes.append(amp)
        return amplitudes[0] / amplitudes[1]


def simulate_currents(
    scheme: SchemeInstance,
    duration: float = DEFAULT_DURATION,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    seed: int = 0,
) -> dict[str, TimeSeries]:
    """Jointly sampled photocurrent records, one per homodyne port.

    Noise is drawn from the multivariate normal whose covariance is the
    scheme's measured port covariance, so inter-port correlations survive
    into the records.  Identical seeds reproduce bit-identical samples.
    """
    n_samples = check_sampling(duration, sample_rate, tone_frequencies=[t.frequency_hz for t in scheme.tones])
    model = measurement_model(scheme)
    records = [np.empty(n_samples) for _ in model.port_names]
    for start, samples in _synthesize(model, n_samples, sample_rate, seed, _RECORD_BLOCK):
        for record, row in zip(records, samples):
            record[start : start + row.size] = row
    return {
        name: TimeSeries(sample_rate, record, name, lo_phase, seed)
        for name, lo_phase, record in zip(model.port_names, model.lo_phases, records)
    }


@dataclasses.dataclass(frozen=True)
class CombineSettings:
    """Post-detection combination of a run: readout angles and the tone the
    signal and tap channels are balanced at."""

    thetas: tuple[float, ...]
    calibration_tone_hz: float


@dataclasses.dataclass(frozen=True)
class RunSpectra:
    """Everything one streamed run measures: the spectrum of every port.

    ``combined`` holds the spectrum of ``i1 cos(theta) + k i3 sin(theta)``
    for each theta of the run's :class:`CombineSettings`, in order, with i1
    the signal port, i3 the tap port and k their :func:`calibrate_k`
    balance gain.
    """

    spectra: dict[str, Spectrum]
    balance_gain_k: float | None = None
    combined: tuple[Spectrum, ...] = ()


def simulate_spectra(
    model: MeasurementModel,
    duration: float = DEFAULT_DURATION,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    seed: int = 0,
    rbw: float = DEFAULT_RBW,
    combine: CombineSettings | None = None,
) -> RunSpectra:
    """Every port spectrum of one run of the port model, in one pass over blocks.

    The tones are the model's.  For ``model = measurement_model(scheme)``
    the spectra equal ``welch_psd(simulate_currents(scheme, ...)[port], rbw)``
    bit for bit, but no record is held: memory does not grow with
    ``duration``.  With ``combine`` the pass also balances the signal and
    tap ports at its calibration tone and reads each combined spectrum off
    the port cross-spectrum, ``c^2 S11 + k^2 s^2 S33 + 2 c k s Re S13``
    with ``c, s = cos(theta), sin(theta)``; this equals the Welch spectrum
    of :func:`combine_currents` up to rounding.
    """
    n_samples = check_sampling(duration, sample_rate, rbw, list(model.tone_amplitudes))
    nperseg = _segment_length(sample_rate, rbw, n_samples)
    pair = None
    if combine is not None:
        if PORT_TAP not in model.port_names:
            raise ValueError("the post-detection combination needs the tap port")
        pair = [model.port_names.index(PORT_SIGNAL), model.port_names.index(PORT_TAP)]
    sums = _WelchSums(len(model.port_names), sample_rate, nperseg, cross=pair)
    lock_in = _LockIn(combine.calibration_tone_hz, sample_rate) if pair else None
    for start, samples in _synthesize(model, n_samples, sample_rate, seed, _block_length(nperseg)):
        sums.feed(samples)
        if lock_in is not None:
            lock_in.feed(start, samples[pair])
    spectra = {name: sums.spectrum(power) for name, power in zip(model.port_names, sums.power)}
    if pair is None:
        return RunSpectra(spectra)

    k = lock_in.balance_gain((PORT_SIGNAL, PORT_TAP))
    s11, s33 = sums.power[pair[0]], sums.power[pair[1]]
    combined = []
    for theta in combine.thetas:
        c, ks = math.cos(theta), k * math.sin(theta)
        combined.append(sums.spectrum(c * c * s11 + ks * ks * s33 + 2.0 * c * ks * sums.cross_power))
    return RunSpectra(spectra, k, tuple(combined))


def welch_psd(ts: TimeSeries, rbw: float = DEFAULT_RBW) -> Spectrum:
    """Averaged Hann periodogram, one sided, normalised to the shot-noise unit.

    Segments of ``sample_rate / rbw`` samples overlap by half and each has
    its mean removed before the window.  The bin spacing equals ``rbw``
    (the effective noise bandwidth of the Hann window is 1.5 bins).
    Unit-variance white noise averages to a flat floor of 1.
    """
    nperseg = _segment_length(ts.sample_rate, rbw, ts.samples.size)
    sums = _WelchSums(1, ts.sample_rate, nperseg)
    block = _block_length(nperseg)
    for start in range(0, ts.samples.size, block):
        sums.feed(ts.samples[None, start : start + block])
    return sums.spectrum(sums.power[0])


def shot_noise_calibration(
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
    rbw: float = DEFAULT_RBW,
) -> float:
    """Empirical PSD normalisation measured on a vacuum homodyne record.

    Multiplying spectra taken at the same settings by the returned factor
    pins their shot-noise floor to 1.  With the analytic normalisation of
    the Welch spectra the factor is already 1 up to statistical error, so
    applying it twice is idempotent to within that error.
    """
    vacuum = MeasurementModel(("vacuum",), (0.0,), (1.0,), np.eye(1), {})
    spec = simulate_spectra(vacuum, duration, sample_rate, seed, rbw).spectra["vacuum"]
    interior = spec.psd_snu[2:-2]
    return float(1.0 / np.mean(interior))


def _annulus_floor(spec: Spectrum, f0: float, exclude: tuple[float, ...]) -> float:
    annulus = _floor_bins(spec.freq, spec.bin_width, f0, exclude)
    if not np.any(annulus):
        raise ValueError(
            "no clean bins left around the peak to estimate the floor; "
            "use a finer rbw or fewer exclusions"
        )
    return float(np.median(spec.psd_snu[annulus]))


def _check_peak_request(spec: Spectrum, f0: float, exclude: tuple[float, ...]) -> None:
    if not spec.freq[0] <= f0 <= spec.freq[-1]:
        raise ValueError(f"peak frequency {f0} Hz lies outside the spectrum span")
    for f in exclude:
        if f != f0 and _tones_collide(f0, f, spec.bin_width):
            raise ValueError(
                f"peak at {f0} Hz is ambiguous: the excluded tone at {f} Hz "
                "overlaps its readout window"
            )


def extract_peak_snr(spec: Spectrum, f0: float, exclude: tuple[float, ...] = ()) -> float:
    """Trace-style SNR: peak PSD near ``f0`` over the median local floor.

    The floor is the median over a +-5 bin annulus with the peak window
    and any ``exclude`` tones masked.  On pure noise the estimate sits a
    few percent above 1 because the numerator is a maximum over bins.
    """
    _check_peak_request(spec, f0, exclude)
    window = _bin_mask(spec.freq, spec.bin_width, f0, _PEAK_HALFWIDTH_BINS)
    peak = float(np.max(spec.psd_snu[window]))
    return peak / _annulus_floor(spec, f0, exclude)


def tone_power(spec: Spectrum, f0: float, exclude: tuple[float, ...] = ()) -> float:
    """Floor-subtracted tone power near ``f0``, in variance (SNU) units.

    Integrates the PSD excess over the peak window; a sinusoid of
    amplitude A returns A^2/2 exactly when centred on a bin and within 1%
    at the worst bin offset (Hann window).
    """
    _check_peak_request(spec, f0, exclude)
    window = _bin_mask(spec.freq, spec.bin_width, f0, _PEAK_HALFWIDTH_BINS)
    floor = _annulus_floor(spec, f0, exclude)
    excess = np.sum(spec.psd_snu[window] - floor) * spec.bin_width
    return float(excess / spec.span)


def band_floor(
    spec: Spectrum,
    f_lo: float,
    f_hi: float,
    exclude: tuple[float, ...] = (),
) -> float:
    """Median PSD over a band with tone neighbourhoods masked out."""
    mask = (spec.freq >= f_lo) & (spec.freq <= f_hi)
    for f in exclude:
        mask &= ~_bin_mask(spec.freq, spec.bin_width, f, _EXCLUDE_HALFWIDTH_BINS)
    if not np.any(mask):
        raise ValueError("no bins left in the requested band")
    return float(np.median(spec.psd_snu[mask]))


def calibrate_k(i1: TimeSeries, i3: TimeSeries, cal_tone_hz: float) -> float:
    """Channel balance k = (response of i1)/(response of i3) at a shared tone.

    The calibration tone must be present in both records with the same
    physical magnitude; k then absorbs any gain difference between the
    two channels, so that ``i1 cos(theta) + k i3 sin(theta)`` weighs both
    quadratures equally.  Scale invariant under joint rescaling.
    """
    if i1.sample_rate != i3.sample_rate or i1.samples.size != i3.samples.size:
        raise ValueError("records must share sample rate and length to be balanced")
    lock_in = _LockIn(cal_tone_hz, i1.sample_rate)
    for start in range(0, i1.samples.size, _RECORD_BLOCK):
        end = start + _RECORD_BLOCK
        lock_in.feed(start, np.stack((i1.samples[start:end], i3.samples[start:end])))
    return lock_in.balance_gain((i1.port_name, i3.port_name))


def combine_currents(i1: TimeSeries, i3: TimeSeries, params: CombineParams) -> TimeSeries:
    """Samplewise ``i1 cos(theta) + k i3 sin(theta)``.

    With i1 recorded at LO phase 0, i3 at pi/2 and k balancing the channel
    gains, the combination reads out the quadrature at angle theta: a tone
    encoded at angle theta0 appears with power proportional to
    cos^2(theta0 - theta).
    """
    if i1.sample_rate != i3.sample_rate:
        raise ValueError("records must share a sample rate")
    if i1.samples.size != i3.samples.size:
        raise ValueError("records must have equal length")
    c, s = math.cos(params.theta), math.sin(params.theta)
    samples = i1.samples * c + params.balance_gain_k * i3.samples * s
    return TimeSeries(
        sample_rate=i1.sample_rate,
        samples=samples,
        port_name="combined",
        lo_phase=params.theta,
        seed=i1.seed,
    )
