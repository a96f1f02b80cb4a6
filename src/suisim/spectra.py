"""Photocurrent simulation, shot-noise-normalised spectra and peak readout.

The time-domain model is deliberately simple: each homodyne port delivers
its deterministic tone sinusoids (amplitudes taken from the single-shot
engine, detector efficiency included) on top of white Gaussian noise whose
joint covariance across ports equals the output-state covariance.  The
flat noise floors this produces match the measured spectra over the band
of interest; no coloured-noise model is attempted.

Spectra are Welch periodograms (Hann window, 50% overlap, one sided)
normalised so unit-variance white noise sits at 1, i.e. the shot-noise
unit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .schemes import SchemeInstance, measurement_model

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


def simulate_currents(
    scheme: SchemeInstance,
    duration: float = DEFAULT_DURATION,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    seed: int = 0,
) -> dict[str, TimeSeries]:
    """Jointly sampled photocurrent records, one per homodyne port.

    Noise is drawn once for all ports from the multivariate normal whose
    covariance is the scheme's measured port covariance, so inter-port
    correlations survive into the records.  Identical seeds reproduce
    bit-identical samples.
    """
    n_samples = int(round(duration * sample_rate))
    if n_samples < 2:
        raise ValueError("duration times sample rate must give at least two samples")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"requested {n_samples} samples, limit is {MAX_SAMPLES}")
    tones = scheme.tones
    if tones:
        highest = max(t.frequency_hz for t in tones)
        if sample_rate <= 2.0 * highest:
            raise ValueError(
                f"sample rate {sample_rate} Hz aliases the {highest} Hz tone; "
                "use more than twice the highest tone frequency"
            )

    model = measurement_model(scheme)
    cov = model.noise_cov
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # Degenerate (perfectly correlated) port sets: factor via eigh.
        w, vecs = np.linalg.eigh(cov)
        factor = vecs @ np.diag(np.sqrt(np.clip(w, 0.0, None)))

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n_samples, len(model.port_names))) @ factor.T

    t = np.arange(n_samples) / sample_rate
    out: dict[str, TimeSeries] = {}
    for idx, name in enumerate(model.port_names):
        waveform = noise[:, idx].copy()
        for tone in tones:
            amp = model.tone_amplitudes[tone.frequency_hz][idx]
            if amp != 0.0:
                waveform += amp * np.sin(2.0 * math.pi * tone.frequency_hz * t)
        out[name] = TimeSeries(
            sample_rate=sample_rate,
            samples=waveform,
            port_name=name,
            lo_phase=model.lo_phases[idx],
            seed=seed,
        )
    return out


def welch_psd(ts: TimeSeries, rbw: float = DEFAULT_RBW) -> Spectrum:
    """Averaged Hann periodogram, one sided, normalised to the shot-noise unit.

    The bin spacing equals ``rbw`` (the effective noise bandwidth of the
    Hann window is 1.5 bins).  Unit-variance white noise averages to a
    flat floor of 1.
    """
    n = ts.samples.size
    nperseg = int(round(ts.sample_rate / rbw))
    if nperseg < 2:
        raise ValueError(f"rbw {rbw} Hz is too coarse for sample rate {ts.sample_rate} Hz")
    if nperseg > n:
        raise ValueError(
            f"rbw {rbw} Hz needs {nperseg} samples per segment but the record has {n}; "
            "record at least sample_rate/rbw samples"
        )
    step = nperseg - nperseg // 2
    segments = np.lib.stride_tricks.sliding_window_view(ts.samples, nperseg)[::step]
    tapered = segments - segments.mean(axis=1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(nperseg) / nperseg)
    tapered *= window
    psd = np.mean(np.abs(np.fft.rfft(tapered, axis=1)) ** 2, axis=0) / np.sum(window**2)
    # One-sided folding doubles every bin but DC and Nyquist; the shot-noise
    # unit halves them all again.
    psd[0] /= 2.0
    if nperseg % 2 == 0:
        psd[-1] /= 2.0
    return Spectrum(
        freq=np.fft.rfftfreq(nperseg, 1.0 / ts.sample_rate),
        psd_snu=psd,
        rbw=ts.sample_rate / nperseg,
        n_averages=len(segments),
    )


def shot_noise_calibration(
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
    rbw: float = DEFAULT_RBW,
) -> float:
    """Empirical PSD normalisation measured on a vacuum homodyne record.

    Multiplying spectra taken at the same settings by the returned factor
    pins their shot-noise floor to 1.  With the analytic normalisation of
    :func:`welch_psd` the factor is already 1 up to statistical error, so
    applying it twice is idempotent to within that error.
    """
    n_samples = int(round(duration * sample_rate))
    if n_samples < 2:
        raise ValueError("duration times sample rate must give at least two samples")
    rng = np.random.default_rng(seed)
    record = TimeSeries(sample_rate, rng.standard_normal(n_samples), "vacuum", 0.0, seed)
    spec = welch_psd(record, rbw)
    interior = spec.psd_snu[2:-2]
    return float(1.0 / np.mean(interior))


def _bin_mask(spec: Spectrum, centre: float, halfwidth_bins: float) -> np.ndarray:
    return np.abs(spec.freq - centre) <= halfwidth_bins * spec.bin_width + 1e-9


def _annulus_floor(spec: Spectrum, f0: float, exclude: tuple[float, ...]) -> float:
    annulus = _bin_mask(spec, f0, _EXCLUDE_HALFWIDTH_BINS)
    annulus &= ~_bin_mask(spec, f0, _PEAK_HALFWIDTH_BINS)
    for f in exclude:
        if f != f0:
            annulus &= ~_bin_mask(spec, f, _EXCLUDE_HALFWIDTH_BINS)
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
        if f == f0:
            continue
        if abs(f - f0) <= (_PEAK_HALFWIDTH_BINS + _EXCLUDE_HALFWIDTH_BINS) * spec.bin_width:
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
    window = _bin_mask(spec, f0, _PEAK_HALFWIDTH_BINS)
    peak = float(np.max(spec.psd_snu[window]))
    return peak / _annulus_floor(spec, f0, exclude)


def tone_power(spec: Spectrum, f0: float, exclude: tuple[float, ...] = ()) -> float:
    """Floor-subtracted tone power near ``f0``, in variance (SNU) units.

    Integrates the PSD excess over the peak window; a sinusoid of
    amplitude A returns A^2/2 exactly when centred on a bin and within 1%
    at the worst bin offset (Hann window).
    """
    _check_peak_request(spec, f0, exclude)
    window = _bin_mask(spec, f0, _PEAK_HALFWIDTH_BINS)
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
        mask &= ~_bin_mask(spec, f, _EXCLUDE_HALFWIDTH_BINS)
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
    amplitudes = []
    for ts in (i1, i3):
        t = np.arange(ts.samples.size) / ts.sample_rate
        z = 2.0 * np.mean(ts.samples * np.exp(-2j * math.pi * cal_tone_hz * t))
        amp = abs(z)
        # Lock-in noise floor: |z| of a toneless record is ~ 2 sigma/sqrt(N).
        noise_scale = 2.0 * math.sqrt(np.var(ts.samples) / ts.samples.size)
        if amp < 10.0 * noise_scale:
            raise ValueError(
                f"calibration tone at {cal_tone_hz} Hz not found in record "
                f"{ts.port_name!r} (response {amp:.3g} vs noise scale {noise_scale:.3g})"
            )
        amplitudes.append(amp)
    return amplitudes[0] / amplitudes[1]


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
