"""Photocurrent simulation, shot-noise-normalised spectra and peak readout.

The time-domain model is deliberately simple: each homodyne port delivers
its deterministic tone sinusoids (amplitudes taken from the single-shot
engine, detector efficiency included) on top of white Gaussian noise whose
joint covariance across ports equals the output-state covariance.  The
flat noise floors this produces match the measured spectra over the band
of interest; no coloured-noise model is attempted.  The tone sinusoids and
the lock-in reference are read off fixed-grid phasors
(:class:`_GridPhasor`) rather than a per-sample ``sin`` or ``exp``; they
equal ``np.sin(omega * (n / fs))`` up to the rounding of the angle.

Spectra are Welch periodograms (Hann window, 50% overlap, one sided, each
segment's mean removed from bins 0 and 1 after the FFT) normalised so
unit-variance white noise sits at 1, i.e. the shot-noise unit.  A
:class:`Spectrum` is its PSD, bin width and average count, bin ``k`` at
``k * bin_width``: the one spacing, :func:`_bin_width`, that
:func:`check_readout` reads too.  :func:`simulate_spectra` synthesises a run
of a port model and accumulates its spectra in blocks of the fewest whole
Welch steps that hold 16000 samples, the one sample budget of the pass, in
buffers allocated once per pass, so its memory does not grow with the
duration.  A one-thread executor per pass draws the noise one block ahead
while the caller's thread colours, transforms and sums the block before;
only that thread draws, in block order, so the output is bit for bit that of
one thread.  A combination feeds each block to the lock-in, unseen by
the synthesis.  The record-level functions compute the same run one whole
record at a time: :func:`simulate_currents`, :func:`welch_psd` and
:func:`calibrate_k` run the same synthesis, Welch sums (each block written
through ``slot`` and ``take``) and lock-in as the pass, and
:func:`combine_currents` forms a combined record.  The independent references
are in the tests: one normal draw of the whole record, and scipy's Welch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os

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


def _near(x, bin_width: float, centre: float, halfwidth_bins: float):
    """Whether bin frequency ``x``, a float or an array, lies within ``halfwidth_bins`` bins of ``centre``."""
    return abs(x - centre) <= halfwidth_bins * bin_width + 1e-9


def _clear_of(x: float, bin_width: float, tones) -> bool:
    """Whether the bin at frequency ``x`` lies outside the +-5-bin neighbourhoods of ``tones``."""
    for f in tones:
        if _near(x, bin_width, f, _EXCLUDE_HALFWIDTH_BINS):
            return False
    return True


def _readout_bins(n_bins: int, bin_width: float, f0: float, tones) -> tuple[list[int], list[int]]:
    """``(window, floor)``, the indices of the bins that read the tone at ``f0``
    off ``n_bins`` bins at ``k * bin_width``: its +-1.5-bin peak window, and its
    +-5-bin annulus less the window and the +-5-bin neighbourhoods of the other ``tones``.

    The one readout rule, applied by the readers and by :func:`check_readout`.
    Raises :class:`ParameterError` named ``rbw_hz`` when ``f0`` lies outside
    the bins, another tone reaches into its window, or no floor bin is left.
    """
    last = (n_bins - 1) * bin_width
    if not 0.0 <= f0 <= last:
        raise ParameterError(
            "rbw_hz",
            f"the tone at {f0} Hz lies outside the spectrum span, up to the last bin at {last:.6g} Hz",
        )
    others = [f for f in tones if f != f0]
    for f in others:
        if abs(f0 - f) <= (_PEAK_HALFWIDTH_BINS + _EXCLUDE_HALFWIDTH_BINS) * bin_width:
            raise ParameterError(
                "rbw_hz", f"the tone at {f0} Hz is ambiguous: the tone at {f} Hz overlaps its readout window"
            )
    window, floor = [], []
    centre = round(f0 / bin_width)
    # The +-5 bins and one spare; _near's 1e-9 Hz slack widens them only for bins under 1e-9 Hz.
    reach = math.floor(_EXCLUDE_HALFWIDTH_BINS + 1.0 + 1e-9 / bin_width)
    for k in range(max(0, centre - reach), min(n_bins - 1, centre + reach) + 1):
        x = k * bin_width
        if _near(x, bin_width, f0, _PEAK_HALFWIDTH_BINS):
            window.append(k)
        elif _near(x, bin_width, f0, _EXCLUDE_HALFWIDTH_BINS) and _clear_of(x, bin_width, others):
            floor.append(k)
    if not floor:
        raise ParameterError(
            "rbw_hz",
            f"{bin_width:.6g} Hz bins let the other tones' neighbourhoods cover "
            f"the whole floor annulus of the tone at {f0} Hz",
        )
    return window, floor


def report_band(n_bins: int, bin_width: float, tones) -> tuple[float, float]:
    """``(f_lo, f_hi)``, the band whose :func:`band_floor` a report gives for
    a spectrum of ``n_bins`` bins: the tones' span widened by 30 bins each
    side, past the DC bin; without tones, bins 2 to ``n_bins - 2``."""
    if not tones:
        return 2 * bin_width, (n_bins - 2) * bin_width
    margin = 30 * bin_width
    return max(bin_width, min(tones) - margin), min((n_bins - 1) * bin_width, max(tones) + margin)


# The one sample budget of the pass: a block is the fewest whole Welch steps
# that hold 16000 samples, 32 steps of 500 at the defaults, 96 of 167 at
# 333-sample segments, 4 of 5000 at rbw 1 kHz and one step from 32000-sample
# segments on.  Per port that keeps about 0.56 MB at the defaults (two draw
# buffers, the Welch buffer and its segment buffers); 64000-sample blocks
# timed 20% slower.  It is also the block of the work that has no segment
# length of its own (whole records, lock-in sums).
_BLOCK_SAMPLES = 16_000
# Welch segments are windowed and transformed in chunks of at least 8000
# samples: 8 segments at the default settings, 25 at 333 samples.
_CHUNK_SAMPLES = 8_000


def _bin_width(sample_rate: float, nperseg: int) -> float:
    """The spacing of the Welch bins, bit for bit as ``np.fft.rfftfreq`` puts it."""
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
    tone_frequencies: tuple[float, ...] | list[float] = (),
) -> int:
    """Number of samples in a record of ``duration``, after checking that the
    record can be synthesised: at least two and at most :data:`MAX_SAMPLES`
    samples, at a positive rate above twice every tone frequency.

    Raises :class:`ParameterError` named after the offending setting of a
    run config's ``sim`` section: ``duration_s`` or ``sample_rate_hz``.
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
    return n_samples


def check_readout(
    duration: float,
    sample_rate: float,
    rbw: float,
    tone_frequencies: tuple[float, ...] | list[float],
) -> int:
    """:func:`check_sampling`, and further every ``rbw`` rule: the record holds
    one Welch segment, and every tone and the :func:`report_band` floor can
    be read off the spectrum.

    It makes the readers' own call to :func:`_readout_bins` for each tone, on
    the bins the spectrum will have, so it builds no spectrum and rejects
    exactly the plans the readers cannot read: a tone above the last bin
    (short of Nyquist when the segment length is odd), two tones within each
    other's readout window, a floor annulus or a report band that the tones'
    neighbourhoods cover.  Raises :class:`ParameterError` named ``rbw_hz``.
    """
    n_samples = check_sampling(duration, sample_rate, tone_frequencies)
    nperseg = _segment_length(sample_rate, rbw, n_samples)
    bin_width = _bin_width(sample_rate, nperseg)
    n_bins = nperseg // 2 + 1
    for f in tone_frequencies:
        _readout_bins(n_bins, bin_width, f, tone_frequencies)
    lo, hi = report_band(n_bins, bin_width, tone_frequencies)
    # Step through the band up to its first bin clear of the tones, at most
    # a neighbourhood per tone past its first bin.
    k = max(0, math.ceil(lo / bin_width) - 1)
    while k * bin_width <= hi:
        if k * bin_width >= lo and _clear_of(k * bin_width, bin_width, tone_frequencies):
            return n_samples
        k += 1
    raise ParameterError(
        "rbw_hz",
        f"{bin_width:.6g} Hz bins leave no bin of the report's floor band, {lo:.6g} to "
        f"{hi:.6g} Hz, outside the tones' neighbourhoods",
    )


@dataclasses.dataclass(frozen=True)
class TimeSeries:
    """One recorded photocurrent, in quadrature (shot-noise) units."""

    sample_rate: float
    samples: np.ndarray
    port_name: str

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("a time series needs at least two samples")
        object.__setattr__(self, "samples", samples)


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """One-sided PSD in shot-noise units, bin ``k`` at ``k * bin_width``, averaged over ``n_averages`` segments."""

    psd_snu: np.ndarray
    bin_width: float
    n_averages: int

    @property
    def freq(self) -> np.ndarray:
        """The bin frequencies, ``np.fft.rfftfreq`` of the segment length bit for bit."""
        return np.arange(self.psd_snu.size) * self.bin_width


# Samples per row of the grid that tones and the lock-in reference are read
# from (see _GridPhasor): one row of cos and sin is 64 kB, and the Python
# work per row is small next to 4096 samples.
_GRID = 4096


class _GridPhasor:
    """``cos`` and ``sin`` of ``omega n / fs`` at sample indices ``n``, off a fixed grid.

    With ``n = q L + r`` and ``L = _GRID``, the angle is ``theta_q + phi_r``:
    ``phi_r = omega (r / fs)`` is one row of ``L`` angles whose cos and sin
    are taken once, and ``theta_q = omega (q L / fs)`` one angle per grid
    row; the angle-addition formulas join them.  A sample's value depends on
    ``n`` alone, so any blocking of a record gives the same samples bit for
    bit.  They differ from ``np.sin(omega * (n / fs))`` by the rounding of
    the angle, a few ``eps * omega n / fs``.
    """

    def __init__(self, frequency_hz: float, sample_rate: float):
        self.omega = 2.0 * math.pi * frequency_hz
        self.sample_rate = sample_rate
        phi = self.omega * (np.arange(_GRID) / sample_rate)
        self.cos_phi, self.sin_phi = np.cos(phi), np.sin(phi)
        self._scaled = np.empty(_GRID)

    def _fill(self, start: int, m: int, out, weights) -> np.ndarray:
        """``a_q cos(phi_r) + b_q sin(phi_r)`` for the ``m`` samples from
        ``n = start``, with ``(a_q, b_q) = weights(theta_q)``, written into
        ``out[:m]`` (or a new array) one grid-row segment at a time: two
        products, one into a kept row, and a sum per sample."""
        out = np.empty(m) if out is None else out[:m]
        for row in range(start - start % _GRID, start + m, _GRID):
            lo, hi = max(row, start), min(row + _GRID, start + m)
            a, b = weights(self.omega * (row / self.sample_rate))
            segment = np.multiply(self.cos_phi[lo - row : hi - row], a, out=out[lo - start : hi - start])
            segment += np.multiply(self.sin_phi[lo - row : hi - row], b, out=self._scaled[: hi - lo])
        return out

    def sin(self, start: int, m: int, out: np.ndarray | None = None) -> np.ndarray:
        """``sin(omega n / fs)`` for the ``m`` samples from ``n = start``, in ``out[:m]`` if given."""
        return self._fill(start, m, out, lambda theta: (math.sin(theta), math.cos(theta)))

    def cos(self, start: int, m: int, out: np.ndarray | None = None) -> np.ndarray:
        """``cos(omega n / fs)`` for the ``m`` samples from ``n = start``, in ``out[:m]`` if given."""
        return self._fill(start, m, out, lambda theta: (math.cos(theta), -math.sin(theta)))


def _spare_cpus() -> set[int]:
    """The CPUs this process may run on, less the one the calling thread ran
    on last; empty where the OS does not tell (Linux does)."""
    if not hasattr(os, "sched_setaffinity"):
        return set()
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            # Field 39 is the CPU; field 2, the thread's name in parentheses, may hold spaces.
            here = int(stat.read().rpartition(b")")[2].split()[36])
    except OSError:
        return set()
    return os.sched_getaffinity(0) - {here}


def _leave_cpu(cpus: set[int]) -> None:
    """Move the calling thread to ``cpus``, if any: a scheduler that does not
    balance load (a cpuset with ``sched_load_balance`` off) keeps a new
    thread on its creator's CPU, where the two threads would take turns."""
    if cpus:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


def _synthesize(model: MeasurementModel, n_samples: int, sample_rate: float, seed: int, block: int, target):
    """Yield the joint port record in blocks of ``block`` samples, each written
    into ``target(start, m)``, the ``(ports, m)`` array the caller gives for
    the ``m`` samples from ``start``.

    Each block is one normal draw coloured by the port covariance, plus every
    tone's sinusoid, the calibration tone's too, read off the tone's own
    :class:`_GridPhasor` and added to one port after another, skipping each
    port where its amplitude is exactly 0.  A one-thread executor, moved off
    the caller's CPU, draws block ``k + 1`` into the other of two buffers
    while this thread colours block ``k``.  Only that thread draws, in block
    order, so the draws equal one draw of the whole record; a tone's samples
    depend only on their index; so the blocks join into the same samples bit
    for bit whatever ``block`` is.  The executor's
    thread is joined on every exit, and an exception raised by a draw is
    raised here unchanged.  A tone's samples differ from ``np.sin`` of the
    angle by the angle's rounding: at most 1.7e-9 over 8M samples of a
    1.2 MHz tone at 10 MHz, 6.9e-9 at 4.9 MHz.
    """
    # Imported here, so that `import suisim.cli` loads no module for the pass.
    from concurrent.futures import ThreadPoolExecutor

    try:
        factor = np.linalg.cholesky(model.noise_cov)
    except np.linalg.LinAlgError:
        # Degenerate (perfectly correlated) port sets: factor via eigh.
        w, vecs = np.linalg.eigh(model.noise_cov)
        factor = vecs @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    waves = [
        (_GridPhasor(frequency, sample_rate), amps)
        for frequency, amps in model.tone_amplitudes.items()
        if any(a != 0.0 for a in amps)
    ]
    ports, block = len(model.port_names), min(block, n_samples)
    tone, scaled = np.empty(block), np.empty(block)
    buffers = np.empty((2, block, ports))
    rng = np.random.default_rng(seed)

    def draw(k: int) -> np.ndarray:
        return rng.standard_normal(out=buffers[k % 2, : min(block, n_samples - k * block)])

    with ThreadPoolExecutor(1, "suisim-draw", _leave_cpu, (_spare_cpus(),)) as pool:
        pending = pool.submit(draw, 0)
        for k, start in enumerate(range(0, n_samples, block)):
            z, m = pending.result(), min(block, n_samples - start)
            if start + m < n_samples:
                pending = pool.submit(draw, k + 1)
            # (ports, m), bit for bit the rows of z @ factor.T.
            out = np.matmul(factor, z.T, out=target(start, m))
            for phasor, amps in waves:
                wave = phasor.sin(start, m, out=tone)
                for row, amp in zip(out, amps):
                    if amp != 0.0:
                        row += np.multiply(wave, amp, out=scaled[:m])
            yield out


class _WelchSums:
    """Running Welch sums over a multi-row record, each block written into :meth:`slot` and added by :meth:`take`.

    A block is at most ``block`` samples, the fewest whole Welch steps that
    hold :data:`_BLOCK_SAMPLES`; segments are cut, Hann-windowed and
    transformed as the blocks arrive, ``chunk`` at a time, at least
    :data:`_CHUNK_SAMPLES` samples of them, and the last ``nperseg - step``
    or more samples of each block carry over to the next.  Every buffer is
    allocated once, at full size, so :meth:`slot` and :meth:`take` allocate
    nothing.  Each segment's mean ``m`` comes off after
    the FFT, as ``m W`` on bins 0 and 1, since the periodic Hann window's
    transform ``W`` is zero past bin 1.  That rounds unlike a detrend first,
    by a share of the row's mean power that grows with ``|m|``: 1e-13 up to
    10 sigma, 1e-11 at 1e3 sigma.  ``power`` sums
    ``re^2 + im^2`` of ``X`` per row in segment order, so any blocking gives
    the same sums bit for bit.  With ``cross = [i, j]`` it also sums
    ``Re(X_i conj X_j)``, a block's segments in order before the block
    joins the total, from which the spectrum of any combination
    ``a x_i + b x_j`` follows: detrend, window and FFT are linear.
    """

    def __init__(self, rows: int, sample_rate: float, nperseg: int, cross: list[int] | None = None):
        self.sample_rate = sample_rate
        self.nperseg = nperseg
        self.step = nperseg - nperseg // 2
        self.block = self.step * math.ceil(_BLOCK_SAMPLES / self.step)
        self.chunk = math.ceil(_CHUNK_SAMPLES / nperseg)
        self.window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(nperseg) / nperseg)
        self._window_dft = np.fft.rfft(self.window)[:2]
        bins = nperseg // 2 + 1
        self.power = np.zeros((rows, bins))
        self.cross = cross
        self.cross_power = np.zeros(bins)
        self.n_segments = 0
        # The carry, under nperseg samples, then the latest block; and the buffers of a chunk of segments.
        self._data, self._carry = np.empty((rows, nperseg - 1 + self.block)), 0
        self._tapered = np.empty((rows, self.chunk, nperseg))
        self._spectra = np.empty((rows, self.chunk, bins), dtype=complex)
        # Row 0 of each holds the sum so far, so adding along axis 1 keeps segment order.
        self._squares = np.empty((rows, self.chunk + 1, bins))
        if cross is not None:
            self._cross = np.empty((2, self.chunk + 1, bins))

    def slot(self, m: int) -> np.ndarray:
        """The ``(rows, m)`` view, after the carry, that the next ``m`` samples
        are written into before :meth:`take` adds them; ``m`` is at most ``block``."""
        if m > self.block:
            raise ValueError(f"a block of {m} samples is longer than the {self.block} the Welch buffer holds")
        return self._data[:, self._carry : self._carry + m]

    def take(self, m: int) -> None:
        """Add the ``m`` samples written into :meth:`slot`; the carry then moves over them."""
        data, rows, end = self._data, len(self._data), self._carry + m
        count = max(0, (end - self.nperseg) // self.step + 1)
        strides = (data.strides[0], self.step * data.itemsize, data.itemsize)
        for first in range(0, count, self.chunk):
            n = min(self.chunk, count - first)
            segments = np.ndarray((rows, n, self.nperseg), buffer=data, offset=first * strides[1], strides=strides)
            tapered = np.multiply(segments, self.window, out=self._tapered[:, :n])
            spectra = np.fft.rfft(tapered, axis=2, out=self._spectra[:, :n])
            spectra[:, :, :2] -= np.add.reduce(segments, axis=2)[:, :, None] / self.nperseg * self._window_dft
            if self.cross is not None:
                # Re(X_i conj X_j), summed over the block in segment order.
                a, b = spectra[self.cross[0]], spectra[self.cross[1]]
                terms = np.multiply(a.real, b.real, out=self._cross[0, 1 : n + 1])
                terms += np.multiply(a.imag, b.imag, out=self._cross[1, :n])
                self._cross[0, 0] = np.add.reduce(self._cross[0, : n + 1] if first else terms, axis=0)
            # |X|^2 as re^2 + im^2, after the running sum.
            squares = self._squares[:, : n + 1]
            squares[:, 0] = self.power
            parts = np.square(spectra.view(float), out=spectra.view(float))
            np.add(parts[:, :, 0::2], parts[:, :, 1::2], out=squares[:, 1:])
            np.add.reduce(squares, axis=1, out=self.power)
        if count and self.cross is not None:
            self.cross_power += self._cross[0, 0]
        self.n_segments += count
        self._carry = end - count * self.step
        data[:, : self._carry] = data[:, count * self.step : end]

    def spectrum(self, power: np.ndarray) -> Spectrum:
        """Shot-noise-normalised one-sided PSD from summed ``|X|^2``."""
        psd = power / self.n_segments / np.sum(self.window**2)
        # One-sided folding doubles every bin but DC and Nyquist; the shot-noise
        # unit halves them all again.
        psd[0] /= 2.0
        if self.nperseg % 2 == 0:
            psd[-1] /= 2.0
        return Spectrum(psd, _bin_width(self.sample_rate, self.nperseg), self.n_segments)


def _check_visible(frequency_hz: float, port: str, response: float, variance: float, n_samples: int) -> None:
    """The lock-in's visibility rule: a :class:`ParameterError` named
    ``combine.calibration_tone_hz`` (a ``sim`` key) unless the tone's
    ``response`` at ``port`` is at least ten noise scales.  One noise scale,
    ``2 sqrt(variance / n_samples)``, is the lock-in amplitude of a toneless
    record of that variance and length."""
    noise_scale = 2.0 * math.sqrt(variance / n_samples)
    if response < 10.0 * noise_scale:
        raise ParameterError(
            "combine.calibration_tone_hz",
            f"calibration tone at {frequency_hz} Hz not found in record {port!r}: its response at the "
            f"{port} port, {response:.3g}, is under ten times the noise scale {noise_scale:.3g}",
        )


class _LockIn:
    """Running lock-in sums of a pair of records at one frequency.

    The reference ``exp(-i omega n / fs)`` is read off a :class:`_GridPhasor`,
    its ``cos`` and ``sin`` rows formed per block into kept buffers.
    """

    def __init__(self, frequency_hz: float, sample_rate: float):
        self.reference = _GridPhasor(frequency_hz, sample_rate)
        self.z = np.zeros(2, dtype=complex)
        self.n = 0
        self._cos = self._sin = np.empty(0)

    def feed(self, start: int, pair: np.ndarray) -> None:
        """Add the block of both records that begins at sample ``start``."""
        m = pair.shape[1]
        if self._cos.size < m:
            self._cos, self._sin = np.empty(m), np.empty(m)
        cos, sin = self.reference.cos(start, m, out=self._cos), self.reference.sin(start, m, out=self._sin)
        self.z += pair @ cos - 1j * (pair @ sin)
        self.n += m

    def amplitudes(self) -> list[float]:
        """The tone amplitude of each record, ``|2 z / n|``."""
        return [abs(2.0 * z / self.n) for z in self.z]


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
    records = np.empty((len(model.port_names), n_samples))
    with contextlib.closing(
        _synthesize(model, n_samples, sample_rate, seed, _BLOCK_SAMPLES, lambda start, m: records[:, start : start + m])
    ) as blocks:
        for _ in blocks:
            pass
    return {name: TimeSeries(sample_rate, record, name) for name, record in zip(model.port_names, records)}


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
    of :func:`combine_currents` up to rounding.  Before any sample is drawn,
    the lock-in's visibility rule is applied to the moments the run is drawn
    from: the model amplitude of the calibration tone at each port, against
    the port variance plus the ``A^2/2`` of every tone there.
    """
    n_samples = check_sampling(duration, sample_rate, list(model.tone_amplitudes))
    nperseg = _segment_length(sample_rate, rbw, n_samples)
    pair = lock_in = None
    if combine is not None:
        if PORT_TAP not in model.port_names:
            raise ValueError("the post-detection combination needs the tap port")
        pair = [model.port_names.index(PORT_SIGNAL), model.port_names.index(PORT_TAP)]
        f = combine.calibration_tone_hz
        for port in (PORT_SIGNAL, PORT_TAP):
            variance = model.variance(port) + sum(model.amplitude(port, t) ** 2 / 2.0 for t in model.tone_amplitudes)
            _check_visible(f, port, abs(model.amplitude(port, f)), variance, n_samples)
        lock_in = _LockIn(f, sample_rate)
        # Pair rows: a view if the signal port comes first, else a copy (a reversed view rounds unlike calibrate_k).
        rows = slice(pair[0], pair[1] + 1, pair[1] - pair[0]) if pair[0] < pair[1] else pair
    sums = _WelchSums(len(model.port_names), sample_rate, nperseg, cross=pair)
    # Each block is synthesised into the Welch buffer, after the carry.
    with contextlib.closing(
        _synthesize(model, n_samples, sample_rate, seed, sums.block, lambda _, m: sums.slot(m))
    ) as blocks:
        for start, samples in zip(range(0, n_samples, sums.block), blocks):
            if lock_in is not None:
                # Before take moves the carry over the block.
                lock_in.feed(start, samples[rows])
            sums.take(samples.shape[1])
    spectra = {name: sums.spectrum(power) for name, power in zip(model.port_names, sums.power)}
    if pair is None:
        return RunSpectra(spectra)

    a1, a3 = lock_in.amplitudes()
    k = a1 / a3
    s11, s33 = sums.power[pair[0]], sums.power[pair[1]]
    combined = []
    for theta in combine.thetas:
        c, ks = math.cos(theta), k * math.sin(theta)
        combined.append(sums.spectrum(c * c * s11 + ks * ks * s33 + 2.0 * c * ks * sums.cross_power))
    return RunSpectra(spectra, k, tuple(combined))


def welch_psd(ts: TimeSeries, rbw: float = DEFAULT_RBW) -> Spectrum:
    """Averaged Hann periodogram, one sided, normalised to the shot-noise unit.

    Segments of ``round(sample_rate / rbw)`` samples overlap by half and each
    has its mean removed before the window; the bins lie ``sample_rate / nperseg``
    apart (the Hann window's effective noise bandwidth is 1.5 bins).
    Unit-variance white noise averages to a flat floor of 1.
    """
    nperseg = _segment_length(ts.sample_rate, rbw, ts.samples.size)
    sums = _WelchSums(1, ts.sample_rate, nperseg)
    for start in range(0, ts.samples.size, sums.block):
        samples = ts.samples[start : start + sums.block]
        sums.slot(samples.size)[0] = samples
        sums.take(samples.size)
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


def _median(x: np.ndarray) -> float:
    """``float(np.median(x))`` bit for bit for a non-empty 1-D ``x``, by its own
    arithmetic, without the NaN check that imports ``numpy.ma`` (1.2 MB, 15 ms)."""
    n, k = x.size, x.size // 2
    part = np.partition(x, [k - 1, k, n - 1] if n % 2 == 0 else [k, n - 1])
    return float(part[-1] if math.isnan(part[-1]) else np.mean(part[k - 1 + n % 2 : k + 1]))


def extract_peak_snr(spec: Spectrum, f0: float, exclude: tuple[float, ...] = ()) -> float:
    """Trace-style SNR: peak PSD near ``f0`` over the median local floor.

    The floor is the median over a +-5 bin annulus with the peak window
    and any ``exclude`` tones masked.  On pure noise the estimate sits a
    few percent above 1 because the numerator is a maximum over bins.
    """
    window, floor = _readout_bins(spec.psd_snu.size, spec.bin_width, f0, exclude)
    peak = float(np.max(spec.psd_snu[window]))
    return peak / _median(spec.psd_snu[floor])


def tone_power(spec: Spectrum, f0: float, exclude: tuple[float, ...] = ()) -> float:
    """Floor-subtracted tone power near ``f0``, in variance (SNU) units.

    Integrates the PSD excess over the peak window; a sinusoid of
    amplitude A returns A^2/2 exactly when centred on a bin and within 1%
    at the worst bin offset (Hann window).
    """
    window, floor = _readout_bins(spec.psd_snu.size, spec.bin_width, f0, exclude)
    excess = np.sum(spec.psd_snu[window] - _median(spec.psd_snu[floor])) * spec.bin_width
    return float(excess / ((spec.psd_snu.size - 1) * spec.bin_width))


def band_floor(
    spec: Spectrum,
    f_lo: float,
    f_hi: float,
    exclude: tuple[float, ...] = (),
) -> float:
    """Median PSD over a band with tone neighbourhoods masked out."""
    mask = (spec.freq >= f_lo) & (spec.freq <= f_hi)
    for f in exclude:
        mask &= ~_near(spec.freq, spec.bin_width, f, _EXCLUDE_HALFWIDTH_BINS)
    if not np.any(mask):
        raise ValueError("no bins left in the requested band")
    return _median(spec.psd_snu[mask])


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
    for start in range(0, i1.samples.size, _BLOCK_SAMPLES):
        end = start + _BLOCK_SAMPLES
        lock_in.feed(start, np.stack((i1.samples[start:end], i3.samples[start:end])))
    amplitudes = lock_in.amplitudes()
    for record, amplitude in zip((i1, i3), amplitudes):
        _check_visible(cal_tone_hz, record.port_name, amplitude, float(np.var(record.samples)), record.samples.size)
    return amplitudes[0] / amplitudes[1]


def combine_currents(i1: TimeSeries, i3: TimeSeries, theta: float, balance_gain_k: float) -> TimeSeries:
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
    if not (math.isfinite(balance_gain_k) and balance_gain_k > 0):
        raise ValueError("balance gain k must be finite and positive")
    c, s = math.cos(theta), math.sin(theta)
    samples = i1.samples * c + balance_gain_k * i3.samples * s
    return TimeSeries(sample_rate=i1.sample_rate, samples=samples, port_name="combined")
