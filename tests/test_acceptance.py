"""Acceptance gate: every registered invariant and acceptance check must pass.

The checks live in :mod:`suisim.verify` (shared with ``suisim verify``);
this module asserts each result of the one shared run, printing one PASS/FAIL
line per criterion.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines inline.
"""

import collections
import dataclasses
import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from suisim import gaussian, verify
from suisim.config import load_config, preset_config
from suisim.schemes import (
    Displace,
    Loss,
    PhaseShift,
    Splitter,
    TwoModeSqueeze,
    matched_baseline,
    measurement_model,
)
from suisim.spectra import report_band


@pytest.fixture(scope="module")
def results(verify_results):
    return {r.check_id: r for r in verify_results}


@pytest.mark.parametrize("check_id", verify.check_ids())
def test_criterion(results, check_id):
    result = results[check_id]
    print(f"{'PASS' if result.passed else 'FAIL'}  {check_id}  {result.detail}")
    assert result.passed, f"{check_id}: {result.detail}"


def test_every_check_records_a_finite_duration(verify_results):
    for result in verify_results:
        assert math.isfinite(result.duration_s) and result.duration_s >= 0.0, result.check_id
    first = verify_results[0]
    assert first == dataclasses.replace(first, duration_s=first.duration_s + 1.0)


def test_verify_detects_injected_squeezer_fault(monkeypatch):
    """A deliberate sign error in the squeezer matrix must trip the
    symplectic-preservation check."""
    healthy = gaussian.two_mode_squeezer_matrix

    def broken(gain, pump_phase=0.0):
        s = healthy(gain, pump_phase).copy()
        s[1, 3] = -s[1, 3] if s[1, 3] != 0.0 else gain - 1.0
        s[3, 1] = s[1, 3]
        return s

    monkeypatch.setattr(gaussian, "two_mode_squeezer_matrix", broken)
    result = verify.run_check("invariant-symplectic-transforms")
    assert not result.passed


def test_check_registry_is_complete():
    ids = verify.check_ids()
    assert len(ids) == len(set(ids))
    for n in range(1, 11):
        assert any(f"acceptance-{n:02d}" in check_id for check_id in ids), n
    with pytest.raises(ValueError, match="unknown check 'acceptance-11'"):
        verify.run_check("acceptance-11")


def test_random_pipeline_is_reproducible():
    a = verify.random_pipeline(np.random.default_rng(5))
    b = verify.random_pipeline(np.random.default_rng(5))
    assert a == b


@pytest.mark.parametrize(
    "flags",
    [
        dict(with_loss=True, max_squeezers=2, max_gain=3.0),
        dict(with_loss=False, max_squeezers=2, max_gain=3.0),
        dict(max_squeezers=2, max_gain=2.5),
        dict(with_displacement=True),
        dict(with_loss=False, with_displacement=True),
    ],
    ids=["lossy", "lossless", "low-gain", "displaced", "displaced-lossless"],
)
def test_random_pipeline_is_the_rng_choice_draw(flags):
    """The element kind is drawn by indexing with ``rng.integers(4)``; it must
    give the pipelines, and leave the generator in the state, that the
    ``rng.choice`` draw of the kind (and of up to six modes) gave."""

    def choice_draw(rng, max_modes=6, with_loss=True, with_displacement=False, max_squeezers=3, max_gain=5.0):
        n_modes = int(rng.integers(2, max_modes + 1))
        elements = []
        if with_displacement:
            for mode in range(n_modes):
                if rng.random() < 0.5:
                    elements.append(Displace(mode, float(rng.normal(0, 5)), float(rng.normal(0, 5))))
        n_squeezers = 0
        for _ in range(int(rng.integers(3, 9))):
            kind = rng.choice(["squeeze", "split", "phase", "loss" if with_loss else "phase"])
            if kind == "squeeze" and n_squeezers < max_squeezers:
                a, b = rng.choice(n_modes, size=2, replace=False)
                elements.append(
                    TwoModeSqueeze(int(a), int(b), float(rng.uniform(1.0, max_gain)), float(rng.uniform(0, 2 * np.pi)))
                )
                n_squeezers += 1
            elif kind == "split":
                a, b = rng.choice(n_modes, size=2, replace=False)
                elements.append(Splitter(int(a), int(b), float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * np.pi))))
            elif kind == "loss":
                elements.append(Loss(int(rng.integers(n_modes)), float(rng.uniform(0.2, 1.0))))
            else:
                elements.append(PhaseShift(int(rng.integers(n_modes)), float(rng.uniform(0, 2 * np.pi))))
        return n_modes, elements

    for seed in range(1000):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert verify.random_pipeline(rng, **flags) == choice_draw(reference_rng, **flags), seed
        assert rng.bit_generator.state == reference_rng.bit_generator.state, seed


READERS = ("homodyne_stats", "oracle_homodyne_variance", "oracle_homodyne_mean")


@pytest.mark.parametrize(
    "check_id, reads",
    [
        # One array read of every mode at all 8 angles per random pipeline.
        ("acceptance-08-oracle-equivalence", dict.fromkeys(READERS, 1000)),
        # One read of all 32 LO angles per locked scheme.
        ("acceptance-04-dark-fringe", {"homodyne_stats": 2}),
    ],
)
def test_checks_read_all_angles_in_one_call(monkeypatch, check_id, reads):
    calls = collections.Counter()
    for name in READERS:

        def counted(*args, _name=name, _reader=getattr(verify, name)):
            calls[_name] += 1
            return _reader(*args)

        monkeypatch.setattr(verify, name, counted)
    result = verify.run_check(check_id)
    assert result.passed, result.detail
    assert calls == reads


@functools.cache
def engine_deviation(eta_internal: float, power_reading: bool) -> float:
    """The calibration deviation read off two engine models, as the fit once read it."""
    g1, g2 = (math.sqrt(g) for g in verify._GAINS) if power_reading else verify._GAINS
    sui = verify._reference_sui(eta_internal, gain_g1=g1, gain_g2=g2)
    sui, amp = measurement_model(sui), measurement_model(matched_baseline(sui, "amp"))
    ratio_x, ratio_y, floor = verify._calibration_ratios(sui, amp)
    return max(abs(ratio_x - 1.256) / 0.05, abs(ratio_y - 1.270) / 0.05, abs(floor - 0.80) / 0.03)


def engine_deviations(eta_internal, power_reading):
    """``verify._calibration_deviation`` read off the engine, at a point or on a grid."""
    if np.ndim(eta_internal) == 0:
        return engine_deviation(float(eta_internal), power_reading)
    return np.array([engine_deviation(e, power_reading) for e in eta_internal.tolist()])


def engine_fit(power_reading):
    """The fit of ``verify.fit_eta_internal``, every point read off the engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_calibration_deviation", engine_deviations)
        return verify.fit_eta_internal(power_reading)


@pytest.mark.parametrize("power_reading", [False, True], ids=["amplitude", "power"])
def test_fit_reads_the_engine_deviation_at_every_point(monkeypatch, power_reading):
    evaluated = []

    def recorded(eta_internal, reading, _deviation=verify._calibration_deviation):
        devs = _deviation(eta_internal, reading)
        evaluated.append((eta_internal, devs))
        return devs

    monkeypatch.setattr(verify, "_calibration_deviation", recorded)
    verify.fit_eta_internal(power_reading)
    # The grid in one call, then the golden-section search one point at a time.
    assert evaluated[0][0].size == verify._ETA_GRID.size
    assert len(evaluated) > 40 and all(np.ndim(etas) == 0 for etas, _ in evaluated[1:])
    for etas, devs in evaluated:
        reference = [engine_deviation(e, power_reading) for e in np.atleast_1d(etas).tolist()]
        assert_allclose(devs, reference, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "power_reading, expected",
    [(False, (0.4101337671955975, 0.5639558789236092)), (True, (0.300000000000301, 2.7084440558683127))],
    ids=["amplitude", "power"],
)
def test_fit_on_the_engine_grid_is_the_engine_fit(monkeypatch, power_reading, expected):
    grid = np.linspace(0.3, 1.0, 351)
    monkeypatch.setattr(verify, "_ETA_GRID", grid)
    eta_star, dev = verify.fit_eta_internal(power_reading)
    engine_eta, engine_dev = engine_fit(power_reading)
    assert engine_eta == expected[0] and engine_dev == expected[1]
    assert eta_star == engine_eta
    assert dev == pytest.approx(engine_dev, rel=1e-12)


def test_calibration_builds_no_model_in_the_fit(monkeypatch):
    built = []

    def counted(*args, _model=verify.measurement_model, **kwargs):
        built.append(args)
        return _model(*args, **kwargs)

    monkeypatch.setattr(verify, "measurement_model", counted)
    verify.fit_eta_internal()
    verify.fit_eta_internal(power_reading=True)
    assert not built
    result = verify.run_check("acceptance-05-experimental-calibration")
    assert result.passed, result.detail
    assert len(built) <= 2


@pytest.mark.parametrize("power_reading", [False, True], ids=["amplitude", "power"])
def test_fit_finds_the_minimum_over_all_of_zero_to_one(power_reading):
    eta_star, dev = verify.fit_eta_internal(power_reading)
    scan = np.linspace(0.0, 1.0, 10**5 + 1)[1:]
    devs = verify._calibration_deviation(scan, power_reading)
    k = int(np.argmin(devs))
    assert abs(eta_star - scan[k]) <= 1e-4
    # The fit brackets the kink of the deviation, so it reads no higher than
    # any point of the scan.  The scan's best point may lie half its 1e-5
    # step off the kink, and read higher by the steepest slope there times that.
    slope = float(np.max(np.abs(np.diff(devs[k - 10 : k + 11])))) / 1e-5
    assert dev <= devs[k] <= dev + slope * 0.5e-5
    assert dev == verify._calibration_deviation(eta_star, power_reading)
    assert dev <= min(verify._calibration_deviation(eta_star + h, power_reading) for h in (-1e-9, 1e-9))


def test_reference_point_is_the_shipped_fig2_scheme():
    assert verify._reference_sui() == load_config(preset_config("fig2")).scheme


def test_three_tones_are_the_shipped_fig4_tones():
    assert verify._THREE_TONES == load_config(preset_config("fig4")).scheme.tones


@pytest.mark.parametrize(
    "check_id, preset",
    [("acceptance-09-monte-carlo-fidelity", "fig2"), ("acceptance-10-post-detection-combination", "fig4")],
)
def test_floors_are_read_over_the_band_a_report_gives(monkeypatch, check_id, preset):
    tones = tuple(t.frequency_hz for t in load_config(preset_config(preset)).scheme.tones)
    bands = []

    def recorded(spec, f_lo, f_hi, exclude=(), _floor=verify.band_floor):
        bands.append(((f_lo, f_hi), report_band(spec.freq.size, spec.bin_width, tones), exclude))
        return _floor(spec, f_lo, f_hi, exclude)

    monkeypatch.setattr(verify, "band_floor", recorded)
    result = verify.run_check(check_id)
    assert result.passed, result.detail
    assert bands
    # The band the checks read before they took it from the tones.
    assert all(band == reported == (0.5e6, 1.5e6) and exclude == tones for band, reported, exclude in bands)


def test_monte_carlo_check_names_a_floor_off_its_variance(monkeypatch):
    # Every floor read 5% high: each port's floor is off, the ratio of floors is not.
    def high(*args, _floor=verify.band_floor, **kwargs):
        return 1.05 * _floor(*args, **kwargs)

    monkeypatch.setattr(verify, "band_floor", high)
    result = verify.run_check("acceptance-09-monte-carlo-fidelity")
    assert not result.passed
    issues = result.detail.split("; issues: ")[1].split("; ")
    assert [issue.split(" floor ")[0] for issue in issues] == ["sui/signal", "sui/idler", "amp/signal", "amp/idler"]


def test_calibration_fails_when_the_shipped_transmission_is_off_its_targets(results, monkeypatch):
    check_id = "acceptance-05-experimental-calibration"
    assert verify._calibration_deviation(verify._FIG2.losses.eta_internal) == pytest.approx(0.574, abs=1e-3)
    assert verify._calibration_deviation(0.38) == pytest.approx(2.705, abs=1e-3)
    losses = dataclasses.replace(verify._FIG2.losses, eta_internal=0.38)
    monkeypatch.setattr(verify, "_FIG2", dataclasses.replace(verify._FIG2, losses=losses))
    result = verify.run_check(check_id)
    # The fit itself does not move, so the detail reads as at the shipped value.
    assert not result.passed
    assert result.detail == results[check_id].detail
