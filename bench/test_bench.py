"""Tests of the benchmark itself: checks reject perturbed outputs, span
arithmetic is right, inputs depend only on the seed.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from suisim import cli, config  # noqa: E402


def _snr_output(label_or_raw):
    raw = config.preset_config(label_or_raw) if isinstance(label_or_raw, str) else label_or_raw
    cfg = config.load_config(raw)
    return cfg, cli.cmd_snr(cfg)


def _random_docs(seed=3):
    return dict(workloads.analytic_documents(seed))


# -- analytic checks ----------------------------------------------------------


@pytest.mark.parametrize("label", ["fig2", "sui-lock-bs-tap-3t", "amp-table-tap-3t", "bs-table-notap-2t"])
def test_snr_report_passes_and_rejects_scaled_snr(label):
    raw = config.preset_config("fig2") if label == "fig2" else _random_docs()[label]
    cfg, report = _snr_output(raw)
    assert workloads.check_snr_report(label, cfg, report) == []

    port = cfg.scheme.ports[0].port_name
    tone = f"{cfg.scheme.tones[0].frequency_hz:.10g}"
    bad = copy.deepcopy(report)
    bad["snr"][port][tone] *= 1.01
    assert workloads.check_snr_report(label, cfg, bad)


def test_snr_report_rejects_scaled_baseline_and_variance():
    cfg, report = _snr_output("fig2")
    bad = copy.deepcopy(report)
    bad["baseline"]["snr"]["idler"]["1200000"] *= 1.01
    assert workloads.check_snr_report("fig2", cfg, bad)
    bad = copy.deepcopy(report)
    bad["baseline"]["ports"]["signal"]["noise_variance_snu"] *= 1.01
    assert workloads.check_snr_report("fig2", cfg, bad)


def test_bs_closed_form_is_the_shot_noise_law():
    snr, var = checks.closed_form_port(
        "bs", "idler", i_ps=1e4, depth=0.01, tone_angle=0.3, lo_phase=1.0, efficiency=0.7, tap=False
    )
    assert var == 1.0
    assert snr == pytest.approx(2 * 0.7 * 1e4 * 0.01**2 * math.cos(0.3 - 1.0) ** 2, rel=1e-14)


def test_fringe_check_rejects_offset_lock_and_a_maximum():
    def valley(phi):
        return 10.0 - math.cos(phi - math.pi)

    assert checks.check_fringe(math.pi + 1e-5, False, valley) == []
    assert checks.check_fringe(math.pi + 2e-3, False, valley)
    assert checks.check_fringe(math.pi, False, lambda phi: -valley(phi))
    assert checks.check_fringe(math.pi, True, valley) == []
    assert checks.check_fringe(3.0, True, valley)


def test_fig2_targets_reject_ratios_outside_their_bands():
    assert checks.check_fig2_targets(1.256, 1.270, 0.80) == []
    assert checks.check_fig2_targets(1.256 + 0.051, 1.270, 0.80)
    assert checks.check_fig2_targets(1.256, 1.270 - 0.051, 0.80)
    assert checks.check_fig2_targets(1.256, 1.270, 0.80 + 0.031)


# -- spectral checks ----------------------------------------------------------


def test_floor_checks_reject_values_outside_tolerance():
    assert checks.check_floor(1.015, 1.0, "x") == []
    assert checks.check_floor(1.025, 1.0, "x")
    assert checks.check_floor_ratio(0.82, "x") == []
    assert checks.check_floor_ratio(0.835, "x")


def test_projection_check_rejects_a_wrong_pattern():
    thetas = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    powers = {t: 3.0 * math.cos(math.pi / 4 - t) ** 2 for t in thetas}
    assert checks.check_projection(powers, math.pi / 4, "x") == []
    powers[0.0] *= 1.2
    assert checks.check_projection(powers, math.pi / 4, "x")


def test_combined_variance_matches_the_quadratic_form():
    cov = [[2.0, 0.3, 0.5], [0.3, 1.5, 0.1], [0.5, 0.1, 1.2]]
    k, theta = 0.9, 0.7
    w = [math.cos(theta), 0.0, k * math.sin(theta)]
    direct = sum(w[i] * cov[i][j] * w[j] for i in range(3) for j in range(3))
    assert checks.combined_variance(cov, k, theta, 0, 2) == pytest.approx(direct, rel=1e-14)


@pytest.fixture(scope="module")
def fig5_output(tmp_path_factory):
    raw = config.preset_config("fig5")
    raw["output"] = {"directory": str(tmp_path_factory.mktemp("fig5"))}
    cfg = config.load_config(raw)
    return cfg, cli.cmd_simulate(cfg)


def test_simulate_report_passes_and_rejects_perturbed_floor(fig5_output):
    cfg, report = fig5_output
    assert workloads.check_simulate_report("fig5", cfg, report) == []
    bad = copy.deepcopy(report)
    bad["runs"]["sui"]["ports"]["idler"]["floor_snu"] *= 1.03
    assert workloads.check_simulate_report("fig5", cfg, bad)


def test_simulate_report_rejects_perturbed_combination(fig5_output):
    cfg, report = fig5_output
    bad = copy.deepcopy(report)
    section = next(iter(bad["combined"]["thetas"].values()))
    section["tones"]["800000"]["tone_power_snu"] *= 1.2
    assert workloads.check_simulate_report("fig5", cfg, bad)


def test_csv_digest_sees_a_changed_byte(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n")
    before = workloads.csv_digest(str(tmp_path))
    (tmp_path / "a.csv").write_text("1,3\n")
    assert workloads.csv_digest(str(tmp_path)) != before


# -- inputs ---------------------------------------------------------------------


def test_inputs_repeat_for_a_seed_and_vary_between_seeds():
    assert workloads.analytic_documents(7) == workloads.analytic_documents(7)
    assert workloads.analytic_documents(7) != workloads.analytic_documents(8)
    assert workloads.spectral_documents(7, "w") == workloads.spectral_documents(7, "w")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_fault_inputs_do_not_depend_on_the_seed(name):
    def faults(seed):
        ops = workloads.build_ops(name, seed, "w")
        return sorted(op.label for op in ops if op.expect_error), len(ops)

    assert faults(1) == faults(2) == faults(99)


@pytest.mark.parametrize("tap", [False, True])
def test_random_gain_corner_stays_clear_of_the_high_gain_fault(tap):
    from suisim import schemes

    scheme = schemes.build_scheme(
        "sui",
        probe_photon_number=1e4,
        tones=(schemes.ModulationTone(0.8e6, 0.01, 0.0),),
        gain_g1=workloads.GAIN_G1[1],
        gain_g2=workloads.GAIN_G2[1],
        tap_enabled=tap,
    )
    schemes.find_dark_fringe(scheme)


def test_fault_documents_do_not_depend_on_the_seed():
    label = workloads.HIGH_GAIN_FAULT[0]
    assert dict(workloads.analytic_documents(1))[label] == dict(workloads.analytic_documents(2))[label]
    label = workloads.RBW_FAULT[0]
    assert dict(workloads.spectral_documents(1, "w"))[label] == dict(workloads.spectral_documents(2, "w"))[label]


# -- spans ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping), [4, 4.5]
    # (inside them) and [8, 12] (overrunning the root); [2, 5] has a child [3, 4].
    start = [0.0, 1.0, 2.0, 4.0, 8.0, 3.0]
    end = [10.0, 3.0, 5.0, 4.5, 12.0, 4.0]
    parent = [-1, 0, 0, 0, 0, 2]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == pytest.approx([4.0, 2.0, 2.0, 0.5, 4.0, 1.0])


def test_tracer_counts_one_lock_and_restores_the_program():
    from suisim import schemes

    original = schemes.find_dark_fringe
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.find_dark_fringe is not original
        tracer.enabled = True
        with tracer.operation("fig2"):
            _snr_output("fig2")
        tracer.enabled = False
        metrics = spans.layer_metrics(tracer, 1, ["x"])
    finally:
        tracer.uninstall()
    assert cli.find_dark_fringe is original and schemes.find_dark_fringe is original
    assert metrics["schemes.find_dark_fringe.calls"] == (1, "count")
    assert metrics["config.load_config.calls"] == (1, "count")
    assert metrics["gaussian.states"][0] > metrics["schemes.output_state.calls"][0] > 256
    assert metrics["schemes.find_dark_fringe.evals_per_lock"][0] > 256
    assert set(tracer.op) == {0}
    root = tracer.names.index("op")
    assert tracer.parent[root] == -1 and all(p >= 0 for p in tracer.parent[root + 1 :])


def test_importtime_parser_sums_outermost_scipy_modules():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |     scipy._lib",
            "import time:        20 |         30 |   scipy",
            "import time:         5 |          5 |     numpy.fft",
            "import time:        40 |         45 |   scipy.signal",
            "import time:         7 |         82 | suisim.spectra",
        ]
    )
    assert run.parse_importtime(text) == pytest.approx(75e-6)


# -- contract -------------------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    from suisim import verify

    layer = set(spans.layer_metrics(spans.Tracer(), 1, verify.check_ids()))
    layer |= {"setup.import_s", "setup.scipy_import_s", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_work_median_weights_operations_by_their_time():
    # Half of 4.073 s of work is 2.0365 s, between the middles of "mid"
    # (0.573 s) and "big" (2.573 s).
    latency = {"tiny": 0.001, "small": 0.07, "mid": 1.0, "big": 3.0, "fault": 0.002}
    assert run.work_median(latency, set()) == pytest.approx(1.0 + 2.0 * 1.4635 / 2.0)
    assert run.work_median({"a": 1.0, "b": 1.0, "c": 3.0}, set()) == pytest.approx(2.0)
    assert run.work_median({"a": 1.0, "c": 3.0}, {"c"}) == math.inf
    assert run.work_median({"a": 2.0, "b": 1.0, "c": 0.5}, {"c"}) == pytest.approx(1.0 + 1.25 / 1.5)
    assert run.work_median({"only": 0.3}, set()) == 0.3


def test_work_median_moves_smoothly_when_a_share_crosses_one_half():
    # The long run's share of the work crosses one half between these two.
    base = {"fig2": 1.4, "fig4": 2.3, "fig5": 2.4, "long": 6.0}
    below = run.work_median(dict(base, long=5.9), set())
    above = run.work_median(dict(base, long=6.2), set())
    assert abs(above - below) < 0.1 * below


def test_end_to_end_takes_each_operations_median_over_rounds():
    import probe

    def rnd(a, b, rss):
        ops = [["a", a, True], ["b", b, True], ["fault", 0.5, False]]
        return {"ops": ops, "probes": [probe.NOMINAL_S] * 4, "maxrss_mb": rss}

    setup = [{"import_s": t, "load_s": 0.1} for t in (1.0, 3.0, 1.2)]
    rounds = [rnd(1.0, 3.0, 100.0), rnd(2.0, 5.0, 101.0), rnd(1.2, 4.0, 100.5)]
    metrics = run.end_to_end(rounds, setup, 0.5)
    assert metrics["ops_per_s"] == (pytest.approx(2 / 5.7), "ops/s")
    # Half of 5.7 s lies between the middles of a (0.6 s) and b (3.2 s).
    assert metrics["op_p50_ms"] == (pytest.approx(1200.0 + 2800.0 * 2.25 / 2.6), "ms")
    assert metrics["peak_rss_mb"] == (101.0, "MB")
    assert metrics["setup_s"] == (pytest.approx(1.3), "s")


def test_probe_factors_follow_the_median_of_nearby_probes():
    import probe

    nominal = probe.NOMINAL_S
    # One slow probe among steady ones moves no factor; a host that
    # settles at half speed halves the factors of the operations there.
    assert probe.factors([nominal, nominal, 9 * nominal, nominal, nominal], 1.0) == [1.0] * 4
    slow = probe.factors([nominal] * 4 + [2 * nominal] * 8, 1.0)
    assert slow[0] == 1.0 and slow[-1] == 0.5 and len(slow) == 11
    # A workload that moves half as much as the probe, on log scales.
    assert probe.factors([nominal] * 4 + [4 * nominal] * 8, 0.5)[-1] == pytest.approx(0.5)


def test_compare_verdicts():
    base = {s: 100.0 + s for s in range(10)}
    assert compare.verdict(base, {s: 80.0 + s for s in range(10)}, "lower", 0.1) == "improved"
    assert compare.verdict(base, {s: 130.0 + s for s in range(10)}, "lower", 0.1) == "regressed"
    assert compare.verdict(base, dict(base), "lower", 0.1) == "unchanged"
    noisy = {s: 100.0 * (1 + 0.3 * (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), "higher", 0.1) == "unresolved"


def test_compare_counts_only_correct_changes_that_fail_no_more():
    def runs(failed, correct=True):
        return {s: {"attempted": 22, "failed": failed, "correct": correct} for s in range(10)}

    assert compare.counted(runs(1), runs(1))
    assert compare.counted(runs(1), runs(0))
    assert not compare.counted(runs(1), runs(2))
    assert not compare.counted(runs(1), runs(1, correct=False))
