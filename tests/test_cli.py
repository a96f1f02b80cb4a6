import copy
import json
import math
import os

import pytest

from suisim import verify
from suisim.cli import main
from suisim.config import ConfigError, load_config, preset_config
from suisim.verify import CheckResult

BS_CONFIG = {
    "scheme": {"kind": "bs", "probe_photon_number": 1e4},
    "tones": [
        {"frequency_hz": 0.8e6, "depth": 0.01, "angle_rad": 0.0},
        {"frequency_hz": 1.2e6, "depth": 0.01, "angle_rad": math.pi / 2},
    ],
}


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigLoading:
    def test_unknown_key_is_rejected_with_its_path(self):
        raw = copy.deepcopy(BS_CONFIG)
        raw["losses"] = {"eta_typo": 0.5}
        with pytest.raises(ConfigError, match="losses.eta_typo"):
            load_config(raw)

    def test_unknown_top_level_key(self):
        raw = copy.deepcopy(BS_CONFIG)
        raw["extra_section"] = {}
        with pytest.raises(ConfigError, match="extra_section"):
            load_config(raw)

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="scheme.kind"):
            load_config({"scheme": {"probe_photon_number": 1.0}})

    def test_invalid_physics_becomes_config_error(self):
        raw = copy.deepcopy(BS_CONFIG)
        raw["losses"] = {"eta_signal_det": 1.4}
        with pytest.raises(ConfigError, match="eta_signal_det"):
            load_config(raw)

    def test_power_gain_convention_takes_square_root(self):
        raw = {
            "scheme": {
                "kind": "amp",
                "probe_photon_number": 1.0,
                "gain_g2": 4.0,
                "gain_convention": "power",
            }
        }
        cfg = load_config(raw)
        assert cfg.scheme.opa2_or_amp.gain == pytest.approx(2.0)

    def test_auto_dark_fringe_flag(self):
        cfg = load_config(preset_config("fig2"))
        assert cfg.auto_dark_fringe
        assert cfg.compare_with == "amp"

    def test_channel_override_by_name(self):
        raw = copy.deepcopy(BS_CONFIG)
        raw["ports"] = {"channels": [{"name": "idler", "lo_phase_rad": 0.25, "efficiency": 0.9}]}
        cfg = load_config(raw)
        idler = cfg.scheme.port("idler")
        assert idler.lo_phase == pytest.approx(0.25)
        assert idler.efficiency == pytest.approx(0.9)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("fig9")


class TestSnrCommand:
    def test_fig2_preset_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, "snr", "--preset", "fig2")
        assert code == 0
        report = json.loads(out)
        assert report["scheme_kind"] == "sui"
        assert report["dark_fringe"]["phi_star"] == pytest.approx(math.pi, abs=1e-3)
        assert 0 < report["dark_fringe"]["visibility"] < 1
        assert report["snr_sui_x"] > 0
        assert report["snr_sui_y"] > 0
        assert report["ratio_vs_amp"]["x"] == pytest.approx(1.26, abs=0.05)
        assert report["ratio_vs_amp"]["y"] == pytest.approx(1.27, abs=0.05)
        assert report["resolved_config"]["scheme"]["kind"] == "sui"

    def test_bs_value_matches_formula(self, tmp_path, capsys):
        path = write_config(tmp_path, BS_CONFIG)
        code, out, _ = run_cli(capsys, "snr", "--config", path)
        assert code == 0
        report = json.loads(out)
        assert report["snr_bs_x"] == pytest.approx(2.0, rel=1e-9)
        assert report["closed_form"]["snr_x"] == pytest.approx(2.0)

    def test_zero_depth_gives_zero_snrs(self, tmp_path, capsys):
        raw = copy.deepcopy(BS_CONFIG)
        for tone in raw["tones"]:
            tone["depth"] = 0.0
        path = write_config(tmp_path, raw)
        code, out, _ = run_cli(capsys, "snr", "--config", path)
        assert code == 0
        report = json.loads(out)
        for port_section in report["snr"].values():
            for value in port_section.values():
                assert value == 0.0

    def test_config_error_exit_code_and_message(self, tmp_path, capsys):
        raw = copy.deepcopy(BS_CONFIG)
        raw["scheme"]["unknown_knob"] = 1
        path = write_config(tmp_path, raw)
        code, _, err = run_cli(capsys, "snr", "--config", path)
        assert code == 1
        assert "scheme.unknown_knob" in err

    def test_requires_config_or_preset(self, capsys):
        code, _, err = run_cli(capsys, "snr")
        assert code == 1
        assert "--config" in err

    def test_seed_override_lands_in_report(self, capsys):
        code, out, _ = run_cli(capsys, "snr", "--preset", "fig2", "--seed", "777")
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 777
        assert report["resolved_config"]["sim"]["seed"] == 777

    def test_report_written_to_out_dir(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        code, _, _ = run_cli(capsys, "snr", "--preset", "fig2", "--out", out_dir)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "snr_report.json"))


def small_sim_config():
    raw = copy.deepcopy(BS_CONFIG)
    raw["sim"] = {"sample_rate_hz": 10e6, "duration_s": 0.01, "rbw_hz": 20e3, "seed": 9}
    return raw


class TestSimulateCommand:
    def test_outputs_are_deterministic(self, tmp_path, capsys):
        raw = small_sim_config()
        path = write_config(tmp_path, raw)
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        code_a, _, _ = run_cli(capsys, "simulate", "--config", path, "--out", dir_a)
        code_b, _, _ = run_cli(capsys, "simulate", "--config", path, "--out", dir_b)
        assert code_a == code_b == 0
        name = "spectrum_bs_signal.csv"
        bytes_a = open(os.path.join(dir_a, name), "rb").read()
        bytes_b = open(os.path.join(dir_b, name), "rb").read()
        assert bytes_a == bytes_b

    def test_csv_header_format(self, tmp_path, capsys):
        path = write_config(tmp_path, small_sim_config())
        out_dir = str(tmp_path / "out")
        run_cli(capsys, "simulate", "--config", path, "--out", out_dir)
        lines = open(os.path.join(out_dir, "spectrum_bs_signal.csv"), encoding="utf-8").read().splitlines()
        assert lines[0].startswith("# rbw_hz=")
        assert "n_avg=" in lines[0] and "seed=9" in lines[0]
        assert lines[1] == "freq_hz,psd_snu"
        freq, psd = lines[2].split(",")
        float(freq), float(psd)

    def test_fig5_combination_outputs(self, tmp_path, capsys):
        raw = preset_config("fig5")
        raw["sim"]["duration_s"] = 0.05
        path = write_config(tmp_path, raw)
        out_dir = str(tmp_path / "out")
        code, out, _ = run_cli(capsys, "simulate", "--config", path, "--out", out_dir)
        assert code == 0
        report = json.loads(out)
        k = report["combined"]["balance_gain_k"]
        assert k == pytest.approx(math.sqrt(0.72 / 0.80), abs=0.05)
        assert len(report["combined"]["thetas"]) == 4
        assert any("combined_theta" in f for f in report["files"])
        for f in report["files"]:
            assert os.path.exists(f)

    def test_coarse_rbw_leaves_clean_floor_bins(self, tmp_path, capsys):
        # The floor annulus and tone band scale with the bin width; a fixed
        # +-50 kHz annulus left no clean bins at 30 kHz resolution.
        raw = preset_config("fig2")
        raw["sim"].update(rbw_hz=30e3, duration_s=0.05)
        path = write_config(tmp_path, raw)
        code, out, err = run_cli(capsys, "simulate", "--config", path, "--out", str(tmp_path / "o"))
        assert code == 0, err
        ports = json.loads(out)["runs"]["sui"]["ports"]
        assert ports["signal"]["tones"]["800000"]["peak_snr"] > 10
        assert ports["idler"]["tones"]["1200000"]["peak_snr"] > 10

    def test_ports_report_floor_against_analytic_variance(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "simulate", "--preset", "fig2", "--out", str(tmp_path / "o"))
        assert code == 0, err
        runs = json.loads(out)["runs"]
        assert set(runs) == {"sui", "amp"}
        for run in runs.values():
            for section in run["ports"].values():
                assert section["analytic_variance_snu"] > 0
                ratio = section["floor_snu"] / section["analytic_variance_snu"]
                assert section["floor_over_analytic"] == ratio
                assert section["floor_over_analytic"] == pytest.approx(1.0, abs=0.03)

    def test_peak_report_matches_trace_ratio(self, tmp_path, capsys):
        raw = preset_config("fig2")
        raw["sim"]["duration_s"] = 0.05
        path = write_config(tmp_path, raw)
        code, out, _ = run_cli(capsys, "simulate", "--config", path, "--out", str(tmp_path / "o"))
        assert code == 0
        report = json.loads(out)
        sui_floor = report["runs"]["sui"]["ports"]["signal"]["floor_snu"]
        amp_floor = report["runs"]["amp"]["ports"]["signal"]["floor_snu"]
        assert sui_floor / amp_floor == pytest.approx(0.78, abs=0.05)


class TestSweepCommand:
    def test_bs_detection_sweep_is_linear(self, tmp_path, capsys):
        path = write_config(tmp_path, copy.deepcopy(BS_CONFIG))
        out_dir = str(tmp_path / "out")
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", path, "--out", out_dir,
            "--param", "losses.eta_signal_det", "--grid", "0.1:1.0:10",
        )
        assert code == 0
        report = json.loads(out)
        lines = open(report["file"], encoding="utf-8").read().splitlines()
        header = lines[0].split(",")
        column = header.index("snr_signal_800000hz")
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            eta, snr = float(row[0]), float(row[column])
            assert snr == pytest.approx(2.0 * eta, rel=1e-9)

    def test_sui_gain_sweep_converges_to_closed_form(self, tmp_path, capsys):
        raw = preset_config("fig2")
        raw["losses"] = {}
        raw["scheme"]["compare_with"] = None
        path = write_config(tmp_path, raw)
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", path, "--out", str(tmp_path / "out"),
            "--param", "scheme.gain_g2", "--grid", "50",
        )
        assert code == 0
        report = json.loads(out)
        lines = open(report["file"], encoding="utf-8").read().splitlines()
        header = lines[0].split(",")
        value = float(lines[1].split(",")[header.index("snr_signal_800000hz")])
        assert value == pytest.approx(2.0 * (2.0 + math.sqrt(3.0)) ** 2, rel=0.01)

    def test_empty_grid_gives_header_only(self, tmp_path, capsys):
        path = write_config(tmp_path, copy.deepcopy(BS_CONFIG))
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", path, "--out", str(tmp_path / "out"),
            "--param", "losses.eta_signal_det", "--grid", "0:1:0",
        )
        assert code == 0
        report = json.loads(out)
        assert report["points"] == 0
        lines = open(report["file"], encoding="utf-8").read().splitlines()
        assert len(lines) == 1

    def test_unknown_parameter_lists_valid_paths(self, tmp_path, capsys):
        path = write_config(tmp_path, copy.deepcopy(BS_CONFIG))
        code, _, err = run_cli(
            capsys,
            "sweep", "--config", path, "--param", "scheme.bogus", "--grid", "1:2:2",
        )
        assert code == 1
        assert "losses.eta_signal_det" in err


class TestConfigRejections:
    """Bad values fail at load time with exit code 1 and their config path."""

    @pytest.mark.parametrize(
        "section, key, value, path",
        [
            ("ports", "tap_enabled", "false", "ports.tap_enabled"),
            ("sim", "seed", -1, "sim.seed"),
            ("sim", "sample_rate_hz", float("nan"), "sim.sample_rate_hz"),
            ("sim", "duration_s", float("inf"), "sim.duration_s"),
            ("scheme", "interferometer_phase", float("nan"), "scheme.interferometer_phase"),
            ("scheme", "probe_photon_number", 10**400, "scheme.probe_photon_number"),
        ],
    )
    def test_bad_value_names_its_path(self, tmp_path, capsys, section, key, value, path):
        raw = preset_config("fig2")
        raw[section][key] = value
        config = write_config(tmp_path, raw)
        code, _, err = run_cli(capsys, "simulate", "--config", config, "--out", str(tmp_path / "out"))
        assert code == 1
        assert path in err

    @pytest.mark.parametrize(
        "key, value", [("lo_phase_rad", float("nan")), ("efficiency", float("nan")), ("efficiency", 1.4)]
    )
    def test_bad_channel_value_names_its_channel(self, tmp_path, capsys, key, value):
        raw = preset_config("fig3")
        raw["ports"]["channels"][1][key] = value
        code, _, err = run_cli(capsys, "snr", "--config", write_config(tmp_path, raw))
        assert code == 1
        assert f"'ports.channels[1].{key}'" in err

    def test_repeated_channel_is_rejected(self, tmp_path, capsys):
        raw = preset_config("fig3")
        raw["ports"]["channels"].append({"name": "signal", "lo_phase_rad": 1.0})
        code, _, err = run_cli(capsys, "snr", "--config", write_config(tmp_path, raw))
        assert code == 1
        assert "'ports.channels[2].name'" in err

    def test_negative_seed_override_rejected(self, capsys):
        code, _, err = run_cli(capsys, "snr", "--preset", "fig2", "--seed", "-1")
        assert code == 1
        assert "sim.seed" in err

    def test_combine_without_tap_fails_before_simulating(self, tmp_path, capsys):
        raw = preset_config("fig5")
        raw["ports"]["tap_enabled"] = False
        raw["ports"]["channels"] = raw["ports"]["channels"][:2]
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 1
        assert "sim.combine" in err
        assert not list(out_dir.glob("*.csv"))


    @pytest.mark.parametrize(
        "sim, path",
        [
            ({"duration_s": 20.0}, "sim.duration_s"),
            ({"duration_s": 1e-7}, "sim.duration_s"),
            ({"rbw_hz": 1e7}, "sim.rbw_hz"),
            ({"duration_s": 1e-3, "rbw_hz": 100.0}, "sim.rbw_hz"),
            ({"rbw_hz": 0.0}, "sim.rbw_hz"),
            ({"sample_rate_hz": 1e6}, "sim.sample_rate_hz"),
            ({"sample_rate_hz": -1e7}, "sim.sample_rate_hz"),
        ],
        ids=[
            "too-long", "too-short", "rbw-too-coarse", "rbw-finer-than-record", "rbw-zero",
            "tone-aliased", "negative-sample-rate",
        ],
    )
    def test_bad_sampling_fails_at_load_time(self, tmp_path, capsys, sim, path):
        raw = preset_config("fig2")
        raw["sim"].update(sim)
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, raw)
        code, _, err = run_cli(capsys, "simulate", "--config", config, "--out", str(out_dir))
        assert code == 1, err
        assert f"'{path}'" in err
        assert not out_dir.exists()

    def test_calibration_tone_must_be_a_configured_tone(self, tmp_path, capsys):
        raw = preset_config("fig5")
        raw["sim"]["combine"]["calibration_tone_hz"] = 3.3e6
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, raw)
        code, _, err = run_cli(capsys, "simulate", "--config", config, "--out", str(out_dir))
        assert code == 1, err
        assert "'sim.combine.calibration_tone_hz'" in err
        assert not out_dir.exists()

    def test_unresolvable_tones_fail_at_load_time(self, tmp_path, capsys):
        # 40 kHz bins put fig4's 0.2 MHz tone spacing at 5 bins, inside the
        # 6.5-bin readout window; this once failed after writing a CSV.
        raw = preset_config("fig4")
        raw["sim"]["rbw_hz"] = 40e3
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 1, err
        assert "'sim.rbw_hz'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["snr", "simulate"])
    def test_masked_floor_annulus_fails_at_load_time(self, tmp_path, capsys, command):
        # 330-sample segments put fig4's tones 6.6 bins apart: each pair is
        # resolved, but the outer tones' neighbourhoods cover the whole floor
        # annulus of the middle one; this once failed after writing a CSV.
        raw = preset_config("fig4")
        raw["sim"]["rbw_hz"] = 30303.0
        with pytest.raises(ConfigError, match="'sim.rbw_hz'.*1000000.0 Hz"):
            load_config(raw)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, command, "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 1, err
        assert "'sim.rbw_hz'" in err and "floor annulus" in err
        assert not out_dir.exists()

    def test_smallest_accepted_tone_spacing_reads_out(self, tmp_path, capsys):
        raw = preset_config("fig4")
        sample_rate = raw["sim"].get("sample_rate_hz", 10e6)

        def accepted(nperseg):
            raw["sim"]["rbw_hz"] = sample_rate / nperseg
            try:
                load_config(raw)
            except ConfigError:
                return False
            return True

        nperseg = next(n for n in range(300, 400) if accepted(n))
        assert not accepted(nperseg - 1)
        # Between 6.5 bins (overlapping readout windows) and 7.5 bins.
        assert 6.5 < 0.2e6 * nperseg / sample_rate < 7.5
        raw["sim"].update(rbw_hz=sample_rate / nperseg, duration_s=0.02)
        path = write_config(tmp_path, raw)
        code, out, err = run_cli(capsys, "simulate", "--config", path, "--out", str(tmp_path / "o"))
        assert code == 0, err
        for port in json.loads(out)["runs"]["sui"]["ports"].values():
            assert len(port["tones"]) == 3
            for tone in port["tones"].values():
                assert math.isfinite(tone["peak_snr"]) and tone["peak_snr"] > 0

    def test_tone_above_the_last_welch_bin_fails_at_load_time(self, tmp_path, capsys):
        # 241-sample segments end at 120 bins, 1.1955 MHz, short of Nyquist
        # and of the 1.2 MHz tone; this once failed after writing a CSV.
        raw = preset_config("fig2")
        raw["sim"].update(sample_rate_hz=2.401e6, rbw_hz=2.401e6 / 241)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 1, err
        assert "'sim.rbw_hz'" in err and "last bin" in err
        assert not out_dir.exists()
        # One more sample per segment puts the last bin on Nyquist, above the tone.
        raw["sim"].update(rbw_hz=2.401e6 / 242)
        load_config(raw)

    @pytest.mark.parametrize("tone, port", [(0.8e6, "tap"), (1.2e6, "signal")])
    def test_invisible_calibration_tone_fails_before_simulating(self, tmp_path, capsys, tone, port):
        # fig5's tap reads the pi/2 quadrature and its signal port the 0 one,
        # so each of these tones has model amplitude exactly 0 at one of them.
        raw = preset_config("fig5")
        raw["sim"]["combine"]["calibration_tone_hz"] = tone
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 1, err
        assert "'sim.combine.calibration_tone_hz'" in err
        assert f"{port} port" in err
        assert not out_dir.exists()

    def test_only_the_documented_lock_spelling_is_accepted(self, tmp_path, capsys):
        raw = preset_config("fig2")
        raw["scheme"]["interferometer_phase"] = "auto"
        code, _, err = run_cli(capsys, "snr", "--config", write_config(tmp_path, raw))
        assert code == 1, err
        assert "'scheme.interferometer_phase'" in err

    @pytest.mark.parametrize(
        "section, index, key, value, path",
        [
            ("losses", None, "eta_signal_det", 1.4, "losses.eta_signal_det"),
            ("losses", None, "eta_internal", -0.1, "losses.eta_internal"),
            ("tones", 0, "depth", -0.01, "tones[0].depth"),
            ("tones", 1, "frequency_hz", 0.0, "tones[1].frequency_hz"),
            ("tones", 1, "frequency_hz", 0.8e6, "tones[1].frequency_hz"),
        ],
        ids=["loss-above-one", "loss-negative", "negative-depth", "zero-frequency", "repeated-frequency"],
    )
    def test_bad_scheme_value_names_its_path(self, tmp_path, capsys, section, index, key, value, path):
        raw = preset_config("fig2")
        target = raw[section] if index is None else raw[section][index]
        target[key] = value
        code, _, err = run_cli(capsys, "snr", "--config", write_config(tmp_path, raw))
        assert code == 1, err
        assert f"'{path}'" in err


class TestVerifyCommand:
    def test_exit_zero_when_all_pass(self, capsys, monkeypatch):
        fake = [CheckResult("fake-check", True, "ok")]
        monkeypatch.setattr(verify, "run_all", lambda progress=None: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "1/1 checks passed" in out

    def test_exit_three_on_failure(self, capsys, monkeypatch, tmp_path):
        fake = [CheckResult("fake-check", False, "broken")]
        monkeypatch.setattr(verify, "run_all", lambda progress=None: fake)
        code, out, _ = run_cli(capsys, "verify", "--out", str(tmp_path))
        assert code == 3
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is False
