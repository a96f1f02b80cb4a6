import contextlib
import copy
import dataclasses
import functools
import json
import math
import os
import struct
import sys

import numpy as np
import pytest

from suisim import cli, config, spectra, verify
from suisim.bogoliubov import closed_form_snr
from suisim.cli import cmd_snr, main
from suisim.config import ConfigError, RunConfig, SimSettings, load_config, preset_config, set_parameter
from suisim.schemes import (
    LossBudget,
    EnhancementReport,
    ParameterError,
    SchemeInstance,
    ToneEnhancement,
    enhancement_report,
    find_dark_fringe,
    matched_baseline,
    measurement_model,
    tone_at_angle,
)
from suisim.spectra import MAX_SAMPLES
from suisim.verify import CheckResult
from test_schemes import lock_case

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


def _changed_preset(name, section, changes):
    """A preset with ``changes`` applied to one section, or to the whole
    config when ``section`` is None; None deletes a key."""
    raw = preset_config(name)
    target = raw if section is None else raw[section]
    for key, value in changes.items():
        if value is None:
            del target[key]
        else:
            target[key] = value
    return raw


_HUGE_DEPTH = [{"frequency_hz": 800000.0, "depth": 1e300, "angle_rad": 0.0}]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def names_output_option(err, where):
    """Whether the error names the output directory where it was set: ``--out``
    on the command line, else the config key."""
    named, other = ("--out", "'output.directory'") if where == "--out" else ("'output.directory'", "--out")
    return named in err and other not in err


def mutate_every_container(value):
    """Add a key to every dict and an item to every list nested in ``value``."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
            item["mutated"] = True
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
            if isinstance(item, list):
                item.append("mutated")


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

    @pytest.mark.parametrize("name", ["fig2", "fig5"])
    @pytest.mark.parametrize("source", ["preset", "dict", "file"])
    def test_loaded_config_shares_no_container_with_its_source(self, tmp_path, source, name):
        bundled = copy.deepcopy(config._PRESETS[name])
        raw = copy.deepcopy(BS_CONFIG) if source == "dict" else preset_config(name)
        assert preset_config(name) == bundled
        cfg = load_config(write_config(tmp_path, raw) if source == "file" else raw)
        assert cfg.raw == copy.deepcopy(raw)
        loaded = copy.deepcopy(cfg.raw)
        mutate_every_container(raw)
        assert cfg.raw == loaded and config._PRESETS[name] == bundled

    def test_swept_configs_share_no_container(self):
        chain = [preset_config("fig5")]
        chain[0]["sim"]["combine"]["thetas"] = (0.0, 0.5)
        for path, value in (("scheme.gain_g2", 3.5), ("losses.eta_internal", 0.6), ("scheme.gain_g1", 2.5)):
            expected = copy.deepcopy(chain[-1])
            expected[path.split(".")[0]][path.split(".")[1]] = value
            chain.append(set_parameter(chain[-1], path, value))
            assert chain[-1] == expected
        snapshots = [copy.deepcopy(raw) for raw in chain]
        for i, raw in enumerate(chain):
            mutate_every_container(raw)
            assert chain[i + 1 :] == snapshots[i + 1 :]

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_resolved_config_reloads_to_itself(self, name):
        resolved = load_config(preset_config(name)).resolved
        for reloaded in (resolved, json.loads(json.dumps(resolved))):
            assert load_config(reloaded).resolved == resolved

    @pytest.mark.parametrize("source", ["fig2", "fig5", "fig5-seed"])
    def test_resolved_sections_are_the_asdict_form(self, source):
        argv = ["snr", "--preset", source[:4]] + (["--seed", "9"] if source.endswith("seed") else [])
        cfg = cli._load_run_config(cli.build_parser().parse_args(argv))
        resolved = cfg.resolved
        for key, value in (("losses", cfg.scheme.losses), ("sim", cfg.sim)):
            assert json.dumps(resolved[key]) == json.dumps(dataclasses.asdict(value))
        assert (resolved["sim"]["combine"] is None) == (source == "fig2")

    def test_values_under_names_the_parameter_at_its_path(self):
        cause = ParameterError("depth", "modulation depth must be nonnegative")
        for path, key in (("tones[1]", "tones[1].depth"), ("", "depth")):
            with pytest.raises(ConfigError) as info:
                with config._values_under(path):
                    raise cause
            assert str(info.value) == f"config key '{key}': modulation depth must be nonnegative"
            assert info.value.__cause__ is cause

    @pytest.mark.parametrize("error", [ValueError("plain"), TypeError("type"), KeyError("key")], ids=repr)
    def test_values_under_passes_other_errors_through(self, error):
        with pytest.raises(type(error)) as info:
            with config._values_under("sim"):
                raise error
        assert info.value is error
        with config._values_under("sim"):
            pass

    def test_shared_defaults_cannot_be_poisoned(self):
        with pytest.raises(TypeError):
            config._defaults(LossBudget)["eta_bogus"] = 0.5
        raw = copy.deepcopy(BS_CONFIG)
        raw["losses"] = {"eta_bogus": 0.5}
        with pytest.raises(ConfigError, match="unknown config key 'losses.eta_bogus'"):
            load_config(raw)
        assert set(config._defaults(LossBudget)) == {f.name for f in dataclasses.fields(LossBudget)}

    def test_self_containing_config_is_a_config_error(self):
        raw = preset_config("fig2")
        raw["tones"].append(raw)
        with pytest.raises(ConfigError, match="nests too deeply"):
            load_config(raw)

    def test_deeply_nested_config_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"output": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        code, out, err = run_cli(capsys, "snr", "--config", str(path))
        assert code == 1, err
        assert out == ""
        assert err == "config error: the config nests too deeply\n"


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

    def test_failed_write_is_a_runtime_error(self, tmp_path, capsys):
        (tmp_path / "snr_report.json").mkdir()
        code, out, err = run_cli(capsys, "snr", "--preset", "fig2", "--out", str(tmp_path))
        assert code == 2
        assert "cannot write output file" in err and out == ""

    def test_out_override_lands_in_report(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        code, out, _ = run_cli(capsys, "snr", "--preset", "fig5", "--out", out_dir)
        assert code == 0
        assert json.loads(out)["resolved_config"]["output"]["directory"] == out_dir


def first_best_port(model, frequency):
    """The first port, in port order, with the largest SNR of the tone at ``frequency``, and that SNR."""
    return max(((p, model.snr(p, frequency)) for p in model.port_names), key=lambda ps: ps[1])


def best_port_enhancement(sui, sui_model, baseline_model):
    """The enhancement report as it was once built, one best-port reading per tone and model."""
    rows = []
    for tone in sui.tones:
        sui_port, sui_snr = first_best_port(sui_model, tone.frequency_hz)
        base_port, base_snr = first_best_port(baseline_model, tone.frequency_hz)
        ratio = sui_snr / base_snr if base_snr > 0 else math.inf if sui_snr > 0 else 1.0
        rows.append(ToneEnhancement(tone.frequency_hz, tone.angle, sui_port, sui_snr, base_port, base_snr, ratio))
    gain, conj = sui.opa1.gain, sui.opa1.conjugate_gain
    return EnhancementReport(tuple(rows), (gain + conj) ** 2, gain**2 + conj**2)


def asdict_snr_report(cfg):
    """``cmd_snr``'s report built as it once was, with ``dataclasses.asdict`` and
    per-port maxima; the bytes ``cmd_snr`` must keep."""
    scheme = cfg.scheme
    fringe_info, model = cli._resolve_scheme(cfg)

    def section(model):
        ports = {
            name: {"lo_phase_rad": lo, "efficiency": eff, "noise_variance_snu": model.variance(name)}
            for name, lo, eff in zip(model.port_names, model.lo_phases, model.efficiencies)
        }
        snr = {
            name: {f"{f:.10g}": model.snr(name, f) for f in model.tone_amplitudes}
            for name in model.port_names
        }
        return {"ports": ports, "snr": snr}

    report = {
        "scheme_kind": scheme.kind,
        "seed": cfg.sim.seed,
        "dark_fringe": fringe_info,
        "closed_form": dataclasses.asdict(closed_form_snr(scheme)),
        **section(model),
    }
    axes = {"x": tone_at_angle(scheme, 0.0), "y": tone_at_angle(scheme, math.pi / 2)}
    axes = {axis: tone.frequency_hz for axis, tone in axes.items() if tone is not None}
    for axis, frequency in axes.items():
        report[f"snr_{scheme.kind}_{axis}"] = first_best_port(model, frequency)[1]
    if cfg.compare_with is not None:
        baseline = matched_baseline(scheme, cfg.compare_with)
        baseline_model = measurement_model(baseline)
        comparison = best_port_enhancement(scheme, model, baseline_model)
        report["baseline"] = {
            **section(baseline_model),
            "scheme_kind": baseline.kind,
            "closed_form": dataclasses.asdict(closed_form_snr(baseline)),
        }
        report["enhancement"] = dataclasses.asdict(comparison)
        ratios = {row.frequency_hz: row.ratio for row in comparison.per_tone}
        report[f"ratio_vs_{cfg.compare_with}"] = {axis: ratios[f] for axis, f in axes.items()}
    report["resolved_config"] = cfg.resolved
    return report


def report_configs():
    for name in ("fig2", "fig3", "fig4", "fig5"):
        yield pytest.param(load_config(preset_config(name)), id=name)
    for k in range(6):
        for compare_with in ("amp", "bs", None):
            cfg = RunConfig(lock_case(k), True, compare_with, SimSettings(), None, {})
            yield pytest.param(cfg, id=f"lock{k}-{compare_with}")


@pytest.mark.parametrize("cfg", report_configs())
def test_snr_report_bytes_are_the_asdict_report(cfg):
    assert json.dumps(cmd_snr(cfg), indent=2) == json.dumps(asdict_snr_report(cfg), indent=2)


def strict_json(text):
    """``text`` parsed as JSON, rejecting the non-JSON constants ``NaN`` and ``Infinity``."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_unbounded_ratio_is_written_as_null(tmp_path, capsys):
    # Both ports' LOs at 3pi/4 read nothing of the pi/4 tone in the bs
    # baseline, while the sui idler, phase conjugated, does: the ratio is
    # unbounded.  The report once printed "ratio": Infinity, which is not JSON.
    raw = preset_config("fig2")
    raw["scheme"]["compare_with"] = "bs"
    raw["tones"] = [{"frequency_hz": 1.0e6, "depth": 0.01, "angle_rad": math.pi / 4}]
    raw["ports"]["channels"] = [{"name": name, "lo_phase_rad": 3 * math.pi / 4} for name in ("signal", "idler")]
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "snr", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
    assert code == 0, err
    for text in (out, (out_dir / "snr_report.json").read_text()):
        [row] = strict_json(text)["enhancement"]["per_tone"]
        assert row["ratio"] is None and row["baseline_snr"] == 0.0 and row["sui_snr"] > 0.0
    # The report in Python keeps the infinity.
    cfg = load_config(raw)
    fringe_info, _ = cli._resolve_scheme(cfg)
    scheme = dataclasses.replace(cfg.scheme, interferometer_phase=fringe_info["phi_star"])
    [row] = enhancement_report(scheme, matched_baseline(scheme, "bs")).per_tone
    assert row.ratio == math.inf


def test_an_angle_just_below_zero_reads_as_zero():
    # x % 2pi rounds a tiny negative x up to 2pi itself: a tone at -1e-17 rad was
    # once not found at angle 0, so snr_sui_x left the report and closed_form's snr_x read 0.
    reports = []
    for angle in (0.0, -1e-17):
        raw = preset_config("fig2")
        raw["tones"][0]["angle_rad"] = angle
        reports.append(cmd_snr(load_config(raw)))
    assert reports[1] == reports[0] and "snr_sui_x" in reports[1]


def test_grid_takes_up_to_max_grid_points():
    assert cli.MAX_GRID_POINTS == 100_000
    grid = cli._parse_grid(f"0:1:{cli.MAX_GRID_POINTS}")
    assert len(grid) == cli.MAX_GRID_POINTS and grid[0] == 0.0 and grid[-1] == 1.0


@pytest.mark.parametrize(
    "command, expected",
    [("snr", ["matched_baseline"]), ("simulate", ["matched_baseline"]), ("sweep", 3 * ["load_config"])],
)
def test_no_command_copies_a_scheme(tmp_path, monkeypatch, command, expected):
    # A locked run reads its scheme at the lock's phase without a locked copy:
    # the only schemes a command builds are its sweep points' and its baseline.
    monkeypatch.chdir(tmp_path)
    raw = preset_config("fig2")
    raw["sim"]["duration_s"] = 0.02
    cfg = load_config(raw)
    made, built, check = [], [], SchemeInstance.__post_init__

    def counted(scheme):
        check(scheme)
        built.append(scheme)

    def recorded(name):
        original = getattr(cli, name)

        def call(*args):
            result = original(*args)
            made.append((name, getattr(result, "scheme", result)))
            return result

        return call

    monkeypatch.setattr(SchemeInstance, "__post_init__", counted)
    for name in ("load_config", "matched_baseline"):
        monkeypatch.setattr(cli, name, recorded(name))
    if command == "snr":
        cmd_snr(cfg)
    elif command == "simulate":
        cli.cmd_simulate(cfg)
    else:
        cli.cmd_sweep(cfg, "scheme.gain_g2", [5.0, 9.0, 12.0])
    assert [name for name, _ in made] == expected
    assert len(built) == len(made) and all(a is b for a, (_, b) in zip(built, made))


def test_non_finite_report_value_is_an_error_not_a_document(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_snr", lambda cfg: {"value": math.nan})
    code, out, err = run_cli(capsys, "snr", "--preset", "fig2")
    assert code == 2 and out == ""
    assert "JSON" in err


# fig2 without losses on a 13 x 17 log grid of gain_g1 (10^0.2 to 10^5) and
# gain_g2 (10^0.2 to 10^8): at these (g1, g2) index pairs the measurement model
# raises "covariance matrix violates the uncertainty relation" (exit 2), all at
# gain_g1 of 398 or more.
LOSSLESS_G1_GRID = np.logspace(0.2, 5.0, 13)
LOSSLESS_G2_GRID = np.logspace(0.2, 8.0, 17)
LOSSLESS_FAILURES = [
    (6, 7), (7, 7), (7, 8), (8, 5), (8, 6), (8, 7), (8, 8), (9, 6), (9, 7), (9, 8),
    (9, 10), (10, 6), (10, 7), (10, 8), (10, 9), (11, 6), (11, 7), (11, 8), (11, 10), (11, 14),
    (12, 7), (12, 8), (12, 9), (12, 10), (12, 12), (12, 14), (12, 15), (12, 16),
]


def lossless_config(i, j):
    raw = preset_config("fig2")
    raw["losses"] = dict.fromkeys(raw["losses"], 1.0)
    raw["scheme"]["gain_g1"] = float(LOSSLESS_G1_GRID[i])
    raw["scheme"]["gain_g2"] = float(LOSSLESS_G2_GRID[j])
    return load_config(raw)


@pytest.mark.parametrize("i, j", LOSSLESS_FAILURES)
def test_lossless_high_gain_lock_succeeds(i, j):
    # The lock builds no state, so the defect surfaces only where a state is read.
    fringe = find_dark_fringe(lossless_config(i, j).scheme)
    assert fringe.phi_star == math.pi
    assert math.isfinite(fringe.visibility) and 0.0 <= fringe.visibility <= 1.0


@pytest.mark.xfail(strict=True, raises=ValueError, reason="ROADMAP item 3")
@pytest.mark.parametrize("i, j", LOSSLESS_FAILURES)
def test_lossless_high_gain_snr_succeeds(i, j):
    report = cmd_snr(lossless_config(i, j))
    assert report["snr_sui_x"] > 0 and report["snr_sui_y"] > 0


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

    @pytest.mark.parametrize("preset, rbw", [(name, None) for name in config.PRESET_NAMES] + [("fig2", 3e4)])
    def test_csv_header_gives_the_bin_width(self, tmp_path, capsys, preset, rbw):
        # rbw_hz is fs / nperseg, nperseg = round(fs / rbw): 333 samples and 30030 Hz for 3e4 Hz at 10 MHz.
        raw = preset_config(preset)
        raw["sim"]["duration_s"] = 0.02
        if rbw is not None:
            raw["sim"]["rbw_hz"] = rbw
        cfg = load_config(raw)
        fs, nperseg = cfg.sim.sample_rate_hz, round(cfg.sim.sample_rate_hz / cfg.sim.rbw_hz)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 0, err
        headers = {p.read_text(encoding="utf-8").partition(",")[0] for p in out_dir.glob("*.csv")}
        assert headers == {f"# rbw_hz={fs / nperseg:g}"}
        if rbw == 3e4:
            assert headers == {"# rbw_hz=30030"}

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

    def test_grid_of_one_point_gives_one_row(self, tmp_path, capsys):
        path = write_config(tmp_path, copy.deepcopy(BS_CONFIG))
        code, out, err = run_cli(
            capsys,
            "sweep", "--config", path, "--out", str(tmp_path / "out"),
            "--param", "losses.eta_signal_det", "--grid", "0.5:0.9:1",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["points"] == 1
        lines = open(report["file"], encoding="utf-8").read().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.5

    def test_grid_with_a_leading_minus_is_given_with_equals(self, tmp_path, capsys):
        # argparse takes "--grid -1:1:3" for an option; "--grid=-1:1:3" passes the value.
        code, out, err = run_cli(
            capsys,
            "sweep", "--preset", "fig2", "--out", str(tmp_path / "out"),
            "--param", "scheme.interferometer_phase", "--grid=-1:1:3",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["points"] == 3
        lines = open(report["file"], encoding="utf-8").read().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == [-1.0, 0.0, 1.0]

    def test_unknown_parameter_lists_valid_paths(self, tmp_path, capsys):
        path = write_config(tmp_path, copy.deepcopy(BS_CONFIG))
        out_dir = tmp_path / "out"
        # An empty grid never reaches a grid point, so the path is checked first.
        for grid in ("1:2:2", "0:1:0", ""):
            code, _, err = run_cli(
                capsys,
                "sweep", "--config", path, "--out", str(out_dir), "--param", "scheme.bogus", "--grid", grid,
            )
            assert code == 1, grid
            assert "losses.eta_signal_det" in err
            assert not out_dir.exists()

    def test_rejected_point_leaves_no_directory(self, tmp_path, capsys):
        # The first two points are valid; eta_internal = 1.5 is rejected.
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys,
            "sweep", "--preset", "fig2", "--out", str(out_dir),
            "--param", "losses.eta_internal", "--grid", "0.5:1.5:3",
        )
        assert code == 1, err
        assert "losses.eta_internal" in err
        assert not out_dir.exists()


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

    @pytest.mark.parametrize("content", ['{"scheme": ', None], ids=["malformed-json", "missing-file"])
    def test_unreadable_config_file_names_its_path(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code, _, err = run_cli(capsys, "snr", "--config", str(path))
        assert code == 1, err
        assert err.startswith(f"config error: cannot read config file '{path}'")

    @pytest.mark.parametrize("grid", ["0:1:x", "0.5,foo", "0:1:-1", "0:1:100001", "1:2:1000000000000"])
    def test_bad_grid_is_a_config_error(self, tmp_path, capsys, grid):
        # A count above MAX_GRID_POINTS is rejected before any point is built.
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys,
            "sweep", "--preset", "fig2", "--out", str(out_dir),
            "--param", "scheme.gain_g2", "--grid", grid,
        )
        assert code == 1, err
        assert err.startswith("config error: --grid")
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "section, changes, path",
        [
            ("scheme", {"gain_g2": None}, "scheme.gain_g2"),
            ("scheme", {"kind": "amp", "compare_with": None}, "scheme.gain_g1"),
            ("scheme", {"kind": "bs", "gain_g1": None, "compare_with": None}, "scheme.gain_g2"),
            ("scheme", {"gain_g1": 0.5}, "scheme.gain_g1"),
            ("scheme", {"gain_g2": 1e155}, "scheme.gain_g2"),
            ("scheme", {"probe_photon_number": -1}, "scheme.probe_photon_number"),
            ("scheme", {"kind": "mzi"}, "scheme.kind"),
            ("losses", {"eta_internal": 0.0}, "losses.eta_internal"),
            # Each of these overflowed a state moment in the lock (exit 2).
            ("scheme", {"gain_g2": 1e152}, "scheme.gain_g2"),
            ("scheme", {"gain_g2": 1e153}, "scheme.gain_g2"),
            ("scheme", {"gain_g2": 1e154}, "scheme.gain_g2"),
            ("scheme", {"kind": "amp", "compare_with": None, "gain_g1": None, "gain_g2": 1e154}, "scheme.gain_g2"),
            ("scheme", {"probe_photon_number": 1e307}, "scheme.probe_photon_number"),
            ("losses", {"eta_internal": 1e-310}, "losses.eta_internal"),
            # A huge depth with no probe squared the depth in the closed form (exit 2).
            (None, {"scheme": {"kind": "bs", "probe_photon_number": 0.0}, "tones": _HUGE_DEPTH}, "tones[0].depth"),
            (
                None,
                {"scheme": {"kind": "sui", "probe_photon_number": 0.0, "gain_g1": 2.0, "gain_g2": 9.0}, "tones": _HUGE_DEPTH},
                "tones[0].depth",
            ),
        ],
        ids=[
            "sui-without-gain_g2", "gain_g1-on-amp", "gain-on-bs", "gain-below-one",
            "gain-square-overflows", "negative-probe", "unknown-kind", "no-internal-transmission",
            "sui-gain_g2-1e152", "sui-gain_g2-1e153", "sui-gain_g2-1e154", "amp-gain_g2-1e154",
            "probe-1e307", "eta_internal-1e-310", "bs-depth-1e300-no-probe", "sui-depth-1e300-no-probe",
        ],
    )
    def test_scheme_rejection_names_its_path(self, tmp_path, capsys, section, changes, path):
        raw = _changed_preset("fig2", section, changes)
        # The huge depths are also past the weak-modulation bound, which warns.
        huge = path == "tones[0].depth"
        with pytest.warns(UserWarning, match="weak-modulation") if huge else contextlib.nullcontext():
            code, _, err = run_cli(capsys, "snr", "--config", write_config(tmp_path, raw))
        assert code == 1, err
        assert err.startswith(f"config error: config key '{path}': ")

    @pytest.mark.parametrize(
        "preset, changes, path",
        [
            ("fig2", {"scheme.gain_convention": "power", "scheme.gain_g2": 0.5}, "scheme.gain_g2"),
            ("fig5", {"sim.combine.thetas": 0.5}, "sim.combine.thetas"),
            ("fig2", {"scheme.compare_with": "mzi"}, "scheme.compare_with"),
            ("fig2", {"scheme.kind": "amp", "scheme.gain_g1": None}, "scheme.compare_with"),
        ],
        ids=["power-gain-below-one", "thetas-not-a-list", "unknown-compare_with", "compare_with-on-amp"],
    )
    def test_load_rejection_names_its_key(self, tmp_path, capsys, preset, changes, path):
        raw = preset_config(preset)
        for dotted, value in changes.items():
            *sections, key = dotted.split(".")
            target = functools.reduce(dict.__getitem__, sections, raw)
            if value is None:
                del target[key]
            else:
                target[key] = value
        code, out, err = run_cli(capsys, "snr", "--config", write_config(tmp_path, raw))
        assert code == 1, err
        assert out == ""
        assert f"'{path}'" in err

    @pytest.mark.parametrize(
        "changes, path",
        [
            ({}, "scheme.gain_g1"),
            ({}, "scheme.gain_g2"),
            ({"kind": "amp", "compare_with": None, "gain_g1": None}, "scheme.gain_g2"),
            ({}, "scheme.probe_photon_number"),
        ],
        ids=["sui-gain_g1", "sui-gain_g2", "amp-gain_g2", "sui-probe"],
    )
    def test_largest_accepted_value_runs(self, tmp_path, capsys, changes, path):
        # Bisect on the bit patterns of positive floats, which sort like the floats.
        raw = _changed_preset("fig2", "scheme", changes)
        key = path.split(".")[1]
        to_bits = lambda x: struct.unpack("<q", struct.pack("<d", x))[0]
        to_float = lambda n: struct.unpack("<d", struct.pack("<q", n))[0]
        accepted, rejected = to_bits(raw["scheme"][key]), to_bits(sys.float_info.max)
        while rejected - accepted > 1:
            middle = (accepted + rejected) // 2
            raw["scheme"][key] = to_float(middle)
            try:
                load_config(raw)
                accepted = middle
            except ConfigError as exc:
                assert f"'{path}'" in str(exc)
                rejected = middle
        raw["scheme"][key] = to_float(accepted)
        code, out, err = run_cli(capsys, "snr", "--config", write_config(tmp_path, raw))
        assert code == 0, err
        assert "NaN" not in out and "Infinity" not in out
        raw["scheme"][key] = to_float(rejected)
        code, _, err = run_cli(capsys, "snr", "--config", write_config(tmp_path, raw))
        assert code == 1 and f"'{path}'" in err

    @pytest.mark.parametrize("command", ["snr", "simulate", "sweep"])
    @pytest.mark.parametrize("where", ["config", "--out"])
    def test_empty_output_directory_is_rejected(self, tmp_path, capsys, monkeypatch, command, where):
        raw = small_sim_config()
        argv = [command, "--config", write_config(tmp_path, raw | {"output": {"directory": ""}})]
        if where == "--out":
            argv = [command, "--config", write_config(tmp_path, raw), "--out", ""]
        if command == "sweep":
            argv += ["--param", "scheme.probe_photon_number", "--grid", "1e3:1e4:2"]
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, err
        assert names_output_option(err, where) and out == ""
        assert os.listdir(run_dir) == []

    def test_empty_verify_directory_is_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "run_all", lambda progress=None: pytest.fail("verify ran"))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "verify", "--out", "")
        assert code == 1, err
        assert "--out" in err and out == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["snr", "simulate", "sweep"])
    @pytest.mark.parametrize("where", ["config", "--out"])
    def test_output_directory_naming_a_file_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command, where):
        # This once exited 2 with "[Errno 17] File exists", snr and simulate
        # only after computing their reports; a directory below the file
        # once exited 2 with "[Errno 20] Not a directory" after computing.
        monkeypatch.setattr(cli, "_resolve_scheme", lambda cfg: pytest.fail("the run computed"))
        taken = tmp_path / "taken"
        taken.write_text("kept", encoding="utf-8")
        raw = preset_config("fig2")
        for directory in (str(taken), str(taken / "sub")):
            argv = [command, "--config", write_config(tmp_path, raw | {"output": {"directory": directory}})]
            if where == "--out":
                argv = [command, "--config", write_config(tmp_path, raw), "--out", directory]
            if command == "sweep":
                argv += ["--param", "scheme.gain_g2", "--grid", "2:3:2"]
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, (directory, err)
            assert names_output_option(err, where) and out == ""
            assert taken.read_text(encoding="utf-8") == "kept"

    def test_verify_directory_naming_a_file_fails_before_any_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "run_all", lambda progress=None: pytest.fail("verify ran"))
        taken = tmp_path / "taken"
        taken.write_text("kept", encoding="utf-8")
        for directory in (taken, taken / "sub"):
            code, out, err = run_cli(capsys, "verify", "--out", str(directory))
            assert code == 1, (directory, err)
            assert "--out" in err and out == ""
            assert taken.read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_default_output_directory_is_checked_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # Without --out or output.directory both write into "out"; with a
        # file of that name they once exited 2 with "[Errno 17] File exists"
        # after computing.
        monkeypatch.setattr(cli, "_resolve_scheme", lambda cfg: pytest.fail("the run computed"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").write_text("kept", encoding="utf-8")
        argv = [command, "--preset", "fig2"]
        if command == "sweep":
            argv += ["--param", "scheme.gain_g2", "--grid", "2:3:2"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, err
        assert "'output.directory'" in err and "'out'" in err and out == ""
        assert (tmp_path / "out").read_text(encoding="utf-8") == "kept"

    def test_snr_without_an_output_directory_ignores_out(self, tmp_path, capsys, monkeypatch):
        # snr writes nothing unless told where, so a file named out is no error.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").write_text("kept", encoding="utf-8")
        code, out, err = run_cli(capsys, "snr", "--preset", "fig2")
        assert code == 0, err
        assert json.loads(out)["scheme_kind"] == "sui"
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("gains", [{}, {"gain_g2": 4.0}], ids=["bs", "amp"])
    def test_gain_convention_is_checked_with_or_without_a_gain(self, tmp_path, capsys, gains):
        kind = "amp" if gains else "bs"
        raw = {"scheme": {"kind": kind, "probe_photon_number": 1e4, "gain_convention": "bogus", **gains}}
        with pytest.raises(ConfigError, match="scheme.gain_convention"):
            load_config(raw)
        code, _, err = run_cli(capsys, "snr", "--config", write_config(tmp_path, raw))
        assert code == 1
        assert "'scheme.gain_convention'" in err
        raw["scheme"]["gain_convention"] = "power"
        assert load_config(raw).scheme.kind == kind

    def test_negative_seed_override_rejected(self, capsys):
        code, _, err = run_cli(capsys, "snr", "--preset", "fig2", "--seed", "-1")
        assert code == 1
        assert "--seed" in err and "sim.seed" not in err

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

    @pytest.mark.parametrize(
        "tones, sim, finer_rbw",
        [
            ([{"frequency_hz": 2.5e6, "depth": 0.01, "angle_rad": 0.0}], {"duration_s": 1e-3, "rbw_hz": 5e5}, 2.5e5),
            ([], {"duration_s": 1e-4, "rbw_hz": 5e6}, 1e7 / 6),
            ([], {"duration_s": 1e-4, "rbw_hz": 2.5e6}, 1e7 / 6),
            ([], {"duration_s": 1e-4, "rbw_hz": 2e6}, 1e7 / 6),
        ],
        ids=["tone-covers-band", "toneless-2-bins", "toneless-3-bins", "toneless-odd-segment"],
    )
    def test_covered_floor_band_fails_at_load_time(self, tmp_path, capsys, tones, sim, finer_rbw):
        # No bin of the report's floor band lies outside the tones'
        # neighbourhoods; each of these once failed after writing its CSVs.
        raw = {
            "scheme": {"kind": "bs", "probe_photon_number": 1e4},
            "tones": tones,
            "sim": {"sample_rate_hz": 1e7, **sim},
        }
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 1, err
        assert "'sim.rbw_hz'" in err and "floor band" in err
        assert not out_dir.exists()
        # Finer bins leave the band a free bin, and the run reads it out.
        raw["sim"]["rbw_hz"] = finer_rbw
        code, out, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 0, err
        for port in json.loads(out)["runs"]["bs"]["ports"].values():
            assert math.isfinite(port["floor_snu"])

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

    def test_weak_calibration_tone_fails_without_writing(self, tmp_path, capsys):
        # A tap LO 1e-3 rad off the tone's null leaves it a nonzero model
        # amplitude, too small for the lock-in to find in a 20 ms record;
        # this once exited 2 after simulating.
        raw = preset_config("fig5")
        raw["ports"]["channels"][2]["lo_phase_rad"] = 3 * math.pi / 4 + 1e-3
        raw["sim"]["duration_s"] = 0.02
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 1, err
        assert "'sim.combine.calibration_tone_hz'" in err and "'tap'" in err
        assert out == ""
        assert list(out_dir.glob("*")) == []

    @pytest.mark.parametrize("max_samples", [False, True], ids=["default-duration", "max-samples"])
    def test_weak_calibration_tone_fails_before_any_sample(self, tmp_path, capsys, monkeypatch, max_samples):
        # The lock-in's visibility rule is applied to the port model, so the
        # rejection costs nothing however long the record; this once
        # synthesised the whole record first.
        def synthesize(*args):
            raise AssertionError("synthesis started")

        monkeypatch.setattr(spectra, "_synthesize", synthesize)
        raw = preset_config("fig5")
        raw["ports"]["channels"][2]["lo_phase_rad"] = 3 * math.pi / 4 + 1e-3
        if max_samples:
            raw["sim"]["duration_s"] = MAX_SAMPLES / load_config(raw).sim.sample_rate_hz
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 1, err
        assert "'sim.combine.calibration_tone_hz'" in err and "tap port" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("thetas", [[0.0, 1e-5], [0.5, 0.5]], ids=["rounds-to-one-label", "repeated"])
    def test_thetas_of_one_label_fail_at_load_time(self, tmp_path, capsys, thetas):
        # The label names both the CSV and the report key; [0, 1e-5] once
        # wrote one file, holding the second theta's spectrum, and listed it twice.
        raw = preset_config("fig5")
        raw["sim"]["combine"]["thetas"] = thetas
        raw["sim"]["duration_s"] = 0.02
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 1, err
        assert "'sim.combine.thetas[1]'" in err
        assert not out_dir.exists()

    def test_thetas_a_turn_apart_keep_their_own_labels(self, tmp_path, capsys):
        raw = preset_config("fig5")
        raw["sim"]["combine"]["thetas"] = [0.0, 2 * math.pi]
        raw["sim"]["duration_s"] = 0.02
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, raw), "--out", str(out_dir))
        assert code == 0, err
        report = json.loads(out)
        assert list(report["combined"]["thetas"]) == ["0.0000", "6.2832"]
        combined = sorted(p.name for p in out_dir.glob("*combined*.csv"))
        assert combined == ["spectrum_sui_combined_theta_0.0000.csv", "spectrum_sui_combined_theta_6.2832.csv"]
        assert len(report["files"]) == len(set(report["files"]))

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


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--preset", "fig2", "--bogus", "1"], "--bogus"),
            (["snr", "--seed", "abc"], "--seed"),
            (["snr", "--preset", "fig9"], "--preset"),
            (["snr", "--preset", "fig2", "--config", "config.json"], "--config"),
            (["snr"], "--preset"),
            ([], "command"),
        ],
        ids=["unknown-option", "seed-not-int", "unknown-preset", "preset-and-config", "no-source", "no-command"],
    )
    def test_usage_error_exits_one(self, tmp_path, capsys, monkeypatch, argv, flag):
        # These once exited 2, the code of a runtime error, through argparse.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert flag in err and "error" in err and out == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [["--help"], ["snr", "--help"]], ids=["suisim", "snr"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert "usage: suisim" in capsys.readouterr().out


class TestVerifyCommand:
    def test_exit_zero_when_all_pass(self, capsys, monkeypatch):
        fake = [CheckResult("fake-check", True, "ok")]
        monkeypatch.setattr(verify, "run_all", lambda progress=None: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "1/1 checks passed" in out

    def test_exit_three_on_failure(self, capsys, monkeypatch, tmp_path):
        fake = [CheckResult("good-check", True, "ok"), CheckResult("fake-check", False, "broken")]

        def run_all(progress=None):
            for result in fake:
                progress(result)
            return fake

        monkeypatch.setattr(verify, "run_all", run_all)
        code, out, _ = run_cli(capsys, "verify", "--out", str(tmp_path))
        assert code == 3
        assert out.splitlines() == ["PASS  good-check  ok", "FAIL  fake-check  broken", "1/2 checks passed"]
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is False

    def test_report_records_each_check_duration(self, capsys, monkeypatch, tmp_path):
        fake = [CheckResult("fast-check", True, "ok", 0.25), CheckResult("slow-check", True, "ok", 1.5)]
        monkeypatch.setattr(verify, "run_all", lambda progress=None: fake)
        code, out, _ = run_cli(capsys, "verify", "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [(c["check_id"], c["duration_s"]) for c in report["checks"]] == [("fast-check", 0.25), ("slow-check", 1.5)]
        # The durations go to the report only; the lines printed stay as they were.
        assert "0.25" not in out and "1.5" not in out
