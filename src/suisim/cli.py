"""Command-line front end: snr, simulate, sweep and verify subcommands.

Every run embeds its fully resolved configuration and seed in the emitted
JSON, and spectrum CSVs carry a reproducibility header line, so any output
file identifies the exact run that produced it.

Exit codes: 0 success, 1 configuration error, 2 runtime/numerical error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import verify
from .bogoliubov import closed_form_snr
from .config import (
    ConfigError,
    PRESET_NAMES,
    RunConfig,
    _values_under,
    check_sweep_parameter,
    load_config,
    preset_config,
    set_parameter,
    theta_label,
)
from .schemes import (
    MeasurementModel,
    SchemeInstance,
    enhancement_from_models,
    find_dark_fringe,
    matched_baseline,
    measurement_model,
    tone_at_angle,
)
from .spectra import (
    Spectrum,
    band_floor,
    extract_peak_snr,
    report_band,
    simulate_spectra,
    tone_power,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def _load_run_config(args) -> RunConfig:
    if args.preset is not None and args.config is not None:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset is not None:
        raw = preset_config(args.preset)
    elif args.config is not None:
        raw = args.config
    else:
        raise ConfigError("a run needs --config <path> or --preset <name>")
    cfg = load_config(raw)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=args.seed))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


def _resolve_scheme(cfg: RunConfig) -> tuple[SchemeInstance, dict | None]:
    """Scheme with the interferometer phase locked when requested."""
    scheme = cfg.scheme
    fringe_info = None
    if cfg.auto_dark_fringe and scheme.kind == "sui":
        fringe = find_dark_fringe(scheme)
        scheme = dataclasses.replace(scheme, interferometer_phase=fringe.phi_star)
        fringe_info = {"phi_star": fringe.phi_star, "flat": fringe.flat, "visibility": fringe.visibility}
    return scheme, fringe_info


def _scheme_snr_section(model: MeasurementModel) -> dict:
    ports = {
        name: {"lo_phase_rad": lo_phase, "efficiency": efficiency, "noise_variance_snu": model.variance(name)}
        for name, lo_phase, efficiency in zip(model.port_names, model.lo_phases, model.efficiencies)
    }
    snr = {
        name: {f"{frequency:.10g}": model.snr(name, frequency) for frequency in model.tone_amplitudes}
        for name in model.port_names
    }
    return {"ports": ports, "snr": snr}


def cmd_snr(cfg: RunConfig) -> dict:
    scheme, fringe_info = _resolve_scheme(cfg)
    model = measurement_model(scheme)
    report = {
        "scheme_kind": scheme.kind,
        "seed": cfg.sim.seed,
        "dark_fringe": fringe_info,
        "closed_form": dataclasses.asdict(closed_form_snr(scheme)),
    }
    report.update(_scheme_snr_section(model))

    axes = {"x": tone_at_angle(scheme, 0.0), "y": tone_at_angle(scheme, math.pi / 2)}
    axes = {axis: tone.frequency_hz for axis, tone in axes.items() if tone is not None}
    for axis, frequency in axes.items():
        report[f"snr_{scheme.kind}_{axis}"] = model.best_port(frequency)[1]

    if cfg.compare_with is not None:
        baseline = matched_baseline(scheme, cfg.compare_with)
        baseline_model = measurement_model(baseline)
        comparison = enhancement_from_models(scheme, model, baseline_model)
        baseline_section = _scheme_snr_section(baseline_model)
        baseline_section["scheme_kind"] = baseline.kind
        baseline_section["closed_form"] = dataclasses.asdict(closed_form_snr(baseline))
        report["baseline"] = baseline_section
        report["enhancement"] = dataclasses.asdict(comparison)
        ratios = {row.frequency_hz: row.ratio for row in comparison.per_tone}
        report[f"ratio_vs_{cfg.compare_with}"] = {axis: ratios[f] for axis, f in axes.items()}

    report["resolved_config"] = cfg.resolved
    return report


def _spectrum_rows(spec: Spectrum, seed: int) -> str:
    lines = [f"# rbw_hz={spec.rbw:g},n_avg={spec.n_averages},seed={seed}", "freq_hz,psd_snu"]
    lines.extend(f"{f:.10g},{p:.10g}" for f, p in zip(spec.freq, spec.psd_snu))
    return "\n".join(lines) + "\n"


def _write_text(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)
    except OSError as exc:
        raise RuntimeError(f"cannot write output file {path}: {exc}") from exc


def _peak_section(scheme: SchemeInstance, spec: Spectrum) -> dict:
    exclude = tuple(t.frequency_hz for t in scheme.tones)
    lo, hi = report_band(spec.freq.size, spec.bin_width, exclude)
    section = {
        "floor_snu": band_floor(spec, lo, hi, exclude=exclude),
        "tones": {},
    }
    for tone in scheme.tones:
        section["tones"][f"{tone.frequency_hz:.10g}"] = {
            "peak_snr": extract_peak_snr(spec, tone.frequency_hz, exclude=exclude),
            "tone_power_snu": tone_power(spec, tone.frequency_hz, exclude=exclude),
        }
    return section


def cmd_simulate(cfg: RunConfig) -> dict:
    scheme, fringe_info = _resolve_scheme(cfg)
    runs: list[tuple[str, SchemeInstance]] = [(scheme.kind, scheme)]
    if cfg.compare_with is not None:
        runs.append((cfg.compare_with, matched_baseline(scheme, cfg.compare_with)))
    models = [measurement_model(run_scheme) for _, run_scheme in runs]
    out_dir = cfg.output_dir or "out"

    report = {
        "seed": cfg.sim.seed,
        "dark_fringe": fringe_info,
        "runs": {},
        "files": [],
    }
    for index, ((label, run_scheme), model) in enumerate(zip(runs, models)):
        seed = cfg.sim.seed + index
        # Only the main scheme's signal and tap ports are combined.
        combine = cfg.sim.combine if index == 0 else None
        # A calibration tone the lock-in cannot find is named at sim.combine.
        with _values_under("sim"):
            run = simulate_spectra(
                model, cfg.sim.duration_s, cfg.sim.sample_rate_hz, seed, cfg.sim.rbw_hz, combine
            )
        os.makedirs(out_dir, exist_ok=True)
        run_report = {"seed": seed, "ports": {}}
        for port, spec in run.spectra.items():
            path = os.path.join(out_dir, f"spectrum_{label}_{port}.csv")
            _write_text(path, _spectrum_rows(spec, seed))
            report["files"].append(path)
            section = _peak_section(run_scheme, spec)
            section["analytic_variance_snu"] = model.variance(port)
            section["floor_over_analytic"] = section["floor_snu"] / section["analytic_variance_snu"]
            run_report["ports"][port] = section
        report["runs"][label] = run_report
        if combine is not None:
            combined_report = {"balance_gain_k": run.balance_gain_k, "thetas": {}}
            for theta, spec in zip(combine.thetas, run.combined):
                path = os.path.join(out_dir, f"spectrum_{label}_combined_theta_{theta_label(theta)}.csv")
                _write_text(path, _spectrum_rows(spec, seed))
                report["files"].append(path)
                combined_report["thetas"][theta_label(theta)] = _peak_section(run_scheme, spec)
            report["combined"] = combined_report

    report["resolved_config"] = cfg.resolved
    _write_text(
        os.path.join(out_dir, "simulate_report.json"),
        json.dumps(report, indent=2) + "\n",
    )
    return report


def cmd_sweep(cfg: RunConfig, parameter: str, grid: list[float]) -> dict:
    check_sweep_parameter(parameter)
    header: list[str] = [parameter]
    rows: list[list[float]] = []
    for value in grid:
        raw = set_parameter(cfg.raw, parameter, value)
        point = load_config(raw)
        scheme, _ = _resolve_scheme(point)
        model = measurement_model(scheme)
        row = [value]
        columns = [parameter]
        for port in model.port_names:
            for frequency in model.tone_amplitudes:
                columns.append(f"snr_{port}_{frequency:.10g}hz")
                row.append(model.snr(port, frequency))
        header = columns
        rows.append(row)

    lines = [",".join(header)]
    lines.extend(",".join(f"{v:.10g}" for v in row) for row in rows)
    # Made only once every point has succeeded, so a rejected sweep writes nothing.
    out_dir = cfg.output_dir or "out"
    os.makedirs(out_dir, exist_ok=True)
    safe = parameter.replace(".", "_")
    path = os.path.join(out_dir, f"sweep_{safe}.csv")
    _write_text(path, "\n".join(lines) + "\n")
    return {
        "parameter": parameter,
        "points": len(rows),
        "file": path,
        "resolved_config": cfg.resolved,
    }


def cmd_verify(out_path: str | None = None) -> int:
    def progress(result):
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.check_id}  {result.detail}")

    results = verify.run_all(progress=progress)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if out_path is not None:
        payload = {
            "all_passed": not failed,
            "checks": [dataclasses.asdict(r) for r in results],
        }
        _write_text(out_path, json.dumps(payload, indent=2) + "\n")
    return EXIT_VERIFY if failed else EXIT_OK


def _parse_grid(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    try:
        if ":" not in text:
            return [float(v) for v in text.split(",")]
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"--grid expects start:stop:count or a comma-separated list ({exc})") from exc
    if count < 0:
        raise ConfigError("--grid count must be nonnegative")
    if count == 0:
        return []
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + step * i for i in range(count)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suisim",
        description="Joint quadrature measurement simulator: analytic SNRs, "
        "photocurrent spectra, parameter sweeps and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--preset", choices=PRESET_NAMES, help="bundled operating point")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the run seed")

    p_snr = sub.add_parser("snr", help="analytic per-port per-tone SNR report")
    add_common(p_snr)

    p_sim = sub.add_parser("simulate", help="photocurrent records, spectra CSVs and peak report")
    add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="analytic SNRs over a parameter grid")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="config path, e.g. losses.eta_signal_det")
    p_sweep.add_argument("--grid", required=True, help="start:stop:count or v1,v2,...")

    p_verify = sub.add_parser("verify", help="run the invariant and acceptance suite")
    p_verify.add_argument("--out", help="write verify_report.json into this directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            out_path = None
            if args.out == "":
                raise ConfigError("--out must name a directory")
            if args.out is not None:
                os.makedirs(args.out, exist_ok=True)
                out_path = os.path.join(args.out, "verify_report.json")
            return cmd_verify(out_path)

        cfg = _load_run_config(args)
        if args.command == "snr":
            report = cmd_snr(cfg)
            if cfg.output_dir is not None:
                os.makedirs(cfg.output_dir, exist_ok=True)
                _write_text(
                    os.path.join(cfg.output_dir, "snr_report.json"),
                    json.dumps(report, indent=2) + "\n",
                )
        elif args.command == "simulate":
            report = cmd_simulate(cfg)
        else:
            report = cmd_sweep(cfg, args.param, _parse_grid(args.grid))
        print(json.dumps(report, indent=2))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
