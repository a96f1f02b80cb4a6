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
from .bogoliubov import ClosedFormInput, closed_form_snr
from .config import (
    ConfigError,
    PRESET_NAMES,
    RunConfig,
    load_config,
    preset_config,
    set_parameter,
)
from .schemes import (
    MeasurementModel,
    SchemeInstance,
    enhancement_from_models,
    find_dark_fringe,
    matched_baseline,
    measurement_model,
)
from .spectra import (
    CombineParams,
    Spectrum,
    band_floor,
    calibrate_k,
    combine_currents,
    extract_peak_snr,
    simulate_currents,
    tone_power,
    welch_psd,
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
        cfg.resolved["sim"]["seed"] = args.seed
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
        cfg.resolved["output"]["directory"] = args.out
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


def _tone_at_angle(scheme: SchemeInstance, angle: float):
    for tone in scheme.tones:
        if math.isclose(tone.angle, angle, abs_tol=1e-12):
            return tone
    return None


def _closed_form_for(scheme: SchemeInstance) -> dict | None:
    x_tone = _tone_at_angle(scheme, 0.0)
    y_tone = _tone_at_angle(scheme, math.pi / 2)
    eps = x_tone.depth if x_tone else 0.0
    delta = y_tone.depth if y_tone else 0.0
    if scheme.kind == "sui":
        params = ClosedFormInput(
            "sui", scheme.probe_photon_number, eps, delta, gain_g1=scheme.opa1.gain
        )
    elif scheme.kind == "amp":
        params = ClosedFormInput(
            "amp", scheme.probe_photon_number, eps, delta, gain=scheme.opa2_or_amp.gain
        )
    else:
        params = ClosedFormInput("bs", scheme.probe_photon_number, eps, delta)
    return dataclasses.asdict(closed_form_snr(params))


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
        "closed_form": _closed_form_for(scheme),
    }
    report.update(_scheme_snr_section(model))

    axes = {"x": _tone_at_angle(scheme, 0.0), "y": _tone_at_angle(scheme, math.pi / 2)}
    axes = {axis: tone.frequency_hz for axis, tone in axes.items() if tone is not None}
    for axis, frequency in axes.items():
        report[f"snr_{scheme.kind}_{axis}"] = model.best_port(frequency)[1]

    if cfg.compare_with is not None:
        baseline = matched_baseline(scheme, cfg.compare_with)
        baseline_model = measurement_model(baseline)
        comparison = enhancement_from_models(scheme, model, baseline_model)
        baseline_section = _scheme_snr_section(baseline_model)
        baseline_section["scheme_kind"] = baseline.kind
        baseline_section["closed_form"] = _closed_form_for(baseline)
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


def _tone_band(scheme: SchemeInstance, spec: Spectrum) -> tuple[float, float]:
    freqs = [t.frequency_hz for t in scheme.tones]
    if not freqs:
        return spec.freq[2], spec.freq[-2]
    margin = 30 * spec.bin_width
    lo = max(spec.freq[1], min(freqs) - margin)
    hi = min(spec.freq[-1], max(freqs) + margin)
    return lo, hi


def _peak_section(scheme: SchemeInstance, spec: Spectrum) -> dict:
    exclude = tuple(t.frequency_hz for t in scheme.tones)
    lo, hi = _tone_band(scheme, spec)
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
    out_dir = cfg.output_dir or "out"
    os.makedirs(out_dir, exist_ok=True)
    scheme, fringe_info = _resolve_scheme(cfg)
    runs: list[tuple[str, SchemeInstance]] = [(scheme.kind, scheme)]
    if cfg.compare_with is not None:
        runs.append((cfg.compare_with, matched_baseline(scheme, cfg.compare_with)))

    report = {
        "seed": cfg.sim.seed,
        "dark_fringe": fringe_info,
        "runs": {},
        "files": [],
    }
    kept = None
    for index, (label, run_scheme) in enumerate(runs):
        seed = cfg.sim.seed + index
        records = simulate_currents(
            run_scheme, cfg.sim.duration_s, cfg.sim.sample_rate_hz, seed
        )
        run_report = {"seed": seed, "ports": {}}
        for port, record in records.items():
            spec = welch_psd(record, cfg.sim.rbw_hz)
            path = os.path.join(out_dir, f"spectrum_{label}_{port}.csv")
            _write_text(path, _spectrum_rows(spec, seed))
            report["files"].append(path)
            run_report["ports"][port] = _peak_section(run_scheme, spec)
        report["runs"][label] = run_report
        # Only the main scheme's records are read again, by the combination;
        # every other run's arrays are freed before the next run draws its own.
        if index == 0 and cfg.sim.combine is not None:
            kept = records
        del records, record

    if cfg.sim.combine is not None:
        i1, i3 = kept["signal"], kept["tap"]
        k = calibrate_k(i1, i3, cfg.sim.combine.calibration_tone_hz)
        combined_report = {"balance_gain_k": k, "thetas": {}}
        for theta in cfg.sim.combine.thetas:
            combined = combine_currents(i1, i3, CombineParams(theta, k))
            spec = welch_psd(combined, cfg.sim.rbw_hz)
            path = os.path.join(out_dir, f"spectrum_{scheme.kind}_combined_theta_{theta:.4f}.csv")
            _write_text(path, _spectrum_rows(spec, i1.seed))
            report["files"].append(path)
            combined_report["thetas"][f"{theta:.4f}"] = _peak_section(scheme, spec)
        report["combined"] = combined_report

    report["resolved_config"] = cfg.resolved
    _write_text(
        os.path.join(out_dir, "simulate_report.json"),
        json.dumps(report, indent=2) + "\n",
    )
    return report


def cmd_sweep(cfg: RunConfig, parameter: str, grid: list[float]) -> dict:
    out_dir = cfg.output_dir or "out"
    os.makedirs(out_dir, exist_ok=True)

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
    safe = parameter.replace(".", "_")
    path = os.path.join(out_dir, f"sweep_{safe}.csv")
    _write_text(path, "\n".join(lines) + "\n")
    return {
        "parameter": parameter,
        "points": len(rows),
        "file": path,
        "resolved_config": cfg.resolved,
    }


def cmd_verify(out_path: str | None = None, echo=print) -> int:
    def progress(result):
        status = "PASS" if result.passed else "FAIL"
        echo(f"{status}  {result.check_id}  {result.detail}")

    results = verify.run_all(progress=progress)
    failed = [r for r in results if not r.passed]
    echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
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
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("--grid expects start:stop:count or a comma-separated list")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 0:
            raise ConfigError("--grid count must be nonnegative")
        if count == 0:
            return []
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + step * i for i in range(count)]
    return [float(v) for v in text.split(",")]


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
