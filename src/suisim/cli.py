"""Command-line front end: snr, simulate, sweep and verify subcommands.

Every run embeds its fully resolved configuration and seed in the emitted
JSON, and spectrum CSVs carry a reproducibility header line, so any output
file identifies the exact run that produced it.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime/numerical
error, 3 verification failure.
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
    check_seed,
    check_sweep_parameter,
    load_config,
    preset_config,
    set_parameter,
    theta_label,
)
from .schemes import (
    MeasurementModel,
    enhancement_from_tables,
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

# Where simulate and sweep write without --out or output.directory; snr then writes nothing.
_DEFAULT_OUT = "out"

#: The most points a ``--grid start:stop:count`` may ask for, checked before any is built.
MAX_GRID_POINTS = 100_000


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config if args.preset is None else preset_config(args.preset))
    if args.seed is not None:
        check_seed(args.seed, "--seed")
        cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=args.seed))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


def _resolve_scheme(cfg: RunConfig) -> tuple[dict | None, MeasurementModel]:
    """The ``dark_fringe`` report section, None unless the config locks the phase, and the scheme's model."""
    if not (cfg.auto_dark_fringe and cfg.scheme.kind == "sui"):
        return None, measurement_model(cfg.scheme)
    fringe = find_dark_fringe(cfg.scheme)
    fringe_info = {"phi_star": fringe.phi_star, "flat": fringe.flat, "visibility": fringe.visibility}
    return fringe_info, measurement_model(cfg.scheme, lock=fringe)


def _scheme_snr_section(model: MeasurementModel, table: dict[str, list[float]]) -> dict:
    """The ``ports`` and ``snr`` sections of one model, ``table`` being its :meth:`~MeasurementModel.snr_table`."""
    variances = model.noise_cov.diagonal().tolist()
    rows = zip(model.port_names, model.lo_phases, model.efficiencies, variances)
    ports = {name: {"lo_phase_rad": lo, "efficiency": eta, "noise_variance_snu": var} for name, lo, eta, var in rows}
    labels = [f"{f:.10g}" for f in model.tone_amplitudes]
    return {"ports": ports, "snr": {name: dict(zip(labels, row)) for name, row in table.items()}}


def cmd_snr(cfg: RunConfig) -> dict:
    scheme = cfg.scheme
    fringe_info, model = _resolve_scheme(cfg)
    report = {
        "scheme_kind": scheme.kind,
        "seed": cfg.sim.seed,
        "dark_fringe": fringe_info,
        "closed_form": dict(vars(closed_form_snr(scheme))),
    }
    table = model.snr_table()
    report.update(_scheme_snr_section(model, table))

    # The best port's SNR for each axis tone, read off the table just built.
    axes = {"x": tone_at_angle(scheme, 0.0), "y": tone_at_angle(scheme, math.pi / 2)}
    axes = {axis: tone.frequency_hz for axis, tone in axes.items() if tone is not None}
    for axis, frequency in axes.items():
        report[f"snr_{scheme.kind}_{axis}"] = max(row[f"{frequency:.10g}"] for row in report["snr"].values())

    if cfg.compare_with is not None:
        baseline = matched_baseline(scheme, cfg.compare_with)
        baseline_model = measurement_model(baseline)
        baseline_table = baseline_model.snr_table()
        comparison = enhancement_from_tables(scheme, table, baseline_table)
        baseline_section = _scheme_snr_section(baseline_model, baseline_table)
        baseline_section["scheme_kind"] = baseline.kind
        baseline_section["closed_form"] = dict(vars(closed_form_snr(baseline)))
        report["baseline"] = baseline_section
        # An unbounded ratio (a baseline SNR of 0) is written as null.
        per_tone = [
            {**vars(row), "ratio": None if row.ratio == math.inf else row.ratio} for row in comparison.per_tone
        ]
        report["enhancement"] = {**vars(comparison), "per_tone": per_tone}
        ratios = {row["frequency_hz"]: row["ratio"] for row in per_tone}
        report[f"ratio_vs_{cfg.compare_with}"] = {axis: ratios[f] for axis, f in axes.items()}

    report["resolved_config"] = cfg.resolved
    return report


def _spectrum_rows(spec: Spectrum, seed: int) -> str:
    lines = [f"# rbw_hz={spec.bin_width:g},n_avg={spec.n_averages},seed={seed}", "freq_hz,psd_snu"]
    lines.extend(f"{f:.10g},{p:.10g}" for f, p in zip(spec.freq, spec.psd_snu))
    return "\n".join(lines) + "\n"


def _json(report: dict) -> str:
    """``report`` as one JSON document; a NaN or an infinity in it raises rather than
    being written as ``NaN`` or ``Infinity``, which are not JSON."""
    return json.dumps(report, indent=2, allow_nan=False)


def _check_output_dir(path: str, name: str) -> None:
    """Reject an output directory that is empty or whose nearest existing
    ancestor, the path itself if it exists, is not a directory, before any
    work; ``name`` is its config key or option."""
    existing = path
    while existing and not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not path or not os.path.isdir(existing or os.curdir):
        raise ConfigError(f"{name} must name a directory, not {path!r}")


def _write_text(path: str, content: str) -> None:
    """Write ``path``, making its directory first: a run makes it only once it has a file to write."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)
    except OSError as exc:
        raise RuntimeError(f"cannot write output file {path}: {exc}") from exc


def _peak_section(spec: Spectrum, tones: tuple[float, ...]) -> dict:
    lo, hi = report_band(spec.psd_snu.size, spec.bin_width, tones)
    section = {
        "floor_snu": band_floor(spec, lo, hi, exclude=tones),
        "tones": {},
    }
    for frequency in tones:
        section["tones"][f"{frequency:.10g}"] = {
            "peak_snr": extract_peak_snr(spec, frequency, exclude=tones),
            "tone_power_snu": tone_power(spec, frequency, exclude=tones),
        }
    return section


def cmd_simulate(cfg: RunConfig) -> dict:
    fringe_info, model = _resolve_scheme(cfg)
    runs: list[tuple[str, MeasurementModel]] = [(cfg.scheme.kind, model)]
    if cfg.compare_with is not None:
        runs.append((cfg.compare_with, measurement_model(matched_baseline(cfg.scheme, cfg.compare_with))))
    out_dir = cfg.output_dir or _DEFAULT_OUT

    report = {
        "seed": cfg.sim.seed,
        "dark_fringe": fringe_info,
        "runs": {},
        "files": [],
    }
    for index, (label, model) in enumerate(runs):
        tones = tuple(model.tone_amplitudes)
        seed = cfg.sim.seed + index
        # Only the main scheme's signal and tap ports are combined.
        combine = cfg.sim.combine if index == 0 else None
        # A calibration tone the lock-in cannot find is named at sim.combine.
        with _values_under("sim"):
            run = simulate_spectra(
                model, cfg.sim.duration_s, cfg.sim.sample_rate_hz, seed, cfg.sim.rbw_hz, combine
            )
        run_report = {"seed": seed, "ports": {}}
        for port, spec in run.spectra.items():
            path = os.path.join(out_dir, f"spectrum_{label}_{port}.csv")
            _write_text(path, _spectrum_rows(spec, seed))
            report["files"].append(path)
            section = _peak_section(spec, tones)
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
                combined_report["thetas"][theta_label(theta)] = _peak_section(spec, tones)
            report["combined"] = combined_report

    report["resolved_config"] = cfg.resolved
    _write_text(os.path.join(out_dir, "simulate_report.json"), _json(report) + "\n")
    return report


def cmd_sweep(cfg: RunConfig, parameter: str, grid: list[float]) -> dict:
    check_sweep_parameter(parameter)
    header, rows = [parameter], []
    for value in grid:
        _, model = _resolve_scheme(load_config(set_parameter(cfg.raw, parameter, value)))
        table = model.snr_table()
        rows.append([value, *(snr for snrs in table.values() for snr in snrs)])
    if rows:
        # No sweep parameter changes the ports or the tones, so every point has these columns.
        header += [f"snr_{port}_{frequency:.10g}hz" for port in table for frequency in model.tone_amplitudes]

    lines = [",".join(header)]
    lines.extend(",".join(f"{v:.10g}" for v in row) for row in rows)
    # Written only once every point has succeeded, so a rejected sweep writes nothing.
    safe = parameter.replace(".", "_")
    path = os.path.join(cfg.output_dir or _DEFAULT_OUT, f"sweep_{safe}.csv")
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
        _write_text(out_path, _json(payload) + "\n")
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
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"--grid count must be at most {MAX_GRID_POINTS}, got {count}")
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
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="path to a JSON run configuration")
        source.add_argument("--preset", choices=PRESET_NAMES, help="bundled operating point")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the run seed")

    p_snr = sub.add_parser("snr", help="analytic per-port per-tone SNR report")
    add_common(p_snr)

    p_sim = sub.add_parser("simulate", help="photocurrent records, spectra CSVs and peak report")
    add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="analytic SNRs over a parameter grid")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="config path, e.g. losses.eta_signal_det")
    p_sweep.add_argument(
        "--grid", required=True, help="start:stop:count or v1,v2,...; a leading minus needs '=', as in --grid=-1:1:3"
    )

    p_verify = sub.add_parser("verify", help="run the invariant and acceptance suite")
    p_verify.add_argument("--out", help="write verify_report.json into this directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, printed to stderr; --help still exits 0.
        if exc.code:
            return EXIT_CONFIG
        raise
    try:
        if args.out is not None:
            _check_output_dir(args.out, "--out")
        if args.command == "verify":
            return cmd_verify(None if args.out is None else os.path.join(args.out, "verify_report.json"))

        cfg = _load_run_config(args)
        if args.out is None and (cfg.output_dir is not None or args.command != "snr"):
            _check_output_dir(cfg.output_dir or _DEFAULT_OUT, "config key 'output.directory'")
        if args.command == "snr":
            report = cmd_snr(cfg)
            if cfg.output_dir is not None:
                _write_text(os.path.join(cfg.output_dir, "snr_report.json"), _json(report) + "\n")
        elif args.command == "simulate":
            report = cmd_simulate(cfg)
        else:
            report = cmd_sweep(cfg, args.param, _parse_grid(args.grid))
        print(_json(report))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
