"""Write the golden outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

Regenerate them only for a change that is meant to move a reported number,
and say so where the change is described.  Each golden file is what the
command line gives for one fixed run: the ``snr`` reports of the fig2 to
fig5 presets, the CSVs of a 40-point ``gain_g2`` sweep and a 10-point
``eta_signal_det`` sweep of fig2, the ``simulate`` reports of fig2 and fig5
at their preset seeds without their ``files`` lists, and the detail string
of every ``verify`` check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from suisim import cli, verify

HERE = os.path.dirname(os.path.abspath(__file__))

#: Output directory of the runs, relative to the working directory, so that
#: the resolved config a report embeds does not depend on where it ran.
RUN_DIR = "golden_run"

SNR_PRESETS = ("fig2", "fig3", "fig4", "fig5")
#: Sweep arguments -> the CSV each writes.
SWEEPS = {
    ("--preset", "fig2", "--param", "scheme.gain_g2", "--grid", "2:200:40"): "sweep_scheme_gain_g2.csv",
    ("--preset", "fig2", "--param", "losses.eta_signal_det", "--grid", "0.1:1.0:10"): "sweep_losses_eta_signal_det.csv",
}
SIMULATE_PRESETS = ("fig2", "fig5")
VERIFY_DETAILS = "verify_details.json"


def _stdout(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"suisim {' '.join(argv)} exited {code}")
    return buffer.getvalue()


def outputs() -> dict[str, str]:
    """Golden file name -> content, from runs in the current working directory."""
    texts = {}
    for preset in SNR_PRESETS:
        texts[f"snr_{preset}.json"] = _stdout(["snr", "--preset", preset])
    for argv, csv_name in SWEEPS.items():
        _stdout(["sweep", *argv, "--out", RUN_DIR])
        with open(os.path.join(RUN_DIR, csv_name), encoding="utf-8") as handle:
            texts[csv_name] = handle.read()
    for preset in SIMULATE_PRESETS:
        report = json.loads(_stdout(["simulate", "--preset", preset, "--out", RUN_DIR]))
        del report["files"]
        texts[f"simulate_{preset}.json"] = json.dumps(report, indent=2) + "\n"
    return texts


def verify_details(results) -> str:
    """The detail string of each ``verify`` check result, by check id."""
    return json.dumps({r.check_id: r.detail for r in results}, indent=2) + "\n"


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            texts = outputs()
        finally:
            os.chdir(cwd)
    texts[VERIFY_DETAILS] = verify_details(verify.run_all())
    for name, text in texts.items():
        with open(os.path.join(HERE, name), "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        print(f"wrote {os.path.join(HERE, name)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
