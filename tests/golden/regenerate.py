"""Write the golden outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

Regenerate them only for a change that is meant to move a reported number,
and say so where the change is described.  Each golden file is what the
command line gives for one fixed run: the ``snr`` reports of the fig2 to
fig5 presets, the CSV of a 40-point ``gain_g2`` sweep of fig2, and the
``simulate`` report of fig5 at its preset seed without its ``files`` list.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from suisim import cli

HERE = os.path.dirname(os.path.abspath(__file__))

#: Output directory of the runs, relative to the working directory, so that
#: the resolved config a report embeds does not depend on where it ran.
RUN_DIR = "golden_run"

SNR_PRESETS = ("fig2", "fig3", "fig4", "fig5")
SWEEP = ("--preset", "fig2", "--param", "scheme.gain_g2", "--grid", "2:200:40")
SWEEP_CSV = "sweep_scheme_gain_g2.csv"


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
    _stdout(["sweep", *SWEEP, "--out", RUN_DIR])
    with open(os.path.join(RUN_DIR, SWEEP_CSV), encoding="utf-8") as handle:
        texts[SWEEP_CSV] = handle.read()
    report = json.loads(_stdout(["simulate", "--preset", "fig5", "--out", RUN_DIR]))
    del report["files"]
    texts["simulate_fig5.json"] = json.dumps(report, indent=2) + "\n"
    return texts


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            texts = outputs()
        finally:
            os.chdir(cwd)
    for name, text in texts.items():
        with open(os.path.join(HERE, name), "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        print(f"wrote {os.path.join(HERE, name)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
