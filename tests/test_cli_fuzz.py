"""Fuzzed command lines either run or exit 1 before any work.

Each example draws one command with its flags from the parser's grammar:
preset names, seeds, ``--grid`` strings, ``--param`` paths and ``--config``
or ``--out`` paths that are fine, missing, a directory, not JSON, not UTF-8
or below a file.  ``main(argv)`` runs in process in a fresh temporary
directory.  ``simulate`` reads only the short-record config files, and
``verify`` gets only ``--out`` values that are rejected before any check.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from suisim.cli import main
from suisim.config import PRESET_NAMES, preset_config
from test_config_mutations import QUOTED_PATH

SHORT_BS = {
    "scheme": {"kind": "bs", "probe_photon_number": 1e4},
    "tones": [{"frequency_hz": 0.8e6, "depth": 0.01, "angle_rad": 0.0}],
    "sim": {"sample_rate_hz": 10e6, "duration_s": 0.01, "rbw_hz": 20e3, "seed": 9},
}
# Each is (accepted, rejected); values() draws an accepted value three times as
# often as a rejected one.
CONFIGS = (("bs.json", "fig5.json"), ("missing.json", "dir", "broken.json", "latin1.json", "afile/config.json", ""))
PRESETS = (PRESET_NAMES, ("fig9", "FIG2", ""))
SEEDS = (("0", "42", "123456789012345678901234567890"), ("-1", "-100", "abc", "1.5", "1e3", "nan", ""))
OUTS = (("out", "made/deeper", "dir"), ("", "afile", "afile/sub", "broken.json/sub"))
PARAMS = (
    ("scheme.gain_g2", "scheme.gain_g1", "scheme.probe_photon_number", "scheme.interferometer_phase",
     "losses.eta_internal", "losses.eta_tap_det"),
    ("scheme.bogus", "tones[0].depth", "scheme", ""),
)
# Counts stay below 10, so that no sweep runs long.  Whether a grid is
# accepted can depend on the parameter, as 0.5:1.5:3 does.
GRIDS = (
    ("1:2:3", "2:9:9", "0.5:1.5:3", "2,3", "4", "", " ", "1:2:0", "1:2:1"),
    (",", "0:1:x", "1:2", "1:2:3:4", "a,b", "nan:1:3", "1:inf:2", "-inf:1:2", "1e400,2", "1e308:-1e308:3",
     "1:2:-1", "-1:2:3", "1:2:1.5"),
)
FLAGS = ("--config", "--preset", "--out", "--seed", "--param", "--grid")


def make_files(root):
    with open(os.path.join(root, "bs.json"), "w", encoding="utf-8") as handle:
        json.dump(SHORT_BS, handle)
    fig5 = preset_config("fig5")
    fig5["sim"]["duration_s"] = 0.02
    with open(os.path.join(root, "fig5.json"), "w", encoding="utf-8") as handle:
        json.dump(fig5, handle)
    os.mkdir(os.path.join(root, "dir"))
    for name, content in (("afile", b"x"), ("broken.json", b'{"scheme": '), ("latin1.json", b'{"scheme": "\xff"}')):
        with open(os.path.join(root, name), "wb") as handle:
            handle.write(content)


def tree(root):
    """Every path below ``root``, mapped to its bytes (None for a directory)."""
    entries = {}
    for parent, dirs, files in os.walk(root):
        for name in dirs:
            entries[os.path.relpath(os.path.join(parent, name), root)] = None
        for name in files:
            path = os.path.join(parent, name)
            with open(path, "rb") as handle:
                entries[os.path.relpath(path, root)] = handle.read()
    return entries


def values(accepted, rejected):
    return st.sampled_from(3 * tuple(accepted) + tuple(rejected))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["snr", "simulate", "sweep", "verify"]))
    if command == "verify":
        # Only an --out that is rejected before any check runs.
        options = [("--out", draw(st.sampled_from(OUTS[1] + ("broken.json",))))]
    else:
        # A run reads one of --config and --preset; both, or neither, is rejected.
        sources = draw(st.sampled_from(3 * [("--config",), ("--preset",)] + [("--config", "--preset"), ()]))
        options = [("--config", draw(values(*CONFIGS)))] if "--config" in sources else []
        if "--preset" in sources:
            # simulate runs a preset's full record, so it gets one only where it is rejected.
            presets = st.sampled_from(PRESETS[1]) if command == "simulate" and not options else values(*PRESETS)
            options.append(("--preset", draw(presets)))
        for flag, accepted, rejected in (("--seed", *SEEDS), ("--out", *OUTS)):
            if draw(st.booleans()):
                options.append((flag, draw(values(accepted, rejected))))
        if command == "sweep":
            options += [("--param", draw(values(*PARAMS))), ("--grid", draw(values(*GRIDS)))]
        options = draw(st.permutations(options))
    argv = [command]
    for flag, value in options:
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def run_in(root, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, derandomize=True, deadline=None)
@given(command_lines())
def test_command_line_runs_or_exits_1_before_any_work(argv):
    with tempfile.TemporaryDirectory() as root:
        make_files(root)
        before = tree(root)
        code, out, err = run_in(root, argv)
        assert code in (0, 1), (code, err)
        if code == 0:
            json.loads(out)
            return
        assert out == ""
        # One config-error line, or argparse's usage text ending in its error line.
        line = err.rstrip("\n").splitlines()[-1]
        assert line.startswith("config error: ") or ": error: " in line, err
        words = [word for arg in argv for word in (arg.split("=", 1) if arg.startswith("--") else [arg])]
        rejected = [f"'{value}'" for flag, value in zip(words, words[1:]) if flag in ("--config", "--param")]
        assert any(name in line for name in FLAGS + tuple(rejected)) or QUOTED_PATH.search(line), err
        assert tree(root) == before
