"""Every suisim name the benchmark in ``bench/`` uses must still exist.

``bench/spans.py`` wraps each function in its ``TRACED`` table at run time
and ``bench/workloads.py`` calls more; a name deleted from ``src/`` would
otherwise show only when ``bench/run.py --trace 1`` fails.  The bench
files are parsed, never imported or run.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from suisim.config import load_config, preset_config
from suisim.gaussian import GaussianState

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
MODULES = ("bogoliubov", "cli", "config", "gaussian", "schemes", "spectra", "verify")


def parse(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def traced_names():
    for node in parse("spans.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            table = ast.literal_eval(node.value)
            return [f"{module}.{name}" for module, names in table.items() for name in names]
    raise AssertionError("bench/spans.py has no TRACED table")


def module_calls(filename):
    """Calls of the form ``<suisim module>.<name>(...)``, with their argument shapes."""
    for node in ast.walk(parse(filename)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id in MODULES:
                yield owner.id, node.func.attr, node


@pytest.mark.parametrize("qualified", traced_names())
def test_traced_name_resolves(qualified):
    module, name = qualified.split(".")
    assert callable(getattr(importlib.import_module(f"suisim.{module}"), name))


@pytest.mark.parametrize("filename", ["workloads.py", "run.py"])
def test_bench_calls_bind_to_the_current_signatures(filename):
    calls = list(module_calls(filename))
    assert calls
    for module, name, call in calls:
        func = getattr(importlib.import_module(f"suisim.{module}"), name)
        assert not any(isinstance(a, ast.Starred) for a in call.args), (module, name)
        keywords = {k.arg: None for k in call.keywords}
        inspect.signature(func).bind(*[None] * len(call.args), **keywords)


def test_imported_names_resolve():
    for filename in ("workloads.py", "run.py"):
        for node in ast.walk(parse(filename)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("suisim"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name) or alias.name in MODULES, (node.module, alias.name)


def test_attributes_the_workloads_read():
    assert callable(GaussianState.__post_init__)  # the tracer's state counter
    cfg = load_config(preset_config("fig5"))
    scheme = cfg.scheme
    assert scheme.opa2_or_amp.gain >= 1.0
    reads = [
        (cfg, ("scheme", "compare_with", "sim")),
        (cfg.sim, ("duration_s", "combine")),
        (scheme, ("kind", "ports", "tones", "probe_photon_number", "tap_enabled")),
        *((port, ("port_name", "lo_phase", "efficiency")) for port in scheme.ports),
        *((tone, ("frequency_hz", "depth", "angle")) for tone in scheme.tones),
    ]
    for owner, names in reads:
        missing = [name for name in names if not hasattr(owner, name)]
        assert not missing, (type(owner).__name__, missing)
