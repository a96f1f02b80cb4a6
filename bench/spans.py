"""Span tracing of suisim's public functions, installed at run time.

Nothing in ``src/`` knows about the tracer.  :meth:`Tracer.install` swaps
each traced function for a wrapper in every ``suisim`` module that holds a
reference to it (so ``cli`` calling its imported ``find_dark_fringe`` is
caught as well as ``schemes`` calling its own), and patches
``GaussianState.__post_init__`` to count state constructions.  Spans
record name, start, end, parent and operation id; they stay in memory until
:meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

import numpy as np

#: Public functions timed per module.  ``conventions`` holds only
#: constants and helpers and is not timed.
TRACED = {
    "config": ("load_config",),
    "gaussian": (
        "vacuum_state",
        "displace",
        "two_mode_squeezer_matrix",
        "beam_splitter_matrix",
        "phase_shift_matrix",
        "apply_two_mode_squeezer",
        "apply_beam_splitter",
        "apply_phase_shift",
        "apply_loss",
        "homodyne_stats",
        "symplectic_eigenvalues",
        "mean_photon_number",
    ),
    "schemes": (
        "build_scheme",
        "output_state",
        "port_noise_variance",
        "tone_port_amplitude",
        "port_snr",
        "find_dark_fringe",
        "snr_vs_detection_efficiency",
        "best_port_snr",
        "enhancement_report",
        "matched_baseline",
        "measurement_model",
    ),
    "bogoliubov": (
        "identity_transfer",
        "build_transfer_from_elements",
        "build_transfer",
        "oracle_homodyne_variance",
        "oracle_homodyne_mean",
        "closed_form_snr",
    ),
    "spectra": (
        "simulate_currents",
        "welch_psd",
        "shot_noise_calibration",
        "extract_peak_snr",
        "tone_power",
        "band_floor",
        "calibrate_k",
        "combine_currents",
    ),
    "cli": ("cmd_snr", "cmd_simulate"),
    "verify": ("run_check",),
}


def _count_simulate(counts: Counter, args, kwargs, records) -> None:
    n = next(iter(records.values())).samples.size
    counts["spectra.samples"] += n
    counts["spectra.noise_bytes"] += n * len(records) * 8


def _count_welch(counts: Counter, args, kwargs, spectrum) -> None:
    ts = args[0] if args else kwargs["ts"]
    counts["spectra.welch_psd.samples"] += ts.samples.size


def _count_transfer(counts: Counter, args, kwargs, transfer) -> None:
    counts["bogoliubov.transfers"] += 1


#: Work counters derived from a traced call's arguments and result.
COUNTERS = {
    "spectra.simulate_currents": _count_simulate,
    "spectra.welch_psd": _count_welch,
    "bogoliubov.build_transfer_from_elements": _count_transfer,
}


class Tracer:
    """In-memory span recorder for one benchmark process (single thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.op_labels: list[str] = []
        self.raised: set[int] = set()
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.op_labels) - 1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, label: str):
        """Root span of one benchmark operation; its descendants share its id."""
        if not self.enabled:
            yield
            return
        self.op_labels.append(label)
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Suspend recording, e.g. while the benchmark checks outputs."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, name: str, func):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.raised.add(idx)
                raise
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a suisim module refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "suisim" or n.startswith("suisim.")]
        for short, funcs in TRACED.items():
            home = sys.modules[f"suisim.{short}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

        from suisim.gaussian import GaussianState

        post_init = GaussianState.__post_init__
        tracer = self

        def counted_post_init(state):
            if tracer.enabled:
                tracer.counts["gaussian.states"] += 1
            post_init(state)

        self._patches.append((GaussianState, "__post_init__", post_init))
        GaussianState.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as parallel arrays, names interned into a table."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {
            "name_table": np.array(table),
            "name": np.array([index[n] for n in self.names], dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "op_labels": np.array(self.op_labels),
        }

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it covered by its child spans.

    Children may overlap one another; the union of their intervals,
    clipped to the parent, is what is subtracted.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    children: dict[int, list[int]] = {}
    for idx, par in enumerate(parent):
        if par >= 0:
            children.setdefault(int(par), []).append(idx)
    out = end - start
    for par, kids in children.items():
        lo, hi = start[par], end[par]
        covered = 0.0
        cursor = lo
        for k in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[k], cursor), min(end[k], hi)
            if e > s:
                covered += e - s
                cursor = e
        out[par] -= covered
    return out


def enclosing(parent, names, idx: int, ancestor: str) -> int:
    """Index of the nearest enclosing span called ``ancestor``, or -1."""
    par = parent[idx]
    while par >= 0 and names[par] != ancestor:
        par = parent[par]
    return par


def per_round(total, rounds: int):
    if isinstance(total, int) and total % rounds == 0:
        return total // rounds
    return total / rounds


def layer_metrics(tracer: Tracer, rounds: int, check_ids) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one round, averaged over ``rounds`` traced rounds.

    Times are inclusive unless named ``self_s``.  A layer the workload
    never reaches reads 0.
    """
    names, parent = tracer.names, tracer.parent
    duration = np.array(tracer.end) - np.array(tracer.start)
    own = self_times(tracer.start, tracer.end, parent)
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    exclusive: Counter = Counter()
    checks: Counter = Counter()
    locks = lock_evals = 0
    for idx, name in enumerate(names):
        calls[name] += 1
        inclusive[name] += float(duration[idx])
        exclusive[name] += float(own[idx])
        if name == "op":
            checks[tracer.op_labels[tracer.op[idx]]] += float(duration[idx])
        elif name == "schemes.find_dark_fringe" and idx not in tracer.raised:
            locks += 1
        elif name == "schemes.output_state":
            lock = enclosing(parent, names, idx, "schemes.find_dark_fringe")
            lock_evals += lock >= 0 and lock not in tracer.raised

    def module_self(module: str) -> float:
        return sum(v for k, v in exclusive.items() if k.startswith(module + "."))

    counts = tracer.counts
    raw = {
        "config.load_config.calls": (calls["config.load_config"], "count"),
        "config.load_config.s": (inclusive["config.load_config"], "s"),
        "gaussian.states": (counts["gaussian.states"], "count"),
        "gaussian.self_s": (module_self("gaussian"), "s"),
        "schemes.output_state.calls": (calls["schemes.output_state"], "count"),
        "schemes.output_state.self_s": (exclusive["schemes.output_state"], "s"),
        "schemes.find_dark_fringe.calls": (calls["schemes.find_dark_fringe"], "count"),
        "schemes.find_dark_fringe.s": (inclusive["schemes.find_dark_fringe"], "s"),
        "schemes.port_snr.calls": (calls["schemes.port_snr"], "count"),
        "schemes.port_snr.s": (inclusive["schemes.port_snr"], "s"),
        "schemes.measurement_model.s": (inclusive["schemes.measurement_model"], "s"),
        "bogoliubov.transfers": (counts["bogoliubov.transfers"], "count"),
        "bogoliubov.self_s": (module_self("bogoliubov"), "s"),
        "spectra.samples": (counts["spectra.samples"], "count"),
        "spectra.noise_bytes": (counts["spectra.noise_bytes"], "B-computed"),
        "spectra.simulate_currents.s": (inclusive["spectra.simulate_currents"], "s"),
        "spectra.welch_psd.calls": (calls["spectra.welch_psd"], "count"),
        "spectra.welch_psd.samples": (counts["spectra.welch_psd.samples"], "count"),
        "spectra.welch_psd.s": (inclusive["spectra.welch_psd"], "s"),
        "spectra.readout.s": (
            sum(inclusive[f"spectra.{f}"] for f in ("extract_peak_snr", "tone_power", "band_floor")),
            "s",
        ),
        "spectra.combine.s": (inclusive["spectra.calibrate_k"] + inclusive["spectra.combine_currents"], "s"),
        "cli.cmd_snr.self_s": (exclusive["cli.cmd_snr"], "s"),
        "cli.cmd_simulate.self_s": (exclusive["cli.cmd_simulate"], "s"),
        "cli.out_bytes": (counts["cli.out_bytes"], "B"),
    }
    out = {name: (per_round(value, rounds), unit) for name, (value, unit) in raw.items()}
    # Pipeline evaluations per completed lock: a ratio of exact counts, not
    # a per-round total.  A lock cut short by an error is left out.
    out["schemes.find_dark_fringe.evals_per_lock"] = (lock_evals / locks if locks else 0.0, "evals")
    for check_id in check_ids:
        out[f"verify.{check_id}.s"] = (checks[check_id] / rounds, "s")
    return out
