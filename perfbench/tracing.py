"""Spans around the calls into each usctraj layer, and the per-layer metrics.

The wrappers live here, in the benchmark, not in the program.  Each one
replaces a name in the module that looks it up, so ``ensemble.uniform_words``
is wrapped apart from ``rng.uniform_words``.  A span holds a name
("<layer>.<function>"), start, end, its parent's index, and a work count
(steps, words or jumps) where the call has one.  Spans stay in memory and
are written out when the run ends.  A target a later change removes is
listed as missing and its metrics are reported as not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

# (module that looks the name up, attribute, span name)
TARGETS = (
    ("usctraj.cli", "calibrate_resonance", "model.calibrate_resonance"),
    ("usctraj.model", "full_hamiltonian", "model.full_hamiltonian"),
    ("usctraj.system", "full_hamiltonian", "model.full_hamiltonian"),
    ("usctraj.system", "effective_hamiltonian", "model.effective_hamiltonian"),
    ("usctraj.cli", "build_system", "system.build_system"),
    ("usctraj.ensemble", "build_system", "system.build_system"),
    ("usctraj.cli", "run_ensemble", "ensemble.run_ensemble"),
    ("usctraj.ensemble", "_discover_flows", "ensemble._discover_flows"),
    ("usctraj.ensemble", "_build_flow", "ensemble._build_flow"),
    ("usctraj.ensemble", "_sample_grouped", "ensemble._sample_grouped"),
    ("usctraj.ensemble", "uniform_words", "rng.uniform_words"),
    ("usctraj.rng", "uniform_words", "rng.uniform_words"),
    ("usctraj.rng", "normal_words", "rng.normal_words"),
    ("usctraj.ensemble", "run_trajectory", "mcwf.run_trajectory"),
    ("usctraj.cli", "ensemble_average", "mcwf.ensemble_average"),
    ("usctraj.cli", "run_trajectory_homodyne", "homodyne.run_trajectory_homodyne"),
    ("usctraj.cli", "evolve_lme", "lme.evolve_lme"),
    ("usctraj.cli", "first_jump_histogram", "stats.first_jump_histogram"),
    ("usctraj.cli", "conditional_second_jump_histogram",
     "stats.conditional_second_jump_histogram"),
    ("usctraj.cli", "_write_table", "cli._write_table"),
    ("usctraj.cli", "_write_histograms", "cli._write_histograms"),
)


def _steps(bound: inspect.BoundArguments, result) -> int:
    a = bound.arguments
    return int(round(a["t_final"] / a["dt"]))


def _trajectory_work(bound, result) -> tuple[int, int]:
    return _steps(bound, result), len(result.jumps)


# Work counted per span name: a function of (bound arguments, result).
WORK = {
    "ensemble._build_flow": lambda b, r: int(b.arguments["n_steps"]),
    "mcwf.run_trajectory": _trajectory_work,
    "homodyne.run_trajectory_homodyne": _trajectory_work,
    "lme.evolve_lme": _steps,
}


class Tracer:
    """Collects spans; ``install`` wraps every target that still exists."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                try:
                    span[4] = work(sig.bind(*args, **kwargs), result)
                except (KeyError, TypeError, AttributeError, IndexError):
                    span[4] = None
            elif name.startswith("rng."):
                span[4] = int(np.size(result))
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn))


# Every per-layer metric the traced run reports, with its unit.
UNITS = {
    "model.calibrate_s": "s", "model.hamiltonian_builds": "count", "model.self_s": "s",
    "system.build_s": "s", "system.self_s": "s",
    "ensemble.flow_build_s": "s", "ensemble.flows": "count",
    "ensemble.flow_steps": "count", "ensemble.sample_s": "s",
    "ensemble.sample_us_per_traj": "us", "ensemble.self_s": "s",
    "rng.calls": "count", "rng.words": "count", "rng.s": "s",
    "mcwf.run_s": "s", "mcwf.steps": "count", "mcwf.us_per_step": "us",
    "mcwf.jumps": "count", "mcwf.average_s": "s", "mcwf.self_s": "s",
    "homodyne.run_s": "s", "homodyne.steps": "count", "homodyne.us_per_step": "us",
    "homodyne.jumps": "count", "homodyne.self_s": "s",
    "lme.run_s": "s", "lme.steps": "count", "lme.ms_per_step": "ms",
    "stats.histogram_s": "s",
    "cli.write_s": "s", "cli.bytes_written": "bytes",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count", "proc.threads": "count",
}


# Metric name -> span names it is computed from; a metric whose spans all
# have missing targets is not measured.
SOURCES = {
    "model.calibrate_s": ["model.calibrate_resonance"],
    "model.hamiltonian_builds": ["model.full_hamiltonian", "model.effective_hamiltonian"],
    "model.self_s": ["model.calibrate_resonance", "model.full_hamiltonian",
                     "model.effective_hamiltonian"],
    "system.build_s": ["system.build_system"],
    "system.self_s": ["system.build_system"],
    "ensemble.flow_build_s": ["ensemble._build_flow"],
    "ensemble.flows": ["ensemble._build_flow"],
    "ensemble.flow_steps": ["ensemble._build_flow"],
    "ensemble.sample_s": ["ensemble._sample_grouped"],
    "ensemble.sample_us_per_traj": ["ensemble._sample_grouped"],
    "ensemble.self_s": ["ensemble.run_ensemble", "ensemble._discover_flows",
                        "ensemble._build_flow", "ensemble._sample_grouped"],
    "rng.calls": ["rng.uniform_words", "rng.normal_words"],
    "rng.words": ["rng.uniform_words", "rng.normal_words"],
    "rng.s": ["rng.uniform_words", "rng.normal_words"],
    "mcwf.run_s": ["mcwf.run_trajectory"],
    "mcwf.steps": ["mcwf.run_trajectory"],
    "mcwf.us_per_step": ["mcwf.run_trajectory"],
    "mcwf.jumps": ["mcwf.run_trajectory"],
    "mcwf.average_s": ["mcwf.ensemble_average"],
    "mcwf.self_s": ["mcwf.run_trajectory", "mcwf.ensemble_average"],
    "homodyne.run_s": ["homodyne.run_trajectory_homodyne"],
    "homodyne.steps": ["homodyne.run_trajectory_homodyne"],
    "homodyne.us_per_step": ["homodyne.run_trajectory_homodyne"],
    "homodyne.jumps": ["homodyne.run_trajectory_homodyne"],
    "homodyne.self_s": ["homodyne.run_trajectory_homodyne"],
    "lme.run_s": ["lme.evolve_lme"],
    "lme.steps": ["lme.evolve_lme"],
    "lme.ms_per_step": ["lme.evolve_lme"],
    "stats.histogram_s": ["stats.first_jump_histogram",
                          "stats.conditional_second_jump_histogram"],
    "cli.write_s": ["cli._write_table", "cli._write_histograms"],
}


def not_measured(missing: list[str]) -> list[str]:
    """Metrics all of whose span names lost every wrap target."""
    gone = set(missing)
    live = {name for module, attr, name in TARGETS if f"{module}.{attr}" not in gone}
    return [m for m, names in SOURCES.items() if not live.intersection(names)]


def layer_metrics(spans: list[list], wall: float) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    Self time is a span's duration minus its children's.  Every layer's
    self time appears in exactly one metric (``<layer>.self_s`` or, for
    layers whose spans have no children, their total time), so those
    metrics plus ``trace.unattributed_s`` (time in no span) sum to
    ``trace.wall_s``.
    """
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            self_t[s[3]] -= d

    def pick(prefix):
        return [i for i, s in enumerate(spans) if s[0].startswith(prefix)]

    def total(prefix, times=dur):
        return float(sum(times[i] for i in pick(prefix)))

    def work(prefix, k=None):
        w = [spans[i][4] for i in pick(prefix) if spans[i][4] is not None]
        return float(sum(x if k is None else x[k] for x in w))

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    rng_outer = [i for i in pick("rng.") if spans[i][3] < 0
                 or not spans[spans[i][3]][0].startswith("rng.")]
    m = {
        "model.calibrate_s": total("model.calibrate_resonance"),
        "model.hamiltonian_builds": float(len(pick("model.full_hamiltonian"))
                                          + len(pick("model.effective_hamiltonian"))),
        "model.self_s": total("model.", self_t),
        "system.build_s": total("system.build_system"),
        "system.self_s": total("system.", self_t),
        "ensemble.flow_build_s": total("ensemble._build_flow"),
        "ensemble.flows": float(len(pick("ensemble._build_flow"))),
        "ensemble.flow_steps": work("ensemble._build_flow"),
        "ensemble.sample_s": total("ensemble._sample_grouped"),
        "ensemble.self_s": total("ensemble.", self_t),
        "rng.calls": float(len(rng_outer)),
        "rng.words": float(sum(spans[i][4] or 0 for i in rng_outer)),
        "rng.s": float(sum(dur[i] for i in rng_outer)),
        "mcwf.run_s": total("mcwf.run_trajectory"),
        "mcwf.steps": work("mcwf.run_trajectory", 0),
        "mcwf.jumps": work("mcwf.run_trajectory", 1),
        "mcwf.average_s": total("mcwf.ensemble_average"),
        "mcwf.self_s": total("mcwf.", self_t),
        "homodyne.run_s": total("homodyne.run_trajectory_homodyne"),
        "homodyne.steps": work("homodyne.run_trajectory_homodyne", 0),
        "homodyne.jumps": work("homodyne.run_trajectory_homodyne", 1),
        "homodyne.self_s": total("homodyne.", self_t),
        "lme.run_s": total("lme.evolve_lme"),
        "lme.steps": work("lme.evolve_lme"),
        "stats.histogram_s": total("stats."),
        # Self time: _write_histograms also builds the histograms (stats).
        "cli.write_s": total("cli.", self_t),
        "trace.wall_s": wall,
        "trace.spans": float(len(spans)),
    }
    m["ensemble.sample_us_per_traj"] = per(
        m["ensemble.sample_s"], len(pick("ensemble._sample_grouped")), 1e6)
    m["mcwf.us_per_step"] = per(m["mcwf.run_s"], m["mcwf.steps"], 1e6)
    m["homodyne.us_per_step"] = per(m["homodyne.run_s"], m["homodyne.steps"], 1e6)
    m["lme.ms_per_step"] = per(m["lme.run_s"], m["lme.steps"], 1e3)
    accounted = sum(m[k] for k in SELF_TIME_METRICS)
    m["trace.unattributed_s"] = wall - accounted
    return m


# The metrics that hold each layer's self time exactly once.
SELF_TIME_METRICS = (
    "model.self_s", "system.self_s", "ensemble.self_s", "rng.s", "mcwf.self_s",
    "homodyne.self_s", "lme.run_s", "stats.histogram_s", "cli.write_s",
)
