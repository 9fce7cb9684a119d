"""Command-line experiment runner.

Experiments are archived artifacts: every run is described by a config
file (flat INI sections [system], [run], [output]), physics never enters
through positional flags, and every output file embeds the fully
resolved configuration plus the code version so a result can always be
traced back to its inputs.  Output contains no timestamps, so rerunning
a config byte-reproduces its files.

Subcommands
-----------
spectrum     eigenvalue scan over qubit detuning (full and effective)
trajectory   individual trajectories: expectation series + jump log
ensemble     averaged series and jump histograms over many trajectories
compare-lme  trajectory average vs master equation, with deviation report

Named presets (fig1a .. fig7) ship with the package and can be passed
directly to --config.
"""

from __future__ import annotations

import os

# The engines multiply matrices of dimension 24-40, where extra BLAS threads
# only add CPU time; set before numpy loads, so a value in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, TruncationError
from .hilbert import build_layout
from .mcwf import DRIFT_MODES, _monitored, ensemble_average
from .lme import density_from_state, evolve_lme
from .model import (
    SystemParams,
    calibrate_resonance,
    effective_hamiltonian,
    full_hamiltonian,
)
from .ensemble import ENSEMBLE_METHODS, run_ensemble
from .rng import SEED_LIMIT
from .stats import (
    NORMALIZATION_MODES,
    conditional_second_jump_histogram,
    first_jump_histogram,
    write_histogram_csv,
)
from .dressed import CHANNEL_LABELS
from .system import (
    HAMILTONIAN_CHOICES,
    INITIAL_STATE_LABELS,
    OBSERVABLE_LABELS,
    TOP_FOCK,
    build_system,
)

SOLVERS = ("mcwf", "homodyne", "mixed", "lme")
CALIBRATION_CHOICES = ("none", "full", "effective")
HISTOGRAM_CHOICES = ("none", "first", "conditional", "both")

# Highest-Fock-level occupation allowed by --check-truncation.
TRUNCATION_CEILING = 1e-6

_FLOAT_FMT = "%.12g"


@dataclass(frozen=True)
class ExperimentConfig:
    """One archived experiment: system block, run block, output block.

    The fields are the config schema, in header order.  A field whose
    metadata names a "section" opens that INI section for itself and the
    fields after it; a key's type is the type of its default (``_kind``).
    An omitted dt (None) becomes the step of the solver's unravelling.
    """

    omega0: float = field(default=1.0, metadata={"section": "system"})
    delta: float = 0.0
    omega_c: float = 2.0
    g: float = 0.1
    theta: float = math.pi / 6.0
    kappa: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma_c: float = 0.0
    n_fock: int = 10
    calibrate: str = "none"
    # "auto" keeps the qubit-exchange coupling only for near-identical
    # qubits; "on"/"off" force it, e.g. to keep the effective spectrum
    # smooth through the branch point.
    qubit_exchange: str = "auto"
    solver: str = field(default="mcwf", metadata={"section": "run"})
    hamiltonian: str = "full"
    t_final: float = 1000.0
    dt: float | None = None
    n_trajectories: int = 1
    master_seed: int = 0
    initial_state: str = "1gg"
    observables: tuple[str, ...] = OBSERVABLE_LABELS
    record_every: int = 1
    method: str = "auto"
    drift_mode: str = "qsd"
    homodyne_channels: tuple[str, ...] = ("cavity",)
    delta_min: float = -0.3
    delta_max: float = 0.3
    delta_points: int = 61
    levels: int = 6
    directory: str = field(default=".", metadata={"section": "output"})
    prefix: str = "run"
    formats: str = "csv"
    histogram: str = "none"
    first_bin_width: float = 2000.0
    conditional_bin_width: float = 50.0
    trigger_channel: str = "qubit1"
    normalization: str = "per-bin"

    def __post_init__(self):
        checks = (
            ("calibrate", CALIBRATION_CHOICES),
            ("qubit_exchange", ("auto", "on", "off")),
            ("solver", SOLVERS),
            ("hamiltonian", HAMILTONIAN_CHOICES),
            ("initial_state", INITIAL_STATE_LABELS),
            ("method", ENSEMBLE_METHODS),
            ("drift_mode", DRIFT_MODES),
            ("histogram", HISTOGRAM_CHOICES),
            ("trigger_channel", CHANNEL_LABELS),
            ("normalization", NORMALIZATION_MODES),
        )
        for name, allowed in checks:
            if getattr(self, name) not in allowed:
                raise ConfigError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}"
                )
        for label in self.observables:
            if label not in OBSERVABLE_LABELS:
                raise ConfigError(f"unknown observable {label!r}")
        for label in self.homodyne_channels:
            if label not in CHANNEL_LABELS:
                raise ConfigError(f"unknown homodyne channel {label!r}")
        if self.dt is None:
            object.__setattr__(self, "dt", _monitored(self.homodyned, self.drift_mode, None)[1])
        for f in fields(self):
            value = getattr(self, f.name)
            if _kind(f) is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if not self.observables:
            raise ConfigError("observables must not be empty")
        if self.solver == "mixed" and not self.homodyne_channels:
            raise ConfigError("homodyne_channels must name a channel under solver = mixed")
        if self.homodyned and self.method == "grouped":
            raise ConfigError(
                f"method = grouped needs solver = mcwf; solver = {self.solver} "
                "runs the direct kernel (method = auto or direct)"
            )
        if self.n_trajectories < 1:
            raise ConfigError("n_trajectories must be >= 1")
        if not 0 <= self.master_seed < SEED_LIMIT:  # the first word of every stream's key
            raise ConfigError(f"master_seed must lie in 0 .. 2**64 - 1, got {self.master_seed}")
        for name in ("t_final", "dt"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.delta_points < 2:
            raise ConfigError("delta_points must be >= 2")
        build_layout(self.n_fock)  # n_fock >= 2, named before the levels range
        if not 1 <= self.levels <= 4 * self.n_fock:
            raise ConfigError(
                f"levels must lie in 1 .. 4 * n_fock = {4 * self.n_fock}, got {self.levels}"
            )
        if self.formats != "csv":
            raise ConfigError("formats: only 'csv' is supported")
        if self.first_bin_width <= 0 or self.conditional_bin_width <= 0:
            raise ConfigError("histogram bin widths must be positive")

    @property
    def homodyned(self) -> tuple[str, ...]:
        """The channels the solver sends to a homodyne detector; the rest are photodetected."""
        return {"homodyne": CHANNEL_LABELS, "mixed": self.homodyne_channels}.get(self.solver, ())

    def exchange_flag(self) -> bool | None:
        return {"auto": None, "on": True, "off": False}[self.qubit_exchange]

    def system_params(self) -> SystemParams:
        return SystemParams(
            **{f.name: getattr(self, f.name) for f in fields(SystemParams)}
        )


def _kind(f) -> type:
    """A config key's type: its default's, and float for dt (default None)."""
    return float if f.default is None else type(f.default)


def _sections() -> dict[str, str]:
    """INI section of every config key, in field order."""
    sections, section = {}, ""
    for f in fields(ExperimentConfig):
        section = f.metadata.get("section", section)
        sections[f.name] = section
    return sections


def _coerce(kind: type, raw: str):
    if kind is tuple:
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    return kind(raw)


def load_config(spec: str) -> ExperimentConfig:
    """Load a config file or a shipped preset name."""
    import configparser

    path = Path(spec)
    if path.is_file():
        text = path.read_text()
        prefix = path.stem
    else:
        preset = resources.files("usctraj").joinpath(f"presets/{spec}.ini")
        if not preset.is_file():
            raise ConfigError(
                f"config {spec!r} is neither a file nor a shipped preset"
            )
        text = preset.read_text()
        prefix = spec

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=spec)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if parser.defaults():
        raise ConfigError(
            f"keys in [{parser.default_section}] are not supported; "
            "put each key in its own section"
        )
    sections = _sections()
    kinds = {f.name: _kind(f) for f in fields(ExperimentConfig)}
    values: dict = {"prefix": prefix}
    for section in parser.sections():
        if section not in sections.values():
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if sections.get(key) != section:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[key] = _coerce(kinds[key], raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    return ExperimentConfig(**values)


def _calibrated(cfg: ExperimentConfig) -> ExperimentConfig:
    """The config with the calibration step applied to its omega_c."""
    if cfg.calibrate == "none":
        return cfg
    p = calibrate_resonance(cfg.system_params(), build_layout(cfg.n_fock), which=cfg.calibrate)
    return replace(cfg, **asdict(p))


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ", ".join(v)
    return str(v)


def _header(cfg: ExperimentConfig) -> str:
    """Resolved-config header; after ``_calibrated``, omega_c is the calibrated value."""
    lines = [f"# usctraj {__version__}\n"]
    for key, section in _sections().items():
        # Where the files go is not part of the experiment, and leaving it
        # out keeps a rerun into another directory byte-identical.
        if key != "directory":
            value = _fmt_value(getattr(cfg, key))
            lines.append(f"# [{section}] {key} = {value}\n")
    return "".join(lines)


def _write_table(path: Path, header: str, columns: list[tuple[str, np.ndarray]]):
    names = ",".join(name for name, _ in columns)
    data = np.column_stack([np.asarray(col, dtype=float) for _, col in columns])
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(f"# columns: {names}\n")
        for row in data:
            fh.write(",".join(_FLOAT_FMT % v for v in row) + "\n")


def _check_truncation(top: float, n_fock: int):
    """Reject runs whose top Fock level population exceeds the ceiling."""
    if top > TRUNCATION_CEILING:
        raise TruncationError(
            f"top Fock level (n = {n_fock - 1}) population {top:.3g} exceeds "
            f"{TRUNCATION_CEILING}; increase n_fock"
        )


def _out_dir(cfg: ExperimentConfig, out_flag: str | None) -> Path:
    """The output directory, checked before any work; ``_make_dir`` creates it."""
    out = Path(out_flag) if out_flag is not None else Path(cfg.directory)
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"output path {out} cannot be a directory: {existing} is not one")
    return out


def _make_dir(out: Path) -> Path:
    """Create the output directory once the run has succeeded."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_spectrum(cfg: ExperimentConfig, out: Path, check_truncation) -> list[Path]:
    layout = build_layout(cfg.n_fock)
    deltas = np.linspace(cfg.delta_min, cfg.delta_max, cfg.delta_points)
    full_levels = np.empty((cfg.delta_points, cfg.levels))
    eff_levels = np.empty((cfg.delta_points, cfg.levels))
    top = 0.0  # largest top-Fock population among the kept levels
    for i, d in enumerate(deltas):
        p = _calibrated(replace(cfg, delta=float(d))).system_params()
        for matrix, store in (
            (full_hamiltonian(p, layout).matrix, full_levels),
            (effective_hamiltonian(p, layout, cfg.exchange_flag()).matrix, eff_levels),
        ):
            evals = np.linalg.eigvalsh(matrix)
            store[i] = evals[: cfg.levels] - evals[0]
            if check_truncation:
                vecs = np.linalg.eigh(matrix)[1][:, : cfg.levels]
                top = max(top, float(np.max(np.sum(np.abs(vecs[TOP_FOCK]) ** 2, axis=0))))
    if check_truncation:
        _check_truncation(top, cfg.n_fock)
    header = _header(cfg)
    cols = [("delta", deltas)]
    cols += [(f"full_{k}", full_levels[:, k]) for k in range(cfg.levels)]
    cols += [(f"effective_{k}", eff_levels[:, k]) for k in range(cfg.levels)]
    path = _make_dir(out) / f"{cfg.prefix}_spectrum.csv"
    _write_table(path, header, cols)
    return [path]


def _build_system(cfg: ExperimentConfig):
    return build_system(
        cfg.system_params(), n_fock=cfg.n_fock, hamiltonian=cfg.hamiltonian,
        include_qubit_exchange=cfg.exchange_flag(),
    )


def _run_records(cfg: ExperimentConfig, check_truncation: bool):
    """System and EnsembleResult of the configured stochastic solver."""
    system = _build_system(cfg)
    result = run_ensemble(
        system, system.initial_state(cfg.initial_state), cfg.t_final, cfg.n_trajectories,
        dt=cfg.dt, master_seed=cfg.master_seed, record_every=cfg.record_every,
        method=cfg.method, homodyne_channels=cfg.homodyned, drift_mode=cfg.drift_mode,
    )
    if check_truncation:
        _check_truncation(result.top_fock_peak, cfg.n_fock)
    return system, result


def _lme_series(cfg: ExperimentConfig, system, check_truncation: bool):
    """Master-equation series from the configured initial state."""
    rho0 = density_from_state(system.initial_state(cfg.initial_state), system.layout)
    series = evolve_lme(
        system, rho0, cfg.t_final, cfg.dt, record_every=cfg.record_every
    )
    if check_truncation:
        _check_truncation(series.top_fock_peak, cfg.n_fock)
    return series


def cmd_trajectory(cfg, out: Path, check_truncation) -> list[Path]:
    cfg = _calibrated(cfg)
    system, result = _run_records(cfg, check_truncation)
    _make_dir(out)
    header = _header(cfg)
    written = []
    for i, row in enumerate(result.rows):
        cols = [("time", result.time_grid)]
        cols += [(label, row[OBSERVABLE_LABELS.index(label)]) for label in cfg.observables]
        path = out / f"{cfg.prefix}_traj{i}.csv"
        _write_table(path, header, cols)
        written.append(path)
    jump_path = out / f"{cfg.prefix}_jumps.csv"
    with open(jump_path, "w") as fh:
        fh.write(header)
        fh.write("# columns: traj_index,time,channel,"
                 + ",".join(f"dp_{c}" for c in CHANNEL_LABELS) + "\n")
        for i, time, channel, dp in zip(result.jump_traj, result.jump_time,
                                        result.jump_channel, result.jump_dp):
            dp = ",".join(_FLOAT_FMT % v for v in dp)
            fh.write(f"{i},{_FLOAT_FMT % time},{CHANNEL_LABELS[channel]},{dp}\n")
    written.append(jump_path)
    return written


def _write_histograms(cfg, result, header, out: Path) -> list[Path]:
    hists = {}
    if cfg.histogram in ("first", "both"):
        hists["first_jump"] = first_jump_histogram(result, cfg.first_bin_width)
    if cfg.histogram in ("conditional", "both"):
        hists["conditional"] = conditional_second_jump_histogram(
            result, cfg.trigger_channel, cfg.conditional_bin_width
        )
    written = []
    for name, hist in hists.items():
        path = out / f"{cfg.prefix}_{name}_hist.csv"
        with open(path, "w") as fh:
            fh.write(header)
            write_histogram_csv(hist, fh, mode=cfg.normalization)
        written.append(path)
    return written


def cmd_ensemble(cfg, out: Path, check_truncation) -> list[Path]:
    cfg = _calibrated(cfg)
    header = _header(cfg)
    if cfg.solver == "lme":
        series = _lme_series(cfg, _build_system(cfg), check_truncation)
        cols = [("time", series.time_grid)]
        cols += [(label, series.expectations[label]) for label in cfg.observables]
        path = _make_dir(out) / f"{cfg.prefix}_lme.csv"
        _write_table(path, header, cols)
        return [path]
    system, result = _run_records(cfg, check_truncation)
    avg = ensemble_average(result)
    cols = [("time", avg.time_grid)]
    for label in cfg.observables:
        cols.append((f"{label}_mean", avg.means[label]))
        cols.append((f"{label}_se", avg.standard_errors[label]))
    path = _make_dir(out) / f"{cfg.prefix}_mean.csv"
    _write_table(path, header, cols)
    return [path] + _write_histograms(cfg, result, header, out)


def cmd_compare_lme(cfg, out: Path, check_truncation) -> list[Path]:
    cfg = _calibrated(cfg)
    system, result = _run_records(cfg, check_truncation)
    series = _lme_series(cfg, system, check_truncation)
    avg = ensemble_average(result)
    header = _header(cfg)
    cols = [("time", avg.time_grid)]
    # Worst deviation as a fraction of criterion 08's allowance 3 SE + 3/N;
    # the 3/N term keeps it finite where every trajectory shares one state
    # (before the first jump), so the SE vanishes.
    worst = (0.0, "", 0.0)  # (fraction of the allowance, observable, time)
    worst_abs = 0.0
    for label in cfg.observables:
        diff = np.abs(avg.means[label] - series.expectations[label])
        se = avg.standard_errors[label]
        worst_abs = max(worst_abs, float(diff.max()))
        frac = diff / (3.0 * se + 3.0 / cfg.n_trajectories)
        i = int(np.argmax(frac))
        if frac[i] > worst[0]:
            worst = (float(frac[i]), label, float(avg.time_grid[i]))
        cols.append((f"{label}_lme", series.expectations[label]))
        cols.append((f"{label}_mcwf", avg.means[label]))
        cols.append((f"{label}_se", se))
    path = _make_dir(out) / f"{cfg.prefix}_compare.csv"
    _write_table(path, header, cols)
    if cfg.n_trajectories > 1:
        print(
            f"max deviation {worst[0]:.3f} of 3 SE + 3/N ({worst[1]} at t = "
            f"{_FLOAT_FMT % worst[2]}); "
            f"max |mcwf - lme| = {worst_abs:.3e}"
        )
    else:
        print(
            "standard errors undefined for a single trajectory; "
            f"max |mcwf - lme| = {worst_abs:.3e}"
        )
    return [path]


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "trajectory": cmd_trajectory,
    "ensemble": cmd_ensemble,
    "compare-lme": cmd_compare_lme,
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usctraj",
        description="Quantum-trajectory experiments for two qubits "
        "ultrastrongly coupled to a cavity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="config file path or shipped preset name")
        sp.add_argument("--out", default=None,
                        help="output directory (default: config [output] directory)")
        sp.add_argument("--check-truncation", action="store_true",
                        help="fail if the top Fock level becomes populated")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.solver == "lme" and args.command in ("trajectory", "compare-lme"):
            raise ConfigError(f"{args.command} needs a trajectory solver (mcwf, homodyne "
                              "or mixed); solver = lme runs only under ensemble")
        out = _out_dir(cfg, args.out)
        written = _COMMANDS[args.command](cfg, out, args.check_truncation)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
