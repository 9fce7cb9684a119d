"""Output checks for the benchmark's workloads.

Each check reads a CSV the ``usctraj`` CLI wrote and compares it with a
computation made apart from the trajectory engines, or with a property the
physics requires.  None compares against a stored copy of earlier output.

- ``check_mean_vs_lme``: every recorded ensemble mean lies within
  3 SE + 3/N of the Lindblad solution written beside it (criterion 08's
  rule; the 3/N floor covers the zero spread before the first jump).
- ``check_first_jump``: first-jump counts per channel and bin match
  N * int gamma_m |c_m(t)|^2 dt, where c(t) is propagated here by the
  exponential of the {|1,g,g>, |0,e,e>} block of the effective
  Hamiltonian with -i kappa/2 and -i (gamma1 + gamma2 + gamma_c)/2 on its
  diagonal.  Pearson chi^2 per channel must stay below its 1e-9 upper
  quantile.
- ``check_conditional``: after a qubit-1 trigger the state lies in the
  one-qubit-excitation block, which the cavity's dressed lowering operator
  annihilates, so the conditional histogram holds no cavity second jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.stats import chi2

CHANNELS = ("cavity", "qubit1", "qubit2", "collective")
OBSERVABLES = ("cavity", "qubit1", "qubit2")

# Upper tail probability at which a chi^2 statistic counts as a rejection.
CHI2_TAIL = 1e-9


@dataclass
class CheckResult:
    ok: bool
    detail: str


@dataclass
class Table:
    """A CLI CSV: resolved config from its header, column names and rows."""

    config: dict[str, str]
    columns: list[str]
    rows: np.ndarray
    trajectories: int | None = None


def read_table(path: Path) -> Table:
    config, columns, trajectories, data = {}, [], None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# ["):
            key, _, value = line[2:].partition(" = ")
            config[key.split("] ", 1)[1]] = value
        elif line.startswith("# columns: "):
            columns = line[len("# columns: "):].split(",")
        elif line.startswith("# bin_start,"):
            columns = line[2:].split(",")
        elif line.startswith("# trajectories="):
            trajectories = int(line.split("=", 1)[1])
        elif line and not line.startswith("#"):
            data.append([float(v) for v in line.split(",")])
    rows = np.array(data, dtype=float).reshape(len(data), len(columns))
    return Table(config, columns, rows, trajectories)


def _column(table: Table, name: str) -> np.ndarray:
    return table.rows[:, table.columns.index(name)]


def _expected_grid(cfg: dict[str, str]) -> np.ndarray:
    dt, record_every = float(cfg["dt"]), int(cfg["record_every"])
    n_steps = int(round(float(cfg["t_final"]) / dt))
    return np.arange(0, n_steps + 1, record_every) * dt


def check_mean_vs_lme(path: Path) -> CheckResult:
    """|mean - LME| <= 3 SE + 3/N at every recorded time and observable."""
    t = read_table(path)
    n = int(t.config["n_trajectories"])
    grid = _expected_grid(t.config)
    if t.rows.shape[0] != grid.size or not np.allclose(_column(t, "time"), grid):
        return CheckResult(False, f"time grid has {t.rows.shape[0]} rows, want {grid.size}")
    if not np.all(np.isfinite(t.rows)):
        return CheckResult(False, "non-finite values in the comparison table")
    worst, where = 0.0, ""
    for label in OBSERVABLES:
        dev = np.abs(_column(t, f"{label}_mcwf") - _column(t, f"{label}_lme"))
        ratio = dev / (3.0 * _column(t, f"{label}_se") + 3.0 / n)
        i = int(np.argmax(ratio))
        if ratio[i] > worst:
            worst, where = float(ratio[i]), f"{label} at t = {grid[i]:g}"
    detail = f"worst |mean - LME| / (3 SE + 3/N) = {worst:.3f} ({where or 'none'})"
    return CheckResult(worst <= 1.0, detail)


def _histogram(t: Table) -> np.ndarray:
    """(channel, bin) counts from an absolute-normalized histogram table."""
    counts = np.stack([_column(t, f"{c}_absolute") for c in CHANNELS])
    if np.any(counts < 0) or np.any(counts != np.round(counts)):
        raise ValueError("histogram counts are not nonnegative integers")
    return counts


def channel_rates(cfg: dict[str, str]) -> dict[str, float]:
    return {
        "cavity": float(cfg["kappa"]),
        "qubit1": float(cfg["gamma1"]),
        "qubit2": float(cfg["gamma2"]),
        "collective": float(cfg["gamma_c"]),
    }


def _block_hamiltonian(cfg: dict[str, str]) -> np.ndarray:
    """The {|1,g,g>, |0,e,e>} block of the effective Hamiltonian at the
    resolved (calibrated) parameters the header records."""
    from usctraj.hilbert import build_layout
    from usctraj.model import SystemParams, effective_hamiltonian

    names = ("omega0", "delta", "omega_c", "g", "theta")
    p = SystemParams(**{k: float(cfg[k]) for k in names})
    layout = build_layout(int(cfg["n_fock"]))
    flag = {"auto": None, "on": True, "off": False}[cfg["qubit_exchange"]]
    h = effective_hamiltonian(p, layout, flag).matrix
    idx = [layout.index(1, 0, 0), layout.index(0, 1, 1)]
    return h[np.ix_(idx, idx)]


def expected_first_jumps(
    cfg: dict[str, str], edges: np.ndarray, n_traj: int, kappa_scale: float = 1.0
) -> np.ndarray:
    """N * int_bin gamma_m |c_m(t)|^2 dt per (channel, bin).

    ``kappa_scale`` multiplies the cavity rate; the checks' self-test uses
    it to draw counts from a wrong model.
    """
    rates = channel_rates(cfg)
    rates["cavity"] *= kappa_scale
    h = _block_hamiltonian(cfg).astype(complex)
    h[0, 0] -= 0.5j * rates["cavity"]
    h[1, 1] -= 0.5j * (rates["qubit1"] + rates["qubit2"] + rates["collective"])
    # Fine quadrature grid: 40 points per bin resolves the slow
    # one-photon-two-atom beat (period ~ pi / |omega3|) many times over.
    per_bin = 40
    out = np.empty((len(CHANNELS), edges.size - 1))
    for b in range(edges.size - 1):
        ts = np.linspace(edges[b], edges[b + 1], per_bin + 1)
        c = np.stack([expm(-1j * h * t)[:, 0] for t in ts])
        pop = np.abs(c) ** 2  # (time, {1gg, 0ee})
        density = {
            "cavity": rates["cavity"] * pop[:, 0],
            "qubit1": rates["qubit1"] * pop[:, 1],
            "qubit2": rates["qubit2"] * pop[:, 1],
            "collective": rates["collective"] * pop[:, 1],
        }
        for m, label in enumerate(CHANNELS):
            out[m, b] = n_traj * np.trapezoid(density[label], ts)
    return out


def check_first_jump(path: Path) -> CheckResult:
    t = read_table(path)
    try:
        counts = _histogram(t)
    except ValueError as exc:
        return CheckResult(False, str(exc))
    edges = np.append(_column(t, "bin_start"), _column(t, "bin_end")[-1])
    n = int(t.config["n_trajectories"])
    if t.trajectories != int(counts.sum()):
        return CheckResult(False, f"trajectories={t.trajectories} but counts sum to {int(counts.sum())}")
    expected = expected_first_jumps(t.config, edges, n)
    ok, parts = True, []
    for m, label in enumerate(CHANNELS):
        o, e = counts[m], expected[m]
        if not np.any(e > 0):
            # A channel with zero rate can never fire.
            ok &= bool(np.all(o == 0))
            parts.append(f"{label} (rate 0) {'silent' if np.all(o == 0) else 'fired'}")
            continue
        stat = float(np.sum((o - e) ** 2 / e))
        ok &= bool(stat <= chi2.isf(CHI2_TAIL, e.size))
        parts.append(f"{label} {stat / e.size:.2f}")
    return CheckResult(ok, "chi2/dof " + ", ".join(parts))


def check_conditional(path: Path, first_path: Path) -> CheckResult:
    t = read_table(path)
    first = read_table(first_path)
    try:
        counts = _histogram(t)
        first_counts = _histogram(first)
    except ValueError as exc:
        return CheckResult(False, str(exc))
    trigger = t.config["trigger_channel"]
    total = int(counts.sum())
    if t.trajectories != total:
        return CheckResult(False, f"trajectories={t.trajectories} but counts sum to {total}")
    cavity = int(counts[CHANNELS.index("cavity")].sum())
    if cavity:
        return CheckResult(False, f"{cavity} cavity second jumps after a {trigger} trigger")
    rates = channel_rates(t.config)
    silent = [c for c in CHANNELS if rates[c] == 0.0 and counts[CHANNELS.index(c)].any()]
    if silent:
        return CheckResult(False, f"zero-rate channels fired: {silent}")
    triggered = int(first_counts[CHANNELS.index(trigger)].sum())
    if not 0 < total <= triggered:
        return CheckResult(
            False, f"{total} second jumps from {triggered} {trigger}-first trajectories"
        )
    return CheckResult(True, f"{total} second jumps, none from the cavity")
