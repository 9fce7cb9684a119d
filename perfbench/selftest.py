"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload once through the CLI (seed 1) and requires every check
to accept that output and to reject a deliberately wrong copy of it:

- first-jump counts drawn from Poisson laws with kappa doubled (counts
  drawn with the nominal kappa must still pass);
- a cavity count placed in the conditional histogram;
- an ensemble mean shifted by 4 SE + 3/N.

Exits 0 when every check behaves, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

import run
from checks import (
    CHANNELS,
    OBSERVABLES,
    check_conditional,
    check_first_jump,
    check_mean_vs_lme,
    expected_first_jumps,
    read_table,
)

SEED = 1


def rewrite(src: Path, dst: Path, rows: np.ndarray, trajectories: int | None = None) -> Path:
    """Copy a CLI table with its data rows (and trajectory count) replaced."""
    header = [line for line in src.read_text().splitlines() if line.startswith("#")]
    if trajectories is not None:
        header = [f"# trajectories={trajectories}" if h.startswith("# trajectories=") else h
                  for h in header]
    body = [",".join("%.17g" % v for v in row) for row in rows]
    dst.write_text("\n".join(header + body) + "\n")
    return dst


def with_counts(src: Path, dst: Path, counts: np.ndarray) -> Path:
    t = read_table(src)
    rows = t.rows.copy()
    for m, label in enumerate(CHANNELS):
        rows[:, t.columns.index(f"{label}_absolute")] = counts[m]
    return rewrite(src, dst, rows, int(counts.sum()))


def cases(name: str, out: Path):
    """(description, check result, expected verdict) for one workload's output."""
    if name == "grouped-conditional":
        first = out / f"{name}_first_jump_hist.csv"
        cond = out / f"{name}_conditional_hist.csv"
        yield "first-jump histogram as written", check_first_jump(first), True
        yield "conditional histogram as written", check_conditional(cond, first), True

        t = read_table(first)
        edges = np.append(t.rows[:, 0], t.rows[-1, 1])
        n = int(t.config["n_trajectories"])
        rng = np.random.default_rng(0)
        for scale, verdict in ((1.0, True), (2.0, False)):
            drawn = rng.poisson(expected_first_jumps(t.config, edges, n, kappa_scale=scale))
            path = with_counts(first, out / f"drawn_kappa_x{scale:g}.csv", drawn)
            yield f"first-jump counts drawn with kappa x{scale:g}", check_first_jump(path), verdict

        c = read_table(cond)
        counts = np.stack([c.rows[:, c.columns.index(f"{m}_absolute")] for m in CHANNELS])
        counts[CHANNELS.index("cavity"), counts.shape[1] // 2] += 1
        path = with_counts(cond, out / "cavity_in_conditional.csv", counts)
        yield "cavity count placed in the conditional histogram", \
            check_conditional(path, first), False
        return

    table = out / f"{name}_compare.csv"
    yield "ensemble means as written", check_mean_vs_lme(table), True
    t = read_table(table)
    n = int(t.config["n_trajectories"])
    for label in OBSERVABLES:
        rows = t.rows.copy()
        se = rows[:, t.columns.index(f"{label}_se")]
        rows[:, t.columns.index(f"{label}_mcwf")] += 4.0 * se + 3.0 / n
        path = rewrite(table, out / f"shifted_{label}.csv", rows)
        yield f"{label} mean shifted by 4 SE + 3/N", check_mean_vs_lme(path), False


def main() -> int:
    bad = 0
    for name in run.WORKLOADS:
        workdir = run.RUNS / f"selftest-{name}"
        o = run.run_operation(name, SEED, workdir, "cli", timeout=170.0)
        try:
            for what, result, want in cases(name, workdir / "out"):
                good = result.ok == want
                bad += not good
                verdict = "accepted" if result.ok else "rejected"
                print(f"{'ok  ' if good else 'FAIL'} {name}: {what}: {verdict} "
                      f"({result.detail})")
        except OSError as exc:
            print(f"FAIL {name}: no output ({o.detail}; {exc})")
            bad += 1
        shutil.rmtree(workdir, ignore_errors=True)
    print("all checks behave" if not bad else f"{bad} checks misbehave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
