"""Benchmark of the usctraj ensemble paths through its CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its ``src``.
Each operation is one CLI invocation in a fresh process, and operations run
one at a time (a closed loop with one client) until ``--seconds`` have
passed.  Every operation's outputs are checked (see checks.py); one that
exits non-zero or fails a check counts in ``failed``.

--trace 0 reports the end-to-end metrics, medians over the run's operations:
wall_s, cpu_s and peak_rss_mb of the CLI process, and setup_s, the median of
several fresh processes that only import usctraj, load the config,
calibrate and build the system.

--trace 1 runs rounds of one untraced and one traced in-process call of
``usctraj.cli.main`` (probe.py) and reports the per-layer metrics of
tracing.py, medians over the traced calls, with trace.overhead_s the
difference of the traced and untraced median wall times.

The last line of standard output is the JSON result.  OpenBLAS threads are
left as the environment sets them; the run prints that setting and the
thread count it observed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import tracing  # noqa: E402

# Set-up processes per run (after one untimed warm-up that compiles the
# bytecode and fills the file cache, which a user pays once).
SETUP_REPEATS = 9
# No operation starts, and none may run on, past this many seconds after
# the benchmark started: the whole run must end within 180 s.
DEADLINE_S = 170.0

_SYSTEM = """\
[system]
omega0 = 1.0
delta = 0.0
omega_c = 2.0
g = 0.1
theta = 0.5235987755982988
n_fock = {n_fock}
calibrate = {calibrate}
kappa = {kappa}
gamma1 = {gamma}
gamma2 = {gamma}
gamma_c = {gamma_c}
"""

_RUN = """
[run]
solver = {solver}
hamiltonian = {hamiltonian}
t_final = {t_final}
dt = {dt}
n_trajectories = {n_traj}
master_seed = {{seed}}
initial_state = 1gg
observables = cavity, qubit1, qubit2
record_every = {record_every}
"""


@dataclass(frozen=True)
class Workload:
    command: str
    config: str  # INI text with a {seed} field


WORKLOADS = {
    # Fig. 2b physics: flow construction, grouped sampling with bulk
    # uniform words, both histograms; memory grows with the ensemble.
    "grouped-conditional": Workload(
        command="ensemble",
        config=_SYSTEM.format(n_fock=10, calibrate="full", kappa=4e-5, gamma=4e-5,
                              gamma_c=0.0)
        + _RUN.format(solver="mcwf", hamiltonian="effective", t_final=60000,
                      dt=0.5, n_traj=3000, record_every=100)
        + "method = grouped\n\n[output]\nhistogram = both\n"
        "first_bin_width = 2000.0\nconditional_bin_width = 50.0\n"
        "trigger_channel = qubit1\nnormalization = absolute\n",
    ),
    # Fig. 7 physics, shortened: the direct per-step MCWF loop and the
    # Strang-split LME each take about half the time.
    "direct-vs-lme": Workload(
        command="compare-lme",
        config=_SYSTEM.format(n_fock=10, calibrate="full", kappa=4e-5, gamma=4e-5,
                              gamma_c=4e-5)
        + _RUN.format(solver="mcwf", hamiltonian="full", t_final=1000, dt=0.5,
                      n_traj=60, record_every=10)
        + "method = direct\n",
    ),
    # Fig. 6b measurement over an ensemble at criterion 09's rates: the
    # homodyne step with per-step normal draws, closed-form calibration.
    "mixed-unravelling": Workload(
        command="compare-lme",
        config=_SYSTEM.format(n_fock=6, calibrate="effective", kappa=2e-3, gamma=2e-3,
                              gamma_c=0.0)
        + _RUN.format(solver="mixed", hamiltonian="effective", t_final=300, dt=0.1,
                      n_traj=80, record_every=10)
        + "drift_mode = qsd\nhomodyne_channels = cavity\n",
    ),
}


def check_outputs(name: str, out: Path) -> list[checks.CheckResult]:
    """Apply the workload's output checks to the files in ``out``."""
    if name == "grouped-conditional":
        first = out / f"{name}_first_jump_hist.csv"
        return [checks.check_first_jump(first),
                checks.check_conditional(out / f"{name}_conditional_hist.csv", first)]
    return [checks.check_mean_vs_lme(out / f"{name}_compare.csv")]


@dataclass
class Outcome:
    ok: bool
    wall: float
    cpu: float
    rss_mb: float
    detail: str
    report: dict = field(default_factory=dict)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], workdir: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run one process to its end: (exit code, wall s, CPU s, peak RSS MB).

    ``os.wait4`` gives this child's own resource usage; a timer kills it
    past ``timeout``.
    """
    with open(workdir / "stdout.txt", "w") as out, open(workdir / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def _read_report(path: Path) -> dict:
    report = json.loads(path.read_text())
    module = Path(report["module"]).resolve()
    if SRC.resolve() not in module.parents:
        raise RuntimeError(f"usctraj was imported from {module}, not from {SRC}")
    return report


def run_operation(name: str, seed: int, workdir: Path, mode: str, timeout: float) -> Outcome:
    """One CLI run (mode "cli"), or one in-process run ("plain"/"traced")."""
    w = WORKLOADS[name]
    shutil.rmtree(workdir, ignore_errors=True)
    out = workdir / "out"
    out.mkdir(parents=True)
    config = workdir / f"{name}.ini"
    config.write_text(w.config.format(seed=seed))
    cli_args = [w.command, "--config", str(config), "--out", str(out)]
    report_path = workdir / "report.json"
    if mode == "cli":
        argv = [sys.executable, "-m", "usctraj.cli"] + cli_args
    else:
        argv = [sys.executable, str(HERE / "probe.py"), mode, str(report_path)] + cli_args
    rc, wall, cpu, rss = spawn(argv, workdir, timeout)
    if rc != 0:
        tail = (workdir / "stderr.txt").read_text().strip().splitlines()[-3:]
        return Outcome(False, wall, cpu, rss, f"exit {rc}: {' | '.join(tail)}")
    report = _read_report(report_path) if mode != "cli" else {}
    try:
        results = check_outputs(name, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(False, wall, cpu, rss, f"unreadable output: {exc!r}", report)
    report["bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
    detail = "; ".join(r.detail for r in results)
    return Outcome(all(r.ok for r in results), wall, cpu, rss, detail, report)


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Wall times of fresh set-up processes; the first is an untimed warm-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / f"{name}.ini"
    config.write_text(WORKLOADS[name].config.format(seed=seed))
    report = workdir / "setup.json"
    times, threads = [], 0
    for i in range(SETUP_REPEATS + 1):
        argv = [sys.executable, str(HERE / "probe.py"), "setup", str(config), str(report)]
        rc, wall, _, _ = spawn(argv, workdir, 60.0)
        if rc != 0:
            err = (workdir / "stderr.txt").read_text().strip().splitlines()[-3:]
            raise RuntimeError(f"set-up process exited {rc}: {' | '.join(err)}")
        threads = _read_report(report)["threads"]
        if i:
            times.append(wall)
    print("setup: " + " ".join(f"{t:.3f}" for t in times)
          + f" s; {threads} threads after set-up", flush=True)
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}



def _machine_line() -> str:
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"machine: cores={os.cpu_count()} OPENBLAS_NUM_THREADS={blas} "
            f"python={platform.python_version()}")


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    begin = time.perf_counter()
    tag = f"{name}-{seed}-{os.getpid()}"
    scratch = RUNS / tag
    print(_machine_line(), flush=True)
    setup_times = [] if trace else measure_setup(name, seed, scratch / "setup")
    modes = ("plain", "traced") if trace else ("cli",)
    outcomes: dict[str, list[Outcome]] = {m: [] for m in modes}
    spans: list = []
    missing: list[str] = []
    start = time.perf_counter()
    last_round = 0.0
    while True:
        elapsed = time.perf_counter() - begin
        if outcomes[modes[0]] and (time.perf_counter() - start >= seconds
                                   or elapsed + last_round > DEADLINE_S):
            break
        round_start = time.perf_counter()
        for mode in modes:
            timeout = max(10.0, DEADLINE_S - (time.perf_counter() - begin))
            o = run_operation(name, seed, scratch / mode, mode, timeout)
            outcomes[mode].append(o)
            print(f"{mode} op {len(outcomes[mode])}: {'ok' if o.ok else 'FAILED'} "
                  f"wall {o.wall:.3f} s cpu {o.cpu:.3f} s rss {o.rss_mb:.1f} MB; {o.detail}",
                  flush=True)
            if mode == "traced" and o.ok:
                spans, missing = o.report["spans"], o.report["missing"]
        last_round = time.perf_counter() - round_start
    shutil.rmtree(scratch, ignore_errors=True)

    every = [o for ops in outcomes.values() for o in ops]
    failed = sum(not o.ok for o in every)
    if trace:
        metrics = _layer_result(name, seed, outcomes, spans, missing)
    else:
        good = [o for o in outcomes["cli"] if o.ok] or outcomes["cli"]
        med = statistics.median
        metrics = {
            "wall_s": _metric(med(o.wall for o in good), "s"),
            "cpu_s": _metric(med(o.cpu for o in good), "s"),
            "peak_rss_mb": _metric(med(o.rss_mb for o in good), "MB"),
            "setup_s": _metric(med(setup_times), "s"),
        }
    return {"correct": failed == 0, "attempted": len(every), "failed": failed,
            "metrics": metrics}


def _layer_result(name, seed, outcomes, spans, missing) -> dict:
    traced = [o for o in outcomes["traced"] if o.ok]
    plain = [o for o in outcomes["plain"] if o.ok]
    per_op = [tracing.layer_metrics(o.report["spans"], o.report["wall"]) for o in traced]
    values = {}
    for key in tracing.UNITS:
        if per_op and key in per_op[0]:
            values[key] = statistics.median(m[key] for m in per_op)
    if traced and plain:
        values["trace.overhead_s"] = (statistics.median(o.report["wall"] for o in traced)
                                      - statistics.median(o.report["wall"] for o in plain))
    values["cli.bytes_written"] = float(statistics.median(
        o.report["bytes_written"] for o in traced)) if traced else 0.0
    values["proc.threads"] = float(plain[0].report["threads"]) if plain else 0.0
    skipped = tracing.not_measured(missing)
    if skipped:
        print("not measured (reported as 0): " + ", ".join(skipped), flush=True)
    if per_op:
        parts = " + ".join(f"{k} {values[k]:.3f}" for k in tracing.SELF_TIME_METRICS
                           if values.get(k))
        print(f"self times: {parts} + unattributed {values['trace.unattributed_s']:.3f}"
              f" = wall {values['trace.wall_s']:.3f} s", flush=True)
    RUNS.mkdir(parents=True, exist_ok=True)
    (RUNS / f"trace-{name}-{seed}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "spans": spans, "missing": missing,
         "not_measured": skipped, "metrics": values}))
    return {k: _metric(float(values.get(k, 0.0)), u) for k, u in tracing.UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "usctraj" / "cli.py").is_file():
        print(f"error: no usctraj sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed % 2**32, args.seconds, bool(args.trace))
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
