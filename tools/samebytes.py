"""Same-bytes gate: run two trees of usctraj on the same inputs, compare outputs.

    python tools/samebytes.py --base <rev> [--head <rev> | --tree <dir>]
                              [--cases a,b,...] [--repeat k] [--bench <file>]
                              [--scratch <dir>]

The base revision is checked out with ``git worktree`` under a scratch
directory (a new one in ``--scratch``, default the system temp
directory), which is removed at the end.  The head is the checkout holding
this script (uncommitted changes included), another revision (``--head``),
or any directory with a ``src/usctraj`` (``--tree``).

The inputs are the shipped presets, each through the subcommand the
README's preset table pairs it with, and the workloads of
``perfbench/run.py`` (``WORKLOADS``, read from the head tree) at seed 7.
Every run is one CLI process, one process at a time.  Each case runs k
times per tree (``--repeat``, default 1) in pairs, base first in the 1st,
3rd, ... pair and head first in the others, so that neither tree always
runs on a machine warmed by the other.  A pair is the same when both runs
exit with the same code, write the same files with the same bytes, print
the same stderr, and print the same stdout once each run's output directory
is replaced by ``<out>``; a case is the same when every pair is.  Each
case's line also gives the median wall time, CPU time
(``ru_utime + ru_stime``) and peak RSS (``ru_maxrss``) of each tree's runs,
from ``os.wait4``; they inform and never change the verdict.
``--bench <file>`` also writes them as JSON (``bench_record``): each case's
median and quartiles of each tree's runs, the two revisions, and the
machine facts a child process sees (``machine_facts``).
This process imports no numpy and keeps no run's outputs past its pair, so
a run's peak RSS is the CLI's own.

Every case runs.  Each case that differs is named with every output that
differs (exit code, files, stderr, stdout) and, for text, the number of its
first differing line.  Exit 0 when every case is the same, 1 when any case
differs; a usage or git failure exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEED = 7


@dataclass(frozen=True)
class Case:
    name: str  # a preset name, or the name of the INI file ``ini`` is written to
    command: str
    ini: str | None = None


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout


def preset_cases(tree: Path) -> list[Case]:
    """Each shipped preset with the subcommand of its README table row."""
    presets = sorted(p.stem for p in (tree / "src/usctraj/presets").glob("*.ini"))
    row = re.compile(r"^\| `(\w+?)([a-z]?)`(?:-`\w+?([a-z])`)? \| `([\w-]+)` \|")
    command = {}
    for line in (tree / "README.md").read_text().splitlines():
        m = row.match(line)
        if not m:
            continue
        stem, first, last, sub = m.groups()
        letters = [chr(c) for c in range(ord(first), ord(last or first) + 1)] if first else [""]
        for letter in letters:
            command[stem + letter] = sub
    missing = [p for p in presets if p not in command]
    if missing:
        print(f"error: no README subcommand for presets {missing}", file=sys.stderr)
        raise SystemExit(2)
    return [Case(p, command[p]) for p in presets]


# Prints the ``WORKLOADS`` of the perfbench/run.py named by argv[1] as JSON.
_PRINT_WORKLOADS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("_perfbench_run", sys.argv[1])
module = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = module  # its dataclasses look their module up
spec.loader.exec_module(module)
print(json.dumps([[name, w.command, w.config] for name, w in module.WORKLOADS.items()]))
"""


def workload_cases(tree: Path) -> list[Case]:
    """The perfbench workloads at the fixed seed.

    They are read in a child process: perfbench/run.py imports numpy and
    scipy, and a process this one starts would begin at the RSS they add
    (about 100 MB), so every case's peak RSS would read at least that.
    """
    listing = subprocess.run(
        [sys.executable, "-c", _PRINT_WORKLOADS, str(tree / "perfbench/run.py")],
        check=True, capture_output=True, text=True,
    ).stdout
    return [
        Case(name, command, config.format(seed=WORKLOAD_SEED))
        for name, command, config in json.loads(listing)
    ]


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0


# Prints the machine facts of a process started like a CLI run, as JSON.
_PRINT_MACHINE = """
import json, os, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count(),
    "blas": {"name": blas.get("name"), "version": blas.get("version")},
    # the CLI sets this to 1 when it is unset (usctraj/cli.py)
    "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
}))
"""

USAGE = ("wall_s", "cpu_s", "rss_mb")


def machine_facts() -> dict:
    """Cores in the affinity mask, the BLAS numpy links, its thread setting, versions.

    Read in a child process, for the reason ``workload_cases`` gives.
    """
    out = subprocess.run([sys.executable, "-c", _PRINT_MACHINE],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def quartiles(values: Sequence[float]) -> dict[str, float]:
    """The first quartile, median and third quartile of values ("inclusive" method)."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def bench_record(revisions: dict, machine: dict, repeat: int, cases: list[dict]) -> dict:
    """The --bench JSON: each case's name, command, verdict and per-tree usage quartiles.

    Each item of cases holds ``name``, ``command``, ``same`` and, per tree
    (``base``, ``head``), its runs as (wall_s, cpu_s, rss_mb) tuples.
    """
    return {
        **revisions,
        "repeat": repeat,
        "machine": machine,
        "cases": [
            {"name": c["name"], "command": c["command"], "same": c["same"],
             **{role: {name: quartiles(column)
                       for name, column in zip(USAGE, zip(*c[role]))}
                for role in ("base", "head")}}
            for c in cases
        ],
    }


def _revisions(base: str, head: str | None, tree: Path) -> dict:
    """The base and head commits; ``head_dirty`` when the head tree's src/ has changes."""
    record = {"base": _git("rev-parse", base).strip(), "head": None, "head_dirty": None}
    if head is not None:
        record.update(head=_git("rev-parse", head).strip(), head_dirty=False)
        return record
    try:
        record["head"] = _git("-C", str(tree), "rev-parse", "HEAD").strip()
        record["head_dirty"] = bool(_git("-C", str(tree), "status", "--porcelain", "--", "src"))
    except subprocess.CalledProcessError:
        pass  # a --tree outside any git checkout
    return record


def median_usage(runs: list[tuple[float, float, float]]) -> str:
    """The median wall time, CPU time and peak RSS of (wall_s, cpu_s, rss_mb) runs."""
    wall, cpu, rss = (statistics.median(column) for column in zip(*runs))
    return f"{wall:.2f} s (CPU {cpu:.2f} s) {rss:.0f} MB"


def run_case(tree: Path, case: Case, workdir: Path) -> Result:
    shutil.rmtree(workdir, ignore_errors=True)
    out = workdir / "out"
    workdir.mkdir(parents=True)
    config = case.name
    if case.ini is not None:
        config = str(workdir / f"{case.name}.ini")
        Path(config).write_text(case.ini)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    # the streams go to files beside the output, so that os.wait4 can reap
    # the process and report its own peak RSS
    with open(workdir / "stdout.txt", "w+") as stdout, \
            open(workdir / "stderr.txt", "w+") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "usctraj.cli", case.command, "--config", config,
             "--out", str(out)],
            cwd=workdir, env=env, stdout=stdout, stderr=stderr,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        streams = stdout.read(), stderr.read()
    files = {}
    if out.is_dir():
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return Result(proc.returncode, streams[0].replace(str(out), "<out>"), streams[1], files,
                  wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _first_differing_line(a: str, b: str) -> int:
    """1-based number of the first line where two texts differ."""
    la, lb = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return n
    return min(len(la), len(lb)) + 1


def differences(base: Result, head: Result) -> list[str]:
    """Every output in which the two runs differ, with its first differing line."""
    found = []
    if base.code != head.code:
        found.append(f"exit code {base.code} != {head.code}")
    for name in sorted(set(base.files) | set(head.files)):
        if name not in base.files or name not in head.files:
            found.append(f"{name} written by one tree only")
        elif base.files[name] != head.files[name]:
            line = _first_differing_line(
                base.files[name].decode(errors="replace"),
                head.files[name].decode(errors="replace"),
            )
            found.append(f"{name} line {line}")
    for stream in ("stderr", "stdout"):
        a, b = getattr(base, stream), getattr(head, stream)
        if a != b:
            found.append(f"{stream} line {_first_differing_line(a, b)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    head = parser.add_mutually_exclusive_group()
    head.add_argument("--head", help="git revision to test (default: this checkout)")
    head.add_argument("--tree", type=Path, help="directory to test (default: this checkout)")
    parser.add_argument("--cases", help="comma-separated case names (default: all)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of each case per tree, alternating which runs first")
    parser.add_argument("--bench", type=Path,
                        help="also write each case's usage quartiles and the machine as JSON")
    parser.add_argument("--scratch", type=Path, help="parent of the scratch directory")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    scratch = Path(tempfile.mkdtemp(prefix="samebytes-", dir=args.scratch)).resolve()
    worktrees = []
    try:
        trees = {}
        for role, rev in (("base", args.base), ("head", args.head)):
            if rev is None:
                continue
            path = scratch / role
            try:
                _git("worktree", "add", "--detach", str(path), rev)
            except subprocess.CalledProcessError as exc:
                print(f"error: git worktree add {rev}: {exc.stderr.strip()}", file=sys.stderr)
                return 2
            worktrees.append(path)
            trees[role] = path
        trees.setdefault("head", (args.tree or ROOT).resolve())

        cases = preset_cases(trees["head"]) + workload_cases(trees["head"])
        if args.cases:
            wanted = args.cases.split(",")
            unknown = set(wanted) - {c.name for c in cases}
            if unknown:
                print(f"error: unknown cases {sorted(unknown)}", file=sys.stderr)
                return 2
            cases = [c for c in cases if c.name in wanted]
        differing, measured = [], []
        for case in cases:
            runs = {"base": [], "head": []}
            found = []
            for repeat in range(args.repeat):
                pair = {}
                for role in ("base", "head") if repeat % 2 == 0 else ("head", "base"):
                    pair[role] = run_case(trees[role], case, scratch / "runs" / role)
                    runs[role].append((pair[role].wall_s, pair[role].cpu_s, pair[role].rss_mb))
                prefix = f"repeat {repeat + 1}: " if args.repeat > 1 else ""
                found += [prefix + item for item in differences(pair["base"], pair["head"])]
            measured.append({"name": case.name, "command": case.command, "same": not found,
                             **runs})
            usage = f"base {median_usage(runs['base'])}, head {median_usage(runs['head'])}"
            if found:
                differing.append(case.name)
                print(f"DIFFERS {case.name} ({case.command}): {usage}", flush=True)
                for item in found:
                    print(f"    {item}", flush=True)
            else:
                print(f"same    {case.name} ({case.command}): exit {pair['base'].code}, "
                      f"{len(pair['head'].files)} files; {usage}", flush=True)
        if args.bench is not None:
            record = bench_record(_revisions(args.base, args.head, trees["head"]),
                                  machine_facts(), args.repeat, measured)
            args.bench.write_text(json.dumps(record, indent=1) + "\n")
        if differing:
            print(f"{len(differing)} of {len(cases)} cases differ: {', '.join(differing)}")
            return 1
        print(f"all {len(cases)} cases byte-identical")
        return 0
    finally:
        for path in worktrees:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)],
                           capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
