"""Same-bytes gate: run two trees of usctraj on the same inputs, compare outputs.

    python tools/samebytes.py --base <rev> [--head <rev> | --tree <dir>]
                              [--cases a,b,...] [--scratch <dir>]

The base revision is checked out with ``git worktree`` under a scratch
directory (a new one in ``--scratch``, default the system temp
directory), which is removed at the end.  The head is the checkout holding
this script (uncommitted changes included), another revision (``--head``),
or any directory with a ``src/usctraj`` (``--tree``).

The inputs are the shipped presets, each through the subcommand the
README's preset table pairs it with, and the workloads of
``perfbench/run.py`` (``WORKLOADS``, read from the head tree) at seed 7.
Every case runs as one CLI process, one process at a time, base first.  A
case is the same when both runs exit with the same code, write the same
files with the same bytes, print the same stderr, and print the same stdout
once each run's output directory is replaced by ``<out>``.

Every case runs.  Each case that differs is named with every output that
differs (exit code, files, stderr, stdout) and, for text, the number of its
first differing line.  Exit 0 when every case is the same, 1 when any case
differs; a usage or git failure exits 2.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import tempfile
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


def workload_cases(tree: Path) -> list[Case]:
    """The perfbench workloads at the fixed seed."""
    spec = importlib.util.spec_from_file_location("_perfbench_run", tree / "perfbench/run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return [
        Case(name, w.command, w.config.format(seed=WORKLOAD_SEED))
        for name, w in module.WORKLOADS.items()
    ]


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]


def run_case(tree: Path, case: Case, workdir: Path) -> Result:
    shutil.rmtree(workdir, ignore_errors=True)
    out = workdir / "out"
    workdir.mkdir(parents=True)
    config = case.name
    if case.ini is not None:
        config = str(workdir / f"{case.name}.ini")
        Path(config).write_text(case.ini)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "usctraj.cli", case.command, "--config", config,
         "--out", str(out)],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    files = {}
    if out.is_dir():
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return Result(proc.returncode, proc.stdout.replace(str(out), "<out>"),
                  proc.stderr, files)


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
    parser.add_argument("--scratch", type=Path, help="parent of the scratch directory")
    args = parser.parse_args(argv)

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
        differing = []
        for case in cases:
            base = run_case(trees["base"], case, scratch / "runs" / "base")
            head_result = run_case(trees["head"], case, scratch / "runs" / "head")
            found = differences(base, head_result)
            if found:
                differing.append(case.name)
                print(f"DIFFERS {case.name} ({case.command}):", flush=True)
                for item in found:
                    print(f"    {item}", flush=True)
            else:
                print(f"same    {case.name} ({case.command}): exit {base.code}, "
                      f"{len(head_result.files)} files", flush=True)
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
