"""The same-bytes gate script: its inputs and its comparison rule."""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_gate():
    spec = importlib.util.spec_from_file_location("samebytes", ROOT / "tools/samebytes.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def test_every_preset_runs_through_its_readme_subcommand():
    cases = {c.name: c.command for c in gate.preset_cases(ROOT)}
    presets = {p.stem for p in (ROOT / "src/usctraj/presets").glob("*.ini")}
    assert set(cases) == presets and len(presets) == 15
    assert cases["fig1b"] == cases["fig3c"] == "trajectory"
    assert cases["fig2b"] == "ensemble"
    assert cases["fig5"] == "spectrum"
    assert cases["fig7"] == "compare-lme"


def test_workloads_come_from_the_benchmark_at_seed_7():
    cases = gate.workload_cases(ROOT)
    assert [c.name for c in cases] == ["grouped-conditional", "direct-vs-lme",
                                       "mixed-unravelling"]
    assert all("master_seed = 7\n" in c.ini for c in cases)


def test_reading_the_workloads_imports_no_numpy():
    # a child's peak RSS starts from its parent's, so the gate stays small:
    # the workloads are read in a process of their own
    gate_path = str(ROOT / "tools/samebytes.py")
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('gate', {gate_path!r})\n"
        "gate = importlib.util.module_from_spec(spec)\n"
        "sys.modules['gate'] = gate\n"
        "spec.loader.exec_module(gate)\n"
        f"cases = gate.workload_cases(gate.Path({str(ROOT)!r}))\n"
        "print(len(cases), 'numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["3", "False"]


def result(files, code=0, stdout="<out>/a.csv\n", stderr=""):
    return gate.Result(code, stdout, stderr, files)


def test_first_difference_names_the_first_differing_output():
    base = result({"a.csv": b"1\n", "b.csv": b"2\n"})
    assert gate.differences(base, result(dict(base.files))) == []
    assert gate.differences(base, result({"a.csv": b"1\n", "b.csv": b"3\n"})) == [
        "b.csv line 1"
    ]
    assert gate.differences(base, result({"a.csv": b"1\n"})) == [
        "b.csv written by one tree only"
    ]
    assert gate.differences(base, result(base.files, code=3)) == ["exit code 0 != 3"]
    assert gate.differences(base, result(base.files, stderr="x")) == ["stderr line 1"]
    assert gate.differences(base, result(base.files, stdout="x")) == ["stdout line 1"]


def test_differences_names_every_differing_file_and_its_first_differing_line():
    base = result({"a.csv": b"# h\n1,2\n3,4\n", "b.csv": b"x\ny\n", "c.csv": b"z\n"},
                  stdout="<out>/a.csv\n<out>/b.csv\n")
    head = result({"a.csv": b"# h\n1,2\n3,5\n", "b.csv": b"x\ny\nextra\n", "c.csv": b"z\n"},
                  code=1, stdout="<out>/a.csv\n<out>/B.csv\n", stderr="warning\n")
    assert gate.differences(base, head) == [
        "exit code 0 != 1",
        "a.csv line 3",
        "b.csv line 3",
        "stderr line 1",
        "stdout line 2",
    ]


def test_every_case_runs_and_any_difference_exits_1(monkeypatch, capsys, tmp_path):
    cases = [gate.Case(name, "ensemble") for name in ("a", "b", "c")]
    monkeypatch.setattr(gate, "preset_cases", lambda tree: cases)
    monkeypatch.setattr(gate, "workload_cases", lambda tree: [])
    monkeypatch.setattr(gate, "_git", lambda *args: "")
    monkeypatch.setattr(gate.subprocess, "run", lambda *args, **kwargs: None)

    def run_case(tree, case, workdir):
        head = workdir.name == "head"
        changed = head and case.name in ("a", "b")
        return gate.Result(0, "", "", {"x.csv": b"2\n" if changed else b"1\n"},
                           wall_s=2.5 if head else 1.25, cpu_s=2.25 if head else 1.0,
                           rss_mb=99.6 if head else 203.0)

    monkeypatch.setattr(gate, "run_case", run_case)
    assert gate.main(["--base", "HEAD", "--scratch", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    usage = "base 1.25 s (CPU 1.00 s) 203 MB, head 2.50 s (CPU 2.25 s) 100 MB"
    assert out == [
        f"DIFFERS a (ensemble): {usage}",
        "    x.csv line 1",
        f"DIFFERS b (ensemble): {usage}",
        "    x.csv line 1",
        f"same    c (ensemble): exit 0, 1 files; {usage}",
        "2 of 3 cases differ: a, b",
    ]


def test_a_case_reports_its_exit_code_streams_files_time_and_peak_rss(tmp_path):
    # a real CLI run: a config error exits 2 before any work, with no files
    ini = "[run]\nsolver = mcwf\nt_final = -1\n"
    run = gate.run_case(ROOT, gate.Case("bad", "ensemble", ini), tmp_path / "head")
    assert run.code == 2 and run.files == {} and run.stdout == ""
    assert run.stderr.startswith("error: ")
    assert run.wall_s > 0.0 and run.rss_mb > 10.0
    # the CLI's own CPU time: its imports at least, about one core's worth at most
    assert 0.0 < run.cpu_s < 1.5 * run.wall_s


def test_repeats_alternate_which_tree_runs_first_and_report_medians(
    monkeypatch, capsys, tmp_path
):
    cases = [gate.Case(name, "ensemble") for name in ("a", "b")]
    monkeypatch.setattr(gate, "preset_cases", lambda tree: cases)
    monkeypatch.setattr(gate, "workload_cases", lambda tree: [])
    monkeypatch.setattr(gate, "_git", lambda *args: "")
    monkeypatch.setattr(gate.subprocess, "run", lambda *args, **kwargs: None)
    calls = []

    def run_case(tree, case, workdir):
        role = workdir.name
        n = sum(1 for c, r in calls if (c, r) == (case.name, role))
        calls.append((case.name, role))
        # case b's head differs in its third pair only
        changed = case.name == "b" and role == "head" and n == 2
        wall, cpu, rss = [(1.0, 0.5, 100.0), (9.0, 4.0, 300.0), (2.0, 1.5, 90.0)][n]
        if role == "head":
            wall, cpu, rss = wall + 10.0, cpu + 10.0, rss + 1.0
        return gate.Result(0, "", "", {"x.csv": b"2\n" if changed else b"1\n"},
                           wall_s=wall, cpu_s=cpu, rss_mb=rss)

    monkeypatch.setattr(gate, "run_case", run_case)
    assert gate.main(["--base", "HEAD", "--repeat", "3", "--scratch", str(tmp_path)]) == 1
    alternating = ["base", "head", "head", "base", "base", "head"]
    assert calls == [("a", role) for role in alternating] + [("b", role) for role in alternating]
    usage = "base 2.00 s (CPU 1.50 s) 100 MB, head 12.00 s (CPU 11.50 s) 101 MB"
    assert capsys.readouterr().out.splitlines() == [
        f"same    a (ensemble): exit 0, 1 files; {usage}",
        f"DIFFERS b (ensemble): {usage}",
        "    repeat 3: x.csv line 1",
        "1 of 2 cases differ: b",
    ]


def test_bench_writes_each_cases_usage_quartiles_the_revisions_and_the_machine(
    monkeypatch, tmp_path
):
    cases = [gate.Case(name, command) for name, command in (("a", "ensemble"), ("b", "trajectory"))]
    monkeypatch.setattr(gate, "preset_cases", lambda tree: cases)
    monkeypatch.setattr(gate, "workload_cases", lambda tree: [])
    monkeypatch.setattr(gate.subprocess, "run", lambda *args, **kwargs: None)
    revisions = {("rev-parse", "v1"): "b" * 40 + "\n", ("rev-parse", "HEAD"): "h" * 40 + "\n"}
    monkeypatch.setattr(gate, "_git", lambda *args: revisions.get(
        args[-2:], " M src/usctraj/ensemble.py\n" if "status" in args else ""))
    machine = {"cores": 2, "blas": {"name": "scipy-openblas", "version": "0.3.31"},
               "openblas_num_threads": "1", "python": "3.11.7", "numpy": "2.4.6",
               "scipy": "1.17.1"}
    monkeypatch.setattr(gate, "machine_facts", lambda: machine)
    usage = {"base": [(4.0, 2.0, 100.0), (1.0, 3.0, 102.0), (2.0, 1.0, 101.0)],
             "head": [(3.0, 1.5, 90.0), (3.0, 1.5, 91.0), (5.0, 2.5, 92.0)]}
    seen = []

    def run_case(tree, case, workdir):
        role = workdir.name
        n = seen.count((case.name, role))
        seen.append((case.name, role))
        wall, cpu, rss = usage[role][n]
        changed = case.name == "b" and role == "head" and n == 1
        return gate.Result(0, "", "", {"x.csv": b"2\n" if changed else b"1\n"},
                           wall_s=wall, cpu_s=cpu, rss_mb=rss)

    monkeypatch.setattr(gate, "run_case", run_case)
    path = tmp_path / "BENCH.json"
    argv = ["--base", "v1", "--repeat", "3", "--bench", str(path), "--scratch", str(tmp_path)]
    assert gate.main(argv) == 1
    sides = {
        "base": {"wall_s": {"q1": 1.5, "median": 2.0, "q3": 3.0},
                 "cpu_s": {"q1": 1.5, "median": 2.0, "q3": 2.5},
                 "rss_mb": {"q1": 100.5, "median": 101.0, "q3": 101.5}},
        "head": {"wall_s": {"q1": 3.0, "median": 3.0, "q3": 4.0},
                 "cpu_s": {"q1": 1.5, "median": 1.5, "q3": 2.0},
                 "rss_mb": {"q1": 90.5, "median": 91.0, "q3": 91.5}},
    }
    assert json.loads(path.read_text()) == {
        "base": "b" * 40,
        "head": "h" * 40,
        "head_dirty": True,
        "repeat": 3,
        "machine": machine,
        "cases": [{"name": "a", "command": "ensemble", "same": True, **sides},
                  {"name": "b", "command": "trajectory", "same": False, **sides}],
    }


def test_one_run_is_its_own_median_and_quartiles():
    assert gate.quartiles([2.5]) == {"q1": 2.5, "median": 2.5, "q3": 2.5}


@pytest.mark.parametrize("given", [None, "3"])
def test_the_machine_facts_are_those_of_a_child_process(monkeypatch, given):
    # an unset OPENBLAS_NUM_THREADS reads as the 1 the CLI's runs set
    if given is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
    facts = gate.machine_facts()
    assert set(facts) == {"cores", "blas", "openblas_num_threads", "python", "numpy", "scipy"}
    if hasattr(os, "sched_getaffinity"):
        assert facts["cores"] == len(os.sched_getaffinity(0))
    assert facts["openblas_num_threads"] == (given or "1")
    assert facts["python"] == platform.python_version()
    assert set(facts["blas"]) == {"name", "version"} and facts["blas"]["name"]
    assert facts["numpy"] and facts["scipy"]
