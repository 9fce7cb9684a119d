"""The same-bytes gate script: its inputs and its comparison rule."""

import importlib.util
import sys
from pathlib import Path

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
        changed = workdir.name == "head" and case.name in ("a", "b")
        return result({"x.csv": b"2\n" if changed else b"1\n"})

    monkeypatch.setattr(gate, "run_case", run_case)
    assert gate.main(["--base", "HEAD", "--scratch", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "DIFFERS a (ensemble):",
        "    x.csv line 1",
        "DIFFERS b (ensemble):",
        "    x.csv line 1",
        "same    c (ensemble): exit 0, 1 files",
        "2 of 3 cases differ: a, b",
    ]
