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


def test_first_difference_names_the_first_differing_output():
    def result(files, code=0, stdout="<out>/a.csv\n", stderr=""):
        return gate.Result(code, stdout, stderr, files)

    base = result({"a.csv": b"1\n", "b.csv": b"2\n"})
    assert gate.first_difference(base, result(dict(base.files))) is None
    assert gate.first_difference(base, result({"a.csv": b"1\n", "b.csv": b"3\n"})) == "b.csv"
    assert gate.first_difference(base, result({"a.csv": b"1\n"})) == (
        "b.csv written by one tree only"
    )
    assert gate.first_difference(base, result(base.files, code=3)) == "exit code 0 != 3"
    assert gate.first_difference(base, result(base.files, stderr="x")) == "stderr"
    assert gate.first_difference(base, result(base.files, stdout="x")) == "stdout"
