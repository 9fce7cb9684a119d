"""Command-line interface: config parsing, artifacts, exit codes, determinism."""

import configparser
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import usctraj
from usctraj import __version__
from usctraj.cli import (
    ExperimentConfig,
    load_config,
    main,
)
from usctraj.errors import ConfigError

BASE_SYSTEM = """
[system]
omega0 = 1.0
omega_c = 2.0
g = 0.1
theta = 0.5235987755982988
delta = 0.0
kappa = 4e-4
gamma1 = 5e-4
gamma2 = 3e-4
gamma_c = 2e-4
n_fock = 6
calibrate = effective
"""


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(BASE_SYSTEM + body)
    return str(path)


@pytest.fixture()
def mini_ensemble_cfg(tmp_path):
    return write_config(
        tmp_path, "mini.ini", """
[run]
solver = mcwf
hamiltonian = effective
t_final = 2000
dt = 0.5
n_trajectories = 24
master_seed = 11
initial_state = 1gg
record_every = 8
method = grouped

[output]
prefix = mini
histogram = both
first_bin_width = 200.0
conditional_bin_width = 100.0
trigger_channel = qubit1
""",
    )


def read_header(path):
    lines = []
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            lines.append(line.rstrip("\n"))
    return lines


def test_load_config_defaults_and_types(mini_ensemble_cfg):
    cfg = load_config(mini_ensemble_cfg)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.solver == "mcwf"
    assert cfg.n_trajectories == 24
    assert cfg.kappa == 4e-4
    assert cfg.observables == ("cavity", "qubit1", "qubit2")
    assert cfg.qubit_exchange == "auto"
    p = cfg.system_params()
    assert p.kappa == 4e-4


def test_load_config_rejects_unknown_keys(tmp_path):
    bad = write_config(tmp_path, "bad.ini", "\n[run]\nwarp_speed = 9\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    worse = tmp_path / "worse.ini"
    worse.write_text(BASE_SYSTEM + "\n[telemetry]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(worse))
    misplaced = write_config(tmp_path, "misplaced.ini", "\n[run]\nkappa = 1\n")
    with pytest.raises(ConfigError):
        load_config(misplaced)


def test_load_config_rejects_bad_choices(tmp_path):
    bad = write_config(tmp_path, "solver.ini", "\n[run]\nsolver = exact\n")
    with pytest.raises(ValueError):
        load_config(bad)


def test_presets_all_load():
    for name in (
        "fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b",
        "fig3a", "fig3b", "fig3c", "fig3d", "fig4", "fig5",
        "fig6a", "fig6b", "fig7",
    ):
        cfg = load_config(name)
        assert cfg.g == 0.1


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["trajectory", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "error" in capsys.readouterr().err.lower()


def test_trajectory_run_writes_files(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "traj.ini", """
[run]
solver = mcwf
hamiltonian = effective
t_final = 500
dt = 0.5
n_trajectories = 2
master_seed = 11
initial_state = 1gg
record_every = 10

[output]
prefix = t
""",
    )
    rc = main(["trajectory", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = tmp_path / "out"
    t0 = out / "t_traj0.csv"
    t1 = out / "t_traj1.csv"
    jumps = out / "t_jumps.csv"
    assert t0.exists() and t1.exists() and jumps.exists()
    header = read_header(t0)
    assert any("usctraj" in line for line in header)
    # resolved calibration lands in the header: omega_c is the tuned value
    assert any("omega_c = 1.98" in line for line in header)
    data = np.loadtxt(t0, delimiter=",", comments="#")
    assert data.shape[1] == 4  # time + three observables
    assert data[0, 0] == 0.0


def test_reruns_are_byte_identical(mini_ensemble_cfg, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["ensemble", "--config", mini_ensemble_cfg, "--out", out1]) == 0
    assert main(["ensemble", "--config", mini_ensemble_cfg, "--out", out2]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "mini_mean.csv" in names
    assert "mini_first_jump_hist.csv" in names
    assert "mini_conditional_hist.csv" in names
    for name in names:
        with open(os.path.join(out1, name), "rb") as fa:
            a = fa.read()
        with open(os.path.join(out2, name), "rb") as fb:
            b = fb.read()
        assert a == b, f"{name} differs between identical runs"


def test_ensemble_mean_columns(mini_ensemble_cfg, tmp_path):
    out = str(tmp_path / "m")
    assert main(["ensemble", "--config", mini_ensemble_cfg, "--out", out]) == 0
    mean_file = os.path.join(out, "mini_mean.csv")
    cols_line = [l for l in read_header(mean_file) if "columns" in l][0]
    assert "cavity_mean" in cols_line and "cavity_se" in cols_line
    data = np.loadtxt(mean_file, delimiter=",", comments="#")
    assert data.shape[1] == 7  # time + (mean, se) x 3
    assert np.all(data[:, 1:] >= 0.0)


def test_spectrum_run_and_exchange_override(tmp_path):
    cfg = write_config(
        tmp_path, "spec.ini", """
[run]
solver = mcwf
delta_min = -0.05
delta_max = 0.05
delta_points = 5
levels = 4

[output]
prefix = s
""",
    )
    out = str(tmp_path / "spec_out")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    data = np.loadtxt(os.path.join(out, "s_spectrum.csv"), delimiter=",", comments="#")
    assert data.shape == (5, 1 + 2 * 4)
    np.testing.assert_allclose(data[:, 1], 0.0, atol=1e-12)  # ground level reference
    assert np.all(np.diff(data[0, 1:5]) >= 0)


def test_spectrum_truncation_check_reads_the_eigenvectors(tmp_path, capsys):
    # at n_fock = 2 some of the six lowest eigenstates of the full
    # Hamiltonian sit on the top Fock level
    cfg = tmp_path / "shallow_spec.ini"
    cfg.write_text("[system]\nn_fock = 2\n\n[run]\ndelta_points = 3\nlevels = 6\n")
    plain, checked = tmp_path / "plain", tmp_path / "checked"
    assert main(["spectrum", "--config", str(cfg), "--out", str(plain)]) == 0
    rc = main([
        "spectrum", "--config", str(cfg), "--out", str(checked), "--check-truncation",
    ])
    assert rc == 2
    assert "top Fock level" in capsys.readouterr().err
    assert not checked.exists()


@pytest.mark.parametrize("command", ["trajectory", "compare-lme"])
def test_lme_solver_is_rejected_where_trajectories_are_needed(tmp_path, capsys, command):
    cfg = write_config(
        tmp_path, "lme.ini", """
[run]
solver = lme
hamiltonian = effective
t_final = 20
dt = 0.5

[output]
prefix = x
""",
    )
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert command in err and "lme" in err
    assert not out.exists()
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["x_lme.csv"]


def test_timestep_failure_exits_3(tmp_path, capsys):
    cfg = tmp_path / "hot.ini"
    cfg.write_text(
        BASE_SYSTEM.replace("kappa = 4e-4", "kappa = 0.25") + """
[run]
solver = mcwf
hamiltonian = effective
t_final = 50
dt = 1.0
n_trajectories = 1

[output]
prefix = h
""",
    )
    rc = main(["trajectory", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error" in capsys.readouterr().err.lower()


def test_truncation_check_trips_on_shallow_fock_space(tmp_path):
    body = """
[run]
solver = mcwf
hamiltonian = full
t_final = 50
dt = 0.5
n_trajectories = 1
initial_state = 1gg

[output]
prefix = tr
"""
    shallow = tmp_path / "shallow.ini"
    shallow.write_text(BASE_SYSTEM.replace("n_fock = 6", "n_fock = 2") + body)
    rc = main([
        "trajectory", "--config", str(shallow), "--out", str(tmp_path / "o1"),
        "--check-truncation",
    ])
    assert rc == 2
    deep = tmp_path / "deep.ini"
    deep.write_text(BASE_SYSTEM + body)
    rc = main([
        "trajectory", "--config", str(deep), "--out", str(tmp_path / "o2"),
        "--check-truncation",
    ])
    assert rc == 0


SHALLOW_DECAY = """
[system]
n_fock = 2
kappa = 4e-3
calibrate = none

[run]
solver = mcwf
hamiltonian = effective
t_final = 3000
n_trajectories = {n}
initial_state = 1gg
method = {method}
"""


@pytest.mark.parametrize(
    "command, n, method",
    [("trajectory", 1, "auto"), ("ensemble", 50, "grouped")],
)
def test_truncation_check_covers_the_whole_run(tmp_path, capsys, command, n, method):
    # |1,g,g> at n_fock = 2 starts on the top Fock level; the cavity jump
    # (t = 526 for trajectory 0) empties it, so the final states are clean
    cfg = tmp_path / "decay.ini"
    cfg.write_text(SHALLOW_DECAY.format(n=n, method=method))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "checked"),
               "--check-truncation"])
    assert rc == 2
    assert "top Fock level" in capsys.readouterr().err


def test_compare_lme_runs_and_reports(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cmp.ini", """
[run]
solver = mcwf
hamiltonian = effective
t_final = 400
dt = 0.5
n_trajectories = 40
master_seed = 11
record_every = 8
method = grouped

[output]
prefix = c
""",
    )
    out = str(tmp_path / "cmp_out")
    assert main(["compare-lme", "--config", cfg, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "max deviation" in text
    data = np.loadtxt(os.path.join(out, "c_compare.csv"), delimiter=",", comments="#")
    assert data.shape[1] == 10  # time + (lme, mcwf, se) x 3


def test_compare_lme_deviation_is_finite_while_trajectories_share_a_state(
    tmp_path, capsys
):
    # all 40 trajectories are still in the shared no-jump state at early
    # samples, where the standard error is zero but the mean differs from
    # the LME; the report divides by 3 SE + 3/N, so it stays finite
    cfg = write_config(
        tmp_path, "shared.ini", """
[run]
solver = mcwf
hamiltonian = full
t_final = 60
dt = 0.5
n_trajectories = 40
master_seed = 11
record_every = 10
method = direct

[output]
prefix = s
""",
    )
    assert main(["compare-lme", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    text = capsys.readouterr().out
    line = next(l for l in text.splitlines() if l.startswith("max deviation "))
    fraction = float(line.split()[2])
    assert np.isfinite(fraction) and 0.0 < fraction <= 1.0


def test_homodyne_solver_from_cli(tmp_path):
    cfg = write_config(
        tmp_path, "hom.ini", """
[run]
solver = homodyne
hamiltonian = effective
t_final = 100
dt = 0.1
n_trajectories = 1
record_every = 10
drift_mode = qsd

[output]
prefix = hm
""",
    )
    out = str(tmp_path / "hom_out")
    assert main(["trajectory", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "hm_jumps.csv")) as fh:
        data_rows = [l for l in fh if not l.startswith("#")]
    assert data_rows == []  # full homodyne cannot click


def test_mixed_jump_log_rows_fill_every_column(tmp_path):
    # qubit jumps under cavity homodyne: each row carries all four channels'
    # probabilities, 0 under the homodyned cavity
    cfg = write_config(
        tmp_path, "mixed.ini", """
[run]
solver = mixed
hamiltonian = effective
t_final = 3000
dt = 0.5
n_trajectories = 3
master_seed = 4
initial_state = 0ee
record_every = 100
homodyne_channels = cavity

[output]
prefix = mx
""",
    )
    out = tmp_path / "mixed_out"
    assert main(["trajectory", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "mx_jumps.csv").read_text().splitlines()
    columns = [l for l in lines if l.startswith("# columns: ")]
    assert columns == ["# columns: traj_index,time,channel,"
                       "dp_cavity,dp_qubit1,dp_qubit2,dp_collective"]
    header = columns[0].removeprefix("# columns: ").split(",")
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    assert len(rows) >= 3
    for row in rows:
        assert len(row) == len(header)
        assert row[2] != "cavity" and float(row[3]) == 0.0
        dp = dict(zip(header, row))
        assert float(dp[f"dp_{row[2]}"]) > 0.0


def test_single_fock_level_exits_2_naming_n_fock(tmp_path, capsys):
    cfg = tmp_path / "one.ini"
    cfg.write_text(
        BASE_SYSTEM.replace("n_fock = 6", "n_fock = 1").replace(
            "calibrate = effective", "calibrate = none"
        )
        + "\n[run]\nhamiltonian = effective\nt_final = 5\n"
    )
    rc = main(["trajectory", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: n_fock")


PINNED_CONFIG = """
[system]
omega0 = 1.0
delta = 0.01
omega_c = 1.98
g = 0.1
theta = 0.5
kappa = 4e-4
gamma1 = 5e-4
gamma2 = 3e-4
gamma_c = 2e-4
n_fock = 3
calibrate = none
qubit_exchange = off

[run]
solver = mcwf
hamiltonian = effective
t_final = 5
dt = 0.5
n_trajectories = 2
master_seed = 4
initial_state = 1gg
observables = cavity, qubit2
record_every = 2
method = direct
drift_mode = qsd
homodyne_channels = cavity, qubit1
delta_min = -0.1
delta_max = 0.2
delta_points = 3
levels = 2

[output]
directory = somewhere
prefix = pinned
histogram = first
first_bin_width = 100
conditional_bin_width = 25.5
trigger_channel = qubit2
normalization = per-bin
"""

PINNED_HEADER = [
    "# [system] omega0 = 1.0",
    "# [system] delta = 0.01",
    "# [system] omega_c = 1.98",
    "# [system] g = 0.1",
    "# [system] theta = 0.5",
    "# [system] kappa = 0.0004",
    "# [system] gamma1 = 0.0005",
    "# [system] gamma2 = 0.0003",
    "# [system] gamma_c = 0.0002",
    "# [system] n_fock = 3",
    "# [system] calibrate = none",
    "# [system] qubit_exchange = off",
    "# [run] solver = mcwf",
    "# [run] hamiltonian = effective",
    "# [run] t_final = 5.0",
    "# [run] dt = 0.5",
    "# [run] n_trajectories = 2",
    "# [run] master_seed = 4",
    "# [run] initial_state = 1gg",
    "# [run] observables = cavity, qubit2",
    "# [run] record_every = 2",
    "# [run] method = direct",
    "# [run] drift_mode = qsd",
    "# [run] homodyne_channels = cavity, qubit1",
    "# [run] delta_min = -0.1",
    "# [run] delta_max = 0.2",
    "# [run] delta_points = 3",
    "# [run] levels = 2",
    "# [output] prefix = pinned",
    "# [output] formats = csv",
    "# [output] histogram = first",
    "# [output] first_bin_width = 100.0",
    "# [output] conditional_bin_width = 25.5",
    "# [output] trigger_channel = qubit2",
    "# [output] normalization = per-bin",
    "# columns: time,cavity,qubit2",
]


def test_header_lines_are_pinned(tmp_path):
    # every key of all three sections, in order; the output directory is
    # not part of the experiment and stays out of the header
    cfg = tmp_path / "pinned.ini"
    cfg.write_text(PINNED_CONFIG)
    assert main(["trajectory", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    header = read_header(tmp_path / "o" / "pinned_traj0.csv")
    assert header == [f"# usctraj {__version__}"] + PINNED_HEADER
    assert not any("directory" in line for line in header)


def test_config_validation_direct():
    with pytest.raises(ValueError):
        ExperimentConfig(solver="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(t_final=-5.0)
    with pytest.raises(ValueError):
        ExperimentConfig(histogram="sometimes")
    cfg = ExperimentConfig(qubit_exchange="on")
    assert cfg.exchange_flag() is True
    assert ExperimentConfig(qubit_exchange="off").exchange_flag() is False
    assert ExperimentConfig().exchange_flag() is None
    assert ExperimentConfig(n_fock=2, levels=8).levels == 8


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("output", "first_bin_width", "nan"),
        ("system", "kappa", "inf"),
        ("system", "g", "nan"),
        ("system", "theta", "-inf"),
        ("run", "dt", "nan"),
        ("run", "dt", "0"),
        ("run", "dt", "-1"),
        ("run", "t_final", "inf"),
        ("run", "delta_max", "nan"),
        ("run", "levels", "9"),  # n_fock = 2 has 8 levels
        ("run", "master_seed", "-1"),
        ("run", "master_seed", "18446744073709551616"),  # 2**64 overflows the stream key
    ],
)
def test_bad_values_are_rejected_before_calibration(
    tmp_path, capsys, monkeypatch, section, key, value
):
    def calibrate(*args, **kwargs):
        raise AssertionError("calibrated before the config was checked")

    monkeypatch.setattr(usctraj.cli, "calibrate_resonance", calibrate)
    sections = {
        "system": {"n_fock": "2", "calibrate": "effective"},
        "run": {"hamiltonian": "effective", "t_final": "10", "n_trajectories": "2"},
        "output": {"histogram": "both"},
    }
    sections[section][key] = value
    cfg = tmp_path / "bad.ini"
    cfg.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    ))
    with pytest.raises(ConfigError, match=f"^{key} "):
        load_config(str(cfg))
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert not out.exists()


@pytest.mark.parametrize("given, expected", [(None, "1"), ("4", "4")])
def test_cli_defaults_to_one_blas_thread(given, expected):
    # importing the CLI sets one OpenBLAS thread unless the user chose a count
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    src = str(Path(usctraj.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import os, usctraj.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("[system]\ng = 0.1\ng = 0.2\n", "malformed config"),
        ("[system]\ng = 0.1\n[system]\nkappa = 0.0\n", "malformed config"),
        ("g = 0.1\n[system]\nkappa = 0.0\n", "malformed config"),
        ("[DEFAULT]\ng = 0.3\n", "keys in [DEFAULT]"),
        ("[DEFAULT]\ng = 0.3\n[system]\nkappa = 0.0\n[run]\nt_final = 10\n",
         "keys in [DEFAULT]"),
    ],
    ids=["duplicate-key", "duplicate-section", "no-section-header", "default-alone",
         "default-and-system"],
)
def test_malformed_config_files_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(cfg))
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "solver, extra",
    [("homodyne", "method = grouped\n"), ("mixed", "method = grouped\n"),
     ("mixed", "homodyne_channels =\n")],
    ids=["homodyne-grouped", "mixed-grouped", "mixed-without-channels"],
)
def test_an_unused_diffusive_setting_is_rejected_before_calibration(
    tmp_path, capsys, monkeypatch, solver, extra
):
    # grouped ensembles need every channel photodetected, and a mixed run
    # with no homodyned channel would silently be a photodetection run
    def calibrate(*args, **kwargs):
        raise AssertionError("calibrated before the config was checked")

    monkeypatch.setattr(usctraj.cli, "calibrate_resonance", calibrate)
    cfg = write_config(
        tmp_path, "diffusive.ini",
        f"[run]\nsolver = {solver}\nhamiltonian = effective\nt_final = 10\n{extra}",
    )
    with pytest.raises(ConfigError):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "solver, extra, dt, command",
    [
        ("mcwf", "", 0.5, "trajectory"),
        ("homodyne", "", 0.1, "trajectory"),
        ("mixed", "homodyne_channels = cavity\n", 0.1, "trajectory"),
        ("lme", "", 0.5, "ensemble"),
        ("homodyne", "dt = 0.25\n", 0.25, "trajectory"),
    ],
    ids=["mcwf", "homodyne", "mixed", "lme", "explicit"],
)
def test_an_omitted_step_follows_the_solver(tmp_path, solver, extra, dt, command):
    # the step of the solver's unravelling: 0.1 once a channel is homodyned,
    # 0.5 otherwise; a dt in the config wins
    cfg = write_config(
        tmp_path, "step.ini",
        f"[run]\nsolver = {solver}\nhamiltonian = effective\nt_final = 2\n{extra}"
        "[output]\nprefix = st\n",
    )
    assert load_config(cfg).dt == dt
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    table = out / ("st_lme.csv" if solver == "lme" else "st_traj0.csv")
    assert f"# [run] dt = {dt}" in read_header(table)
    time = np.loadtxt(table, delimiter=",", comments="#")[:, 0]
    np.testing.assert_allclose(time, np.arange(round(2 / dt) + 1) * dt, rtol=0, atol=1e-12)


@pytest.mark.parametrize("command", ["spectrum", "trajectory", "ensemble", "compare-lme"])
@pytest.mark.parametrize("where", ["flag", "config", "below"])
def test_an_output_path_that_is_a_file_exits_2_before_calibration(
    tmp_path, capsys, monkeypatch, command, where
):
    # "below" asks for a directory under the file, which cannot be made
    def calibrate(*args, **kwargs):
        raise AssertionError("calibrated before the output directory was checked")

    monkeypatch.setattr(usctraj.cli, "calibrate_resonance", calibrate)
    taken, unused = tmp_path / "taken", tmp_path / "unused"
    taken.write_text("not a directory\n")
    out = taken / "sub" if where == "below" else taken
    directory = taken if where == "config" else unused
    cfg = write_config(
        tmp_path, "file.ini",
        f"[run]\nhamiltonian = effective\nt_final = 10\n\n[output]\ndirectory = {directory}\n",
    )
    argv = [command, "--config", cfg] + (["--out", str(out)] if where != "config" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: output path {out} ")
    assert taken.read_text() == "not a directory\n"
    assert not unused.exists()


def test_an_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    cfg = write_config(tmp_path, "ok.ini", "[run]\nhamiltonian = effective\nt_final = 10\n")
    assert main(["trajectory", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot create output directory ")


@pytest.mark.parametrize("command", ["trajectory", "ensemble", "compare-lme"])
def test_a_failed_run_creates_no_output_directory(tmp_path, capsys, command):
    # the step is too coarse for kappa = 0.25, so every run fails after calibration
    cfg = tmp_path / "hot.ini"
    cfg.write_text(
        BASE_SYSTEM.replace("kappa = 4e-4", "kappa = 0.25")
        + "\n[run]\nhamiltonian = effective\nt_final = 50\ndt = 1.0\nn_trajectories = 2\n"
    )
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert "reduce dt" in capsys.readouterr().err
    assert not out.exists()


def test_a_truncation_rejected_ensemble_creates_no_output_directory(tmp_path, capsys):
    cfg = tmp_path / "decay.ini"
    cfg.write_text(SHALLOW_DECAY.format(n=50, method="grouped"))
    out = tmp_path / "o"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out), "--check-truncation"]) == 2
    assert "top Fock level" in capsys.readouterr().err
    assert not out.exists()
