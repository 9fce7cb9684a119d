"""Child process of the benchmark; the parent times it and collects its report.

    probe.py setup  <config> <report.json>
        Import usctraj, load the config, calibrate and build the system:
        what a run pays before its first step.
    probe.py plain  <report.json> <cli args...>
    probe.py traced <report.json> <cli args...>
        Run ``usctraj.cli.main`` in this process, untraced or with a span
        around every call into a layer, and time it from inside.

The report records the usctraj module that was imported (so the parent can
tell it came from the checkout's ``src``) and the process's thread count
after the work, which counts the BLAS threads.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _threads() -> int:
    return len(os.listdir("/proc/self/task"))


def setup(config: str) -> dict:
    """A run's work before its first step.  It reads the config's fields, not
    its helper methods, so the probe survives a rework of the CLI."""
    import dataclasses

    import usctraj
    from usctraj.cli import load_config
    from usctraj.hilbert import build_layout
    from usctraj.model import SystemParams, calibrate_resonance
    from usctraj.system import build_system

    cfg = load_config(config)
    p = SystemParams(**{f.name: getattr(cfg, f.name)
                        for f in dataclasses.fields(SystemParams)})
    if cfg.calibrate != "none":
        p = calibrate_resonance(p, build_layout(cfg.n_fock), which=cfg.calibrate)
    exchange = {"auto": None, "on": True, "off": False}[cfg.qubit_exchange]
    build_system(p, n_fock=cfg.n_fock, hamiltonian=cfg.hamiltonian,
                 include_qubit_exchange=exchange)
    return {"module": usctraj.__file__, "threads": _threads()}


def run_main(argv: list[str], traced: bool) -> dict:
    import usctraj
    from usctraj import cli

    report = {"module": usctraj.__file__}
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = cli.main(argv)
    report["wall"] = time.perf_counter() - start
    report["rc"] = rc
    report["threads"] = _threads()
    if traced:
        report["spans"] = [[s[0], s[1] - start, s[2] - start, s[3], s[4]]
                           for s in tracer.spans]
        report["missing"] = tracer.missing
    return report


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        config, out = args
        report = setup(config)
    elif mode in ("plain", "traced"):
        out = args[0]
        report = run_main(args[1:], traced=mode == "traced")
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(out, "w") as fh:
        json.dump(report, fh)
    return int(report.get("rc", 0))


if __name__ == "__main__":
    sys.exit(main())
