"""End-to-end acceptance runs, one printed verdict line per criterion.

Every test measures its headline quantities at the documented ensemble
size and asserts the stated tolerance, printing a single
``criterion NN PASS/FAIL`` line that stays visible under captured output.
The full-Hamiltonian ensemble-vs-master-equation comparison and the
diffusive ensemble dominate the runtime (several minutes each); the rest
together add a few more.
"""

import dataclasses
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from usctraj.dressed import CHANNEL_LABELS, diagonalize, jump_channels
from usctraj.ensemble import run_ensemble
from usctraj.hilbert import build_layout
from usctraj.homodyne import run_homodyne_ensemble, run_trajectory_homodyne
from usctraj.lme import density_from_state, evolve_lme, lindblad_rhs
from usctraj.mcwf import ensemble_average, run_trajectory
from usctraj.model import (
    SystemParams,
    calibrate_resonance,
    effective_couplings,
    effective_hamiltonian,
    full_hamiltonian,
)
from usctraj.oracles import (
    eta_parameter,
    expectations_1p2a,
    one_photon_subspace_hamiltonian,
    qq_expectations_after_collective_jump,
    qq_expectations_after_local_jump,
    qq_subspace_hamiltonian,
    u_1p2a,
    u_qq,
)
from usctraj.stats import conditional_second_jump_histogram, first_jump_histogram
from usctraj.system import build_system

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def announce(pytestconfig):
    """Print one verdict line per criterion even while pytest captures output."""
    manager = pytestconfig.pluginmanager.getplugin("capturemanager")

    def emit(number, ok, detail):
        line = "criterion %02d %s  %s" % (number, "PASS" if ok else "FAIL", detail)
        with manager.global_and_fixture_disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()

    return emit


def check(emit, number, detail, ok):
    emit(number, ok, detail)
    assert ok, "criterion %02d: %s" % (number, detail)


def fit_cosine(tau, values, w0):
    """Least-squares a + b*cos(w*tau + phi); returns |w|."""
    def model(t, a, b, w, phi):
        return a + b * np.cos(w * t + phi)

    popt, _ = scipy.optimize.curve_fit(
        model, tau, values, p0=[0.5, 0.5, w0, 0.0], maxfev=40000
    )
    return abs(popt[2])


def trajectories(result, lo, hi):
    """Trajectories lo..hi-1 of an ensemble result, renumbered from 0.

    ``top_fock_peak`` stays the whole ensemble's: the result keeps no
    per-trajectory peak.
    """
    keep = (result.jump_traj >= lo) & (result.jump_traj < hi)
    return dataclasses.replace(
        result,
        expectations=result.expectations[:, lo:hi],
        final_states=result.final_states[lo:hi],
        jump_traj=result.jump_traj[keep] - lo,
        jump_time=result.jump_time[keep],
        jump_channel=result.jump_channel[keep],
        jump_dp=result.jump_dp[keep],
    )


def expm_stack(h, times):
    return np.stack([scipy.linalg.expm(-1j * h * t) for t in times])


def band_fraction(values, spacing, lo, hi):
    """Windowed power fraction of a series inside an angular-frequency band."""
    x = np.asarray(values, dtype=float)
    x = (x - x.mean()) * np.hanning(x.size)
    power = np.abs(np.fft.rfft(x)) ** 2
    omega = 2.0 * np.pi * np.fft.rfftfreq(x.size, d=spacing)
    band = (omega >= lo) & (omega <= hi)
    total = power[1:].sum()
    return power[band].sum() / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Heavy shared ensembles (module scope, built once).


@pytest.fixture(scope="module")
def emission_hist_fit():
    """Cavity first-jump histogram of the pair process at 2e4 trajectories."""
    layout = build_layout(10)
    base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=0.0)
    p = calibrate_resonance(base, layout, which="full")
    system = build_system(p, n_fock=10, hamiltonian="effective")
    result = run_ensemble(
        system, system.initial_state("1gg"), 60000.0, 20000, dt=0.5, master_seed=0,
        record_every=1000, method="grouped",
    )
    hist = first_jump_histogram(result, 200.0)
    idx = {label: i for i, label in enumerate(CHANNEL_LABELS)}
    counts = hist.counts[idx["cavity"]].astype(float)
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    eta = eta_parameter(p).real

    def model(t, amp, rate, w, phi, floor):
        return np.exp(-rate * t) * (floor + amp * np.cos(w * t + phi))

    p0 = [counts.max() / 2, 6e-5, eta / 2, 0.0, counts.max() / 2]
    popt, _ = scipy.optimize.curve_fit(model, centers, counts, p0=p0, maxfev=40000)
    # The detected-count oscillation runs at half the manifold parameter
    # (populations go as cos^2), so the measured parameter is twice the fit.
    return 2.0 * abs(popt[2]), eta


@pytest.fixture(scope="module")
def exchange_hist():
    """Conditional second-jump histogram (local trigger) at 4e4 trajectories."""
    layout = build_layout(10)
    base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=0.0)
    p = calibrate_resonance(base, layout, which="full")
    system = build_system(p, n_fock=10, hamiltonian="effective")
    result = run_ensemble(
        system, system.initial_state("1gg"), 60000.0, 40000, dt=0.5, master_seed=0,
        record_every=1000, method="grouped",
    )
    hist = conditional_second_jump_histogram(result, "qubit1", 50.0)
    return hist, p


@pytest.fixture(scope="module")
def collective_decay_events():
    """(delay, went-to-qubit2) pairs for local second jumps under a common bath.

    8e4 trajectories; the first jump must come from qubit1, the second from
    either qubit.  Conditioned on a local second jump at delay tau, the
    probability that it comes from qubit 2 equals the normalized qubit-2
    population (equal local rates), so the pairs sample the conditional
    oscillation directly.
    """
    layout = build_layout(10)
    base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=5e-4)
    p = calibrate_resonance(base, layout, which="full")
    system = build_system(p, n_fock=10, hamiltonian="effective")
    result = run_ensemble(
        system, system.initial_state("1gg"), 30000.0, 80000, dt=0.5, master_seed=0,
        record_every=1000, method="grouped",
    )
    traj, channel, time = result.jump_traj, result.jump_channel, result.jump_time
    qubit1, qubit2 = CHANNEL_LABELS.index("qubit1"), CHANNEL_LABELS.index("qubit2")
    # each trajectory's first jump, where a second jump follows it
    first = np.flatnonzero(np.diff(traj, prepend=-1))
    first = first[first + 1 < traj.size]
    first = first[(traj[first + 1] == traj[first]) & (channel[first] == qubit1)]
    first = first[np.isin(channel[first + 1], (qubit1, qubit2))]
    taus = time[first + 1] - time[first]
    outcomes = np.where(channel[first + 1] == qubit2, 1.0, 0.0)
    return taus, outcomes, p


@pytest.fixture(scope="module")
def full_mean_comparison():
    """500-trajectory full-Hamiltonian means next to the master equation."""
    layout = build_layout(10)
    out = {}
    for gc in (0.0, 4e-5):
        base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=gc)
        p = calibrate_resonance(base, layout, which="full")
        system = build_system(p, n_fock=10, hamiltonian="full")
        result = run_ensemble(
            system, system.initial_state("1gg"), 8000.0, 500, dt=0.5, master_seed=0,
            record_every=10, method="auto",
        )
        avg = ensemble_average(result)
        rho0 = density_from_state(system.initial_state("1gg"), layout)
        series = evolve_lme(system, rho0, 8000.0, 0.5, record_every=10)
        out[gc] = (avg, series)
    return out


@pytest.fixture(scope="module")
def diffusive_mean_comparison():
    """2000 diffusive trajectories next to the master equation."""
    layout = build_layout(6)
    base = SystemParams(kappa=2e-3, gamma1=2e-3, gamma2=2e-3, gamma_c=0.0)
    p = calibrate_resonance(base, layout, which="effective")
    system = build_system(p, n_fock=6, hamiltonian="effective")
    psi0 = system.initial_state("1gg")
    n_traj = 2000
    labels = ("cavity", "qubit1", "qubit2")
    result = run_homodyne_ensemble(
        system, psi0, 300.0, n_traj, dt=0.1, master_seed=0, record_every=10,
        drift_mode="qsd",
    )
    sums = {k: 0.0 for k in labels}
    sumsq = {k: 0.0 for k in labels}
    for j in range(n_traj):
        for k, series in zip(labels, result.expectations[:, j]):
            sums[k] = sums[k] + series
            sumsq[k] = sumsq[k] + series ** 2
    means, ses = {}, {}
    for k in labels:
        means[k] = sums[k] / n_traj
        var = (sumsq[k] - n_traj * means[k] ** 2) / (n_traj - 1)
        ses[k] = np.sqrt(np.maximum(var, 0.0) / n_traj)
    rho0 = density_from_state(psi0, layout)
    series = evolve_lme(system, rho0, 300.0, 0.1, record_every=10)
    return means, ses, series


# ---------------------------------------------------------------------------
# Criteria.


def test_criterion_01_effective_couplings(announce):
    ec = effective_couplings(SystemParams())
    ratio = abs(ec.omega2 / ec.omega3)
    ok = (
        abs(abs(ec.omega2) - 0.0100) < 1e-15
        and abs(abs(ec.omega3) - 0.00100) < 1e-16
        and abs(ratio - 10.0) < 1e-12
    )
    check(
        announce, 1,
        "|w2|=%.6g |w3|=%.6g ratio=%.14g" % (abs(ec.omega2), abs(ec.omega3), ratio),
        ok,
    )


def test_criterion_02_spectrum(announce, layout10):
    p0 = calibrate_resonance(SystemParams(), layout10, which="full")
    levels = np.linalg.eigvalsh(full_hamiltonian(p0, layout10).matrix)
    gap = levels[2] - levels[1]
    om2 = abs(effective_couplings(p0).omega2)
    gap_dev = abs(gap - 2.0 * om2) / (2.0 * om2)

    worst = 0.0
    for d in np.linspace(-0.3, 0.3, 61):
        p = calibrate_resonance(SystemParams(delta=float(d)), layout10, which="full")
        ef = np.linalg.eigvalsh(full_hamiltonian(p, layout10).matrix)
        ee = np.linalg.eigvalsh(
            effective_hamiltonian(p, layout10, include_qubit_exchange=True).matrix
        )
        worst = max(worst, float(np.max(np.abs((ef[:5] - ef[0]) - (ee[:5] - ee[0])))))
    ok = gap_dev < 0.10 and worst < 2e-3
    check(
        announce, 2,
        "anticrossing dev=%.3g (tol 0.10); level scan max dev=%.3g (tol 2e-3)"
        % (gap_dev, worst),
        ok,
    )


def test_criterion_03_oracle_equivalence(announce):
    prop_tol, expect_tol = 1e-8, 1e-6
    worst_prop, worst_expect = 0.0, 0.0

    pair_cases = [
        (SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5), 0.0),
        (SystemParams(theta=np.pi / 2, kappa=1e-3, gamma1=4e-5, gamma2=4e-5), 0.0),
        (SystemParams(kappa=2e-4, gamma1=1e-4, gamma2=5e-5, gamma_c=3e-5), 0.3),
    ]
    for p, energy in pair_cases:
        period = 16.0 * np.pi / max(abs(eta_parameter(p)), 1e-6)
        t = np.linspace(0.0, period, 801)
        h = one_photon_subspace_hamiltonian(p, energy=energy)
        brute = expm_stack(h, t)
        worst_prop = max(worst_prop, float(np.max(np.abs(u_1p2a(t, p, energy=energy) - brute))))
        if energy == 0.0:
            phi = brute @ np.array([1.0, 0.0])
            norm = np.abs(phi[:, 0]) ** 2 + np.abs(phi[:, 1]) ** 2
            pc, pq = expectations_1p2a(t, p)
            worst_expect = max(
                worst_expect,
                float(np.max(np.abs(pc - np.abs(phi[:, 0]) ** 2 / norm))),
                float(np.max(np.abs(pq - np.abs(phi[:, 1]) ** 2 / norm))),
            )

    qq_cases = [
        SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=5e-4),
        SystemParams(delta=0.004, kappa=4e-5, gamma1=4e-4, gamma2=4e-5, gamma_c=3e-4),
        SystemParams(delta=0.15, kappa=4e-5, gamma1=4e-5, gamma2=4e-5),
    ]
    for p in qq_cases:
        om2 = abs(effective_couplings(p).omega2)
        t = np.linspace(0.0, 16.0 * np.pi / max(4.0 * om2, 1e-3), 801)
        h = qq_subspace_hamiltonian(p)
        brute = expm_stack(h, t)
        worst_prop = max(worst_prop, float(np.max(np.abs(u_qq(t, p) - brute))))
        for start, oracle in [
            (np.array([0.0, -1.0j]), qq_expectations_after_local_jump),
            (np.array([-1.0j, -1.0j]) / np.sqrt(2.0), qq_expectations_after_collective_jump),
        ]:
            phi = brute @ start
            norm = np.abs(phi[:, 0]) ** 2 + np.abs(phi[:, 1]) ** 2
            c1, c2 = oracle(t, p)
            worst_expect = max(
                worst_expect,
                float(np.max(np.abs(c1 - np.abs(phi[:, 0]) ** 2 / norm))),
                float(np.max(np.abs(c2 - np.abs(phi[:, 1]) ** 2 / norm))),
            )

    # For identical qubits the repaired coefficient table must agree with the
    # exact subspace propagator form.
    p_eq = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=5e-4)
    t = np.linspace(0.0, 1257.0, 801)
    printed_dev = float(np.max(np.abs(
        u_qq(t, p_eq, zeta_variant="printed", delta=0.0) - u_qq(t, p_eq, delta=0.0)
    )))
    worst_prop = max(worst_prop, printed_dev)

    ok = worst_prop < prop_tol and worst_expect < expect_tol
    check(
        announce, 3,
        "propagator max dev=%.3g (tol 1e-8); expectation max dev=%.3g (tol 1e-6)"
        % (worst_prop, worst_expect),
        ok,
    )


def test_criterion_04_jump_projections(announce, system_eff, layout6):
    channels = dict(zip(CHANNEL_LABELS, system_eff.plus_stack))
    idx = layout6.index
    dim = layout6.dimension

    psi = np.zeros(dim, dtype=complex)
    psi[idx(1, 0, 0)] = np.cos(0.7)
    psi[idx(0, 1, 1)] = -1.0j * np.sin(0.7)
    out = channels["qubit1"] @ psi
    out = out / np.linalg.norm(out)
    target = np.zeros(dim, dtype=complex)
    target[idx(0, 0, 1)] = -1.0j
    fid_local = abs(np.vdot(target, out)) ** 2
    phase_ok_local = np.vdot(target, out).real > 0

    psi2 = np.zeros(dim, dtype=complex)
    psi2[idx(0, 1, 1)] = -1.0j
    out2 = channels["collective"] @ psi2
    out2 = out2 / np.linalg.norm(out2)
    target2 = np.zeros(dim, dtype=complex)
    target2[idx(0, 0, 1)] = -1.0j / np.sqrt(2.0)
    target2[idx(0, 1, 0)] = -1.0j / np.sqrt(2.0)
    fid_coll = abs(np.vdot(target2, out2)) ** 2
    phase_ok_coll = np.vdot(target2, out2).real > 0

    ok = (
        fid_local > 1.0 - 1e-10 and fid_coll > 1.0 - 1e-10
        and phase_ok_local and phase_ok_coll
    )
    check(
        announce, 4,
        "local-jump fidelity=1-%.2g; collective fidelity=1-%.2g (tol 1e-10)"
        % (1.0 - fid_local, 1.0 - fid_coll),
        ok,
    )


def test_criterion_05_dark_ground_state(announce, layout10):
    base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=4e-5)
    p = calibrate_resonance(base, layout10, which="full")
    system = build_system(p, n_fock=10, hamiltonian="full")
    gs = system.basis.ground_state
    worst_prob = max(
        float(np.linalg.norm(s_plus @ gs) ** 2)
        for s_plus in system.plus_stack
    )
    projector = np.outer(gs, gs.conj())
    rhs = lindblad_rhs(projector, system)
    rhs_max = float(np.max(np.abs(rhs)))
    ok = worst_prob < 1e-12 and rhs_max < 1e-10
    check(
        announce, 5,
        "max jump probability=%.3g (tol 1e-12); stationarity residual=%.3g (tol 1e-10)"
        % (worst_prob, rhs_max),
        ok,
    )


def test_criterion_06_trajectory_phenomenology(announce, p_paper_rates, system_eff, layout6):
    om2 = abs(effective_couplings(p_paper_rates).omega2)

    # Lone local jump at resonance: the leftover excitation hops between the
    # qubits at twice the exchange coupling (population period).
    rec = run_trajectory(
        system_eff, system_eff.initial_state("1gg"), 3000.0, dt=0.5, seed=11,
    )
    assert len(rec.jumps) == 1 and CHANNEL_LABELS[rec.jumps[0].channel] == "qubit1"
    t1 = rec.jumps[0].time
    assert abs(t1 - 1019.0) < 1e-9
    sel = rec.time_grid >= t1
    w = fit_cosine(rec.time_grid[sel] - t1, rec.expectations["qubit2"][sel], 2.0 * om2)
    freq_dev = abs(w / 2.0 - om2) / om2

    # Detuned qubits: the exchange is rotating-wave suppressed, so after a
    # local jump the populations freeze.
    base_d = SystemParams(delta=0.15, kappa=4e-5, gamma1=4e-5, gamma2=4e-5)
    p_d = calibrate_resonance(base_d, layout6, which="effective")
    system_d = build_system(p_d, n_fock=6, hamiltonian="effective")
    frozen_ptp = 0.0
    for seed, channel, t_jump in [(11, "qubit1", 1019.0), (17, "qubit2", 1229.5)]:
        rec_d = run_trajectory(
            system_d, system_d.initial_state("1gg"), 3000.0, dt=0.5, seed=seed,
        )
        assert len(rec_d.jumps) == 1 and CHANNEL_LABELS[rec_d.jumps[0].channel] == channel
        assert abs(rec_d.jumps[0].time - t_jump) < 1e-9
        sel_d = rec_d.time_grid >= rec_d.jumps[0].time
        for label in ("qubit1", "qubit2"):
            frozen_ptp = max(frozen_ptp, float(np.ptp(rec_d.expectations[label][sel_d])))

    # Collective jump, identical qubits: the bright superposition holds both
    # populations at one half.
    base_c = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=5e-4)
    p_c = calibrate_resonance(base_c, layout6, which="effective")
    system_c = build_system(p_c, n_fock=6, hamiltonian="effective")
    rec_c = run_trajectory(
        system_c, system_c.initial_state("1gg"), 8000.0, dt=0.5, seed=4,
    )
    assert len(rec_c.jumps) == 1 and CHANNEL_LABELS[rec_c.jumps[0].channel] == "collective"
    assert abs(rec_c.jumps[0].time - 2243.5) < 1e-9
    sel_c = rec_c.time_grid >= rec_c.jumps[0].time
    bright_dev = max(
        float(np.max(np.abs(rec_c.expectations[label][sel_c] - 0.5)))
        for label in ("qubit1", "qubit2")
    )

    # Collective jump with unequal local rates: the conditional populations
    # drift away from the faster-decaying qubit.  The collective dissipator
    # couples the detuned states, leaving a small interference ripple at the
    # qubit splitting on top of the drift, so monotonicity is asserted on
    # block means wide enough to average the ripple out (50 time units vs a
    # 21-unit beat period).
    transfer_ok = True
    for g1, g2 in [(4e-4, 4e-5), (4e-5, 4e-4)]:
        base_i = SystemParams(delta=0.15, kappa=4e-5, gamma1=g1, gamma2=g2, gamma_c=5e-4)
        p_i = calibrate_resonance(base_i, layout6, which="effective")
        system_i = build_system(p_i, n_fock=6, hamiltonian="effective")
        rec_i = run_trajectory(
            system_i, system_i.initial_state("1gg"), 8000.0, dt=0.5, seed=4,
        )
        assert rec_i.jumps and CHANNEL_LABELS[rec_i.jumps[0].channel] == "collective"
        sel_i = rec_i.time_grid >= rec_i.jumps[0].time
        q1 = rec_i.expectations["qubit1"][sel_i]
        q2 = rec_i.expectations["qubit2"][sel_i]
        gaining, losing = (q2, q1) if g1 > g2 else (q1, q2)
        block = 100
        n_full = (gaining.size // block) * block
        gain_blocks = gaining[:n_full].reshape(-1, block).mean(axis=1)
        lose_blocks = losing[:n_full].reshape(-1, block).mean(axis=1)
        transfer_ok = transfer_ok and bool(
            np.all(np.diff(gain_blocks) > 0.0)
            and np.all(np.diff(lose_blocks) < 0.0)
            and gaining[-1] - gaining[0] > 0.05
        )

    ok = (
        freq_dev < 0.02 and frozen_ptp < 1e-6 and bright_dev < 1e-6 and transfer_ok
    )
    check(
        announce, 6,
        "exchange freq dev=%.2g (tol 0.02); detuned ptp=%.2g, bright dev=%.2g "
        "(tol 1e-6); transfer directions %s"
        % (freq_dev, frozen_ptp, bright_dev, "ok" if transfer_ok else "wrong"),
        ok,
    )


def test_criterion_07_histograms(announce, emission_hist_fit, exchange_hist,
                                 collective_decay_events):
    eta_fit, eta = emission_hist_fit
    eta_dev = abs(eta_fit - eta) / eta

    hist, p_b = exchange_hist
    idx = {label: i for i, label in enumerate(CHANNEL_LABELS)}
    q2 = hist.counts[idx["qubit2"]].astype(float)
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    om2 = abs(effective_couplings(p_b).omega2)
    upto = centers <= 20000.0

    def damped(t, amp, rate, w, phi, floor):
        return np.exp(-rate * t) * (floor + amp * np.cos(w * t + phi))

    p0 = [q2[upto].max() / 2, 1e-4, 2.0 * om2, np.pi, q2[upto].max() / 2]
    popt, _ = scipy.optimize.curve_fit(damped, centers[upto], q2[upto], p0=p0, maxfev=60000)
    om2_dev = abs(abs(popt[2]) / 2.0 - om2) / om2

    # The conditional oscillation amplitude follows 1/(2 cosh(c tau)): the
    # bright component decays collectively while the dark one survives, and
    # the normalization turns the pair into a sech whose rate parameter is
    # half the collective rate.  A two-parameter Bernoulli fit over the raw
    # second-jump events estimates it without binning loss.
    taus, outcomes, p_c = collective_decay_events
    target = 0.5 * p_c.gamma_c

    def nll(theta):
        c, w = theta
        pr = np.clip(0.5 + 0.5 * np.cos(w * taus) / np.cosh(c * taus), 1e-9, 1 - 1e-9)
        return -np.sum(outcomes * np.log(pr) + (1.0 - outcomes) * np.log1p(-pr))

    best = scipy.optimize.minimize(
        nll, [target, 2.0 * om2], method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 20000},
    )
    rate_dev = abs(best.x[0] - target) / target

    ok = eta_dev < 0.05 and om2_dev < 0.05 and rate_dev < 0.20
    check(
        announce, 7,
        "emission freq dev=%.3g, exchange freq dev=%.3g (tol 0.05); "
        "amplitude decay dev=%.3g at %d events (tol 0.20)"
        % (eta_dev, om2_dev, rate_dev, taus.size),
        ok,
    )


def test_criterion_08_unravelling_equivalence(announce, full_mean_comparison,
                                              exchange_hist):
    # Finite-sample floor: before the first sampled jump the spread is zero
    # while the mean is missing jump-branch weight of order 3/N at most.
    floor = 3.0 / 500
    worst_ratio = 0.0
    for gc, (avg, series) in full_mean_comparison.items():
        for label in ("cavity", "qubit1", "qubit2"):
            dev = np.abs(avg.means[label] - series.expectations[label])
            allowed = 3.0 * avg.standard_errors[label] + floor
            worst_ratio = max(worst_ratio, float(np.max(dev / allowed)))

    _, series_gc = full_mean_comparison[4e-5]
    lme_band = max(
        band_fraction(series_gc.expectations[label], 5.0, 0.018, 0.022)
        for label in ("cavity", "qubit1", "qubit2")
    )
    hist, _ = exchange_hist
    idx = {label: i for i, label in enumerate(CHANNEL_LABELS)}
    hist_band = band_fraction(hist.counts[idx["qubit2"]].astype(float), 50.0, 0.018, 0.022)

    ok = worst_ratio <= 1.0 and lme_band < 1e-4 and hist_band > 0.2
    check(
        announce, 8,
        "worst dev/(3 SE + floor)=%.3f; exchange-band power: averaged %.2g, "
        "conditional histogram %.2g"
        % (worst_ratio, lme_band, hist_band),
        ok,
    )


def test_criterion_09_homodyne(announce, layout10, layout6,
                               diffusive_mean_comparison):
    # Full homodyne: diffusive, no jump events, bounded increments.
    base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=0.0)
    p = calibrate_resonance(base, layout10, which="full")
    system = build_system(p, n_fock=10, hamiltonian="full")
    rec = run_trajectory_homodyne(
        system, system.initial_state("1gg"), 20000.0, dt=0.1, seed=0,
        record_every=1, drift_mode="qsd",
    )
    max_step = max(
        float(np.max(np.abs(np.diff(rec.expectations[label]))))
        for label in ("cavity", "qubit1", "qubit2")
    )
    continuous_ok = len(rec.jumps) == 0 and max_step < 0.05

    # Cavity homodyned, qubits photodetected: local jumps survive and the
    # post-jump record oscillates at the exchange frequency.
    base_m = SystemParams(kappa=4e-4, gamma1=4e-4, gamma2=4e-4, gamma_c=0.0)
    p_m = calibrate_resonance(base_m, layout6, which="effective")
    system_m = build_system(p_m, n_fock=6, hamiltonian="effective")
    om2 = abs(effective_couplings(p_m).omega2)
    rec_m = run_trajectory_homodyne(
        system_m, system_m.initial_state("0ee"), 2500.0, dt=0.1, seed=1,
        record_every=5, homodyne_channels=("cavity",), drift_mode="as-printed",
    )
    qjumps = [j for j in rec_m.jumps if CHANNEL_LABELS[j.channel] in ("qubit1", "qubit2")]
    cavity_jumps = [j for j in rec_m.jumps if CHANNEL_LABELS[j.channel] == "cavity"]
    assert qjumps and not cavity_jumps
    t1 = qjumps[0].time
    t2 = qjumps[1].time if len(qjumps) > 1 else rec_m.time_grid[-1]
    sel = (rec_m.time_grid >= t1) & (rec_m.time_grid <= t2)
    w = fit_cosine(rec_m.time_grid[sel] - t1, rec_m.expectations["qubit2"][sel], 2.0 * om2)
    mixed_dev = abs(w / 2.0 - om2) / om2

    means, ses, series = diffusive_mean_comparison
    worst_ratio = 0.0
    for label in ("cavity", "qubit1", "qubit2"):
        dev = np.abs(means[label] - series.expectations[label])
        allowed = 3.0 * ses[label] + 1e-9
        worst_ratio = max(worst_ratio, float(np.max(dev / allowed)))

    ok = continuous_ok and mixed_dev < 0.02 and worst_ratio <= 1.0
    check(
        announce, 9,
        "full homodyne: %d jumps, max increment=%.3g; mixed post-jump freq "
        "dev=%.2g (tol 0.02); ensemble worst dev/(3 SE)=%.3f"
        % (len(rec.jumps), max_step, mixed_dev, worst_ratio),
        ok,
    )


def test_criterion_10_property_suite(announce, p_paper_rates, system_eff,
                                     system_full10, layout6, layout10):
    # Norm and trace preservation on short runs with jumps possible.
    base = SystemParams(kappa=2e-3, gamma1=2e-3, gamma2=2e-3, gamma_c=1e-3)
    p = calibrate_resonance(base, layout6, which="effective")
    system = build_system(p, n_fock=6, hamiltonian="effective")
    rec = run_trajectory(
        system, system.initial_state("1gg"), 2000.0, dt=0.5, seed=1,
    )
    norm_err = abs(np.linalg.norm(rec.final_state) - 1.0)
    series = evolve_lme(
        system, density_from_state(system.initial_state("1gg"), layout6),
        2000.0, 0.5, record_every=100,
    )
    trace_err = abs(np.trace(series.final_matrix).real - 1.0)

    # Structure of the dressed channels on the full Hamiltonian.
    basis = system_full10.basis
    min_eig = 0.0
    max_lower = 0.0
    for sp in system_full10.plus_stack:
        min_eig = min(min_eig, float(np.linalg.eigvalsh(sp.conj().T @ sp).min()))
        dressed = basis.eigenvectors.conj().T @ sp @ basis.eigenvectors
        max_lower = max(max_lower, float(np.max(np.abs(np.tril(dressed)))))

    # Bare-coupling limit: the dressed cavity channel converges to the bare
    # annihilation operator, the qubit channels to the bare lowerings.
    p_bare = SystemParams(g=1e-6, kappa=4e-5, gamma1=4e-5, gamma2=4e-5)
    system_bare = build_system(p_bare, n_fock=6, hamiltonian="full")
    bare = dict(zip(CHANNEL_LABELS, system_bare.plus_stack))
    a_op = np.zeros((layout6.dimension, layout6.dimension))
    sm1 = np.zeros_like(a_op)
    for n in range(6):
        for s1 in range(2):
            for s2 in range(2):
                col = layout6.index(n, s1, s2)
                if n > 0:
                    a_op[layout6.index(n - 1, s1, s2), col] = np.sqrt(n)
                if s1 == 1:
                    sm1[layout6.index(n, 0, s2), col] = 1.0
    bare_dev = max(
        float(np.max(np.abs(np.abs(bare["cavity"]) - a_op))),
        float(np.max(np.abs(np.abs(bare["qubit1"]) - sm1))),
    )

    # Determinism: an ensemble rerun reproduces means and jump logs exactly.
    kwargs = dict(dt=0.5, master_seed=3, record_every=10, method="grouped")
    psi0 = system.initial_state("1gg")
    run_a = run_ensemble(system, psi0, 300.0, 10, **kwargs)
    run_b = run_ensemble(system, psi0, 300.0, 10, **kwargs)
    deterministic = all(
        np.asarray(getattr(run_a, f.name)).tobytes()
        == np.asarray(getattr(run_b, f.name)).tobytes()
        for f in dataclasses.fields(run_a)
    )

    # Histogram merging is order independent.
    whole = first_jump_histogram(run_a, 50.0)
    h1 = first_jump_histogram(trajectories(run_a, 0, 3), 50.0)
    h2 = first_jump_histogram(trajectories(run_a, 3, 10), 50.0)
    merged_ab = h1.merge(h2)
    merged_ba = h2.merge(h1)
    merge_ok = (
        np.array_equal(merged_ab.counts, whole.counts)
        and np.array_equal(merged_ba.counts, whole.counts)
        and merged_ab.trajectory_count == whole.trajectory_count
    )

    ok = (
        norm_err < 1e-12 and trace_err < 1e-8 and min_eig > -1e-12
        and max_lower < 1e-10 and bare_dev < 1e-4 and deterministic and merge_ok
    )
    check(
        announce, 10,
        "norm err=%.2g (1e-12); trace err=%.2g (1e-8); min channel eig=%.2g; "
        "triangularity=%.2g; bare-limit dev=%.2g; deterministic=%s; merge=%s"
        % (norm_err, trace_err, min_eig, max_lower, bare_dev, deterministic, merge_ok),
        ok,
    )
