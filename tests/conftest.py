"""Shared fixtures: prebuilt layouts and dissipative systems.

Building a system diagonalizes the Hamiltonian and dresses the jump
operators, so the common configurations are session-scoped.  The
``reference_*`` functions read the random streams without ``usctraj.rng``,
for the per-step reference of the kernel (``reference_run``) and the pins
of the one reader.  ``outcome``, ``assert_row_equals`` and
``assert_batch_equals_references`` compare the kernel with that reference;
``make_result`` builds a result by hand.
"""

from typing import NamedTuple

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.linalg import expm
from scipy.special import ndtri

from usctraj import ensemble, mcwf
from usctraj.dressed import CHANNEL_LABELS
from usctraj.errors import NumericalInconsistencyError, TimestepError
from usctraj.hilbert import build_layout
from usctraj.mcwf import EnsembleResult, _JumpColumns
from usctraj.model import SystemParams, calibrate_resonance
from usctraj.rng import PURPOSE_CHANNEL, PURPOSE_JUMP, PURPOSE_NOISE, RawWords
from usctraj.system import build_system, step_grid


def _philox_at(master_seed, traj_index, purpose, start):
    """A fresh Philox at word ``start`` of a stream, and start's offset in its block.

    The stream as first defined: the key is the uint64 array (master_seed,
    traj_index << 2 | purpose), and the counter is set through the state
    dict to the block that holds word ``start``, four words per block.
    """
    block, offset = divmod(start, 4)
    key = np.array([master_seed, (traj_index << 2) | purpose], dtype=np.uint64)
    bg = Philox(key=key)
    st = bg.state
    st["state"]["counter"][:] = 0
    st["state"]["counter"][0] = block
    st["buffer_pos"] = 4
    st["has_uint32"] = 0
    st["uinteger"] = 0
    bg.state = st
    return bg, offset


def reference_words(master_seed, traj_index, purpose, start, count):
    """Raw uint64 words [start, start + count) of a stream."""
    bg, offset = _philox_at(master_seed, traj_index, purpose, start)
    return bg.random_raw(offset + count)[offset:]


def reference_uniforms(master_seed, traj_index, purpose, start, count):
    """Words [start, start + count) of a stream as numpy's uniforms in [0, 1)."""
    bg, offset = _philox_at(master_seed, traj_index, purpose, start)
    return Generator(bg).random(offset + count)[offset:]


def reference_normals(master_seed, traj_index, purpose, start, count):
    """Those uniforms as standard normals, u = 0 nudged to the smallest positive double."""
    u = reference_uniforms(master_seed, traj_index, purpose, start, count)
    return ndtri(np.maximum(u, np.finfo(float).tiny))


def _at_step(err, k):
    """err, marked with the step k at which the reference raised it."""
    err.step = k
    return err


def reference_run(
    system, psi0, t_final, dt, seed, traj_index, record_every,
    homodyne_channels=(), drift_mode="qsd",
):
    """The kernel one step at a time: (series, jumps, final, states).

    The channels in ``homodyne_channels`` diffuse by ``drift_mode``; the
    others are photodetected.  Each random word is read by its own index:
    threshold k at step k, channel word q at the q-th jump, and the noise
    words in order of use.  Channel m is row m of the system's S^+ stack
    and rate vector.  A jump is (time, channel, dp of every channel), with
    0 on the homodyned ones.  An error carries the step that raised it.
    """
    psi = np.asarray(psi0, dtype=complex)
    hom = [m for m, label in enumerate(CHANNEL_LABELS) if label in homodyne_channels]
    jump = [m for m, label in enumerate(CHANNEL_LABELS) if label not in homodyne_channels]
    propagator = expm(-1j * system.h_nh * dt)
    n_steps = int(round(t_final / dt))
    rec_steps = np.arange(0, n_steps + 1, record_every)
    series = np.empty((3, rec_steps.size))
    snapshots = np.empty((rec_steps.size, psi.size), dtype=complex)
    jumps = []
    rec_i = 0
    drawn = 0  # noise words consumed
    for k in range(n_steps + 1):
        if rec_i < rec_steps.size and k == rec_steps[rec_i]:
            amps3 = system.plus_stack[:3] @ psi
            series[:, rec_i] = np.einsum("md,md->m", amps3.conj(), amps3).real
            snapshots[rec_i] = psi
            rec_i += 1
        if k == n_steps:
            break
        if jump:
            amps = system.plus_stack[jump] @ psi
            dp = dt * system.rates[jump] * np.einsum("md,md->m", amps.conj(), amps).real
            if dp.max() >= mcwf.MAX_DP_PER_STEP:
                raise _at_step(TimestepError(
                    f"per-channel jump probability {dp.max():.3g} >= {mcwf.MAX_DP_PER_STEP}; "
                    "reduce dt"
                ), k)
            if dp.sum() >= 1.0:
                raise _at_step(TimestepError(f"total jump probability {dp.sum():.3g} >= 1; reduce dt"), k)
            if dp.sum() > reference_uniforms(seed, traj_index, PURPOSE_JUMP, k, 1)[0]:
                eps_prime = reference_uniforms(seed, traj_index, PURPOSE_CHANNEL, len(jumps), 1)[0]
                cum = np.cumsum(dp)
                m = int(np.searchsorted(cum / cum[-1], eps_prime, side="right"))
                norm = np.linalg.norm(amps[m])
                if norm < mcwf.JUMP_NORM_FLOOR:
                    raise _at_step(NumericalInconsistencyError(
                        f"channel {CHANNEL_LABELS[jump[m]]} selected but ||S^+ psi|| = {norm:.3e}"
                    ), k)
                psi = amps[m] / norm
                dp_all = np.zeros(len(CHANNEL_LABELS))
                dp_all[jump] = dp
                jumps.append(((k + 1) * dt, jump[m], dp_all))
                continue
        phi = propagator @ psi
        if hom:
            dw = np.sqrt(dt) * reference_normals(seed, traj_index, PURPOSE_NOISE, drawn, len(hom))
            drawn += len(hom)
            back = np.zeros_like(phi)
            for m, w in zip(hom, dw):
                rate = float(system.rates[m])
                amp = system.plus_stack[m] @ phi
                z = np.vdot(phi, amp)
                if drift_mode == "qsd":
                    x = 2.0 * z.real
                    back += (rate * x * dt + np.sqrt(rate) * w) * amp
                else:
                    drift = rate**2 * (np.conj(z) - z)
                    back += -0.5 * (drift * dt + rate * w) * amp
            phi = phi + back
        psi = phi / np.linalg.norm(phi)
    return series, jumps, psi, snapshots


class Raised(NamedTuple):
    """A run that raised: its error's type and message and, for the reference, the step."""

    message: str
    step: int | None = None


def outcome(run, *args, **kwargs):
    """What run(*args, **kwargs) returns, or the guard error it raised as ``Raised``."""
    try:
        return run(*args, **kwargs)
    except (TimestepError, NumericalInconsistencyError) as err:
        return Raised(f"{type(err).__name__}: {err}", getattr(err, "step", None))


def _row(result, j):
    """Trajectory j of a result in the reference's form; its states None unless stored."""
    sel = result.jump_traj == j
    jumps = list(zip(result.jump_time[sel], result.jump_channel[sel], result.jump_dp[sel]))
    states = None if result.states is None else result.states[j]
    return result.rows[j], jumps, result.final_states[j], states


def assert_row_equals(result, j, ref):
    """Trajectory j of a result equals ``ref``, bit for bit.

    ``ref`` is a reference run's (series, jumps, final, states) or a single
    run, whose one row is compared.  The states are compared where both
    sides hold them.
    """
    if isinstance(ref, EnsembleResult):
        ref = _row(ref, 0)
    series, jumps, final, states = _row(result, j)
    np.testing.assert_array_equal(series, ref[0], strict=True)
    np.testing.assert_array_equal(final, ref[2], strict=True)
    if states is not None and ref[3] is not None:
        np.testing.assert_array_equal(states, ref[3], strict=True)
    assert [jump[:2] for jump in jumps] == [jump[:2] for jump in ref[1]]
    for (_, _, dp), (_, _, want) in zip(jumps, ref[1]):
        np.testing.assert_array_equal(dp, want, strict=True)


def assert_batch_equals_references(batch, refs):
    """A batch's outcome against the outcomes of its rows' references.

    A batch raises the error of the row whose reference raised at the
    earliest step, the lowest such row on a tie; that row is returned.
    Otherwise every row equals its reference, and None is returned.
    """
    raised = [(ref.step, j) for j, ref in enumerate(refs) if isinstance(ref, Raised)]
    if raised:
        first = min(raised)[1]
        assert batch == Raised(refs[first].message)
        return first
    for j, ref in enumerate(refs):
        assert_row_equals(batch, j, ref)
    return None


def make_result(records, time_grid):
    """The ensemble of (series, jumps) records on time_grid, whose last point is the horizon.

    Record i holds trajectory i's (3, T) series and its jumps as (time,
    channel) pairs, each with zero jump probabilities.
    """
    jumps = _JumpColumns()
    for i, (_, log) in enumerate(records):
        for t, m in log:
            jumps.append(i, t, m, np.zeros(4))
    return EnsembleResult(
        time_grid=time_grid,
        horizon=time_grid[-1],
        rows=[series for series, _ in records],
        final_states=np.ones((len(records), 1), dtype=complex),
        top_fock_peak=0.0,
        **jumps.columns(),
    )


@pytest.fixture(scope="session")
def layout6():
    return build_layout(6)


@pytest.fixture(scope="session")
def layout10():
    return build_layout(10)


@pytest.fixture(scope="session")
def p_resonant(layout6):
    """Lossless resonant parameters, effective-exact calibration."""
    return calibrate_resonance(SystemParams(), layout6, which="effective")


@pytest.fixture(scope="session")
def p_paper_rates(layout6):
    """The headline dissipative configuration: kappa = gamma = 4e-5."""
    base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=0.0)
    return calibrate_resonance(base, layout6, which="effective")


@pytest.fixture(scope="session")
def system_eff(p_paper_rates):
    return build_system(p_paper_rates, n_fock=6, hamiltonian="effective")


@pytest.fixture(scope="session")
def hom_system(layout6):
    """Rates ten times the headline ones, for the diffusive unravelling at dt = 0.1."""
    base = SystemParams(kappa=4e-4, gamma1=4e-4, gamma2=4e-4, gamma_c=0.0)
    p = calibrate_resonance(base, layout6, which="effective")
    return build_system(p, n_fock=6, hamiltonian="effective")


@pytest.fixture(scope="session")
def p_full10(layout10):
    base = SystemParams(kappa=4e-5, gamma1=4e-5, gamma2=4e-5, gamma_c=0.0)
    return calibrate_resonance(base, layout10, which="full")


@pytest.fixture(scope="session")
def system_full10(p_full10):
    return build_system(p_full10, n_fock=10, hamiltonian="full")


@pytest.fixture(scope="session")
def trajectories_alone():
    """The trajectories of a run_ensemble call, each run on its own.

    Returns one (series, jumps, final, peak) tuple per trajectory: its (3, T)
    observables, its jumps as (time, channel, dp) tuples, its final state and
    its top-Fock peak.  A grouped trajectory is ``ensemble._sample_grouped``
    over the run's flows into columns of its own, its series stitched from
    the segment table the sampler appends and its final state computed
    from that table's last segment (``_state_at_age``) right away; a direct
    one is ``mcwf.run_trajectory``.
    """

    def run(system, psi0, t_final, n, dt=0.5, master_seed=0, record_every=1,
            method="grouped"):
        if method == "direct":
            rows = [
                mcwf.run_trajectory(
                    system, psi0, t_final, dt=dt, seed=master_seed, traj_index=i,
                    record_every=record_every,
                )
                for i in range(n)
            ]
            return [
                (r.rows[0], list(zip(r.jump_time, r.jump_channel, r.jump_dp)),
                 r.final_states[0], r.top_fock_peak)
                for r in rows
            ]
        n_steps, rec_steps = step_grid(t_final, dt, record_every)
        propagator = expm(-1j * system.h_nh * dt)
        flows = ensemble._discover_flows(psi0, system, propagator, n_steps, dt)
        powers = ensemble._binary_powers(propagator, n_steps)
        read_words = RawWords()
        alone = []
        for i in range(n):
            log, segments = _JumpColumns(), ensemble._Segments()
            peak = ensemble._sample_grouped(
                i, flows, system, master_seed, n_steps, dt, read_words, log, segments,
            )
            entries, flow_ids, _ = segments.columns()
            series = ensemble._stitch([f.obs for f in flows], rec_steps, entries, flow_ids)
            # the final state computed right away from the last segment
            final = ensemble._state_at_age(
                flows[flow_ids[-1]].state0, powers, n_steps - int(entries[-1])
            )
            cols = log.columns()
            jumps = list(zip(cols["jump_time"], cols["jump_channel"], cols["jump_dp"]))
            alone.append((series, jumps, final, peak))
        return alone

    return run


def assert_allclose(actual, desired, atol=0.0, rtol=1e-7):
    np.testing.assert_allclose(actual, desired, atol=atol, rtol=rtol)
