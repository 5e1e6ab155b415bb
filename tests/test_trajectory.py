import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from starkprobe.errors import NormCollapse
from starkprobe.lindblad import DensityMatrix, propagate, trace_distance
from starkprobe.model import LatticeSpec, build_effective_dephasing, build_stark, site_state
from starkprobe.trajectory import TrajectoryConfig, _philox_block, _round_uniforms, run_ensemble


class TestConfig:
    def test_valid(self):
        cfg = TrajectoryConfig(dt=0.05, n_traj=100, seed=7)
        assert (cfg.dt, cfg.n_traj, cfg.seed) == (0.05, 100, 7)

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0, n_traj=1),
        dict(dt=-0.1, n_traj=1),
        dict(dt=0.1, n_traj=0),
        dict(dt=0.1, n_traj=1, seed=-1),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TrajectoryConfig(**kwargs)

    def test_misaligned_t_final(self):
        cfg = TrajectoryConfig(dt=0.3, n_traj=1)
        with pytest.raises(ValueError, match="does not lie on the dt = 0.3 grid"):
            run_ensemble(site_state(4, 2), LatticeSpec(4, 1.0, 0.0, 0.1), cfg, [1.0])

    def test_dp_per_step_guard(self):
        spec = LatticeSpec(4, 1.0, 0.0, 0.5)
        cfg = TrajectoryConfig(dt=0.5, n_traj=2)
        with pytest.raises(ValueError):
            run_ensemble(site_state(4, 2), spec, cfg, [1.0])


class TestStep:
    """One run_ensemble time step: jump statistics and the jump itself."""

    def test_projector_jump_collapses_to_site(self):
        # One trajectory per seed: after one step each trajectory is either
        # the normalized no-jump state or a single site with unit amplitude.
        spec = LatticeSpec(4, 1.0, 0.1, 0.4)
        dt = 0.05
        psi = np.full(4, 0.5, dtype=complex)
        phi = sla.expm(-1j * build_effective_dephasing(spec) * dt) @ psi
        phi /= np.linalg.norm(phi)
        no_jump = np.outer(phi, phi.conj())
        jumps = 0
        for seed in range(500):
            cfg = TrajectoryConfig(dt=dt, n_traj=1, seed=seed)
            rho = run_ensemble(psi, spec, cfg, [dt])[0].entries
            occupied = np.flatnonzero(np.abs(np.diag(rho)) > 1e-12)
            if occupied.size == 1:
                jumps += 1
                # exactly one site occupied, unit weight, no coherences
                assert abs(rho[occupied[0], occupied[0]] - 1.0) < 1e-12
                assert np.abs(rho - np.diag(np.diag(rho))).max() < 1e-12
            else:
                assert np.abs(rho - no_jump).max() < 1e-12
        assert jumps > 0

    def test_jump_rate_matches_dp_binomial(self):
        # Without hopping the uniform state only decays, so after one step a
        # trajectory is either still uniform or collapsed onto one site: every
        # coherence of the average is (1 - jump fraction) / L, and the jump
        # fraction is binomial around the exact norm loss 1 - exp(-gamma dt).
        spec = LatticeSpec(4, 1e-14, 0.0, 0.3)
        dt, n = 0.2, 20_000
        cfg = TrajectoryConfig(dt=dt, n_traj=n, seed=12345)
        rho = run_ensemble(np.full(4, 0.5, dtype=complex), spec, cfg, [dt])[0].entries
        off = rho[~np.eye(4, dtype=bool)]
        assert np.abs(off - off[0]).max() < 1e-12
        fraction = 1.0 - 4.0 * off[0].real
        dp = 1.0 - np.exp(-spec.gamma * dt)
        assert abs(fraction - dp) < 3 * np.sqrt(dp * (1 - dp) / n)

    def test_waiting_steps_are_geometric(self):
        # Same decay-only chain over several steps: a trajectory that has not
        # jumped by step n is still uniform, so L * coherence is the no-jump
        # fraction, which must be exp(-gamma n dt).  An off-by-one in the
        # waiting steps shifts every checkpoint by a factor exp(gamma dt).
        spec = LatticeSpec(4, 1e-14, 0.0, 0.3)
        dt, n = 0.2, 20_000
        steps = [1, 5, 20]
        cfg = TrajectoryConfig(dt=dt, n_traj=n, seed=2718)
        out = run_ensemble(np.full(4, 0.5, dtype=complex), spec, cfg, [dt * m for m in steps])
        for m, rho in zip(steps, out):
            off = rho.entries[~np.eye(4, dtype=bool)]
            assert np.abs(off - off[0]).max() < 1e-12
            survived = 4.0 * off[0].real
            p = np.exp(-spec.gamma * m * dt)
            assert abs(survived - p) < 3 * np.sqrt(p * (1 - p) / n), f"n = {m}"



class TestEnsemble:
    def test_gamma_zero_average_is_pure_unitary(self):
        spec = LatticeSpec(6, 1.0, 0.3, 0.0)
        psi0 = site_state(6, 3)
        cfg = TrajectoryConfig(dt=0.1, n_traj=10, seed=1)
        out = run_ensemble(psi0, spec, cfg, [5.0])[0]
        exact = sla.expm(-1j * build_stark(spec) * 5.0) @ psi0
        assert trace_distance(out, np.outer(exact, exact.conj())) < 1e-9
        assert out.purity() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 1e-300])
    def test_vanishing_rate_is_no_jump_evolution(self, gamma):
        spec = LatticeSpec(5, 1.0, 0.2, gamma)
        psi0 = np.exp(1j * np.arange(5)) / np.sqrt(5)
        cfg = TrajectoryConfig(dt=0.1, n_traj=50, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_ensemble(psi0, spec, cfg, [0.0, 1.3, 3.0])
        for t, rho in zip([0.0, 1.3, 3.0], out):
            exact = sla.expm(-1j * build_stark(spec) * t) @ psi0
            assert trace_distance(rho, np.outer(exact, exact.conj())) < 1e-9, f"t = {t}"

    def test_non_finite_step_raises_norm_collapse(self):
        # A field of 1e300 makes the one-step exponential NaN: the no-jump
        # norm check names it, before any division can warn.
        spec = LatticeSpec(4, 1.0, 1e300, 0.02)
        cfg = TrajectoryConfig(dt=0.1, n_traj=5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormCollapse, match="no-jump norm"):
                run_ensemble(site_state(4, 2), spec, cfg, [1.0])

    def test_deterministic_given_seed(self):
        spec = LatticeSpec(5, 1.0, 0.1, 0.05)
        psi0 = site_state(5, 3)
        cfg = TrajectoryConfig(dt=0.1, n_traj=300, seed=42)
        a = run_ensemble(psi0, spec, cfg, [5.0, 10.0])
        b = run_ensemble(psi0, spec, cfg, [5.0, 10.0])
        for x, y in zip(a, b):
            assert np.array_equal(x.entries, y.entries)
        other = run_ensemble(psi0, spec,
                             TrajectoryConfig(dt=0.1, n_traj=300, seed=43),
                             [5.0, 10.0])
        assert not np.array_equal(a[0].entries, other[0].entries)

    def test_matches_exact_propagation(self):
        spec = LatticeSpec(6, 1.0, 0.1, 0.05)
        psi0 = site_state(6, 3)
        n = 2000
        cfg = TrajectoryConfig(dt=0.05, n_traj=n, seed=3)
        times = [5.0, 10.0]
        ens = run_ensemble(psi0, spec, cfg, times)
        exact = propagate(DensityMatrix.from_pure(psi0), spec, times)
        for est, ref in zip(ens, exact):
            assert trace_distance(est, ref) < 3.0 / np.sqrt(n)

    def test_monte_carlo_error_shrinks_with_n(self):
        # standard error measured as cross-seed spread of an observable,
        # which isolates the statistical component from the O(dt) jump bias
        spec = LatticeSpec(5, 1.0, 0.15, 0.08)
        psi0 = site_state(5, 3)

        def mid_occupation(n_traj, seed):
            cfg = TrajectoryConfig(dt=0.1, n_traj=n_traj, seed=seed)
            rho = run_ensemble(psi0, spec, cfg, [8.0])[0]
            return rho.entries[2, 2].real

        seeds = range(16)
        small = np.std([mid_occupation(250, s) for s in seeds])
        large = np.std([mid_occupation(1000, s) for s in seeds])
        # quadrupling the ensemble should roughly halve the standard error
        assert small / large == pytest.approx(2.0, rel=0.5)

    def test_runs_to_the_last_time(self):
        # The config carries no horizon: the ensemble runs to max(times), and
        # an earlier checkpoint does not depend on how far it runs.
        spec, psi0 = LatticeSpec(5, 1.0, 0.1, 0.05), site_state(5, 3)
        cfg = TrajectoryConfig(dt=0.1, n_traj=400, seed=9)
        short = run_ensemble(psi0, spec, cfg, [2.0])
        long = run_ensemble(psi0, spec, cfg, [2.0, 40.0])
        assert np.array_equal(short[0].entries, long[0].entries)
        exact = propagate(DensityMatrix.from_pure(psi0), spec, [40.0])[0]
        assert trace_distance(long[1], exact) < 3.0 / np.sqrt(cfg.n_traj)

    def test_times_must_align_to_grid(self):
        spec = LatticeSpec(4, 1.0, 0.1, 0.02)
        cfg = TrajectoryConfig(dt=0.1, n_traj=2, seed=0)
        with pytest.raises(ValueError):
            run_ensemble(site_state(4, 2), spec, cfg, [0.35])

    def test_requires_normalized_state(self):
        cfg = TrajectoryConfig(dt=0.1, n_traj=2, seed=0)
        with pytest.raises(ValueError):
            run_ensemble(np.array([1.0, 1.0, 0.0]), LatticeSpec(3, 1.0, 0.0, 0.1), cfg, [1.0])

    def test_time_zero_checkpoint(self):
        spec = LatticeSpec(4, 1.0, 0.1, 0.02)
        cfg = TrajectoryConfig(dt=0.1, n_traj=5, seed=0)
        psi0 = site_state(4, 2)
        out = run_ensemble(psi0, spec, cfg, [0.0, 1.0])
        assert trace_distance(out[0], np.outer(psi0, psi0.conj())) < 1e-14


def philox_stream(seed, k):
    """A fresh generator on stream (seed, k), read from its start."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))


class TestStreamPositions:
    @pytest.mark.parametrize("r", range(7))
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("k", [0, 12345])
    def test_round_r_reads_draws_2r_and_2r_plus_1(self, r, seed, k):
        # Rounds 0 .. 6 span four Philox blocks and both lanes of each.  The
        # rounds run in order, and a second stream shares the block array,
        # as it does in a chunk.
        trajs, block = np.array([k, 7]), np.empty((2, 4))
        for i in range(r + 1):
            u_wait, u_site = _round_uniforms(seed, trajs, i, block)
        for row, key in enumerate(trajs):
            ref = philox_stream(seed, key).random(2 * r + 2)
            assert (u_wait[row], u_site[row]) == (ref[2 * r], ref[2 * r + 1])

    @pytest.mark.parametrize("block", [0, 1, 7, 2**40])
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_block_matches_numpy_philox(self, seed, block):
        keys = np.append(np.arange(4999, dtype=np.uint64), np.uint64(2**64 - 1))
        got = _philox_block(seed, keys, block)
        assert got.shape == (keys.size, 4)
        for k, row in zip(keys.tolist(), got):
            rng = philox_stream(seed, k)
            if block < 8:
                ref = rng.random(4 * block + 4)[-4:]
            else:
                # The counter counts blocks of four draws.
                rng.bit_generator.advance(block)
                ref = rng.random(4)
            assert (row == ref).all(), f"key {k}"


def per_step_ensemble(psi0, spec, cfg, times):
    """Reference sampler: every trajectory takes every dt step.

    Trajectory k reads its Philox stream (seed, k) in order, one uniform at
    a time: a waiting uniform u gives K = floor(-log1p(-u) / (gamma dt))
    steps without a jump, the step after them jumps, and the next uniform
    picks the site by cumulative pre-step weight.  Each step is one product
    with the exponential step and a renormalization, for every trajectory;
    there is no table and there are no rounds.  Returns the averaged states
    and whether any trajectory jumped on two consecutive steps.
    """
    n = cfg.n_traj
    steps = [round(t / cfg.dt) for t in times]
    rate = spec.gamma * cfg.dt
    E = sla.expm(-1j * build_effective_dephasing(spec) * cfg.dt)
    streams = [philox_stream(cfg.seed, k) for k in range(n)]

    def wait(k):
        return np.floor(-np.log1p(-streams[k].random()) / rate)

    left = np.array([wait(k) for k in range(n)])  # steps before the next jump
    psi = np.tile(np.asarray(psi0, dtype=complex)[:, np.newaxis], (1, n))
    sums = {0: psi @ psi.conj().T}
    last_jump = np.full(n, -2)
    consecutive = False
    for s in range(max(steps)):
        phi = E @ psi
        post = phi / np.sqrt(np.einsum("ij,ij->j", phi.conj(), phi).real)
        jumpers = np.flatnonzero(left == 0)
        left -= 1
        if jumpers.size:
            u_site = np.array([streams[k].random() for k in jumpers])
            cum = np.cumsum(np.abs(psi[:, jumpers]) ** 2, axis=0)
            sites = (cum > u_site * cum[-1]).argmax(axis=0)
            amps = psi[sites, jumpers]
            post[:, jumpers] = 0.0
            post[sites, jumpers] = amps / np.abs(amps)
            left[jumpers] = [wait(k) for k in jumpers]
            consecutive |= bool(np.any(last_jump[jumpers] == s - 1))
            last_jump[jumpers] = s
        psi = post
        sums[s + 1] = psi @ psi.conj().T
    rhos = [(sums[k] + sums[k].conj().T) / (2.0 * n) for k in steps]
    return rhos, consecutive


class TestPerStepOracle:
    """run_ensemble against the per-step reference on the same random numbers."""

    @pytest.mark.parametrize("L, h, gamma, dt, n_traj, times, state", [
        (4, 0.1, 0.3, 0.05, 300, [0.0, 0.5, 1.5], "site"),
        (5, 0.2, 0.5, 0.1, 257, [1.0, 0.0, 3.0], "uniform"),
        (6, 0.05, 0.99, 0.1, 300, [0.0, 2.0, 4.0], "site"),
        (6, 0.3, 0.2, 0.2, 100, [0.0], "uniform"),
        (4, 0.1, 0.5, 0.1, 4500, [0.0, 0.5, 1.0], "uniform"),  # two chunks
        # 7 and 25 steps: the doubling ends on a full and on a partial block
        (5, 0.1, 0.95, 0.1, 400, [0.7, 0.3], "site"),
        (4, 0.2, 0.92, 0.1, 400, [2.5, 1.0], "uniform"),
        # about 10 jumps each: reads well past the first Philox block
        (4, 0.1, 0.95, 0.1, 200, [0.0, 5.0, 10.0], "uniform"),
    ])
    def test_matches_reference(self, L, h, gamma, dt, n_traj, times, state):
        spec = LatticeSpec(L, 1.0, h, gamma)
        if state == "site":
            psi0 = site_state(L, 2)
        else:
            psi0 = np.exp(1j * np.arange(L)) / np.sqrt(L)
        cfg = TrajectoryConfig(dt=dt, n_traj=n_traj, seed=11)
        ref, consecutive = per_step_ensemble(psi0, spec, cfg, times)
        out = run_ensemble(psi0, spec, cfg, times)
        for t, a, b in zip(times, out, ref):
            assert np.abs(a.entries - b).max() < 1e-12, f"t = {t}"
        if gamma * dt > 0.09:
            # near the ceiling, jumps on back-to-back steps occur
            assert consecutive
