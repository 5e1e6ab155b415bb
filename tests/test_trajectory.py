import numpy as np
import pytest
import scipy.linalg as sla

from starkprobe.lindblad import DensityMatrix, propagate, trace_distance
from starkprobe.model import LatticeSpec, build_effective_dephasing, build_stark, site_state
from starkprobe.trajectory import TrajectoryConfig, _draw, run_ensemble


class TestConfig:
    def test_valid(self):
        cfg = TrajectoryConfig(dt=0.05, t_final=50.0, n_traj=100, seed=7)
        assert cfg.n_steps() == 1000

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0, t_final=1.0, n_traj=1),
        dict(dt=-0.1, t_final=1.0, n_traj=1),
        dict(dt=0.1, t_final=-1.0, n_traj=1),
        dict(dt=0.1, t_final=1.0, n_traj=0),
        dict(dt=0.1, t_final=1.0, n_traj=1, seed=-1),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TrajectoryConfig(**kwargs)

    def test_misaligned_t_final(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(dt=0.3, t_final=1.0, n_traj=1).n_steps()

    def test_dp_per_step_guard(self):
        spec = LatticeSpec(4, 1.0, 0.0, 0.5)
        cfg = TrajectoryConfig(dt=0.5, t_final=1.0, n_traj=2)
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
            cfg = TrajectoryConfig(dt=dt, t_final=dt, n_traj=1, seed=seed)
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
        cfg = TrajectoryConfig(dt=dt, t_final=dt, n_traj=n, seed=12345)
        rho = run_ensemble(np.full(4, 0.5, dtype=complex), spec, cfg, [dt])[0].entries
        off = rho[~np.eye(4, dtype=bool)]
        assert np.abs(off - off[0]).max() < 1e-12
        fraction = 1.0 - 4.0 * off[0].real
        dp = 1.0 - np.exp(-spec.gamma * dt)
        assert abs(fraction - dp) < 3 * np.sqrt(dp * (1 - dp) / n)



class TestEnsemble:
    def test_gamma_zero_average_is_pure_unitary(self):
        spec = LatticeSpec(6, 1.0, 0.3, 0.0)
        psi0 = site_state(6, 3)
        cfg = TrajectoryConfig(dt=0.1, t_final=5.0, n_traj=10, seed=1)
        out = run_ensemble(psi0, spec, cfg, [5.0])[0]
        exact = sla.expm(-1j * build_stark(spec) * 5.0) @ psi0
        assert trace_distance(out, np.outer(exact, exact.conj())) < 1e-9
        assert out.purity() == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_given_seed(self):
        spec = LatticeSpec(5, 1.0, 0.1, 0.05)
        psi0 = site_state(5, 3)
        cfg = TrajectoryConfig(dt=0.1, t_final=10.0, n_traj=300, seed=42)
        a = run_ensemble(psi0, spec, cfg, [5.0, 10.0])
        b = run_ensemble(psi0, spec, cfg, [5.0, 10.0])
        for x, y in zip(a, b):
            assert np.array_equal(x.entries, y.entries)
        other = run_ensemble(psi0, spec,
                             TrajectoryConfig(dt=0.1, t_final=10.0, n_traj=300, seed=43),
                             [5.0, 10.0])
        assert not np.array_equal(a[0].entries, other[0].entries)

    def test_matches_exact_propagation(self):
        spec = LatticeSpec(6, 1.0, 0.1, 0.05)
        psi0 = site_state(6, 3)
        n = 2000
        cfg = TrajectoryConfig(dt=0.05, t_final=10.0, n_traj=n, seed=3)
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
            cfg = TrajectoryConfig(dt=0.1, t_final=8.0, n_traj=n_traj, seed=seed)
            rho = run_ensemble(psi0, spec, cfg, [8.0])[0]
            return rho.entries[2, 2].real

        seeds = range(16)
        small = np.std([mid_occupation(250, s) for s in seeds])
        large = np.std([mid_occupation(1000, s) for s in seeds])
        # quadrupling the ensemble should roughly halve the standard error
        assert small / large == pytest.approx(2.0, rel=0.5)

    def test_times_must_align_to_grid(self):
        spec = LatticeSpec(4, 1.0, 0.1, 0.02)
        cfg = TrajectoryConfig(dt=0.1, t_final=5.0, n_traj=2, seed=0)
        with pytest.raises(ValueError):
            run_ensemble(site_state(4, 2), spec, cfg, [0.35])

    def test_requires_normalized_state(self):
        cfg = TrajectoryConfig(dt=0.1, t_final=1.0, n_traj=2, seed=0)
        with pytest.raises(ValueError):
            run_ensemble(np.array([1.0, 1.0, 0.0]), LatticeSpec(3, 1.0, 0.0, 0.1), cfg, [1.0])

    def test_time_zero_checkpoint(self):
        spec = LatticeSpec(4, 1.0, 0.1, 0.02)
        cfg = TrajectoryConfig(dt=0.1, t_final=1.0, n_traj=5, seed=0)
        psi0 = site_state(4, 2)
        out = run_ensemble(psi0, spec, cfg, [0.0, 1.0])
        assert trace_distance(out[0], np.outer(psi0, psi0.conj())) < 1e-14


def philox_stream(seed, k):
    """A fresh generator on stream (seed, k), read from its start."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))


class TestStreamPositions:
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 2501])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("k", [0, 12345])
    def test_site_uniform_is_second_row_of_stream(self, n_steps, seed, k):
        # The site uniform of a jump at step s is entry [1, s] of the
        # (2, n_steps) block of stream (seed, k), on every lane of a Philox
        # block, whatever draws the generator served before.
        ref = philox_stream(seed, k).random((2, n_steps))[1]
        rng = np.random.Generator(np.random.Philox())
        got = [_draw(rng, seed, k, n_steps + s) for s in range(n_steps)]
        assert np.array_equal(got, ref)


def per_step_ensemble(psi0, spec, cfg, times):
    """Reference sampler: every trajectory takes every dt step.

    Same Philox streams and rules as run_ensemble (jump when the uniform is
    below the step's norm loss, site by cumulative pre-step weight), with no
    table.  Returns the averaged states and whether any trajectory jumped on
    two consecutive steps.
    """
    n = cfg.n_traj
    steps = [round(t / cfg.dt) for t in times]
    E = sla.expm(-1j * build_effective_dephasing(spec) * cfg.dt)
    u = np.array([philox_stream(cfg.seed, k).random((2, max(steps))) for k in range(n)])
    psi = np.tile(np.asarray(psi0, dtype=complex)[:, np.newaxis], (1, n))
    sums = {0: psi @ psi.conj().T}
    last_jump = np.full(n, -2)
    consecutive = False
    for s in range(max(steps)):
        phi = E @ psi
        q = np.einsum("ij,ij->j", phi.conj(), phi).real
        jumpers = np.flatnonzero(u[:, 0, s] < 1.0 - q)
        post = phi / np.sqrt(q)
        if jumpers.size:
            cum = np.cumsum(np.abs(psi[:, jumpers]) ** 2, axis=0)
            sites = (cum > u[jumpers, 1, s] * cum[-1]).argmax(axis=0)
            amps = psi[sites, jumpers]
            post[:, jumpers] = 0.0
            post[sites, jumpers] = amps / np.abs(amps)
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
        # odd step counts start the site uniforms on lanes 3 and 1 of a block
        (5, 0.1, 0.95, 0.1, 400, [0.7, 0.3], "site"),
        (4, 0.2, 0.92, 0.1, 400, [2.5, 1.0], "uniform"),
    ])
    def test_matches_reference(self, L, h, gamma, dt, n_traj, times, state):
        spec = LatticeSpec(L, 1.0, h, gamma)
        if state == "site":
            psi0 = site_state(L, 2)
        else:
            psi0 = np.exp(1j * np.arange(L)) / np.sqrt(L)
        cfg = TrajectoryConfig(dt=dt, t_final=max(times), n_traj=n_traj, seed=11)
        ref, consecutive = per_step_ensemble(psi0, spec, cfg, times)
        out = run_ensemble(psi0, spec, cfg, times)
        for t, a, b in zip(times, out, ref):
            assert np.abs(a.entries - b).max() < 1e-12, f"t = {t}"
        if gamma * dt > 0.09:
            # near the ceiling, jumps on back-to-back steps occur
            assert consecutive
