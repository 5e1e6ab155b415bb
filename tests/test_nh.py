import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import solve_ivp

from starkprobe.errors import TraceCollapse
from starkprobe.lindblad import DensityMatrix, trace_distance
from starkprobe.model import (
    LatticeSpec,
    build_effective_dephasing,
    build_hatano_nelson,
    build_stark,
    build_unidirectional,
    gaussian_packet,
    site_state,
)
from starkprobe.nh import evolve_nh_density, evolve_nh_grid, evolve_nh_series
from starkprobe.spectral import eig_biorthogonal


def hermitian_parts(H):
    """(H_h, H_a), both Hermitian, with H = H_h - i H_a."""
    return (H + H.conj().T) / 2.0, 1j * (H - H.conj().T) / 2.0


def trace_preserving_rhs(rho, H):
    """d rho/dt = -i[H_h, rho] - {H_a, rho} + 2 Tr(H_a rho) rho.

    The equation of motion of the normalized conjugation under H; it is
    traceless for a trace-one rho and keeps pure states pure.
    """
    H_h, H_a = hermitian_parts(H)
    return (-1j * (H_h @ rho - rho @ H_h) - (H_a @ rho + rho @ H_a)
            + 2.0 * np.trace(H_a @ rho) * rho)


class TestEvolveNH:
    def test_hermitian_matches_unitary(self):
        spec = LatticeSpec(8, 1.0, 0.2, 0.0)
        H = build_stark(spec)
        psi0 = site_state(8, 4)
        t = 6.0
        exact = sla.expm(-1j * H * t) @ psi0
        out = evolve_nh_series(psi0, eig_biorthogonal(H), [t])[0]
        # compare up to the global phase
        overlap = abs(np.vdot(exact, out))
        assert 1.0 - overlap < 1e-12

    def test_effective_dephasing_equals_normalized_unitary(self):
        spec = LatticeSpec(9, 1.0, 0.1, 0.25)
        psi0 = site_state(9, 5)
        t = 11.0
        H = build_effective_dephasing(spec)
        nh_state = evolve_nh_series(psi0, eig_biorthogonal(H), [t])[0]
        unitary = sla.expm(-1j * build_stark(spec) * t) @ psi0
        assert 1.0 - abs(np.vdot(unitary, nh_state)) ** 2 < 1e-10

    def test_grid_route_matches_spectral(self):
        spec = LatticeSpec(10, 1.0, 0.3, 0.0)
        H = build_unidirectional(spec)
        psi0 = gaussian_packet(10, sigma=1.5)
        times = np.arange(0.5, 10.5, 0.5)
        grid_states = evolve_nh_grid(psi0, H, times)
        system = eig_biorthogonal(H)
        spectral_states = evolve_nh_series(psi0, system, times)
        for a, b in zip(grid_states, spectral_states):
            assert 1.0 - abs(np.vdot(a, b)) < 1e-9

    # Each grid passes the uniform-grid check, and a state of another time
    # would be returned for the NaN, the repeated or the negative time.
    @pytest.mark.parametrize("times", [[0.5, np.nan], [0.5, 1.0, 0.5], [-2.0, 0.0, 2.0]])
    def test_grid_rejects_nan_and_unordered_times(self, times):
        H = build_unidirectional(LatticeSpec(6, 1.0, 0.3))
        with pytest.raises(ValueError, match="strictly increasing"):
            evolve_nh_grid(site_state(6, 3), H, times)

    def test_grid_rejects_nonuniform_times(self):
        H = build_unidirectional(LatticeSpec(6, 1.0, 0.3))
        with pytest.raises(ValueError, match="times do not form a uniform grid"):
            evolve_nh_grid(site_state(6, 3), H, [0.5, 1.0, 1.7])

    def test_spectral_and_expm_routes_agree(self):
        # the spectral route against the normalized dense exponential on
        # the Hatano-Nelson chain
        H = build_hatano_nelson(LatticeSpec(12, 1.0, 0.05, 0.1))
        psi0 = site_state(12, 6)
        times = np.array([1.0, 5.0, 15.0])
        for t, a in zip(times, evolve_nh_series(psi0, eig_biorthogonal(H), times)):
            raw = sla.expm(-1j * H * t) @ psi0
            assert 1.0 - abs(np.vdot(a, raw / np.linalg.norm(raw))) < 1e-9

    def test_bloch_revival_small_lattice(self):
        # unidirectional chain revives with period 2 pi / h even when finite
        spec = LatticeSpec(30, 1.0, 0.2)
        H = build_unidirectional(spec)
        psi0 = gaussian_packet(30, sigma=2.0)
        period = 2 * np.pi / spec.h
        dt = period / 64
        times = dt * np.arange(1, 129)  # two periods
        states = evolve_nh_grid(psi0, H, times)
        fid = abs(np.vdot(states[63], psi0)) ** 2
        assert fid > 0.99


class TestTracePreservingRHS:
    def test_purity_rate_identity_and_pure_state(self):
        # d Tr(rho^2)/dt = -4 [Tr(H_a rho^2) - Tr(H_a rho) Tr(rho^2)],
        # zero for projectors; cross-checked by finite differences of the
        # exact normalized evolution.
        spec = LatticeSpec(6, 1.0, 0.1, 0.08)
        H = build_hatano_nelson(spec)
        _, H_a = hermitian_parts(H)
        psi0 = site_state(6, 3)
        rho = np.outer(psi0, psi0.conj())
        rhs = trace_preserving_rhs(rho, H)
        rate = 2.0 * np.trace(rhs @ rho).real
        identity = -4.0 * (np.trace(H_a @ rho @ rho)
                           - np.trace(H_a @ rho) * np.trace(rho @ rho)).real
        assert abs(rate - identity) < 1e-12
        assert abs(rate) < 1e-12  # pure states stay pure

        eps = 1e-6
        before = evolve_nh_density(DensityMatrix(rho), H, 1.0 - eps).purity()
        after = evolve_nh_density(DensityMatrix(rho), H, 1.0 + eps).purity()
        assert abs((after - before) / (2 * eps)) < 1e-6


class TestEvolveNHDensity:
    def test_time_zero_identity(self):
        rho0 = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        out = evolve_nh_density(rho0, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)
        assert trace_distance(out, rho0) < 1e-14

    def test_pure_state_consistency(self):
        spec = LatticeSpec(8, 1.0, 0.05, 0.1)
        H = build_hatano_nelson(spec)
        psi0 = site_state(8, 4)
        t = 7.0
        psi_t = evolve_nh_series(psi0, eig_biorthogonal(H), [t])[0]
        rho_t = evolve_nh_density(DensityMatrix.from_pure(psi0), H, t)
        assert trace_distance(rho_t, np.outer(psi_t, psi_t.conj())) < 1e-10

    def test_unit_trace_and_purity_preservation(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
            psi = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            rho0 = DensityMatrix.from_pure(psi)
            for t in (0.5, 2.0):
                out = evolve_nh_density(rho0, A / np.abs(A).max(), t)
                assert abs(np.trace(out.entries) - 1.0) < 1e-12
                assert abs(out.purity() - 1.0) < 1e-9

    def test_maximally_mixed_gains_purity_under_hn(self):
        # non-normal transient growth: purity rises well above 1/L and stays
        # there, monotonically over the initial stretch
        spec = LatticeSpec(10, 1.0, 0.0, 0.3)
        H = build_hatano_nelson(spec)
        rho0 = DensityMatrix(np.eye(10, dtype=complex) / 10)
        times = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
        purities = [evolve_nh_density(rho0, H, t).purity() for t in times]
        assert all(p > 0.1 for p in purities)
        early = purities[:4]
        assert all(b > a for a, b in zip(early, early[1:]))
        assert max(purities) > 0.3

    def test_trace_collapse(self):
        H = np.diag([-400.0j, -800.0j])
        rho0 = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(TraceCollapse):
            evolve_nh_density(rho0, H, 1.0)

    def test_rhs_integration_matches_conjugation(self):
        # the Lindblad-like equation of motion and the normalized conjugation
        # describe the same channel
        spec = LatticeSpec(6, 1.0, 0.08, 0.12)
        H = build_hatano_nelson(spec)
        rho0 = DensityMatrix.from_pure(
            (site_state(6, 3) + site_state(6, 4)) / np.sqrt(2))

        def rhs_flat(_, y):
            rho = y.reshape(6, 6)
            return trace_preserving_rhs(rho, H).ravel()

        t_end = 10.0
        sol = solve_ivp(rhs_flat, (0.0, t_end), rho0.entries.ravel(),
                        rtol=1e-10, atol=1e-12, dense_output=False)
        integrated = sol.y[:, -1].reshape(6, 6)
        direct = evolve_nh_density(rho0, H, t_end)
        assert trace_distance(integrated, direct) < 1e-6
