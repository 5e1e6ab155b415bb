import numpy as np
import pytest
import scipy.linalg as sla

from starkprobe.errors import ConfigError
from starkprobe.experiments import (
    hn_state_qfi,
    lindblad_qfi_series,
    nh_qfi_series,
    refine_peak,
    run_uni_static,
    static_qfi_scan,
    unidirectional_state_qfi,
    unitary_qfi_series,
)
from starkprobe.metrology import default_step, qfi_pure_batch
from starkprobe.model import LatticeSpec, build_unidirectional, gaussian_packet, site_state
from starkprobe.nh import evolve_nh_series
from starkprobe.spectral import eig_biorthogonal


class TestSeriesPipelines:
    def test_lindblad_gamma_zero_routes_to_unitary(self):
        spec = LatticeSpec(8, 1.0, 0.1, 0.0)
        times = np.array([1.0, 3.0, 6.0])
        a = lindblad_qfi_series(spec, times)
        b = unitary_qfi_series(spec, times, site_state(8, 4))
        assert np.allclose(a.values, b.values, rtol=1e-12)
        assert a.meta["formalism"] == "lindblad"

    def test_lindblad_small_gamma_approaches_unitary(self):
        times = np.array([1.0, 2.0])
        closed = unitary_qfi_series(LatticeSpec(6, 1.0, 0.1, 0.0), times)
        open_ = lindblad_qfi_series(LatticeSpec(6, 1.0, 0.1, 1e-7), times)
        assert np.allclose(open_.values, closed.values, rtol=1e-3)

    def test_nh_routes_agree_on_wellconditioned_chain(self):
        # the unidirectional pipeline steps a grid; where the eigenbasis is
        # well conditioned the spectral route gives the same QFI
        spec = LatticeSpec(10, 1.0, 0.3, 0.0)
        times = 0.5 * np.arange(1, 11)
        psi0 = gaussian_packet(10, 1.5)
        grid = nh_qfi_series("unidirectional", spec, times, psi0=psi0)
        delta = default_step(spec.h)
        states = [evolve_nh_series(psi0, eig_biorthogonal(build_unidirectional(spec.with_field(h))),
                                   times)
                  for h in (spec.h, spec.h + delta, spec.h - delta)]
        spectral = qfi_pure_batch(*states, delta)
        assert np.allclose(spectral, grid.values, rtol=1e-6, atol=1e-9)

    def test_hn_series_gamma_zero_matches_closed_system(self):
        spec = LatticeSpec(9, 1.0, 0.08, 0.0)
        times = np.array([2.0, 5.0])
        nh = nh_qfi_series("hatano-nelson", spec, times)
        closed = unitary_qfi_series(spec, times)
        assert np.allclose(nh.values, closed.values, rtol=1e-8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            nh_qfi_series("stark", LatticeSpec(4, 1.0, 0.1), np.array([1.0]))


def augmented_lindblad_qfi(L, gamma, h, t, J=1.0):
    """Mixed-state QFI at time t from expm([[G, dG/dh], [0, G]] t).

    Built here from scratch: columnwise vec (entry a + L*b holds rho[a, b]),
    dG/dh = -i(1 x D - D x 1) with D = diag(1..L), and the middle-site start.
    The upper-right block of the exponential is the exact d rho / dh.
    """
    D = np.diag(np.arange(1.0, L + 1))
    H = h * D + J * (np.eye(L, k=1) + np.eye(L, k=-1))
    I = np.eye(L)
    a, b = np.tile(np.arange(L), L), np.repeat(np.arange(L), L)
    G = -1j * (np.kron(I, H) - np.kron(H.T, I)) - gamma * np.diag((a != b).astype(float))
    n = L * L
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    A[:n, :n] = A[n:, n:] = G
    A[:n, n:] = -1j * (np.kron(I, D) - np.kron(D, I))
    E = sla.expm(A * t)
    site = (L + 1) // 2 - 1
    v0 = np.zeros(n)
    v0[site + L * site] = 1.0
    rho = (E[:n, :n] @ v0).reshape((L, L), order="F")
    drho = (E[:n, n:] @ v0).reshape((L, L), order="F")
    p, V = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    M = V.conj().T @ drho @ V
    w = p[:, np.newaxis] + p[np.newaxis, :]
    keep = w > 1e-12
    return float((2.0 * np.abs(M[keep]) ** 2 / w[keep]).sum())


class TestLindbladOracle:
    @pytest.mark.parametrize("L", [6, 7])
    @pytest.mark.parametrize("h", [0.1, 0.5])
    def test_series_matches_augmented_exponential(self, L, h):
        gamma = 0.05
        times = np.array([5.0, 20.0, 60.0])
        series = lindblad_qfi_series(LatticeSpec(L, 1.0, h, gamma), times)
        exact = [augmented_lindblad_qfi(L, gamma, h, t) for t in times]
        assert np.allclose(series.values, exact, rtol=1e-4, atol=0.0)


class TestStaticScans:
    def test_unidirectional_state_qfi_matches_analytic_derivative(self):
        # d c_k / dh = -(k/h) c_k gives an exact derivative of the
        # normalized eigenvector to check the finite-difference mechanism
        from starkprobe.metrology import qfi_pure
        from starkprobe.spectral import unidirectional_eigvec_normalized

        spec = LatticeSpec(40, 1.0, 0.05)
        n = 39
        fd = unidirectional_state_qfi(spec, n)

        v = unidirectional_eigvec_normalized(n, spec)
        k = np.maximum(n - np.arange(spec.L), 0)
        raw = -(k / spec.h) * v
        der = raw - v * np.vdot(v, raw)
        analytic = qfi_pure(v, der).value
        assert fd == pytest.approx(analytic, rel=1e-5)

    def test_scan_finds_interior_peak(self):
        grid = np.geomspace(5e-3, 0.5, 24)
        values, h_max, fq_max = static_qfi_scan(
            "unidirectional", LatticeSpec(60, 1.0, 0.0, 0.0), grid)
        assert values.shape == grid.shape
        assert grid[0] < h_max < grid[-1]
        assert fq_max >= values.max() * (1 - 1e-9)

    def test_hn_state_qfi_positive(self):
        assert hn_state_qfi(LatticeSpec(30, 1.0, 0.01, 0.05), 29) > 0


class TestRefinePeak:
    def test_interior_quadratic(self):
        xs = np.linspace(1.0, 9.0, 17)
        ys = -((xs - 4.3) ** 2)
        x_pk, y_pk, boundary = refine_peak(xs, ys)
        assert not boundary
        assert x_pk == pytest.approx(4.3, abs=1e-9)
        assert y_pk == pytest.approx(0.0, abs=1e-9)

    def test_boundary_flagged(self):
        xs = np.linspace(1.0, 9.0, 9)
        x_pk, y_pk, boundary = refine_peak(xs, xs)
        assert boundary
        assert x_pk == 9.0

    def test_log_axis(self):
        xs = np.geomspace(0.01, 1.0, 21)
        ys = -np.log(xs / 0.1) ** 2
        x_pk, _, boundary = refine_peak(xs, ys, log_x=True)
        assert not boundary
        assert x_pk == pytest.approx(0.1, rel=1e-6)


class TestDriverValidation:
    def test_uni_static_state_label(self):
        with pytest.raises(ConfigError):
            run_uni_static({"L": [16], "states": ["highest"],
                            "h_grid": {"lo": 0.05, "hi": 0.5, "n": 6}},
                           seed=0, threads=1)

    def test_uni_static_ground_maps_to_top_index(self):
        tables = run_uni_static({"L": [16], "states": ["ground", "mid"],
                                 "h_grid": {"lo": 0.05, "hi": 0.5, "n": 6}},
                                seed=0, threads=1)
        by_state = {row["state"]: row for row in tables["uni_static_maxima"]}
        assert by_state["ground"]["state_index"] == 15
        assert by_state["mid"]["state_index"] == 8
