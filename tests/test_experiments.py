import numpy as np
import pytest
import scipy.linalg as sla

from starkprobe import experiments
from starkprobe.errors import ConfigError
from starkprobe.experiments import (
    _tangent,
    lindblad_qfi_series,
    nh_qfi_series,
    refine_peak,
    resolve_params,
    run_uni_static,
    static_qfi_scan,
)
from starkprobe.lindblad import DensityMatrix
from starkprobe.metrology import default_step, qfi_pure, qfi_pure_batch, state_derivative
from starkprobe.model import (
    LatticeSpec,
    build_stark,
    build_unidirectional,
    gaussian_packet,
    middle_site,
    site_state,
)
from starkprobe.nh import evolve_nh_series
from starkprobe.spectral import eig_biorthogonal, eig_hermitian


def closed_system_qfi(spec, times):
    """QFI(t) of the closed Stark chain from the mid-lattice site.

    An independent Hermitian reference: one ``eig_hermitian`` per field
    value gives the state at every time, and ``state_derivative`` with
    ``qfi_pure`` gives the QFI one time at a time.
    """
    psi0 = site_state(spec.L, middle_site(spec.L))

    def state(h, t):
        w, V = eig_hermitian(build_stark(spec.with_field(h)))
        return V @ (np.exp(-1j * w * t) * (V.conj().T @ psi0))

    return np.array([qfi_pure(*state_derivative(lambda h: state(h, t), spec.h)[:2]).value
                     for t in times])


class TestTangent:
    def test_row_phases_do_not_move_the_derivative(self):
        # the rows at h +/- delta are aligned one by one, so random global
        # phases on them leave the derivative where phase-free rows put it
        spec = LatticeSpec(8, 1.0, 0.1, 0.0)
        times = np.array([1.0, 2.0, 4.0, 8.0])
        psi0 = site_state(8, middle_site(8))
        rng = np.random.default_rng(5)

        def clean(h):
            return evolve_nh_series(psi0, eig_biorthogonal(build_stark(spec.with_field(h))), times)

        def phased(h):
            rows = clean(h)
            if h == spec.h:
                return rows
            return rows * np.exp(2j * np.pi * rng.uniform(size=(times.size, 1)))

        states, dstates = _tangent(clean, spec.h)
        phased_states, phased_dstates = _tangent(phased, spec.h)
        assert np.array_equal(phased_states, states)
        assert np.abs(phased_dstates - dstates).max() < 1e-9 * np.abs(dstates).max()

    def test_density_matrices_difference_entrywise(self):
        times = (1.0, 2.0, 3.0)

        def evolve(h):
            return [DensityMatrix(np.array([[0.5, 0.25 * np.sin(h * t)],
                                            [0.25 * np.sin(h * t), 0.5]], dtype=complex))
                    for t in times]

        h, delta = 0.3, default_step(0.3)
        states, dstates = _tangent(evolve, h)
        dstates = list(dstates)
        assert [s.entries.tolist() for s in states] == [s.entries.tolist() for s in evolve(h)]
        for d, plus, minus, t in zip(dstates, evolve(h + delta), evolve(h - delta), times):
            assert np.array_equal(d, (plus.entries - minus.entries) / (2.0 * delta))
            exact = 0.25 * t * np.cos(h * t)
            assert np.abs(d - np.array([[0.0, exact], [exact, 0.0]])).max() < 1e-8


class TestSeriesPipelines:
    def test_lindblad_gamma_zero_routes_to_unitary(self):
        spec = LatticeSpec(8, 1.0, 0.1, 0.0)
        times = np.array([1.0, 3.0, 6.0])
        a = lindblad_qfi_series(spec, times)
        b = nh_qfi_series("hatano-nelson", spec, times)
        assert np.allclose(a.values, b.values, rtol=1e-12)

    def test_lindblad_small_gamma_approaches_unitary(self):
        times = np.array([1.0, 2.0])
        closed = closed_system_qfi(LatticeSpec(6, 1.0, 0.1, 0.0), times)
        open_ = lindblad_qfi_series(LatticeSpec(6, 1.0, 0.1, 1e-7), times)
        assert np.allclose(open_.values, closed, rtol=1e-3)

    def test_nh_routes_agree_on_wellconditioned_chain(self):
        # the unidirectional pipeline steps a grid; where the eigenbasis is
        # well conditioned the spectral route gives the same QFI
        spec = LatticeSpec(10, 1.0, 0.3, 0.0)
        times = 0.5 * np.arange(1, 11)
        psi0 = gaussian_packet(10, 1.5)
        grid = nh_qfi_series("unidirectional", spec, times, psi0=psi0)
        spectral = qfi_pure_batch(*_tangent(
            lambda h: evolve_nh_series(psi0, eig_biorthogonal(build_unidirectional(
                spec.with_field(h))), times), spec.h))
        assert np.allclose(spectral, grid.values, rtol=1e-6, atol=1e-9)

    def test_hn_series_gamma_zero_matches_closed_system(self):
        spec = LatticeSpec(9, 1.0, 0.08, 0.0)
        times = np.array([2.0, 5.0])
        nh = nh_qfi_series("hatano-nelson", spec, times)
        closed = closed_system_qfi(spec, times)
        assert np.allclose(nh.values, closed, rtol=1e-8)

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
        # d c_k / dh = -(k/h) c_k gives the exact derivative of the normalized
        # eigenvector; qfi_pure on it checks the closed form 4 Var_p(k) / h^2
        from starkprobe.metrology import qfi_pure
        from starkprobe.spectral import unidirectional_eigvec_normalized

        spec = LatticeSpec(40, 1.0, 0.05)
        n = 39
        closed = static_qfi_scan("unidirectional", spec, [spec.h], state_index=n)[0][0]

        v = unidirectional_eigvec_normalized(n, spec)
        k = np.maximum(n - np.arange(spec.L), 0)
        raw = -(k / spec.h) * v
        der = raw - v * np.vdot(v, raw)
        analytic = qfi_pure(v, der).value
        assert closed == pytest.approx(analytic, rel=1e-10)

    def test_scan_finds_interior_peak(self):
        grid = np.geomspace(5e-3, 0.5, 24)
        values, h_max, fq_max, at_boundary = static_qfi_scan(
            "unidirectional", LatticeSpec(60, 1.0, 0.0, 0.0), grid)
        assert values.shape == grid.shape
        assert grid[0] < h_max < grid[-1] and not at_boundary
        assert fq_max >= values.max() * (1 - 1e-9)

    def test_hn_state_qfi_positive(self):
        spec = LatticeSpec(30, 1.0, 0.01, 0.05)
        values = static_qfi_scan("hatano-nelson", spec, [spec.h], state_index=29)[0]
        assert values[0] > 0

    def test_unidirectional_scan_skips_the_thread_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the closed form must not start a thread pool")

        spec, grid = LatticeSpec(40, 1.0, 0.0, 0.0), np.geomspace(5e-3, 0.5, 12)
        serial = static_qfi_scan("unidirectional", spec, grid, threads=1)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
        threaded = static_qfi_scan("unidirectional", spec, grid, threads=3)
        assert np.array_equal(threaded[0], serial[0])
        assert threaded[1:] == serial[1:]

    @pytest.mark.parametrize("kind", ["hatano-nelson", "unidirectional"])
    @pytest.mark.parametrize("index", [-1, 8])
    def test_out_of_range_state_index_rejected(self, kind, index):
        # numpy would wrap -1 to column L-1 of the eigenvector matrix
        with pytest.raises(ValueError, match="state_index"):
            static_qfi_scan(kind, LatticeSpec(8, 1.0, 0.0, 0.05), [0.01, 0.02, 0.03],
                            state_index=index)


class TestRefinePeak:
    def test_boundary_flagged(self):
        xs = np.linspace(1.0, 9.0, 9)
        x_pk, y_pk, boundary = refine_peak(xs, xs)
        assert boundary
        assert x_pk == 9.0
        # At an endpoint, and at a top so flat that the parabola has no
        # vertex, the grid field comes back bit for bit, not as exp(log(x)).
        xs = np.geomspace(0.013, 0.7, 9)
        assert np.exp(np.log(xs[0])) != xs[0] and np.exp(np.log(xs[2])) != xs[2]
        assert refine_peak(xs, -xs) == (xs[0], -xs[0], True)
        flat = np.array([0.5, 1.0 - 2**-53, 1.0, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1])
        assert refine_peak(xs, flat) == (xs[2], 1.0, False)

    def test_log_axis(self):
        xs = np.geomspace(0.01, 1.0, 21)
        ys = -np.log(xs / 0.1) ** 2
        x_pk, y_pk, boundary = refine_peak(xs, ys)
        assert not boundary
        assert x_pk == pytest.approx(0.1, rel=1e-6)
        assert y_pk == pytest.approx(0.0, abs=1e-9)


class TestDriverValidation:
    def test_uni_static_state_label(self):
        with pytest.raises(ConfigError):
            run_uni_static(resolve_params("uni-static", {
                "L": [16], "states": ["highest"], "h_grid": {"lo": 0.05, "hi": 0.5, "n": 6}}),
                seed=0, threads=1)

    def test_uni_static_ground_maps_to_top_index(self):
        params = resolve_params("uni-static", {"L": [16], "states": ["ground", "mid"],
                                               "h_grid": {"lo": 0.05, "hi": 0.5, "n": 6}})
        tables = run_uni_static(params, seed=0, threads=1)()
        by_state = {row["state"]: row for row in tables["uni_static_maxima"]}
        assert by_state["ground"]["state_index"] == 15
        assert by_state["mid"]["state_index"] == 8
