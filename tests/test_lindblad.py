import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from starkprobe import lindblad
from starkprobe.lindblad import (
    DensityMatrix,
    _hermitian_basis,
    build_liouvillian,
    propagate,
    trace_distance,
    vectorize,
)
from starkprobe.model import LatticeSpec, build_dephasing_ops, build_stark, middle_site, site_state


def random_density(rng, dim):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


class TestVectorization:
    def test_columnwise_order(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vectorize(m), [1.0, 2.0, 3.0, 4.0])

    def test_round_trip(self):
        # a column-major reshape inverts vectorize, for arrays and DensityMatrix
        rng = np.random.default_rng(0)
        rho = random_density(rng, 5)
        assert np.array_equal(vectorize(rho).reshape((5, 5), order="F"), rho)
        assert np.array_equal(vectorize(DensityMatrix(rho)), vectorize(rho))

    def test_sandwich_identity(self):
        # vec(A rho B) = (B^T kron A) vec(rho), the rule behind Eq.-style
        # vectorized generators; checked on random triples.
        rng = np.random.default_rng(42)
        for _ in range(5):
            A, rho, B = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                         for _ in range(3))
            direct = vectorize(A @ rho @ B)
            kron = np.kron(B.T, A) @ vectorize(rho)
            assert np.abs(direct - kron).max() < 1e-12


class TestDensityMatrix:
    def test_valid(self):
        dm = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert dm.entries.shape == (2, 2)
        assert dm.purity() == pytest.approx(0.625)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5, 0.6]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([np.nan, np.nan]))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[1.0, np.nan], [np.nan, 0.0]]))

    def test_non_finite_entries_skip_the_eigensolver(self):
        # From 4 x 4 on, LAPACK fails to converge on a NaN matrix; the
        # documented ValueError has to come first.
        with pytest.raises(ValueError, match="trace deviates"):
            DensityMatrix(np.full((4, 4), np.nan))
        rho = np.full((4, 4), 0.25)
        rho[0, 3] = rho[3, 0] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(rho)
        good = np.diag([0.25] * 4)
        with pytest.raises(ValueError, match="trace deviates"):
            DensityMatrix._stack(np.array([good, np.full((4, 4), np.nan)], dtype=complex))
        # inf - inf in the Hermiticity test is a NaN, which fails it quietly
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(np.array([[0.5, np.inf], [np.inf, 0.5]]))

    def test_from_pure(self):
        dm = DensityMatrix.from_pure(np.array([1.0, 1.0j]) / np.sqrt(2))
        assert dm.purity() == pytest.approx(1.0)


class TestLiouvillian:
    def test_unitary_spectrum_is_bohr_frequencies(self):
        spec = LatticeSpec(4, 1.0, 0.3, 0.0)
        gen = build_liouvillian(spec).toarray()
        w = np.linalg.eigvalsh(build_stark(spec))
        expected = np.sort_complex((-1j * (np.subtract.outer(w, w))).flatten())
        got = np.sort_complex(sla.eigvals(gen))
        assert np.abs(np.sort(got.imag) - np.sort(expected.imag)).max() < 1e-10
        assert np.abs(got.real).max() < 1e-10

    def test_two_site_pure_dephasing_rate(self):
        # J = 0: the coherence obeys d rho_12/dt = -gamma rho_12, so -gamma
        # must appear in the spectrum on the coherence subspace.
        gen = build_liouvillian(LatticeSpec(2, 1e-12, 0.0, 1.0)).toarray()
        w = np.sort(sla.eigvals(gen).real)
        assert np.abs(w - np.array([-1.0, -1.0, 0.0, 0.0])).max() < 1e-9

    @pytest.mark.parametrize("L", [2, 4, 7, 10])
    def test_cptp_spectrum_nonpositive(self, L):
        gen = build_liouvillian(LatticeSpec(L, 1.0, 0.2, 0.3)).toarray()
        assert sla.eigvals(gen).real.max() < 1e-10

    def test_matches_kronecker_sum_over_jump_operators(self):
        # reference: the per-site sum of Kronecker products the one-step
        # diagonal dissipator replaces
        spec = LatticeSpec(5, 1.0, 0.3, 0.4)
        H = build_stark(spec)
        I = np.eye(5)
        ref = -1j * (np.kron(I, H) - np.kron(H.T, I))
        for n in build_dephasing_ops(spec):
            ndn = n.conj().T @ n
            ref = ref + (spec.gamma / 2.0) * (
                2.0 * np.kron(n.conj(), n) - np.kron(I, ndn) - np.kron(ndn.T, I))
        assert np.abs(build_liouvillian(spec) - ref).max() < 1e-15

    def test_trace_preservation_functional(self):
        spec = LatticeSpec(5, 1.0, 0.1, 0.4)
        gen = build_liouvillian(spec)
        rng = np.random.default_rng(1)
        vec_id = vectorize(np.eye(5, dtype=complex))
        for _ in range(4):
            v = vectorize(random_density(rng, 5))
            assert abs(np.vdot(vec_id, gen @ v)) < 1e-10


class TestHermitianBasis:
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_map_is_unitary(self, dim):
        T = _hermitian_basis(dim).toarray()
        assert np.abs(T @ T.conj().T - np.eye(dim * dim)).max() < 1e-15
        assert (np.count_nonzero(T, axis=1) <= 2).all()

    def test_hermitian_input_has_real_coordinates(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 6)
        x = _hermitian_basis(6) @ vectorize(rho)
        assert np.abs(x.imag).max() < 1e-15
        assert np.allclose(x[:6], np.diag(rho).real)
        a, b = np.triu_indices(6, 1)
        assert np.allclose(x[6:6 + a.size], np.sqrt(2) * rho[a, b].real)
        assert np.allclose(x[6 + a.size:], np.sqrt(2) * rho[a, b].imag)


class TestPropagate:
    def test_matches_unitary_at_gamma_zero(self):
        spec = LatticeSpec(8, 1.0, 0.2, 0.0)
        psi0 = site_state(8, middle_site(8))
        rho0 = DensityMatrix.from_pure(psi0)
        times = [1.0, 3.0, 7.0]
        out = propagate(rho0, spec, times)
        H = build_stark(spec)
        for t, dm in zip(times, out):
            U = sla.expm(-1j * H * t)
            exact = U @ rho0.entries @ U.conj().T
            assert trace_distance(dm, exact) < 1e-9

    def test_diagonal_state_stationary_without_hopping(self):
        spec = LatticeSpec(3, 1e-14, 0.5, 0.8)
        rho0 = DensityMatrix(np.diag([0.2, 0.5, 0.3]).astype(complex))
        out = propagate(rho0, spec, [2.0, 10.0])
        for dm in out:
            assert trace_distance(dm, rho0) < 1e-9

    def test_two_site_analytic_coherence(self):
        # oracle: rho_12(t) = 0.5 exp(-gamma t) exp(-i h (1-2) t)
        gamma, h = 0.5, 0.7
        spec = LatticeSpec(2, 1e-14, h, gamma)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        times = np.array([0.5, 1.0, 2.5])
        out = propagate(DensityMatrix.from_pure(plus), spec, times)
        for t, dm in zip(times, out):
            expected = 0.5 * np.exp(-gamma * t) * np.exp(-1j * h * (1 - 2) * t)
            assert abs(dm.entries[0, 1] - expected) < 1e-10

    def test_trace_and_purity_behavior(self):
        spec = LatticeSpec(10, 1.0, 0.1, 0.3)
        rho0 = DensityMatrix.from_pure(site_state(10, 5))
        times = np.linspace(2.0, 40.0, 20)
        out = propagate(rho0, spec, times)
        purities = [dm.purity() for dm in out]
        for dm in out:
            assert abs(np.trace(dm.entries) - 1.0) < 1e-10
        assert all(p2 <= p1 + 1e-10 for p1, p2 in zip(purities, purities[1:]))

    def test_semigroup_property(self):
        spec = LatticeSpec(6, 1.0, 0.25, 0.15)
        rho0 = DensityMatrix.from_pure(site_state(6, 3))
        direct = propagate(rho0, spec, [7.0])[0]
        mid = propagate(rho0, spec, [3.0])[0]
        chained = propagate(mid, spec, [4.0])[0]
        assert trace_distance(direct, chained) < 1e-9

    def test_uniform_grid_single_exponential_consistency(self):
        # the gap cache must give the same answer as one-shot propagation
        spec = LatticeSpec(5, 1.0, 0.3, 0.2)
        rho0 = DensityMatrix.from_pure(site_state(5, 3))
        grid = propagate(rho0, spec, np.arange(1.0, 11.0))
        oneshot = propagate(rho0, spec, [10.0])[0]
        assert trace_distance(grid[-1], oneshot) < 1e-10

    def test_rejects_unsorted_times(self):
        spec = LatticeSpec(3, 1.0, 0.1, 0.1)
        rho0 = DensityMatrix(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError):
            propagate(rho0, spec, [2.0, 1.0])
        with pytest.raises(ValueError):
            propagate(rho0, spec, [-1.0, 1.0])

    def test_rejects_nan_times(self):
        spec = LatticeSpec(3, 1.0, 0.1, 0.1)
        rho0 = DensityMatrix(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError, match="finite"):
            propagate(rho0, spec, [np.nan])

    def test_positivity_loss_on_anti_dissipative_generator(self, monkeypatch):
        # reversing the dissipator sign amplifies coherences until an
        # eigenvalue dives below the hard floor
        from starkprobe.errors import PositivityLoss

        spec = LatticeSpec(2, 1.0, 0.0, 0.8)
        unitary = build_liouvillian(LatticeSpec(2, 1.0, 0.0, 0.0))
        dissipator = build_liouvillian(spec) - unitary
        bad = unitary - dissipator
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        monkeypatch.setattr(lindblad, "build_liouvillian", lambda _: bad)
        with pytest.raises(PositivityLoss):
            propagate(DensityMatrix.from_pure(plus), spec, [5.0])

    def test_small_positivity_breach_is_positivity_loss(self, monkeypatch):
        # a smallest eigenvalue of about -1e-7, below the DensityMatrix floor
        from starkprobe.errors import PositivityLoss

        spec = LatticeSpec(2, 1.0, 0.0, 0.8)
        unitary = build_liouvillian(LatticeSpec(2, 1.0, 0.0, 0.0))
        bad = 2.0 * unitary - build_liouvillian(spec)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        monkeypatch.setattr(lindblad, "build_liouvillian", lambda _: bad)
        with pytest.raises(PositivityLoss):
            propagate(DensityMatrix.from_pure(plus), spec, [2.5e-7])

    @pytest.mark.parametrize("L", range(2, 9))
    # The strong-field lists have gaps that the step rule splits into 2^j
    # applications of a shorter-step propagator.
    @pytest.mark.parametrize("times, h", [
        (np.arange(1.0, 6.0), 0.3),
        ([0.0, 0.3, 2.0, 2.1, 9.5], 0.3),
        ([100.0], 2.0),
        ([1.0, 2.0, 60.0], 2.0),
    ], ids=["times0", "times1", "times2", "times3"])
    def test_matches_complex_liouvillian_exponential(self, L, times, h):
        spec = LatticeSpec(L, 1.0, h, 0.1)
        rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
        gen = build_liouvillian(spec).toarray()
        for t, dm in zip(times, propagate(rho0, spec, times)):
            exact = (sla.expm(gen * t) @ vectorize(rho0)).reshape((L, L), order="F")
            assert np.abs(dm.entries - exact).max() < 1e-12

    @pytest.mark.parametrize("L", range(2, 9))
    def test_states_are_exactly_hermitian(self, L):
        # T^dag maps the real coordinates back: rho_ba is the conjugate of
        # rho_ab bit for bit, and the diagonal is real.
        spec = LatticeSpec(L, 1.0, 2.0, 0.1)
        rho0 = DensityMatrix(random_density(np.random.default_rng(L), L))
        for dm in propagate(rho0, spec, [0.0, 0.3, 2.0, 2.1, 9.5, 60.0]):
            rho = dm.entries
            assert np.array_equal(rho, rho.conj().T)
            assert not np.diagonal(rho).imag.any()

    def test_step_rule_splits_only_unreused_long_gaps(self, monkeypatch):
        # ||G||_1 is about 12 here, so expm(G * 1) would square twice: the
        # 100-point grid keeps the full gap, the single late time splits it.
        spec = LatticeSpec(6, 1.0, 2.0, 0.05)
        rho0 = DensityMatrix.from_pure(site_state(6, 3))
        T = _hermitian_basis(6)
        G = (T @ (build_liouvillian(spec) @ T.conj().T)).real.toarray()
        expm, calls = sla.expm, []
        monkeypatch.setattr(lindblad.sla, "expm", lambda A: calls.append(A) or expm(A))

        propagate(rho0, spec, np.arange(1.0, 101.0))
        assert len(calls) == 1
        assert np.array_equal(calls[0], G)

        calls.clear()
        propagate(rho0, spec, [100.0])
        assert len(calls) == 1
        splits = [j for j in range(1, 20) if np.array_equal(calls[0], G * (100.0 / 2 ** j))]
        assert len(splits) == 1

    def test_trace_loss_raises(self, monkeypatch):
        # an extra decay of rho_11 alone leaks population out of the trace
        spec = LatticeSpec(3, 1.0, 0.2, 0.1)
        leaky = build_liouvillian(spec).toarray()
        leaky[0, 0] -= 1e-3
        rho0 = DensityMatrix.from_pure(site_state(3, 1))
        monkeypatch.setattr(lindblad, "build_liouvillian", lambda _: sp.csr_matrix(leaky))
        with pytest.raises(ValueError, match="trace deviates from 1"):
            propagate(rho0, spec, [0.5, 1.0])
