import numpy as np
import pytest
import scipy.linalg as sla

from starkprobe.lindblad import DensityMatrix
from starkprobe.metrology import (
    cfi,
    default_step,
    qfi_mixed,
    qfi_pure,
    qfi_pure_batch,
    snr,
    state_derivative,
)
from starkprobe.model import LatticeSpec, build_stark
from starkprobe.spectral import eig_hermitian


def stark_ground_state(h, L=12):
    _, V = eig_hermitian(build_stark(LatticeSpec(L, 1.0, h)))
    v = V[:, 0]
    return v * np.sign(v[np.argmax(np.abs(v))].real)


class TestQfiPure:
    def test_rotating_state(self):
        lam = 0.3
        psi = np.array([np.cos(lam), np.sin(lam)], dtype=complex)
        dpsi = np.array([-np.sin(lam), np.cos(lam)], dtype=complex)
        assert qfi_pure(psi, dpsi).value == pytest.approx(4.0, abs=1e-12)

    def test_global_phase_has_no_information(self):
        psi = np.array([0.6, 0.8j], dtype=complex)
        dpsi = 1j * psi
        assert qfi_pure(psi, dpsi).value == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qfi_pure(np.array([1.0, 1.0]), np.zeros(2))

    def test_negative_clamp_window(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        dpsi = 1e-9j * psi  # pure gauge, rounds to a tiny negative
        assert qfi_pure(psi, dpsi).value == 0.0

    def test_matches_sld_route_on_projector(self):
        h = 0.05
        delta = default_step(h)
        psi, dpsi, _ = state_derivative(stark_ground_state, h, delta=delta)
        pure = qfi_pure(psi, dpsi, derivative_step=delta)
        rho_of = lambda hp: np.outer(stark_ground_state(hp), stark_ground_state(hp).conj())
        drho = (rho_of(h + delta) - rho_of(h - delta)) / (2 * delta)
        mixed, _ = qfi_mixed(rho_of(h), drho, derivative_step=delta)
        assert mixed.value == pytest.approx(pure.value, rel=1e-5)


class TestQfiMixed:
    def test_hand_computed_two_level(self):
        # rho = I/2, drho = sigma_x: single pair weight 1, element 1 -> F = 4
        rho = np.eye(2, dtype=complex) / 2
        drho = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        result, sld = qfi_mixed(rho, drho)
        assert result.value == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(sld, 2.0 * drho)

    def test_zero_derivative(self):
        result, sld = qfi_mixed(np.eye(3, dtype=complex) / 3, np.zeros((3, 3)))
        assert result.value == 0.0
        assert np.abs(sld).max() == 0.0

    def test_sld_equation_residual(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        drho = B + B.conj().T
        drho -= np.trace(drho) * np.eye(5) / 5
        _, sld = qfi_mixed(rho, drho)
        residual = (rho @ sld + sld @ rho) / 2 - drho
        assert np.abs(residual).max() < 1e-8

    def test_rank_deficiency_flagged_for_pure_state(self):
        psi = np.zeros(6, dtype=complex)
        psi[0] = 1.0
        rho = np.outer(psi, psi.conj())
        drho = np.zeros((6, 6), dtype=complex)
        drho[0, 1] = drho[1, 0] = 1.0
        result, _ = qfi_mixed(rho, drho)
        assert "rank-deficient" in result.condition_flags
        full_rank, _ = qfi_mixed(np.eye(6, dtype=complex) / 6, drho)
        assert full_rank.condition_flags == []

    def test_accepts_density_matrix_type(self):
        dm = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        drho = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        result, _ = qfi_mixed(dm, drho)
        assert result.value == pytest.approx(4.0)

    def test_validates_drho(self):
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError):
            qfi_mixed(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            qfi_mixed(rho, np.eye(2))


class TestCfi:
    def test_bernoulli(self):
        lam = 0.3
        p = np.array([lam, 1 - lam])
        dp = np.array([1.0, -1.0])
        assert cfi(p, dp) == pytest.approx(1.0 / (lam * (1 - lam)), rel=1e-12)

    def test_zero_derivative(self):
        assert cfi(np.array([0.4, 0.6]), np.zeros(2)) == 0.0

    def test_singular_outcome_reports_infinite(self):
        p = np.array([1.0, 0.0])
        dp = np.array([-0.2, 0.2])
        assert cfi(p, dp) == np.inf

    def test_site_measurement_bounded_by_qfi(self):
        # ground state (real amplitudes): site measurement is optimal, the
        # two sides agree and the bound holds to relative rounding
        h = 0.08
        delta = default_step(h)
        psi, dpsi, _ = state_derivative(stark_ground_state, h, delta=delta)
        fq = qfi_pure(psi, dpsi).value
        p_of = lambda hp: np.abs(stark_ground_state(hp)) ** 2
        dp = (p_of(h + delta) - p_of(h - delta)) / (2 * delta)
        fc = cfi(p_of(h), dp)
        assert fc <= fq + 1e-8 * max(1.0, fq)
        assert fc > 0

        # evolved state (complex amplitudes): the gap is strict
        def evolved(hp):
            w, V = eig_hermitian(build_stark(LatticeSpec(12, 1.0, hp)))
            psi0 = np.zeros(12, dtype=complex)
            psi0[5] = 1.0
            return V @ (np.exp(-1j * w * 4.0) * (V.conj().T @ psi0))

        psi_t, dpsi_t, _ = state_derivative(evolved, h, delta=delta)
        fq_t = qfi_pure(psi_t, dpsi_t).value
        q_of = lambda hp: np.abs(evolved(hp)) ** 2
        dq = (q_of(h + delta) - q_of(h - delta)) / (2 * delta)
        fc_t = cfi(q_of(h), dq)
        assert fc_t < fq_t
        assert fc_t > 0

    def test_validates_sums(self):
        with pytest.raises(ValueError):
            cfi(np.array([0.5, 0.6]), np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            cfi(np.array([0.5, 0.5]), np.array([0.1, 0.1]))


class TestStateDerivative:
    def test_circle_factory(self):
        factory = lambda h: np.array([np.cos(h), np.sin(h)], dtype=complex)
        state, der, delta = state_derivative(factory, 0.4)
        assert np.abs(der - [-np.sin(0.4), np.cos(0.4)]).max() < 1e-8
        assert delta == default_step(0.4)

    def test_gauge_alignment_kills_random_phases(self):
        rng = np.random.default_rng(9)

        def noisy(h):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            return phase * stark_ground_state(h)

        h = 0.05
        fq_values = []
        for _ in range(3):
            psi, dpsi, delta = state_derivative(noisy, h)
            fq_values.append(qfi_pure(psi, dpsi, derivative_step=delta).value)
        clean_psi, clean_dpsi, _ = state_derivative(stark_ground_state, h)
        reference = qfi_pure(clean_psi, clean_dpsi).value
        for value in fq_values:
            assert value == pytest.approx(reference, rel=1e-6)

    def test_second_order_convergence(self):
        # exact reference: first-order perturbation theory of the real,
        # sign-fixed ground state, d v_0 = sum_m v_m (v_m.D v_0)/(E_0 - E_m)
        h, L = 0.05, 12
        w, V = np.linalg.eigh(build_stark(LatticeSpec(L, 1.0, h)))
        v0 = stark_ground_state(h, L)
        D = np.diag(np.arange(1.0, L + 1))
        d_ref = sum(V[:, m] * (V[:, m] @ D @ v0) / (w[0] - w[m]) for m in range(1, L))

        def error(delta):
            _, d, _ = state_derivative(stark_ground_state, h, delta=delta)
            return np.linalg.norm(d - d_ref)

        e1, e2 = error(2e-3), error(1e-3)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_density_matrix_branch_entrywise(self):
        factory = lambda h: np.array([[1.0, h], [h, 1.0]], dtype=complex) / 2
        _, der, _ = state_derivative(factory, 0.2, delta=1e-5)
        assert np.abs(der - np.array([[0.0, 0.5], [0.5, 0.0]])).max() < 1e-9


class TestInvariances:
    def test_qfi_invariant_under_diagonal_shift(self):
        # h-independent and h-proportional uniform shifts both amount to a
        # global phase of the evolved state
        spec = LatticeSpec(10, 1.0, 0.05)
        psi0 = np.zeros(10, dtype=complex)
        psi0[4] = 1.0
        t = 5.0

        def evolved(shift_scale):
            def factory(h):
                H = build_stark(spec.with_field(h)) + shift_scale * h * np.eye(10)
                return sla.expm(-1j * H * t) @ psi0
            return factory

        values = []
        for scale in (0.0, 7.0):
            psi, dpsi, delta = state_derivative(evolved(scale), spec.h)
            values.append(qfi_pure(psi, dpsi, derivative_step=delta).value)
        assert values[1] == pytest.approx(values[0], rel=1e-6)

    def test_batch_matches_scalar_path(self):
        h = 0.07
        delta = default_step(h)
        psi, dpsi, _ = state_derivative(stark_ground_state, h, delta=delta)
        scalar = qfi_pure(psi, dpsi).value
        batch = qfi_pure_batch(
            stark_ground_state(h)[np.newaxis, :],
            stark_ground_state(h + delta)[np.newaxis, :],
            stark_ground_state(h - delta)[np.newaxis, :],
            delta,
        )
        assert batch[0] == pytest.approx(scalar, rel=1e-12)


class TestSnr:
    def test_zero_information(self):
        assert snr(0.5, 1000, 0.0) == 0.0

    def test_formula(self):
        assert snr(0.5, 1000, 4134.0) == pytest.approx(0.5 * np.sqrt(1000 * 4134.0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            snr(-0.1, 10, 1.0)
