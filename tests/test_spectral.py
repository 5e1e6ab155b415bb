import numpy as np
import pytest
import scipy.linalg as sla

from starkprobe.errors import ExceptionalPointProximity
from starkprobe.model import (
    LatticeSpec,
    build_hatano_nelson,
    build_stark,
    build_unidirectional,
)
from starkprobe.spectral import (
    EIGENVECTOR_CONDITION_LIMIT,
    eig_biorthogonal,
    eig_hermitian,
    unidirectional_eigvec_normalized,
)

# np.linalg.eigh returns NaN eigenvalues for an inf entry instead of raising.
BAD_INPUTS = [np.zeros((2, 3)), np.array([[np.inf, 0.0], [0.0, 0.0]])]

SCIPY_EIG = sla.eig


def general_reference(H):
    """The general route built from scipy.linalg.eig: sorted, phase-fixed, inverted."""
    w, vr = SCIPY_EIG(np.asarray(H, dtype=complex))
    order = np.lexsort((w.imag, w.real))
    w, vr = w[order], vr[:, order]
    cond = np.linalg.cond(vr)
    mag = np.abs(vr)
    first = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0)
    peaks = vr[first, np.arange(vr.shape[1])]
    vr = vr / (peaks / np.abs(peaks))
    return w, vr, np.linalg.inv(vr).conj().T, cond


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts calls of the general eigensolver scipy.linalg.eig."""
    calls = []

    def counting_eig(*args, **kwargs):
        calls.append(1)
        return SCIPY_EIG(*args, **kwargs)

    monkeypatch.setattr(sla, "eig", counting_eig)
    return calls


class TestEigHermitian:
    def test_two_site(self):
        w, V = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(V.conj().T @ V, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        w, V = eig_hermitian(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(w, [1, 2, 3])
        assert np.allclose(np.abs(V), np.eye(3))

    def test_rejects_untagged_nonhermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1j], [1j, 0.0]]))

    @pytest.mark.parametrize("H", BAD_INPUTS, ids=["non-square", "inf-entry"])
    def test_rejects_non_square_and_non_finite(self, H):
        with pytest.raises(ValueError):
            eig_hermitian(H)

    def test_stark_residuals_and_ladder(self):
        spec = LatticeSpec(10, 1.0, 0.5)
        H = build_stark(spec)
        w, V = eig_hermitian(H)
        scale = np.linalg.norm(H, 2)
        for k in range(10):
            assert np.linalg.norm(H @ V[:, k] - w[k] * V[:, k]) < 1e-10 * scale
        # strong fields: interior spacings approach h (Wannier-Stark ladder)
        strong = build_stark(LatticeSpec(10, 1.0, 5.0))
        ws, _ = eig_hermitian(strong)
        spacings = np.diff(ws)[2:-2]
        assert np.abs(spacings - 5.0).max() < 2.0 * 1.0 / 5.0

    def test_unitary_eigenvectors(self):
        spec = LatticeSpec(25, 1.0, 0.13)
        _, V = eig_hermitian(build_stark(spec))
        assert np.abs(V.conj().T @ V - np.eye(25)).max() < 1e-10


class TestEigBiorthogonal:
    def test_hermitian_input(self):
        H = build_stark(LatticeSpec(6, 1.0, 0.2))
        system = eig_biorthogonal(H)
        assert np.abs(system.eigenvalues.imag).max() < 1e-12
        assert np.allclose(system.left_vectors, system.right_vectors, atol=1e-10)
        w, _ = eig_hermitian(H)
        assert np.abs(system.eigenvalues.real - w).max() < 1e-10

    def test_unidirectional_exact_spectrum(self):
        system = eig_biorthogonal(build_unidirectional(LatticeSpec(4, 1.0, 1.0)))
        assert np.allclose(system.eigenvalues, [1.0, 2.0, 3.0, 4.0], atol=1e-12)

    def test_hatano_nelson_biorthonormality(self):
        # Oracle: explicit Gram matrix of left against right vectors.
        system = eig_biorthogonal(build_hatano_nelson(LatticeSpec(20, 1.0, 0.01, 0.05)))
        gram = system.left_vectors.conj().T @ system.right_vectors
        assert np.abs(gram - np.eye(20)).max() < 1e-8

    def test_completeness(self):
        system = eig_biorthogonal(build_hatano_nelson(LatticeSpec(12, 1.0, 0.1, 0.2)))
        resolution = system.right_vectors @ system.left_vectors.conj().T
        assert np.abs(resolution - np.eye(12)).max() < 1e-8 * system.condition
        H_back = (system.right_vectors * system.eigenvalues) @ system.left_vectors.conj().T
        H = build_hatano_nelson(LatticeSpec(12, 1.0, 0.1, 0.2))
        assert np.abs(H_back - H).max() < 1e-8 * system.condition

    def test_sorted_and_phase_fixed(self):
        system = eig_biorthogonal(build_hatano_nelson(LatticeSpec(15, 1.0, 0.05, 0.1)))
        order = np.lexsort((system.eigenvalues.imag, system.eigenvalues.real))
        assert np.array_equal(order, np.arange(15))
        peak = np.argmax(np.abs(system.right_vectors), axis=0)
        peaks = system.right_vectors[peak, np.arange(15)]
        assert np.abs(peaks.imag).max() < 1e-12
        assert np.all(peaks.real > 0)

    def test_agrees_with_hermitian_at_gamma_zero(self):
        for builder in (build_stark, build_hatano_nelson):
            spec = LatticeSpec(10, 1.0, 0.3, 0.0)
            system = eig_biorthogonal(builder(spec))
            w, _ = eig_hermitian(build_stark(spec))
            assert np.abs(system.eigenvalues.real - w).max() < 1e-10

    def test_defective_rejected(self):
        with pytest.raises(ExceptionalPointProximity):
            eig_biorthogonal(build_unidirectional(LatticeSpec(8, 1.0, 0.0)))

    @pytest.mark.parametrize("H", BAD_INPUTS, ids=["non-square", "inf-entry"])
    def test_rejects_non_square_and_non_finite(self, H):
        with pytest.raises(ValueError):
            eig_biorthogonal(H)

    @pytest.mark.parametrize("h, gamma", [
        *(pytest.param(0.1, gamma, id=str(gamma)) for gamma in (0.0, 0.05, 0.2)),
        pytest.param(0.0, 0.0, id="mirror"),
    ])
    @pytest.mark.parametrize("L", [12, 20, 21, 100])
    def test_gauge_path_matches_general_solver(self, eig_calls, L, h, gamma):
        # At h = gamma = 0 the chain is mirror-symmetric and every right
        # vector has two peaks of equal magnitude; the phase fix must pick
        # the same one on both routes.
        H = build_hatano_nelson(LatticeSpec(L, 1.0, h, gamma))
        w_ref, right_ref, _, cond_ref = general_reference(H)
        system = eig_biorthogonal(H)
        assert not eig_calls
        assert np.abs(system.eigenvalues - w_ref).max() < 1e-12 * np.abs(w_ref).max()
        assert np.abs(system.right_vectors - right_ref).max() < 1e-10
        assert system.condition == pytest.approx(cond_ref, rel=1e-6)
        gram = system.left_vectors.conj().T @ system.right_vectors
        assert np.abs(gram - np.eye(L)).max() < 1e-10

    def test_gauge_biorthonormality_where_inverse_loses_it(self):
        # Condition 1e8 with the right vectors spread over many scales: the
        # inverse of the right-vector matrix misses <L_m|R_n> = delta_mn by
        # 2e-3 here, the closed-form left vectors by 5e-9.
        system = eig_biorthogonal(build_hatano_nelson(LatticeSpec(100, 1.0, 0.01, 0.2)))
        gram = system.left_vectors.conj().T @ system.right_vectors
        assert np.abs(gram - np.eye(100)).max() < 1e-7

    def test_gauge_path_negative_hoppings(self, eig_calls):
        chain = build_hatano_nelson(LatticeSpec(20, 1.0, 0.1, 0.2))
        H = 2 * np.diag(np.diag(chain)) - chain  # every hopping negated
        system = eig_biorthogonal(H)
        assert not eig_calls
        residual = H @ system.right_vectors - system.right_vectors * system.eigenvalues
        assert np.linalg.norm(residual) < 1e-10

    @pytest.mark.parametrize("H", [
        build_hatano_nelson(LatticeSpec(6, 1.0, 0.3, 0.1)) * np.where(np.tri(6, k=-1), -1, 1),
        build_unidirectional(LatticeSpec(4, 1.0, 1.0)),
        build_hatano_nelson(LatticeSpec(8, 1.0, 0.3, 0.1)) + np.diag([0.5j] + [0] * 6, 1),
        build_hatano_nelson(LatticeSpec(8, 1.0, 0.3, 0.1)) + 0.1 * np.eye(8, k=3),
    ], ids=["opposite-sign-hoppings", "zero-hopping", "complex-hopping", "outside-band"])
    def test_other_inputs_keep_general_route(self, eig_calls, H):
        w_ref, right_ref, left_ref, cond_ref = general_reference(H)
        system = eig_biorthogonal(H)
        assert len(eig_calls) == 1
        assert np.abs(system.eigenvalues - w_ref).max() < 1e-12 * np.abs(w_ref).max()
        assert np.abs(system.right_vectors - right_ref).max() < 1e-12
        assert np.abs(system.left_vectors - left_ref).max() < 1e-12 * np.abs(left_ref).max()
        assert system.condition == pytest.approx(cond_ref, rel=1e-12)

    def test_inaccurate_gauge_result_falls_back(self, eig_calls):
        # Strong field and strong nonreciprocity: the gauge amplifies rounding
        # in the small eigenvector components of the symmetric chain to a
        # 3e-3 error here, which the residual bound catches.
        H = build_hatano_nelson(LatticeSpec(30, 1.0, 3.0, 5.0))
        w_ref, right_ref, _, _ = general_reference(H)
        system = eig_biorthogonal(H)
        assert len(eig_calls) == 1
        assert np.abs(system.eigenvalues - w_ref).max() < 1e-12 * np.abs(w_ref).max()
        assert np.abs(system.right_vectors - right_ref).max() < 1e-10

    @pytest.mark.parametrize("h", [0.0, 1.0])
    def test_acceptance_matches_general_solver(self, h):
        # The gauge and general routes accept and reject the same chains; the
        # gamma values straddle the condition limit at L = 100.
        for L in (10, 50, 100, 200):
            for gamma in (0.05, 0.1, 0.2, 0.23, 0.25, 0.3, 1.0, 50.0):
                H = build_hatano_nelson(LatticeSpec(L, 1.0, h, gamma))
                accepted = general_reference(H)[3] <= EIGENVECTOR_CONDITION_LIMIT
                try:
                    eig_biorthogonal(H)
                except ExceptionalPointProximity:
                    assert not accepted, (L, gamma)
                else:
                    assert accepted, (L, gamma)

    def test_far_skin_effect_rejected_cleanly(self):
        # The gauge spans e^-176 here; the input must come back as
        # ExceptionalPointProximity, not as an overflow or LinAlgError.
        with pytest.raises(ExceptionalPointProximity):
            eig_biorthogonal(build_hatano_nelson(LatticeSpec(200, 1.0, 0.0, 1.0)))


class TestUnidirectionalEigvec:
    def test_bottom_state_is_e1(self):
        v = unidirectional_eigvec_normalized(0, LatticeSpec(5, 1.0, 1.0))
        assert np.allclose(v, [1, 0, 0, 0, 0])

    def test_closed_form_coefficients(self):
        # (J/h)^(n-j)/(n-j)! = 1/2, 1, 1 on sites 0..2, norm 3/2
        v = unidirectional_eigvec_normalized(2, LatticeSpec(6, 1.0, 1.0))
        assert np.allclose(v, np.array([0.5, 1.0, 1.0, 0.0, 0.0, 0.0]) / 1.5)

    def test_eigen_residual_all_indices(self):
        spec = LatticeSpec(12, 1.0, 0.5)
        H = build_unidirectional(spec)
        for n in range(12):
            v = unidirectional_eigvec_normalized(n, spec)
            E = spec.h * (n + 1)
            assert np.linalg.norm(H @ v - E * v) < 1e-9 * max(1.0, abs(E))

    def test_matches_biorthogonal_solver(self):
        # moderate J/h keeps the eigenbasis well enough conditioned
        spec = LatticeSpec(12, 1.0, 0.25)
        system = eig_biorthogonal(build_unidirectional(spec))
        for n in (3, 7, 11):
            v = unidirectional_eigvec_normalized(n, spec)
            u = system.right_vectors[:, n]
            u = u / np.linalg.norm(u)
            peak = np.argmax(np.abs(v))
            v = v * np.sign(v[peak].real)
            assert np.abs(u - v).max() < 1e-8

    def test_matches_general_eigensolver_large_joh(self):
        # At J/h = 20 the basis condition number passes 1e10 so the
        # biorthogonal route refuses, but the raw general eigensolver still
        # produces accurate individual eigenvectors to compare against.
        spec = LatticeSpec(30, 1.0, 0.05)
        H = build_unidirectional(spec)
        w, vr = sla.eig(H)
        order = np.argsort(w.real)
        vr = vr[:, order]
        for n in (10, 20, 29):
            u = vr[:, n]
            u = u / u[np.argmax(np.abs(u))]
            v = unidirectional_eigvec_normalized(n, spec)
            v = v / v[np.argmax(np.abs(v))]
            assert np.abs(u - v).max() < 1e-8

    def test_normalized_stable_at_extreme_joh(self):
        # J/h = 1e4 over 400 sites puts the peak coefficient near exp(1700)
        v = unidirectional_eigvec_normalized(399, LatticeSpec(400, 1.0, 1e-4))
        assert np.isfinite(v).all()
        assert np.linalg.norm(v) == pytest.approx(1.0)
        w = unidirectional_eigvec_normalized(199, LatticeSpec(200, 1.0, 0.001))
        assert np.isfinite(w).all()
        assert np.linalg.norm(w) == pytest.approx(1.0)

    def test_rejects_h_zero_and_bad_index(self):
        with pytest.raises(ValueError):
            unidirectional_eigvec_normalized(0, LatticeSpec(4, 1.0, 0.0))
        with pytest.raises(ValueError):
            unidirectional_eigvec_normalized(4, LatticeSpec(4, 1.0, 1.0))

