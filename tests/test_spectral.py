import numpy as np
import pytest
import scipy.linalg as sla

from starkprobe.errors import ExceptionalPointProximity
from starkprobe.model import (
    LatticeSpec,
    OperatorMatrix,
    build_hatano_nelson,
    build_stark,
    build_unidirectional,
)
from starkprobe.spectral import (
    eig_biorthogonal,
    eig_hermitian,
    unidirectional_eigvec_normalized,
)


class TestEigHermitian:
    def test_two_site(self):
        w, V = eig_hermitian(OperatorMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), hermitian=True))
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(V.conj().T @ V, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        w, V = eig_hermitian(OperatorMatrix(np.diag([1.0, 2.0, 3.0]), hermitian=True))
        assert np.allclose(w, [1, 2, 3])
        assert np.allclose(np.abs(V), np.eye(3))

    def test_rejects_untagged_nonhermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stark_residuals_and_ladder(self):
        spec = LatticeSpec(10, 1.0, 0.5)
        H = build_stark(spec)
        w, V = eig_hermitian(H)
        scale = np.linalg.norm(H.entries, 2)
        for k in range(10):
            assert np.linalg.norm(H.entries @ V[:, k] - w[k] * V[:, k]) < 1e-10 * scale
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
        H = build_hatano_nelson(LatticeSpec(12, 1.0, 0.1, 0.2)).entries
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
        H = build_unidirectional(spec).entries
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
        H = build_unidirectional(spec).entries
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

