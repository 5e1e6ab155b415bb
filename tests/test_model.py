import numpy as np
import pytest
import scipy.linalg as sla

from starkprobe.model import (
    LatticeSpec,
    build_dephasing_ops,
    build_effective_dephasing,
    build_hatano_nelson,
    build_stark,
    build_unidirectional,
    gaussian_packet,
    middle_site,
    site_state,
)


class TestLatticeSpec:
    def test_valid(self):
        spec = LatticeSpec(10, 1.0, 0.05, 0.02)
        assert spec.L == 10 and spec.h == 0.05

    @pytest.mark.parametrize("kwargs", [
        dict(L=1), dict(L=0), dict(L=2, J=0.0), dict(L=2, J=-1.0),
        dict(L=2, h=-0.1), dict(L=2, gamma=-0.01), dict(L=2, h=float("nan")),
        dict(L=2, J=float("inf")),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            LatticeSpec(**kwargs)

    def test_mu_matches_asinh(self):
        for g in (0.0, 1e-12, 0.05, 0.3, 1.0):
            assert LatticeSpec(2, gamma=g).mu == pytest.approx(np.arcsinh(g), abs=1e-15)

    def test_with_field(self):
        spec = LatticeSpec(5, 2.0, 0.1, 0.3)
        shifted = spec.with_field(0.2)
        assert shifted.h == 0.2 and shifted.J == 2.0 and shifted.gamma == 0.3



@pytest.mark.parametrize("builder", [
    build_stark, build_effective_dephasing, build_hatano_nelson, build_unidirectional,
])
def test_builders_return_plain_complex_arrays(builder):
    H = builder(LatticeSpec(5, 1.0, 0.2, 0.1))
    assert type(H) is np.ndarray and H.dtype == complex and H.shape == (5, 5)


class TestBuildStark:
    def test_two_site_field_free(self):
        H = build_stark(LatticeSpec(2, 1.0, 0.0))
        assert np.allclose(H, [[0, 1], [1, 0]])

    def test_three_site(self):
        H = build_stark(LatticeSpec(3, 1.0, 1.0))
        expected = [[1, 1, 0], [1, 2, 1], [0, 1, 3]]
        assert np.allclose(H, expected)

    def test_three_site_characteristic_polynomial_roots(self):
        # det(H - x) = -(x^3 - 6x^2 + 9x - 2) factors to (x-2)(x^2-4x+1),
        # giving the frozen spectrum {2-sqrt(3), 2, 2+sqrt(3)}.
        H = build_stark(LatticeSpec(3, 1.0, 1.0))
        w = np.linalg.eigvalsh(H)
        assert np.allclose(w, [2 - np.sqrt(3), 2.0, 2 + np.sqrt(3)], atol=1e-12)

    def test_lowest_eigenvalue_cross_solver(self):
        # Independent oracle: general (non-symmetric) dense eigensolver.
        H = build_stark(LatticeSpec(40, 1.0, 0.05))
        hermitian = np.linalg.eigvalsh(H).min()
        general = np.sort_complex(sla.eigvals(H)).real.min()
        assert hermitian == pytest.approx(general, abs=1e-10)

    def test_exactly_symmetric_real(self):
        H = build_stark(LatticeSpec(17, 1.0, 0.3))
        assert np.abs(H.imag).max() == 0.0
        assert np.array_equal(H, H.T)

    def test_hermitian_and_general_solver_agree(self):
        H = build_stark(LatticeSpec(12, 1.0, 0.2))
        assert np.abs(H - H.conj().T).max() < 1e-12 * np.abs(H).max()
        w_h = np.linalg.eigvalsh(H)
        w_g = np.sort(sla.eigvals(H).real)
        assert np.abs(w_h - w_g).max() < 1e-10


class TestDephasingOps:
    def test_two_site(self):
        ops = build_dephasing_ops(LatticeSpec(2))
        assert np.allclose(ops[0], np.diag([1.0, 0.0]))
        assert np.allclose(ops[1], np.diag([0.0, 1.0]))

    def test_projector_identities(self):
        ops = build_dephasing_ops(LatticeSpec(7))
        for n in ops:
            assert np.allclose(n @ n, n)
            assert np.allclose(n, n.conj().T)

    def test_completeness(self):
        ops = build_dephasing_ops(LatticeSpec(9))
        assert np.allclose(sum(ops), np.eye(9))


class TestEffectiveDephasing:
    def test_gamma_zero_is_stark(self):
        spec = LatticeSpec(6, 1.0, 0.3, 0.0)
        H = build_effective_dephasing(spec)
        assert np.abs(H - H.conj().T).max() < 1e-12 * np.abs(H).max()
        assert np.array_equal(H, build_stark(spec))

    def test_two_site_uniform_shift(self):
        H = build_effective_dephasing(LatticeSpec(2, 1.0, 0.0, 0.1))
        assert np.abs(H - H.conj().T).max() >= 1e-12 * np.abs(H).max()
        assert np.allclose(H, [[-0.05j, 1.0], [1.0, -0.05j]])

    def test_spectrum_shifted_by_half_gamma(self):
        spec = LatticeSpec(8, 1.0, 0.2, 0.07)
        w_eff = np.sort_complex(sla.eigvals(build_effective_dephasing(spec)))
        w_stark = np.linalg.eigvalsh(build_stark(spec))
        assert np.abs(w_eff.real - w_stark).max() < 1e-12
        assert np.abs(w_eff.imag + spec.gamma / 2).max() < 1e-12


class TestHatanoNelson:
    def test_gamma_zero_is_stark(self):
        spec = LatticeSpec(5, 1.0, 0.2, 0.0)
        assert np.array_equal(build_hatano_nelson(spec), build_stark(spec))

    def test_coupling_product_invariant(self):
        spec = LatticeSpec(4, 1.3, 0.0, 0.05)
        H = build_hatano_nelson(spec)
        assert H[0, 1] * H[1, 0] == pytest.approx(spec.J**2, rel=1e-14)
        assert H[0, 1] == pytest.approx(spec.J * np.exp(np.arcsinh(0.05)))

    def test_real_spectrum_via_hermitian_gauge(self):
        # Oracle: diag(e^{-mu j}) H_S diag(e^{mu j}) reproduces H_HN exactly,
        # so the open-boundary spectrum equals the (real) reciprocal one.
        spec = LatticeSpec(3, 1.0, 0.0, 0.05)
        H = build_hatano_nelson(spec)
        S = np.diag(np.exp(-spec.mu * np.arange(1, spec.L + 1)))
        gauge = S @ build_stark(spec) @ np.linalg.inv(S)
        assert np.abs(gauge - H).max() < 1e-14
        assert np.abs(sla.eigvals(H).imag).max() < 1e-8

    @pytest.mark.parametrize("L,gamma", [(50, 0.05), (120, 0.4)])
    def test_spectrum_real_large(self, L, gamma):
        spec = LatticeSpec(L, 1.0, 0.1, gamma)
        w = sla.eigvals(build_hatano_nelson(spec))
        assert np.abs(w.imag).max() < 1e-8 * spec.J

    def test_spectrum_real_extreme_corner_via_gauge(self):
        # At (L=200, gamma=1) the eigenbasis condition is ~e^176 and the raw
        # solver leaves ~1e-7 imaginary noise, so the exactly-real spectrum
        # is certified through the diagonal gauge similarity to the
        # reciprocal chain instead.
        spec = LatticeSpec(200, 1.0, 0.1, 1.0)
        H = build_hatano_nelson(spec)
        j = np.arange(1, spec.L + 1)
        expo = np.exp(-spec.mu * j)
        H_s = build_stark(spec)
        gauged = (expo[:, None] * H_s) / expo[None, :]
        assert np.abs(gauged - H).max() < 1e-12 * np.abs(H).max()
        w = sla.eigvals(H)
        assert np.abs(w.imag).max() < 1e-5 * spec.J


class TestUnidirectional:
    def test_two_site(self):
        H = build_unidirectional(LatticeSpec(2, 1.0, 1.0))
        assert np.allclose(H, [[1, 1], [0, 2]])

    def test_triangular_spectrum(self):
        spec = LatticeSpec(9, 1.0, 0.25)
        w = np.sort(sla.eigvals(build_unidirectional(spec)).real)
        assert np.allclose(w, 0.25 * np.arange(1, 10), atol=1e-12)

    def test_field_free_maximal_jordan_block(self):
        H = build_unidirectional(LatticeSpec(6, 1.0, 0.0))
        assert np.abs(sla.eigvals(H)).max() < 1e-12
        # geometric multiplicity 1: the nilpotent shift has rank L-1
        assert np.linalg.matrix_rank(H) == 5


class TestDecomposition:
    def test_constant_shift_gauge(self):
        # c*I moves every eigenvalue by c and no eigenvector.
        spec = LatticeSpec(8, 1.0, 0.15)
        H = build_stark(spec)
        w0, V0 = np.linalg.eigh(H)
        w1, V1 = np.linalg.eigh(H + 3.7 * np.eye(8))
        assert np.abs(w1 - (w0 + 3.7)).max() < 1e-10
        # align eigenvector signs before comparing
        signs = np.sign(np.einsum("ij,ij->j", V0, V1))
        assert np.abs(V1 * signs - V0).max() < 1e-10


class TestStates:
    def test_middle_site(self):
        assert middle_site(40) == 20
        assert middle_site(5) == 3

    def test_site_state(self):
        v = site_state(4, 3)
        assert np.allclose(v, [0, 0, 1, 0])
        with pytest.raises(ValueError):
            site_state(4, 5)

    def test_gaussian_packet(self):
        v = gaussian_packet(100, sigma=2.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert int(np.argmax(np.abs(v))) == 49  # site 50, the center L/2
        ratio = abs(v[50]) / abs(v[49])
        assert ratio == pytest.approx(np.exp(-1.0 / 8.0), rel=1e-12)

    @pytest.mark.parametrize("L, sigma", [(12, 1e-300), (9, 0.01), (9, 0.0185)])
    def test_gaussian_packet_rejects_underflow(self, L, sigma):
        # (9, 0.0185): the peak is finite, but its square is subnormal, so
        # the norm would come out 1.6e-8 off
        with pytest.raises(ValueError, match="underflows"):
            gaussian_packet(L, sigma)

    @pytest.mark.parametrize("L, sigma", [(9, 0.02), (12, 1e-160), (100, 1e300)])
    def test_gaussian_packet_narrow_and_wide_limits(self, L, sigma):
        v = gaussian_packet(L, sigma)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
