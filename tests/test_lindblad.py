from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from starkprobe import lindblad, model
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


def density_with_smallest(rng, dim, smallest):
    """A Hermitian, trace-one matrix whose smallest eigenvalue is ``smallest``."""
    Q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    p = np.concatenate([[smallest], np.full(dim - 1, (1.0 - smallest) / (dim - 1))])
    p[1:] += np.linspace(-0.1, 0.1, dim - 1)
    rho = (Q * p) @ Q.conj().T
    return 0.5 * (rho + rho.conj().T)


def finite_only(monkeypatch, name):
    """Spy on np.linalg.<name> that fails on a non-finite input; the list of its calls."""
    kernel, calls = getattr(np.linalg, name), []

    def spy(a, *args, **kwargs):
        assert np.isfinite(a).all(), f"{name} got a non-finite candidate"
        calls.append(a.shape)
        return kernel(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def kron_liouvillian(spec):
    """The generator by the Kronecker form, as scipy's sparse arithmetic builds it."""
    H = sp.csr_matrix(build_stark(spec))
    eye = sp.identity(spec.L, dtype=complex, format="csr")
    gen = -1j * (sp.kron(eye, H) - sp.kron(H.T, eye))
    if spec.gamma > 0.0:
        d = np.array([np.diag(op) for op in build_dephasing_ops(spec)])
        weight = (np.abs(d) ** 2).sum(axis=0)
        diss = 2.0 * (d.T @ d.conj()) - weight[:, np.newaxis] - weight[np.newaxis, :]
        gen = gen + sp.diags((spec.gamma / 2.0) * diss.flatten(order="F"))
    return gen.tocsr()


def forced_route(monkeypatch, route):
    """Make propagate advance every gap by one route from MIRROR_MIN_DIM on."""
    monkeypatch.setattr(lindblad, "_dense_wins", lambda blocks, width, uses: route == "dense")


def window_lengths(monkeypatch):
    """The gap count of each window of two or more gaps whose coefficients propagate computes.

    Every such window's predicted recurrence is checked against the cap; a
    lone gap's windows of one substep may go above it.
    """
    bessel, seen = lindblad._bessel, []

    def spy(z, count):
        if len(z) > 1:
            assert count <= lindblad.CHEBYSHEV_WINDOW_TERMS
            seen.append(len(z))
        return bessel(z, count)

    monkeypatch.setattr(lindblad, "_bessel", spy)
    return seen


def chebyshev_shape(spec):
    """(c, rho, eta) of the Chebyshev route over both mirror sectors of spec."""
    _, _, blocks = lindblad._sectors(spec)
    diag = np.concatenate([block.diagonal() for block in blocks])
    return lindblad._chebyshev_shape(diag, lindblad._width(spec))


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

    def test_non_finite_entries_skip_the_eigensolver(self, monkeypatch):
        # From 4 x 4 on, LAPACK fails to converge on a NaN matrix; the
        # documented ValueError has to come first, and no NaN or infinite
        # candidate reaches either factorization.
        eig, chol = finite_only(monkeypatch, "eigvalsh"), finite_only(monkeypatch, "cholesky")
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
        with pytest.raises(ValueError, match="trace deviates"):
            DensityMatrix._stack(np.array([good, np.diag([np.inf, 0.0, 0.0, 0.0])], dtype=complex))
        # no stack held only finite, Hermitian candidates, so none was
        # factored by Cholesky; eigvalsh saw the good matrix of each stack
        assert chol == [] and eig.count((1, 4, 4)) == 2

    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("smallest, breach", [(-0.5e-8, False), (-2e-8, True)],
                             ids=["above-floor", "below-floor"])
    def test_positivity_at_the_floor(self, at, smallest, breach):
        # the floor is strict, smallest eigenvalue above -1e-8, on a stack
        # (the one Cholesky test) and on one matrix; a breach names the
        # first bad candidate and its smallest eigenvalue
        rng = np.random.default_rng(at)
        stack = np.array([density_with_smallest(rng, 6, 0.01) for _ in range(5)])
        stack[at] = density_with_smallest(rng, 6, smallest)
        message = "smallest eigenvalue -2.000e-08 violates positivity"
        if breach:
            with pytest.raises(lindblad._NotPositive, match=message) as info:
                lindblad._check(stack)
            assert info.value.index == at
            with pytest.raises(ValueError, match=message):
                DensityMatrix(stack[at])
        else:
            lindblad._check(stack)
            assert np.array_equal(DensityMatrix(stack[at]).entries, stack[at])

    def test_breach_blames_the_first_bad_candidate(self):
        rng = np.random.default_rng(5)
        stack = np.array([density_with_smallest(rng, 5, p) for p in (0.01, -3e-8, 0.02, -2e-8)])
        with pytest.raises(lindblad._NotPositive, match="-3.000e-08") as info:
            lindblad._check(stack)
        assert info.value.index == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"must be square, got shape \(2, 3\)"):
            DensityMatrix(np.ones((2, 3)))

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

    @pytest.mark.parametrize("L", range(2, 41))
    def test_direct_assembly_is_the_kronecker_form(self, L):
        # entry for entry, bit for bit, each row sorted by column and no
        # stored zero; below L = 6 scipy's kron stores explicit zeros, which
        # are taken out of the reference first
        for h in (0.0, 0.3, 2.0):
            for gamma in (0.0, 0.05):
                for J in (1.0, 0.7):
                    spec = LatticeSpec(L, J, h, gamma)
                    got, ref = build_liouvillian(spec), kron_liouvillian(spec)
                    if L <= 5:
                        ref.eliminate_zeros()
                    else:
                        assert ref.data.all()
                    assert got.shape == ref.shape and got.data.all() and got.has_sorted_indices
                    for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices),
                                 (got.data, ref.data)):
                        assert np.array_equal(a, b)

    @pytest.mark.parametrize("L", [2, 7])
    def test_cached_patterns_are_read_only(self, L):
        # shared by every caller: the Liouvillian pattern and the generator parts
        pattern, parts = lindblad._liouvillian_pattern(L), lindblad._generator_parts(L)
        assert lindblad._liouvillian_pattern(L) is pattern and lindblad._generator_parts(L) is parts
        for part in [*pattern, *parts[0], *parts[1]]:
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = part[0]
        # the generator returned owns its arrays
        gen = build_liouvillian(LatticeSpec(L, 1.0, 0.3, 0.1))
        assert all(part.flags.writeable for part in (gen.data, gen.indices, gen.indptr))

    def test_trace_preservation_functional(self):
        spec = LatticeSpec(5, 1.0, 0.1, 0.4)
        gen = build_liouvillian(spec)
        rng = np.random.default_rng(1)
        vec_id = vectorize(np.eye(5, dtype=complex))
        for _ in range(4):
            v = vectorize(random_density(rng, 5))
            assert abs(np.vdot(vec_id, gen @ v)) < 1e-10


def mirror_superoperator(L):
    """R: vec(rho) -> vec(V rho^T V^T), V = P U, P reversing the sites, U = diag((-1)^j)."""
    V = np.diag((-1.0) ** np.arange(1, L + 1))[::-1]
    swap = np.zeros((L * L, L * L))  # vec(rho) -> vec(rho^T)
    a, b = np.divmod(np.arange(L * L), L)
    swap[a + b * L, b + a * L] = 1.0
    return np.kron(V, V) @ swap


class TestHermitianBasis:
    @pytest.mark.parametrize("dim", range(1, 10))
    def test_map_is_unitary(self, dim):
        T, k = _hermitian_basis(dim)
        T = T.toarray()
        assert np.abs(T @ T.conj().T - np.eye(dim * dim)).max() < 1e-15
        assert (np.count_nonzero(T, axis=1) <= 4).all()
        # the mirror sectors, (L^2 - L)/2 and (L^2 + L)/2 coordinates
        assert sorted([k, dim * dim - k]) == [(dim * dim - dim) // 2, (dim * dim + dim) // 2]

    @pytest.mark.parametrize("L", range(2, 10))
    def test_mirror_is_the_sign_of_the_sectors(self, L):
        # R is +1 on the first k coordinates and -1 on the rest, so the
        # coordinates are ordered by mirror sector, even sector first.
        T, k = _hermitian_basis(L)
        T = T.toarray()
        R = T @ mirror_superoperator(L) @ T.conj().T
        sign = np.concatenate([np.ones(k), -np.ones(L * L - k)])
        assert np.abs(R - np.diag(sign)).max() < 1e-15

    @pytest.mark.parametrize("L", range(2, 10))
    @pytest.mark.parametrize("h", [0.0, 0.3, 2.0])
    def test_mirror_commutes_with_the_liouvillian(self, L, h):
        # for every J, h >= 0 and gamma, so the cross-sector blocks of
        # T G T^dag, which propagate never forms, vanish up to rounding
        G = build_liouvillian(LatticeSpec(L, 0.7, h, 0.2)).toarray()
        norm = np.abs(G).sum(axis=0).max()
        R = mirror_superoperator(L)
        assert np.abs(R @ G - G @ R).max() < 1e-15 * norm
        T, k = _hermitian_basis(L)
        T = T.toarray()
        G = T @ G @ T.conj().T
        assert max(np.abs(G[:k, k:]).sum(axis=0).max(initial=0.0),
                   np.abs(G[k:, :k]).sum(axis=0).max(initial=0.0)) <= 1e-13 * norm

    @pytest.mark.parametrize("L", [5, 8])
    def test_is_cached_and_left_unchanged(self, monkeypatch, L):
        T, k = _hermitian_basis(L)
        assert _hermitian_basis(L)[0] is T
        before = [a.copy() for a in (T.data, T.indices, T.indptr)]
        rho0 = DensityMatrix(random_density(np.random.default_rng(L), L))
        spec = LatticeSpec(L, 1.0, 0.3, 0.1)
        propagate(rho0, spec, np.arange(0.0, 20.0, 0.5))
        forced_route(monkeypatch, "chebyshev")
        propagate(rho0, spec, np.arange(0.0, 20.0, 0.5))
        assert all(np.array_equal(a, b) for a, b in zip(before, (T.data, T.indices, T.indptr)))

    @pytest.mark.parametrize("L", range(2, 41))
    def test_sectors_are_the_sparse_triple_product(self, L):
        # J A + h B + gamma C is scipy's (T_k (G T_k^dag)).real on the
        # Kronecker-form G within 4 ulps of the block's largest entry, and
        # bit for bit at J = 1, h = gamma = 0, where it is A alone; rows are
        # sorted, every diagonal entry is stored, and an entry stored outside
        # the product's nonzeros is exactly 0
        T, k = _hermitian_basis(L)
        for h in (0.0, 0.3, 2.0):
            for gamma in (0.0, 0.05):
                for J in (1.0, 0.7):
                    spec = LatticeSpec(L, J, h, gamma)
                    G = kron_liouvillian(spec)
                    ref = [(S @ (G @ S.conj().T)).real.toarray() for S in (T[:k], T[k:])]
                    T_got, k_got, blocks = lindblad._sectors(spec)
                    assert T_got is T and k_got == k
                    for got, want in zip(blocks, ref):
                        assert got.shape == want.shape
                        rows = np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
                        assert got.has_sorted_indices
                        assert np.array_equal(rows[got.indices == rows], np.arange(got.shape[0]))
                        assert not got.data[want[rows, got.indices] == 0.0].any()
                        dense = got.toarray()
                        if (J, h, gamma) == (1.0, 0.0, 0.0):
                            assert np.array_equal(dense, want)
                        else:
                            top = np.abs(want).max(initial=0.0)
                            bound = 4 * np.spacing(top) if top else 0.0
                            assert np.abs(dense - want).max(initial=0.0) <= bound

    def test_hermitian_input_has_real_coordinates(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 6)
        T, k = _hermitian_basis(6)
        x = T @ vectorize(rho)
        assert np.abs(x.imag).max() < 1e-15
        assert np.allclose(T.conj().T @ x.real, vectorize(rho))
        # a mirror-even state has no odd coordinates, a mirror-odd one no even
        R = mirror_superoperator(6)
        even, odd = T @ (R + np.eye(36)) @ vectorize(rho), T @ (R - np.eye(36)) @ vectorize(rho)
        assert np.abs(even[k:]).max() < 1e-15 and np.abs(odd[:k]).max() < 1e-15
        assert np.abs(even[:k]).max() > 0.1 and np.abs(odd[k:]).max() > 0.1


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

    @pytest.mark.parametrize("times", [[], [[1.0, 2.0]]], ids=["empty", "2-D"])
    def test_rejects_empty_or_nested_times(self, times):
        spec = LatticeSpec(3, 1.0, 0.1, 0.1)
        rho0 = DensityMatrix(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError, match="times must be a non-empty 1-D sequence"):
            propagate(rho0, spec, times)

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

    @pytest.mark.parametrize("L", range(2, 10))
    # L = 2-5 exponentiate the block-diagonal generator whole; from L = 6 each
    # list runs by both routes, dense per mirror sector and Chebyshev, and by
    # the route the cost model picks for the call.  The strong-field lists
    # have gaps that the step rule splits into 2^j applications of a
    # shorter-step propagator and that the Chebyshev route splits into
    # substeps; t = 0, a repeated gap and zero gaps, at the start and mid-run,
    # are included.
    @pytest.mark.parametrize("times, h", [
        (np.arange(1.0, 6.0), 0.3),
        ([0.0, 0.3, 2.0, 2.1, 9.5], 0.3),
        ([100.0], 2.0),
        ([1.0, 2.0, 60.0], 2.0),
        ([0.0, 0.0, 0.4, 0.9, 0.9, 60.0], 2.0),
    ], ids=["times0", "times1", "times2", "times3", "times4"])
    def test_matches_complex_liouvillian_exponential(self, monkeypatch, L, times, h):
        spec = LatticeSpec(L, 1.0, h, 0.1)
        rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
        gen = build_liouvillian(spec).toarray()
        exact = [(sla.expm(gen * t) @ vectorize(rho0)).reshape((L, L), order="F") for t in times]
        runs = [propagate(rho0, spec, times)]
        if L * L >= lindblad.MIRROR_MIN_DIM:
            for route in ("dense", "chebyshev"):
                forced_route(monkeypatch, route)
                runs.append(propagate(rho0, spec, times))
        for states in runs:
            for dm, rho in zip(states, exact):
                assert np.abs(dm.entries - rho).max() < 1e-12
            # a zero gap repeats the state before it bit for bit
            for i in np.flatnonzero(np.diff(times) == 0.0) + 1:
                assert np.array_equal(states[i].entries, states[i - 1].entries)

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
        # ||G_k||_1 is about 9 and 12 in the two mirror sectors here, so
        # expm(G_k * 1) would square once or twice: the 100-point grid keeps
        # the full gap, the single late time splits it, in each sector.
        spec = LatticeSpec(6, 1.0, 2.0, 0.05)
        rho0 = DensityMatrix.from_pure(site_state(6, 3))
        blocks = [block.toarray() for block in lindblad._sectors(spec)[2]]
        expm, calls = sla.expm, []
        monkeypatch.setattr(lindblad.sla, "expm", lambda A: calls.append(A) or expm(A))

        propagate(rho0, spec, np.arange(1.0, 101.0))
        assert [A.shape for A in calls] == [(15, 15), (21, 21)]
        assert all(np.array_equal(A, block) for A, block in zip(calls, blocks))

        calls.clear()
        propagate(rho0, spec, [100.0])
        assert [A.shape for A in calls] == [(15, 15), (21, 21)]
        for A, block in zip(calls, blocks):
            splits = [j for j in range(1, 20) if np.array_equal(A, block * (100.0 / 2 ** j))]
            assert len(splits) == 1

    @pytest.mark.parametrize("n", [15, 36, 120, 136, 300, 528])
    @pytest.mark.parametrize("uses", [1, 3, 100])
    def test_dense_step_takes_the_least_price(self, n, uses):
        # for each s, j is the first argmin over 0..s of the dense price and
        # the price returned is that minimum
        for s in range(13):
            norm = lindblad.THETA_13 * 2.0 ** (s - 0.5)  # expm would square s times
            prices = [(lindblad.PADE_PRODUCTS + s - j) * lindblad.N3_S * n ** 3
                      + uses * 2 ** j * lindblad.N2_S * n * n for j in range(s + 1)]
            j, seconds = lindblad._dense_step(norm, n, uses)
            assert seconds == min(prices)
            assert j == prices.index(seconds)

    def test_dense_step_breaks_a_tie_to_the_smaller_j(self, monkeypatch):
        # at unit rates and n = 4 a squaring costs 64 and one product with a
        # vector 16, so for one use of a gap that expm squares 5 times, j = 2
        # and j = 3 both cost 64 (PADE_PRODUCTS + 3) + 64
        monkeypatch.setattr(lindblad, "N3_S", 1.0)
        monkeypatch.setattr(lindblad, "N2_S", 1.0)
        j, seconds = lindblad._dense_step(lindblad.THETA_13 * 2.0 ** 4.5, 4, 1)
        assert (j, seconds) == (2, 64.0 * (lindblad.PADE_PRODUCTS + 3) + 64.0)

    def test_grid_at_l16_keeps_the_full_gap(self, monkeypatch):
        # expm(G_k * 1) would square once in each sector, yet the 100-point
        # grid takes j = 0 in both: its propagators are of the whole gap
        spec = LatticeSpec(16, 1.0, 0.3, 0.02)
        _, _, blocks = lindblad._sectors(spec)
        for block in blocks:
            norm = lindblad._norm1(block)
            assert norm > lindblad.THETA_13
            assert lindblad._dense_step(norm, block.shape[0], 100)[0] == 0
        expm, calls = sla.expm, []
        monkeypatch.setattr(lindblad.sla, "expm", lambda A: calls.append(A) or expm(A))
        propagate(DensityMatrix.from_pure(site_state(16, middle_site(16))), spec,
                  np.arange(1.0, 101.0))
        assert len(calls) == 2
        assert all(np.array_equal(A, block.toarray()) for A, block in zip(calls, blocks))

    def test_sectors_split_from_mirror_min_dim(self, monkeypatch):
        # one size below the threshold, one expm of the whole block-diagonal
        # generator per distinct gap; at the threshold, where the cost model
        # picks the dense route, one per sector and distinct gap, the first
        # sector over all the gaps before the second
        assert lindblad.MIRROR_MIN_DIM == 6 * 6
        expm, shapes = sla.expm, []
        monkeypatch.setattr(lindblad.sla, "expm", lambda A: shapes.append(A.shape) or expm(A))
        for L, expected in [(5, [(25, 25)] * 2), (6, [(15, 15)] * 2 + [(21, 21)] * 2)]:
            shapes.clear()
            rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
            propagate(rho0, LatticeSpec(L, 1.0, 0.3, 0.1), [1.0, 2.0, 60.0])
            assert shapes == expected

    @pytest.mark.parametrize("L", [7, 9])
    @pytest.mark.parametrize("route", ["dense", "chebyshev"])
    def test_zero_sector_is_skipped(self, monkeypatch, L, route):
        # the middle site of an odd chain is mirror-even: the odd sector starts
        # at zero and, G being block diagonal, stays there unpropagated
        spec = LatticeSpec(L, 1.0, 0.3, 0.1)
        rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
        T, k = _hermitian_basis(L)
        assert not (T @ vectorize(rho0))[k:].any()
        times = [1.0, 2.0, 60.0]
        expm, shapes = sla.expm, []
        monkeypatch.setattr(lindblad.sla, "expm", lambda A: shapes.append(A.shape) or expm(A))
        forced_route(monkeypatch, route)
        states = propagate(rho0, spec, times)
        assert shapes == ([(k, k)] * 2 if route == "dense" else [])
        gen = build_liouvillian(spec).toarray()
        for t, dm in zip(times, states):
            exact = (expm(gen * t) @ vectorize(rho0)).reshape((L, L), order="F")
            assert np.abs(dm.entries - exact).max() < 1e-12

    @pytest.mark.parametrize("L, times", [(4, [1.0, 2.0]), (16, np.arange(1.0, 101.0))])
    def test_passing_propagate_makes_no_eigvalsh(self, monkeypatch, L, times):
        # one Cholesky factorization of the whole stack tests positivity;
        # eigvalsh only names a failure
        rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
        eig, chol = finite_only(monkeypatch, "eigvalsh"), finite_only(monkeypatch, "cholesky")
        propagate(rho0, LatticeSpec(L, 1.0, 0.3, 0.02), times)
        assert eig == [] and chol == [(len(times), L, L)]

    def test_builds_once_per_call_below_mirror_min_dim_and_never_above(self, monkeypatch):
        # below MIRROR_MIN_DIM each call builds the generator from its spec:
        # one build_liouvillian, one build_stark and one build_dephasing_ops;
        # from there on the sector blocks come from the cached parts alone
        built = []
        for module, name in [(lindblad, "build_liouvillian"), (model, "build_stark"),
                             (model, "build_dephasing_ops"), (lindblad, "build_stark"),
                             (lindblad, "build_dephasing_ops")]:
            builder = getattr(module, name)
            monkeypatch.setattr(module, name, lambda spec, name=name, builder=builder: (
                built.append(name) or builder(spec)))
        for L, times in [(4, [1.0, 2.0]), (6, [1.0, 2.0, 60.0]), (16, np.arange(1.0, 101.0))]:
            spec = LatticeSpec(L, 1.0, 0.3, 0.02)
            rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
            propagate(rho0, spec, times)  # fills the cache of L
            built.clear()
            for h in (0.3, 0.7):
                propagate(rho0, spec.with_field(h), times)
            expected = ["build_liouvillian", "build_stark", "build_dephasing_ops"] * 2
            assert sorted(built) == (sorted(expected) if L == 4 else [])

    def test_trace_loss_raises(self, monkeypatch):
        # an extra decay of rho_11 alone leaks population out of the trace
        spec = LatticeSpec(3, 1.0, 0.2, 0.1)
        leaky = build_liouvillian(spec).toarray()
        leaky[0, 0] -= 1e-3
        rho0 = DensityMatrix.from_pure(site_state(3, 1))
        monkeypatch.setattr(lindblad, "build_liouvillian", lambda _: sp.csr_matrix(leaky))
        with pytest.raises(ValueError, match="trace deviates from 1"):
            propagate(rho0, spec, [0.5, 1.0])


class TestChebyshevRoute:
    @pytest.mark.parametrize("L", range(2, 10))
    @pytest.mark.parametrize("h", [0.0, 0.3, 2.0])
    def test_generator_is_antisymmetric_plus_diagonal(self, L, h):
        # the premise of the truncation bound: T G T^dag = K + D with D =
        # diag(G) in {0, -gamma} and ||K||_2 = E_max - E_min
        spec = LatticeSpec(L, 0.7, h, 0.2)
        T, k = _hermitian_basis(L)
        T = T.toarray()
        G = T @ build_liouvillian(spec).toarray() @ T.conj().T
        assert np.abs(G.imag).max() < 1e-15
        G = G.real
        sym, anti = 0.5 * (G + G.T), 0.5 * (G - G.T)
        assert np.abs(sym - np.diag(np.diag(sym))).max() < 1e-15
        assert np.all((np.abs(np.diag(sym)) < 1e-15) | (np.abs(np.diag(sym) + 0.2) < 1e-15))
        E = np.linalg.eigvalsh(build_stark(spec))
        width = E[-1] - E[0]
        assert abs(np.linalg.norm(anti, 2) - width) <= 1e-13 * width
        assert abs(lindblad._width(spec) - width) <= 1e-13 * width

    @pytest.mark.parametrize("n, scale, rate, t", [
        (1, 1.0, 0.5, 3.0),
        (2, 1.0, 0.0, 0.0),
        (9, 0.1, 0.0, 1e-3),
        (9, 2.0, 1.0, 7.0),
        (30, 1.0, 0.1, 40.0),
        (30, 0.0, 0.0, 5.0),
    ])
    def test_action_matches_dense_exponential(self, n, scale, rate, t):
        # generators shaped like the real Liouvillian: a sparse antisymmetric
        # part plus a decaying diagonal that does not commute with it, for
        # ||A t||_1 from 0 to about 860, and the zero generator
        rng = np.random.default_rng(n)
        R = sp.random(n, n, density=0.3, rng=rng, data_rvs=rng.standard_normal)
        # the route takes rows sorted and every diagonal entry stored
        dense = (scale * (R - R.T) - sp.diags(rate * rng.random(n))).toarray()
        rows, cols = np.nonzero((dense != 0.0) | np.eye(n, dtype=bool))
        A = sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=(n, n))
        width = np.linalg.norm(scale * (R - R.T).toarray(), 2)
        x = rng.standard_normal(n)
        before = x.copy()
        exact = sla.expm(A.toarray() * t) @ x
        got = np.empty((1, n))
        lindblad._chebyshev_route([A], width)(x, [t], got)
        assert np.abs(got[0] - exact).max() < 1e-13 * np.abs(x).max()
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("z", [1e-8, 0.3, 5.0, 137.3, 400.0,
                                   np.array([1e-8, 0.3, 5.0, 137.3, 400.0])],
                             ids=["1e-08", "0.3", "5.0", "137.3", "400.0", "vector"])
    def test_bessel_coefficients_match_mpmath(self, z):
        # every z of a vector runs to the count of the largest, as a window of
        # gaps does; row i holds the J_k(z_i)
        z = np.atleast_1d(z)
        count = lindblad._term_count(np.max(z), 0.0)
        J = lindblad._bessel(z, count)
        exact = np.array([[float(mpmath.besselj(k, zi)) for k in range(count + 1)] for zi in z])
        assert J.shape == (z.size, count + 1)
        assert np.abs(J - exact).max() < 1e-15
        # Kapteyn's count leaves the tail below the truncation bound
        assert abs(float(mpmath.besselj(count, np.max(z)))) < lindblad.CHEBYSHEV_TOL

    @pytest.mark.parametrize("L, h, times, shapes", [
        # a 100-point grid at L = 16: dense, one expm per sector
        (16, 0.3, np.arange(1.0, 101.0), [(120, 120), (136, 136)]),
        # a single moderate time at L = 24: the Chebyshev action, no expm
        (24, 0.3, [100.0], []),
        # a single long gap at L = 28, whose dense cost grows as log ||G g||_1
        (28, 1.1, [1000.0], [(378, 378), (406, 406)]),
        # a single time t = 100 at L = 8 and 12: dense, each sector's gap
        # split into 2^j applications of one expm
        (8, 0.5, [100.0], [(28, 28), (36, 36)]),
        (12, 0.5, [100.0], [(66, 66), (78, 78)]),
    ], ids=["L16-grid", "L24-t100", "L28-t1000", "L8-t100", "L12-t100"])
    def test_cost_model_picks_the_route(self, monkeypatch, L, h, times, shapes):
        expm, seen = sla.expm, []
        monkeypatch.setattr(lindblad.sla, "expm", lambda A: seen.append(A.shape) or expm(A))
        rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
        propagate(rho0, LatticeSpec(L, 1.0, h, 0.02), times)
        assert seen == shapes

    @pytest.mark.parametrize("L, h, gamma, times", [
        # the Liouvillian oracle of traj-validate, whose gaps of 10, 15 and
        # 25 a choice per gap would split between the routes
        (10, 0.05, 0.02, [10.0, 25.0, 50.0]),
        # small shapes whose gaps it would split too
        (8, 0.2, 0.0, [1.0, 3.0, 7.0]),
        (8, 0.3, 0.1, [0.0, 0.3, 2.0, 2.1, 9.5]),
        (8, 2.0, 0.1, [0.0, 0.3, 2.0, 2.1, 9.5, 60.0]),
    ], ids=["L10-oracle", "L8-gamma0", "L8-grid", "L8-t60"])
    def test_one_route_per_propagate(self, monkeypatch, L, h, gamma, times):
        built = []
        for name in ("_dense_route", "_chebyshev_route"):
            route = getattr(lindblad, name)
            monkeypatch.setattr(lindblad, name, lambda *args, name=name, route=route: (
                built.append(name) or route(*args)))
        spec = LatticeSpec(L, 1.0, h, gamma)
        rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
        states = propagate(rho0, spec, times)
        assert len(built) == 1
        gen = build_liouvillian(spec).toarray()
        for t, dm in zip(times, states):
            exact = (sla.expm(gen * t) @ vectorize(rho0)).reshape((L, L), order="F")
            assert np.abs(dm.entries - exact).max() < 1e-12

    @pytest.mark.parametrize("L", range(6, 10))
    def test_fused_step_matches_the_sparse_product(self, monkeypatch, L):
        # each term is made in its ring-buffer row by one kernel call, y +=
        # 2B v on y = w_(k-1) (zero for w_1); it differs from scipy's 2B v +
        # w_(k-1) only in the order of the sum
        forced_route(monkeypatch, "chebyshev")
        kernel, steps = lindblad.csr_matvec, []

        def spy(rows, cols, indptr, indices, data, v, y):
            B2 = sp.csr_matrix((data, indices, indptr), shape=(rows, cols))
            before = y.copy()
            kernel(rows, cols, indptr, indices, data, v, y)
            bound = abs(B2) @ np.abs(v) + np.abs(before)
            assert np.all(np.abs(y - (B2 @ v + before)) <= 4 * np.finfo(float).eps * bound)
            # y is a row of the buffer, written where it lies
            assert y.base.shape == (lindblad.CHEBYSHEV_CHUNK, rows)
            row = (y.ctypes.data - y.base.ctypes.data) // y.base.strides[0]
            assert y.base[row].ctypes.data == y.ctypes.data
            assert np.array_equal(y.base[row], y) and not np.array_equal(y, before)
            steps.append(row)

        monkeypatch.setattr(lindblad, "csr_matvec", spy)
        spec = LatticeSpec(L, 1.0, 0.3, 0.1)
        rho0 = DensityMatrix(random_density(np.random.default_rng(L), L))
        state = propagate(rho0, spec, [5.0])[0].entries
        assert len(set(steps)) == lindblad.CHEBYSHEV_CHUNK
        exact = sla.expm(build_liouvillian(spec).toarray() * 5.0) @ vectorize(rho0)
        assert np.abs(state - exact.reshape((L, L), order="F")).max() < 1e-12

    @pytest.mark.parametrize("L, h, gamma", [(6, 0.3, 0.1), (7, 1.1, 0.02), (9, 0.0, 0.0)])
    def test_kernel_arrays_are_scipys_shifted_generator(self, monkeypatch, L, h, gamma):
        # the route builds the CSR arrays of 2B = 2 (G - cI) / rho itself;
        # they hold scipy's sparse arithmetic bit for bit, rows sorted
        spec = LatticeSpec(L, 1.0, h, gamma)
        _, _, blocks = lindblad._sectors(spec)
        width = lindblad._width(spec)
        G = sp.block_diag(blocks, format="csr")
        c, rho, _ = lindblad._chebyshev_shape(G.diagonal(), width)
        B2 = ((G - c * sp.identity(G.shape[0], format="csr")) * (2.0 / rho)).tocsr()
        calls = []
        monkeypatch.setattr(lindblad, "csr_matvec", lambda *args: calls.append(args))
        lindblad._chebyshev_route(blocks, width)(np.ones(G.shape[0]), [1.0], np.empty((1, G.shape[0])))
        rows, cols, indptr, indices, data = calls[0][:5]
        assert (rows, cols) == B2.shape
        got = sp.csr_matrix((data.copy(), indices.copy(), indptr.copy()), shape=B2.shape)
        assert got.has_sorted_indices
        assert np.array_equal(got.toarray(), B2.toarray())

    def test_terms_make_no_sparse_matmul(self, monkeypatch):
        # the terms go straight to the compiled kernel, not through scipy's
        # Python dispatch, and the sector blocks are sums over cached parts:
        # once those are made, the one product of a sparse matrix through
        # ``@`` is T vec(rho0), with a vector
        forced_route(monkeypatch, "chebyshev")
        spec = LatticeSpec(8, 1.0, 0.3, 0.02)
        rho0 = DensityMatrix.from_pure(site_state(8, middle_site(8)))
        propagate(rho0, spec, [100.0])
        matmul, operands = sp.csr_matrix.__matmul__, []
        monkeypatch.setattr(sp.csr_matrix, "__matmul__", lambda A, other: operands.append(
            isinstance(other, np.ndarray)) or matmul(A, other))
        kernel, terms = lindblad.csr_matvec, []
        monkeypatch.setattr(lindblad, "csr_matvec", lambda *args: terms.append(1) or kernel(*args))
        propagate(rho0, spec, [100.0])
        assert len(terms) > 100
        assert operands == [True]

    def test_is_deterministic_and_leaves_the_global_rng_alone(self):
        L = 24
        spec = LatticeSpec(L, 1.0, 0.3, 0.02)
        rho0 = DensityMatrix.from_pure(site_state(L, middle_site(L)))
        T, k, blocks = lindblad._sectors(spec)
        assert not lindblad._dense_wins(blocks, lindblad._width(spec), Counter({100.0: 1}))
        state = np.random.get_state()
        first, second = (propagate(rho0, spec, [100.0])[0].entries for _ in range(2))
        assert np.array_equal(first, second)
        after = np.random.get_state()
        assert state[0] == after[0] and np.array_equal(state[1], after[1])
        assert state[2:] == after[2:]


class TestChebyshevWindows:
    """A run of short Chebyshev gaps advanced one window per recurrence."""

    def run(self, monkeypatch, L, times):
        """Window lengths of a Chebyshev propagate, its states checked against the Liouvillian."""
        spec = LatticeSpec(L, 1.0, 0.3, 0.1)
        rho0 = DensityMatrix(random_density(np.random.default_rng(L), L))
        seen = window_lengths(monkeypatch)
        states = propagate(rho0, spec, times)
        gen = build_liouvillian(spec).toarray()
        steps, exact = {}, vectorize(rho0)
        for gap, dm in zip(np.diff(times, prepend=0.0), states):
            if gap not in steps:
                steps[gap] = sla.expm(gen * gap)
            exact = steps[gap] @ exact
            assert np.abs(dm.entries - exact.reshape((L, L), order="F")).max() < 1e-12
        return seen

    @pytest.fixture(autouse=True)
    def chebyshev(self, monkeypatch):
        forced_route(monkeypatch, "chebyshev")

    @pytest.mark.parametrize("L", range(6, 10))
    def test_uniform_grid_longer_than_one_window(self, monkeypatch, L):
        seen = self.run(monkeypatch, L, np.arange(1.0, 101.0) * 0.5)
        assert 1 < seen[0] < 100

    @pytest.mark.parametrize("L", range(6, 10))
    def test_nonuniform_gaps(self, monkeypatch, L):
        times = np.cumsum(np.random.default_rng(L).uniform(0.05, 1.5, 25))
        assert max(self.run(monkeypatch, L, times)) > 1

    @pytest.mark.parametrize("L", range(6, 10))
    def test_zero_gaps_break_the_windows(self, monkeypatch, L):
        times = [0.0, 0.0, 0.4, 0.9, 0.9, 1.6, 2.0, 2.0, 2.3]
        assert self.run(monkeypatch, L, times) == [2, 2]

    @pytest.mark.parametrize("L", range(6, 10))
    def test_window_ends_at_the_rounding_bound(self, monkeypatch, L):
        # five gaps reach rho tau eta = THETA_CHEBYSHEV, up to the rounding of
        # the bound itself, which is set to the value the route computes
        _, rho, eta = chebyshev_shape(LatticeSpec(L, 1.0, 0.3, 0.1))
        times = np.cumsum(np.full(8, lindblad.THETA_CHEBYSHEV / (rho * eta) / 5))
        tau = 0.0
        for gap in np.diff(times, prepend=0.0)[:5]:
            tau += float(gap)
        bound = rho * tau * eta
        assert bound == pytest.approx(lindblad.THETA_CHEBYSHEV, rel=1e-14)
        monkeypatch.setattr(lindblad, "THETA_CHEBYSHEV", bound)
        assert self.run(monkeypatch, L, times) == [5, 3]

    @pytest.mark.parametrize("L", range(6, 10))
    def test_long_gap_between_windows_takes_substeps(self, monkeypatch, L):
        _, rho, eta = chebyshev_shape(LatticeSpec(L, 1.0, 0.3, 0.1))
        assert lindblad._chebyshev_plan(rho, eta, 60.0)[0] > 1
        assert self.run(monkeypatch, L, [0.5, 1.0, 1.5, 61.5, 62.0, 62.5]) == [3, 2]

    @pytest.mark.parametrize("gamma, substeps, terms", [(0.02, 6, 390), (0.1, 12, 225)])
    def test_lone_gap_goes_by_windows_of_one_substep(self, monkeypatch, gamma, substeps, terms):
        # the shapes where one unsplit series was off from a dense expm by
        # 1.6e-9 and 2e12: s windows of one substep each, whose K is above the
        # cap of a window of two or more gaps
        spec = LatticeSpec(16, 1.0, 1.1, gamma)
        rho0 = DensityMatrix.from_pure(site_state(16, middle_site(16)))
        _, rho, eta = chebyshev_shape(spec)
        assert lindblad._chebyshev_plan(rho, eta, 100.0)[0] == substeps
        bessel, seen = lindblad._bessel, []
        monkeypatch.setattr(lindblad, "_bessel",
                            lambda z, count: seen.append((len(z), count)) or bessel(z, count))
        state = propagate(rho0, spec, [100.0])[0].entries
        assert seen == [(1, terms)]
        assert terms > lindblad.CHEBYSHEV_WINDOW_TERMS
        exact = sla.expm(build_liouvillian(spec).toarray() * 100.0) @ vectorize(rho0)
        assert np.abs(state - exact.reshape((16, 16), order="F")).max() < 1e-12
