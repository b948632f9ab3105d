import numpy as np
import pytest
import scipy.linalg

from distobs import (
    full_rank_factorize,
    min_symmetric_eigenvalue,
    observability_decomposition,
    observability_matrix,
    solve_lyapunov,
    spectral_abscissa,
)
from distobs.linalg import (
    _eigvalsh,
    _svd,
    _symmetrize_in_place,
    numerical_rank,
    solve_care,
)
from distobs.synthesis import decompose_nodes

from conftest import (
    mixed_structure_instance,
    one_partial_node_instance,
    random_observable_instance,
    standard_instance,
)


class TestFullRankFactorize:
    def test_rank_one_by_inspection(self):
        c = np.array([[1.0, 0.0], [2.0, 0.0]])
        frf = full_rank_factorize(c)
        assert frf.rank == 1
        np.testing.assert_allclose(frf.d_factor @ frf.f_factor, c, atol=1e-12)
        # D proportional to (1,2)^T, F proportional to (1,0)
        assert abs(frf.d_factor[1, 0] / frf.d_factor[0, 0] - 2.0) < 1e-12
        assert abs(frf.f_factor[0, 1]) < 1e-12

    def test_identity(self):
        frf = full_rank_factorize(np.eye(2))
        assert frf.rank == 2
        np.testing.assert_allclose(frf.d_factor @ frf.f_factor, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(frf.d_factor, np.eye(2))  # full row rank: skipped

    def test_rank_two_reconstruction(self):
        c = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        frf = full_rank_factorize(c)
        assert frf.rank == np.count_nonzero(
            scipy.linalg.svdvals(c) > 1e-9 * scipy.linalg.svdvals(c)[0]
        )
        assert frf.rank == 2
        resid = np.linalg.norm(frf.d_factor @ frf.f_factor - c)
        assert resid <= 1e-10 * np.linalg.norm(c)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="no effective output"):
            full_rank_factorize(np.zeros((2, 3)))

    def test_random_matrices_match_svd_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            r = int(rng.integers(1, min(m, n) + 1))
            c = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            frf = full_rank_factorize(c)
            s = scipy.linalg.svdvals(c)
            assert frf.rank == np.count_nonzero(s > 1e-9 * s[0])
            assert np.linalg.norm(frf.d_factor @ frf.f_factor - c) <= 1e-10 * max(
                1.0, np.linalg.norm(c)
            )
            assert numerical_rank(frf.d_factor) == frf.rank
            assert numerical_rank(frf.f_factor) == frf.rank


class TestObservabilityDecomposition:
    def test_already_in_form(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        f = np.array([[1.0, 0.0]])
        dec = observability_decomposition(a, f)
        assert dec.v_dim == 2
        np.testing.assert_allclose(dec.t_orth, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(dec.e_mat, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(dec.a11, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(dec.a12, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(dec.a21, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(dec.a22, [[0.0]], atol=1e-12)
        assert dec.a_u.shape == (0, 0)

    def test_decoupled_modes(self):
        a = np.diag([1.0, 2.0])
        dec = observability_decomposition(a, np.array([[1.0, 0.0]]))
        assert dec.v_dim == 1
        np.testing.assert_allclose(dec.a_u, [[2.0]], atol=1e-12)
        assert abs(abs(dec.e_mat[0, 0]) - 1.0) < 1e-12

    def test_random_structure(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = 5
            a = rng.standard_normal((n, n))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            f = q[:2, :]
            dec = observability_decomposition(a, f)
            t = dec.t_orth
            assert np.linalg.norm(t.T @ t - np.eye(n)) <= 1e-12
            assert dec.v_dim == numerical_rank(observability_matrix(f, a))
            at = t.T @ a @ t
            v = dec.v_dim
            if v < n:
                assert np.max(np.abs(at[:v, v:])) <= 1e-10 * np.linalg.norm(a)
            # F T = [E 0 0]
            ft = f @ t
            np.testing.assert_allclose(ft[:, :2], dec.e_mat, atol=1e-10)
            assert np.max(np.abs(ft[:, 2:])) <= 1e-10 * max(1.0, np.linalg.norm(f))
            # observable sub-pairs
            f_io = np.hstack([dec.e_mat, np.zeros((dec.p_dim, v - dec.p_dim))])
            a_io = dec.a_transformed[:v, :v]
            assert numerical_rank(observability_matrix(f_io, a_io)) == v
            if v > dec.p_dim:
                pair_rank = numerical_rank(
                    observability_matrix(dec.e_mat @ dec.a12, dec.a22)
                )
                assert pair_rank == v - dec.p_dim

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4))
        f = rng.standard_normal((1, 4))
        d1 = observability_decomposition(a, f)
        d2 = observability_decomposition(a, f)
        np.testing.assert_array_equal(d1.t_orth, d2.t_orth)

    def test_rank_deficient_f_rejected(self):
        with pytest.raises(ValueError):
            observability_decomposition(np.eye(3), np.array([[1.0, 0, 0], [2.0, 0, 0]]))

    @pytest.mark.parametrize("instance", [
        standard_instance, mixed_structure_instance,
        lambda: one_partial_node_instance(np.random.default_rng(43), 6, 8)],
        ids=["standard", "mixed", "one-partial"])
    def test_blocks_are_views_of_a_transformed(self, instance):
        """The record holds T^T A T once: every nonempty block is a view of
        it, at its place in the block form."""
        plant, _ = instance()
        for dec in decompose_nodes(plant)[1]:
            at, p, v = dec.a_transformed, dec.p_dim, dec.v_dim
            blocks = {"a11": at[:p, :p], "a12": at[:p, p:v], "a21": at[p:v, :p],
                      "a22": at[p:v, p:v], "a31": at[v:, :p], "a32": at[v:, p:v],
                      "a_u": at[v:, v:]}
            for name, want in blocks.items():
                got = getattr(dec, name)
                assert got.shape == want.shape and got.strides == want.strides, name
                np.testing.assert_array_equal(got, want)
                assert got.size == 0 or np.shares_memory(got, at), name


class TestSolveLyapunov:
    def test_scalar_balance(self):
        np.testing.assert_allclose(
            solve_lyapunov(-np.eye(2), np.eye(2)), 0.5 * np.eye(2), atol=1e-12
        )

    def test_decoupled_scalars(self):
        np.testing.assert_allclose(
            solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2)),
            np.diag([0.5, 0.25]),
            atol=1e-12,
        )

    def test_random_stable_integral_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.standard_normal((4, 4))
            a -= (spectral_abscissa(a) + 1.0) * np.eye(4)
            p = solve_lyapunov(a, np.eye(4))
            resid = np.linalg.norm(a.T @ p + p @ a + np.eye(4))
            assert resid <= 1e-9 * (
                np.linalg.norm(a) * np.linalg.norm(p) + np.linalg.norm(np.eye(4))
            )
            assert np.min(np.linalg.eigvalsh(p)) > 0
            # independent oracle: P = integral of expm(a^T t) expm(a t) dt
            from scipy.integrate import quad_vec

            oracle, _ = quad_vec(
                lambda t: scipy.linalg.expm(a.T * t) @ scipy.linalg.expm(a * t),
                0.0,
                60.0,
                epsabs=1e-12,
                epsrel=1e-12,
            )
            np.testing.assert_allclose(p, oracle, atol=1e-7 * np.linalg.norm(p))

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            solve_lyapunov(np.array([[0.1]]), np.eye(1))


class TestSolveCare:
    ALPHA = 0.5

    def injection_pairs(self):
        """(a22^T, (E a12)^T) of every node with v > p on the conftest instances."""
        rng = np.random.default_rng(41)
        pairs = [standard_instance(), mixed_structure_instance()] + [
            random_observable_instance(rng) for _ in range(8)]
        for plant, _ in pairs:
            for dec in decompose_nodes(plant)[1]:
                if dec.v_dim > dec.p_dim:
                    yield dec.a22.T, (dec.e_mat @ dec.a12).T

    def test_is_scipy_bit_for_bit_at_every_shift(self):
        count = 0
        for a_dual, b_dual in self.injection_pairs():
            k, p = b_dual.shape
            for extra in (0.5, 1.0, 2.0, 3.0, 4.0):
                a = a_dual + (self.ALPHA + extra) * np.eye(k)
                ref = scipy.linalg.solve_continuous_are(a, b_dual, np.eye(k), np.eye(p))
                assert np.array_equal(solve_care(a, b_dual), ref)
                count += 1
        assert count >= 50

    @pytest.mark.parametrize("a, b, match", [
        ([[0.0]], [[0.0]], "finite solution"),  # U11 singular
        ([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [0.0]], "imaginary axis"),
    ])
    def test_raises_where_scipy_raises(self, a, b, match):
        a, b = np.array(a), np.array(b)
        eye_k, eye_p = np.eye(b.shape[0]), np.eye(b.shape[1])
        with pytest.raises(np.linalg.LinAlgError, match=match):
            scipy.linalg.solve_continuous_are(a, b, eye_k, eye_p)
        with pytest.raises(np.linalg.LinAlgError, match=match):
            solve_care(a, b)


class TestEigenUtilities:
    def test_abscissa_diagonal(self):
        assert spectral_abscissa(np.diag([-1.0, -3.0])) == pytest.approx(-1.0)

    def test_abscissa_imaginary_pair(self):
        assert spectral_abscissa(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_abscissa_characteristic_roots(self):
        assert spectral_abscissa(np.array([[0.0, 1.0], [-2.0, -3.0]])) == pytest.approx(
            -1.0, abs=1e-10
        )

    def test_abscissa_similarity_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            m = rng.standard_normal((k, k))
            s = np.eye(k) + 0.3 * rng.standard_normal((k, k))
            sim = s @ m @ np.linalg.inv(s)
            assert spectral_abscissa(m) == pytest.approx(
                spectral_abscissa(sim), abs=1e-8
            )

    def test_min_symmetric_eigenvalue(self):
        assert min_symmetric_eigenvalue(np.eye(3)) == pytest.approx(1.0)
        assert min_symmetric_eigenvalue(np.diag([2.0, -5.0])) == pytest.approx(-5.0)

    def test_min_symmetric_eigenvalue_mirror_cycle(self):
        mirror = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        assert abs(min_symmetric_eigenvalue(mirror)) <= 1e-10

    def test_min_symmetric_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            min_symmetric_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


    @pytest.mark.parametrize("k", [1, 63, 64, 65, 130])
    def test_min_symmetric_eigenvalue_matches_full_size_formula(self, k):
        """Strip-wise checks and symmetrization give the eigenvalue of the
        full-size 0.5 (m + m^T) bit for bit, and leave the input as it was."""
        rng = np.random.default_rng([29, k])
        base = rng.standard_normal((k, k))
        for m in (base + base.T, base + base.T + 1e-13 * rng.standard_normal((k, k))):
            before = m.copy()
            ref = float(scipy.linalg.eigvalsh(0.5 * (m + m.T))[0])
            assert min_symmetric_eigenvalue(m) == ref
            assert np.array_equal(m, before)

    @pytest.mark.parametrize("k", [1, 64, 130])
    def test_in_place_symmetrization_is_the_full_size_formula(self, k):
        m = np.random.default_rng([31, k]).standard_normal((k, k))
        ref = m + m.T
        _symmetrize_in_place(m, 1.0)
        assert np.array_equal(m, ref)


def conftest_plants():
    """The plants of the conftest instances: every node structure, n = 2 to 8."""
    rng = np.random.default_rng(43)
    instances = [standard_instance(), mixed_structure_instance()]
    instances += [random_observable_instance(rng) for _ in range(8)]
    instances += [one_partial_node_instance(rng, n, 4) for n in (5, 8)]
    return [plant for plant, _ in instances]


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


class TestDirectKernels:
    """The LAPACK-direct kernels return scipy.linalg's results bit for bit."""

    def svd_inputs(self):
        """C_i, F_i^T and O_i = col(F_i, F_i A, ...) of every node, and A."""
        for plant in conftest_plants():
            yield plant.a
            frfs, _ = decompose_nodes(plant)
            for i, frf in enumerate(frfs):
                yield plant.c_block(i)
                yield frf.f_factor.T
                yield observability_matrix(frf.f_factor, plant.a)

    def node_matrices(self):
        """A and each node's a22, a_u and T^T A T blocks, square and nonempty."""
        for plant in conftest_plants():
            yield plant.a
            for dec in decompose_nodes(plant)[1]:
                for m in (dec.a22, dec.a_u, dec.a_transformed):
                    if m.size:
                        yield m

    @pytest.mark.parametrize("full_matrices", [True, False])
    def test_svd_is_scipy_bit_for_bit(self, full_matrices):
        count = 0
        for a in self.svd_inputs():
            ref = scipy.linalg.svd(a, full_matrices=full_matrices)
            out = _svd(a, full_matrices)
            for got, want in zip(out, ref):
                assert got.shape == want.shape and bits(got) == bits(want)
            # scipy's memory layout, which the products downstream round by
            assert out[0].flags.f_contiguous and out[2].flags.f_contiguous
            assert bits(_svd(a, full_matrices, compute_uv=False)[1]) == bits(
                scipy.linalg.svdvals(a))
            count += 1
        assert count >= 100

    def test_spectral_abscissa_is_scipy_bit_for_bit(self):
        for m in self.node_matrices():
            ref = float(np.max(scipy.linalg.eigvals(m).real))
            assert bits(spectral_abscissa(m)) == bits(ref)

    def test_eigvalsh_is_scipy_bit_for_bit(self):
        for m in self.node_matrices():
            sym = 0.5 * (m + m.T)
            assert bits(_eigvalsh(sym)) == bits(scipy.linalg.eigvalsh(sym))
            k = sym.shape[0]
            assert bits(_eigvalsh(sym, range="I", il=k, iu=k)) == bits(
                scipy.linalg.eigvalsh(sym, subset_by_index=[k - 1, k - 1]))

    def test_solve_lyapunov_is_scipy_bit_for_bit(self):
        rng = np.random.default_rng(47)
        count = 0
        for m in self.node_matrices():
            k = m.shape[0]
            a = m - (spectral_abscissa(m) + 0.5) * np.eye(k)
            b = rng.standard_normal((k, k))
            for q in (np.eye(k), b @ b.T + np.eye(k)):
                p = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
                assert bits(solve_lyapunov(a, q)) == bits(0.5 * (p + p.T))
                count += 1
        assert count >= 100

    @pytest.mark.parametrize("kernel", [
        lambda m: _svd(m, True),
        lambda m: _svd(m, False),
        numerical_rank,
        spectral_abscissa,
        _eigvalsh,
        lambda m: solve_lyapunov(m, np.eye(2)),
        lambda m: solve_lyapunov(-np.eye(2), m),
        lambda m: solve_care(m, np.ones((2, 1))),
    ])
    def test_non_finite_input_raises(self, kernel):
        for bad in (np.nan, np.inf):
            m = -np.eye(2)
            m[1, 0] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                kernel(m)
