import numpy as np
import pytest

from strobetomo import matcore
from strobetomo.matcore import (
    ConditioningError,
    eig,
    expm_apply,
    hs_inner,
    rank_with_tol,
    solve,
    unvec,
    vec,
)


class TestVecConventions:
    def test_vec_is_column_major(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(vec(m), [1.0, 3.0, 2.0, 4.0])

    def test_unvec_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r, c = rng.integers(1, 6, size=2)
            m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            np.testing.assert_array_equal(unvec(vec(m), r, c), m)

    def test_kron_vec_identity(self):
        """vec(X Y Z) = (Z^T kron X) vec(Y), the identity everything rests on."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            x, y, z = (
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(3)
            )
            lhs = vec(x @ y @ z)
            rhs = np.kron(z.T, x) @ vec(y)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_vec_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            vec(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            vec(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestHsInner:
    def test_conjugate_linear_in_first_argument(self):
        a = np.array([[1.0, 2j], [0.0, 1.0]])
        b = np.array([[0.5, 0.0], [1j, 2.0]])
        assert hs_inner(2j * a, b) == pytest.approx(-2j * hs_inner(a, b))

    def test_positive_on_nonzero(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        val = hs_inner(m, m)
        assert val.real > 0
        assert val.imag == pytest.approx(0.0, abs=1e-14)

    def test_matches_trace_formula(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert hs_inner(a, b) == pytest.approx(np.trace(a.conj().T @ b))


class TestEig:
    def test_simple_spectrum(self):
        m = np.diag([1.0, 2.0, 3.0])
        spec = eig(m)
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
        assert spec.max_geometric_multiplicity == 1
        assert [alg for _, alg, _ in spec.clusters] == [1, 1, 1]

    def test_diagonalizable_degeneracy(self):
        """Repeated eigenvalue with full eigenspace: geometric = algebraic."""
        spec = eig(np.diag([2.0, 2.0, 5.0]))
        mults = {round(rep.real): (alg, geo) for rep, alg, geo in spec.clusters}
        assert mults[2] == (2, 2)
        assert mults[5] == (1, 1)
        assert spec.max_geometric_multiplicity == 2

    def test_jordan_block_is_defective(self):
        """A 2x2 Jordan block has algebraic 2 but geometric 1."""
        m = np.array([[3.0, 1.0], [0.0, 3.0]])
        spec = eig(m)
        assert spec.clusters == ((3.0 + 0j, 2, 1),)
        assert spec.max_geometric_multiplicity == 1

    def test_zero_matrix(self):
        spec = eig(np.zeros((4, 4)))
        assert spec.max_geometric_multiplicity == 4
        assert spec.min_poly_degree == 1

    def test_min_poly_degree_sums_indices(self):
        """Index 1 for every diagonalizable cluster, the largest Jordan block
        size for a defective one."""
        assert eig(np.diag([2.0, 2.0, 5.0])).min_poly_degree == 2
        assert eig(np.array([[3.0, 1.0], [0.0, 3.0]])).min_poly_degree == 2
        m = np.diag([-1.0, -1.0, -1.0, -2.0]) + np.diag([1.0, 1.0, 0.0], 1)
        spec = eig(m)
        assert spec.clusters == ((-2.0 + 0j, 1, 1), (-1.0 + 0j, 3, 1))
        assert spec.min_poly_degree == 4

    def test_near_degenerate_values_cluster(self):
        # gap of 1e-12 against a spectral diameter of ~1: far below the
        # 1e-8 * diameter clustering threshold
        m = np.diag([1.0, 1.0 + 1e-12, 2.0])
        spec = eig(m)
        assert len(spec.clusters) == 2

    def test_sorting_is_by_real_then_imag(self):
        m = np.diag([1.0 + 1j, 1.0 - 1j, 0.5])
        spec = eig(m)
        vals = spec.eigenvalues
        assert vals[0] == pytest.approx(0.5)
        assert vals[1].imag < vals[2].imag

    def test_distinct_values(self):
        spec = eig(np.diag([1.0, 1.0, 3.0]))
        np.testing.assert_allclose(sorted(z.real for z in spec.distinct_values()), [1.0, 3.0])


class TestExpmApply:
    def test_t_zero_is_identity(self):
        m = np.random.default_rng(4).standard_normal((5, 5))
        v = np.arange(5.0)
        np.testing.assert_array_equal(expm_apply(m, 0.0, v), v)

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            m = m + m.T  # symmetric, easy to exponentiate independently
            v = rng.standard_normal(4)
            w, u = np.linalg.eigh(m)
            expected = u @ (np.exp(0.37 * w) * (u.T @ v))
            np.testing.assert_allclose(expm_apply(m, 0.37, v), expected, atol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = rng.standard_normal(3)
        one_step = expm_apply(m, 0.8, v)
        two_step = expm_apply(m, 0.5, expm_apply(m, 0.3, v))
        np.testing.assert_allclose(one_step, two_step, atol=1e-12)


class TestRankWithTol:
    def test_full_rank(self):
        assert rank_with_tol(np.eye(3)) == 3

    def test_detects_deficiency(self):
        cols = [np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        assert rank_with_tol(cols) == 2

    def test_scaling_and_permutation_invariance(self):
        cols = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1e-6, 0.0]), np.array([1.0, 1.0, 1.0])]
        assert rank_with_tol(cols) == 3
        assert rank_with_tol([c * 1e9 for c in cols]) == 3
        assert rank_with_tol(cols[::-1]) == 3

    def test_relative_tolerance_semantics(self):
        # second vector deviates from the first by 1e-6 of its own norm:
        # kept at the default 1e-9 relative tolerance, dropped at 1e-3
        cols = [np.array([1.0, 0.0]), np.array([1.0, 1e-6])]
        assert rank_with_tol(cols) == 2
        assert rank_with_tol(cols, tol=1e-3) == 1


class TestSolve:
    def test_well_conditioned(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + np.eye(4) * 4
        x = rng.standard_normal(4)
        res = solve(a, a @ x)
        np.testing.assert_allclose(res.solution, x, atol=1e-10)
        assert res.condition < 100

    def test_raises_and_names_ill_conditioned_matrix(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(ConditioningError) as err:
            solve(a, np.ones(2), name="demo system", max_condition=1e12)
        assert "demo system" in str(err.value)
        assert err.value.condition > 1e12


class TestTolerancePlumbing:
    def test_default(self, monkeypatch):
        """``None`` means DEFAULT_RANK_TOL; no environment variable is read."""
        monkeypatch.setenv("STROBE_TOL", "abc")
        assert eig(np.diag([1.0, 2.0])).tolerance == matcore.DEFAULT_RANK_TOL
        assert eig(np.diag([1.0, 2.0]), tol=1e-6).tolerance == 1e-6
        assert rank_with_tol([np.ones(2)]) == 1

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            eig(np.eye(2), tol=tol)
        with pytest.raises(ValueError, match="finite and positive"):
            rank_with_tol([np.ones(2)], tol=tol)
