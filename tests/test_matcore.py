import numpy as np
import pytest

from strobetomo import matcore
from strobetomo.matcore import (
    NumericalFailure,
    eig,
    eigh,
    propagate,
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

    def test_perturbed_defective_spectrum_is_one_cluster(self):
        """Q (J2(-1) + J2(-1)) Q^T with a random orthogonal Q (seed 2): eigvals
        spreads the fourfold -1 over about 1e-8, which is also the spectral
        diameter.  The ||m||_2 floor of the cluster scale keeps it one
        cluster with eta 2 and mu 2; a diameter scale splits it into four
        singletons (eta 1, mu 4)."""
        j = np.diag([-1.0] * 4) + np.diag([1.0, 0.0, 1.0], 1)
        q = np.linalg.qr(np.random.default_rng(2).normal(size=(4, 4)))[0]
        spec = eig(q @ j @ q.T)
        assert [c[1:] for c in spec.clusters] == [(4, 2)]
        assert (spec.max_geometric_multiplicity, spec.min_poly_degree) == (2, 2)

    def test_sorting_is_by_real_then_imag(self):
        m = np.diag([1.0 + 1j, 1.0 - 1j, 0.5])
        spec = eig(m)
        vals = spec.eigenvalues
        assert vals[0] == pytest.approx(0.5)
        assert vals[1].imag < vals[2].imag


class TestEigh:
    def test_reconstructs_hermitian_matrix(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = x + x.conj().T
        values, vectors = eigh(m)
        assert np.all(np.diff(values) >= 0)
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(5), atol=1e-12)
        np.testing.assert_allclose((vectors * values) @ vectors.conj().T, m, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1e-11], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):  # not Hermitian at its own scale
            eigh(np.array([[0.0, 1e-13], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="square"):
            eigh(np.ones((2, 3)))

    def test_maps_solver_failure(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalFailure, match="did not converge"):
            eigh(np.eye(2))


class TestClusterLabels:
    """The one clustering rule, on its Hermitian (ascending real) path and
    on its general path."""

    def test_hermitian_path_clusters_like_eig(self):
        """A tight Hermitian spectrum far from zero is one cluster at the
        norm's scale, as ``eig`` finds it; its diameter alone would split it."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            base = rng.choice([-2.0, -1.0, 0.5, 3.0], size=6)
            values = np.sort(base + rng.uniform(-3e-9, 3e-9, size=6) * np.abs(base))
            labels = matcore._cluster_labels(values)[0]
            general = matcore._cluster_labels(values, np.max(np.abs(values)))[0]
            np.testing.assert_array_equal(labels, general)
            assert [c[1] for c in eig(np.diag(values)).clusters] == np.bincount(labels).tolist()
        tight = np.array([-1.0 - 1e-9, -1.0, -1.0 + 1e-9])
        assert matcore._cluster_labels(tight)[0].tolist() == [0, 0, 0]
        assert [c[1] for c in eig(np.diag(tight)).clusters] == [3]
        wide = np.array([-1.0, -1.0 + 1.5e-8, 1.0])  # the diameter 2 sets the scale
        assert matcore._cluster_labels(wide)[0].tolist() == [0, 0, 1]
        assert [c[1] for c in eig(np.diag(wide)).clusters] == [2, 1]

    def test_stacks_label_row_by_row(self):
        rows = np.array([[-1.0, -1.0 + 1e-12, 0.0], [-1.0, -0.5, 0.0]])
        labels, tol_abs = matcore._cluster_labels(rows)
        assert labels.tolist() == [[0, 0, 1], [0, 1, 2]]
        for row, label, t in zip(rows, labels, tol_abs):
            one = matcore._cluster_labels(row)
            assert one[0].tolist() == label.tolist() and one[1] == t


class TestExpmApply:
    """The action of the matrix exponential, exp(m t) v, through ``propagate``
    on one ``eigh`` of a Hermitian m."""

    def test_t_zero_is_identity(self):
        m = np.random.default_rng(4).standard_normal((5, 5))
        v = np.arange(5.0)
        np.testing.assert_allclose(propagate(eigh(m + m.T), v, [0.0])[0], v, atol=1e-13)

    def test_matches_eigendecomposition(self):
        """Against the exponential series, summed to convergence."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = x + x.conj().T
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            expected, term = v.copy(), v.copy()
            for k in range(1, 60):
                term = 0.37 * m @ term / k
                expected = expected + term
            np.testing.assert_allclose(propagate(eigh(m), v, [0.37])[0], expected, atol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        system = eigh(-(x @ x.conj().T))
        v = rng.standard_normal(3)
        rows = propagate(system, v, [0.3, 0.8])
        assert rows.shape == (2, 3)
        np.testing.assert_allclose(rows[1], propagate(system, rows[0], [0.5])[0], atol=1e-12)

    def test_non_finite_result_raises(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalFailure, match="non-finite"
        ):
            propagate(eigh(np.eye(2)), np.ones(2), [1e3])


class TestTolerancePlumbing:
    def test_default(self, monkeypatch):
        """``None`` means DEFAULT_RANK_TOL; no environment variable is read."""
        monkeypatch.setenv("STROBE_TOL", "abc")
        assert eig(np.diag([1.0, 2.0])).tolerance == matcore.DEFAULT_RANK_TOL
        assert eig(np.diag([1.0, 2.0]), tol=1e-6).tolerance == 1e-6
        assert matcore._rank_tol(None) == matcore.DEFAULT_RANK_TOL

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            eig(np.eye(2), tol=tol)
        with pytest.raises(ValueError, match="finite and positive"):
            matcore._rank_tol(tol)
