import numpy as np
import pytest

from strobetomo import matcore
from strobetomo.analysis import spectral_report
from strobetomo.matcore import (
    CLUSTER_TOL,
    NumericalFailure,
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

    @pytest.mark.parametrize("call,match", [
        (lambda: matcore.as_matrix(np.zeros((0, 3))), r"axes must be nonempty, got shape \(0, 3\)"),
        (lambda: matcore.unvec(np.zeros(5), 2, 2), "cannot reshape 5 entries into 2x2"),
    ], ids=["as_matrix empty axis", "unvec wrong size"])
    def test_malformed_input_is_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


def random_orthogonal(seed, n):
    return np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]


class TestEig:
    """Eigen-analysis of small matrices, through ``spectral_report``: one
    ``eigh`` and the clustering rule.  Defective input is not Hermitian and
    is refused."""

    def test_simple_spectrum(self):
        report = spectral_report(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(report.eigenvalues, [1.0, 2.0, 3.0])
        assert report.eta == 1
        assert [size for _, size in report.clusters] == [1, 1, 1]

    def test_diagonalizable_degeneracy(self):
        """Repeated eigenvalue with full eigenspace: geometric = algebraic,
        one size per cluster."""
        report = spectral_report(np.diag([2.0, 2.0, 5.0]))
        assert report.clusters == ((2.0, 2), (5.0, 1))
        assert report.eta == 2

    def test_jordan_block_is_defective(self):
        """A 2x2 Jordan block has algebraic multiplicity 2 but geometric 1;
        it is not Hermitian, so no report is made of it."""
        m = np.array([[3.0, 1.0], [0.0, 3.0]])
        assert np.linalg.matrix_rank(m - 3.0 * np.eye(2)) == 1
        with pytest.raises(ValueError, match="Hermitian"):
            spectral_report(m)

    def test_zero_matrix(self):
        """Equal eigenvalues chain into one cluster even where the cut is 0."""
        report = spectral_report(np.zeros((3, 3)))
        assert report.clusters == ((0.0, 3),)
        assert (report.eta, report.mu, report.discriminant) == (3, 1, 0)

    def test_min_poly_degree_sums_indices(self):
        """Every index of a Hermitian matrix is 1, so mu is the cluster
        count; a Jordan chain, whose index exceeds 1, is refused."""
        assert spectral_report(np.diag([2.0, 2.0, 5.0])).mu == 2
        assert spectral_report(np.diag([-1.0, -1.0, -1.0, -2.0])).mu == 2
        m = np.diag([-1.0, -1.0, -1.0, -2.0]) + np.diag([1.0, 1.0, 0.0], 1)
        with pytest.raises(ValueError, match="Hermitian"):
            spectral_report(m)

    def test_near_degenerate_values_cluster(self):
        # gap of 1e-12 against a spectral diameter of ~1: far below the
        # 1e-8 * diameter clustering threshold
        report = spectral_report(np.diag([1.0, 1.0 + 1e-12, 2.0]))
        assert [size for _, size in report.clusters] == [2, 1]

    def test_perturbed_defective_spectrum_is_refused(self):
        """Q (J2(-1) + J2(-1)) Q^T with a random orthogonal Q (seed 2) is not
        Hermitian, so it is refused; Q (-I) Q^T, Hermitian and spread by
        rounding, is one cluster of four."""
        j = np.diag([-1.0] * 4) + np.diag([1.0, 0.0, 1.0], 1)
        q = random_orthogonal(2, 4)
        with pytest.raises(ValueError, match="Hermitian"):
            spectral_report(q @ j @ q.T)
        report = spectral_report(q @ -np.eye(4) @ q.T)
        assert [size for _, size in report.clusters] == [4]
        assert (report.eta, report.mu) == (4, 1)

    def test_sorting_is_by_real_then_imag(self):
        """Eigenvalues come ascending and real, whatever the basis; a complex
        diagonal is not Hermitian and is refused."""
        q = random_orthogonal(3, 3)
        vals = spectral_report(q @ np.diag([2.0, -1.0, 0.5]) @ q.T).eigenvalues
        np.testing.assert_allclose(vals, [-1.0, 0.5, 2.0], atol=1e-14)
        assert np.isrealobj(vals)
        with pytest.raises(ValueError, match="Hermitian"):
            spectral_report(np.diag([1.0 + 1j, 1.0 - 1j, 0.5]))


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


def gap_rule_sizes(values):
    """Cluster sizes of a real spectrum by the written-out gap rule: sorted
    neighbours chain when their gap is at most CLUSTER_TOL x max(diameter,
    max |lambda|)."""
    v = np.sort(values)
    cut = CLUSTER_TOL * max(v[-1] - v[0], np.abs(v).max())
    sizes = [1]
    for gap in np.diff(v):
        if gap > cut:
            sizes.append(1)
        else:
            sizes[-1] += 1
    return sizes


class TestClusterLabels:
    """The one clustering rule, on ascending real spectra."""

    def test_hermitian_path_clusters_like_eig(self):
        """A tight Hermitian spectrum far from zero is one cluster at the
        norm's scale; its diameter alone would split it.  The labels match
        the written-out gap rule on numpy's general eigensolver's values."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            base = rng.choice([-2.0, -1.0, 0.5, 3.0], size=6)
            values = np.sort(base + rng.uniform(-3e-9, 3e-9, size=6) * np.abs(base))
            labels = matcore._cluster_labels(values)
            solved = np.linalg.eigvals(np.diag(values))
            assert not solved.imag.any()
            assert gap_rule_sizes(solved.real) == np.bincount(labels).tolist()
        tight = np.array([-1.0 - 1e-9, -1.0, -1.0 + 1e-9])
        assert matcore._cluster_labels(tight).tolist() == [0, 0, 0]
        assert gap_rule_sizes(tight) == [3]
        wide = np.array([-1.0, -1.0 + 1.5e-8, 1.0])  # the diameter 2 sets the scale
        assert matcore._cluster_labels(wide).tolist() == [0, 0, 1]
        assert gap_rule_sizes(wide) == [2, 1]

    def test_stacks_label_row_by_row(self):
        rows = np.array([[-1.0, -1.0 + 1e-12, 0.0], [-1.0, -0.5, 0.0]])
        labels = matcore._cluster_labels(rows)
        assert labels.tolist() == [[0, 0, 1], [0, 1, 2]]
        for row, label in zip(rows, labels):
            assert matcore._cluster_labels(row).tolist() == label.tolist()


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
        assert matcore._rank_tol(None) == matcore.DEFAULT_RANK_TOL
        assert matcore._rank_tol(1e-6) == 1e-6

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            matcore._rank_tol(tol)
