"""Dense complex linear algebra for small superoperators.

Everything in this package runs through a handful of primitives collected
here: column-major vectorization, Hilbert-Schmidt inner products, spectral
decompositions with degeneracy clustering, matrix exponential action, and
tolerance-aware rank / linear solves.

Conventions fixed once and for all:

* ``vec`` stacks columns (column-major / Fortran order), so that
  ``vec(X @ Y @ Z) == np.kron(Z.T, X) @ vec(Y)``.  Row-major stacking breaks
  that identity, and with it every generator built in :mod:`.channels`.
* Numerical rank uses a *relative* singular-value cutoff, default
  ``1e-9`` times the largest singular value; every function taking a
  ``tol`` argument reads ``None`` as that default.
* Eigenvalues are reported sorted by (real, imaginary) part, and values
  within ``1e-8`` of each other relative to the spectral diameter are
  clustered before multiplicities and indices are computed: numerical
  eigensolvers never return exactly equal values for a degenerate pair.

Matrices are plain ``numpy.ndarray`` objects with complex dtype; the
module works on anything array-like but always returns ndarrays.

``scipy.linalg`` is imported on the first call of :func:`expm_apply` or
:func:`rank_with_tol`, the only two users of it, so importing the package
(and the spectral reports, which use numpy alone) does not pay its import
cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConditioningError",
    "NumericalFailure",
    "Spectrum",
    "SolveResult",
    "as_matrix",
    "vec",
    "unvec",
    "hs_inner",
    "eig",
    "expm_apply",
    "rank_with_tol",
    "solve",
]

#: Relative singular-value cutoff separating true degeneracy from rounding
#: for O(1) entries at up to 16x16 superoperator scale.
DEFAULT_RANK_TOL = 1e-9

#: Eigenvalues closer than this fraction of the spectral diameter are
#: treated as a single degenerate cluster.
CLUSTER_TOL = 1e-8


class ConditioningError(RuntimeError):
    """A linear system or plan was rejected as too ill-conditioned.

    Carries the offending condition number in :attr:`condition` and the
    name of the matrix that triggered the rejection in :attr:`matrix_name`.
    """

    def __init__(self, message: str, condition: float, matrix_name: str = ""):
        super().__init__(message)
        self.condition = condition
        self.matrix_name = matrix_name


class NumericalFailure(RuntimeError):
    """An underlying numerical routine failed to converge or produced
    non-finite output; the computation cannot be silently degraded."""


def _rank_tol(tol: float | None) -> float:
    """``tol``, or :data:`DEFAULT_RANK_TOL` for ``None``; finite and > 0."""
    if tol is None:
        return DEFAULT_RANK_TOL
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"rank tolerance must be finite and positive, got {tol}")
    return float(tol)


def as_matrix(obj) -> np.ndarray:
    """Validate and convert array-like input to a 2-D complex ndarray.

    Rejects non-2-D shapes, empty axes and non-finite entries.  Use this at
    every boundary where matrices enter from user input.
    """
    m = np.asarray(obj, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix axes must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def vec(m) -> np.ndarray:
    """Column-major vectorization: stack the columns of ``m``."""
    return np.ravel(as_matrix(m), order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape {v.size} entries into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product ``Tr(a^dagger b)``.

    Conjugate-linear in the first argument, like the physics convention the
    projection formulas rely on.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))  # vdot conjugates its first argument


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with algebraic multiplicity plus degeneracy clustering.

    ``eigenvalues`` lists all values (algebraic multiplicity), sorted by
    (real, imaginary).  ``clusters`` groups numerically coincident values:
    one ``(representative, algebraic, geometric)`` triple per cluster, in
    the same ordering.  ``min_poly_degree`` is the degree of the minimal
    polynomial: the sum over clusters of the eigenvalue's index.
    """

    eigenvalues: np.ndarray
    clusters: tuple[tuple[complex, int, int], ...]
    tolerance: float
    min_poly_degree: int

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def max_geometric_multiplicity(self) -> int:
        return max(c[2] for c in self.clusters)

    def distinct_values(self) -> np.ndarray:
        """One representative per cluster (degenerate values collapsed)."""
        return np.array([c[0] for c in self.clusters])


def _cluster_indices(values: np.ndarray, tol_abs: float) -> list[list[int]]:
    """Group sorted eigenvalue indices into chains closer than ``tol_abs``."""
    groups: list[list[int]] = []
    for i in range(values.size):
        if groups and abs(values[i] - values[groups[-1][-1]]) <= tol_abs:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _nullity(m: np.ndarray, tol: float, tol_abs: float) -> int:
    """Numerical null-space dimension: singular values at or below
    ``max(tol * sigma_max, tol_abs)``, or all of them when ``m`` is zero."""
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0:
        return sv.size
    return int(np.sum(sv <= max(tol * sv[0], tol_abs)))


def eig(m, tol: float | None = None) -> Spectrum:
    """Full spectrum with clustered multiplicities and indices.

    Eigenvalues are sorted by (real, imaginary) part.  Values within
    ``CLUSTER_TOL`` x spectral diameter are treated as one degenerate
    cluster of algebraic multiplicity ``a``.  Its geometric multiplicity is
    the numerical nullity of ``m - lambda I`` at the given rank tolerance;
    its index is the smallest k >= 1 at which the nullity of
    ``(m - lambda I)^k`` reaches ``a``.  Clusters with geometric = algebraic
    multiplicity (every cluster of a diagonalizable ``m``) have index 1 and
    take no power beyond the first.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"eig requires a square matrix, got shape {m.shape}")
    tol = _rank_tol(tol)
    try:
        values = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc

    order = np.lexsort((values.imag, values.real))
    values = values[order]

    diameter = float(np.max(np.abs(values[:, None] - values[None, :]))) if values.size > 1 else 0.0
    tol_abs = CLUSTER_TOL * diameter
    dim = m.shape[0]

    clusters: list[tuple[complex, int, int]] = []
    mu = 0
    for group in _cluster_indices(values, tol_abs):
        rep = complex(np.mean(values[group]))
        alg = len(group)
        shifted = m - rep * np.eye(dim)
        geo = max(1, min(_nullity(shifted, tol, tol_abs), alg))
        index, nullity, power = 1, geo, shifted
        while nullity < alg and index < alg:  # defective cluster: raise the power
            index += 1
            power = power @ shifted
            nullity = _nullity(power, tol, tol_abs)
        clusters.append((rep, alg, geo))
        mu += index

    return Spectrum(
        eigenvalues=values,
        clusters=tuple(clusters),
        tolerance=tol,
        min_poly_degree=mu,
    )


def expm_apply(m, t: float, v) -> np.ndarray:
    """Action of the matrix exponential: ``exp(m t) @ v``.

    Dimensions here are tiny (at most ~100x100 by charter), so the dense
    scaling-and-squaring exponential is both the simplest and the most
    robust choice; no Krylov/expmv machinery is warranted.
    """
    m = np.asarray(m, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expm_apply requires a square matrix, got {m.shape}")
    if v.shape[0] != m.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {m.shape}, vector {v.shape}")
    if t == 0:
        return v.copy()
    import scipy.linalg

    out = scipy.linalg.expm(m * t) @ v
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("matrix exponential produced non-finite entries")
    return out


def rank_with_tol(vectors, tol: float | None = None) -> int:
    """Numerical rank of a family of equal-length vectors.

    Column-pivoted elimination on norm-scaled columns: each nonzero vector
    is first normalized (making the count exactly invariant under nonzero
    column scaling and under permutation), then the pivoted-QR diagonal is
    thresholded at ``tol`` times its largest entry.  The pivoted diagonal
    measures how much genuinely new direction each column adds, which keeps
    near-dependent families (Krylov stacks of clustered spectra) from being
    written off by the squared conditioning an SVD of the raw stack sees.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("rank_with_tol requires at least one vector")
    tol = _rank_tol(tol)
    cols = []
    for v in vectors:
        v = np.asarray(v, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if norm > 0:
            cols.append(v / norm)
    if not cols:
        return 0
    import scipy.linalg

    a = np.column_stack(cols)
    r = scipy.linalg.qr(a, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0:
        return 0
    return int(np.sum(diag > tol * diag[0]))


@dataclass(frozen=True)
class SolveResult:
    """Solution of a square linear system plus its 2-norm condition number."""

    solution: np.ndarray
    condition: float


def solve(a, b, *, name: str = "matrix", max_condition: float = 1e15) -> SolveResult:
    """Solve ``a x = b`` and report the condition number of ``a``.

    Raises :class:`ConditioningError` when ``a`` is singular at working
    precision or its condition number exceeds ``max_condition``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    cond = float(np.linalg.cond(a))
    if not np.isfinite(cond) or cond > max_condition:
        raise ConditioningError(
            f"{name} is singular to working precision (condition {cond:.3e})",
            condition=cond,
            matrix_name=name,
        )
    x = np.linalg.solve(a, b)
    return SolveResult(solution=x, condition=cond)

