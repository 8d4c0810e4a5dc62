"""Dense complex linear algebra for small superoperators.

Everything in this package runs through a handful of primitives collected
here: column-major vectorization, the fixed orthonormal Hermitian basis,
the one eigenvalue clustering rule, and the Hermitian eigendecomposition
with the matrix-exponential action read off it.

Conventions fixed once and for all:

* ``vec`` stacks columns (column-major / Fortran order), so that
  ``vec(X @ Y @ Z) == np.kron(Z.T, X) @ vec(Y)``.  Row-major stacking breaks
  that identity, and with it every generator built in :mod:`.channels`.
* Numerical rank uses a *relative* singular-value cutoff, default
  ``1e-9``; every function in the package taking a ``tol`` argument reads
  ``None`` as that default.
* Eigenvalues are reported ascending, and neighbours within ``1e-8`` of
  each other relative to the larger of the spectral diameter and the
  spectral norm chain into clusters before multiplicities are counted:
  numerical eigensolvers never return exactly equal values for a
  degenerate pair.

Matrices are plain ``numpy.ndarray`` objects with complex dtype; the
module works on anything array-like but always returns ndarrays.

Input that is Hermitian to 1e-12 of its largest entry (``_hermitian_part``,
the package's one Hermitian test) is decomposed by :func:`eigh`, and any
other input is refused: both family generators are real symmetric.  A
generator is decomposed once, into the :class:`Eigensystem` that
:func:`eigh` returns and, once checked, hands back unchanged, so every later
stage can take it: its eigenvalues settle eta and mu by ``_cluster_labels``
(``analysis.SpectralReport`` holds the clustered spectrum), and every
evolution exp(L t) takes ``_semigroup``, the one rule for its modes, and
through it :func:`propagate`.  Family generators are diagonal in
``_hermitian_basis``, so :mod:`.channels` reads their eigenvalues off it in
closed form, with no solver.  The module uses numpy alone.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConditioningError",
    "Eigensystem",
    "NotReconstructible",
    "NumericalFailure",
    "as_matrix",
    "vec",
    "unvec",
    "eigh",
    "propagate",
]

#: Relative singular-value cutoff separating true degeneracy from rounding
#: for O(1) entries at up to 16x16 superoperator scale.
DEFAULT_RANK_TOL = 1e-9

#: Eigenvalues closer than this fraction of the spectral scale (the larger
#: of the spectral diameter and the spectral norm) are treated as a single
#: degenerate cluster.
CLUSTER_TOL = 1e-8


class ConditioningError(RuntimeError):
    """A reconstruction plan was rejected as too ill-conditioned.

    Carries the offending condition number in :attr:`condition` and the
    name of the matrix that triggered the rejection in :attr:`matrix_name`.
    """

    def __init__(self, message: str, condition: float, matrix_name: str = ""):
        super().__init__(message)
        self.condition = condition
        self.matrix_name = matrix_name


class NotReconstructible(ValueError):
    """Valid input one observable cannot reconstruct (eta != 1, or Q fails the span check)."""


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


@functools.cache
def _hermitian_basis(n: int) -> np.ndarray:
    """Real-orthonormal basis of Hermitian n x n matrices under <A,B> =
    Tr(A B), stacked along axis 0: I/sqrt(n), symmetric and antisymmetric
    off-diagonal pairs, then traceless diagonal matrices.  Built once per
    n and read-only."""
    ops = [np.eye(n, dtype=complex) / np.sqrt(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            ops.append(e / np.sqrt(2.0))
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = -1j
            e[j, i] = 1j
            ops.append(e / np.sqrt(2.0))
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -float(k)
        ops.append(np.diag(d).astype(complex) / np.linalg.norm(d))
    ops = np.array(ops)
    ops.flags.writeable = False
    return ops


def _cluster_labels(values: np.ndarray) -> np.ndarray:
    """The one clustering rule: labels, from 0, of the ascending spectra of
    Hermitian matrices m along the last axis.

    Neighbours closer than ``CLUSTER_TOL`` x max(spectral diameter, ||m||_2)
    chain into one cluster; diameter and norm sit at the ends of the values.
    """
    diameter = values[..., -1] - values[..., 0]
    norm = np.maximum(np.abs(values[..., 0]), np.abs(values[..., -1]))
    tol_abs = CLUSTER_TOL * np.maximum(diameter, norm)
    labels = np.zeros(values.shape, dtype=int)
    gaps = np.abs(np.diff(values, axis=-1))
    np.cumsum(gaps > tol_abs[..., None], axis=-1, out=labels[..., 1:])
    return labels


def _hermitian_part(m: np.ndarray) -> np.ndarray | None:
    """The exactly Hermitian part m/2 + m^dagger/2 of a finite square ``m``
    that is Hermitian to 1e-12 of its largest entry, or None.  Relative, so
    a matrix and its multiples pass or fail together; an exactly Hermitian
    ``m`` (a family generator) comes back as it is."""
    m_h = m.conj().T
    if np.array_equal(m, m_h):
        return m
    half, half_h = m / 2, m_h / 2  # halves: no overflow near the float limit
    if np.abs(half - half_h).max() <= 0.5e-12 * np.abs(m).max():
        return half + half_h
    return None


class Eigensystem(NamedTuple):
    """Ascending eigenvalues and orthonormal eigenvector columns, m = V diag(values) V^dagger."""

    values: np.ndarray
    vectors: np.ndarray


def eigh(m) -> Eigensystem:
    """The :class:`Eigensystem` of a Hermitian matrix, or ``m`` if it is one.

    Both family generators are Hermitian (real symmetric), so this one
    decomposition is complete and well conditioned for them.  A matrix that
    is not Hermitian to 1e-12 of its largest entry is rejected; one that is
    has its exactly Hermitian part decomposed.  An :class:`Eigensystem` is
    handed back as it is if its values are a nonempty 1-D array of finite
    reals in ascending order and its vectors an (N, N) array, and refused
    with ValueError otherwise: every later stage reads eta and mu off the
    order of the values.
    """
    if isinstance(m, Eigensystem):
        values, vectors = m
        if not (isinstance(values, np.ndarray) and values.ndim == 1 and values.size
                and values.dtype.kind in "iuf"):
            raise ValueError("eigensystem values must be a nonempty 1-D array of reals")
        if not (np.isfinite(values).all() and (values[1:] >= values[:-1]).all()):
            raise ValueError("eigensystem values must be finite and in ascending order")
        if not (isinstance(vectors, np.ndarray) and vectors.shape == (values.size,) * 2):
            raise ValueError(f"eigensystem vectors must be a {values.size}x{values.size} array, "
                             f"got shape {np.shape(vectors)}")
        return m
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigh requires a square matrix, got shape {m.shape}")
    m = _hermitian_part(m)
    if m is None:
        raise ValueError("eigh requires a Hermitian matrix (to 1e-12 of its largest entry)")
    try:
        return Eigensystem(*np.linalg.eigh(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc


def propagate(eigensystem, x, times) -> np.ndarray:
    """``exp(m t) x`` for every ``t`` in ``times``, one row per instant.

    ``eigensystem`` is ``(values, vectors)`` from :func:`eigh`, so the
    action is V e^{values t} V^dagger x for all instants at once.  A
    generator's evolution takes :func:`_semigroup`, which applies its rule
    first.
    """
    values, vectors = eigensystem
    coords = vectors.conj().T @ np.asarray(x, dtype=complex)
    out = (np.exp(np.outer(times, values)) * coords) @ vectors.T
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("matrix exponential produced non-finite entries")
    return out


def _semigroup(eigensystem, x, times) -> np.ndarray:
    """``exp(L t) x`` of a generator L for every ``t`` in ``times``, one row
    per instant, from ``(values, vectors)`` of L (or of the modes kept) by
    :func:`eigh`: the one evolution rule.  Instants must be finite and >= 0.
    An eigenvalue within 1e-12 max|lambda| of 0 is the 0 it rounds, whatever
    its sign; a larger positive one is a growing mode, refused with
    ValueError; lambda t below the float range evolves as 0.
    """
    times = np.asarray(times, dtype=float)
    bad = ~((times >= 0) & (times < np.inf))  # nan fails both
    if bad.any():
        raise ValueError(f"instants must be finite and >= 0, got {times[bad][0]}")
    values, vectors = eigensystem
    size = np.abs(values)
    cut = 1e-12 * size.max()
    if values[-1] > cut:
        raise ValueError(f"generator has a growing mode (eigenvalue {values[-1]:.3e} > 0)")
    values = np.where(size <= cut, 0.0, values)
    with np.errstate(over="ignore"):  # lambda t past -1.8e308 is -inf, whose exponential is 0
        return propagate((values, vectors), x, times)
