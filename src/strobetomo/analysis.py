"""Tomographic diagnostics of an evolution generator.

The central quantity is the *index of cyclicity* eta: the maximum
geometric multiplicity over the generator's spectrum.  It equals the
minimal number of distinct observables whose stroboscopic measurements can
determine an unknown initial state, so eta = 1 ("optimal" generator) is
the regime where a single observable suffices.

Three equivalent certificates are wired together here and cross-reported:

* eta computed from clustered eigenvalues: the largest cluster;
* the discriminant D = prod_{i<j} (lambda_i - lambda_j)^2, nonzero exactly
  when the spectrum is simple (simple spectrum => nonderogatory => eta = 1
  for diagonalizable generators);
* the minimal-polynomial degree mu, the number of distinct eigenvalues
  (every index of a diagonalizable generator is 1).

There is one spectral route: a generator must be Hermitian, as both family
generators are (real symmetric), or its ``matcore.Eigensystem``.  It is
then diagonalizable, so ``_family_spectra`` reads eta (the largest
cluster) and mu (the cluster count) off its eigenvalues alone: ``scan`` and
``analyze`` feed it closed-form eigenvalues (``channels._family_eigenvalues``,
no eigensolver), and :func:`spectral_report`, :func:`optimality_report`,
the default time grid and the plan the values of ``matcore.eigh``.
``analyze`` equals every scan row bit for bit, and the reports of a family
generator agree with both to about 1e-12 relative on the discriminant.
A :class:`SpectralReport` holds the clustered spectrum itself, and eta and
mu are counts of its clusters, so the reports take no rank tolerance.
A non-Hermitian generator, such as a GKSL generator with a Hamiltonian or
non-normal jumps, is refused with ValueError by every function here that
takes a generator.

For a nonderogatory n^2 x n^2 generator mu equals n^2.  A widely quoted
variant of this equivalence states mu = n^2 - 1 instead; that value is
incompatible with the nonderogatory characterization, so the spectral
report, which is also the optimality record, carries the measured mu with
both reference values and flags the inconsistency instead of asserting either.

Observable admissibility: a Hermitian Q can reconstruct states under a
generator L exactly when {I, Q, L*[Q], ..., (L*)^{n^2-2}[Q]} spans the
operator space (L* is the Heisenberg-picture adjoint, numerically the
conjugate transpose of the generator matrix).  Admissibility takes a
Hermitian generator, as both family generators are: then L* = L =
V diag(lambda) V^dagger, and the span holds exactly when the spectrum is
simple and every decaying eigen-coordinate c_k = <v_k, vec Q> is nonzero,
which one eigendecomposition decides (:func:`span_report` and
:func:`random_admissible_observable` also take it, a ``matcore.Eigensystem``).
For qubits this reduces to the closed-form test A != B, C != 0, D != 0 on
Q = [[A, C+iD], [C-iD, B]].
Every function taking an observable takes a spec as it is and a matrix
through :meth:`ObservableSpec.from_matrix`, which refuses a non-Hermitian one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matcore
from .matcore import vec

__all__ = [
    "SpectralReport",
    "ObservableSpec",
    "OptimalityReport",
    "SpanReport",
    "spectral_report",
    "optimality_report",
    "span_report",
    "span_check",
    "two_level_admissible",
    "random_admissible_observable",
]


@dataclass(frozen=True)
class SpectralReport:
    """The clustered spectrum of a Hermitian generator, the tomography
    indices read off it and the cross-checked optimality certificates.

    ``eigenvalues`` are ascending; ``clusters`` holds one (mean, size) pair
    per cluster, ascending; ``discriminant`` is the pairwise product over
    the eigenvalues, exactly zero whenever a cluster merges.  The generator
    is Hermitian, so a cluster's size is both its algebraic and its
    geometric multiplicity and every index is 1: ``eta`` is the largest
    cluster and ``mu``, the minimal-polynomial degree, the cluster count.

    ``optimal`` is the operative verdict (eta = 1).  ``mu_nonderogatory``
    (= n^2) is the mu implied by a simple spectrum, while
    ``mu_alternative_claim`` (= n^2 - 1) is a reference value sometimes
    quoted for the same equivalence; any disagreement between the measured
    mu and either reference is spelled out in ``notes``.
    """

    eigenvalues: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    discriminant: float

    @property
    def eta(self) -> int:
        return max(size for _, size in self.clusters)

    @property
    def mu(self) -> int:
        return len(self.clusters)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def optimal(self) -> bool:
        """One observable suffices exactly when eta = 1."""
        return self.eta == 1

    @property
    def mu_nonderogatory(self) -> int:
        return self.dim

    @property
    def mu_alternative_claim(self) -> int:
        return self.dim - 1

    @property
    def discriminant_nonzero(self) -> bool:
        return self.mu == self.dim  # no merged cluster

    @property
    def criteria_agree(self) -> bool:
        return self.optimal == self.discriminant_nonzero and (
            not self.optimal or self.mu == self.mu_nonderogatory
        )

    @property
    def notes(self) -> tuple[str, ...]:
        mu, dim = self.mu, self.mu_nonderogatory
        notes = []
        if self.optimal != self.discriminant_nonzero:
            notes.append(
                f"eta = {self.eta} and discriminant {self.discriminant} disagree; "
                "for a diagonalizable generator they must coincide"
            )
        if self.optimal and mu != dim:
            notes.append(f"measured mu = {mu} differs from the nonderogatory value n^2 = {dim}")
        if self.optimal and mu == dim:
            notes.append(
                f"measured mu = {mu} equals n^2 = {dim}, not the alternative "
                f"reference value n^2 - 1 = {dim - 1}; the n^2 - 1 identity is "
                "inconsistent with a nonderogatory generator"
            )
        return tuple(notes)


OptimalityReport = SpectralReport


@dataclass(frozen=True)
class ObservableSpec:
    """A Hermitian observable, with the qubit closed-form fields when n=2.

    For n = 2 the parametrization is Q = [[A, C+iD], [C-iD, B]] with real
    A, B, C, D, read off ``matrix`` as ``a`` to ``d`` (None for n > 2).
    :meth:`from_matrix` takes a matrix that is Hermitian to 1e-12 of its
    largest entry and refuses any other.
    """

    matrix: np.ndarray

    @staticmethod
    def from_matrix(q) -> "ObservableSpec":
        q = matcore.as_matrix(q)
        if q.shape[0] != q.shape[1]:
            raise ValueError("observable must be square")
        if matcore._hermitian_part(q) is None:
            raise ValueError("observable must be Hermitian to 1e-12 of its largest entry")
        return ObservableSpec(matrix=q)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def a(self) -> float | None:
        return float(self.matrix[0, 0].real) if self.dim == 2 else None

    @property
    def b(self) -> float | None:
        return float(self.matrix[1, 1].real) if self.dim == 2 else None

    @property
    def c(self) -> float | None:
        return float(self.matrix[0, 1].real) if self.dim == 2 else None

    @property
    def d(self) -> float | None:
        return float(self.matrix[0, 1].imag) if self.dim == 2 else None


def _observable(q) -> ObservableSpec:
    """The one observable gate: a spec as it is, a matrix through
    :meth:`ObservableSpec.from_matrix`."""
    return q if isinstance(q, ObservableSpec) else ObservableSpec.from_matrix(q)


@dataclass(frozen=True)
class SpanReport:
    """Span test of {I, Q_1, ...} and their Heisenberg-picture orbits.

    ``rank`` is the dimension of the operator space the observables reach
    (``required`` = n^2 when they reach all of it).  ``margin`` is the
    smallest singular value, over the generator's eigenvalue clusters, of
    the eigen-coordinates a cluster needs for full rank; for one
    observable it is min |c_k| / ||Q|| over the decaying modes k.
    """

    rank: int
    required: int
    margin: float

    @property
    def satisfied(self) -> bool:
        return self.rank == self.required


def spectral_report(gen) -> SpectralReport:
    """Spectrum, index of cyclicity, min-poly degree and discriminant, all
    read off the eigenvalues of ``gen``, a Hermitian generator or its
    ``matcore.Eigensystem``, by :func:`~strobetomo.matcore.eigh` and the
    cluster kernel, as ``analyze`` reads them off the closed form.  A
    matrix that is not square, finite and Hermitian to 1e-12 of its largest
    entry is refused with ValueError.  No rank tolerance enters."""
    return _family_report(matcore.eigh(gen).values[None])


optimality_report = spectral_report


def _discriminant(values):
    """prod_{i<j} (lambda_i - lambda_j)^2 along the last axis; inf where the
    product overflows, nan where it also meets a tie (callers read 0 there)."""
    i, j = np.triu_indices(values.shape[-1], 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.prod((values[..., i] - values[..., j]) ** 2, axis=-1)


class _FamilySpectra(NamedTuple):
    """Per-generator results of :func:`_family_spectra`, row i for generator i.

    ``labels`` (k, N) the cluster of each eigenvalue, numbered from 0;
    ``eta``, ``mu`` and ``discriminant`` (k,).
    """

    labels: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    discriminant: np.ndarray


def _family_spectra(values) -> _FamilySpectra:
    """Clustered spectra of k Hermitian (family) generators, from their
    ascending eigenvalues ``values`` of shape (k, N), from the closed form
    or from :func:`~strobetomo.matcore.eigh`.

    A Hermitian matrix is diagonalizable, so each eigenvalue's geometric
    multiplicity equals its algebraic one and its index is 1.  Values chain
    into clusters by ``matcore._cluster_labels``; eta is the size of the
    largest cluster, mu the number of clusters, and the discriminant is
    zero when any cluster merges.  No rank tolerance enters.

    Each row depends on its own eigenvalues alone, so a stack of k gives
    the bits of k separate calls.  It is the kernel of every spectral
    report, :func:`spectral_report`'s included.
    """
    labels = matcore._cluster_labels(values)
    # A cluster is a run of equal labels: eta is the longest run.
    index = np.arange(values.shape[1])
    starts = np.maximum.accumulate(np.where(np.diff(labels, prepend=-1) != 0, index, 0), axis=1)
    eta = np.max(index - starts, axis=1) + 1
    mu = labels[:, -1] + 1
    disc = np.where(mu == values.shape[1], _discriminant(values), 0.0)
    return _FamilySpectra(labels, eta, mu, disc)


def _family_report(values) -> SpectralReport:
    """:class:`SpectralReport` of one Hermitian generator from its ascending
    eigenvalues, shape (1, N): the row of :func:`_family_spectra`, so it
    equals any scan row of the same point bit for bit.  Each cluster is
    (mean, size)."""
    s = _family_spectra(values)
    members = s.labels[0] == np.arange(s.mu[0])[:, None]
    sizes = members.sum(axis=1)
    means = np.where(members, values[0], 0.0).sum(axis=1) / sizes
    return SpectralReport(
        eigenvalues=values[0],
        clusters=tuple(zip(means.tolist(), sizes.tolist())),
        discriminant=float(s.discriminant[0]),
    )


def span_report(gen, observables, tol: float | None = None) -> SpanReport:
    """Do {I, Q_1, ...} and their orbits under L* span the operator space?

    ``gen`` must be Hermitian (both family generators are) or its
    ``matcore.Eigensystem``: L = V diag(lambda) V^dagger gives the Krylov
    matrix of Q as V diag(c) Vandermonde(lambda) with eigen-coordinates
    c = V^dagger vec Q.  The observables therefore span exactly when, on
    every eigenvalue cluster, the eigen-coordinates of the norm-scaled
    {vec I, vec Q_1, ...} have full rank at ``tol``.
    """
    values, vectors = matcore.eigh(gen)
    tol = matcore._rank_tol(tol)
    n2 = values.size
    n = int(round(np.sqrt(n2)))
    cols = [vec(np.eye(n))]
    for q in observables:
        q = _observable(q).matrix
        if q.shape != (n, n):
            raise ValueError(f"observable shape {q.shape} does not match generator dim {n}")
        cols.append(vec(q))
    cols = np.column_stack(cols)
    norms = np.linalg.norm(cols, axis=0)
    coords = vectors.conj().T @ (cols / np.where(norms > 0, norms, 1.0))

    rank, margin = 0, np.inf
    row_norms = np.linalg.norm(coords, axis=1)  # a one-row block's singular value
    labels = matcore._cluster_labels(values)
    starts = np.flatnonzero(np.diff(labels, prepend=-1)).tolist()
    for a, b in zip(starts, starts[1:] + [n2]):  # cluster a:b
        if b - a == 1:
            sv = row_norms[a:b]
        else:
            sv = np.linalg.svd(coords[a:b], compute_uv=False)
        rank += int(np.sum(sv > tol))
        margin = min(margin, sv[b - a - 1] if sv.size >= b - a else 0.0)
    return SpanReport(rank=rank, required=n2, margin=float(margin))


def span_check(gen, q, tol: float | None = None) -> bool:
    """True when the single observable ``q`` is admissible under ``gen``."""
    return span_report(gen, [q], tol=tol).satisfied


def two_level_admissible(q, tol: float = 1e-12) -> bool:
    """Closed-form qubit admissibility: A != B, C != 0 and D != 0."""
    spec = _observable(q)
    if spec.dim != 2:
        raise ValueError("closed-form admissibility is defined for 2x2 observables")
    return bool(
        abs(spec.a - spec.b) > tol and abs(spec.c) > tol and abs(spec.d) > tol
    )


def random_admissible_observable(
    gen, seed, *, tries: int = 100, tol: float | None = None
) -> ObservableSpec:
    """Draw a random Hermitian observable passing the span check.

    Deterministic for a fixed seed.  For qubits the closed-form fields are
    drawn with margins >= 0.1 away from the inadmissible locus, so the
    rejection loop essentially never iterates; for larger dimensions a
    Gaussian Hermitian matrix is drawn and re-tried until the span check
    passes.  ``gen`` is decomposed once, before the loop.  Raises
    ValueError when the cap is hit, which signals a non-optimal generator
    (eta > 1).
    """
    eigensystem = matcore.eigh(gen)
    n = int(round(np.sqrt(eigensystem[0].size)))
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        if n == 2:
            a = rng.uniform(-1.0, 1.0)
            b = a + _signed_margin(rng, 0.1, 1.0)
            c = _signed_margin(rng, 0.1, 1.0)
            d = _signed_margin(rng, 0.1, 1.0)
            q = np.array([[a, c + 1j * d], [c - 1j * d, b]], dtype=complex)
        else:
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q = (x + x.conj().T) / 2.0
        obs = ObservableSpec.from_matrix(q)
        if span_report(eigensystem, [obs], tol).satisfied:
            return obs
    raise ValueError(
        f"no admissible observable found in {tries} tries; the generator is "
        "likely non-optimal (eta > 1), where no single observable can span "
        "the operator space"
    )


def _signed_margin(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform magnitude in [lo, hi] with a random sign."""
    return float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))
