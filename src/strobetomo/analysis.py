"""Tomographic diagnostics of an evolution generator.

The central quantity is the *index of cyclicity* eta: the maximum
geometric multiplicity over the generator's spectrum.  It equals the
minimal number of distinct observables whose stroboscopic measurements can
determine an unknown initial state, so eta = 1 ("optimal" generator) is
the regime where a single observable suffices.

Three equivalent certificates are wired together here and cross-reported:

* eta computed from clustered eigenvalues and null-space ranks;
* the discriminant D = prod_{i<j} (lambda_i - lambda_j)^2, nonzero exactly
  when the spectrum is simple (simple spectrum => nonderogatory => eta = 1
  for diagonalizable generators);
* the minimal-polynomial degree mu, the sum of the eigenvalue indices read
  off the same clustered eigendecomposition (for a diagonalizable
  generator, the number of distinct eigenvalues).

There is one spectral route per kind of input.  Family generators are real
symmetric, so ``_family_spectra`` reads their indices off their eigenvalues
alone (the general rules specialised to a Hermitian matrix, per row as
arrays): ``scan`` and ``analyze`` feed it closed-form eigenvalues
(``channels._family_eigenvalues``, no eigensolver), the default time grid
and the plan the values of their ``matcore.eigh``, and ``analyze`` equals
every scan row bit for bit.  :func:`spectral_report` and
:func:`optimality_report` take the general route (:func:`matcore.eig`:
complex eigenvalues plus one SVD per cluster) for any square generator,
Jordan blocks included; on family generators they agree with the kernel on
eta and mu and to about 1e-12 relative on the discriminant.

For a nonderogatory n^2 x n^2 generator mu equals n^2.  A widely quoted
variant of this equivalence states mu = n^2 - 1 instead; that value is
incompatible with the nonderogatory characterization, so optimality
reports carry the measured mu together with both reference values and
flag the inconsistency instead of asserting either.

Observable admissibility: a Hermitian Q can reconstruct states under a
generator L exactly when {I, Q, L*[Q], ..., (L*)^{n^2-2}[Q]} spans the
operator space (L* is the Heisenberg-picture adjoint, numerically the
conjugate transpose of the generator matrix).  Admissibility takes a
Hermitian generator, as both family generators are: then L* = L =
V diag(lambda) V^dagger, and the span holds exactly when the spectrum is
simple and every decaying eigen-coordinate c_k = <v_k, vec Q> is nonzero,
which one eigendecomposition decides.  For qubits this reduces to the
closed-form test A != B, C != 0, D != 0 on Q = [[A, C+iD], [C-iD, B]].
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
    """Clustered spectrum plus the derived tomography indices.

    ``clusters`` holds (eigenvalue, algebraic, geometric) triples sorted by
    (real, imaginary) part; ``eta`` is the maximum geometric multiplicity;
    ``mu`` the minimal-polynomial degree; ``discriminant`` the pairwise
    product over cluster representatives (exactly zero whenever any cluster
    has algebraic multiplicity > 1).
    """

    spectrum: matcore.Spectrum
    eta: int
    mu: int
    discriminant: complex
    tolerance: float

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @property
    def optimal(self) -> bool:
        """One observable suffices exactly when eta = 1."""
        return self.eta == 1


@dataclass(frozen=True)
class ObservableSpec:
    """A Hermitian observable, with the qubit closed-form fields when n=2.

    For n = 2 the parametrization is Q = [[A, C+iD], [C-iD, B]] with real
    A, B, C, D.
    """

    matrix: np.ndarray
    a: float | None = None
    b: float | None = None
    c: float | None = None
    d: float | None = None

    @staticmethod
    def from_matrix(q) -> "ObservableSpec":
        q = matcore.as_matrix(q)
        if q.shape[0] != q.shape[1]:
            raise ValueError("observable must be square")
        if np.max(np.abs(q - q.conj().T)) > 1e-12:
            raise ValueError("observable must be Hermitian to 1e-12")
        if q.shape == (2, 2):
            return ObservableSpec(
                matrix=q,
                a=float(q[0, 0].real),
                b=float(q[1, 1].real),
                c=float(q[0, 1].real),
                d=float(q[0, 1].imag),
            )
        return ObservableSpec(matrix=q)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


@dataclass(frozen=True)
class OptimalityReport:
    """Cross-checked optimality certificates for a generator.

    ``optimal`` is the operative verdict (eta = 1).  ``mu`` is the sum of
    the eigenvalue indices; ``mu_nonderogatory`` (= n^2) is the value
    implied by a simple spectrum, while ``mu_alternative_claim`` (= n^2 - 1) is a
    reference value sometimes quoted for the same equivalence; any
    disagreement between the measured mu and either reference is spelled
    out in ``notes``.
    """

    eta: int
    mu: int
    mu_nonderogatory: int
    mu_alternative_claim: int
    discriminant: complex
    discriminant_nonzero: bool
    optimal: bool
    criteria_agree: bool
    notes: tuple[str, ...]


def spectral_report(gen, tol: float | None = None) -> SpectralReport:
    """Spectrum, index of cyclicity, min-poly degree and discriminant, all
    from one clustered eigendecomposition (the general route, for any
    square generator).  The discriminant is zero when any cluster merges and
    is taken over the real parts when the spectrum is real."""
    spectrum = matcore.eig(gen, tol=tol)
    values = spectrum.eigenvalues
    disc = 0.0
    if len(spectrum.clusters) == spectrum.dim:
        disc = _discriminant(values if values.imag.any() else values.real)
    return SpectralReport(
        spectrum=spectrum,
        eta=spectrum.max_geometric_multiplicity,
        mu=spectrum.min_poly_degree,
        discriminant=complex(disc),
        tolerance=spectrum.tolerance,
    )


def _discriminant(values):
    """prod_{i<j} (lambda_i - lambda_j)^2 along the last axis; reads inf
    where the product overflows instead of raising."""
    i, j = np.triu_indices(values.shape[-1], 1)
    with np.errstate(over="ignore"):
        return np.prod((values[..., i] - values[..., j]) ** 2, axis=-1)


class _FamilySpectra(NamedTuple):
    """Per-generator results of :func:`_family_spectra`, row i for generator i.

    ``labels`` (k, N) the cluster of each eigenvalue, numbered from 0;
    ``reps``, ``alg`` and ``geo`` (k, N) the representative, algebraic and
    geometric multiplicity of that cluster; ``eta``, ``mu`` and
    ``discriminant`` (k,).
    """

    labels: np.ndarray
    reps: np.ndarray
    alg: np.ndarray
    geo: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    discriminant: np.ndarray
    tolerance: float


def _family_spectra(values, tol: float | None) -> _FamilySpectra:
    """Clustered spectra of k Hermitian (family) generators, from their
    ascending eigenvalues ``values`` of shape (k, N), from the closed form
    or from :func:`~strobetomo.matcore.eigh`.

    The rules are :func:`~strobetomo.matcore.eig`'s, specialised to a
    Hermitian matrix, where ||L||_2 = max |lambda|, the singular values of
    L - rep I are |lambda_i - rep| and every cluster has index 1:

    * values chain into clusters by ``matcore._cluster_labels``, and mu is
      the number of clusters;
    * a cluster's geometric multiplicity is the count of
      |lambda_i - rep| <= max(tol max_i |lambda_i - rep|, the cluster
      tolerance), capped to [1, algebraic]; eta is the largest;
    * the discriminant is zero when any cluster merges.

    Each row depends on its own eigenvalues alone, so a stack of k gives
    the bits of k separate calls.  The discriminant agrees with
    :func:`spectral_report` to about 1e-12 relative.
    """
    tol = matcore._rank_tol(tol)
    n = values.shape[1]
    labels, tol_abs = matcore._cluster_labels(values)
    same = labels[:, :, None] == labels[:, None, :]
    alg = np.sum(same, axis=2)
    reps = np.sum(np.where(same, values[:, None, :], 0.0), axis=2) / alg
    dist = np.abs(values[:, None, :] - reps[:, :, None])
    cut = np.maximum(tol * np.max(dist, axis=2), tol_abs[:, None])
    geo = np.clip(np.sum(dist <= cut[:, :, None], axis=2), 1, alg)
    mu = labels[:, -1] + 1
    disc = np.where(mu == n, _discriminant(values), 0.0)
    return _FamilySpectra(labels, reps, alg, geo, np.max(geo, axis=1), mu, disc, tol)


def _family_report(values, tol: float | None) -> SpectralReport:
    """:class:`SpectralReport` of one family generator from its ascending
    eigenvalues, shape (1, N): the row of :func:`_family_spectra`, so it
    equals any scan row of the same point bit for bit."""
    s = _family_spectra(values, tol)
    first = np.flatnonzero(np.diff(s.labels[0], prepend=-1))
    spectrum = matcore.Spectrum(
        eigenvalues=values[0].astype(complex),
        clusters=tuple(
            (complex(s.reps[0, a]), int(s.alg[0, a]), int(s.geo[0, a])) for a in first
        ),
        tolerance=s.tolerance,
        min_poly_degree=int(s.mu[0]),
    )
    return SpectralReport(
        spectrum=spectrum,
        eta=int(s.eta[0]),
        mu=int(s.mu[0]),
        discriminant=complex(s.discriminant[0]),
        tolerance=s.tolerance,
    )


def optimality_report(gen, tol: float | None = None) -> OptimalityReport:
    """Evaluate all optimality certificates and report disagreements."""
    return _optimality(spectral_report(gen, tol=tol))


def _optimality(report: SpectralReport) -> OptimalityReport:
    """The optimality certificates of an already computed spectral report."""
    dim = report.dim
    disc_nonzero = all(alg == 1 for _, alg, _ in report.spectrum.clusters)  # no merged cluster
    optimal = report.eta == 1

    notes = []
    if optimal != disc_nonzero:
        notes.append(
            f"eta = {report.eta} and discriminant {report.discriminant} disagree; "
            "for a diagonalizable generator they must coincide"
        )
    if optimal and report.mu != dim:
        notes.append(
            f"measured mu = {report.mu} differs from the nonderogatory value n^2 = {dim}"
        )
    if optimal and report.mu == dim:
        notes.append(
            f"measured mu = {report.mu} equals n^2 = {dim}, not the alternative "
            f"reference value n^2 - 1 = {dim - 1}; the n^2 - 1 identity is "
            "inconsistent with a nonderogatory generator"
        )
    criteria_agree = optimal == disc_nonzero and (not optimal or report.mu == dim)

    return OptimalityReport(
        eta=report.eta,
        mu=report.mu,
        mu_nonderogatory=dim,
        mu_alternative_claim=dim - 1,
        discriminant=report.discriminant,
        discriminant_nonzero=disc_nonzero,
        optimal=optimal,
        criteria_agree=criteria_agree,
        notes=tuple(notes),
    )


def span_report(gen, observables, tol: float | None = None) -> SpanReport:
    """Do {I, Q_1, ...} and their orbits under L* span the operator space?

    ``gen`` must be Hermitian (both family generators are), so one
    :func:`~strobetomo.matcore.eigh`, L = V diag(lambda) V^dagger, gives
    the Krylov matrix of Q as V diag(c) Vandermonde(lambda) with
    eigen-coordinates c = V^dagger vec Q.  The observables therefore span
    exactly when, on every eigenvalue cluster, the eigen-coordinates of the
    norm-scaled {vec I, vec Q_1, ...} have full rank at ``tol``.
    """
    return _span_report(matcore.eigh(gen), observables, tol)


def _span_report(eigensystem, observables, tol: float | None) -> SpanReport:
    """:func:`span_report` on an eigensystem from ``matcore.eigh``."""
    tol = matcore._rank_tol(tol)
    values, vectors = eigensystem
    n2 = values.size
    n = int(round(np.sqrt(n2)))
    cols = [vec(np.eye(n))]
    for q in observables:
        q = q.matrix if isinstance(q, ObservableSpec) else np.asarray(q, dtype=complex)
        if q.shape != (n, n):
            raise ValueError(f"observable shape {q.shape} does not match generator dim {n}")
        cols.append(vec(q))
    cols = np.column_stack(cols)
    norms = np.linalg.norm(cols, axis=0)
    coords = vectors.conj().T @ (cols / np.where(norms > 0, norms, 1.0))

    rank, margin = 0, np.inf
    row_norms = np.linalg.norm(coords, axis=1)  # a one-row block's singular value
    labels = matcore._cluster_labels(values)[0]
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
    spec = q if isinstance(q, ObservableSpec) else ObservableSpec.from_matrix(q)
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
        if _span_report(eigensystem, [q], tol).satisfied:
            return ObservableSpec.from_matrix(q)
    raise ValueError(
        f"no admissible observable found in {tries} tries; the generator is "
        "likely non-optimal (eta > 1), where no single observable can span "
        "the operator space"
    )


def _signed_margin(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform magnitude in [lo, hi] with a random sign."""
    return float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))
