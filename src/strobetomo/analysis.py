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

For a nonderogatory n^2 x n^2 generator mu equals n^2.  A widely quoted
variant of this equivalence states mu = n^2 - 1 instead; that value is
incompatible with the nonderogatory characterization, so optimality
reports carry the measured mu together with both reference values and
flag the inconsistency instead of asserting either.

Observable admissibility: a Hermitian Q can reconstruct states under a
generator L exactly when {I, Q, L*[Q], ..., (L*)^{n^2-2}[Q]} spans the
operator space (L* is the Heisenberg-picture adjoint, numerically the
conjugate transpose of the generator matrix).  For qubits this reduces to
the closed-form test A != B, C != 0, D != 0 on Q = [[A, C+iD], [C-iD, B]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import vec

__all__ = [
    "SpectralReport",
    "ObservableSpec",
    "KrylovBasis",
    "OptimalityReport",
    "SpanReport",
    "spectral_report",
    "optimality_report",
    "krylov_span_check",
    "span_check",
    "krylov_basis",
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
class KrylovBasis:
    """The raw Krylov sequence {vec I, vec Q, L* vec Q, ..., (L*)^{n^2-2} vec Q}.

    ``admissible`` means the sequence spans the full operator space, i.e.
    its numerical rank equals n^2.
    """

    vectors: np.ndarray  # columns, n^2 of them
    rank: int
    condition: float

    @property
    def admissible(self) -> bool:
        return self.rank == self.vectors.shape[0]


@dataclass(frozen=True)
class SpanReport:
    """Result of a Krylov span test for one or more observables."""

    satisfied: bool
    rank: int
    required: int
    mu: int


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
    from one clustered eigendecomposition."""
    spectrum = matcore.eig(gen, tol=tol)

    disc = complex(1.0)
    reps = [c[0] for c in spectrum.clusters for _ in range(c[1])]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            disc *= (reps[i] - reps[j]) ** 2

    return SpectralReport(
        spectrum=spectrum,
        eta=spectrum.max_geometric_multiplicity,
        mu=spectrum.min_poly_degree,
        discriminant=disc,
        tolerance=spectrum.tolerance,
    )


def optimality_report(gen, tol: float | None = None) -> OptimalityReport:
    """Evaluate all optimality certificates and report disagreements."""
    report = spectral_report(gen, tol=tol)
    dim = report.dim
    disc_nonzero = _discriminant_nonzero(report)
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


def _discriminant_nonzero(report: SpectralReport) -> bool:
    """Discriminant-nonzero at tolerance = all clusters simple."""
    return all(alg == 1 for _, alg, _ in report.spectrum.clusters)


def _krylov_columns(gen: np.ndarray, q: np.ndarray, count: int) -> list[np.ndarray]:
    """[vec Q, L* vec Q, ..., (L*)^{count-1} vec Q]."""
    dual = gen.conj().T
    cols = []
    v = vec(q)
    for _ in range(count):
        cols.append(v)
        v = dual @ v
    return cols


def krylov_basis(gen, q, tol: float | None = None) -> KrylovBasis:
    """Raw admissibility sequence {vec I, vec Q, ..., (L*)^{n^2-2} vec Q}."""
    gen = np.asarray(gen, dtype=complex)
    q = np.asarray(q, dtype=complex)
    n = q.shape[0]
    cols = [vec(np.eye(n, dtype=complex))]
    cols += _krylov_columns(gen, q, n * n - 1)
    mat = np.column_stack(cols)
    rank = matcore.rank_with_tol(cols, tol=tol)
    return KrylovBasis(vectors=mat, rank=rank, condition=float(np.linalg.cond(mat)))


def span_check(gen, q, tol: float | None = None) -> bool:
    """True when the admissibility sequence spans the operator space."""
    basis = krylov_basis(gen, q, tol=tol)
    return basis.admissible


def krylov_span_check(gen, observables, tol: float | None = None) -> SpanReport:
    """Span test for a set of observables jointly.

    Stacks {vec I} with the Krylov chains of every observable truncated at
    the minimal-polynomial degree mu, and checks for full operator-space
    rank.  With eta > 1 a single observable can never pass, but several
    together may.
    """
    observables = list(observables)
    if not observables:
        raise ValueError("at least one observable is required")
    gen = np.asarray(gen, dtype=complex)
    report = spectral_report(gen, tol=tol)
    n2 = gen.shape[0]
    n = int(round(np.sqrt(n2)))
    cols = [vec(np.eye(n, dtype=complex))]
    for obs in observables:
        q = obs.matrix if isinstance(obs, ObservableSpec) else np.asarray(obs, dtype=complex)
        cols += _krylov_columns(gen, q, report.mu)
    rank = matcore.rank_with_tol(cols, tol=tol)
    return SpanReport(satisfied=rank == n2, rank=rank, required=n2, mu=report.mu)


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
    passes.  Raises ConditioningError-free ValueError when the cap is hit,
    which signals a non-optimal generator (eta > 1).
    """
    gen = np.asarray(gen, dtype=complex)
    n2 = gen.shape[0]
    n = int(round(np.sqrt(n2)))
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
        if span_check(gen, q, tol=tol):
            return ObservableSpec.from_matrix(q)
    raise ValueError(
        f"no admissible observable found in {tries} tries; either the "
        "generator is non-optimal (eta > 1), where no single observable can "
        "span the operator space, or its spectrum is so clustered that no "
        "span can be certified at the rank tolerance"
    )


def _signed_margin(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform magnitude in [lo, hi] with a random sign."""
    return float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))
