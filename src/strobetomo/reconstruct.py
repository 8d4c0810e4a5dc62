"""End-to-end stroboscopic reconstruction.

The pipeline recovers an unknown initial state rho(0) from expectation
values of a *single* observable Q measured at p = n^2 - 1 time instants,
given the evolution generator L.  In the Heisenberg picture each record is

    m(t_j) = Tr(Q rho(t_j)) = <exp(L* t_j)[Q], rho(0)>,

so writing both operators in a fixed real-orthonormal basis {B_u} of
Hermitian n x n matrices (B_0 = I/sqrt(n)) turns the campaign into one
linear system F c = m, with F[j, u] = <B_u, exp(L* t_j)[Q]> and c the
coordinates of rho(0).  The trace constraint fixes c_0 = 1/sqrt(n); the
remaining n^2 - 1 unknowns are solved from the p x p reduced system
F[:, 1:].  It can be invertible only when Q passes the Krylov span check;
its condition number measures the measurement design (observable and
instants) and is gated at 1e8.

Time grids, evolution and planning take a Hermitian, trace-preserving
generator (both family generators are) or its ``matcore.Eigensystem``, and
read everything off ``matcore.eigh`` of it, which returns an Eigensystem
unchanged: a caller that decomposes once (``cli reconstruct``) pays for one.
That gives eta (``analysis._family_spectra``) and, through the one evolution
rule ``matcore._semigroup``, the states, records and forward rows at all
instants (finite, >= 0) at once.

Measurement simulation follows the Born rule on Q's eigenbasis with a
multinomial shot model; per-instant substreams are spawned from one seed,
so records are reproducible regardless of evaluation order.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import analysis, matcore
from .matcore import ConditioningError, NotReconstructible, vec, unvec

__all__ = [
    "TimeGrid",
    "MeasurementRecord",
    "ReconstructionPlan",
    "ReconstructionResult",
    "default_time_grid",
    "evolve",
    "expectation",
    "measure",
    "simulate_records",
    "plan",
    "execute",
    "reconstruct_trajectory",
    "records_to_csv",
    "records_from_csv",
]

#: Plans whose reduced matrix has a condition number at this bound are
#: rejected: linear inversion past it cannot be trusted in double precision.
CONDITION_LIMIT = 1e8


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing measurement instants 0 < t_1 < ... < t_p <= T."""

    instants: tuple[float, ...]
    horizon: float

    def __post_init__(self):
        ts = tuple(float(t) for t in self.instants)
        if not ts:
            raise ValueError("time grid must contain at least one instant")
        if not np.isfinite(ts + (self.horizon,)).all():
            raise ValueError("instants and horizon must be finite")
        if ts[0] <= 0:
            raise ValueError(f"instants must be positive, got t_1 = {ts[0]}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("instants must be strictly increasing")
        if self.horizon < ts[-1]:
            raise ValueError("horizon must cover the last instant")
        object.__setattr__(self, "instants", ts)

    @property
    def p(self) -> int:
        return len(self.instants)


def default_time_grid(gen, p: int) -> TimeGrid:
    """Equispaced grid t_j = j T / p with horizon T = 1 / |lambda|_max.

    The horizon is one e-folding of the fastest decay mode, which keeps all
    e^{lambda_j t} factors well away from underflow while still sampling
    distinct decay phases.  Conditioning is *checked* downstream (in
    :func:`plan`), never assumed from the grid.  A generator with eta != 1
    raises :class:`~strobetomo.matcore.NotReconstructible`.
    """
    if p < 1:
        raise ValueError(f"grid needs at least one instant, got p = {p}")
    values = matcore.eigh(gen).values
    _require_optimal(values, "default grid requires an optimal generator (eta = 1)")
    lam_max = float(np.max(np.abs(values)))
    if lam_max <= 0:
        raise ValueError("zero spectrum: no decay scale to set a horizon")
    horizon = 1.0 / lam_max
    # The last instant is the horizon itself: p * T / p can round above T.
    instants = tuple((j + 1) * horizon / p for j in range(p - 1)) + (horizon,)
    return TimeGrid(instants=instants, horizon=horizon)


def _require_optimal(values, requirement: str) -> None:
    """The one eta gate: NotReconstructible "<requirement>, got eta = k" unless eta = 1."""
    eta = analysis._family_spectra(values[None]).eta[0]
    if eta != 1:
        raise NotReconstructible(f"{requirement}, got eta = {eta}")


# ---------------------------------------------------------------------------
# evolution, expectation, measurement
# ---------------------------------------------------------------------------


def evolve(gen, rho0, t: float) -> np.ndarray:
    """rho(t) = unvec(exp(L t) vec rho0) for a Hermitian generator and finite t >= 0."""
    return _trajectory(matcore.eigh(gen), rho0, [t])[0]


def _trajectory(eigensystem, rho0, times) -> list[np.ndarray]:
    """rho(t) for every t in ``times``, by ``matcore._semigroup`` on the
    generator's ``matcore.eigh``."""
    rho0 = matcore.as_matrix(rho0)
    n = rho0.shape[0]
    return [unvec(v, n, n) for v in matcore._semigroup(eigensystem, vec(rho0), times)]


def expectation(q, rho) -> float:
    """Tr(Q rho) for Hermitian Q; the imaginary part (rounding only) is
    checked and discarded."""
    q = np.asarray(q, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    val = complex(np.trace(q @ rho))
    scale = max(abs(val), 1.0)
    if abs(val.imag) > 1e-10 * scale:
        raise ValueError(f"expectation value has a non-negligible imaginary part: {val}")
    return float(val.real)


def measure(q, rho, shots, seed=None, t: float = 0.0) -> "MeasurementRecord":
    """One measurement record, exact or shot-noisy.

    ``shots="exact"`` returns Tr(Q rho).  A shot count, a whole number from
    1 to 2**63 - 1 (a bool or 2.7 is refused, not truncated), draws that
    many outcomes from Q's eigenvalues with Born probabilities
    <q_k|rho|q_k> (multinomially, seeded) and returns the sample mean.
    ``t`` only labels the record; the state passed in is already rho(t).
    Q, an :class:`~strobetomo.analysis.ObservableSpec` or a matrix, must be
    Hermitian to 1e-12 of its largest entry, in both modes.
    """
    q = analysis._observable(q).matrix
    rho = matcore.as_matrix(rho)
    if shots == "exact":
        return MeasurementRecord(t=t, value=expectation(q, rho), shots="exact")
    shots = _shot_count(shots)
    if not 1 <= shots < 2**63:  # the sampler's counts are 64-bit
        raise ValueError(f"shot count must be between 1 and 2**63 - 1, got {shots}")
    evals, evecs = matcore.eigh(q)
    probs = np.real(np.einsum("ij,jk,ki->i", evecs.conj().T, rho, evecs))
    if np.min(probs) < -1e-8:
        raise ValueError(
            f"invalid density matrix: Born probability {np.min(probs):.3e} < -1e-8"
        )
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("invalid density matrix: zero total probability")
    probs /= total
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    value = float(np.dot(counts, evals) / shots)
    return MeasurementRecord(t=t, value=value, shots=shots)


@dataclass(frozen=True)
class MeasurementRecord:
    """(time instant, measured expectation value, shot count or "exact")."""

    t: float
    value: float
    shots: int | str

    def __post_init__(self):
        if not (np.isfinite(self.t) and np.isfinite(self.value)):
            raise ValueError(f"record time and value must be finite, got {self.t}, {self.value}")
        if self.shots != "exact":
            shots = _shot_count(self.shots)
            if shots < 1:
                raise ValueError(f"shot count must be >= 1, got {shots}")
            object.__setattr__(self, "shots", shots)


def _shot_count(shots) -> int:
    """``shots`` as an int; a bool, or a number that is not whole, is refused
    rather than truncated."""
    whole = -np.inf < shots < np.inf and int(shots) == shots  # nan fails both bounds
    if isinstance(shots, (bool, np.bool_)) or not whole:
        raise ValueError(f"shot count must be a whole number, got {shots!r}")
    return int(shots)


def simulate_records(gen, q, rho0, grid: TimeGrid, shots, seed=None) -> list[MeasurementRecord]:
    """Simulate the full measurement campaign over a time grid.

    Each instant gets its own substream spawned from ``seed`` (fresh
    identically-prepared ensembles per instant), so the record list is
    deterministic for a fixed seed independent of evaluation order.  Q is
    checked once, as :func:`measure` checks it.
    """
    obs = analysis._observable(q)
    if shots == "exact":
        child_seeds = [None] * grid.p
    else:
        child_seeds = np.random.SeedSequence(seed).spawn(grid.p)
    states = _trajectory(matcore.eigh(gen), rho0, grid.instants)
    return [
        measure(obs, rho_t, shots, seed=sub, t=t)
        for t, rho_t, sub in zip(grid.instants, states, child_seeds)
    ]


# ---------------------------------------------------------------------------
# planning and execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionPlan:
    """Everything needed to invert a measurement campaign.

    ``forward_matrix`` is the p x n^2 matrix whose row j holds the
    coordinates of exp(L* t_j)[Q] in the fixed Hermitian basis (column 0
    is the I/sqrt(n) coordinate, Tr Q / sqrt(n) in every row); the plan
    holds its p x p block ``reduced_matrix``, which acts on the unknown
    coordinates, and puts the known trace column back in front on demand.
    """

    observable: analysis.ObservableSpec
    grid: TimeGrid
    reduced_matrix: np.ndarray
    condition_reduced: float

    @property
    def forward_matrix(self) -> np.ndarray:
        trace = np.trace(self.observable.matrix).real / np.sqrt(self.dim)
        return np.hstack([np.full((self.p, 1), trace), self.reduced_matrix])

    @property
    def dim(self) -> int:
        return self.observable.dim

    @property
    def p(self) -> int:
        return self.grid.p


def plan(gen, q, grid: TimeGrid, tol: float | None = None) -> ReconstructionPlan:
    """Build and validate a reconstruction plan.

    Requirements checked here, on the generator's eigensystem alone: the
    generator is Hermitian and trace-preserving (|lambda_k <v_k, vec I>| <=
    1e-12 max|lambda|) and the grid has exactly p = n^2 - 1 distinct instants
    (else ValueError); the generator is optimal (eta = 1) and the
    observable passes the Krylov span check (else
    :class:`~strobetomo.matcore.NotReconstructible`); the reduced system is
    conditioned below 1e8 (else :class:`~strobetomo.matcore.ConditioningError`).
    """
    obs = analysis._observable(q)
    n = obs.dim
    n2 = n * n
    values, vectors = eigensystem = matcore.eigh(gen)
    if values.size != n2:
        raise ValueError(f"generator shape {vectors.shape} does not match observable dim {n}")
    if np.abs(values * (vec(np.eye(n)) @ vectors)).max() > 1e-12 * np.abs(values).max():
        raise ValueError("generator must be trace-preserving (L vec(I) = 0)")
    _require_optimal(values, "reconstruction from a single observable requires eta = 1")
    if grid.p != n2 - 1:
        raise ValueError(
            f"single-observable reconstruction needs p = n^2 - 1 = {n2 - 1} instants, "
            f"got {grid.p}"
        )
    if not analysis.span_report(eigensystem, [obs], tol).satisfied:
        raise NotReconstructible("observable fails the Krylov span check (inadmissible)")

    # Forward rows: L* = L, so row j is exp(L t_j)[Q] in the basis B_u.  A
    # trace-preserving Hermitian L has the stationary mode vec(I)/sqrt(n),
    # which feeds column 0 alone (Tr Q / sqrt(n)); the traceless columns
    # evolve the other modes only.
    decaying = np.arange(n2) != np.argmin(np.abs(values))
    modes = (values[decaying], vectors[:, decaying])
    rows = matcore._semigroup(modes, vec(obs.matrix), grid.instants)
    # <B_u, X> = Tr(B_u X) = ravel(B_u) . vec(X), B_u Hermitian, row-major ravel
    reduced = (rows @ matcore._hermitian_basis(n)[1:].reshape(n2 - 1, n2).T).real
    cond_reduced = float(np.linalg.cond(reduced))
    if cond_reduced >= CONDITION_LIMIT:
        raise ConditioningError(
            f"reduced coefficient matrix condition {cond_reduced:.3e} reaches the "
            f"{CONDITION_LIMIT:.0e} validity bound; the measurement design cannot be "
            "inverted reliably (try a different grid or observable)",
            condition=cond_reduced,
            matrix_name="reduced coefficient matrix",
        )
    return ReconstructionPlan(
        observable=obs, grid=grid, reduced_matrix=reduced, condition_reduced=cond_reduced
    )


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered initial state plus inversion diagnostics.

    ``estimate`` is Hermitian with unit trace by construction (symmetrized
    and trace-renormalized).  ``psd_estimate`` is the optional nearest
    unit-trace PSD matrix to it, present only when requested.
    """

    estimate: np.ndarray
    residual_norm: float
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    condition_reduced: float
    psd_estimate: np.ndarray | None = None


def execute(
    plan_: ReconstructionPlan, records, *, psd_project: bool = False
) -> ReconstructionResult:
    """Invert a measurement campaign against a plan.

    Records must align with the plan's grid (one record per instant).  The
    reduced system is solved for the unknown coordinates, the trace
    constraint supplies the known one, and the state is assembled from the
    fixed Hermitian basis.
    """
    records = list(records)
    grid = plan_.grid
    if len(records) != grid.p:
        raise ValueError(f"expected {grid.p} records, got {len(records)}")
    by_t = sorted(records, key=lambda r: r.t)
    for rec, t in zip(by_t, grid.instants):
        if abs(rec.t - t) > 1e-12 * max(1.0, abs(t)):
            raise ValueError(
                f"record at t = {rec.t} does not match any plan instant (expected {t})"
            )
    m = np.array([rec.value for rec in by_t], dtype=float)

    n = plan_.dim
    # Known coordinate of rho(0) on B_0 = I/sqrt(n), from Tr rho = 1.
    h0 = 1.0 / np.sqrt(n)
    trace = np.trace(plan_.observable.matrix).real / np.sqrt(n)  # forward_matrix[:, 0]
    rhs = m - trace * h0
    # The plan's gate bounds the condition number, so the system is solvable;
    # records too large for it overflow, and are refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        solution = np.linalg.solve(plan_.reduced_matrix, rhs)
        coords = np.concatenate([[h0], solution])
        raw = np.tensordot(coords, matcore._hermitian_basis(n), axes=1)

        residual = float(np.linalg.norm(plan_.reduced_matrix @ solution - rhs))
        herm_defect = float(np.max(np.abs(raw - raw.conj().T)))
        trace_defect = float(abs(np.trace(raw).real - 1.0))

        estimate = (raw + raw.conj().T) / 2.0
        estimate = estimate / np.trace(estimate).real
    if not np.all(np.isfinite(estimate)):
        raise ValueError("the records give a state estimate that is not finite")
    min_eig = float(np.min(np.linalg.eigvalsh(estimate)))

    psd = _psd_projection(estimate) if psd_project else None
    return ReconstructionResult(
        estimate=estimate,
        residual_norm=residual,
        hermiticity_defect=herm_defect,
        trace_defect=trace_defect,
        min_eigenvalue=min_eig,
        condition_reduced=plan_.condition_reduced,
        psd_estimate=psd,
    )


def _psd_projection(rho: np.ndarray) -> np.ndarray:
    """The unit-trace PSD matrix nearest the Hermitian ``rho`` in Frobenius
    norm (Smolin, Gambetta and Smith, PRL 108, 070502, 2012): the
    eigenvalues, projected onto the probability simplex, drop by one common
    shift, chosen for unit trace, and the negative ones are zeroed."""
    evals, evecs = np.linalg.eigh(rho)
    top = evals[::-1]  # descending; the largest always stays positive
    shifts = (np.cumsum(top) - 1.0) / np.arange(1, top.size + 1)
    kept = np.clip(evals - shifts[np.flatnonzero(top > shifts)[-1]], 0.0, None)
    return (evecs * kept) @ evecs.conj().T


def reconstruct_trajectory(gen, result: ReconstructionResult, times) -> list[np.ndarray]:
    """Propagate the recovered initial state along the known dynamics to instants t >= 0."""
    return _trajectory(matcore.eigh(gen), result.estimate, times)


# ---------------------------------------------------------------------------
# record CSV I/O
# ---------------------------------------------------------------------------

_CSV_HEADER = ["t", "value", "shots"]


def records_to_csv(records, path_or_file) -> None:
    """Write measurement records as CSV with columns ``t, value, shots``.

    Floats use the shortest round-trip decimal representation
    (``repr``-style), so re-reading reproduces the records exactly.
    """

    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for rec in records:
            writer.writerow([repr(float(rec.t)), repr(float(rec.value)), rec.shots])

    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_file)


def records_from_csv(path_or_file) -> list[MeasurementRecord]:
    """Read measurement records written by :func:`records_to_csv`."""

    def _read(fh):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _CSV_HEADER:
            raise ValueError(f"measurement CSV must start with header {','.join(_CSV_HEADER)}")
        out = []
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"malformed record row: {row!r}")
            t, value, shots = row
            shots_val: int | str = "exact" if shots.strip() == "exact" else int(shots)
            out.append(MeasurementRecord(t=float(t), value=float(value), shots=shots_val))
        if not out:
            raise ValueError("measurement CSV holds no records")
        return out

    try:
        if isinstance(path_or_file, (str, os.PathLike)):
            with open(path_or_file, newline="") as fh:
                return _read(fh)
        return _read(path_or_file)
    except csv.Error as exc:
        raise ValueError(f"malformed measurement CSV: {exc}") from exc
