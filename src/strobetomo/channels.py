"""Parametric Kraus channel families and their GKSL generators.

Two concrete families are provided, plus a generic Lindblad route.  A
parameter record is its family: one function of the record does each job
for both models, under each model's name (``generator_two_level is
generator_three_level is generator_of``, and so for ``validate_*``):

* a three-parameter qubit family built on the Pauli matrices, with
  decoherence profile ``kappa(t) = exp(-gamma t)``:
  ``K0 = sqrt(1 - (a1+a2+a3)(1-kappa)) I``, ``Ki = sqrt(ai (1-kappa)) sigma_i``;
* a six-parameter qutrit family built on the Gell-Mann matrices, with two
  dependent coefficients ``a7 = a4+a5-a6`` and ``a8 = a1+a2+a3-a4-a5``
  forced by the channel (unitality + completeness) conditions.

Both family generators are linear in the parameters,
``L = gamma sum_k a_k D(B_k)``, where ``D(B_k)`` is the dissipator of the
k-th Pauli or Gell-Mann matrix.  The dissipators are built once at import,
with the same formula :func:`generator_from_lindblad` uses, and they are
real, so a generator is one fixed-order sum over them
(``_family_generator``).  Both generators are *real symmetric* matrices in
vectorized form, diagonal in the fixed Hermitian basis
``matcore._hermitian_basis``: L(a) = U^dagger diag(gamma M a) U, with M
(4 x 3 or 9 x 8) read off the dissipators' diagonals at import.
``_family_eigenvalues`` gives a whole array of points' sorted eigenvalues
from it, with no generator and no eigensolver, for ``scan`` and
``analyze``.  One array rule (``_family_domain``, which ``validate_*``
read their flags from) validates an array of points: ``nondegenerate``
means a simple closed-form spectrum, for every point, in or out of the
CPTP domain; on the domain that is pairwise distinctness of the
coefficients.  The paper's spectrum displays (``closed_form_spectrum_*``)
cross-check the closed form.

Operator bases are normalized to ``Tr(B_i B_j) = 2 delta_ij`` (standard
Pauli/Gell-Mann convention).  The dependent-coefficient identities above
close only under this normalization, which is why it is pinned here and
verified by the channel-completeness tests.

The vectorized generator of ``d rho/dt = -i[H, rho] + sum_i gamma_i
(V_i rho V_i^dag - (1/2){V_i^dag V_i, rho})`` is, in column-major vec
convention,

    L = -i (I (x) H - H^T (x) I)
        + sum_i gamma_i ( conj(V_i) (x) V_i
                          - 1/2 I (x) V_i^dag V_i
                          - 1/2 (V_i^T conj(V_i)) (x) I ).

The sign/ordering of the Hamiltonian term is forced by requiring
``vec(-i[H, rho]) = L_H vec(rho)`` under ``vec(XYZ) = (Z^T (x) X) vec(Y)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import matcore
from .matcore import vec, unvec

__all__ = [
    "TwoLevelParams",
    "ThreeLevelParams",
    "LindbladSpec",
    "ValidityReport",
    "pauli",
    "gellmann",
    "validate_two_level",
    "validate_three_level",
    "two_level_family",
    "three_level_family",
    "kraus_at",
    "apply_kraus",
    "generator_from_lindblad",
    "generator_two_level",
    "generator_three_level",
    "generator_of",
    "closed_form_spectrum_two_level",
    "closed_form_spectrum_three_level",
    "embed_one_param",
    "kraus_vs_semigroup_deviation",
]

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_SQ3 = np.sqrt(3.0)
_GELLMANN = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / _SQ3,
)


def pauli(i: int) -> np.ndarray:
    """Standard Pauli matrix, 1-indexed (``i`` in 1..3)."""
    if i not in (1, 2, 3):
        raise ValueError(f"pauli index must be 1..3, got {i}")
    return _PAULI[i - 1].copy()


def gellmann(i: int) -> np.ndarray:
    """Standard Gell-Mann matrix, 1-indexed (``i`` in 1..8)."""
    if not 1 <= i <= 8:
        raise ValueError(f"gellmann index must be 1..8, got {i}")
    return _GELLMANN[i - 1].copy()


# ---------------------------------------------------------------------------
# parameter records and validity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoLevelParams:
    """Qubit family parameters (a1, a2, a3) with decoherence rate gamma.

    Each parameter class holds its model's facts as class variables: the
    CLI name, the state dimension n, the free parameters (scan axes), and
    the coefficient names and messages that :func:`_validity` reports.
    """

    model: ClassVar[str] = "two-level"
    dim: ClassVar[int] = 2
    axes: ClassVar[tuple[str, ...]] = ("a1", "a2", "a3")
    coefficient_names: ClassVar[tuple[str, ...]] = axes
    bound_message: ClassVar[str] = "a1+a2+a3 = {} exceeds the channel bound 1"
    tie_message: ClassVar[str] = "coefficients {a1, a2, a3} are not pairwise distinct"

    a1: float
    a2: float
    a3: float
    gamma: float = 1.0

    def __post_init__(self):
        if not np.isfinite([self.a1, self.a2, self.a3, self.gamma]).all():
            raise ValueError("parameters must be finite")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)

    @property
    def completeness_factor(self) -> float:
        """a1+a2+a3; must satisfy <= 1."""
        return self.a1 + self.a2 + self.a3


@dataclass(frozen=True)
class ThreeLevelParams:
    """Qutrit family parameters (a1..a6) with the two dependent
    coefficients a7, a8 derived from the channel conditions."""

    model: ClassVar[str] = "three-level"
    dim: ClassVar[int] = 3
    axes: ClassVar[tuple[str, ...]] = ("a1", "a2", "a3", "a4", "a5", "a6")
    coefficient_names: ClassVar[tuple[str, ...]] = axes + ("a7 = a4+a5-a6", "a8 = a1+a2+a3-a4-a5")
    bound_message: ClassVar[str] = "completeness factor (2/3)(2a1+2a2+2a3+a4+a5) = {} exceeds 1"
    tie_message: ClassVar[str] = "coefficients {a1..a6, a7, a8} are not pairwise distinct"

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    gamma: float = 1.0

    def __post_init__(self):
        vals = [self.a1, self.a2, self.a3, self.a4, self.a5, self.a6, self.gamma]
        if not np.isfinite(vals).all():
            raise ValueError("parameters must be finite")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def a7(self) -> float:
        return self.a4 + self.a5 - self.a6

    @property
    def a8(self) -> float:
        return self.a1 + self.a2 + self.a3 - self.a4 - self.a5

    @property
    def coefficients(self) -> tuple[float, ...]:
        """All eight Kraus coefficients (a1..a6, a7, a8)."""
        return (self.a1, self.a2, self.a3, self.a4, self.a5, self.a6, self.a7, self.a8)

    @property
    def completeness_factor(self) -> float:
        """f = (2/3)(2a1+2a2+2a3+a4+a5); must satisfy f <= 1."""
        return (2.0 / 3.0) * (2 * (self.a1 + self.a2 + self.a3) + self.a4 + self.a5)


@dataclass(frozen=True)
class LindbladSpec:
    """Generic GKSL data: a Hamiltonian (Hermitian to 1e-12 of its largest
    entry), jump operators and nonnegative rates."""

    hamiltonian: np.ndarray
    jump_operators: tuple[np.ndarray, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        h = matcore.as_matrix(self.hamiltonian)
        if h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        if matcore._hermitian_part(h) is None:
            raise ValueError("Hamiltonian must be Hermitian to 1e-12 of its largest entry")
        jumps = tuple(matcore.as_matrix(v) for v in self.jump_operators)
        rates = tuple(float(r) for r in self.rates)
        if len(jumps) != len(rates):
            raise ValueError("one rate per jump operator required")
        for v in jumps:
            if v.shape != h.shape:
                raise ValueError("all operators must share the Hamiltonian's shape")
        for r in rates:
            if r < 0:
                raise ValueError(f"rates must be nonnegative, got {r}")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jump_operators", jumps)
        object.__setattr__(self, "rates", rates)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a parameter-domain check.

    ``cptp_domain``: nonnegativity and the completeness bound hold, so the
    Kraus set is a channel at every t >= 0.  ``nondegenerate``: the
    closed-form spectrum is simple, at any point (on the CPTP domain this
    is pairwise distinctness of the coefficients).  ``violations`` lists
    human-readable reasons for any failed flag.
    """

    cptp_domain: bool
    nondegenerate: bool
    violations: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.cptp_domain and self.nondegenerate


def _family_domain(points):
    """The domain rule of both families over a (k, d) array of points.

    ``d`` is 3 for the qubit family (a1, a2, a3) and 6 for the qutrit
    family (a1..a6).  Returns the (k, m) Kraus coefficients (the qutrit's
    a7 and a8 appended), the channel bound (a1+a2+a3, or the completeness
    factor f), and the ``cptp_domain`` and ``nondegenerate`` flags, each of
    shape (k,).  Every quantity is summed in the order the parameter
    records use, so a row's flags are those of the point on its own.

    ``nondegenerate`` is a simple closed-form spectrum: every gap of the
    sorted unit-rate eigenvalues ``_family_eigenvalues(coeffs, 1.0)``
    exceeds ``CLUSTER_TOL * 2 max|a|`` (scale 1 for a zero row), in or out
    of the domain.  Mode k's eigenvalue is 2(a_k - c), with c = a1+a2+a3
    for the qubit and 3f/4 for the qutrit, beside the stationary 0.  On the
    domain each |a_k - c| is at least one coefficient gap, so the flag is
    pairwise distinctness of the coefficients; off it, a mode can also
    meet 0.
    """
    a = np.asarray(points, dtype=float)
    # Sums near the float limit overflow off the domain; a nan gap is not simple.
    with np.errstate(over="ignore", invalid="ignore"):
        s3 = a[:, 0] + a[:, 1] + a[:, 2]
        if a.shape[1] == 3:
            coeffs, bound = a, s3
        else:
            a7 = a[:, 3] + a[:, 4] - a[:, 5]
            a8 = s3 - a[:, 3] - a[:, 4]
            coeffs = np.concatenate([a, a7[:, None], a8[:, None]], axis=1)
            bound = (2.0 / 3.0) * (2 * s3 + a[:, 3] + a[:, 4])
        cptp = ~((coeffs < 0).any(axis=1) | (bound > 1))
        scale = np.abs(coeffs).max(axis=1)
        gaps = np.diff(_family_eigenvalues(coeffs, 1.0), axis=1).min(axis=1)
        simple = gaps > 2.0 * matcore.CLUSTER_TOL * np.where(scale > 0, scale, 1.0)
    return coeffs, bound, cptp, simple


def _validity(p: TwoLevelParams | ThreeLevelParams) -> ValidityReport:
    """:class:`ValidityReport` of a parameter record of either model: the
    flags of :func:`_family_domain` at its point, and a message, worded by
    the record's class, for each broken condition.  CPTP requires every
    Kraus coefficient (the qutrit's a7 and a8 too) to be nonnegative and the
    channel bound (a1+a2+a3, or f = (2/3)(2a1+2a2+2a3+a4+a5)) to be at most
    1; on that domain ``nondegenerate`` is pairwise distinctness of the
    coefficients.  ``validate_two_level`` and ``validate_three_level`` are
    this function."""
    point = p.coefficients[: len(p.axes)]
    coeffs, bound, cptp, simple = (x[0] for x in _family_domain([point]))
    violations = [
        f"{name} = {val} violates nonnegativity"
        for name, val in zip(p.coefficient_names, coeffs.tolist())
        if val < 0
    ]
    if bound > 1:
        violations.append(p.bound_message.format(float(bound)))
    if not simple:  # the tie message states the rule on the domain
        violations.append(p.tie_message if cptp else "the closed-form spectrum is not simple")
    return ValidityReport(
        cptp_domain=bool(cptp), nondegenerate=bool(simple), violations=tuple(violations)
    )


validate_two_level = validate_three_level = _validity


def _on_domain(p):
    """``p`` when it lies on its model's CPTP domain, where a record is its
    Kraus family (``*_family``); ValueError listing the violations otherwise."""
    report = _validity(p)
    if not report.cptp_domain:
        raise ValueError("; ".join(report.violations))
    return p


two_level_family = three_level_family = _on_domain


# ---------------------------------------------------------------------------
# Kraus families
# ---------------------------------------------------------------------------


def kraus_at(p: TwoLevelParams | ThreeLevelParams, t: float) -> list[np.ndarray]:
    """Kraus operators of the family of record ``p`` at time ``t``.

    The decay profile is ``kappa(t) = exp(-gamma t)``; at t = 0 every
    non-identity operator vanishes and the channel is the identity map.
    ``t`` must be finite and >= 0, as the evolution rule's instants must;
    ``p`` must lie on its CPTP domain.
    """
    if not 0 <= t < np.inf:  # nan fails both
        raise ValueError(f"instants must be finite and >= 0, got {t}")
    p = _on_domain(p)
    decay = 1.0 - np.exp(-p.gamma * t)
    ops = [np.sqrt(1.0 - p.completeness_factor * decay) * np.eye(p.dim, dtype=complex)]
    basis = _PAULI if p.dim == 2 else _GELLMANN
    ops += [np.sqrt(a * decay) * b for a, b in zip(p.coefficients, basis)]
    return ops


def apply_kraus(p: TwoLevelParams | ThreeLevelParams, t: float, rho) -> np.ndarray:
    """Channel action ``sum_i K_i rho K_i^dag`` at time ``t``."""
    rho = matcore.as_matrix(rho)
    if rho.shape != (p.dim, p.dim):
        raise ValueError(f"state must be {p.dim}x{p.dim}, got {rho.shape}")
    ops = kraus_at(p, t)
    out = np.zeros_like(rho)
    for k in ops:
        out += k @ rho @ k.conj().T
    return out


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _dissipator(v: np.ndarray) -> np.ndarray:
    """Vectorized dissipator of one jump operator at unit rate."""
    eye = np.eye(v.shape[0], dtype=complex)
    return (
        np.kron(v.conj(), v)
        - 0.5 * np.kron(eye, v.conj().T @ v)
        - 0.5 * np.kron(v.T @ v.conj(), eye)
    )


#: D(sigma_k) for k = 1..3, shape (3, 4, 4), and D(lambda_k) for k = 1..8,
#: shape (8, 9, 9).  Each Pauli and Gell-Mann matrix is real or imaginary,
#: so every dissipator is real and the stacks keep the real part alone.
_PAULI_DISSIPATORS = np.array([_dissipator(s) for s in _PAULI]).real
_GELLMANN_DISSIPATORS = np.array([_dissipator(g) for g in _GELLMANN]).real


def _rate_matrix(stack: np.ndarray, n: int) -> np.ndarray:
    """M[u, k] = <U_u, D(B_k)[U_u]> over U = ``matcore._hermitian_basis(n)``,
    rounded to the nearest half: its entries are 0, -1/2, -3/2 and -2."""
    rows = matcore._hermitian_basis(n).transpose(0, 2, 1).reshape(n * n, n * n)  # vec(U_u)
    diagonal = np.einsum("ua,kab,ub->uk", rows.conj(), stack, rows).real
    return np.round(2.0 * diagonal) / 2.0


#: The (4, 3) and (9, 8) rate matrices of the qubit and qutrit families.
_PAULI_RATES = _rate_matrix(_PAULI_DISSIPATORS, 2)
_GELLMANN_RATES = _rate_matrix(_GELLMANN_DISSIPATORS, 3)

#: Largest |eigenvalue| of the unit-rate qubit (n = 2) and qutrit (n = 3)
#: generator on its CPTP domain.  Mode k of M a reads 2 (a_k - c) with
#: 0 <= a_k <= c, where 2 = -M.min(), and c = a1+a2+a3 <= 1 for the qubit or
#: c = 3f/4 <= 3/4 for the qutrit; the vertex a = c e_1 reaches the bound.
_UNIT_RATE_RADIUS = {2: -_PAULI_RATES.min() * 1.0, 3: -_GELLMANN_RATES.min() * 0.75}


def _gamma_limit(n: int) -> float:
    """Largest gamma at which every eigenvalue of an n-level family generator
    on the CPTP domain, and any sum of them (a cluster mean), is finite: the
    float limit over n^2 R, R = ``_UNIT_RATE_RADIUS[n]``, with 1e-12 to spare
    for the rounding of the closed-form sum.  Every term of gamma M a has the
    sign of the sum, so no partial sum exceeds the result."""
    return float(np.finfo(float).max / (n * n * _UNIT_RATE_RADIUS[n] * (1 + 1e-12)))


def generator_from_lindblad(spec: LindbladSpec) -> np.ndarray:
    """Vectorized GKSL generator for arbitrary (H, {V_i}, {gamma_i})."""
    n = spec.dim
    eye = np.eye(n, dtype=complex)
    h = spec.hamiltonian
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v, rate in zip(spec.jump_operators, spec.rates):
        gen = gen + rate * _dissipator(v)
    return gen


def _family_eigenvalues(coeffs, gamma: float) -> np.ndarray:
    """Ascending (k, n^2) generator eigenvalues of a (k, 3) or (k, 8) array
    of Kraus coefficients, read off the closed form gamma M a.  M's columns
    are added elementwise in a fixed order, not by a matrix product, so a
    row's bits do not depend on k."""
    rates = gamma * np.asarray(coeffs, dtype=float)
    m = _PAULI_RATES if rates.shape[1] == 3 else _GELLMANN_RATES
    values = rates[:, 0, None] * m[:, 0]
    for j in range(1, m.shape[1]):
        values += rates[:, j, None] * m[:, j]
    values.sort(axis=1)
    return values


def _family_generator(p: TwoLevelParams | ThreeLevelParams) -> np.ndarray:
    """Real generator gamma sum_k a_k D(B_k) of one parameter record, summed
    in the fixed order k = 1, 2, ...  Performs no domain check."""
    rates = [p.gamma * a for a in p.coefficients]
    stack = _PAULI_DISSIPATORS if len(rates) == 3 else _GELLMANN_DISSIPATORS
    gen = rates[0] * stack[0]
    for rate, dissipator in zip(rates[1:], stack[1:]):
        gen += rate * dissipator
    return gen


def generator_of(p: TwoLevelParams | ThreeLevelParams) -> np.ndarray:
    """Family generator gamma sum_k a_k D(B_k) of a parameter record, B_k
    the Pauli or Gell-Mann matrices; ValueError outside the CPTP domain.
    ``generator_two_level`` and ``generator_three_level`` are this function.

    For the qubit, D(s_k) = conj(s_k) (x) s_k - I4, so the generator is
    gamma (a1 s1 (x) s1 + a2 s2^T (x) s2 + a3 s3 (x) s3 - (a1+a2+a3) I4).
    The Gell-Mann dissipators come from the generic Lindblad formula, as
    transcribing the closed-form display (transposes land on lambda_2,
    lambda_5, lambda_7) is error-prone; that display is a test cross-check.
    """
    return _family_generator(_on_domain(p))


generator_two_level = generator_three_level = generator_of


def closed_form_spectrum_two_level(p: TwoLevelParams) -> np.ndarray:
    """The four exact eigenvalues: {0, -2(a1+a2), -2(a1+a3), -2(a2+a3)} x gamma."""
    g = p.gamma
    return np.array(
        [
            0.0,
            -2.0 * (p.a1 + p.a2) * g,
            -2.0 * (p.a1 + p.a3) * g,
            -2.0 * (p.a2 + p.a3) * g,
        ]
    )


def closed_form_spectrum_three_level(p: ThreeLevelParams) -> np.ndarray:
    """The nine exact eigenvalues of the qutrit generator, times gamma.

    In terms of s3 = a1+a2+a3 and the pair sums/differences of a4, a5:
    {0, -2(a1+a2)-(a4+a5), -2(a1+a3)-(a4+a5), -2(a2+a3)-(a4+a5),
     -2 s3 + a4 - a5, -2 s3 - a4 + a5, -3(a4+a5),
     -2 s3 + (a4+a5) - 2 a6, -2 s3 - (a4+a5) + 2 a6 } x gamma.
    """
    g = p.gamma
    s3 = p.a1 + p.a2 + p.a3
    sig = p.a4 + p.a5
    return np.array(
        [
            0.0,
            (-2.0 * (p.a1 + p.a2) - sig) * g,
            (-2.0 * (p.a1 + p.a3) - sig) * g,
            (-2.0 * (p.a2 + p.a3) - sig) * g,
            (-2.0 * s3 + p.a4 - p.a5) * g,
            (-2.0 * s3 - p.a4 + p.a5) * g,
            -3.0 * sig * g,
            (-2.0 * s3 + sig - 2.0 * p.a6) * g,
            (-2.0 * s3 - sig + 2.0 * p.a6) * g,
        ]
    )


def embed_one_param(a: float, gamma: float = 1.0) -> TwoLevelParams:
    """Embed the one-parameter qubit family as (a/3, (2-a)/3, 0).

    Only 0 < a < 2 keeps both square roots in the Kraus coefficients real.
    Note a = 1 is admitted by that interval yet gives a1 = a2, which
    degenerates the spectrum; validate_two_level reports it rather than
    this constructor rejecting it.
    """
    if not (0.0 < a < 2.0):
        raise ValueError(f"one-parameter family requires 0 < a < 2, got {a}")
    return TwoLevelParams(a / 3.0, (2.0 - a) / 3.0, 0.0, gamma)


def kraus_vs_semigroup_deviation(p: TwoLevelParams | ThreeLevelParams, t: float, rho) -> float:
    """Frobenius distance between the Kraus map and ``exp(L t)`` at ``t``.

    The parametric Kraus families are tangent to the semigroup at t = 0
    (they agree to first order only), so this deviation is O(t^2) for small
    t and generically positive for t > 0.  Both maps are channels, so it is
    at most 2 on a state.
    """
    via_kraus = apply_kraus(p, t, rho)
    semigroup = matcore._semigroup(matcore.eigh(generator_of(p)), vec(rho), [t])
    return float(np.linalg.norm(via_kraus - unvec(semigroup[0], p.dim, p.dim)))
