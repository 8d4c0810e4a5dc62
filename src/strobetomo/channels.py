"""Parametric Kraus channel families and their GKSL generators.

Two concrete families are provided, plus a generic Lindblad route:

* a three-parameter qubit family built on the Pauli matrices, with
  decoherence profile ``kappa(t) = exp(-gamma t)``:
  ``K0 = sqrt(1 - (a1+a2+a3)(1-kappa)) I``, ``Ki = sqrt(ai (1-kappa)) sigma_i``;
* a six-parameter qutrit family built on the Gell-Mann matrices, with two
  dependent coefficients ``a7 = a4+a5-a6`` and ``a8 = a1+a2+a3-a4-a5``
  forced by the channel (unitality + completeness) conditions.

Both family generators are linear in the parameters,
``L = gamma sum_k a_k D(B_k)``, where ``D(B_k)`` is the dissipator of the
k-th Pauli or Gell-Mann matrix.  The dissipators are built once at import,
with the same formula :func:`generator_from_lindblad` uses, so a family
generator is one contraction of the rates with a fixed stack.  Both
generators are *real symmetric* matrices in vectorized form, hence
diagonalizable with a real spectrum, and both spectra are available in
closed form.  The closed forms are exposed separately so that numerical
eigendecompositions can be cross-checked against exact arithmetic.

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

import numpy as np

from . import matcore
from .matcore import vec, unvec

__all__ = [
    "TwoLevelParams",
    "ThreeLevelParams",
    "LindbladSpec",
    "KrausFamily",
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

#: Pairwise distinctness below this relative gap counts as degenerate,
#: mirroring the eigenvalue clustering rule in :mod:`.matcore`.
_DISTINCT_RTOL = matcore.CLUSTER_TOL

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
    """Qubit family parameters (a1, a2, a3) with decoherence rate gamma."""

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


@dataclass(frozen=True)
class ThreeLevelParams:
    """Qutrit family parameters (a1..a6) with the two dependent
    coefficients a7, a8 derived from the channel conditions."""

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
    """Generic GKSL data: Hamiltonian, jump operators and nonnegative rates."""

    hamiltonian: np.ndarray
    jump_operators: tuple[np.ndarray, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        h = matcore.as_matrix(self.hamiltonian)
        if h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        if np.max(np.abs(h - h.conj().T)) > 1e-12:
            raise ValueError("Hamiltonian must be Hermitian to 1e-12")
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
    closed-form spectrum is simple (pairwise distinct quantities).
    ``violations`` lists human-readable reasons for any failed flag.
    """

    cptp_domain: bool
    nondegenerate: bool
    violations: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.cptp_domain and self.nondegenerate


def _pairwise_distinct(values, scale: float) -> bool:
    """Smallest pairwise gap above ``_DISTINCT_RTOL * scale``.  Rounded
    subtraction is monotone, so the smallest gap is between sorted
    neighbours."""
    v = sorted(map(float, values))
    return bool(min(b - a for a, b in zip(v, v[1:])) > _DISTINCT_RTOL * max(scale, 1e-300))


def validate_two_level(p: TwoLevelParams) -> ValidityReport:
    """Domain check for the qubit family.

    CPTP requires each ``a_i >= 0`` and ``a1+a2+a3 <= 1``; non-degeneracy
    of the generator spectrum is equivalent to pairwise distinctness of
    {a1, a2, a3}.
    """
    violations = []
    for name, val in (("a1", p.a1), ("a2", p.a2), ("a3", p.a3)):
        if val < 0:
            violations.append(f"{name} = {val} violates nonnegativity")
    s = p.a1 + p.a2 + p.a3
    if s > 1:
        violations.append(f"a1+a2+a3 = {s} exceeds the channel bound 1")
    cptp = not violations
    distinct = _pairwise_distinct(p.coefficients, scale=max(abs(v) for v in p.coefficients) or 1.0)
    if not distinct:
        violations.append("coefficients {a1, a2, a3} are not pairwise distinct")
    return ValidityReport(cptp_domain=cptp, nondegenerate=distinct, violations=tuple(violations))


def validate_three_level(p: ThreeLevelParams) -> ValidityReport:
    """Domain check for the qutrit family.

    CPTP requires a1..a8 >= 0 (a7, a8 being the derived coefficients) and
    the completeness factor f = (2/3)(2a1+2a2+2a3+a4+a5) <= 1.  The
    non-degeneracy flag is pairwise distinctness of all eight quantities
    {a1..a6, a7, a8}, which is equivalent to simplicity of the closed-form
    spectrum on the CPTP domain.
    """
    violations = []
    named = list(zip(("a1", "a2", "a3", "a4", "a5", "a6"), (p.a1, p.a2, p.a3, p.a4, p.a5, p.a6)))
    named.append(("a7 = a4+a5-a6", p.a7))
    named.append(("a8 = a1+a2+a3-a4-a5", p.a8))
    for name, val in named:
        if val < 0:
            violations.append(f"{name} = {val} violates nonnegativity")
    f = p.completeness_factor
    if f > 1:
        violations.append(f"completeness factor (2/3)(2a1+2a2+2a3+a4+a5) = {f} exceeds 1")
    cptp = not violations
    distinct = _pairwise_distinct(p.coefficients, scale=max(abs(v) for v in p.coefficients) or 1.0)
    if not distinct:
        violations.append("coefficients {a1..a6, a7, a8} are not pairwise distinct")
    return ValidityReport(cptp_domain=cptp, nondegenerate=distinct, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Kraus families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrausFamily:
    """A time-parametrized Kraus set tied to one of the supported models."""

    model: str  # "two-level" | "three-level"
    params: TwoLevelParams | ThreeLevelParams
    dim: int

    @property
    def gamma(self) -> float:
        return self.params.gamma


def two_level_family(p: TwoLevelParams) -> KrausFamily:
    report = validate_two_level(p)
    if not report.cptp_domain:
        raise ValueError("; ".join(report.violations) or "invalid two-level parameters")
    return KrausFamily(model="two-level", params=p, dim=2)


def three_level_family(p: ThreeLevelParams) -> KrausFamily:
    report = validate_three_level(p)
    if not report.cptp_domain:
        raise ValueError("; ".join(report.violations) or "invalid three-level parameters")
    return KrausFamily(model="three-level", params=p, dim=3)


def kraus_at(family: KrausFamily, t: float) -> list[np.ndarray]:
    """Kraus operators of the family at time ``t``.

    The decay profile is ``kappa(t) = exp(-gamma t)``; at t = 0 every
    non-identity operator vanishes and the channel is the identity map.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    p = family.params
    if family.model == "two-level":
        decay = 1.0 - np.exp(-p.gamma * t)
        s = p.a1 + p.a2 + p.a3
        ops = [np.sqrt(1.0 - s * decay) * np.eye(2, dtype=complex)]
        ops += [np.sqrt(a * decay) * pauli(i + 1) for i, a in enumerate(p.coefficients)]
        return ops
    if family.model == "three-level":
        decay = 1.0 - np.exp(-p.gamma * t)
        f = p.completeness_factor
        ops = [np.sqrt(1.0 - f * decay) * np.eye(3, dtype=complex)]
        ops += [np.sqrt(a * decay) * gellmann(i + 1) for i, a in enumerate(p.coefficients)]
        return ops
    raise ValueError(f"kraus_at is not defined for model {family.model!r}")


def apply_kraus(family: KrausFamily, t: float, rho) -> np.ndarray:
    """Channel action ``sum_i K_i rho K_i^dag`` at time ``t``."""
    rho = matcore.as_matrix(rho)
    if rho.shape != (family.dim, family.dim):
        raise ValueError(f"state must be {family.dim}x{family.dim}, got {rho.shape}")
    ops = kraus_at(family, t)
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
#: shape (8, 9, 9).
_PAULI_DISSIPATORS = np.array([_dissipator(s) for s in _PAULI])
_GELLMANN_DISSIPATORS = np.array([_dissipator(g) for g in _GELLMANN])


def generator_from_lindblad(spec: LindbladSpec) -> np.ndarray:
    """Vectorized GKSL generator for arbitrary (H, {V_i}, {gamma_i})."""
    n = spec.dim
    eye = np.eye(n, dtype=complex)
    h = spec.hamiltonian
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v, rate in zip(spec.jump_operators, spec.rates):
        gen = gen + rate * _dissipator(v)
    return gen


def _family_generator(p: TwoLevelParams | ThreeLevelParams) -> np.ndarray:
    """gamma sum_k a_k D(B_k) over the family's dissipator stack.

    Performs no domain check: for callers that have validated ``p``.
    """
    stack = _PAULI_DISSIPATORS if isinstance(p, TwoLevelParams) else _GELLMANN_DISSIPATORS
    return np.tensordot(p.gamma * np.array(p.coefficients), stack, axes=1)


def generator_two_level(p: TwoLevelParams) -> np.ndarray:
    """Qubit family generator gamma (a1 D(s1) + a2 D(s2) + a3 D(s3)).

    Here D(s_k) = conj(s_k) (x) s_k - I4, so the generator is
    gamma (a1 s1 (x) s1 + a2 s2^T (x) s2 + a3 s3 (x) s3 - (a1+a2+a3) I4).
    Raises ValueError outside the CPTP domain.
    """
    report = validate_two_level(p)
    if not report.cptp_domain:
        raise ValueError("; ".join(report.violations))
    return _family_generator(p)


def generator_three_level(p: ThreeLevelParams) -> np.ndarray:
    """Qutrit family generator gamma sum_k a_k D(lambda_k), k = 1..8.

    The dissipators of the Gell-Mann matrices come from the generic
    Lindblad formula, built once at import: transcribing the closed-form
    display (transposes land on lambda_2, lambda_5, lambda_7) is
    error-prone, so that display is demoted to a test cross-check.
    Raises ValueError outside the CPTP domain.
    """
    report = validate_three_level(p)
    if not report.cptp_domain:
        raise ValueError("; ".join(report.violations))
    return _family_generator(p)


def generator_of(family: KrausFamily) -> np.ndarray:
    """Generator matrix for any supported family."""
    if family.model == "two-level":
        return generator_two_level(family.params)
    if family.model == "three-level":
        return generator_three_level(family.params)
    raise ValueError(f"unknown model {family.model!r}")


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


def kraus_vs_semigroup_deviation(family: KrausFamily, t: float, rho) -> float:
    """Frobenius distance between the Kraus map and ``exp(L t)`` at ``t``.

    The parametric Kraus families are tangent to the semigroup at t = 0
    (they agree to first order only), so this deviation is O(t^2) for small
    t and generically positive for t > 0.
    """
    rho = matcore.as_matrix(rho)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    gen = generator_of(family)
    via_kraus = apply_kraus(family, t, rho)
    n = family.dim
    via_semigroup = unvec(matcore.propagate(matcore.eigh(gen), vec(rho), [t])[0], n, n)
    return float(np.linalg.norm(via_kraus - via_semigroup))
