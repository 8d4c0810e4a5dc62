"""Closed-form facts about the two channel families, computed without the program.

The scan checks compare every CSV row with these: the domain inequalities
give ``cptp_domain``; the closed-form spectrum gives ``nondegenerate``,
eta, mu and the discriminant.  Both generators are real symmetric, so
geometric and algebraic multiplicities coincide: eta is the largest cluster
of equal eigenvalues and mu the number of clusters.  Clusters chain sorted
eigenvalues closer than ``CLUSTER_RTOL`` times the spectral diameter.
"""

from __future__ import annotations

import numpy as np

CLUSTER_RTOL = 1e-8


def qubit_domain(a: np.ndarray) -> np.ndarray:
    """CPTP domain of the qubit family for rows (a1, a2, a3)."""
    return np.all(a >= 0, axis=1) & (a.sum(axis=1) <= 1)


def qubit_spectrum(a: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Eigenvalues {0, -2(a1+a2), -2(a1+a3), -2(a2+a3)} x gamma, one row per point."""
    a1, a2, a3 = a.T
    zero = np.zeros_like(a1)
    return gamma * np.stack([zero, -2 * (a1 + a2), -2 * (a1 + a3), -2 * (a2 + a3)], axis=1)


def qutrit_dependent(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The derived coefficients a7 = a4+a5-a6 and a8 = a1+a2+a3-a4-a5."""
    a1, a2, a3, a4, a5, a6 = a.T
    return a4 + a5 - a6, a1 + a2 + a3 - a4 - a5


def qutrit_domain(a: np.ndarray) -> np.ndarray:
    """CPTP domain of the qutrit family for rows (a1..a6)."""
    a7, a8 = qutrit_dependent(a)
    a1, a2, a3, a4, a5, _ = a.T
    f = (2.0 / 3.0) * (2 * (a1 + a2 + a3) + a4 + a5)
    return np.all(a >= 0, axis=1) & (a7 >= 0) & (a8 >= 0) & (f <= 1)


def qutrit_spectrum(a: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """The nine eigenvalues of the qutrit generator, one row per point."""
    a1, a2, a3, a4, a5, a6 = a.T
    s3 = a1 + a2 + a3
    sig = a4 + a5
    zero = np.zeros_like(a1)
    return gamma * np.stack(
        [
            zero,
            -2 * (a1 + a2) - sig,
            -2 * (a1 + a3) - sig,
            -2 * (a2 + a3) - sig,
            -2 * s3 + a4 - a5,
            -2 * s3 - a4 + a5,
            -3 * sig,
            -2 * s3 + sig - 2 * a6,
            -2 * s3 - sig + 2 * a6,
        ],
        axis=1,
    )


def clusters(values: np.ndarray) -> tuple[list[float], list[int]]:
    """Representatives (first member) and sizes of the clusters of one real spectrum."""
    v = np.sort(np.asarray(values, dtype=float))
    tol = CLUSTER_RTOL * (v[-1] - v[0])
    reps, sizes = [v[0]], [1]
    for prev, cur in zip(v, v[1:]):
        if cur - prev <= tol:
            sizes[-1] += 1
        else:
            reps.append(cur)
            sizes.append(1)
    return reps, sizes


def eta_mu_disc(values: np.ndarray) -> tuple[int, int, float]:
    """(eta, mu, discriminant) of one real symmetric generator's spectrum.

    The discriminant is prod_{i<j} (lambda_i - lambda_j)^2: exactly 0 when a
    cluster holds more than one eigenvalue.
    """
    _, sizes = clusters(values)
    if max(sizes) > 1:
        return max(sizes), len(sizes), 0.0
    v = np.asarray(values, dtype=float)
    iu = np.triu_indices(v.size, 1)
    return 1, len(sizes), float(np.prod((v[:, None] - v[None, :])[iu] ** 2))


#: Relative rank tolerance of the program's minimal-polynomial test.
RANK_TOL = 1e-9


def top_power_residual(values: np.ndarray) -> float:
    """Share of L^(mu-1) outside the span of I, L, ..., L^(mu-2), for a real
    symmetric L with this spectrum and mu distinct eigenvalues.

    L's spectral projectors P_c are orthogonal under the Hilbert-Schmidt
    product with norm sqrt(multiplicity), so in their basis the power L^m is
    the vector of sqrt(m_c) lambda_c^m, and the share is the last diagonal
    entry of that weighted Vandermonde matrix's QR factor over the norm of
    its last column.
    """
    reps, sizes = clusters(values)
    vander = np.sqrt(sizes)[:, None] * np.asarray(reps)[:, None] ** np.arange(len(reps))[None, :]
    r = np.linalg.qr(vander, mode="r")
    return float(abs(r[-1, -1]) / np.linalg.norm(vander[:, -1]))


def fault_e(values: np.ndarray) -> bool:
    """True where the program reports mu one below the number of distinct
    eigenvalues (fault E).

    ``analysis._min_poly_degree`` declares L^(mu-1) dependent on the lower
    powers once the share above falls below its rank tolerance, although a
    diagonalizable L with mu distinct eigenvalues has minimal-polynomial
    degree mu.
    """
    return top_power_residual(values) < RANK_TOL
