"""Test generators in the GKSL form: sums of dissipators, and the Hamiltonian
term that makes a generator non-Hermitian."""

import numpy as np

from strobetomo.channels import _dissipator


def dissipator_sum(jumps, rates) -> np.ndarray:
    """sum_i rates[i] D(jumps[i]), the vectorized GKSL generator of the jump
    operators at their rates.  Hermitian jumps give a Hermitian generator."""
    n = np.shape(jumps[0])[0]
    gen = np.zeros((n * n, n * n), dtype=complex)
    for v, rate in zip(jumps, rates, strict=True):
        gen += rate * _dissipator(np.asarray(v, dtype=complex))
    return gen


def hamiltonian_term(h) -> np.ndarray:
    """-i (I (x) H - H^T (x) I), the vectorized -i[H, rho] of a Hermitian H
    under ``vec(XYZ) = (Z^T (x) X) vec(Y)``: anti-Hermitian for H != 0."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))
