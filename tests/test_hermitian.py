"""The one Hermitian test: a matrix is Hermitian when it is so to 1e-12 of its
largest entry, whatever its scale, in every function that checks."""

import numpy as np
import pytest

from strobetomo import analysis, matcore, reconstruct
from strobetomo.analysis import ObservableSpec, span_report, spectral_report
from strobetomo.channels import TwoLevelParams, generator_two_level
from gksl import dissipator_sum

#: A Jordan block at the scale of rounding: not Hermitian at its own scale.
JORDAN = 1e-13 * np.array([[-1.0, 1.0], [0.0, -1.0]])


def tiny_non_hermitian():
    """A trace-preserving 4x4 generator with one non-Hermitian entry, at
    1e-13 scale: vec(I)^T L = 0, so only the Hermitian test can refuse it."""
    m = generator_two_level(TwoLevelParams(0.1, 0.2, 0.3))
    m[1, 2] += 1.0
    return 1e-13 * m


TINY_NON_HERMITIAN = tiny_non_hermitian()
RHO_2 = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
Q_2 = np.array([[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
GRID = reconstruct.TimeGrid(instants=(1.0, 2.0, 3.0), horizon=3.0)
SCALES = [1.0, 1e100, 1e-100]


def lindblad_generator(rate):
    """A GKSL generator with one seeded Hermitian jump: Hermitian up to the
    rounding of its Kronecker products, at any rate."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return dissipator_sum((x + x.conj().T,), (rate,))


class TestJordanBlockAtRoundingScale:
    def test_eigh_refuses(self):
        with pytest.raises(ValueError, match="Hermitian"):
            matcore.eigh(JORDAN)

    @pytest.mark.parametrize("stage", [
        lambda: span_report(TINY_NON_HERMITIAN, [Q_2]),
        lambda: reconstruct.plan(TINY_NON_HERMITIAN, Q_2, GRID),
        lambda: reconstruct.default_time_grid(TINY_NON_HERMITIAN, 3),
        lambda: reconstruct.simulate_records(TINY_NON_HERMITIAN, Q_2, RHO_2, GRID, "exact"),
        lambda: reconstruct.evolve(TINY_NON_HERMITIAN, RHO_2, 1.0),
    ], ids=["span_report", "plan", "default_time_grid", "simulate_records", "evolve"])
    def test_hermitian_stages_refuse(self, stage):
        with pytest.raises(ValueError, match="Hermitian"):
            stage()


class TestLargeRateLindbladGenerator:
    def test_eigh_accepts_and_agrees_with_spectral_report(self):
        gen = lindblad_generator(1e100)
        assert np.abs(gen - gen.conj().T).max() > 1e-12  # absolute asymmetry, 1e83
        values = matcore.eigh(gen)[0]
        kernel = analysis._family_spectra(values[None])
        report = spectral_report(gen)
        assert (int(kernel.eta[0]), int(kernel.mu[0])) == (report.eta, report.mu)
        unit = spectral_report(lindblad_generator(1.0))
        assert (report.eta, report.mu) == (unit.eta, unit.mu)


class TestObservable:
    def test_refuses_non_hermitian_at_rounding_scale(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ObservableSpec.from_matrix(1e-13 * np.array([[1.0, 1.0], [0.0, -1.0]]))


class TestScaleInvariance:
    """A matrix and its 1e+-100 multiples pass or fail the test together."""

    def test_hermitian_matrices_are_accepted_at_every_scale(self):
        unit = spectral_report(lindblad_generator(1.0))
        for scale in SCALES:
            gen = scale * lindblad_generator(1.0)
            matcore.eigh(gen)
            report = spectral_report(gen)
            assert (report.eta, report.mu) == (unit.eta, unit.mu)
            near = scale * (Q_2 + [[0.0, 1e-14], [0.0, 0.0]])  # Hermitian to 1e-14 of its scale
            ObservableSpec.from_matrix(near)

    def test_non_hermitian_matrices_are_refused_at_every_scale(self):
        for scale in SCALES:
            m = scale * np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]])
            with pytest.raises(ValueError, match="Hermitian"):
                matcore.eigh(m)
            with pytest.raises(ValueError, match="Hermitian"):
                spectral_report(m)
            with pytest.raises(ValueError, match="Hermitian"):
                ObservableSpec.from_matrix(m)
