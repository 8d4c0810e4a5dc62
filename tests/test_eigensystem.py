"""One eigendecomposition per generator: every stage that needs a Hermitian
generator takes the generator or its ``matcore.Eigensystem``, and gives the
same bits either way."""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strobetomo import analysis, matcore, reconstruct
from strobetomo.channels import (
    LindbladSpec,
    ThreeLevelParams,
    TwoLevelParams,
    generator_from_lindblad,
    generator_three_level,
    generator_two_level,
)

GEN_2 = generator_two_level(TwoLevelParams(0.1, 0.2, 0.3))
Q_2 = np.array([[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])

#: numpy.linalg decompositions a stage could run on the generator.
DECOMPOSITIONS = ("eig", "eigh", "eigvals", "eigvalsh", "svd", "qr", "cholesky")


@contextlib.contextmanager
def generator_decompositions(size):
    """Names of the ``numpy.linalg`` decompositions of a ``size`` x ``size``
    matrix made inside the block."""
    calls = []
    originals = {name: getattr(np.linalg, name) for name in DECOMPOSITIONS}

    def wrap(name):
        def counting(a, *args, **kwargs):
            if np.shape(a)[-2:] == (size, size):
                calls.append(name)
            return originals[name](a, *args, **kwargs)
        return counting

    try:
        for name in DECOMPOSITIONS:
            setattr(np.linalg, name, wrap(name))
        yield calls
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)


def bits(x):
    """A comparable image of a stage's result, exact to the last bit."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return ("float", x.hex())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(bits(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    return x


def outcome(stage):
    """The bits of ``stage()``, or the type and message of its refusal."""
    try:
        return bits(stage())
    except (ValueError, matcore.ConditioningError) as exc:
        return (type(exc).__name__, str(exc))


def random_generator(kind, rng):
    """A Hermitian generator: a point of either family, or a GKSL generator
    with no Hamiltonian and Hermitian jumps."""
    if kind == "two-level":
        a = rng.dirichlet(np.ones(4))[:3] * rng.uniform(0.1, 1.0)
        return generator_two_level(TwoLevelParams(*a, gamma=10 ** rng.uniform(-2, 2)))
    if kind == "three-level":
        a123 = rng.uniform(0.0, 0.16, 3)
        a4, a5 = rng.uniform(0.0, a123.sum() / 2, 2)
        a6 = rng.uniform(0.0, a4 + a5)
        return generator_three_level(ThreeLevelParams(*a123, a4, a5, a6, gamma=rng.uniform(0.5, 2)))
    n = 2 if kind == "lindblad-2" else 3
    jumps = []
    for _ in range(rng.integers(1, 4)):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        jumps.append(x + x.conj().T)
    rates = tuple(rng.uniform(0.1, 1.0, len(jumps)))
    return generator_from_lindblad(LindbladSpec(np.zeros((n, n)), tuple(jumps), rates))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(["two-level", "three-level", "lindblad-2", "lindblad-3"]),
       seed=st.integers(0, 2**32 - 1))
def test_every_stage_takes_the_eigensystem(kind, seed):
    """Each stage handed ``matcore.eigh(gen)`` gives the bits it gives when
    handed ``gen``, and decomposes no n^2 x n^2 matrix."""
    rng = np.random.default_rng(seed)
    gen = random_generator(kind, rng)
    size = gen.shape[0]
    n = int(round(np.sqrt(size)))
    system = matcore.eigh(gen)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q = analysis.ObservableSpec.from_matrix(x + x.conj().T)
    rho = x @ x.conj().T / np.trace(x @ x.conj().T).real
    instants = tuple(np.cumsum(rng.uniform(0.1, 1.0, size - 1)))
    grid = reconstruct.TimeGrid(instants=instants, horizon=instants[-1])
    estimate = reconstruct.ReconstructionResult(rho, 0.0, 0.0, 0.0, 0.0, 1.0)
    stages = {
        "span_report": lambda g: analysis.span_report(g, [q], 1e-9),
        "span_check": lambda g: analysis.span_check(g, q),
        "random_admissible_observable": lambda g: analysis.random_admissible_observable(g, seed),
        "default_time_grid": lambda g: reconstruct.default_time_grid(g, size - 1),
        "evolve": lambda g: reconstruct.evolve(g, rho, instants[0]),
        "simulate_records exact": lambda g: reconstruct.simulate_records(g, q, rho, grid, "exact"),
        "simulate_records shots": lambda g: reconstruct.simulate_records(
            g, q, rho, grid, 1000, seed=seed),
        "plan": lambda g: reconstruct.plan(g, q, grid),
        "reconstruct_trajectory": lambda g: reconstruct.reconstruct_trajectory(
            g, estimate, [0.0, *instants]),
    }
    for name, stage in stages.items():
        expected = outcome(lambda: stage(gen))
        with generator_decompositions(size) as calls:
            got = outcome(lambda: stage(system))
        assert got == expected, name
        assert calls == [], name


def test_eigh_returns_an_eigensystem_as_it_is():
    system = matcore.eigh(GEN_2)
    assert isinstance(system, matcore.Eigensystem)
    assert matcore.eigh(system) is system
    values, vectors = system
    assert values is system.values and vectors is system.vectors
    np.testing.assert_allclose((vectors * values) @ vectors.conj().T, GEN_2, atol=1e-14)


def perturbed_off_trace():
    """GEN_2 plus 1e-6 ||L|| on one diagonal entry: Hermitian, and
    L vec(I) = 1e-6 ||L|| e_0."""
    e = np.zeros((4, 4))
    e[0, 0] = 1.0
    return GEN_2 + 1e-6 * np.linalg.norm(GEN_2, 2) * e


@pytest.mark.parametrize("gen", [GEN_2 - 0.1 * np.eye(4), perturbed_off_trace()],
                         ids=["shifted", "perturbed"])
@pytest.mark.parametrize("form", ["matrix", "eigensystem"])
def test_plan_refuses_a_generator_that_is_not_trace_preserving(gen, form):
    grid = reconstruct.default_time_grid(GEN_2, 3)
    handed = gen if form == "matrix" else matcore.eigh(gen)
    with pytest.raises(ValueError, match="trace-preserving") as err:
        reconstruct.plan(handed, Q_2, grid)
    assert not isinstance(err.value, matcore.NotReconstructible)


def test_plan_reads_nothing_off_the_matrix():
    """Handed an eigensystem, the plan is the plan of the generator it
    came from: the size check reads the eigensystem too."""
    grid = reconstruct.default_time_grid(GEN_2, 3)
    system = matcore.eigh(GEN_2)
    assert bits(reconstruct.plan(system, Q_2, grid)) == bits(reconstruct.plan(GEN_2, Q_2, grid))
    with pytest.raises(ValueError, match=r"generator shape \(4, 4\) does not match observable dim 3"):
        reconstruct.plan(system, np.eye(3), grid)
