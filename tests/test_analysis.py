import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strobetomo.analysis import (
    ObservableSpec,
    _family_report,
    _family_spectra,
    optimality_report,
    random_admissible_observable,
    span_check,
    span_report,
    spectral_report,
    two_level_admissible,
)
from strobetomo.channels import (
    LindbladSpec,
    ThreeLevelParams,
    TwoLevelParams,
    _GELLMANN_DISSIPATORS,
    _GELLMANN_RATES,
    _PAULI_DISSIPATORS,
    _PAULI_RATES,
    _family_eigenvalues,
    _family_generator,
    closed_form_spectrum_three_level,
    closed_form_spectrum_two_level,
    generator_from_lindblad,
    generator_three_level,
    generator_two_level,
    pauli,
    validate_three_level,
)
from strobetomo import matcore
from strobetomo.matcore import CLUSTER_TOL, _hermitian_basis, vec
from strobetomo.reconstruct import default_time_grid

GEN_2 = generator_two_level(TwoLevelParams(0.1, 0.2, 0.3, gamma=1.0))
GEN_3 = generator_three_level(ThreeLevelParams(0.1, 0.15, 0.2, 0.05, 0.08, 0.06, gamma=1.0))
GEN_2_DEGENERATE = generator_two_level(TwoLevelParams(0.2, 0.2, 0.3, gamma=1.0))
# a parameter set whose nine decay rates are well separated (GEN_3 above has
# five rates within 0.10 of each other)
GEN_3_SPREAD = generator_three_level(
    ThreeLevelParams(0.19095, 0.30485, 0.0, 0.282583, 0.139698, 0.403958, gamma=1.0)
)


def qubit_observable(a, b, c, d):
    return np.array([[a, c + 1j * d], [c - 1j * d, b]], dtype=complex)


def jordan(*blocks):
    """Block-diagonal matrix of Jordan blocks, each given as (value, size)."""
    dim = sum(size for _, size in blocks)
    m = np.zeros((dim, dim))
    i = 0
    for value, size in blocks:
        m[i:i + size, i:i + size] = value * np.eye(size) + np.eye(size, k=1)
        i += size
    return m


# The README's qutrit points, where a pivoted QR of the Krylov stack could
# certify no observable at all.
README_QUTRIT_POINTS = (
    (0.1, 0.15, 0.2, 0.05, 0.08, 0.06),
    (0.170290450317951, 0.09533539539483808, 0.1163587622682549,
     0.15588001075419705, 0.10034836517815557, 0.17918689441577598),
)


def krylov_rank(gen, q, tol=1e-9):
    """Reference admissibility rank: the SVD rank of the raw Krylov stack
    {vec I, vec Q, L* vec Q, ..., (L*)^{n^2-2} vec Q}."""
    n = q.shape[0]
    cols = [vec(np.eye(n)), vec(q)]
    while len(cols) < n * n:
        cols.append(gen.conj().T @ cols[-1])
    sv = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.sum(sv > tol * sv[0]))


# Coefficients on a 1/1024 lattice (with gamma a power of two) make every
# closed-form eigenvalue exact, so ties in the closed form are exact ties
# and distinct values are at least 1/1024 apart.
LATTICE = 1024.0
gammas = st.sampled_from([0.5, 1.0, 2.0])


@st.composite
def lattice_two_level(draw):
    """(a1, a2, a3) >= 0 with sum <= 1; ties are forced one draw in three."""
    k = [draw(st.integers(0, 341)) for _ in range(3)]
    tie = draw(st.sampled_from([None, None, (0, 1), (0, 2), (1, 2)]))
    if tie:
        k[tie[1]] = k[tie[0]]
    return tuple(x / LATTICE for x in k)


@st.composite
def lattice_three_level(draw):
    """(a1..a6) in the CPTP domain (a1..a3 <= 0.16, a4 + a5 <= a1 + a2 +
    a3, a6 <= a4 + a5); about one draw in two forces a tie."""
    k = [draw(st.integers(0, 160)) for _ in range(3)]
    k += [draw(st.integers(0, sum(k) // 2)) for _ in range(2)]
    k.append(draw(st.integers(0, k[3] + k[4])))
    tie = draw(st.sampled_from([None, (0, 1), (1, 2), (3, 4), (3, 5), (4, 5)]))
    if tie:
        k[tie[1]] = k[tie[0]]
    return tuple(x / LATTICE for x in k)


def closed_form_counts(values):
    """(largest multiplicity, number of distinct values) of exact values."""
    counts = np.unique(values, return_counts=True)[1]
    return int(counts.max()), counts.size


class TestObservableSpec:
    def test_qubit_field_extraction(self):
        spec = ObservableSpec.from_matrix(qubit_observable(1.0, -0.5, 0.3, 0.7))
        assert (spec.a, spec.b, spec.c, spec.d) == (1.0, -0.5, 0.3, 0.7)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ObservableSpec.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_larger_dimension_has_no_closed_form_fields(self):
        spec = ObservableSpec.from_matrix(np.eye(3))
        assert spec.a is None and spec.dim == 3

    @pytest.mark.parametrize("call,match", [
        (lambda: ObservableSpec.from_matrix(np.ones((2, 3))), "observable must be square"),
        (lambda: span_report(GEN_2, [np.eye(3)]),
         r"observable shape \(3, 3\) does not match generator dim 2"),
    ], ids=["from_matrix non-square", "span_report wrong size"])
    def test_malformed_observable_is_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestSpectralReport:
    def test_optimal_two_level(self):
        report = spectral_report(GEN_2)
        assert report.eta == 1
        assert report.mu == 4
        np.testing.assert_allclose(
            np.sort(report.spectrum.eigenvalues.real), [-1.0, -0.8, -0.6, 0.0], atol=1e-10
        )

    def test_worked_example_discriminant(self):
        report = spectral_report(GEN_2)
        assert report.discriminant.real == pytest.approx(5.89824e-5, abs=1e-12)
        assert abs(report.discriminant.imag) < 1e-12

    def test_degenerate_two_level(self):
        """a1 = a2 merges two decay rates; one observable can no longer work."""
        report = spectral_report(GEN_2_DEGENERATE)
        assert report.eta == 2
        assert report.mu == 3
        assert report.discriminant == 0  # exactly, via clustered eigenvalues

    def test_optimal_three_level(self):
        report = spectral_report(GEN_3)
        assert report.eta == 1
        assert report.mu == 9

    def test_overflowing_discriminant_reads_inf(self):
        """A real spectrum's discriminant is a real product, so overflow
        reads inf with imaginary part 0, not nan."""
        with np.errstate(all="raise"):
            report = spectral_report(generator_two_level(TwoLevelParams(0.1, 0.2, 0.3, 1e200)))
        assert (report.eta, report.mu) == (1, 4)
        assert report.discriminant.real == np.inf and report.discriminant.imag == 0

    def test_eta_counts_geometric_multiplicity(self):
        # L = 0 fixes every state: eta = n^2
        report = spectral_report(np.zeros((4, 4)))
        assert report.eta == 4
        assert report.mu == 1

    def test_mu_of_defective_jordan_inputs(self):
        """A defective input, whose mu would sum Jordan block sizes, is not
        Hermitian: no report is made of it."""
        for blocks in (((-1.0, 3), (-2.0, 1)), ((-1.0, 2), (-1.0, 2)), ((-1.0, 3), (-1.0, 1))):
            with pytest.raises(ValueError, match="Hermitian"):
                spectral_report(jordan(*blocks))

    def test_simple_spectrum_with_a_small_vandermonde_share(self):
        """A simple qutrit spectrum whose ninth power of L keeps only ~3e-10
        of its norm outside the lower powers still has mu = n^2 = 9."""
        gen = generator_three_level(
            ThreeLevelParams(0.0428, 0.0925, 0.0759, 0.0648, 0.0872, 0.0692)
        )
        report = optimality_report(gen)
        assert report.optimal
        assert report.mu == 9
        assert report.criteria_agree
        assert report.notes == (
            "measured mu = 9 equals n^2 = 9, not the alternative reference value "
            "n^2 - 1 = 8; the n^2 - 1 identity is inconsistent with a "
            "nonderogatory generator",
        )

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(a=lattice_two_level(), gamma=gammas)
    def test_two_level_indices_match_closed_form(self, a, gamma):
        p = TwoLevelParams(*a, gamma=gamma)
        report = spectral_report(generator_two_level(p))
        eta, distinct = closed_form_counts(closed_form_spectrum_two_level(p))
        assert (report.eta, report.mu) == (eta, distinct)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(a=lattice_three_level(), gamma=gammas)
    def test_three_level_indices_match_closed_form(self, a, gamma):
        p = ThreeLevelParams(*a, gamma=gamma)
        assume(validate_three_level(p).cptp_domain)
        report = spectral_report(generator_three_level(p))
        eta, distinct = closed_form_counts(closed_form_spectrum_three_level(p))
        assert (report.eta, report.mu) == (eta, distinct)


def family_report(gen, tol):
    """The kernel's report of one generator, fed its ``eigvalsh``."""
    return _family_report(np.linalg.eigvalsh(np.asarray(gen)[None]), tol)


def general_route(gen):
    """(cluster sizes, eta, mu, discriminant) of an independent reference:
    numpy's general eigensolver, which assumes no symmetry, the gap rule
    written out (``chained_sizes``) and the pairwise product over its
    eigenvalues (zero when a cluster merges)."""
    solved = np.linalg.eigvals(np.asarray(gen))
    values = np.sort(solved.real)
    assert np.abs(solved.imag).max() <= CLUSTER_TOL * np.abs(values).max()
    sizes = chained_sizes(values.tolist())
    i, j = np.triu_indices(values.size, 1)
    disc = np.prod((values[i] - values[j]) ** 2) if len(sizes) == values.size else 0
    return sizes, max(sizes), len(sizes), complex(disc)


def assert_matches_general_route(gen, tol):
    """The kernel's report equals the general route's: same clusters, eta
    and mu, discriminants within 1e-12 relative (zero together)."""
    fast = family_report(gen, tol)
    sizes, eta, mu, disc = general_route(gen)
    assert (fast.eta, fast.mu, fast.tolerance) == (eta, mu, tol)
    assert [c[1:] for c in fast.spectrum.clusters] == [(a, a) for a in sizes]
    if disc == 0:
        assert fast.discriminant == 0
    else:
        assert abs(fast.discriminant - disc) <= 1e-12 * abs(disc)


tols = st.sampled_from([1e-9, 1e-6])


def chained_sizes(values):
    """Cluster sizes of a real spectrum, ascending, by plain adjacent-gap
    chaining at CLUSTER_TOL * max(diameter, max |lambda|)."""
    v = sorted(values)
    cut = CLUSTER_TOL * max(v[-1] - v[0], max(abs(x) for x in v))
    sizes = [1]
    for lo, hi in zip(v, v[1:]):
        if hi - lo > cut:
            sizes.append(1)
        else:
            sizes[-1] += 1
    return sizes


def chained_clusters(values):
    """(largest cluster, number of clusters) of a real spectrum, by ``chained_sizes``."""
    sizes = chained_sizes(values)
    return max(sizes), len(sizes)


@st.composite
def chained_coefficients(draw):
    """Kraus coefficients of either family in which 2 to 4 rates form a tie
    or a chain: each neighbour sits 0 to 3 cluster cuts above the last."""
    d = draw(st.sampled_from([3, 6]))
    a = [draw(st.floats(0.01, 0.3)) for _ in range(d)]
    record = TwoLevelParams if d == 3 else ThreeLevelParams
    values = _family_eigenvalues([record(*a).coefficients], 1.0)[0]
    # Mode k's eigenvalue is 2 (a_k - c) at unit rate, so a coefficient step
    # of cut / 2 is an eigenvalue gap of one cut.
    step = CLUSTER_TOL * max(values[-1] - values[0], np.abs(values).max()) / 2
    size = draw(st.integers(2, min(4, d)))
    chain = draw(st.permutations(range(d)))[:size]
    gaps = st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.01, 2.0]), st.floats(0.0, 3.0))
    for prev, k in zip(chain, chain[1:]):
        a[k] = a[prev] + draw(gaps) * step
    return record(*a).coefficients


class TestFamilySpectra:
    """The batched eigvalsh kernel that analyze and scan share."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(coeffs=chained_coefficients(), gamma=gammas)
    def test_eta_is_the_largest_cluster(self, coeffs, gamma):
        """eta and mu are the largest cluster and the number of clusters,
        chains of near-equal rates included; the discriminant is zero
        exactly when a cluster merges."""
        values = _family_eigenvalues([coeffs], gamma)
        s = _family_spectra(values)
        assert (s.eta[0], s.mu[0]) == chained_clusters(values[0].tolist())
        assert (s.discriminant[0] == 0) == (s.mu[0] < values.shape[1])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(a=lattice_two_level(), gamma=gammas, tol=tols)
    def test_two_level_matches_general_route(self, a, gamma, tol):
        assert_matches_general_route(generator_two_level(TwoLevelParams(*a, gamma=gamma)), tol)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(a=lattice_three_level(), gamma=gammas, tol=tols)
    def test_three_level_matches_general_route(self, a, gamma, tol):
        p = ThreeLevelParams(*a, gamma=gamma)
        assume(validate_three_level(p).cptp_domain)
        assert_matches_general_route(generator_three_level(p), tol)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(points=st.lists(lattice_three_level(), min_size=1, max_size=9), gamma=gammas)
    def test_rows_do_not_depend_on_the_stack(self, points, gamma):
        coeffs = [ThreeLevelParams(*a).coefficients for a in points]
        stack = _family_spectra(_family_eigenvalues(coeffs, gamma))
        for i, c in enumerate(coeffs):
            one = _family_spectra(_family_eigenvalues([c], gamma))
            for field in stack._fields:
                np.testing.assert_array_equal(getattr(stack, field)[i], getattr(one, field)[0])

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(a=st.one_of(lattice_two_level(), lattice_three_level()), gamma=gammas)
    def test_default_grid_refuses_exactly_where_eta_exceeds_1(self, a, gamma):
        """The campaign reads eta off its own eigh; it refuses a default grid
        exactly where the spectral report finds eta > 1."""
        if len(a) == 3:
            gen = generator_two_level(TwoLevelParams(*a, gamma=gamma))
        else:
            p = ThreeLevelParams(*a, gamma=gamma)
            assume(validate_three_level(p).cptp_domain)
            gen = generator_three_level(p)
        if spectral_report(gen).eta > 1:
            with pytest.raises(ValueError, match="eta"):
                default_time_grid(gen, 3)
        else:
            default_time_grid(gen, 3)

    def test_cluster_tolerance_floors_the_rank_cut(self):
        """The rank tolerance decides nothing: at a tiny one the rounding
        spread of a tied pair (1e-16 here, from a1 = a2) is still under the
        cluster cut, so the pair is one cluster, as the general route finds."""
        gen = generator_three_level(ThreeLevelParams(0.1, 0.1, 0.2, 0.05, 0.08, 0.06))
        for tol in (1e-300, 1e-9):
            assert_matches_general_route(gen, tol)
            assert family_report(gen, tol).eta == 2

    def test_overflowing_discriminant_reads_inf(self):
        with np.errstate(all="raise"):
            huge = family_report(generator_two_level(TwoLevelParams(0.1, 0.2, 0.3, 1e200)), None)
        unit = family_report(GEN_2, None)
        assert (huge.eta, huge.mu) == (unit.eta, unit.mu) == (1, 4)
        assert huge.discriminant == np.inf

    def test_empty_stack(self):
        s = _family_spectra(np.zeros((0, 4)))
        assert s.eta.shape == s.mu.shape == s.discriminant.shape == (0,)


def family_point(a, gamma):
    """Parameter record and its paper closed-form spectrum, for a lattice point."""
    if len(a) == 3:
        p = TwoLevelParams(*a, gamma=gamma)
        return p, closed_form_spectrum_two_level(p)
    p = ThreeLevelParams(*a, gamma=gamma)
    return p, closed_form_spectrum_three_level(p)


class TestFamilyEigenvalues:
    """The closed form gamma M a that scan and analyze read eigenvalues from."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(a=st.one_of(lattice_two_level(), lattice_three_level()), gamma=gammas)
    def test_matches_closed_form_and_eigvalsh(self, a, gamma):
        p, closed = family_point(a, gamma)
        values = _family_eigenvalues([p.coefficients], gamma)
        solved = np.linalg.eigvalsh(_family_generator(p))
        bound = 1e-13 * np.abs(values).max()
        assert values.shape == (1, closed.size) and solved.shape == (closed.size,)
        assert np.all(np.diff(values[0]) >= 0)
        assert np.abs(values[0] - np.sort(closed)).max() <= bound
        assert np.abs(values - solved).max() <= bound

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        points=st.one_of(
            st.lists(st.tuples(*[st.floats(0.0, 0.3)] * 3), min_size=1, max_size=64),
            st.lists(st.tuples(*[st.floats(0.0, 0.3)] * 6), min_size=1, max_size=64),
        ),
        gamma=st.floats(0.5, 2.0),
    )
    def test_rows_do_not_depend_on_the_stack(self, points, gamma):
        """Off the lattice, where rounding depends on the order of the sum."""
        coeffs = [family_point(a, gamma)[0].coefficients for a in points]
        stack = _family_eigenvalues(coeffs, gamma)
        for i, c in enumerate(coeffs):
            np.testing.assert_array_equal(stack[i], _family_eigenvalues([c], gamma)[0])

    @pytest.mark.parametrize("n,dissipators,rates", [
        (2, _PAULI_DISSIPATORS, _PAULI_RATES),
        (3, _GELLMANN_DISSIPATORS, _GELLMANN_RATES),
    ])
    def test_rate_matrix_is_half_integral(self, n, dissipators, rates):
        """M holds the dissipators' diagonals in the Hermitian basis, and
        2 M is integral with entries 0, -1, -3 and -4."""
        vecs = [b.reshape(-1, order="F") for b in _hermitian_basis(n)]
        diagonal = np.array([[np.vdot(v, d @ v) for d in dissipators] for v in vecs])
        assert rates.shape == (n * n, n * n - 1)
        np.testing.assert_allclose(rates, diagonal.real, rtol=0, atol=1e-14)
        assert np.abs(diagonal.imag).max() <= 1e-14
        np.testing.assert_array_equal(2 * rates, np.round(2 * rates))
        assert set(np.unique(2 * rates)) <= {0.0, -1.0, -3.0, -4.0}


#: Four qutrit rates chained just inside the cluster cut: one cluster of four.
CHAIN_POINT = ThreeLevelParams(0.15, 0.150000003283, 0.150000006566, 0.1, 0.12, 0.069999990151)


def hermitian_lindblad_generators(seed, count):
    """GKSL generators with H = 0 and one to three Hermitian jumps (Hermitian
    generators); one jump alone gives pairs of tied rates."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice([2, 3]))
        jumps = []
        for _ in range(int(rng.integers(1, 4))):
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            jumps.append((x + x.conj().T) / 2)
        rates = tuple(rng.uniform(0.1, 1.0, size=len(jumps)))
        yield generator_from_lindblad(LindbladSpec(np.zeros((n, n)), tuple(jumps), rates))


def count_spectral_calls(monkeypatch):
    """Names of the ``matcore.eigh`` calls and of numpy's general eigensolver
    calls (``eig``, ``eigvals``) from now on."""
    calls = []
    for module, name in ((matcore, "eigh"), (np.linalg, "eig"), (np.linalg, "eigvals")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def gksl_with_hamiltonian(scale):
    """A GKSL generator with a Hamiltonian and a non-normal jump: not Hermitian."""
    lowering = np.array([[0, 1], [0, 0]], dtype=complex)
    return generator_from_lindblad(LindbladSpec(scale * pauli(3), (lowering,), (scale,)))


class TestSpectralRoute:
    """Every report takes matcore.eigh and the cluster kernel; input that
    eigh refuses is refused with ValueError."""

    def test_chain_point_is_one_cluster_of_four(self):
        """The reports read the chain as analyze and scan do (see
        tests/test_cli.py): eta 4 and mu 6, geometric = algebraic."""
        gen = generator_three_level(CHAIN_POINT)
        report = spectral_report(gen)
        assert (report.eta, report.mu, report.discriminant) == (4, 6, 0)
        assert [c[1:] for c in report.spectrum.clusters] == [(1, 1)] * 3 + [(4, 4)] + [(1, 1)] * 2
        opt = optimality_report(gen)
        assert (opt.eta, opt.mu, opt.optimal, opt.criteria_agree) == (4, 6, False, True)
        closed = _family_report(_family_eigenvalues([CHAIN_POINT.coefficients], 1.0), None)
        assert (closed.eta, closed.mu) == (4, 6)

    def test_hermitian_lindblad_generators_match_eig(self):
        for gen in hermitian_lindblad_generators(seed=21, count=60):
            report = spectral_report(gen)
            _, eta, mu, disc = general_route(gen)
            assert (report.eta, report.mu) == (eta, mu)
            assert (report.discriminant == 0) == (disc == 0)

    def test_hermitian_input_never_takes_eig(self, monkeypatch):
        """Each report takes one eigh and no general eigensolver."""
        gens = [GEN_2, GEN_3, np.zeros((4, 4)), generator_three_level(CHAIN_POINT),
                1e-200 * GEN_3, 1e200 * GEN_3, *hermitian_lindblad_generators(seed=3, count=4)]
        calls = count_spectral_calls(monkeypatch)
        for gen in gens:
            spectral_report(gen)
            optimality_report(gen)
        assert calls == ["eigh"] * 2 * len(gens)

    def test_other_input_is_refused(self):
        """A defective matrix, and a GKSL generator with a Hamiltonian: no
        eta is reported for either."""
        for gen in (jordan((-1.0, 2), (-2.0, 2)), gksl_with_hamiltonian(0.5)):
            with pytest.raises(ValueError, match="Hermitian"):
                spectral_report(gen)
            with pytest.raises(ValueError, match="Hermitian"):
                optimality_report(gen)

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_route_does_not_depend_on_scale(self, scale):
        """A non-Hermitian matrix is refused at any scale, also where its
        asymmetry is below 1e-12 in absolute terms: a defective block, and a
        GKSL generator with a Hamiltonian and a non-normal jump at a small
        rate."""
        for gen in (scale * jordan((-1.0, 2)), gksl_with_hamiltonian(scale)):
            with pytest.raises(ValueError, match="Hermitian"):
                spectral_report(gen)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_a_value_error(self, bad):
        gen = np.array(GEN_2)
        gen[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            spectral_report(gen)
        with pytest.raises(ValueError, match="finite"):
            optimality_report(gen)

    @pytest.mark.parametrize("shape", [(4, 3), (4,), (2, 2, 2), (0, 0)])
    def test_non_square_input_is_a_value_error(self, shape):
        match = r"square|2-D|nonempty"
        with pytest.raises(ValueError, match=match):
            spectral_report(np.zeros(shape))
        with pytest.raises(ValueError, match=match):
            optimality_report(np.zeros(shape))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_bad_tolerance_is_a_value_error_on_either_route(self, tol):
        """A matrix or its Eigensystem."""
        for gen in (GEN_2, matcore.eigh(GEN_2)):
            with pytest.raises(ValueError, match="tolerance"):
                spectral_report(gen, tol)


@st.composite
def planted_spectra(draw):
    """(m, multiplicities, scale): m = Q diag(planted) Q^T with Q a seeded
    random orthogonal matrix; the planted values are distinct integers in
    [-9, 9] times the scale, each repeated its multiplicity times, and the
    multiplicities come in ascending order of their values."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    distinct = draw(st.lists(st.integers(-9, 9), min_size=len(sizes), max_size=len(sizes),
                             unique=True))
    scale = 10.0 ** draw(st.integers(-13, 13))
    distinct, sizes = zip(*sorted(zip(distinct, sizes)))  # sizes in ascending order
    planted = np.repeat(np.array(distinct, dtype=float) * scale, sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.normal(size=(planted.size, planted.size)))[0]
    return q @ np.diag(planted) @ q.T, sizes, scale


class TestPlantedSpectrum:
    """Reports of Hermitian matrices with planted multiplicities, at scales
    1e-13 to 1e13; non-Hermitian matrices are refused at every scale."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(planted=planted_spectra())
    def test_eta_and_mu_are_the_planted_counts(self, planted):
        m, sizes, _ = planted
        report = spectral_report(m)
        assert (report.eta, report.mu) == (max(sizes), len(sizes))
        assert [c[1:] for c in report.spectrum.clusters] == [(a, a) for a in sizes]
        assert (report.discriminant == 0) == (max(sizes) > 1)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(planted=planted_spectra())
    def test_eigensystem_gives_the_same_bits(self, planted):
        m = planted[0]
        direct, passed = spectral_report(m), spectral_report(matcore.eigh(m))
        np.testing.assert_array_equal(direct.spectrum.eigenvalues, passed.spectrum.eigenvalues)
        assert direct.spectrum.clusters == passed.spectrum.clusters
        assert direct.discriminant == passed.discriminant
        assert (direct.mu, direct.tolerance) == (passed.mu, passed.tolerance)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(planted=planted_spectra(), kind=st.sampled_from(["jordan", "random"]))
    def test_non_hermitian_is_refused_at_every_scale(self, planted, kind):
        """A Jordan block at the planted scale, or a random non-normal matrix
        of the planted size and scale."""
        m, sizes, scale = planted
        rng = np.random.default_rng(len(sizes))
        if kind == "jordan":
            bad = scale * jordan((-1.0, max(2, m.shape[0])))
        else:
            bad = scale * rng.normal(size=(max(2, m.shape[0]),) * 2)
        with pytest.raises(ValueError, match="Hermitian"):
            spectral_report(bad)


class TestOptimalityReport:
    def test_optimal_generator(self):
        report = optimality_report(GEN_2)
        assert report.optimal
        assert report.criteria_agree
        assert report.eta == 1
        assert report.discriminant_nonzero
        assert report.mu == 4
        assert report.mu_nonderogatory == 4
        assert report.mu_alternative_claim == 3

    def test_flags_alternative_mu_value(self):
        """The measured mu = n^2 contradicts the n^2 - 1 reference value."""
        report = optimality_report(GEN_3)
        assert report.mu == 9
        assert any("n^2 - 1" in note for note in report.notes)

    def test_n_squared_note_only_when_mu_is_n_squared(self):
        """An optimal qutrit whose measured mu is neither 8 nor 9 gets no
        note claiming mu equals n^2."""
        gen = generator_three_level(ThreeLevelParams(
            0.06845029079807595, 0.18804345837789405, 0.11317749547898731,
            0.18002522893957607, 0.18492773305291313, 0.18002649801097004, gamma=1.0,
        ))
        report = optimality_report(gen)
        assert report.optimal
        equals_note = any("equals n^2" in note for note in report.notes)
        assert equals_note == (report.mu == 9)

    def test_degenerate_generator(self):
        report = optimality_report(GEN_2_DEGENERATE)
        assert not report.optimal
        assert not report.discriminant_nonzero
        assert report.criteria_agree  # eta > 1 and D = 0 agree with each other


class TestQubitAdmissibility:
    def test_closed_form_requires_all_three_conditions(self):
        assert two_level_admissible(qubit_observable(1.0, 0.0, 1.0, 1.0))
        assert not two_level_admissible(qubit_observable(1.0, 1.0, 1.0, 1.0))  # A = B
        assert not two_level_admissible(qubit_observable(1.0, 0.0, 0.0, 1.0))  # C = 0
        assert not two_level_admissible(qubit_observable(1.0, 0.0, 1.0, 0.0))  # D = 0

    def test_closed_form_matches_span_check(self):
        """Krylov-rank admissibility agrees with the A/B/C/D criterion."""
        rng = np.random.default_rng(20)
        for _ in range(300):
            q = qubit_observable(*rng.uniform(-1, 1, size=4))
            assert two_level_admissible(q) == span_check(GEN_2, q)

    def test_span_check_on_structured_failures(self):
        for q in (pauli(3), np.eye(2), qubit_observable(0.3, -0.3, 0.5, 0.0)):
            assert not span_check(GEN_2, q)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            two_level_admissible(np.eye(3))


class TestQutritAdmissibility:
    """Criterion 4's analogue for n = 3: on an optimal qutrit family
    generator, Q is admissible exactly when its eight traceless coordinates
    <B_u, Q> in the fixed Hermitian basis are all nonzero."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(gamma=gammas, seed=st.integers(0, 2**32 - 1))
    def test_closed_form_matches_span_check(self, gamma, seed):
        rng = np.random.default_rng(seed)
        a1, a2, a3 = 0.16 * rng.random(3)  # a8 >= 0, a7 >= 0 and f <= 0.96 below
        a4, a5 = rng.random(2) * (a1 + a2 + a3) / 2
        p = ThreeLevelParams(a1, a2, a3, a4, a5, rng.random() * (a4 + a5), gamma=gamma)
        assume(validate_three_level(p).valid)
        q = rng.choice([-1.0, 1.0], size=9) * rng.uniform(0.1, 1.0, size=9)
        q[rng.random(9) < 0.15] = 0.0  # the identity's coordinate too, which is free
        obs = np.tensordot(q, _hermitian_basis(3), axes=1)
        assert span_check(generator_three_level(p), obs) == bool(np.all(q[1:] != 0))


class TestKrylovBasis:
    """The span of {vec I, vec Q, L* vec Q, ...}, read off the eigen-coordinates."""

    def test_admissible_observable_spans(self):
        report = span_report(GEN_2, [qubit_observable(1.0, 0.0, 1.0, 1.0)])
        assert report.rank == report.required == 4
        assert report.satisfied
        assert report.margin > 0

    def test_rank_deficit_for_bad_observable(self):
        report = span_report(GEN_2, [pauli(1)])
        assert report.rank < 4
        assert not report.satisfied
        assert report.margin < 1e-12

    def test_three_level_admissible_observable(self):
        obs = random_admissible_observable(GEN_3_SPREAD, 5)
        assert span_report(GEN_3_SPREAD, [obs]).rank == 9

    def test_clustered_spectrum_is_certified(self):
        """Clustered decay rates leave every eigen-coordinate of a random
        observable nonzero, so at the README qutrit points the first draw of
        every seed is admissible."""
        for point in README_QUTRIT_POINTS:
            gen = generator_three_level(ThreeLevelParams(*point))
            for seed in range(20):
                obs = random_admissible_observable(gen, seed, tries=1)
                report = span_report(gen, [obs])
                assert report.satisfied
                assert report.margin > 1e-6


class TestSpanReport:
    def test_full_rank(self):
        report = span_report(GEN_3_SPREAD, [random_admissible_observable(GEN_3_SPREAD, 0)])
        assert (report.rank, report.required) == (9, 9)

    def test_detects_deficiency(self):
        """Each closed-form condition removes exactly one decaying mode."""
        for q in (
            qubit_observable(1.0, 1.0, 1.0, 1.0),  # A = B
            qubit_observable(1.0, 0.0, 0.0, 1.0),  # C = 0
            qubit_observable(1.0, 0.0, 1.0, 0.0),  # D = 0
        ):
            assert span_report(GEN_2, [q]).rank == 3
        assert span_report(GEN_2, [np.eye(2)]).rank == 1
        assert span_report(GEN_2, [np.zeros((2, 2))]).rank == 1

    def test_scaling_and_permutation_invariance(self):
        q1 = qubit_observable(0.3, -0.2, 1e-3, 0.7)
        q2 = qubit_observable(0.5, -0.5, 0.0, 1.0)
        base = span_report(GEN_2, [q1])
        scaled = span_report(GEN_2, [1e9 * q1])
        assert scaled.rank == base.rank == 4
        assert scaled.margin == pytest.approx(base.margin, rel=1e-12)
        pair, swapped = span_report(GEN_2, [q1, q2]), span_report(GEN_2, [q2, q1])
        assert pair.rank == swapped.rank == 4
        assert pair.margin == pytest.approx(swapped.margin, rel=1e-12)

    def test_relative_tolerance_semantics(self):
        """The margin is min |c_k| / ||Q||: here |D| sqrt(2) / sqrt(3), kept at
        the default 1e-9 tolerance and dropped at 1e-3."""
        q = qubit_observable(1.0, 0.0, 1.0, 1e-6)
        report = span_report(GEN_2, [q])
        assert report.margin == pytest.approx(np.sqrt(2.0) * 1e-6 / np.linalg.norm(q), rel=1e-6)
        assert report.rank == 4
        assert span_report(GEN_2, [q], tol=1e-3).rank == 3

    def test_margin_is_the_closed_form_coordinate(self):
        """On the qubit, c = (C sqrt 2, D sqrt 2, (A - B) / sqrt 2) over the
        decaying modes."""
        rng = np.random.default_rng(22)
        for _ in range(20):
            a, b, c, d = rng.uniform(-1, 1, size=4)
            q = qubit_observable(a, b, c, d)
            expected = min(abs(c) * np.sqrt(2), abs(d) * np.sqrt(2), abs(a - b) / np.sqrt(2))
            margin = span_report(GEN_2, [q]).margin
            assert margin == pytest.approx(expected / np.linalg.norm(q), rel=1e-9)

    def test_rejects_non_hermitian_generator(self):
        spec = LindbladSpec(hamiltonian=pauli(3), jump_operators=(pauli(1),), rates=(0.5,))
        with pytest.raises(ValueError, match="Hermitian"):
            span_report(generator_from_lindblad(spec), [pauli(1)])

    def test_rejects_non_hermitian_observable(self):
        """The span test takes an observable through the one gate, as plan
        and the closed form do: this Q reaches rank 4 unchecked."""
        q = np.array([[0.3, 0.5 + 0.7j], [0.1 - 0.2j, -0.4]])
        for check in (span_check, lambda gen, q: span_report(gen, [q])):
            with pytest.raises(ValueError, match="Hermitian"):
                check(GEN_2, q)
        with pytest.raises(ValueError, match="Hermitian"):
            two_level_admissible(q)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        k=st.lists(st.integers(0, 5), min_size=3, max_size=3, unique=True),
        gamma=gammas,
        fields=st.tuples(*[st.integers(-8, 8)] * 4),
    )
    def test_span_check_matches_closed_form_and_krylov_rank(self, k, gamma, fields):
        """On optimal qubit generators with rates at least gamma / 8 apart,
        and observables whose A - B, C and D are each 0 or at least 1/8,
        the eigen-coordinate check, the closed form and the raw Krylov
        rank agree."""
        gen = generator_two_level(TwoLevelParams(*(x / 16 for x in k), gamma=gamma))
        a, delta, c, d = (x / 8 for x in fields)
        q = qubit_observable(a, a + delta, c, d)
        admissible = span_check(gen, q)
        assert admissible == two_level_admissible(q)
        assert admissible == (krylov_rank(gen, q) == 4)


class TestSpanCheckMultiObservable:
    def test_degenerate_needs_two_observables(self):
        """With eta = 2 no single Q spans, but a complementary pair does."""
        q1 = qubit_observable(0.5, -0.5, 1.0, 0.0)  # sigma_1-leaning
        q2 = qubit_observable(0.5, -0.5, 0.0, 1.0)  # sigma_2-leaning
        assert not span_check(GEN_2_DEGENERATE, q1)
        assert not span_check(GEN_2_DEGENERATE, q2)
        assert span_report(GEN_2_DEGENERATE, [q1]).margin < 1e-12
        report = span_report(GEN_2_DEGENERATE, [q1, q2])
        assert report.satisfied
        assert report.rank == 4
        assert report.margin > 0.1

    def test_parallel_pair_does_not_help(self):
        q1 = qubit_observable(0.5, -0.5, 1.0, 0.0)
        report = span_report(GEN_2_DEGENERATE, [q1, 2.0 * q1])
        assert not report.satisfied

    def test_single_observable_consistency(self):
        q = qubit_observable(1.0, 0.0, 1.0, 1.0)
        report = span_report(GEN_2, [q])
        assert report.satisfied == span_check(GEN_2, q)


class TestRandomAdmissibleObservable:
    def test_deterministic_per_seed(self):
        a = random_admissible_observable(GEN_2, 123)
        b = random_admissible_observable(GEN_2, 123)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self):
        a = random_admissible_observable(GEN_2, 1)
        b = random_admissible_observable(GEN_2, 2)
        assert np.max(np.abs(a.matrix - b.matrix)) > 1e-6

    def test_always_admissible(self):
        for seed in range(30):
            obs = random_admissible_observable(GEN_2, seed)
            assert span_check(GEN_2, obs.matrix)
        for seed in range(10):
            obs = random_admissible_observable(GEN_3_SPREAD, seed)
            assert span_check(GEN_3_SPREAD, obs.matrix)

    def test_qubit_margins(self):
        # the drawn closed-form fields stay >= 0.1 away from the degenerate locus
        for seed in range(20):
            obs = random_admissible_observable(GEN_2, seed)
            assert abs(obs.a - obs.b) >= 0.1
            assert abs(obs.c) >= 0.1
            assert abs(obs.d) >= 0.1

    def test_degenerate_generator_raises(self):
        with pytest.raises(ValueError, match="eta"):
            random_admissible_observable(GEN_2_DEGENERATE, 0, tries=20)
