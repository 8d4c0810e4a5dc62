import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strobetomo import matcore
from strobetomo.channels import (
    _GELLMANN_DISSIPATORS,
    _GELLMANN_RATES,
    _PAULI_DISSIPATORS,
    _PAULI_RATES,
    _UNIT_RATE_RADIUS,
    _family_domain,
    _family_eigenvalues,
    _family_generator,
    _gamma_limit,
    LindbladSpec,
    ThreeLevelParams,
    TwoLevelParams,
    apply_kraus,
    closed_form_spectrum_three_level,
    closed_form_spectrum_two_level,
    embed_one_param,
    gellmann,
    generator_from_lindblad,
    generator_of,
    generator_three_level,
    generator_two_level,
    kraus_at,
    kraus_vs_semigroup_deviation,
    pauli,
    three_level_family,
    two_level_family,
    validate_three_level,
    validate_two_level,
)

WORKED_2 = TwoLevelParams(0.1, 0.2, 0.3, gamma=1.0)
WORKED_3 = ThreeLevelParams(0.1, 0.15, 0.2, 0.05, 0.08, 0.06, gamma=1.0)


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestOperatorBases:
    @pytest.mark.parametrize("basis,count", [(pauli, 3), (gellmann, 8)])
    def test_orthogonality_normalization(self, basis, count):
        """Tr(B_i B_j) = 2 delta_ij for both operator bases."""
        for i in range(1, count + 1):
            for j in range(1, count + 1):
                expected = 2.0 if i == j else 0.0
                assert np.trace(basis(i) @ basis(j)).real == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("basis,count", [(pauli, 3), (gellmann, 8)])
    def test_hermitian_traceless(self, basis, count):
        for i in range(1, count + 1):
            b = basis(i)
            np.testing.assert_allclose(b, b.conj().T, atol=1e-15)
            assert abs(np.trace(b)) < 1e-15

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            pauli(0)
        with pytest.raises(ValueError):
            pauli(4)
        with pytest.raises(ValueError):
            gellmann(9)

    def test_returns_copies(self):
        m = pauli(1)
        m[0, 0] = 99.0
        assert pauli(1)[0, 0] == 0.0


class TestParameterValidation:
    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            TwoLevelParams(0.1, 0.2, 0.3, gamma=0.0)
        with pytest.raises(ValueError):
            ThreeLevelParams(0.1, 0.1, 0.1, 0.1, 0.1, 0.1, gamma=-1.0)

    def test_two_level_worked_example_is_valid(self):
        rep = validate_two_level(WORKED_2)
        assert rep.cptp_domain and rep.nondegenerate and rep.valid
        assert rep.violations == ()

    def test_two_level_cptp_violations(self):
        rep = validate_two_level(TwoLevelParams(-0.1, 0.2, 0.3, gamma=1.0))
        assert not rep.cptp_domain
        rep = validate_two_level(TwoLevelParams(0.5, 0.4, 0.3, gamma=1.0))  # sum > 1
        assert not rep.cptp_domain
        assert any("sum" in v or "1" in v for v in rep.violations)

    def test_two_level_degeneracy_detected(self):
        rep = validate_two_level(TwoLevelParams(0.2, 0.2, 0.3, gamma=1.0))
        assert rep.cptp_domain
        assert not rep.nondegenerate
        assert not rep.valid
        # off the domain a mode can meet the stationary 0 (a1 + a2 = 0)
        rep = validate_two_level(TwoLevelParams(0.3, -0.3, 0.2))
        assert (rep.cptp_domain, rep.nondegenerate) == (False, False)
        assert rep.violations[-1] == "the closed-form spectrum is not simple"

    def test_three_level_worked_example_derived_quantities(self):
        assert WORKED_3.a7 == pytest.approx(0.07)
        assert WORKED_3.a8 == pytest.approx(0.32)
        assert WORKED_3.completeness_factor == pytest.approx(0.6866666666666666)
        rep = validate_three_level(WORKED_3)
        assert rep.valid

    def test_three_level_derived_coefficient_negativity(self):
        # a6 > a4 + a5 drives a7 below zero
        rep = validate_three_level(ThreeLevelParams(0.1, 0.15, 0.2, 0.05, 0.08, 0.2, gamma=1.0))
        assert not rep.cptp_domain
        # a4 + a5 > a1 + a2 + a3 drives a8 below zero
        rep = validate_three_level(ThreeLevelParams(0.05, 0.05, 0.05, 0.1, 0.1, 0.05, gamma=1.0))
        assert not rep.cptp_domain

    def test_three_level_completeness_bound(self):
        rep = validate_three_level(ThreeLevelParams(0.4, 0.4, 0.4, 0.05, 0.08, 0.06, gamma=1.0))
        assert not rep.cptp_domain

    def test_three_level_degeneracies(self):
        # a1 = a2 collides two of the closed-form eigenvalues
        rep = validate_three_level(ThreeLevelParams(0.15, 0.15, 0.2, 0.05, 0.08, 0.06, gamma=1.0))
        assert rep.cptp_domain and not rep.nondegenerate
        # a6 = (a4 + a5) / 2 collides the last symmetric pair
        rep = validate_three_level(ThreeLevelParams(0.1, 0.15, 0.2, 0.05, 0.08, 0.065, gamma=1.0))
        assert rep.cptp_domain and not rep.nondegenerate
        # off the domain a mode can meet the stationary 0 (a4 = 3f/4)
        rep = validate_three_level(ThreeLevelParams(0.01, 0.02, 0.04, 0.17, 0.03, 0.05))
        assert (rep.cptp_domain, rep.nondegenerate) == (False, False)
        assert rep.violations[-1] == "the closed-form spectrum is not simple"


class TestKrausOperators:
    @pytest.mark.parametrize(
        "family_maker,params",
        [(two_level_family, WORKED_2), (three_level_family, WORKED_3)],
        # Both names are one function, so pytest would name both cases after it.
        ids=["two_level_family-params0", "three_level_family-params1"],
    )
    def test_completeness_at_all_times(self, family_maker, params):
        """sum K_i^dag K_i = I for every t: the map stays trace preserving."""
        family = family_maker(params)
        eye = np.eye(family.dim)
        for t in (0.0, 0.1, 0.5, 1.0, 5.0, 50.0):
            ops = kraus_at(family, t)
            total = sum(k.conj().T @ k for k in ops)
            np.testing.assert_allclose(total, eye, atol=1e-12)

    def test_completeness_random_parameters(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a = rng.uniform(0, 1, size=3)
            a = a / a.sum() * rng.uniform(0.1, 0.99)
            family = two_level_family(TwoLevelParams(*a, gamma=rng.uniform(0.1, 3.0)))
            total = sum(k.conj().T @ k for k in kraus_at(family, 0.7))
            np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_identity_channel_at_t_zero(self):
        family = two_level_family(WORKED_2)
        rho = random_density(np.random.default_rng(11), 2)
        np.testing.assert_allclose(apply_kraus(family, 0.0, rho), rho, atol=1e-15)

    def test_negative_time_rejected(self):
        family = two_level_family(WORKED_2)
        with pytest.raises(ValueError):
            kraus_at(family, -0.5)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
    def test_instants_outside_the_half_line_are_refused(self, t):
        """The Kraus maps take the instants the evolution rule takes, with
        its message: a NaN instant gave NaN operators, and inf the t -> inf
        channel."""
        family = two_level_family(WORKED_2)
        with pytest.raises(ValueError, match="instants must be finite and >= 0"):
            kraus_at(family, t)
        with pytest.raises(ValueError, match="instants must be finite and >= 0"):
            apply_kraus(family, t, np.eye(2) / 2)

    def test_wrong_shape_state_is_refused(self):
        with pytest.raises(ValueError, match=r"state must be 2x2, got \(3, 3\)"):
            apply_kraus(two_level_family(WORKED_2), 0.5, np.eye(3) / 3)

    def test_channel_preserves_state_properties(self):
        rng = np.random.default_rng(12)
        family = three_level_family(WORKED_3)
        for _ in range(10):
            rho = random_density(rng, 3)
            out = apply_kraus(family, rng.uniform(0, 2), rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_a_record_on_its_domain_is_its_family(self):
        assert two_level_family is three_level_family
        assert two_level_family(WORKED_2) is WORKED_2
        assert three_level_family(WORKED_3) is WORKED_3

    def test_kraus_maps_refuse_a_record_off_its_domain(self):
        """The Kraus maps check the domain themselves: a record off it would
        take the square root of a negative number."""
        off = TwoLevelParams(0.6, 0.5, 0.3)
        message = "; ".join(validate_two_level(off).violations)
        assert message.startswith("a1+a2+a3 = 1.4")
        for call in (lambda: kraus_at(off, 0.5), lambda: apply_kraus(off, 0.5, np.eye(2) / 2),
                     lambda: kraus_vs_semigroup_deviation(off, 0.5, np.eye(2) / 2)):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message

    def test_invalid_parameters_rejected_at_family_construction(self):
        with pytest.raises(ValueError):
            two_level_family(TwoLevelParams(0.6, 0.5, 0.3, gamma=1.0))


class TestGenerators:
    def test_two_level_closed_form_matches_generic_route(self):
        gen = generator_two_level(WORKED_2)
        spec = LindbladSpec(
            hamiltonian=np.zeros((2, 2)),
            jump_operators=(pauli(1), pauli(2), pauli(3)),
            rates=(0.1, 0.2, 0.3),
        )
        np.testing.assert_allclose(gen, generator_from_lindblad(spec), atol=1e-14)

    def test_one_function_under_each_model_name(self):
        assert generator_two_level is generator_three_level is generator_of
        assert validate_two_level is validate_three_level

    def test_generator_of_family_dispatch(self):
        np.testing.assert_allclose(
            generator_of(two_level_family(WORKED_2)), generator_two_level(WORKED_2)
        )
        np.testing.assert_allclose(
            generator_of(three_level_family(WORKED_3)), generator_three_level(WORKED_3)
        )

    def test_identity_is_stationary(self):
        for gen, n in ((generator_two_level(WORKED_2), 2), (generator_three_level(WORKED_3), 3)):
            np.testing.assert_allclose(
                gen @ matcore.vec(np.eye(n) / n), np.zeros(n * n), atol=1e-14
            )

    def test_trace_is_conserved(self):
        """vec(I)^dag L = 0: the generator has no trace-changing component."""
        for gen, n in ((generator_two_level(WORKED_2), 2), (generator_three_level(WORKED_3), 3)):
            np.testing.assert_allclose(
                matcore.vec(np.eye(n)).conj() @ gen, np.zeros(n * n), atol=1e-14
            )

    def test_generators_are_hermitian_superoperators(self):
        # Hermitian jump operators + no Hamiltonian make L self-adjoint in
        # the Hilbert-Schmidt geometry, which the reconstruction exploits
        for gen in (generator_two_level(WORKED_2), generator_three_level(WORKED_3)):
            np.testing.assert_allclose(gen, gen.conj().T, atol=1e-14)

    def test_hamiltonian_term_sign(self):
        """d rho/dt = -i[H, rho] for a pure Hamiltonian generator."""
        h = np.array([[1.0, 0.3], [0.3, -1.0]])
        spec = LindbladSpec(hamiltonian=h, jump_operators=(), rates=())
        gen = generator_from_lindblad(spec)
        rho = random_density(np.random.default_rng(13), 2)
        lhs = matcore.unvec(gen @ matcore.vec(rho), 2, 2)
        np.testing.assert_allclose(lhs, -1j * (h @ rho - rho @ h), atol=1e-13)

    @pytest.mark.parametrize("h,jumps,rates,match", [
        (np.zeros((2, 3)), (), (), "Hamiltonian must be square"),
        (np.zeros((2, 2)), (pauli(1), pauli(2)), (0.5,), "one rate per jump operator"),
        (np.zeros((2, 2)), (np.eye(3),), (0.5,), "share the Hamiltonian's shape"),
    ], ids=["non-square H", "rate count", "jump shape"])
    def test_lindblad_spec_refuses_malformed_data(self, h, jumps, rates, match):
        with pytest.raises(ValueError, match=match):
            LindbladSpec(hamiltonian=h, jump_operators=jumps, rates=rates)

    def test_lindblad_spec_validation(self):
        with pytest.raises(ValueError):
            LindbladSpec(
                hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]),  # not Hermitian
                jump_operators=(),
                rates=(),
            )
        with pytest.raises(ValueError):
            LindbladSpec(
                hamiltonian=np.zeros((2, 2)),
                jump_operators=(pauli(1),),
                rates=(-0.5,),
            )


unit = st.floats(0.0, 1.0)
gammas = st.floats(0.1, 4.0)


@st.composite
def two_level_points(draw):
    """(a1, a2, a3) in the CPTP domain: weights scaled to a total < 1."""
    w = np.array([draw(unit) for _ in range(3)]) + 1e-3
    return tuple(float(x) for x in w / w.sum() * 0.999 * draw(unit))


@st.composite
def three_level_points(draw):
    """(a1..a6) in the CPTP domain: a4 + a5 <= a1 + a2 + a3 keeps a8 >= 0,
    a6 <= a4 + a5 keeps a7 >= 0, and a1, a2, a3 <= 0.16 keeps f <= 0.96."""
    a1, a2, a3 = (0.16 * draw(unit) for _ in range(3))
    s3 = a1 + a2 + a3
    a4, a5 = (draw(unit) * s3 / 2 for _ in range(2))
    a6 = draw(unit) * (a4 + a5)
    return (a1, a2, a3, a4, a5, a6)


def lindblad_route(ops, coefficients, gamma):
    n = ops[0].shape[0]
    spec = LindbladSpec(
        hamiltonian=np.zeros((n, n)),
        jump_operators=ops,
        rates=tuple(gamma * a for a in coefficients),
    )
    return generator_from_lindblad(spec)


class TestGeneratorProperties:
    """Both family generators, gamma sum_k a_k D(B_k) over the dissipator
    stacks, against the generic Lindblad route on random in-domain points."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(a=two_level_points(), gamma=gammas)
    def test_two_level_matches_lindblad_route(self, a, gamma):
        p = TwoLevelParams(*a, gamma=gamma)
        ops = tuple(pauli(k) for k in (1, 2, 3))
        expected = lindblad_route(ops, p.coefficients, gamma)
        np.testing.assert_allclose(generator_two_level(p), expected, rtol=0, atol=1e-14)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(a=three_level_points(), gamma=gammas)
    def test_three_level_matches_lindblad_route(self, a, gamma):
        p = ThreeLevelParams(*a, gamma=gamma)
        assert validate_three_level(p).cptp_domain
        ops = tuple(gellmann(k) for k in range(1, 9))
        expected = lindblad_route(ops, p.coefficients, gamma)
        np.testing.assert_allclose(generator_three_level(p), expected, rtol=0, atol=1e-14)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(a2=two_level_points(), a3=three_level_points(), gamma=gammas)
    def test_generators_are_exactly_real_symmetric(self, a2, a3, gamma):
        for gen in (
            generator_two_level(TwoLevelParams(*a2, gamma=gamma)),
            generator_three_level(ThreeLevelParams(*a3, gamma=gamma)),
        ):
            assert np.array_equal(gen, gen.T)
            assert np.all(gen.imag == 0)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(a2=two_level_points(), a3=three_level_points(), gamma=gammas)
    def test_generator_is_the_fixed_order_sum(self, a2, a3, gamma):
        """gamma a_1 D(B_1) + gamma a_2 D(B_2) + ..., added in that order, bit
        for bit: the acceptance criteria's numeric spectra rest on it."""
        for p, stack in (
            (TwoLevelParams(*a2, gamma=gamma), _PAULI_DISSIPATORS),
            (ThreeLevelParams(*a3, gamma=gamma), _GELLMANN_DISSIPATORS),
        ):
            terms = [(gamma * a) * dissipator for a, dissipator in zip(p.coefficients, stack)]
            expected = sum(terms[1:], terms[0])  # adds left to right
            gen = _family_generator(p)
            assert gen.dtype == np.float64
            assert np.array_equal(gen, expected)


def closed_form_flag(point):
    """(flag, relative distance from its cut) of the rule the validators
    state: every gap of the sorted paper spectrum at gamma = 1 above
    2 CLUSTER_TOL max|a|, a zero point reading its scale as 1."""
    if len(point) == 3:
        p = TwoLevelParams(*point)
        spectrum = closed_form_spectrum_two_level(p)
    else:
        p = ThreeLevelParams(*point)
        spectrum = closed_form_spectrum_three_level(p)
    gap = np.diff(np.sort(spectrum)).min()
    cut = 2.0 * matcore.CLUSTER_TOL * (max(abs(a) for a in p.coefficients) or 1.0)
    return bool(gap > cut), abs(gap - cut) / cut if cut else np.inf


def scalar_domain(point):
    """(cptp_domain, nondegenerate) of one point by the per-point rule the
    validators state: each coefficient >= 0, the bound <= 1, and a simple
    closed-form spectrum."""
    if len(point) == 3:
        coeffs = list(point)
        bound = point[0] + point[1] + point[2]
    else:
        a1, a2, a3, a4, a5, a6 = point
        coeffs = [*point, a4 + a5 - a6, a1 + a2 + a3 - a4 - a5]
        bound = (2.0 / 3.0) * (2 * (a1 + a2 + a3) + a4 + a5)
    cptp = not any(v < 0 for v in coeffs) and not bound > 1
    return cptp, closed_form_flag(point)[0]


@st.composite
def boundary_point(draw, d):
    """A point on or one ulp beside a domain boundary: a_i = 0, the bound
    equal to 1 (a1+a2+a3 or f), a7 = 0, a8 = 0, or a tie."""
    a = [draw(st.sampled_from([0.0, 0.05, 0.1, 0.125, 0.2, 1 / 3]) | st.floats(0.0, 0.4))
         for _ in range(d)]
    i = draw(st.integers(0, d - 1))
    edge = draw(st.sampled_from(["zero", "bound", "a7", "a8", "tie"]))
    if edge == "zero":
        a[i] = 0.0
    elif edge == "bound" and d == 3:
        a[i] = 1.0 - a[(i + 1) % 3] - a[(i + 2) % 3]
    elif edge == "bound":
        i = 4
        a[4] = 1.5 - 2 * (a[0] + a[1] + a[2]) - a[3]
    elif edge == "a7" and d == 6:
        i = 5
        a[5] = a[3] + a[4]
    elif edge == "a8" and d == 6:
        i = 4
        a[4] = a[0] + a[1] + a[2] - a[3]
    else:
        a[i] = a[(i + 1) % d]
    step = draw(st.sampled_from([0, 0, -1, 1]))
    if step:
        a[i] = float(np.nextafter(a[i], step * np.inf))
    return tuple(a)


def spectrum_rows(d):
    """(modes, d) matrix of the unit-rate paper spectrum, linear in the point."""
    spectrum = closed_form_spectrum_two_level if d == 3 else closed_form_spectrum_three_level
    params = TwoLevelParams if d == 3 else ThreeLevelParams
    return np.array([spectrum(params(*np.eye(d)[i])) for i in range(d)]).T


@st.composite
def near_degenerate_point(draw, d):
    """A point of either sign, in or out of the domain: free, or with two
    modes (the stationary one among them) tied, or moved apart from a tie by
    a gap spread around the cluster cut."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(draw(st.sampled_from([-0.5, 0.0])), 0.5, size=d)
    rows = spectrum_rows(d)
    k, m = rng.choice(len(rows), size=2, replace=False)
    slope = rows[k] - rows[m]
    i = rng.choice(np.flatnonzero(slope))
    kind = draw(st.sampled_from(["free", "tie", "near", "near"]))
    if kind != "free":
        a[i] -= slope @ a / slope[i]
    if kind == "near":
        gap = 2 * matcore.CLUSTER_TOL * 10.0 ** rng.uniform(-1.5, 1.5) * np.abs(a).max()
        a[i] += rng.choice([-1.0, 1.0]) * gap / slope[i]
    return tuple(a.tolist())


class TestFamilyDomain:
    @pytest.mark.parametrize("d", [3, 6])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_array_rule_matches_scalar_rule_at_boundaries(self, d, data):
        points = data.draw(st.lists(boundary_point(d), min_size=1, max_size=8))
        _, _, cptp, distinct = _family_domain(np.array(points))
        validate = validate_two_level if d == 3 else validate_three_level
        params = TwoLevelParams if d == 3 else ThreeLevelParams
        for point, c, n in zip(points, cptp.tolist(), distinct.tolist()):
            report = validate(params(*point))
            assert (c, n) == (report.cptp_domain, report.nondegenerate) == scalar_domain(point)
            assert bool(report.violations) == (not (c and n))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_flag_is_a_simple_closed_form_spectrum(self, data):
        """In and out of the domain, ties with the stationary 0 included."""
        d = data.draw(st.sampled_from([3, 6]))
        point = data.draw(near_degenerate_point(d))
        flag, distance = closed_form_flag(point)
        assume(distance > 1e-6)
        validate = validate_two_level if d == 3 else validate_three_level
        params = TwoLevelParams if d == 3 else ThreeLevelParams
        assert validate(params(*point)).nondegenerate == flag


class TestClosedFormSpectra:
    def test_two_level_worked_example(self):
        vals = np.sort(closed_form_spectrum_two_level(WORKED_2))
        np.testing.assert_allclose(vals, [-1.0, -0.8, -0.6, 0.0], atol=1e-15)

    def test_two_level_matches_numeric(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            a = rng.uniform(0.01, 1, size=3)
            a = a / a.sum() * rng.uniform(0.2, 0.99)
            p = TwoLevelParams(*a, gamma=rng.uniform(0.2, 4.0))
            numeric = np.sort(np.linalg.eigvals(generator_two_level(p)).real)
            closed = np.sort(closed_form_spectrum_two_level(p))
            np.testing.assert_allclose(numeric, closed, atol=1e-10)

    def test_three_level_worked_example(self):
        vals = np.sort(closed_form_spectrum_three_level(WORKED_3))
        expected = [-0.93, -0.91, -0.89, -0.87, -0.83, -0.73, -0.63, -0.39, 0.0]
        np.testing.assert_allclose(vals, expected, atol=1e-15)

    def test_three_level_matches_numeric(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 100:
            a = rng.uniform(0.01, 0.4, size=6)
            p = ThreeLevelParams(*a, gamma=rng.uniform(0.2, 4.0))
            if not validate_three_level(p).cptp_domain:
                continue
            checked += 1
            numeric = np.sort(np.linalg.eigvals(generator_three_level(p)).real)
            closed = np.sort(closed_form_spectrum_three_level(p))
            np.testing.assert_allclose(numeric, closed, atol=1e-10)

    def test_gamma_scales_the_spectrum(self):
        base = closed_form_spectrum_two_level(WORKED_2)
        scaled = closed_form_spectrum_two_level(TwoLevelParams(0.1, 0.2, 0.3, gamma=2.5))
        np.testing.assert_allclose(np.sort(scaled), np.sort(base) * 2.5, atol=1e-14)


class TestGammaLimit:
    @pytest.mark.parametrize("n,d,box,limit", [(2, 3, 1.0, "2.24712e+307"), (3, 6, 0.75, "1.33162e+307")])
    def test_radius_is_the_largest_eigenvalue_on_the_domain(self, n, d, box, limit):
        """No coefficient on the CPTP domain exceeds ``box`` (1 for the qubit,
        3/4 for the qutrit).  Seeded draws over that whole box keep every
        unit-rate eigenvalue within _UNIT_RATE_RADIUS of 0 and come within
        1 % of it, the vertex a1 = box reaches it exactly, and no term of the
        closed-form sum has the other sign."""
        radius = _UNIT_RATE_RADIUS[n]
        points = np.random.default_rng(5).uniform(0.0, box, size=(200_000, d))
        coeffs, _, cptp, _ = _family_domain(points)
        values = _family_eigenvalues(coeffs[cptp], 1.0)
        assert values.shape[0] > 500
        assert -radius <= values.min() <= -0.99 * radius
        assert values.max() <= 0 and (_PAULI_RATES if n == 2 else _GELLMANN_RATES).max() <= 0
        vertex = np.zeros((1, d))
        vertex[0, 0] = box
        coeffs, _, cptp, _ = _family_domain(vertex)
        assert cptp[0] and _family_eigenvalues(coeffs, 1.0).min() == -radius
        assert f"{_gamma_limit(n):.6g}" == limit


class TestOneParameterEmbedding:
    def test_spectrum(self):
        for a, gamma in ((0.5, 1.0), (1.5, 2.0), (0.123, 0.7)):
            p = embed_one_param(a, gamma)
            vals = np.sort(closed_form_spectrum_two_level(p))
            expected = np.sort(
                [0.0, -4.0 * gamma / 3.0, -2.0 * a * gamma / 3.0, -2.0 * (2.0 - a) * gamma / 3.0]
            )
            np.testing.assert_allclose(vals, expected, atol=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            embed_one_param(0.0)
        with pytest.raises(ValueError):
            embed_one_param(2.0)

    def test_midpoint_degenerates(self):
        assert not validate_two_level(embed_one_param(1.0)).nondegenerate
        assert validate_two_level(embed_one_param(0.99)).nondegenerate


class TestTangency:
    def test_deviation_vanishes_at_zero(self):
        family = two_level_family(WORKED_2)
        rho = random_density(np.random.default_rng(16), 2)
        assert kraus_vs_semigroup_deviation(family, 0.0, rho) < 1e-14

    def test_second_order_contact(self):
        """deviation(t/2) / deviation(t) -> 1/4: first-order terms agree."""
        rho = random_density(np.random.default_rng(17), 2)
        family = two_level_family(WORKED_2)
        for t in (0.02, 0.01):
            ratio = kraus_vs_semigroup_deviation(family, t / 2, rho) / (
                kraus_vs_semigroup_deviation(family, t, rho)
            )
            assert ratio == pytest.approx(0.25, abs=0.01)

    def test_deviation_positive_away_from_zero(self):
        family = three_level_family(WORKED_3)
        rho = random_density(np.random.default_rng(18), 3)
        assert kraus_vs_semigroup_deviation(family, 0.5, rho) > 1e-6

    def test_deviation_is_bounded_at_late_instants(self):
        """Both maps are channels, so on a state they are at most 2 apart.
        eigh puts the first point's stationary eigenvalue at +3.3e-16, which
        grows e^{lambda t} to 2e14 at t = 1e17 unless it evolves as 0."""
        rng = np.random.default_rng(19)
        points = [(0.5790545744292542, 0.2996938728905012, 0.07754657235100282)]
        points += [tuple(rng.dirichlet(np.ones(4))[:3]) for _ in range(20)]
        for a in points:
            family = two_level_family(TwoLevelParams(*a))
            for t in (1e3, 1e17, 1e300):
                assert kraus_vs_semigroup_deviation(family, t, random_density(rng, 2)) <= 2.0
