import io
import warnings

import numpy as np
import pytest

from strobetomo import matcore
from strobetomo.analysis import ObservableSpec, random_admissible_observable
from strobetomo.channels import (
    ThreeLevelParams,
    TwoLevelParams,
    generator_three_level,
    generator_two_level,
)
from strobetomo.matcore import ConditioningError, _hermitian_basis
from strobetomo.reconstruct import (
    _psd_projection,
    MeasurementRecord,
    TimeGrid,
    default_time_grid,
    evolve,
    execute,
    measure,
    plan,
    reconstruct_trajectory,
    records_from_csv,
    records_to_csv,
    simulate_records,
)

GEN_2 = generator_two_level(TwoLevelParams(0.1, 0.2, 0.3, gamma=1.0))
GEN_3_CLUSTERED = generator_three_level(
    ThreeLevelParams(0.1, 0.15, 0.2, 0.05, 0.08, 0.06, gamma=1.0)
)
RHO_2 = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
Q_2 = np.array([[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])  # (A,B,C,D) = (1,0,1,1)

# Qubit points (gamma = 1) whose default horizon T is not recovered as
# 3 * T / 3: that quotient rounds one ulp above T.  Whether it does hangs
# on the last bits of the generator's eigenvalues; these six came from a
# seeded search (Dirichlet draws, seed 2026) with T read off the
# generator's ``eigh``.
ROUNDING_HORIZON_POINTS = (
    (0.03460905084839486, 0.04059313468718489, 0.09683929086441696),
    (0.31060205142567426, 0.20913680513889477, 0.06492444278046527),
    (0.2298335969388818, 0.38161968652821787, 0.048773102013226946),
    (0.06649972585630806, 0.15693843831529686, 0.14944227215372985),
    (0.24925143488657786, 0.17906223206994207, 0.4212268045279457),
    (0.21964527545217621, 0.07517711116443775, 0.134817726853706),
)

# Former rounding-horizon points, kept as plain exact round trips: those of
# the closed-form (np.kron) generators, then those of T read off the general
# ``eigvals`` route under the dissipator-stack generators.
FORMER_ROUNDING_HORIZON_POINTS = (
    (0.5060275912134737, 0.016167606158652006, 0.2384854486110743),
    (0.0636249281711857, 0.591446624969274, 0.029604748639981415),
    (0.21714891786285906, 0.008191700567180327, 0.5051713764129117),
    (0.34125455555265904, 0.2865397630115275, 0.3582240286856516),
    (0.20890881529165306, 0.39106540738776796, 0.15221730384825927),
    (0.22958226079448907, 0.0469814706536863, 0.494171590920257),
    (0.3234949257999031, 0.21091392236528683, 0.3028001204628041),
    (0.01701812989457538, 0.051065830535631, 0.20854911807518017),
    (0.28130787549150865, 0.3384725022812794, 0.31228439443137684),
    (0.4073044140030302, 0.27814581088663043, 0.2511533164626372),
    (0.16476133346437385, 0.3090292560996067, 0.3421320375847499),
)


#: (generator, parameters, instant) at which eigh rounds the stationary
#: eigenvalue negative, by enough that e^{lambda t} loses the trace: the qubit
#: at gamma 1e300 (-2.5e283), the README qutrit point at gamma 1e100, and a
#: qubit point at gamma 1 and t = 1e17.
LATE_INSTANT_CASES = (
    (generator_two_level, TwoLevelParams(0.1, 0.2, 0.3, gamma=1e300), 1.0),
    (generator_three_level, ThreeLevelParams(0.1, 0.15, 0.2, 0.05, 0.08, 0.06, gamma=1e100), 1e-70),
    (generator_two_level,
     TwoLevelParams(0.5697191478592772, 0.1454599537609269, 0.19246349496833237), 1e17),
)


def count_decompositions(monkeypatch):
    """Record, in order, every numpy.linalg eigendecomposition made from
    now on."""
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def assert_exact_round_trip(gen, grid, obs_seed, rng):
    obs = random_admissible_observable(gen, obs_seed)
    rho = random_density(rng, 2)
    records = simulate_records(gen, obs.matrix, rho, grid, "exact")
    result = execute(plan(gen, obs, grid), records)
    assert np.linalg.norm(result.estimate - rho) < 1e-8


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(instants=(), horizon=1.0)
        with pytest.raises(ValueError):
            TimeGrid(instants=(0.0, 0.5), horizon=1.0)  # instants must be > 0
        with pytest.raises(ValueError):
            TimeGrid(instants=(0.5, 0.5), horizon=1.0)  # strictly increasing
        with pytest.raises(ValueError):
            TimeGrid(instants=(0.5, 1.5), horizon=1.0)  # horizon too short

    @pytest.mark.parametrize(
        "instants,horizon",
        [((0.1, 0.2, np.nan), 1.0), ((0.1, 0.2, np.inf), np.inf), ((0.1, 0.2), np.nan)],
    )
    def test_rejects_non_finite_instants_and_horizon(self, instants, horizon):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(instants=instants, horizon=horizon)

    def test_default_grid_two_level(self):
        """Equispaced with horizon 1/|lambda|_max = 1/1.0 for the worked example."""
        grid = default_time_grid(GEN_2, 3)
        assert grid.p == 3
        assert grid.horizon == pytest.approx(1.0)
        np.testing.assert_allclose(grid.instants, [1 / 3, 2 / 3, 1.0])

    def test_default_grid_three_level(self):
        grid = default_time_grid(GEN_3_CLUSTERED, 8)
        assert grid.p == 8
        assert grid.horizon == pytest.approx(1.0 / 0.93)
        np.testing.assert_allclose(grid.instants, [(j + 1) / 8 / 0.93 for j in range(8)])

    def test_last_instant_is_the_horizon(self):
        """The last instant equals the horizon even where 3 * T / 3 > T,
        and an exact campaign on that grid recovers the state."""
        rng = np.random.default_rng(34)
        for i, a in enumerate(ROUNDING_HORIZON_POINTS):
            gen = generator_two_level(TwoLevelParams(*a, gamma=1.0))
            grid = default_time_grid(gen, 3)
            assert 3 * grid.horizon / 3 > grid.horizon
            assert grid.instants[-1] == grid.horizon
            assert_exact_round_trip(gen, grid, i, rng)

    def test_exact_round_trip_at_former_rounding_points(self):
        rng = np.random.default_rng(35)
        for i, a in enumerate(FORMER_ROUNDING_HORIZON_POINTS):
            gen = generator_two_level(TwoLevelParams(*a, gamma=1.0))
            grid = default_time_grid(gen, 3)
            assert grid.instants[-1] == grid.horizon
            assert_exact_round_trip(gen, grid, i, rng)

    def test_default_grid_decomposes_once(self, monkeypatch):
        """eta and the horizon come from one Hermitian eigendecomposition."""
        calls = count_decompositions(monkeypatch)
        for gen, p in ((GEN_2, 3), (GEN_3_CLUSTERED, 8)):
            calls.clear()
            default_time_grid(gen, p)
            assert calls == ["eigh"]

    def test_default_grid_rejects_degenerate_generator(self):
        gen = generator_two_level(TwoLevelParams(0.2, 0.2, 0.3, gamma=1.0))
        with pytest.raises(ValueError, match="eta"):
            default_time_grid(gen, 3)


class TestEvolveAndMeasure:
    def test_evolution_preserves_state_structure(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            rho = random_density(rng, 2)
            t = rng.uniform(0, 5)
            out = evolve(GEN_2, rho, t)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-10

    def test_maximally_mixed_state_is_stationary(self):
        rho = np.eye(2) / 2
        for t in (0.5, 3.0, 20.0):
            np.testing.assert_allclose(evolve(GEN_2, rho, t), rho, atol=1e-13)

    def test_late_instants_reach_the_stationary_state(self):
        """At gamma 1e200 eigh puts the stationary eigenvalue at about +1e183;
        read as the 0 it rounds, exp(L t) stays finite and gives I/3."""
        gen = generator_three_level(ThreeLevelParams(0.1, 0.15, 0.2, 0.05, 0.08, 0.06, gamma=1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = evolve(gen, np.diag([0.0, 1.0, 0.0]), 1.0)
        np.testing.assert_allclose(rho, np.eye(3) / 3, atol=1e-12)
        for build, params, t in LATE_INSTANT_CASES:
            n = params.dim
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rho = evolve(build(params), np.diag(np.eye(n)[0]), t)
            np.testing.assert_allclose(rho, np.eye(n) / n, atol=1e-12)

    @pytest.mark.parametrize("t", [-1.0, -1000.0, np.nan, np.inf])
    def test_instants_outside_the_half_line_are_refused(self, t):
        """Evolution takes finite instants t >= 0, as kraus_at does."""
        grid = default_time_grid(GEN_2, 3)
        result = execute(plan(GEN_2, Q_2, grid), simulate_records(GEN_2, Q_2, RHO_2, grid, "exact"))
        with pytest.raises(ValueError, match="finite and >= 0"):
            evolve(GEN_2, RHO_2, t)
        with pytest.raises(ValueError, match="finite and >= 0"):
            reconstruct_trajectory(GEN_2, result, [0.5, t])

    def test_growing_mode_is_refused(self):
        with pytest.raises(ValueError, match="growing mode"):
            evolve(-GEN_2, RHO_2, 1.0)

    def test_expectation_real_for_hermitian(self):
        rho = random_density(np.random.default_rng(31), 2)
        val = measure(Q_2, rho, "exact").value
        assert isinstance(val, float)
        assert val == pytest.approx(np.trace(Q_2 @ rho).real)

    def test_exact_measurement(self):
        rec = measure(Q_2, RHO_2, "exact", t=0.4)
        assert rec.shots == "exact"
        assert rec.t == 0.4
        assert rec.value == pytest.approx(np.trace(Q_2 @ RHO_2).real)

    def test_shot_noise_converges_to_expectation(self):
        truth = measure(Q_2, RHO_2, "exact").value
        rec = measure(Q_2, RHO_2, 10**6, seed=99)
        assert rec.value == pytest.approx(truth, abs=5e-3)

    def test_measurement_is_seeded(self):
        a = measure(Q_2, RHO_2, 1000, seed=7)
        b = measure(Q_2, RHO_2, 1000, seed=7)
        c = measure(Q_2, RHO_2, 1000, seed=8)
        assert a.value == b.value
        assert a.value != c.value

    @pytest.mark.parametrize("shots", [2.7, True, np.True_, np.inf, np.nan],
                             ids=["2.7", "True", "np.True_", "inf", "nan"])
    def test_shot_count_that_is_not_whole_is_refused(self, shots):
        """2.7 would draw 2 shots and True 1; both are refused, not truncated."""
        with pytest.raises(ValueError, match="whole number"):
            measure(Q_2, RHO_2, shots, seed=1)
        with pytest.raises(ValueError, match="whole number"):
            MeasurementRecord(t=0.5, value=0.1, shots=shots)

    def test_whole_shot_counts_of_any_type_are_ints(self):
        for shots in (3, 3.0, np.int64(3), np.float64(3.0)):
            assert measure(Q_2, RHO_2, shots, seed=1) == measure(Q_2, RHO_2, 3, seed=1)
            assert type(MeasurementRecord(t=0.5, value=0.1, shots=shots).shots) is int

    def test_invalid_state_rejected(self):
        bad = np.array([[1.5, 0.0], [0.0, -0.5]])  # Born probability -0.5 < -1e-8
        with pytest.raises(ValueError, match="density"):
            measure(np.diag([1.0, -1.0]), bad, 100, seed=0)

    @pytest.mark.parametrize("shots", ["exact", 1000])
    def test_non_hermitian_observable_is_refused(self, shots):
        """Q must be Hermitian to 1e-12 of its largest entry in both modes: the
        shot-noisy path would otherwise sample (Q + Q^dagger)/2."""
        q = np.array([[1.0, 1.0], [0.0, -1.0]])
        grid = default_time_grid(GEN_2, 3)
        with pytest.raises(ValueError, match="Hermitian"):
            simulate_records(GEN_2, q, np.eye(2) / 2, grid, shots, seed=1)
        with pytest.raises(ValueError, match="Hermitian"):
            measure(q, np.eye(2) / 2, shots, seed=1)

    @pytest.mark.parametrize("shots", ["exact", 1000])
    def test_observable_spec_is_accepted(self, shots):
        spec = ObservableSpec.from_matrix(Q_2)
        grid = default_time_grid(GEN_2, 3)
        assert measure(spec, RHO_2, shots, seed=4) == measure(Q_2, RHO_2, shots, seed=4)
        records = simulate_records(GEN_2, spec, RHO_2, grid, shots, seed=4)
        assert records == simulate_records(GEN_2, Q_2, RHO_2, grid, shots, seed=4)

    def test_observable_is_checked_once_per_campaign(self, monkeypatch):
        calls = []
        original = ObservableSpec.from_matrix

        def counting(q):
            calls.append(q)
            return original(q)

        monkeypatch.setattr(ObservableSpec, "from_matrix", staticmethod(counting))
        simulate_records(GEN_2, Q_2, RHO_2, default_time_grid(GEN_2, 3), 100, seed=2)
        assert len(calls) == 1

    def test_simulate_records_deterministic(self):
        grid = default_time_grid(GEN_2, 3)
        a = simulate_records(GEN_2, Q_2, RHO_2, grid, 500, seed=3)
        b = simulate_records(GEN_2, Q_2, RHO_2, grid, 500, seed=3)
        assert [r.value for r in a] == [r.value for r in b]
        assert [r.t for r in a] == list(grid.instants)


class TestPlan:
    def test_worked_example_plan(self):
        grid = default_time_grid(GEN_2, 3)
        p = plan(GEN_2, Q_2, grid)
        assert p.dim == 2
        assert p.p == 3
        assert p.condition_reduced < 1e8
        assert p.forward_matrix.shape == (3, 4)
        np.testing.assert_array_equal(p.reduced_matrix, p.forward_matrix[:, 1:])

    def test_decomposes_once(self, monkeypatch):
        """eta, admissibility and the forward rows come from one ``eigh``."""
        grid = default_time_grid(GEN_2, 3)
        calls = count_decompositions(monkeypatch)
        plan(GEN_2, Q_2, grid)
        assert calls == ["eigh"]

    def test_trace_column_is_unital(self):
        """The dual evolution is unital, so every row's I/sqrt(n) coordinate
        is Tr(Q)/sqrt(n)."""
        grid = default_time_grid(GEN_2, 3)
        for seed in range(5):
            obs = random_admissible_observable(GEN_2, seed)
            p = plan(GEN_2, obs, grid)
            expected = np.trace(obs.matrix).real / np.sqrt(2)
            np.testing.assert_allclose(p.forward_matrix[:, 0], expected, atol=1e-12)

    def test_forward_rows_predict_exact_records(self):
        """forward_matrix @ coords(rho0) are the noiseless records."""
        rng = np.random.default_rng(35)
        grid = default_time_grid(GEN_2, 3)
        p = plan(GEN_2, Q_2, grid)
        basis = _hermitian_basis(2)
        for _ in range(5):
            rho = random_density(rng, 2)
            coords = np.array([np.trace(b @ rho).real for b in basis])
            records = simulate_records(GEN_2, Q_2, rho, grid, "exact")
            np.testing.assert_allclose(
                p.forward_matrix @ coords,
                [r.value for r in records],
                atol=1e-12,
            )

    @staticmethod
    def pauli_closed_form_condition(q, times):
        """The qubit channel is a Pauli channel: sigma_k components decay at
        r_k = -2 gamma (sum of the two other coefficients), so the reduced rows
        are sqrt(2) q_k e^{r_k t_j} in the basis sigma_k / sqrt(2)."""
        a1, a2, a3 = 0.1, 0.2, 0.3
        rates = -2.0 * np.array([a2 + a3, a1 + a3, a1 + a2])
        qk = np.array([q[0, 1].real, -q[0, 1].imag, (q[0, 0] - q[1, 1]).real / 2])
        rows = np.sqrt(2.0) * qk * np.exp(np.outer(times, rates))
        sv = np.linalg.svd(rows, compute_uv=False)
        return sv[0] / sv[-1]

    def test_condition_matches_pauli_closed_form(self):
        grid = default_time_grid(GEN_2, 3)
        for seed in range(5):
            q = random_admissible_observable(GEN_2, seed).matrix
            p = plan(GEN_2, q, grid)
            expected = self.pauli_closed_form_condition(q, np.array(grid.instants))
            assert p.condition_reduced == pytest.approx(expected, rel=1e-10)

    def test_late_grid_condition_matches_closed_form(self):
        """At late instants every decaying mode is tiny; rounding of the
        stationary mode must not leak into the reduced rows, or the
        condition number (and the gate's verdict) is wrong."""
        grid = TimeGrid(instants=(50.0, 55.0, 60.0), horizon=60.0)
        expected = self.pauli_closed_form_condition(Q_2, np.array(grid.instants))
        assert expected > 1e11
        with pytest.raises(ConditioningError) as err:
            plan(GEN_2, Q_2, grid)
        assert err.value.condition == pytest.approx(expected, rel=1e-6)

    def test_wrong_instant_count(self):
        grid = TimeGrid(instants=(0.2, 0.5), horizon=1.0)
        with pytest.raises(ValueError, match="n\\^2 - 1"):
            plan(GEN_2, Q_2, grid)

    def test_degenerate_generator_rejected(self):
        gen = generator_two_level(TwoLevelParams(0.2, 0.2, 0.3, gamma=1.0))
        grid = TimeGrid(instants=(0.3, 0.6, 1.0), horizon=1.0)
        with pytest.raises(ValueError, match="eta"):
            plan(gen, Q_2, grid)

    def test_non_trace_preserving_generator_rejected(self):
        """The trace column is Tr Q / sqrt(n) only when vec(I)^dagger L = 0."""
        grid = default_time_grid(GEN_2, 3)
        with pytest.raises(ValueError, match="trace-preserving"):
            plan(GEN_2 - 0.1 * np.eye(4), Q_2, grid)

    def test_inadmissible_observable_rejected(self):
        grid = default_time_grid(GEN_2, 3)
        with pytest.raises(ValueError, match="span"):
            plan(GEN_2, np.diag([1.0, -1.0]), grid)

    def test_clustered_three_level_hits_conditioning_gate(self):
        """The 3-level worked example cannot be inverted in float64.

        Five decay rates within 0.10 of each other put the best achievable
        design conditioning near 1e10 (measured by direct optimization over
        instants and observables), above the 1e8 validity bound, so the
        plan must refuse rather than return garbage.
        """
        rng = np.random.default_rng(32)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q = (x + x.conj().T) / 2
        grid = default_time_grid(GEN_3_CLUSTERED, 8)
        with pytest.raises((ConditioningError, ValueError)):
            plan(GEN_3_CLUSTERED, q, grid)


class TestRefusalTypes:
    """A verdict (eta != 1, a failed span check) raises ``NotReconstructible``,
    a ValueError; malformed input a plain ValueError."""

    TIE = generator_two_level(TwoLevelParams(0.2, 0.2, 0.3, gamma=1.0))

    def test_verdicts(self):
        verdict = matcore.NotReconstructible
        assert issubclass(verdict, ValueError)
        grid = default_time_grid(GEN_2, 3)
        with pytest.raises(verdict, match="eta = 2"):
            default_time_grid(self.TIE, 3)
        with pytest.raises(verdict, match="eta = 2"):
            plan(self.TIE, Q_2, grid)
        with pytest.raises(verdict, match="span"):
            plan(GEN_2, np.diag([1.0, -1.0]), grid)

    @pytest.mark.parametrize("call,match", [
        (lambda: default_time_grid(GEN_2, 0), "grid needs at least one instant, got p = 0"),
        (lambda: default_time_grid(np.zeros((1, 1)), 1), "zero spectrum"),
        (lambda: measure(np.diag([1.0, -1.0]), np.diag([0.5, 0.5j]), "exact"),
         "non-negligible imaginary part"),
        (lambda: measure(Q_2, np.zeros((2, 2)), 100, seed=1), "zero total probability"),
        (lambda: MeasurementRecord(t=0.5, value=0.1, shots=0), "shot count must be >= 1, got 0"),
        (lambda: records_from_csv(io.StringIO("t,value,shots\n\n\n")), "holds no records"),
    ], ids=["grid p < 1", "grid zero generator", "imaginary expectation", "zero state",
            "zero shots", "blank rows only"])
    def test_malformed_input_is_refused(self, call, match):
        with pytest.raises(ValueError, match=match) as err:
            call()
        assert not isinstance(err.value, matcore.NotReconstructible)

    @pytest.mark.parametrize("case", ["instant count", "shape", "trace"])
    def test_malformed_input_is_no_verdict(self, case):
        grid = default_time_grid(GEN_2, 3)
        gen, q = GEN_2, Q_2
        if case == "instant count":
            grid = TimeGrid(instants=(0.2, 0.5), horizon=1.0)
        elif case == "shape":
            q = np.eye(3)
        else:
            gen = GEN_2 - 0.1 * np.eye(4)
        with pytest.raises(ValueError) as err:
            plan(gen, q, grid)
        assert not isinstance(err.value, matcore.NotReconstructible)

    def test_overflowing_instants_warn_nothing(self):
        """Instants times rates past the float range give rows of 0 and the
        conditioning gate, with no overflow warning."""
        gen = generator_two_level(TwoLevelParams(0.1, 0.2, 0.3, gamma=1e200))
        obs = random_admissible_observable(gen, 1)
        grid = TimeGrid(instants=(1e200, 2e200, 3e200), horizon=3e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError):
                plan(gen, obs, grid)


class TestExecute:
    def test_worked_example_round_trip(self):
        grid = default_time_grid(GEN_2, 3)
        p = plan(GEN_2, Q_2, grid)
        records = simulate_records(GEN_2, Q_2, RHO_2, grid, "exact")
        result = execute(p, records)
        assert np.linalg.norm(result.estimate - RHO_2) < 1e-8
        assert result.trace_defect < 1e-12
        assert result.hermiticity_defect < 1e-10
        assert result.residual_norm < 1e-10
        assert np.trace(result.estimate).real == pytest.approx(1.0, abs=1e-14)

    def test_random_round_trips_two_level(self):
        rng = np.random.default_rng(33)
        grid = default_time_grid(GEN_2, 3)
        for seed in range(10):
            obs = random_admissible_observable(GEN_2, seed)
            p = plan(GEN_2, obs, grid)
            rho = random_density(rng, 2)
            records = simulate_records(GEN_2, obs.matrix, rho, grid, "exact")
            result = execute(p, records)
            assert np.linalg.norm(result.estimate - rho) < 1e-8

    def test_record_order_does_not_matter(self):
        grid = default_time_grid(GEN_2, 3)
        p = plan(GEN_2, Q_2, grid)
        records = simulate_records(GEN_2, Q_2, RHO_2, grid, "exact")
        result = execute(p, list(reversed(records)))
        assert np.linalg.norm(result.estimate - RHO_2) < 1e-8

    def test_mismatched_records_rejected(self):
        grid = default_time_grid(GEN_2, 3)
        p = plan(GEN_2, Q_2, grid)
        records = simulate_records(GEN_2, Q_2, RHO_2, grid, "exact")
        with pytest.raises(ValueError, match="expected 3 records"):
            execute(p, records[:2])
        shifted = [MeasurementRecord(t=r.t + 0.01, value=r.value, shots=r.shots) for r in records]
        with pytest.raises(ValueError, match="instant"):
            execute(p, shifted)

    def test_psd_projection_output(self):
        grid = default_time_grid(GEN_2, 3)
        p = plan(GEN_2, Q_2, grid)
        records = simulate_records(GEN_2, Q_2, RHO_2, grid, 200, seed=5)
        result = execute(p, records, psd_project=True)
        assert result.psd_estimate is not None
        evals = np.linalg.eigvalsh(result.psd_estimate)
        assert evals.min() > -1e-14
        assert np.trace(result.psd_estimate).real == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def rotated(values, seed):
        """Hermitian matrix with eigenvalues ``values`` in a seeded unitary basis."""
        rng = np.random.default_rng(seed)
        n = len(values)
        u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return (u * np.asarray(values, dtype=float)) @ u.conj().T

    @staticmethod
    def clip_and_renormalise(rho):
        """Clip the negative eigenvalues and renormalise the trace: the
        reference the projection is compared with."""
        evals, evecs = np.linalg.eigh(rho)
        clipped = np.clip(evals, 0.0, None)
        return (evecs * (clipped / clipped.sum())) @ evecs.conj().T

    def test_psd_projection_is_the_simplex_projection_of_the_spectrum(self):
        """Eigenvalues (0.6, 0.5, -0.1) become (0.55, 0.45, 0): the negative
        weight is spread evenly over the rest (Smolin, Gambetta and Smith)."""
        rho = self.rotated([0.6, 0.5, -0.1], seed=3)
        psd = _psd_projection(rho)
        np.testing.assert_allclose(np.linalg.eigvalsh(psd), [0.0, 0.45, 0.55], atol=1e-14)
        np.testing.assert_allclose(psd, self.rotated([0.55, 0.45, 0.0], seed=3), atol=1e-14)

    def test_psd_projection_is_no_farther_than_clipping(self):
        rng = np.random.default_rng(21)
        for seed in range(50):
            values = rng.dirichlet(np.ones(3)) + rng.normal(scale=0.2, size=3)
            rho = self.rotated(values / values.sum(), seed)
            psd = _psd_projection(rho)
            assert np.linalg.eigvalsh(psd).min() > -1e-14
            assert np.trace(psd).real == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(psd, psd.conj().T, atol=0)
            clipped = np.linalg.norm(self.clip_and_renormalise(rho) - rho)
            assert np.linalg.norm(psd - rho) <= clipped + 1e-14

    def test_qubit_psd_projection_is_clipping(self):
        """A unit-trace qubit with a negative eigenvalue projects onto the
        pure state of its other eigenvector, as clipping gives."""
        for seed in range(20):
            rho = self.rotated([1.0 + 0.01 * seed, -0.01 * seed], seed)
            np.testing.assert_allclose(
                _psd_projection(rho), self.clip_and_renormalise(rho), rtol=0, atol=1e-15
            )

    def test_trajectory_round_trip(self):
        grid = default_time_grid(GEN_2, 3)
        p = plan(GEN_2, Q_2, grid)
        records = simulate_records(GEN_2, Q_2, RHO_2, grid, "exact")
        result = execute(p, records)
        times = [0.0, 0.5, 1.7]
        recovered = reconstruct_trajectory(GEN_2, result, times)
        for t, rho_hat in zip(times, recovered):
            np.testing.assert_allclose(rho_hat, evolve(GEN_2, RHO_2, t), atol=1e-8)


class TestRecordCsv:
    def test_round_trip_exact_floats(self, tmp_path):
        grid = default_time_grid(GEN_2, 3)
        records = simulate_records(GEN_2, Q_2, RHO_2, grid, 1234, seed=17)
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        back = records_from_csv(path)
        assert back == records  # bitwise equality through repr round trip

    def test_exact_shots_round_trip(self):
        buf = io.StringIO()
        records = [MeasurementRecord(t=0.25, value=-0.125, shots="exact")]
        records_to_csv(records, buf)
        buf.seek(0)
        assert records_from_csv(buf) == records

    def test_header_is_mandatory(self):
        buf = io.StringIO("0.1,0.2,100\n")
        with pytest.raises(ValueError, match="header"):
            records_from_csv(buf)

    def test_blank_rows_are_skipped(self):
        buf = io.StringIO("t,value,shots\n\n0.25,-0.125,exact\n\n")
        assert records_from_csv(buf) == [MeasurementRecord(t=0.25, value=-0.125, shots="exact")]

    def test_malformed_row(self):
        buf = io.StringIO("t,value,shots\n0.1,0.2\n")
        with pytest.raises(ValueError, match="row"):
            records_from_csv(buf)
