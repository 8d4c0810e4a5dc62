import errno
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strobetomo import analysis, channels, cli, matcore, reconstruct
from strobetomo.cli import main, matrix_from_json, matrix_to_json

WORKED_ARGS = ["--model", "two-level", "--params", "0.1,0.2,0.3", "--gamma", "1.0"]

#: Acceptance criterion 3's 186th qutrit draw (seed 103): the flag reads
#: nondegenerate next to eta = 2 (fault F).
FAULT_F_PARAMS = ("0.15752838500310942,0.12087229029566031,0.296894396906848,"
                  "0.12269588021277361,0.045498234391776395,0.04732181940925591")
FAULT_F_GAMMA = "2.6005273588543214"

GATE_MESSAGE = "degenerate parameters (eta > 1): a single observable cannot reconstruct the state"


def write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_json(np.asarray(m, dtype=complex))))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def count_decompositions(monkeypatch):
    """Names of the ``numpy.linalg`` eigendecompositions and SVDs called
    from now on, in call order."""
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def assert_one_line_error(capsys, code):
    """Exit 1 with a single ``error:`` line on stderr and nothing on stdout."""
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(40)
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_row_major_data_order(self):
        m = np.array([[1.0 + 2j, 3.0], [4.0, 5.0 - 1j]])
        data = matrix_to_json(m)["data"]
        assert data[0] == [1.0, 2.0]
        assert data[1] == [3.0, 0.0]  # row-major: entry (0,1) comes second

    def test_validation(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[np.inf, 0.0]]})
        with pytest.raises(ValueError):
            matrix_from_json([1, 2, 3])


class TestAnalyze:
    def test_worked_example(self, capsys):
        code, payload = run_json(capsys, ["analyze", *WORKED_ARGS])
        assert code == 0
        assert payload["schema_version"] == "2"
        assert payload["optimality"]["optimal"] is True
        assert payload["spectral"]["eta"] == 1
        assert payload["spectral"]["mu"] == 4
        assert payload["spectral"]["discriminant"][0] == pytest.approx(5.89824e-5, abs=1e-12)
        eigs = sorted(re for re, im in payload["spectral"]["eigenvalues"])
        np.testing.assert_allclose(eigs, [-1.0, -0.8, -0.6, 0.0], atol=1e-10)

    def test_degenerate_exits_2(self, capsys):
        code, payload = run_json(
            capsys, ["analyze", "--model", "two-level", "--params", "0.2,0.2,0.3"]
        )
        assert code == 2
        assert payload["optimality"]["optimal"] is False
        assert payload["validity"]["nondegenerate"] is False

    def test_invalid_params_exit_1(self, capsys):
        assert main(["analyze", "--model", "two-level", "--params", "0.6,0.5,0.3"]) == 1
        assert "error" in capsys.readouterr().err

    def test_wrong_param_count_exit_1(self, capsys):
        assert main(["analyze", "--model", "two-level", "--params", "0.1,0.2"]) == 1

    def test_three_level_worked_example(self, capsys):
        code, payload = run_json(
            capsys,
            ["analyze", "--model", "three-level", "--params", "0.1,0.15,0.2,0.05,0.08,0.06"],
        )
        assert code == 0
        assert payload["params"]["a7"] == pytest.approx(0.07)
        assert payload["params"]["a8"] == pytest.approx(0.32)
        assert payload["spectral"]["mu"] == 9

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", *WORKED_ARGS, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["spectral"]["eta"] == 1

    def test_tol_flag_is_scoped(self, capsys):
        environ = dict(os.environ)
        code, payload = run_json(capsys, ["--tol", "1e-6", "analyze", *WORKED_ARGS])
        assert code == 0
        assert payload["spectral"]["tolerance"] == 1e-6
        assert dict(os.environ) == environ
        code, payload = run_json(capsys, ["analyze", *WORKED_ARGS])
        assert payload["spectral"]["tolerance"] == matcore.DEFAULT_RANK_TOL

    def test_json_is_strict(self, capsys):
        """A non-finite number is written as a string, not as the bare
        ``Infinity`` or ``NaN`` tokens strict JSON parsers reject."""

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        assert main(["analyze", "--model", "two-level", "--params", "0.1,0.2,0.3",
                     "--gamma", "1e200"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["spectral"]["discriminant"] == ["inf", 0.0]
        assert cli._complex_to_json(complex(-np.inf, np.nan)) == ["-inf", "nan"]

    def test_criteria_disagree_where_the_discriminant_underflows(self, capsys):
        """discriminant_nonzero reads the discriminant's value, so the
        cross-check with eta can fail: at gamma 1e-60 the spectrum is simple
        (eta 1, exit 0) but the product of squared gaps underflows to 0."""
        code, payload = run_json(capsys, ["analyze", *WORKED_ARGS[:4], "--gamma", "1e-60"])
        assert code == 0
        assert payload["spectral"]["eta"] == 1
        assert payload["spectral"]["discriminant"] == [0.0, 0.0]
        optimality = payload["optimality"]
        assert optimality["discriminant_nonzero"] is False
        assert optimality["criteria_agree"] is False
        assert optimality["notes"][0] == (
            "eta = 1 and discriminant 0.0 disagree; "
            "for a diagonalizable generator they must coincide"
        )

    def test_chain_of_four_rates_is_one_cluster(self, capsys):
        """Four qutrit rates chained just inside the cluster cut are one
        cluster of four, geometric = algebraic: eta 4 and mu 6, as in the
        scan row of the same point and the reports of its generator."""
        chain = ["0.15", "0.150000003283", "0.150000006566", "0.1", "0.12", "0.069999990151"]
        code, payload = run_json(
            capsys, ["analyze", "--model", "three-level", "--params", ",".join(chain)]
        )
        assert code == 2
        spectral = payload["spectral"]
        assert (spectral["eta"], spectral["mu"]) == (4, 6)
        sizes = [(c["algebraic"], c["geometric"]) for c in spectral["clusters"]]
        assert sizes == [(1, 1)] * 3 + [(4, 4)] + [(1, 1)] * 2
        axes = [f"--a{k}={a}" for k, a in enumerate(chain, 1)]
        assert main(["scan", "--model", "three-level", *axes]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[8:] == ["4", "6", "0.0"]
        gen = channels.generator_three_level(channels.ThreeLevelParams(*map(float, chain)))
        for report in (analysis.spectral_report(gen), analysis.optimality_report(gen)):
            assert (report.eta, report.mu) == (4, 6)

    def test_decomposes_once(self, capsys, monkeypatch):
        """The spectral and optimality blocks come from the scan's closed-form
        eigenvalues: no eigendecomposition and no SVD at all."""
        calls = count_decompositions(monkeypatch)
        code, payload = run_json(capsys, ["analyze", *WORKED_ARGS])
        assert code == 0
        assert calls == []
        assert payload["optimality"]["eta"] == payload["spectral"]["eta"] == 1


class TestCheckObservable:
    def test_admissible(self, capsys, tmp_path):
        q = write_matrix(tmp_path / "q.json", [[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        code, payload = run_json(capsys, ["check-observable", *WORKED_ARGS, "--observable", q])
        assert code == 0
        assert payload["schema_version"] == "3"
        assert payload["admissible"] is True
        assert payload["rank"] == 4
        assert payload["required"] == 4
        # min |c_k| / ||Q|| with c = (C sqrt 2, D sqrt 2, (A - B) / sqrt 2)
        assert payload["margin"] == pytest.approx(np.sqrt(0.5) / np.sqrt(5.0), rel=1e-12)
        assert set(payload) == {
            "schema_version", "model", "admissible", "rank", "required", "margin", "closed_form",
        }
        assert payload["closed_form"]["admissible"] is True
        assert payload["closed_form"] == {
            "A": 1.0, "B": 0.0, "C": 1.0, "D": 1.0, "admissible": True,
        }

    def test_inadmissible_exits_2(self, capsys, tmp_path):
        q = write_matrix(tmp_path / "q.json", [[0.0, 1.0], [1.0, 0.0]])  # sigma_1: D=0, A=B
        code, payload = run_json(capsys, ["check-observable", *WORKED_ARGS, "--observable", q])
        assert code == 2
        assert payload["admissible"] is False
        assert payload["rank"] < payload["required"] == 4
        assert payload["margin"] < 1e-12

    def test_non_hermitian_exits_1(self, capsys, tmp_path):
        q = write_matrix(tmp_path / "q.json", [[0.0, 1.0], [0.0, 0.0]])
        assert main(["check-observable", *WORKED_ARGS, "--observable", q]) == 1

    def test_missing_file_exits_1(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["check-observable", *WORKED_ARGS, "--observable", missing]) == 1

    @pytest.mark.parametrize(
        "model,params,n,dim",
        [
            ("two-level", "0.1,0.2,0.3", 2, 3),
            ("three-level", "0.1,0.15,0.2,0.05,0.08,0.06", 3, 2),
        ],
    )
    def test_wrong_shape_observable_exits_1(self, capsys, tmp_path, model, params, n, dim):
        q = write_matrix(tmp_path / "q.json", np.eye(dim))
        code = main(["check-observable", "--model", model, "--params", params, "--observable", q])
        assert f"needs a {n}x{n} observable, got {dim}x{dim}" in assert_one_line_error(capsys, code)

    def test_non_hermitian_at_its_own_scale_exits_1(self, capsys, tmp_path):
        q = write_matrix(tmp_path / "q.json", 1e-13 * np.array([[1.0, 1.0], [0.0, -1.0]]))
        code = main(["check-observable", *WORKED_ARGS, "--observable", q])
        assert "Hermitian" in assert_one_line_error(capsys, code)


class TestReconstruct:
    RHO = [[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]]

    def reconstruct_args(self, tmp_path, **overrides):
        q = write_matrix(tmp_path / "q.json", [[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        rho = write_matrix(tmp_path / "rho.json", self.RHO)
        argv = ["reconstruct", *WORKED_ARGS, "--observable", q, "--rho0", rho]
        for key, val in overrides.items():
            argv += [f"--{key}", val]
        return argv

    def test_exact_simulation_recovers_state(self, capsys, tmp_path):
        code, payload = run_json(capsys, self.reconstruct_args(tmp_path))
        assert code == 0
        assert payload["frobenius_error"] < 1e-8
        est = matrix_from_json(payload["estimate"])
        np.testing.assert_allclose(est, np.array(self.RHO), atol=1e-8)
        assert payload["shots"] == "exact"
        assert len(payload["grid"]["instants"]) == 3
        assert payload["condition_reduced"] < 1e8
        assert set(payload) == {
            "schema_version", "model", "gamma", "params", "grid", "observable", "shots",
            "estimate", "residual_norm", "hermiticity_defect", "trace_defect",
            "min_eigenvalue", "condition_reduced", "psd_estimate", "frobenius_error",
        }

    def test_finite_shots_require_seed(self, capsys, tmp_path):
        assert main(self.reconstruct_args(tmp_path, shots="1000")) == 1
        assert "seed" in capsys.readouterr().err

    def test_finite_shots_deterministic_under_seed(self, capsys, tmp_path):
        code, first = run_json(
            capsys, self.reconstruct_args(tmp_path, shots="100000", seed="7")
        )
        assert code == 0
        assert first["shots"] == 100000
        assert np.isfinite(first["frobenius_error"])
        assert first["frobenius_error"] > 1e-10  # noisy, not exact
        code, second = run_json(
            capsys, self.reconstruct_args(tmp_path, shots="100000", seed="7")
        )
        assert code == 0
        assert second["frobenius_error"] == first["frobenius_error"]

    def test_shots_in_exponent_notation_run_the_same_campaign(self, capsys, tmp_path):
        """--shots reads a whole number by measure's rule: 1e5 is 100000."""
        runs = [run_json(capsys, self.reconstruct_args(tmp_path, shots=shots, seed="7"))
                for shots in ("100000", "1e5", "100000.0")]
        assert runs[0][0] == 0 and runs[0][1]["shots"] == 100000
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("shots", ["2.5", "abc", "nan", "inf", "1e400"])
    def test_shots_that_are_not_whole_exit_1_naming_the_flag(self, capsys, tmp_path, shots):
        code = main(self.reconstruct_args(tmp_path, shots=shots, seed="7"))
        err = assert_one_line_error(capsys, code)
        assert err == f'error: --shots must be a whole number or "exact", got {shots!r}\n'

    def test_observable_seed_mode(self, capsys, tmp_path):
        rho = write_matrix(tmp_path / "rho.json", self.RHO)
        code, payload = run_json(
            capsys,
            [
                "reconstruct", *WORKED_ARGS,
                "--observable-seed", "3", "--rho0", rho,
            ],
        )
        assert code == 0
        assert payload["frobenius_error"] < 1e-8

    def test_records_round_trip(self, capsys, tmp_path):
        csv_path = str(tmp_path / "records.csv")
        code, simulated = run_json(
            capsys, self.reconstruct_args(tmp_path, **{"records-out": csv_path})
        )
        assert code == 0
        # invert the exported campaign as if it came from a lab
        q = str(tmp_path / "q.json")
        code, inverted = run_json(
            capsys,
            ["reconstruct", *WORKED_ARGS, "--observable", q, "--records", csv_path],
        )
        assert code == 0
        assert "frobenius_error" not in inverted  # no ground truth in records mode
        np.testing.assert_allclose(
            matrix_from_json(inverted["estimate"]),
            matrix_from_json(simulated["estimate"]),
            atol=1e-12,
        )

    def test_records_out_at_late_instants_hold_the_stationary_value(self, capsys, tmp_path):
        """At gamma 1e300 every decaying mode is 0 by the first instant, so
        the plan is refused (exit 3), and the records written before are
        Tr(Q)/2, not the 0.0 of a stationary mode that decayed."""
        csv_path = tmp_path / "records.csv"
        rho = write_matrix(tmp_path / "rho.json", self.RHO)
        code = main(["reconstruct", "--model", "two-level", "--params", "0.1,0.2,0.3",
                     "--gamma", "1e300", "--observable-seed", "1", "--rho0", rho,
                     "--grid", "1e-280,2e-280,3e-280", "--records-out", str(csv_path)])
        assert code == 3
        assert "condition" in capsys.readouterr().err
        gen = channels.generator_two_level(channels.TwoLevelParams(0.1, 0.2, 0.3, gamma=1e300))
        half_trace = np.trace(analysis.random_admissible_observable(gen, 1).matrix).real / 2
        values = [r.value for r in reconstruct.records_from_csv(csv_path)]
        assert values == pytest.approx([half_trace] * 3, rel=1e-15)

    def test_duplicate_record_instants_exit_1(self, capsys, tmp_path):
        csv_path = tmp_path / "dup.csv"
        csv_path.write_text("t,value,shots\n0.5,0.1,exact\n0.5,0.2,exact\n1.0,0.3,exact\n")
        q = write_matrix(tmp_path / "q.json", [[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        code = main(
            ["reconstruct", *WORKED_ARGS, "--observable", q, "--records", str(csv_path)]
        )
        assert code == 1
        assert "duplicate" in capsys.readouterr().err

    def test_degenerate_model_exits_2(self, capsys, tmp_path):
        q = write_matrix(tmp_path / "q.json", [[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        rho = write_matrix(tmp_path / "rho.json", self.RHO)
        code = main(
            [
                "reconstruct", "--model", "two-level", "--params", "0.2,0.2,0.3",
                "--observable", q, "--rho0", rho,
            ]
        )
        assert code == 2

    def test_wrong_instant_count_exits_1(self, capsys, tmp_path):
        """Two instants where the qubit needs three is malformed input, on an
        explicit grid and in a records CSV alike."""
        err = assert_one_line_error(capsys, main(self.reconstruct_args(tmp_path, grid="0.5,1")))
        assert "p = n^2 - 1 = 3 instants, got 2" in err
        csv_path = tmp_path / "two.csv"
        csv_path.write_text("t,value,shots\n0.5,0.1,exact\n1.0,0.2,exact\n")
        argv = ["reconstruct", *WORKED_ARGS, "--observable-seed", "1", "--records", str(csv_path)]
        assert "got 2" in assert_one_line_error(capsys, main(argv))

    @pytest.mark.parametrize("route", [
        ["--observable-seed", "1"],
        ["--observable", "q.json"],
        ["--observable", "q.json", "--grid", "1,2,3,4,5,6,7,8"],
    ])
    def test_fault_f_point_exits_2_on_every_route(self, capsys, tmp_path, route):
        """At acceptance criterion 3's 186th qutrit draw the flag reads
        nondegenerate next to eta = 2; analyze exits 2, and so does every
        reconstruct route, at the gate."""
        point = ["--model", "three-level", "--params", FAULT_F_PARAMS, "--gamma", FAULT_F_GAMMA]
        assert main(["analyze", *point]) == 2
        capsys.readouterr()
        write_matrix(tmp_path / "q.json", np.diag([1.0, 0.2, -0.7]) + 0.1 * np.ones((3, 3)))
        rho = write_matrix(tmp_path / "rho.json", np.eye(3) / 3)
        route = [str(tmp_path / a) if a == "q.json" else a for a in route]
        code = main(["reconstruct", *point, *route, "--rho0", rho])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {GATE_MESSAGE}\n"

    @pytest.mark.parametrize("target", ["missing directory", "/dev/full"])
    def test_unwritable_records_out_exits_1(self, capsys, tmp_path, target):
        if target == "/dev/full" and not os.path.exists(target):
            pytest.skip("no /dev/full")
        path = str(tmp_path / "no" / "r.csv") if target == "missing directory" else target
        argv = self.reconstruct_args(tmp_path, **{"records-out": path})
        err = assert_one_line_error(capsys, main(argv))
        assert err.startswith("error: cannot write output: ")

    @pytest.mark.parametrize("rho,needle", [
        (np.eye(3) / 3, "rho0 must be 2x2, got (3, 3)"),
        ([[0.5, 0.1], [0.3, 0.5]], "rho0 must be Hermitian"),
    ], ids=["wrong shape", "not Hermitian"])
    def test_malformed_rho0_exits_1(self, capsys, tmp_path, rho, needle):
        argv = self.reconstruct_args(tmp_path, rho0=write_matrix(tmp_path / "bad.json", rho))
        assert needle in assert_one_line_error(capsys, main(argv))

    @pytest.mark.parametrize("mode", [
        "exact", "observable seed", "shots", "grid", "records, observable seed",
        "records, observable file", "check-observable",
    ])
    def test_one_generator_eigh_per_command(self, capsys, tmp_path, monkeypatch, mode):
        """The command decomposes the 4x4 generator once and hands that
        eigensystem to every stage; Q's and the estimate's 2x2 eigh are
        not the generator's."""
        q = str(tmp_path / "q.json")
        seeded = ["--observable-seed", "1"]
        csv_path = str(tmp_path / "r.csv")
        if mode.startswith("records"):
            source = self.reconstruct_args(tmp_path, **{"records-out": csv_path})
            if mode == "records, observable seed":
                source = [a for a in source if a not in ("--observable", q)] + seeded
            assert main(source) == 0
            capsys.readouterr()
        argv = {
            "exact": self.reconstruct_args(tmp_path),
            "observable seed": [a for a in self.reconstruct_args(tmp_path)
                                if a not in ("--observable", q)] + seeded,
            "shots": self.reconstruct_args(tmp_path, shots="1000", seed="7"),
            "grid": self.reconstruct_args(tmp_path, grid="0.2,0.5,1.0"),
            "records, observable seed": ["reconstruct", *WORKED_ARGS, *seeded, "--records", csv_path],
            "records, observable file": ["reconstruct", *WORKED_ARGS, "--observable", q,
                                         "--records", csv_path],
            "check-observable": ["check-observable", *WORKED_ARGS, "--observable", q],
        }[mode]
        shapes = []
        original = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        code, payload = run_json(capsys, argv)
        assert code == 0 and payload is not None
        assert shapes.count((4, 4)) == 1
        assert set(shapes) <= {(4, 4), (2, 2)}

    def test_ill_conditioned_grid_exits_3(self, capsys, tmp_path):
        code = main(self.reconstruct_args(tmp_path, grid="50,55,60"))
        assert code == 3
        assert "condition" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [
        "0.1,0.15,0.2,0.05,0.08,0.06",
        "0.170290450317951,0.09533539539483808,0.1163587622682549,"
        "0.15588001075419705,0.10034836517815557,0.17918689441577598",
    ])
    def test_readme_qutrit_point_reaches_the_gate(self, capsys, tmp_path, params):
        """A seeded observable is found at the README qutrit points; the
        default grid is then refused at the conditioning gate (exit 3), not
        at the observable search (exit 1)."""
        rho = write_matrix(tmp_path / "rho.json", np.eye(3) / 3)
        code = main(
            ["reconstruct", "--model", "three-level", "--params", params,
             "--observable-seed", "0", "--rho0", rho]
        )
        assert code == 3
        assert "condition" in capsys.readouterr().err

    def test_wrong_shape_observable_exits_1(self, capsys, tmp_path):
        argv = self.reconstruct_args(tmp_path)
        write_matrix(tmp_path / "q.json", np.eye(3))
        assert "needs a 2x2 observable, got 3x3" in assert_one_line_error(capsys, main(argv))

    @pytest.mark.parametrize("grid", ["0.1,0.2,nan", "0.1,0.2,inf", "nan,0.1,0.2"])
    def test_non_finite_grid_exits_1(self, capsys, tmp_path, grid):
        assert_one_line_error(capsys, main(self.reconstruct_args(tmp_path, grid=grid)))

    def test_invalid_rho0_exits_1(self, capsys, tmp_path):
        q = write_matrix(tmp_path / "q.json", [[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        rho = write_matrix(tmp_path / "rho.json", [[0.9, 0.0], [0.0, 0.3]])  # trace 1.2
        code = main(["reconstruct", *WORKED_ARGS, "--observable", q, "--rho0", rho])
        assert code == 1
        assert "trace" in capsys.readouterr().err

    def test_psd_flag(self, capsys, tmp_path):
        code, payload = run_json(
            capsys,
            self.reconstruct_args(tmp_path, shots="500", seed="11") + ["--psd-project"],
        )
        assert code == 0
        psd = matrix_from_json(payload["psd_estimate"])
        assert np.linalg.eigvalsh(psd).min() > -1e-14


def _near_tie_points(model, count, rng):
    """In-domain points of ``model`` with two coefficients tied to a relative
    1e-10 to 1e-6, at random rates: some fall between the flag's cut and eta's."""
    d = len(cli.MODELS[model].axes)
    points = []
    while len(points) < count:
        a = rng.uniform(0.02, 0.3 if d == 3 else 0.15, d)
        i, j = rng.choice(d, 2, replace=False)
        a[j] = a[i] * (1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-10, -6))
        params = cli.MODELS[model](*a.tolist(), gamma=float(rng.uniform(0.5, 3.0)))
        if channels._validity(params).cptp_domain:
            points.append(["--model", model, "--params", ",".join(map(repr, a.tolist())),
                           "--gamma", repr(params.gamma)])
    return points


def test_reconstruct_refuses_wherever_analyze_exits_2(capsys, tmp_path):
    """``reconstruct`` gates on the eta that sets ``analyze``'s exit code, so
    it refuses every such point with the gate's message, the points whose
    flag reads nondegenerate included."""
    rng = np.random.default_rng(23)
    refused = between = 0
    for model, n in (("two-level", 2), ("three-level", 3)):
        rho = write_matrix(tmp_path / f"rho{n}.json", np.eye(n) / n)
        for point in _near_tie_points(model, 120, rng):
            code, report = run_json(capsys, ["analyze", *point])
            if code != 2:
                continue
            refused += 1
            between += report["validity"]["nondegenerate"]
            code = main(["reconstruct", *point, "--observable-seed", "1", "--rho0", rho])
            captured = capsys.readouterr()
            assert (code, captured.err) == (2, f"error: {GATE_MESSAGE}\n"), point
    assert refused >= 100 and between >= 5


class TestScan:
    GRID_ARGS = [
        "scan", "--model", "two-level",
        "--a1", "0:0.5:0.05", "--a2", "0:0.5:0.05", "--a3", "0.3",
    ]

    def test_grid_shape_and_degeneracy_loci(self, capsys):
        code = main(self.GRID_ARGS)
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a1,a2,a3,cptp_domain,nondegenerate,eta,mu,discriminant"
        assert len(lines) == 1 + 11 * 11
        for line in lines[1:]:
            a1, a2, a3, cptp, nondeg, eta, mu, disc = line.split(",")
            a1, a2, a3 = float(a1), float(a2), float(a3)
            if cptp == "false":
                assert a1 + a2 + a3 > 1.0 + 1e-12
                assert (eta, mu, disc) == ("", "", "")
                continue
            degenerate = (
                abs(a1 - a2) < 1e-9 or abs(a1 - a3) < 1e-9 or abs(a2 - a3) < 1e-9
            )
            assert (nondeg == "false") == degenerate
            assert (float(disc) == 0.0) == degenerate
            assert (eta == "1") == (not degenerate)

    @pytest.mark.parametrize("model,point", [
        ("two-level", ["0.3", "-0.3", "0.2"]),
        ("three-level", ["0.01", "0.02", "0.04", "0.17", "0.03", "0.05"]),
    ])
    def test_off_domain_tie_with_zero_is_degenerate(self, capsys, model, point):
        """Distinct coefficients, but a mode at the stationary eigenvalue 0."""
        axes = [f"--{name}={value}" for name, value in zip(cli.MODELS[model].axes, point)]
        assert main(["scan", "--model", model, *axes]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == ",".join(point) + ",false,false,,,"

    def test_single_point_matches_analyze(self, capsys):
        code = main(
            ["scan", "--model", "two-level", "--a1", "0.1", "--a2", "0.2", "--a3", "0.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[:3] == ["0.1", "0.2", "0.3"]
        assert row[3:6] == ["true", "true", "1"]
        assert row[6] == "4"
        assert float(row[7]) == pytest.approx(5.89824e-5, abs=1e-12)

    @pytest.mark.parametrize("model,axes", [
        ("two-level", ["--a1", "0:0.3:0.1", "--a2", "0.2", "--a3", "0.1:0.2:0.1"]),
        ("three-level", ["--a1", "0.1", "--a2", "0.15", "--a3", "0.2", "--a4", "0.05",
                         "--a5", "0:0.08:0.04", "--a6", "0.04"]),
    ])
    def test_decomposes_nothing(self, capsys, monkeypatch, model, axes):
        """Rows come from closed-form eigenvalues: no eigendecomposition and
        no SVD for any point."""
        calls = count_decompositions(monkeypatch)
        assert main(["scan", "--model", model, *axes]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert calls == []
        assert len(rows) == (8 if model == "two-level" else 3)
        assert all(row.split(",")[len(axes) // 2] == "true" for row in rows)

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        paths = [str(tmp_path / f"scan{i}.csv") for i in range(3)]
        assert main(self.GRID_ARGS + ["--output", paths[0]]) == 0
        assert main(self.GRID_ARGS + ["--output", paths[1]]) == 0
        workers = str(min(2, os.cpu_count() or 1))
        assert main(self.GRID_ARGS + ["--workers", workers, "--output", paths[2]]) == 0
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_row_order_is_lexicographic(self, capsys):
        assert main(
            ["scan", "--model", "two-level", "--a1", "0:0.1:0.1", "--a2", "0.2", "--a3", "0.3"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0.0", "0.1"]

    def test_point_cap(self, capsys):
        code = main(
            [
                "scan", "--model", "two-level",
                "--a1", "0:0.5:0.0001", "--a2", "0:0.5:0.0001", "--a3", "0:0.5:0.0001",
            ]
        )
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_point_cap_is_checked_before_the_axes_are_built(self, capsys, monkeypatch):
        """1e10 + 1 values on one axis are refused from the counts alone."""

        def no_chunk(job):
            raise AssertionError("a chunk was built before the cap check")

        monkeypatch.setattr(cli, "_scan_chunk", no_chunk)
        code = main(
            ["scan", "--model", "two-level", "--a1", "0:1e-300:1e-310", "--a2", "0.2", "--a3", "0.3"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "10000000001 points" in err and "cap" in err

    @pytest.mark.parametrize("raw", ["0:1e300:1e-300", "nan", "0:inf:0.1", "0:1:nan"])
    def test_non_finite_range_exits_1(self, capsys, raw):
        code = main(["scan", "--model", "two-level", "--a1", raw, "--a2", "0.2", "--a3", "0.3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("workers", [-1, 0, (os.cpu_count() or 1) + 1])
    def test_workers_out_of_range_exit_1(self, capsys, monkeypatch, workers):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        code = main(self.GRID_ARGS + ["--workers", str(workers)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --workers") and captured.err.count("\n") == 1

    def test_default_workers_do_not_count_cpus(self, capsys, monkeypatch):
        """One worker needs no CPU count; other counts are still checked."""
        message = f"error: --workers must be between 1 and {os.cpu_count() or 1}, got 0\n"

        def no_count():
            raise AssertionError("os.cpu_count was called")

        with monkeypatch.context() as patch:
            patch.setattr(os, "cpu_count", no_count)
            assert main(self.GRID_ARGS) == 0
        assert capsys.readouterr().out.count("\n") == 1 + 11 * 11
        assert main(self.GRID_ARGS + ["--workers", "0"]) == 1
        assert capsys.readouterr().err == message

    def test_empty_range_exits_1(self, capsys):
        code = main(
            ["scan", "--model", "two-level", "--a1", "0.5:0.1:0.1", "--a2", "0.2", "--a3", "0.3"]
        )
        assert code == 1

    def test_missing_axis_exits_1(self, capsys):
        code = main(["scan", "--model", "two-level", "--a1", "0.1", "--a2", "0.2"])
        assert code == 1
        assert "a3" in capsys.readouterr().err

    def test_three_level_scan(self, capsys):
        code = main(
            [
                "scan", "--model", "three-level",
                "--a1", "0.1", "--a2", "0.15", "--a3", "0.2",
                "--a4", "0.05", "--a5", "0.08", "--a6", "0.04:0.08:0.02",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        # a6 = 0.065 = (a4+a5)/2 is the degenerate midpoint; 0.04/0.06/0.08 are not on it
        for line in lines[1:]:
            assert line.split(",")[7] != "0.0"

    def test_stray_axis_exits_1(self, capsys):
        """A qutrit-only axis on a qubit scan is refused, not ignored."""
        code = main(self.GRID_ARGS + ["--a4", "0.5"])
        assert "--a4" in assert_one_line_error(capsys, code)

    def test_overflowing_discriminant_reads_inf(self, capsys):
        """At gamma 1e200 the discriminant overflows to inf in both scan and
        analyze (where JSON carries it as the string "inf"); eta and mu are
        those of gamma 1."""
        point = ["--a1", "0.1", "--a2", "0.2", "--a3", "0.3"]
        rows = {}
        for gamma in ("1.0", "1e200"):
            assert main(["scan", "--model", "two-level", "--gamma", gamma, *point]) == 0
            rows[gamma] = capsys.readouterr().out.splitlines()[1].split(",")
        assert rows["1e200"][3:7] == rows["1.0"][3:7] == ["true", "true", "1", "4"]
        assert rows["1e200"][7] == "inf"
        code, payload = run_json(
            capsys, ["analyze", "--model", "two-level", "--params", "0.1,0.2,0.3",
                     "--gamma", "1e200"]
        )
        assert code == 0
        spectral = payload["spectral"]
        assert (spectral["eta"], spectral["mu"]) == (1, 4)
        assert spectral["discriminant"] == ["inf", 0.0]


def _scan_bytes(argv, tmp_path, monkeypatch, chunk, workers):
    monkeypatch.setattr(cli, "SCAN_CHUNK", chunk)
    path = tmp_path / f"scan-{chunk}-{workers}.csv"
    assert main([*argv, "--workers", str(workers), "--output", str(path)]) == 0
    return path.read_bytes()


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    model=st.sampled_from(["two-level", "three-level"]),
    lows=st.lists(st.floats(0.0, 0.1), min_size=6, max_size=6),
    counts=st.lists(st.integers(1, 3), min_size=6, max_size=6),
    step=st.floats(0.01, 0.06),
    gamma=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_scan_bytes_do_not_depend_on_chunks_or_workers(model, lows, counts, step, gamma):
    """Chunk sizes 1, 7 and 4096 and one or two workers write the same bytes."""
    d = 3 if model == "two-level" else 6
    argv = ["scan", "--model", model, "--gamma", repr(gamma)]
    for i in range(d):
        hi = lows[i] + (counts[i] - 0.5) * step
        argv += [f"--a{i + 1}", f"{lows[i]!r}:{hi!r}:{step!r}"]
    workers = min(2, os.cpu_count() or 1)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        blobs = {
            (chunk, w): _scan_bytes(argv, pathlib.Path(tmp), mp, chunk, w)
            for chunk, w in [(4096, 1), (1, 1), (7, 1), (7, workers), (4096, workers)]
        }
    first = blobs[(4096, 1)]
    assert first.count(b"\n") == 1 + int(np.prod(counts[:d]))
    assert all(blob == first for blob in blobs.values())


def _scan_axis_arg(lo, step, count):
    return repr(lo) if count == 1 else f"{lo!r}:{lo + (count - 0.5) * step!r}:{step!r}"


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    lows=st.tuples(*[st.floats(0.0, 0.3)] * 3),
    steps=st.tuples(*[st.floats(0.001, 0.05)] * 3),
    counts=st.tuples(*[st.integers(1, 12)] * 3).filter(lambda c: max(c) > 1),
    chunk=st.sampled_from([1, 5, 7, 4096]),
    gamma=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_scan_chunks_are_flat_index_ranges(lows, steps, counts, chunk, gamma):
    """Over 1 to 3 varied qubit axes, some longer than the chunk, the
    coordinate columns are ``repr(lo + k * step)`` in ``itertools.product``
    order, and the bytes equal those of a single-chunk scan."""
    raws = [_scan_axis_arg(*axis) for axis in zip(lows, steps, counts)]
    ranges = [cli._parse_range(raw) for raw in raws]
    assert [count for _, _, count in ranges] == list(counts)
    argv = ["scan", "--model", "two-level", "--gamma", repr(gamma)]
    argv += [arg for i, raw in enumerate(raws) for arg in (f"--a{i + 1}", raw)]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        blob, whole = (_scan_bytes(argv, pathlib.Path(tmp), mp, size, 1)
                       for size in (chunk, cli.SCAN_POINT_CAP))
    assert blob == whole
    rows = [line.split(",")[:3] for line in blob.decode().splitlines()[1:]]
    axes = [[repr(lo + k * step) for k in range(count)] for lo, step, count in ranges]
    assert rows == [list(point) for point in itertools.product(*axes)]


def test_one_axis_scan_memory_is_bounded_by_the_chunk():
    """Under tracemalloc, a 2e5-point one-axis scan peaks within 1 MB of a
    1e4-point one: a chunk builds only its own axis values."""
    step = 2.0**-20  # exact, so the axis holds exactly n points, all in the domain
    point = ["scan", "--model", "two-level", "--a2", "0.2", "--a3", "0.3", "--output", os.devnull]
    assert main([*point, "--a1", "0.1"]) == 0  # builds the parser outside the trace
    peaks = {}
    for n in (10_000, 200_000):
        argv = [*point, "--a1", _scan_axis_arg(0.0, step, n)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200_000] - peaks[10_000] <= 1 << 20


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_scan_memory_does_not_grow_with_the_grid():
    """A child's peak RSS after about 1e5 qubit points stays within 15 MB of
    the same child's after 1e3: rows are written chunk by chunk.  The peak
    is VmHWM, which starts afresh at exec; ``ru_maxrss`` would also count
    the forked copy of this process."""
    script = """
import os, sys
from strobetomo.cli import main
hi = sys.argv[1]
axis = f"0:{hi}:0.01"
assert main(["scan", "--model", "two-level", "--a1", axis, "--a2", axis, "--a3", axis,
             "--output", os.devnull]) == 0
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""
    env = source_env()
    peak_kb = {}
    for hi in ("0.09", "0.46"):  # 10^3 and 47^3 = 103,823 points
        proc = subprocess.run(
            [sys.executable, "-c", script, hi], capture_output=True, text=True, env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        peak_kb[hi] = int(proc.stdout.split()[-1])
    assert peak_kb["0.46"] - peak_kb["0.09"] <= 15 * 1024


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    lows=st.tuples(
        *[st.floats(0.05, 0.15)] * 3, *[st.floats(0.02, 0.06)] * 2, st.floats(0.0, 0.01)
    ),
    step=st.floats(0.002, 0.01),
    gamma=st.floats(0.5, 2.0),
)
def test_qutrit_scan_agrees_with_analyze(lows, step, gamma):
    """Every row of a 2 x 2 x 2 qutrit scan (a4, a5, a6 varied; all in the
    CPTP domain by construction) carries the eta, mu and discriminant that
    analyze reports for the same point."""
    argv = ["scan", "--model", "three-level", "--gamma", repr(gamma)]
    for i, lo in enumerate(lows):
        argv += [f"--a{i + 1}", repr(lo) if i < 3 else f"{lo!r}:{lo + 1.5 * step!r}:{step!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        scan_csv = os.path.join(tmp, "scan.csv")
        report = os.path.join(tmp, "analyze.json")
        assert main(argv + ["--output", scan_csv]) == 0
        with open(scan_csv) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert len(rows) == 8
        for row in rows:
            assert row[6] == "true"
            params = ",".join(row[:6])
            code = main(
                ["analyze", "--model", "three-level", "--params", params,
                 "--gamma", repr(gamma), "--output", report]
            )
            assert code in (0, 2)
            with open(report) as fh:
                spectral = json.load(fh)["spectral"]
            assert int(row[8]) == spectral["eta"]
            assert int(row[9]) == spectral["mu"]
            assert float(row[10]) == spectral["discriminant"][0]


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
    def test_non_finite_or_non_positive_tol_exits_1(self, capsys, tol):
        code = main([f"--tol={tol}", "analyze", "--model", "two-level", "--params", "0.2,0.2,0.3"])
        assert_one_line_error(capsys, code)

    def test_tol_read_as_an_option_exits_1(self, capsys):
        """argparse reads ``-inf`` as an option: a usage error, exit 1."""
        code = main(["--tol", "-inf", "analyze", "--model", "two-level", "--params", "0.1,0.2,0.3"])
        assert "--tol" in assert_one_line_error(capsys, code)


    @pytest.mark.parametrize("command", ["analyze", "check-observable", "reconstruct", "scan"])
    def test_tol_reaches_every_rank_decision(self, capsys, tmp_path, monkeypatch, command):
        """Every tolerance the subcommand hands to matcore is the --tol value.
        A scan and analyze make no rank decision: eta and mu of a family
        generator are its largest cluster and its cluster count, so they read
        no tolerance, and analyze only echoes it in its JSON."""
        seen = []
        rank_tol = matcore._rank_tol

        def spy(tol):
            seen.append(tol)
            return rank_tol(tol)

        monkeypatch.setattr(matcore, "_rank_tol", spy)
        q = write_matrix(tmp_path / "q.json", [[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        rho = write_matrix(tmp_path / "rho.json", [[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        argv = {
            "analyze": ["analyze", *WORKED_ARGS],
            "check-observable": ["check-observable", *WORKED_ARGS, "--observable", q],
            "reconstruct": ["reconstruct", *WORKED_ARGS, "--observable-seed", "5", "--rho0", rho],
            "scan": ["scan", "--model", "two-level", "--a1", "0:0.2:0.1", "--a2", "0.2",
                     "--a3", "0.3"],
        }[command]
        assert main(["--tol", "1e-6", *argv]) == 0
        out = capsys.readouterr().out
        if command == "analyze":
            assert json.loads(out)["spectral"]["tolerance"] == 1e-6
        if command in ("analyze", "scan"):
            assert seen == []
        else:
            assert seen and set(seen) == {1e-6}

    def test_scan_rows_equal_analyze_at_the_same_tol(self, capsys, tmp_path):
        scan_csv = tmp_path / "scan.csv"
        assert main(
            ["--tol", "1e-6", "scan", "--model", "two-level", "--a1", "0.1:0.3:0.1",
             "--a2", "0.2", "--a3", "0.3", "--output", str(scan_csv)]
        ) == 0
        rows = [line.split(",") for line in scan_csv.read_text().splitlines()[1:]]
        assert [row[4] for row in rows] == ["true", "false", "false"]
        for row in rows:
            params = ",".join(row[:3])
            code, payload = run_json(
                capsys, ["--tol", "1e-6", "analyze", "--model", "two-level", "--params", params]
            )
            spectral = payload["spectral"]
            assert spectral["tolerance"] == 1e-6
            assert [int(row[5]), int(row[6]), float(row[7])] == [
                spectral["eta"], spectral["mu"], spectral["discriminant"][0]
            ]

    @pytest.mark.parametrize("model,axes", [
        ("two-level", ["0:0.3:0.05", "0.1", "0.1:0.10000001:0.000000002"]),
        ("three-level", ["0.15", "0.15:0.15000001:0.000000003283", "0.150000006566", "0.1",
                         "0.12", "0.06:0.08:0.01"]),
    ])
    def test_scan_csv_does_not_depend_on_tol(self, tmp_path, model, axes):
        """eta and mu of a family generator need no rank tolerance, so a
        scan over ties and near ties writes the same bytes at any --tol."""
        argv = ["scan", "--model", model]
        argv += [f"--{name}={raw}" for name, raw in zip(cli.MODELS[model].axes, axes)]
        outputs = []
        for tol in ([], ["--tol", "1e-6"]):
            path = tmp_path / f"scan{len(tol)}.csv"
            assert main([*tol, *argv, "--output", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert b",2," in outputs[0]  # the grid holds ties


class TestGamma:
    ARGV = {
        "analyze": ["analyze", "--model", "two-level", "--params", "0.1,0.2,0.6"],
        "check-observable": ["check-observable", "--model", "two-level",
                             "--params", "0.1,0.2,0.6", "--observable", "missing.json"],
        "reconstruct": ["reconstruct", "--model", "two-level", "--params", "0.1,0.2,0.6",
                        "--observable-seed", "5"],
        "scan": ["scan", "--model", "two-level", "--a1", "0", "--a2", "0", "--a3", "0.9"],
    }

    def assert_refused(self, capsys, monkeypatch, command, gamma):
        """Refused before any work, with no warning: no generator or
        eigenvalue is built, and scan writes no header."""

        def no_generators(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(cli.channels, "_family_generator", no_generators)
        monkeypatch.setattr(cli.channels, "_family_eigenvalues", no_generators)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*self.ARGV[command], "--gamma", gamma])
        assert assert_one_line_error(capsys, code).startswith("error: --gamma")

    @pytest.mark.parametrize("gamma", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["analyze", "check-observable", "reconstruct", "scan"])
    def test_non_finite_or_non_positive_gamma_exits_1(self, capsys, monkeypatch, command, gamma):
        self.assert_refused(capsys, monkeypatch, command, gamma)

    @pytest.mark.parametrize("gamma", ["1.7e308", "2.3e307"])
    @pytest.mark.parametrize("command", ["analyze", "check-observable", "reconstruct", "scan"])
    def test_overflowing_gamma_exits_1(self, capsys, monkeypatch, command, gamma):
        """Above channels._gamma_limit (2.25e307 for the qubit) the family
        eigenvalues could overflow."""
        self.assert_refused(capsys, monkeypatch, command, gamma)

    @pytest.mark.parametrize("model,vertex", [
        ("two-level", "1,0,0"), ("three-level", "0.75,0,0,0,0,0"),
    ])
    def test_largest_accepted_gamma_keeps_the_report_finite(self, capsys, model, vertex):
        """At the domain vertex with the largest rates, the largest accepted
        gamma gives finite eigenvalues and cluster values, with no warning;
        the next float up is refused."""
        limit = channels._gamma_limit(2 if model == "two-level" else 3)
        argv = ["analyze", "--model", model, "--params", vertex]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run_json(capsys, [*argv, "--gamma", repr(limit)])
        assert code == 2
        spectral = payload["spectral"]
        values = spectral["eigenvalues"] + [c["value"] for c in spectral["clusters"]]
        assert all(isinstance(x, float) for z in values for x in z)
        assert min(z[0] for z in values) < -1e307
        code = main([*argv, "--gamma", repr(math.nextafter(limit, math.inf))])
        assert assert_one_line_error(capsys, code).startswith("error: --gamma")


@pytest.mark.parametrize("command", ["analyze", "check-observable", "reconstruct", "scan"])
def test_unwritable_output_exits_1(capsys, tmp_path, monkeypatch, command):
    """An --output in a missing directory is one error line, not a traceback;
    scan refuses it before any chunk is built."""
    q = write_matrix(tmp_path / "q.json", [[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
    rho = write_matrix(tmp_path / "rho.json", [[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    argv = {
        "analyze": ["analyze", *WORKED_ARGS],
        "check-observable": ["check-observable", *WORKED_ARGS, "--observable", q],
        "reconstruct": ["reconstruct", *WORKED_ARGS, "--observable", q, "--rho0", rho],
        "scan": ["scan", "--model", "two-level", "--a1", "0.1", "--a2", "0.2", "--a3", "0.3"],
    }[command]

    def no_chunk(job):
        raise AssertionError("a chunk was built before the output was opened")

    monkeypatch.setattr(cli, "_scan_chunk", no_chunk)
    code = main([*argv, "--output", str(tmp_path / "missing" / "out")])
    assert "cannot write output" in assert_one_line_error(capsys, code)


class FullDisk(io.StringIO):
    """A text file whose writes, or whose close, fail as on a full disk."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def full(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self.fail_on == "write":
            self.full()
        return super().write(text)

    def close(self):
        super().close()
        if self.fail_on == "close":
            self.full()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fail_on", ["write", "close"])
def test_scan_write_error_exits_1(capsys, monkeypatch, fail_on, workers):
    """A full disk met while writing the rows or closing the file is one
    error line, not a traceback."""
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(fail_on), raising=False)
    workers = min(workers, os.cpu_count() or 1)
    code = main(["scan", "--model", "two-level", "--a1", "0:0.5:0.05", "--a2", "0.2",
                 "--a3", "0.3", "--workers", str(workers), "--output", "full.csv"])
    err = assert_one_line_error(capsys, code)
    assert err.startswith("error: cannot write output: ") and os.strerror(errno.ENOSPC) in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv,needle", [
        (["analyze", "--model", "two-level"], "--params"),
        (["analyze", "--model", "four-level", "--params", "0.1"], "--model"),
        ([], "command"),
        (["reconstruct", *WORKED_ARGS, "--observable-seed", "x"], "--observable-seed"),
        (["reconstruct", *WORKED_ARGS], "provide --observable FILE or --observable-seed SEED"),
        (["reconstruct", *WORKED_ARGS, "--observable-seed", "1"], "simulation mode needs --rho0"),
        (["scan", "--model", "two-level", "--a1", "0:1", "--a2", "0.2", "--a3", "0.3"],
         "range syntax is lo:hi:step, got '0:1'"),
    ])
    def test_exit_1_with_one_line(self, capsys, argv, needle):
        assert needle in assert_one_line_error(capsys, main(argv))


@pytest.fixture
def fresh_parser():
    """Start from an unbuilt parser, and leave none behind."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


@pytest.mark.usefixtures("fresh_parser")
class TestParserReuse:
    """``main`` builds one parser per process and reuses it."""

    def test_built_once(self, capsys, monkeypatch):
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        for argv in (["analyze", *WORKED_ARGS], ["--tol", "1e-6", "analyze", *WORKED_ARGS],
                     ["scan", "--model", "two-level", "--a1", "0.1", "--a2", "0.2",
                      "--a3", "0.3"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert built.count("strobetomo") == 1

    def test_usage_error_after_a_success(self, capsys):
        assert main(["analyze", *WORKED_ARGS]) == 0
        capsys.readouterr()
        assert "--params" in assert_one_line_error(capsys, main(["analyze", "--model", "two-level"]))
        assert main(["analyze", *WORKED_ARGS]) == 0

    def test_replaced_command_is_reached(self, capsys, monkeypatch):
        """A ``cmd_*`` replaced after the parser was built is the one that
        runs (a tracer wraps them this way)."""
        argv = ["scan", "--model", "two-level", "--a1", "0.1", "--a2", "0.2", "--a3", "0.3"]
        assert main(argv) == 0
        capsys.readouterr()
        seen = []
        monkeypatch.setattr(cli, "cmd_scan", lambda args: seen.append(args.a1) or 7)
        assert main(argv) == 7
        assert seen == ["0.1"]


class TestSchemaRoundTrips:
    def test_emitted_matrices_reparse(self, capsys, tmp_path):
        """Every matrix the CLI emits is readable by its own JSON reader."""
        q = write_matrix(tmp_path / "q.json", [[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        rho = write_matrix(tmp_path / "rho.json", [[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        code, payload = run_json(
            capsys,
            ["reconstruct", *WORKED_ARGS, "--observable", q, "--rho0", rho],
        )
        assert code == 0
        for key in ("observable", "estimate"):
            m = matrix_from_json(payload[key])
            assert m.shape == (2, 2)

    def test_scan_csv_reparses(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(
            [
                "scan", "--model", "two-level",
                "--a1", "0.1", "--a2", "0.2", "--a3", "0.3",
                "--output", str(out),
            ]
        ) == 0
        import csv as csv_mod

        with open(out) as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["discriminant"]) > 0


def test_python_m_strobetomo_runs_the_cli():
    env = source_env()
    proc = subprocess.run(
        [sys.executable, "-m", "strobetomo", "analyze", "--model", "two-level",
         "--params", "0.1,0.2,0.3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["optimality"]["optimal"] is True


def test_scipy_loads_only_where_it_is_used(tmp_path):
    """scipy is used nowhere: importing the package and running every
    subcommand leave it unloaded."""
    q = write_matrix(tmp_path / "q.json", [[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
    rho = write_matrix(tmp_path / "rho.json", [[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    script = f"""
import sys
import strobetomo
from strobetomo.cli import main
assert main(["analyze", "--model", "two-level", "--params", "0.1,0.2,0.3",
             "--output", {str(tmp_path / "analyze.json")!r}]) == 0
assert main(["check-observable", "--model", "two-level", "--params", "0.1,0.2,0.3",
             "--observable", {q!r}, "--output", {str(tmp_path / "check.json")!r}]) == 0
assert main(["scan", "--model", "three-level", "--a1", "0.1", "--a2", "0.15",
             "--a3", "0.2", "--a4", "0.05", "--a5", "0.08", "--a6", "0.04:0.08:0.02",
             "--output", {str(tmp_path / "scan.csv")!r}]) == 0
assert main(["reconstruct", "--model", "two-level", "--params", "0.1,0.2,0.3",
             "--observable-seed", "5", "--rho0", {rho!r},
             "--output", {str(tmp_path / "reconstruct.json")!r}]) == 0
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy loaded"
"""
    env = source_env()
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "reconstruct.json").read_text())
    assert payload["frobenius_error"] < 1e-8


def _stdout_case(command, buffered, tmp_path):
    """argv and environment of a real process writing to stdout, with its
    stdout block-buffered (the default) or not (PYTHONUNBUFFERED)."""
    q = write_matrix(tmp_path / "q.json", [[1.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
    argv = {
        "analyze": ["analyze", *WORKED_ARGS],
        "check-observable": ["check-observable", *WORKED_ARGS, "--observable", q],
        "scan": ["scan", "--model", "two-level", "--a1", "0:0.5:0.05", "--a2", "0.2",
                 "--a3", "0.3"],
        "large-scan": ["scan", "--model", "two-level", "--a1", "0:0.5:0.0001", "--a2", "0.2",
                       "--a3", "0.3"],
    }[command]
    env = source_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return [sys.executable, "-m", "strobetomo", *argv], env


STDOUT_COMMANDS = ["analyze", "check-observable", "scan", "large-scan"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", STDOUT_COMMANDS)
def test_full_stdout_is_one_error_line(command, buffered, tmp_path):
    """A standard output on a full disk is exit 1 and one error line in a
    real process too, where the interpreter flushes stdout again at exit.
    A block-buffered stdout holds a small report until that flush."""
    argv, env = _stdout_case(command, buffered, tmp_path)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    assert proc.stderr.startswith("error: cannot write output: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.returncode == 1


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", STDOUT_COMMANDS)
def test_closed_pipe_is_a_silent_exit_1(command, buffered, tmp_path):
    """A standard output whose reader has gone (``| head``) ends the run
    with exit 1 and nothing on stderr, also at the exit-time flush."""
    argv, env = _stdout_case(command, buffered, tmp_path)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    finally:
        os.close(write)
    assert proc.stderr == ""
    assert proc.returncode == 1
