import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strobetomo import cli, matcore
from strobetomo.cli import main, matrix_from_json, matrix_to_json

WORKED_ARGS = ["--model", "two-level", "--params", "0.1,0.2,0.3", "--gamma", "1.0"]


def write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_json(np.asarray(m, dtype=complex))))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


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

    def test_decomposes_once(self, capsys, monkeypatch):
        """The spectral and optimality blocks come from one eigendecomposition."""
        calls = []
        eig = matcore.eig

        def counting_eig(*args, **kwargs):
            calls.append(1)
            return eig(*args, **kwargs)

        monkeypatch.setattr(matcore, "eig", counting_eig)
        code, payload = run_json(capsys, ["analyze", *WORKED_ARGS])
        assert code == 0
        assert len(calls) == 1
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

        def build_axis(*args):
            raise AssertionError("axis built before the cap check")

        monkeypatch.setattr(cli, "_axis", build_axis)
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
        code = main(self.GRID_ARGS + ["--workers", str(workers)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --workers") and captured.err.count("\n") == 1

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
        """Every tolerance the subcommand hands to matcore is the --tol value."""
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
        capsys.readouterr()
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


class TestUsageErrors:
    @pytest.mark.parametrize("argv,needle", [
        (["analyze", "--model", "two-level"], "--params"),
        (["analyze", "--model", "four-level", "--params", "0.1"], "--model"),
        ([], "command"),
        (["reconstruct", *WORKED_ARGS, "--observable-seed", "x"], "--observable-seed"),
    ])
    def test_exit_1_with_one_line(self, capsys, argv, needle):
        assert needle in assert_one_line_error(capsys, main(argv))


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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "reconstruct.json").read_text())
    assert payload["frobenius_error"] < 1e-8
