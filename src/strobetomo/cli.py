"""Command-line interface.

Four subcommands::

    strobetomo analyze           # spectral/optimality report for a family
    strobetomo check-observable  # admissibility of a Hermitian observable
    strobetomo reconstruct       # simulate-measure-reconstruct, or invert
                                 # an external measurement CSV
    strobetomo scan              # sweep parameter grids to CSV

Exit codes are part of the contract: 0 success/optimal/admissible,
2 valid-but-degenerate or inadmissible, 3 conditioning failure, 1 for any
input or usage error.  JSON reports carry a ``schema_version`` field ("3"
for ``check-observable``, "2" for the others) and are strict JSON: a
non-finite number is the string "inf", "-inf" or "nan".  Complex
matrices serialize as ``{"rows": r, "cols": c, "data": [[re, im], ...]}``
with ROW-MAJOR data order (serialization order is deliberately independent
of the column-major vec convention used internally).  Measurement CSVs use
the ``t,value,shots`` layout of :mod:`strobetomo.reconstruct`.

The ``--tol`` flag sets the relative rank tolerance (default 1e-9) for
one invocation; it must be finite and positive.  It is passed explicitly to
every spectral, span and planning call the subcommand makes.  ``--gamma``
must be finite and positive too; both are checked before any work.

``scan`` splits its grid's flat indices (lexicographic order) into ranges
of ``SCAN_CHUNK`` (4,096).  A chunk builds and formats only the axis
values it touches, is validated and given closed-form eigenvalues (no
generator, no eigensolver) as arrays, and is written when done, so memory
does not grow with the grid, whatever its shape.  ``--workers N`` maps the
chunks over N processes with ``Pool.imap``, which keeps their order.
``analyze`` reads its spectral block off the same closed form and kernel,
so a scan row equals ``analyze`` at the same point bit for bit, and the CSV
is byte-identical whatever the chunk size or worker count.  ``reconstruct``
reads eta off each stage's ``eigh``, so no subcommand takes the general
``spectral_report`` route; discriminants agree with it to about 1e-12
relative.  In-process :func:`main` calls share one argument parser.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, channels, matcore, reconstruct

__all__ = ["main", "matrix_to_json", "matrix_from_json"]

SCHEMA_VERSION = "2"
CHECK_OBSERVABLE_SCHEMA_VERSION = "3"

#: Hard cap on scan grid size.
SCAN_POINT_CAP = 10_000_000

#: Grid points a scan validates, decomposes and writes as one batch.
SCAN_CHUNK = 4096

#: Scan axes of each model, in CSV column order.
SCAN_AXES = {
    "two-level": ("a1", "a2", "a3"),
    "three-level": ("a1", "a2", "a3", "a4", "a5", "a6"),
}

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_CONDITIONING = 3


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------


def matrix_to_json(m) -> dict:
    """Row-major [re, im] pair encoding of a complex matrix."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(x.real), float(x.imag)] for x in m.reshape(-1, order="C")],
    }


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`, with full input validation."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"matrix JSON needs rows, cols and data fields: {exc}") from exc
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"matrix data must hold rows*cols = {rows * cols} entries")
    flat = []
    for entry in data:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"matrix entries must be [re, im] pairs, got {entry!r}")
        flat.append(complex(float(entry[0]), float(entry[1])))
    m = np.array(flat, dtype=complex).reshape(rows, cols, order="C")
    return matcore.as_matrix(m)


def _complex_to_json(z: complex) -> list:
    """[re, im], a non-finite part as the scan CSV's "inf", "-inf" or "nan"."""
    z = complex(z)
    return [x if math.isfinite(x) else repr(x) for x in (z.real, z.imag)]


def _emit(payload: dict, output: str | None, code: int) -> int:
    """Write the JSON report; ``code``, or exit 1 if ``output`` cannot be written."""
    text = json.dumps(payload, indent=2)
    if not output:
        print(text)
        return code
    try:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    return code


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# model construction from CLI arguments
# ---------------------------------------------------------------------------


def _parse_params(model: str, raw: str, gamma: float):
    values = [float(x) for x in raw.split(",") if x.strip() != ""]
    if model == "two-level":
        if len(values) != 3:
            raise ValueError(f"two-level model takes 3 parameters, got {len(values)}")
        return channels.TwoLevelParams(*values, gamma=gamma)
    if model == "three-level":
        if len(values) != 6:
            raise ValueError(f"three-level model takes 6 parameters, got {len(values)}")
        return channels.ThreeLevelParams(*values, gamma=gamma)
    raise ValueError(f"unknown model {model!r}")


def _validity(model: str, params) -> channels.ValidityReport:
    if model == "two-level":
        return channels.validate_two_level(params)
    return channels.validate_three_level(params)


def _params_json(model: str, params) -> dict:
    if model == "two-level":
        return {"a1": params.a1, "a2": params.a2, "a3": params.a3}
    out = {f"a{i}": getattr(params, f"a{i}") for i in range(1, 7)}
    out["a7"] = params.a7
    out["a8"] = params.a8
    return out


def _load_observable(path: str, model: str) -> analysis.ObservableSpec:
    with open(path) as fh:
        obj = json.load(fh)
    obs = analysis.ObservableSpec.from_matrix(matrix_from_json(obj))
    n = 2 if model == "two-level" else 3
    if obs.dim != n:
        raise ValueError(f"the {model} model needs a {n}x{n} observable, got {obs.dim}x{obs.dim}")
    return obs


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    try:
        params = _parse_params(args.model, args.params, args.gamma)
    except ValueError as exc:
        return _fail(str(exc))
    validity = _validity(args.model, params)
    if not validity.cptp_domain:
        return _fail("; ".join(validity.violations))

    values = channels._family_eigenvalues([params.coefficients], params.gamma)
    report = analysis._family_report(values, args.tol)
    opt = analysis._optimality(report)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "gamma": args.gamma,
        "params": _params_json(args.model, params),
        "validity": {
            "cptp_domain": validity.cptp_domain,
            "nondegenerate": validity.nondegenerate,
            "violations": list(validity.violations),
        },
        "spectral": {
            "eigenvalues": [_complex_to_json(z) for z in report.spectrum.eigenvalues],
            "clusters": [
                {"value": _complex_to_json(v), "algebraic": a, "geometric": g}
                for v, a, g in report.spectrum.clusters
            ],
            "eta": report.eta,
            "mu": report.mu,
            "discriminant": _complex_to_json(report.discriminant),
            "tolerance": report.tolerance,
        },
        "optimality": {
            "eta": opt.eta,
            "mu": opt.mu,
            "mu_nonderogatory": opt.mu_nonderogatory,
            "mu_alternative_claim": opt.mu_alternative_claim,
            "discriminant_nonzero": opt.discriminant_nonzero,
            "optimal": opt.optimal,
            "criteria_agree": opt.criteria_agree,
            "notes": list(opt.notes),
        },
    }
    return _emit(payload, args.output, EXIT_OK if opt.optimal else EXIT_DEGENERATE)


# ---------------------------------------------------------------------------
# check-observable
# ---------------------------------------------------------------------------


def cmd_check_observable(args) -> int:
    try:
        params = _parse_params(args.model, args.params, args.gamma)
    except ValueError as exc:
        return _fail(str(exc))
    validity = _validity(args.model, params)
    if not validity.cptp_domain:
        return _fail("; ".join(validity.violations))
    try:
        obs = _load_observable(args.observable, args.model)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _fail(f"cannot load observable: {exc}")

    gen = channels._family_generator(params)
    report = analysis.span_report(gen, [obs], tol=args.tol)
    admissible = report.satisfied
    payload = {
        "schema_version": CHECK_OBSERVABLE_SCHEMA_VERSION,
        "model": args.model,
        "admissible": admissible,
        "rank": report.rank,
        "required": report.required,
        "margin": report.margin,
    }
    if obs.dim == 2:
        payload["closed_form"] = {
            "A": obs.a,
            "B": obs.b,
            "C": obs.c,
            "D": obs.d,
            "admissible": analysis.two_level_admissible(obs),
        }
    return _emit(payload, args.output, EXIT_OK if admissible else EXIT_DEGENERATE)


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def cmd_reconstruct(args) -> int:
    try:
        params = _parse_params(args.model, args.params, args.gamma)
    except ValueError as exc:
        return _fail(str(exc))
    validity = _validity(args.model, params)
    if not validity.cptp_domain:
        return _fail("; ".join(validity.violations))
    gen = channels._family_generator(params)
    n = 2 if args.model == "two-level" else 3
    p_needed = n * n - 1

    if not validity.nondegenerate:
        print(
            "error: degenerate parameters (eta > 1): a single observable cannot "
            "reconstruct the state",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE

    # Observable: file wins over seed.
    try:
        if args.observable:
            obs = _load_observable(args.observable, args.model)
        elif args.observable_seed is not None:
            obs = analysis.random_admissible_observable(gen, args.observable_seed, tol=args.tol)
        else:
            return _fail("provide --observable FILE or --observable-seed SEED")
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _fail(f"cannot obtain observable: {exc}")

    simulation = args.records is None
    truth = None
    try:
        if simulation:
            if not args.rho0:
                return _fail("simulation mode needs --rho0 FILE (or pass --records CSV)")
            with open(args.rho0) as fh:
                truth = matrix_from_json(json.load(fh))
            if truth.shape != (n, n):
                return _fail(f"rho0 must be {n}x{n}, got {truth.shape}")
            if np.max(np.abs(truth - truth.conj().T)) > 1e-10:
                return _fail("rho0 must be Hermitian")
            if abs(np.trace(truth).real - 1.0) > 1e-10:
                return _fail(f"rho0 must have unit trace, got {np.trace(truth).real}")
            shots: int | str
            if args.shots == "exact":
                shots = "exact"
            else:
                shots = int(args.shots)
                if args.seed is None:
                    return _fail("finite shot counts require --seed for reproducibility")
            grid = _build_grid(args.grid, gen, p_needed, args.tol)
            records = reconstruct.simulate_records(
                gen, obs.matrix, truth, grid, shots, seed=args.seed
            )
            if args.records_out:
                reconstruct.records_to_csv(records, args.records_out)
        else:
            records = reconstruct.records_from_csv(args.records)
            instants = [rec.t for rec in records]
            if len(set(instants)) != len(instants):
                return _fail("records CSV contains duplicate time instants")
            ordered = sorted(instants)
            grid = reconstruct.TimeGrid(instants=tuple(ordered), horizon=ordered[-1])
    except (OSError, ValueError) as exc:
        return _fail(str(exc))

    try:
        plan_ = reconstruct.plan(gen, obs, grid, tol=args.tol)
    except matcore.ConditioningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE

    try:
        result = reconstruct.execute(plan_, records, psd_project=args.psd_project)
    except ValueError as exc:
        return _fail(str(exc))

    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "gamma": args.gamma,
        "params": _params_json(args.model, params),
        "grid": {"instants": list(plan_.grid.instants), "horizon": plan_.grid.horizon},
        "observable": matrix_to_json(obs.matrix),
        "shots": ("external" if not simulation else shots),
        "estimate": matrix_to_json(result.estimate),
        "residual_norm": result.residual_norm,
        "hermiticity_defect": result.hermiticity_defect,
        "trace_defect": result.trace_defect,
        "min_eigenvalue": result.min_eigenvalue,
        "condition_reduced": result.condition_reduced,
        "psd_estimate": (
            matrix_to_json(result.psd_estimate) if result.psd_estimate is not None else None
        ),
    }
    if truth is not None:
        payload["frobenius_error"] = float(np.linalg.norm(result.estimate - truth))
    return _emit(payload, args.output, EXIT_OK)


def _build_grid(spec: str, gen, p: int, tol: float) -> reconstruct.TimeGrid:
    if spec == "default":
        return reconstruct.default_time_grid(gen, p, tol=tol)
    instants = tuple(float(x) for x in spec.split(",") if x.strip() != "")
    return reconstruct.TimeGrid(instants=instants, horizon=max(instants))


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _parse_range(raw: str) -> tuple[float, float, int]:
    """Either a single float or an inclusive lo:hi:step range, as
    (lo, step, count); value k is ``lo + k * step``, built by each
    :func:`_scan_chunk` for the indices it covers."""
    if ":" not in raw:
        lo, hi, step = float(raw), float(raw), 1.0
    else:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is lo:hi:step, got {raw!r}")
        lo, hi, step = (float(x) for x in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"range bounds and step must be finite, got {raw!r}")
    if step <= 0:
        raise ValueError(f"range step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"range upper bound {hi} below lower bound {lo}")
    span = (hi - lo) / step + 1e-9
    if not math.isfinite(span):
        raise ValueError(f"range {raw!r} holds too many points")
    return lo, step, math.floor(span) + 1


def _scan_chunk(job) -> str:
    """CSV rows of the grid points at flat indices [start, stop), in
    lexicographic order.  Each axis builds (``lo + k * step``) and formats
    only the values the chunk touches, once each; the points are validated,
    given their closed-form eigenvalues and formatted as arrays.  Returns
    text so formatting is fixed at the worker."""
    ranges, start, stop, gamma, tol = job
    index, first, last = np.arange(start, stop), start, stop - 1
    points, columns = [], []
    for lo, step, count in reversed(ranges):
        # This axis runs over (first..last) mod count, so over at most count values.
        coords = [lo + (first + i) % count * step for i in range(min(last - first + 1, count))]
        texts = list(map(repr, coords))
        local = (index - first) % count
        points.append(np.array(coords)[local])
        columns.append(list(map(texts.__getitem__, local.tolist())))
        index, first, last = index // count, first // count, last // count
    coeffs, _, cptp, distinct = channels._family_domain(np.stack(points[::-1], axis=1))
    values = channels._family_eigenvalues(coeffs[cptp], gamma)
    spectra = analysis._family_spectra(values, tol)
    flags = ("false,false,,,\n", "false,true,,,\n", "true,false,", "true,true,")
    tails = list(map(flags.__getitem__, (2 * cptp + distinct).tolist()))
    cells = zip(spectra.eta.tolist(), spectra.mu.tolist(), spectra.discriminant.tolist())
    for i, (eta, mu, disc) in zip(np.flatnonzero(cptp).tolist(), cells):
        tails[i] += f"{eta},{mu},{disc!r}\n"
    return "".join(map(",".join, zip(*columns[::-1], tails)))


def cmd_scan(args) -> int:
    model = args.model
    if args.workers != 1:
        cpus = os.cpu_count() or 1
        if not 1 <= args.workers <= cpus:
            return _fail(f"--workers must be between 1 and {cpus}, got {args.workers}")
    names = SCAN_AXES[model]
    stray = [f"--{name}" for name in SCAN_AXES["three-level"][len(names):]
             if getattr(args, name) is not None]
    if stray:
        return _fail(f"not an axis of the {model} model: {', '.join(stray)}")
    try:
        ranges = []
        for name in names:
            raw = getattr(args, name)
            if raw is None:
                raise ValueError(f"scan over {model} requires --{name}")
            ranges.append(_parse_range(raw))
    except ValueError as exc:
        return _fail(str(exc))

    total = 1
    for _, _, count in ranges:
        total *= count
    if total > SCAN_POINT_CAP:
        return _fail(f"grid holds {total} points, above the {SCAN_POINT_CAP} cap")

    # Flat indices in lexicographic order, last axis fastest, one chunk a job.
    jobs = (
        (ranges, start, min(start + SCAN_CHUNK, total), args.gamma, args.tol)
        for start in range(0, total, SCAN_CHUNK)
    )
    header = ",".join(names + ("cptp_domain", "nondegenerate", "eta", "mu", "discriminant"))
    with contextlib.ExitStack() as stack:
        out = sys.stdout
        if args.output:
            try:
                out = open(args.output, "w", newline="")
            except OSError as exc:
                return _fail(f"cannot write output: {exc}")
        if args.workers > 1:
            import multiprocessing

            # spawn, not fork: the parent may hold BLAS or pool threads.
            context = multiprocessing.get_context("spawn")
            pool = stack.enter_context(context.Pool(args.workers))
            chunks = pool.imap(_scan_chunk, jobs)  # imap keeps the chunk order
        else:
            chunks = map(_scan_chunk, jobs)
        # Closing flushes, so a full disk can fail there too: guard the close.
        try:
            with out if args.output else contextlib.nullcontext():
                out.write(header + "\n")
                out.writelines(chunks)
        except BrokenPipeError:
            raise
        except OSError as exc:
            return _fail(f"cannot write output: {exc}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_model_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, choices=["two-level", "three-level"])
    sub.add_argument(
        "--params",
        required=True,
        help="comma-separated a-coefficients (3 for two-level, 6 for three-level)",
    )
    sub.add_argument("--gamma", type=float, default=1.0, help="decoherence rate (default 1)")


class _UsageError(Exception):
    """A command line argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as exit 1 with one line, like other input errors
    (argparse's own exit 2 is the code for degenerate input here).
    Subparsers inherit the class."""

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first :func:`main` call.  It
    holds no ``cmd_*`` function: :func:`main` looks them up at each call."""
    parser = _Parser(
        prog="strobetomo",
        description="Stroboscopic tomography toolkit: generator diagnostics, "
        "observable admissibility, and single-observable state reconstruction.",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=matcore.DEFAULT_RANK_TOL,
        help="relative rank tolerance, finite and positive (default 1e-9)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="spectral and optimality report")
    _add_model_arguments(p_analyze)
    p_analyze.add_argument("--output", help="write the JSON report here instead of stdout")

    p_check = subs.add_parser("check-observable", help="observable admissibility check")
    _add_model_arguments(p_check)
    p_check.add_argument("--observable", required=True, help="observable matrix JSON file")
    p_check.add_argument("--output", help="write the JSON report here instead of stdout")

    p_rec = subs.add_parser("reconstruct", help="run or invert a measurement campaign")
    _add_model_arguments(p_rec)
    p_rec.add_argument("--observable", help="observable matrix JSON file")
    p_rec.add_argument(
        "--observable-seed",
        type=int,
        help="draw a random admissible observable from this seed instead",
    )
    p_rec.add_argument("--rho0", help="initial state JSON file (simulation mode)")
    p_rec.add_argument(
        "--shots",
        default="exact",
        help='shot count per instant, or "exact" (simulation mode; default exact)',
    )
    p_rec.add_argument("--seed", type=int, help="measurement RNG seed (finite shots)")
    p_rec.add_argument(
        "--grid",
        default="default",
        help='"default" for the equispaced spectral grid, or comma-separated instants',
    )
    p_rec.add_argument("--records", help="invert this measurement CSV instead of simulating")
    p_rec.add_argument("--records-out", help="also write simulated records to this CSV")
    p_rec.add_argument(
        "--psd-project",
        action="store_true",
        help="include the eigenvalue-clipped PSD variant in the report",
    )
    p_rec.add_argument("--output", help="write the JSON result here instead of stdout")

    p_scan = subs.add_parser("scan", help="sweep parameter grids to CSV")
    p_scan.add_argument("--model", required=True, choices=["two-level", "three-level"])
    for name in SCAN_AXES["three-level"]:
        p_scan.add_argument(f"--{name}", help=f"{name} value or lo:hi:step range")
    p_scan.add_argument("--gamma", type=float, default=1.0)
    p_scan.add_argument(
        "--workers", type=int, default=1, help="parallel workers, 1 to the CPU count (default 1)"
    )
    p_scan.add_argument("--output", help="write CSV here instead of stdout")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail(str(exc))
    if not (math.isfinite(args.tol) and args.tol > 0):
        return _fail(f"--tol must be finite and positive, got {args.tol}")
    if not (math.isfinite(args.gamma) and args.gamma > 0):
        return _fail(f"--gamma must be finite and positive, got {args.gamma}")
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except BrokenPipeError:
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
