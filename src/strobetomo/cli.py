"""Command-line interface.

Four subcommands::

    strobetomo analyze           # spectral/optimality report for a family
    strobetomo check-observable  # admissibility of a Hermitian observable
    strobetomo reconstruct       # simulate-measure-reconstruct, or invert
                                 # an external measurement CSV
    strobetomo scan              # sweep parameter grids to CSV

Exit codes are part of the contract: 0 success/optimal/admissible,
2 valid-but-degenerate or inadmissible, 3 conditioning failure, 1 for any
input or usage error.  A command returns 0, or 2 for a negative report,
and raises each refusal, which :func:`main` alone turns into a code and one
``error:`` line: ``NotReconstructible`` 2 (``reconstruct`` gates on the eta
that sets ``analyze``'s code), ``ConditioningError`` 3, and ``ValueError``,
``OSError``, ``NumericalFailure`` or a usage error 1 (``_write`` reports a
failed write itself).  JSON reports carry a ``schema_version`` field ("3"
for ``check-observable``, "2" for the others) and are strict JSON: a
non-finite number is the string "inf", "-inf" or "nan".  Complex
matrices serialize as ``{"rows": r, "cols": c, "data": [[re, im], ...]}``
with ROW-MAJOR data order (serialization order is deliberately independent
of the column-major vec convention used internally).  Measurement CSVs use
the ``t,value,shots`` layout of :mod:`strobetomo.reconstruct`.

The ``--tol`` flag sets the relative rank tolerance (default 1e-9) for
one invocation; it must be finite and positive.  It is passed explicitly to
every span and planning call the subcommand makes; family eta and mu are
cluster counts, so a scan's CSV is the same at any ``--tol``, and
``analyze``, which makes no rank decision either, only echoes it in its
JSON's ``tolerance`` field.  ``--gamma``
must be finite and positive too, and at most ``channels._gamma_limit``, so
that every family eigenvalue stays finite on the model's CPTP domain; both
are checked before any work.

``scan`` splits its grid's flat indices (lexicographic order) into ranges
of ``SCAN_CHUNK`` (4,096).  A chunk builds and formats only the axis
values it touches, is validated and given closed-form eigenvalues (no
generator, no eigensolver) as arrays, and is written when done, so memory
does not grow with the grid, whatever its shape.  ``--workers N`` maps the
chunks over N processes with ``Pool.imap``, which keeps their order.
``analyze`` reads its spectral block off the same closed form and kernel,
so a scan row equals ``analyze`` at the same point bit for bit, and the CSV
is byte-identical whatever the chunk size or worker count.  ``reconstruct``
gates on that eta too, and hands one ``matcore.eigh`` to all its stages.
Every subcommand thus reads clustered eigenvalues of a Hermitian generator,
as :func:`~strobetomo.analysis.spectral_report` does; discriminants agree
with it to about 1e-12 relative.  In-process :func:`main` calls share one
argument parser.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
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

#: Parameter class of each ``--model``; the class holds the model's facts
#: (its ``dim`` and its ``axes``, the free parameters in CSV column order).
MODELS = {cls.model: cls for cls in (channels.TwoLevelParams, channels.ThreeLevelParams)}

#: Every scan axis, of any model, in CSV column order.
_ALL_AXES = tuple(dict.fromkeys(name for cls in MODELS.values() for name in cls.axes))

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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix JSON needs rows, cols and data fields: {exc}") from exc
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"matrix data must hold rows*cols = {rows * cols} entries")
    if not all(isinstance(entry, (list, tuple)) and len(entry) == 2 for entry in data):
        raise ValueError("matrix entries must be [re, im] pairs")
    try:
        flat = [complex(float(re), float(im)) for re, im in data]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix entries must be [re, im] number pairs: {exc}") from None
    m = matcore.as_matrix(np.array(flat, dtype=complex).reshape(rows, cols, order="C"))
    if np.abs(m).max() > 1e150:  # squared norms and products of entries stay finite
        raise ValueError("matrix entries must not exceed 1e150 in magnitude")
    return m


def _complex_to_json(z: complex) -> list:
    """[re, im], a non-finite part as the scan CSV's "inf", "-inf" or "nan"."""
    z = complex(z)
    return [x if math.isfinite(x) else repr(x) for x in (z.real, z.imag)]


def _open_output(path: str | None):
    """``path`` opened for writing, or stdout for None; the one opener of
    every output file (JSON report, scan CSV, ``--records-out``)."""
    if not path:
        return sys.stdout
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise OSError(f"cannot write output: {exc}") from None


def _emit(payload: dict, output: str | None, code: int) -> int:
    """Write the JSON report to ``output`` or stdout; ``code``, or 1 on failure."""
    return _write(_open_output(output), [json.dumps(payload, indent=2) + "\n"]) or code


def _write(out, parts) -> int | None:
    """Write ``parts`` to ``out`` and flush it, closing a file; None, or 1.

    A failed write is one ``error:`` line, and a broken pipe none.  Bytes a
    failed stdout still buffers would be written again at exit, and fail
    there with an "Exception ignored" message, so its descriptor is first
    pointed at ``os.devnull``.
    """
    try:
        with out if out is not sys.stdout else contextlib.nullcontext():
            out.writelines(parts)
            out.flush()
    except OSError as exc:
        if out is sys.stdout:
            try:
                fd = out.fileno()
            except OSError:  # not a real file (io.UnsupportedOperation)
                pass
            else:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_INPUT
        return _fail(f"cannot write output: {exc}")
    return None


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# model construction from CLI arguments
# ---------------------------------------------------------------------------


def _family_point(args):
    """The parameter class of ``--model`` at ``--params`` and ``--gamma``, its
    validity, and its spectral report read off the closed form as a scan row
    reads it (its eta sets ``analyze``'s code); ValueError off the CPTP domain."""
    cls = MODELS[args.model]
    values = [float(x) for x in args.params.split(",") if x.strip() != ""]
    if len(values) != len(cls.axes):
        raise ValueError(f"{args.model} model takes {len(cls.axes)} parameters, got {len(values)}")
    params = cls(*values, gamma=args.gamma)
    validity = channels._validity(params)
    if not validity.cptp_domain:
        raise ValueError("; ".join(validity.violations))
    eigenvalues = channels._family_eigenvalues([params.coefficients], params.gamma)
    return params, validity, analysis._family_report(eigenvalues)


def _params_json(params) -> dict:
    """Every Kraus coefficient, a1 on, the qutrit's derived a7 and a8 included."""
    return {f"a{i}": a for i, a in enumerate(params.coefficients, 1)}


def _shots(raw: str) -> int | str:
    """``--shots``: "exact", or a whole number by ``measure``'s rule (1e5 too)."""
    if raw == "exact":
        return raw
    with contextlib.suppress(ValueError):
        return int(raw)  # exact past float precision too
    try:
        return reconstruct._shot_count(float(raw))
    except ValueError:
        raise ValueError(f'--shots must be a whole number or "exact", got {raw!r}') from None


def _read_matrix(path: str) -> np.ndarray:
    """The matrix JSON file at ``path``; ValueError for a malformed one."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("matrix JSON is nested too deeply") from None
    return matrix_from_json(obj)


def _load_observable(path: str, params) -> analysis.ObservableSpec:
    obs = analysis.ObservableSpec.from_matrix(_read_matrix(path))
    n = params.dim
    if obs.dim != n:
        raise ValueError(
            f"the {params.model} model needs a {n}x{n} observable, got {obs.dim}x{obs.dim}"
        )
    return obs


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    params, validity, report = _family_point(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "gamma": args.gamma,
        "params": _params_json(params),
        "validity": {
            "cptp_domain": validity.cptp_domain,
            "nondegenerate": validity.nondegenerate,
            "violations": list(validity.violations),
        },
        "spectral": {
            "eigenvalues": [_complex_to_json(z) for z in report.eigenvalues],
            "clusters": [  # a Hermitian generator's cluster size is both multiplicities
                {"value": _complex_to_json(v), "algebraic": size, "geometric": size}
                for v, size in report.clusters
            ],
            "eta": report.eta,
            "mu": report.mu,
            "discriminant": _complex_to_json(report.discriminant),
            "tolerance": args.tol,
        },
        "optimality": {
            "eta": report.eta,
            "mu": report.mu,
            "mu_nonderogatory": report.mu_nonderogatory,
            "mu_alternative_claim": report.mu_alternative_claim,
            "discriminant_nonzero": report.discriminant_nonzero,
            "optimal": report.optimal,
            "criteria_agree": report.criteria_agree,
            "notes": list(report.notes),
        },
    }
    return _emit(payload, args.output, EXIT_OK if report.optimal else EXIT_DEGENERATE)


# ---------------------------------------------------------------------------
# check-observable
# ---------------------------------------------------------------------------


def cmd_check_observable(args) -> int:
    params = _family_point(args)[0]
    try:
        obs = _load_observable(args.observable, params)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load observable: {exc}") from None

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
    params, _, report = _family_point(args)
    n = params.dim
    if report.eta != 1:  # where analyze exits 2
        raise matcore.NotReconstructible(
            "degenerate parameters (eta > 1): a single observable cannot reconstruct the state"
        )
    if not args.observable and args.observable_seed is None:
        raise ValueError("provide --observable FILE or --observable-seed SEED")
    system = matcore.eigh(channels._family_generator(params))  # the one decomposition
    try:  # the observable file wins over the seed
        if args.observable:
            obs = _load_observable(args.observable, params)
        else:
            obs = analysis.random_admissible_observable(system, args.observable_seed, tol=args.tol)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot obtain observable: {exc}") from None

    simulation = args.records is None
    truth = None
    if simulation:
        if not args.rho0:
            raise ValueError("simulation mode needs --rho0 FILE (or pass --records CSV)")
        truth = _read_matrix(args.rho0)
        if truth.shape != (n, n):
            raise ValueError(f"rho0 must be {n}x{n}, got {truth.shape}")
        if np.max(np.abs(truth - truth.conj().T)) > 1e-10:
            raise ValueError("rho0 must be Hermitian")
        if abs(np.trace(truth).real - 1.0) > 1e-10:
            raise ValueError(f"rho0 must have unit trace, got {np.trace(truth).real}")
        shots = _shots(args.shots)
        if shots != "exact" and args.seed is None:
            raise ValueError("finite shot counts require --seed for reproducibility")
        if args.grid == "default":
            grid = reconstruct.default_time_grid(system, n * n - 1)
        else:
            instants = tuple(float(x) for x in args.grid.split(",") if x.strip() != "")
            grid = reconstruct.TimeGrid(instants=instants, horizon=max(instants, default=0.0))
        records = reconstruct.simulate_records(system, obs, truth, grid, shots, seed=args.seed)
        if args.records_out:
            text = io.StringIO()
            reconstruct.records_to_csv(records, text)
            if code := _write(_open_output(args.records_out), [text.getvalue()]):
                return code  # _write has reported the failed write
    else:
        records = reconstruct.records_from_csv(args.records)
        instants = [rec.t for rec in records]
        if len(set(instants)) != len(instants):
            raise ValueError("records CSV contains duplicate time instants")
        ordered = sorted(instants)
        grid = reconstruct.TimeGrid(instants=tuple(ordered), horizon=ordered[-1])

    plan_ = reconstruct.plan(system, obs, grid, tol=args.tol)
    result = reconstruct.execute(plan_, records, psd_project=args.psd_project)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "gamma": args.gamma,
        "params": _params_json(params),
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
    ranges, start, stop, gamma = job
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
    spectra = analysis._family_spectra(values)
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
            raise ValueError(f"--workers must be between 1 and {cpus}, got {args.workers}")
    names = MODELS[model].axes
    stray = [f"--{name}" for name in _ALL_AXES
             if name not in names and getattr(args, name) is not None]
    if stray:
        raise ValueError(f"not an axis of the {model} model: {', '.join(stray)}")
    ranges = []
    for name in names:
        raw = getattr(args, name)
        if raw is None:
            raise ValueError(f"scan over {model} requires --{name}")
        ranges.append(_parse_range(raw))

    total = 1
    for _, _, count in ranges:
        total *= count
    if total > SCAN_POINT_CAP:
        raise ValueError(f"grid holds {total} points, above the {SCAN_POINT_CAP} cap")

    # Flat indices in lexicographic order, last axis fastest, one chunk a job.
    jobs = (
        (ranges, start, min(start + SCAN_CHUNK, total), args.gamma)
        for start in range(0, total, SCAN_CHUNK)
    )
    header = ",".join(names + ("cptp_domain", "nondegenerate", "eta", "mu", "discriminant"))
    out = _open_output(args.output)  # before any worker starts
    with contextlib.ExitStack() as stack:
        if args.workers > 1:
            import multiprocessing

            # spawn, not fork: the parent may hold BLAS or pool threads.
            context = multiprocessing.get_context("spawn")
            pool = stack.enter_context(context.Pool(args.workers))
            chunks = pool.imap(_scan_chunk, jobs)  # imap keeps the chunk order
        else:
            chunks = map(_scan_chunk, jobs)
        return _write(out, itertools.chain([header + "\n"], chunks)) or EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_model_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, choices=list(MODELS))
    counts = ", ".join(f"{len(cls.axes)} for {model}" for model, cls in MODELS.items())
    sub.add_argument(
        "--params", required=True, help=f"comma-separated a-coefficients ({counts})"
    )
    sub.add_argument("--gamma", type=float, default=1.0, help="decoherence rate (default 1)")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for :func:`main` to report as exit 1 with one
    line, like other input errors (argparse's own exit 2 is the code for
    degenerate input here).  Subparsers inherit the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


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
        help="include the nearest unit-trace PSD matrix to the estimate in the report",
    )
    p_rec.add_argument("--output", help="write the JSON result here instead of stdout")

    p_scan = subs.add_parser("scan", help="sweep parameter grids to CSV")
    p_scan.add_argument("--model", required=True, choices=list(MODELS))
    for name in _ALL_AXES:
        p_scan.add_argument(f"--{name}", help=f"{name} value or lo:hi:step range")
    p_scan.add_argument("--gamma", type=float, default=1.0)
    p_scan.add_argument(
        "--workers", type=int, default=1, help="parallel workers, 1 to the CPU count (default 1)"
    )
    p_scan.add_argument("--output", help="write CSV here instead of stdout")

    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code, decided here for every
    refusal the commands raise (see the module docstring); any other
    exception is a fault and propagates."""
    try:
        args = build_parser().parse_args(argv)
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ValueError(f"--tol must be finite and positive, got {args.tol}")
        if not (math.isfinite(args.gamma) and args.gamma > 0):
            raise ValueError(f"--gamma must be finite and positive, got {args.gamma}")
        limit = channels._gamma_limit(MODELS[args.model].dim)
        if args.gamma > limit:
            raise ValueError(f"--gamma must be at most {limit:.6g} for the {args.model} model, "
                             f"so that its eigenvalues stay finite; got {args.gamma}")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except matcore.NotReconstructible as exc:
        return _fail(str(exc), EXIT_DEGENERATE)
    except matcore.ConditioningError as exc:
        return _fail(str(exc), EXIT_CONDITIONING)
    except (argparse.ArgumentError, ValueError, OSError, matcore.NumericalFailure) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
