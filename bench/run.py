"""Benchmark of strobetomo: parameter scans and qubit tomography campaigns.

Usage, from the root of a checkout::

    python3 bench/run.py --workload scan-qubit --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload tomo-qubit --seed 1 --seconds 2 --trace 1 --quick
    python3 bench/run.py --self-test

One process runs one workload: it times set-up in fresh interpreters,
builds the workload's inputs from the seed, runs whole rounds of the same
operations in a closed loop (one client, one operation at a time) until
``--seconds`` have passed, then checks every output.  Times are CPU times
scaled to a reference core (see calibrate.py).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  Outputs, results and traces go to
``.bench_out/`` in the checkout.  See bench/README.md.
"""

import os

# One BLAS thread, fixed before numpy is first imported, here and in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_REPEATS = 5

#: Interpreter start, import, and one small warm-up operation.
SETUP_CODE = (
    "import strobetomo\n"
    "from strobetomo import analysis, channels\n"
    "analysis.spectral_report(channels.generator_two_level(channels.TwoLevelParams(0.1, 0.2, 0.3)))\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(repeats: int) -> float:
    """Median CPU time of a fresh interpreter importing strobetomo and warming up.

    The CPU time (user + system) of each child, from start to exit, like every
    other time the benchmark reports (see ``workloads.cpu_ns``).
    """
    times = []
    for _ in range(repeats):
        before = _children_cpu_s()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(_children_cpu_s() - before)
    return statistics.median(times)


def measure_import_layers(repeats: int) -> dict[str, float]:
    """Import times of numpy, scipy and strobetomo from ``-X importtime``.

    strobetomo's time is its whole import.  numpy's and scipy's are the sums
    of the cumulative times of their entries not nested inside an entry of
    either, so numpy modules that scipy imports count towards scipy.
    """
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "strobetomo": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import strobetomo"],
                              env=_child_env(), cwd=ROOT, check=True, capture_output=True,
                              text=True)
        totals = dict.fromkeys(samples, 0)
        ancestors: list[tuple[int, str]] = []  # (depth, package) of enclosing entries
        # Lines read "import time: self | cumulative | <indent>name" and a
        # module is printed after the modules it imports, so walk backwards.
        for line in reversed(proc.stderr.splitlines()):
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            raw = parts[2].rstrip()
            depth = len(raw) - len(raw.lstrip())
            top = raw.strip().split(".")[0]
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            outer = ("strobetomo",) if top == "strobetomo" else ("numpy", "scipy")
            if top in totals and all(pkg not in outer for _, pkg in ancestors):
                totals[top] += int(parts[1])
            ancestors.append((depth, top))
        for top, total in totals.items():
            samples[top].append(total / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not os.path.isdir(os.path.join(SRC, "strobetomo")):
        raise SystemExit(f"error: no strobetomo package under {SRC}")
    outdir = os.path.join(OUT, f"{workload}-{seed}-{int(trace)}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(os.path.join(outdir, "warmup"))

    import calibrate
    import tracer as tracing
    import workloads

    if trace:
        import_layers = measure_import_layers(1 if quick else 3)
    else:
        setup_raw = measure_setup(1 if quick else SETUP_REPEATS)

    sys.path.insert(0, SRC)
    import strobetomo

    workloads.build(workload, seed, os.path.join(outdir, "warmup"), quick=True).run_round(strobetomo)
    wl = workloads.build(workload, seed, outdir, quick=quick)
    print(wl.describe())
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(strobetomo)
    calibration = calibrate.Calibration()
    rss_start = max_rss_mb()

    attempted = rounds = 0
    latencies: list[int] = []
    round_ns: list[int] = []  # CPU time of each round
    rss_first_round = rss_start
    min_rounds = 2 if trace else 1  # a traced run keeps the spans of its second round
    # The run lasts `seconds` of wall time; what it reports is CPU time.
    t0 = time.perf_counter_ns()
    while True:
        if tracer:
            tracer.keep_spans = rounds == 1
        start = workloads.cpu_ns() - calibration.total_ns()
        a, lats = wl.run_round(strobetomo, calibration.tick)
        round_ns.append(workloads.cpu_ns() - calibration.total_ns() - start)
        end = time.perf_counter_ns()
        attempted += a
        latencies += lats
        rounds += 1
        if rounds == 1:
            rss_first_round = max_rss_mb()
        if rounds >= min_rounds and end - t0 >= seconds * 1e9:
            break
    peak_rss = max_rss_mb()
    if tracer:
        tracer.keep_spans = False
        tracer.uninstall()

    errors, failed = wl.check()
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    succeeded = attempted - failed if not errors else 0
    # Times scaled to the reference core (see calibrate.py), set-up too: it
    # ran seconds before the rounds, and the core's speed drifts over minutes.
    # Throughput is successes over the time of the whole timed phase, failed
    # items' time included.
    scale = calibration.scale()
    items_per_s = succeeded * 1e9 / (sum(round_ns) * scale)
    print(f"{workload}: seed {seed}, {rounds} rounds of {wl.points} items, "
          f"{attempted} attempted, {failed} failed, {sum(round_ns) / 1e9:.3f} s of CPU "
          f"in {(end - t0) / 1e9:.3f} s of wall time")
    print(f"calibration: {len(calibration.samples)} passes, mean "
          f"{calibration.total_ns() / len(calibration.samples) / 1e6:.3f} ms of CPU, scale "
          f"{scale:.4f}; {items_per_s:.6g} items/s scaled, {items_per_s * scale:.6g} unscaled"
          + ("" if trace else f"; set-up {setup_raw:.4f} s unscaled"))

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        ms = [x * scale / 1e6 for x in latencies]
        deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
        metrics["items_per_s"] = (items_per_s, "1/s")
        metrics["latency_p50_ms"] = (statistics.median(ms), "ms")
        metrics["latency_p90_ms"] = (deciles[8], "ms")
        metrics["peak_rss_mb"] = (peak_rss, "MB")
        metrics["setup_s"] = (setup_raw * scale, "s")
    else:
        for name in tracing.span_names():
            calls = tracer.calls.get(name, 0)
            self_ms = tracer.self_ns.get(name, 0) / 1e6
            if name != "cli.scan":
                metrics[f"{name}.calls_per_item"] = (calls / attempted, "count")
            metrics[f"{name}.self_ms_per_item"] = (self_ms / attempted, "ms")
        metrics["cli.scan.rss_growth_mb"] = (rss_first_round - rss_start, "MB")
        for package in ("numpy", "scipy", "strobetomo"):
            metrics[f"setup.import.{package}_s"] = (import_layers[package], "s")
        if tracer.absent:
            print("absent: " + ", ".join(tracer.absent))
        tracer.write_spans(os.path.join(OUT, f"trace-{workload}-{seed}.jsonl"))

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{workload}-{seed}-{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(outdir)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scan-qubit", "scan-qutrit", "tomo-qubit"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one interpreter for set-up")
    parser.add_argument("--self-test", action="store_true",
                        help="check that the output checks catch corrupted outputs")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest
        return selftest.main(SRC, os.path.join(OUT, "self-test"))
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
