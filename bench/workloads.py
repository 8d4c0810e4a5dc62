"""The benchmark's workloads: seeded inputs, one round of operations, checks.

A workload builds a fixed list of operations from its seed.  ``run_round``
performs all of them once, one at a time, keeps what the program produced,
and returns the number of items attempted and the latencies of the
operations that succeeded.  ``check`` compares every kept output with the
benchmark's own computations and returns the error messages (none when
correct) and the number of items that failed through a known fault.  Every
round repeats the same operations, so the share of failed items is the same
in every run, whatever the seed or the run length.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import time

import numpy as np

import closed_form as cf

#: Clock of every time the benchmark reports: the CPU time (user + system)
#: of this process.  The program runs on one thread (one BLAS thread, one
#: scan worker), so on a core of its own this equals wall time; on a shared
#: host it leaves out the time the core spends on other processes and, with
#: steal-time accounting, on other virtual machines.
cpu_ns = time.process_time_ns

# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


class ScanWorkload:
    """``strobetomo scan`` over a fixed grid each round, in process, 1 worker.

    Axis k of the grid is ``lows[k] + j * step`` for j < ``counts[k]``.  A
    round covers the grid with one scan per value of the first ``fixed``
    axes, so that a run times a hundred scans or more.  The
    seed draws gamma in [0.5, 2] and assigns the axes within each group of
    coefficients that the family's spectrum and domain treat symmetrically,
    so every seed gives a different scan with the same shares of optimal,
    degenerate, out-of-domain and fault-E points (rescaling by gamma and
    permuting symmetric coefficients move no verdict).  A group lies wholly
    among the fixed axes or wholly among the scanned ones, so every seed
    splits the grid into the same scans up to that symmetry, and the
    latencies of scans compare across seeds.
    """

    def __init__(self, name, model, names, step, counts, lows, groups, fixed, seed, outdir):
        self.name = name
        self.model = model
        self.names = names
        assert all(max(g) < fixed or min(g) >= fixed for g in groups)
        rng = np.random.default_rng(seed)
        self.gamma = float(rng.uniform(0.5, 2.0))
        order = list(range(len(names)))
        for group in groups:
            picked = rng.permutation(group)
            for dst, src in zip(group, picked):
                order[dst] = int(src)
        self.axes = [(lows[k], step, counts[k]) for k in order]
        self.points = math.prod(counts)
        self.fixed = fixed
        self.outdir = outdir
        self.outputs: list[list[str]] = []  # per round, one CSV per scan

    def values(self) -> list[list[float]]:
        return [[lo + k * step for k in range(count)] for lo, step, count in self.axes]

    def argv(self, path: str, fixed_values) -> list[str]:
        argv = ["scan", "--model", self.model, "--gamma", repr(self.gamma), "--workers", "1",
                "--output", path]
        for name, value in zip(self.names, fixed_values):
            argv += [f"--{name}", repr(value)]
        for name, (lo, step, count) in list(zip(self.names, self.axes))[self.fixed:]:
            hi = lo + (count - 0.5) * step  # half a step of slack: exactly `count` values
            argv += [f"--{name}", f"{lo!r}:{hi!r}:{step!r}"]
        return argv

    def grid(self) -> np.ndarray:
        return np.array(list(itertools.product(*self.values())))

    def run_round(self, st, between=None) -> tuple[int, list[int]]:
        """The scans of one round; returns (items attempted, CPU time of each scan in ns).

        ``between``, if given, is called untimed after every scan.
        """
        paths = []
        latencies = []
        for j, fixed_values in enumerate(itertools.product(*self.values()[:self.fixed])):
            path = os.path.join(self.outdir, f"{self.name}-{len(self.outputs)}-{j}.csv")
            paths.append(path)
            t0 = cpu_ns()
            code = st.cli.main(self.argv(path, fixed_values))
            latencies.append(cpu_ns() - t0)
            if code != 0:
                raise RuntimeError(f"scan exited with code {code}")
            if between:
                between()
        self.outputs.append(paths)
        return self.points, latencies

    def _closed_form(self, a):
        if self.model == "two-level":
            return cf.qubit_domain(a), cf.qubit_spectrum(a, self.gamma)
        return cf.qutrit_domain(a), cf.qutrit_spectrum(a, self.gamma)

    def describe(self) -> str:
        shares = ", ".join(f"{v} {k}" for k, v in self.shares().items())
        scans = math.prod(count for _, _, count in self.axes[:self.fixed])
        return (f"{self.name}: gamma {self.gamma:.4f}, {self.points} points per round "
                f"in {scans} scans: {shares}")

    def shares(self) -> dict[str, int]:
        """Counts of optimal, degenerate, out-of-domain and fault-E grid points."""
        domain, spectra = self._closed_form(self.grid())
        expected = [cf.eta_mu_disc(s) for s in spectra[domain]]
        fault_e = sum(cf.fault_e(s) for s in spectra[domain])
        return {"optimal": sum(e[0] == 1 for e in expected),
                "degenerate": sum(e[0] > 1 for e in expected),
                "out_of_domain": int(np.sum(~domain)), "fault_e": fault_e}

    def check(self) -> tuple[list[str], int]:
        """Every row against the closed forms; later rounds byte-equal to the first.

        Returns the errors and the number of failed items over all rounds:
        rows whose mu shows fault E (see ``closed_form.fault_e``).
        """
        errors = []
        first = []
        for path in self.outputs[0]:
            with open(path, "rb") as fh:
                first.append(fh.read())
        for paths in self.outputs[1:]:
            for path, want in zip(paths, first):
                with open(path, "rb") as fh:
                    if fh.read() != want:
                        errors.append(f"{path}: output differs from the first round")
        header = ",".join(list(self.names) +
                          ["cptp_domain", "nondegenerate", "eta", "mu", "discriminant"])
        rows = []
        for path, data in zip(self.outputs[0], first):
            lines = data.decode().splitlines()
            if lines[:1] != [header]:
                return errors + [f"{path}: unexpected header {lines[:1]}"], 0
            rows += [line.split(",") for line in lines[1:]]
        a = self.grid()
        if len(rows) != len(a):
            return errors + [f"{len(rows)} rows for {len(a)} grid points"], 0
        domain, spectra = self._closed_form(a)
        d = len(self.names)
        failed = 0
        for i, row in enumerate(rows):
            want = _expected_row(domain[i], spectra[i])
            got = row[d:]
            if domain[i] and got[3] == str(int(want[3]) - 1) and cf.fault_e(spectra[i]):
                failed += 1
                got = got[:3] + [want[3]] + got[4:]
            values_ok = np.allclose([float(x) for x in row[:d]], a[i], rtol=0, atol=1e-15)
            disc_ok = want[4] == got[4] or (
                want[4] and got[4] and math.isclose(float(got[4]), float(want[4]), rel_tol=1e-6))
            if not values_ok or got[:4] != want[:4] or not disc_ok:
                errors.append(f"row {i} {row}: expected {want}")
                if len(errors) > 10:
                    break
        return errors, failed * len(self.outputs)


def _expected_row(in_domain, spectrum) -> list[str]:
    """(cptp_domain, nondegenerate, eta, mu, discriminant) for one grid point."""
    eta, mu, disc = cf.eta_mu_disc(spectrum)
    flags = ["true" if in_domain else "false", "true" if eta == 1 else "false"]
    if not in_domain:
        return flags + ["", "", ""]
    return flags + [str(eta), str(mu), repr(disc)]


def scan_qubit(seed, outdir, quick=False) -> ScanWorkload:
    """Qubit grid, step 0.05.  Two axes share the offset 0.005, so their
    plane of equal values is degenerate; the third sits 0.02 away.  The
    offsets sum to 0.035, so a1 + a2 + a3 is never within 0.015 of 1.
    One scan per value of a1; the seed orders a2 and a3."""
    counts = (4, 4, 4) if quick else (11, 11, 11)
    return ScanWorkload("scan-qubit", "two-level", ("a1", "a2", "a3"), 0.05, counts,
                        (0.005, 0.005, 0.025), [(1, 2)], 1, seed, outdir)


#: Offsets of the qutrit axes.  The last is o4 + o5 - o1, so that
#: a7 = a4 + a5 - a6 equals a1 on a fixed set of points (the degenerate
#: ones).  No other two eigenvalues of an in-domain point come within 8e-3
#: of its spectral diameter, and no point comes within 2e-3 of a domain
#: boundary.
QUTRIT_LOWS = (0.0028, 0.0125, 0.0359, 0.0248, 0.0072, 0.0248 + 0.0072 - 0.0028)


def scan_qutrit(seed, outdir, quick=False) -> ScanWorkload:
    """Qutrit grid, step 0.04, each axis with its own offset.  One scan per
    (a1, a2, a3); the seed orders (a1, a2, a3) and (a4, a5)."""
    counts = (2, 2, 2, 2, 2, 2) if quick else (3, 3, 3, 3, 3, 3)
    return ScanWorkload("scan-qutrit", "three-level", ("a1", "a2", "a3", "a4", "a5", "a6"),
                        0.04, counts, QUTRIT_LOWS, [(0, 1, 2), (3, 4)], 3, seed, outdir)


# ---------------------------------------------------------------------------
# tomography campaigns
# ---------------------------------------------------------------------------

SHOTS = 100_000

#: Pairwise gap of the qubit coefficients in every campaign; it keeps the
#: default design's condition number below about 1e5 (the gate is 1e8).
MIN_GAP = 0.01

#: Qubit points (gamma = 1) on which ``default_time_grid`` raises
#: "horizon must cover the last instant" every time: its last instant
#: p * (T / p) rounds one ulp above the horizon T.  They sit in every round,
#: whatever the seed, so the share of failed campaigns is fixed (6 of 100,
#: close to the 6 % of uniform points that fail this way).
FAULT_A_POINTS = (
    (0.5060275912134737, 0.016167606158652006, 0.2384854486110743),
    (0.0636249281711857, 0.591446624969274, 0.029604748639981415),
    (0.21714891786285906, 0.008191700567180327, 0.5051713764129117),
    (0.34125455555265904, 0.2865397630115275, 0.3582240286856516),
    (0.20890881529165306, 0.39106540738776796, 0.15221730384825927),
    (0.22958226079448907, 0.0469814706536863, 0.494171590920257),
)
FAULT_A_MESSAGE = "horizon must cover the last instant"

#: Seed of the inputs of the fault-A campaigns (observable, state, shots);
#: fixed so that those campaigns do not depend on the run's seed.
FAULT_A_SEED = 1601


def _random_state(rng) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _campaign(a, gamma, rng, index) -> dict:
    return {"a": tuple(float(x) for x in a), "gamma": float(gamma),
            "rho0": _random_state(rng), "obs_seed": int(rng.integers(2**31)),
            "shots": "exact" if index % 2 == 0 else SHOTS,
            "shot_seed": int(rng.integers(2**31))}


class TomoWorkload:
    """Qubit campaigns: observable, default grid, records, plan and execute.

    Seeded campaigns draw (a1, a2, a3) uniformly from the CPTP domain with
    pairwise gaps of at least ``MIN_GAP`` and a uniform horizon T in
    [1.02, 1.3]; gamma is set so that 1 / |lambda|_max = T.  For T in
    [1, 4/3), 3 T lies in the binade of 3, so 3 * (T / 3) rounds back to T
    and fault A cannot hit a seeded campaign.  The ``FAULT_A_POINTS``
    campaigns (gamma = 1) are added to every round, so fault A is measured,
    at a share that does not depend on the seed.  Campaigns alternate exact
    and shot-noisy records (1:1).
    """

    name = "tomo-qubit"

    def __init__(self, seed, quick=False):
        rng = np.random.default_rng(seed)
        seeded = []
        count = 6 if quick else 94
        while len(seeded) < count:
            a = rng.uniform(0.0, 1.0, 3)
            if a.sum() > 1 or min(abs(a[0] - a[1]), abs(a[0] - a[2]), abs(a[1] - a[2])) < MIN_GAP:
                continue
            lam_max = 2.0 * max(a[0] + a[1], a[0] + a[2], a[1] + a[2])
            horizon = rng.uniform(1.02, 1.3)
            seeded.append(_campaign(a, 1.0 / (horizon * lam_max), rng, len(seeded)))
        fixed_rng = np.random.default_rng(FAULT_A_SEED)
        points = FAULT_A_POINTS[:1] if quick else FAULT_A_POINTS
        fixed = [_campaign(a, 1.0, fixed_rng, i) for i, a in enumerate(points)]
        self.fault_a = len(fixed)
        # Spread the fixed campaigns evenly through the round.
        stride = len(seeded) // len(fixed)
        self.campaigns = []
        for i, c in enumerate(seeded):
            self.campaigns.append(c)
            if i % stride == stride - 1 and fixed:
                self.campaigns.append(fixed.pop(0))
        self.campaigns += fixed
        self.points = len(self.campaigns)
        self.results: list[list] = []

    def describe(self) -> str:
        exact = sum(c["shots"] == "exact" for c in self.campaigns)
        return (f"{self.name}: {self.points} campaigns per round: "
                f"{self.points - self.fault_a} seeded, {self.fault_a} fault-A; "
                f"{exact} exact, {self.points - exact} with {SHOTS} shots")

    def run_round(self, st, between=None) -> tuple[int, list[int]]:
        """All campaigns once; returns (campaigns attempted, latencies of successes).

        ``between``, if given, is called untimed after every campaign.
        """
        out = []
        latencies = []
        for c in self.campaigns:
            t0 = cpu_ns()
            try:
                result = _run_campaign(st, c)
            except ValueError as exc:
                if FAULT_A_MESSAGE not in str(exc):
                    raise
                result = None
            else:
                latencies.append(cpu_ns() - t0)
            out.append(result)
            if between:
                between()
        self.results.append(out)
        return len(self.campaigns), latencies

    def check(self) -> tuple[list[str], int]:
        """Every campaign of every round; returns the errors and the fault-A count."""
        errors = []
        failed = 0
        for r, results in enumerate(self.results):
            for i, (c, res) in enumerate(zip(self.campaigns, results)):
                if res is None:
                    failed += 1
                    continue
                for err in _check_campaign(c, res):
                    errors.append(f"round {r} campaign {i} {c['a']}: {err}")
                if len(errors) > 10:
                    return errors, failed
        return errors, failed


def _run_campaign(st, c) -> tuple:
    rec = st.reconstruct
    gen = st.channels.generator_two_level(st.channels.TwoLevelParams(*c["a"], gamma=c["gamma"]))
    obs = st.analysis.random_admissible_observable(gen, c["obs_seed"])
    grid = rec.default_time_grid(gen, 3)
    records = rec.simulate_records(gen, obs.matrix, c["rho0"], grid, c["shots"], c["shot_seed"])
    written = records
    if c["shots"] != "exact":
        buf = io.StringIO()
        rec.records_to_csv(records, buf)
        buf.seek(0)
        records = rec.records_from_csv(buf)
    plan = rec.plan(gen, obs, grid)
    result = rec.execute(plan, records)
    return (obs.matrix, [(r.t, r.value, r.shots) for r in written],
            [(r.t, r.value, r.shots) for r in records], plan.condition_reduced, result.estimate)


def _check_campaign(c, res) -> list[str]:
    """Checks one campaign's outputs against the closed form of its own channel.

    The qubit channel is a Pauli channel: the sigma_k components of the
    state and of Q decay at the rate -2 gamma times the sum of the two other
    coefficients.  That gives the grid, every record, and the forward rows
    whose singular values bound the estimate's error.
    """
    q, written, read, cond, est = res
    rho0 = c["rho0"]
    errors = []
    if not np.allclose(q, q.conj().T, rtol=0, atol=1e-12):
        errors.append("observable is not Hermitian")
    if read != written:
        errors.append("records changed in the CSV round trip")
    if np.max(np.abs(est - est.conj().T)) > 1e-12 or abs(np.trace(est) - 1) > 1e-12:
        errors.append("estimate is not Hermitian with unit trace")
    a1, a2, a3 = c["a"]
    rates = -2.0 * c["gamma"] * np.array([a2 + a3, a1 + a3, a1 + a2])
    horizon = 1.0 / -rates.min()
    p = len(written)
    times = np.array([t for t, _, _ in written])
    if p != 3 or np.max(np.abs(times - horizon * np.arange(1, 4) / 3)) > 1e-12 * horizon:
        errors.append(f"grid {times} is not (1, 2, 3) T / 3 with T = {horizon!r}")
        return errors
    qk = np.array([q[0, 1].real, -q[0, 1].imag, (q[0, 0] - q[1, 1]).real / 2])
    rk = np.array([2 * rho0[0, 1].real, -2 * rho0[0, 1].imag, (rho0[0, 0] - rho0[1, 1]).real])
    decay = np.exp(np.outer(times, rates))
    exact = np.trace(q).real / 2 + decay @ (qk * rk)
    values = np.array([v for _, v, _ in written])
    rows = np.sqrt(2.0) * qk * decay  # traceless forward rows in the basis sigma_k / sqrt(2)
    sv = np.linalg.svd(rows, compute_uv=False)
    if not math.isclose(cond, sv[0] / sv[-1], rel_tol=1e-6):
        errors.append(f"plan condition {cond:.6e} != closed form {sv[0] / sv[-1]:.6e}")
    if c["shots"] == "exact":
        record_bound, bound = 1e-12, 1e-9
    else:
        # Hoeffding for each mean of SHOTS outcomes in an interval of width
        # at most 2 ||Q||, with a union bound over the p records at failure
        # probability 1e-9.  The estimate's error is then at most
        # sqrt(p) eps / sigma_min, and sigma_min = sigma_max / cond.
        width = 2.0 * np.linalg.norm(q, 2)
        record_bound = width * math.sqrt(math.log(2 * p / 1e-9) / (2 * SHOTS))
        bound = math.sqrt(p) * record_bound * cond / sv[0]
        if any(s != SHOTS for _, _, s in written):
            errors.append("records do not carry the shot count")
    if np.max(np.abs(values - exact)) > record_bound:
        errors.append(f"records {values} differ from Tr(Q rho(t)) = {exact} by more than "
                      f"{record_bound:.3e}")
    err = float(np.linalg.norm(est - rho0))
    if not err <= bound:
        errors.append(f"estimate off by {err:.3e}, bound {bound:.3e}")
    return errors


def build(name, seed, outdir, quick=False):
    if name == "scan-qubit":
        return scan_qubit(seed, outdir, quick)
    if name == "scan-qutrit":
        return scan_qutrit(seed, outdir, quick)
    if name == "tomo-qubit":
        return TomoWorkload(seed, quick)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("scan-qubit", "scan-qutrit", "tomo-qubit")
