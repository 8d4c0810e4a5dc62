"""Self-test of the benchmark's output checks.

Runs one round of every workload on its quick inputs, requires the checks
to pass on the program's real outputs, then corrupts one output at a time
and requires the checks to catch each corruption.  Exit code 0 when all do.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

import workloads


def _rewrite_row(paths, edit) -> None:
    """Apply ``edit`` to the first data row, over the scan CSVs, that it changes."""
    for path in paths:
        with open(path) as fh:
            lines = fh.read().splitlines()
        for i in range(1, len(lines)):
            new = edit(lines[i].split(","))
            if new is not None:
                lines[i] = ",".join(new)
                with open(path, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
                return
    raise AssertionError("no scan row could be corrupted")


def _flip_eta(row):
    if row[-3] == "1":  # eta of an optimal in-domain point
        return row[:-3] + ["2"] + row[-2:]
    return None


def _flip_nondegenerate(row):
    if row[-5] == "true" and row[-4] == "true":
        return row[:-4] + ["false"] + row[-3:]
    return None


def _scan_cases(st, outdir):
    for build, edit in ((workloads.scan_qubit, _flip_eta),
                        (workloads.scan_qutrit, _flip_nondegenerate)):
        wl = build(7, outdir, quick=True)
        wl.run_round(st)
        yield wl, lambda wl=wl, edit=edit: _rewrite_row(wl.outputs[0], edit), edit.__name__


def _perturb_estimate(kind, delta):
    def corrupt(wl):
        for i, c in enumerate(wl.campaigns):
            res = wl.results[0][i]
            if res is not None and (c["shots"] == "exact") == (kind == "exact"):
                q, written, read, cond, est = res
                wl.results[0][i] = (q, written, read, cond, est + delta)
                return
        raise AssertionError(f"no {kind} campaign to corrupt")
    return corrupt


def _shift_record(wl):
    for i, res in enumerate(wl.results[0]):
        if res is not None and wl.campaigns[i]["shots"] != "exact":
            q, written, read, cond, est = res
            read = [(t, v + 1e-3, s) for t, v, s in read]
            wl.results[0][i] = (q, written, read, cond, est)
            return
    raise AssertionError("no shot-noisy campaign to corrupt")


def main(src: str, outdir: str) -> int:
    sys.path.insert(0, src)
    import strobetomo as st

    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    cases = list(_scan_cases(st, outdir))
    tomo_corruptions = (
        (_perturb_estimate("exact", 1e-6 * np.array([[1, 0], [0, -1]])), "exact estimate moved 1e-6"),
        (_perturb_estimate("exact", 1e-6j * np.array([[0, 1], [1, 0]])), "non-Hermitian estimate"),
        (_perturb_estimate("shots", 1e3 * np.array([[1, 0], [0, -1]])), "shot estimate moved 1e3"),
        (_shift_record, "record changed in the CSV round trip"),
    )
    for corrupt, label in tomo_corruptions:
        wl = workloads.TomoWorkload(7, quick=True)
        wl.run_round(st)
        cases.append((wl, lambda wl=wl, corrupt=corrupt: corrupt(wl), label))

    ok = True
    for wl, corrupt, label in cases:
        clean = wl.check()[0]
        corrupt()
        caught = wl.check()[0]
        passed = not clean and bool(caught)
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {wl.name}: clean output "
              f"{'passes' if not clean else 'fails: ' + clean[0]}; {label} "
              f"{'caught: ' + caught[0] if caught else 'NOT caught'}")
    shutil.rmtree(outdir)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
