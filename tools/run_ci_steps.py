"""Run the shell steps of the CI workflow locally, without a hosted runner.

Reads ``.github/workflows/tests.yml`` and runs every ``run:`` step of every
job, except "Install", under ``bash -e`` from the repository root.  The
environment has ``PYTHONPATH=src`` and, first on ``PATH``, a temporary
``strobetomo`` shim (``exec python -m strobetomo "$@"``) standing in for the
console script that Install would put there.  The Python version matrix is
not expanded: each step runs once, on the ``python`` found on ``PATH``.
Prints each step's exit code and exits 1 if any step failed::

    python tools/run_ci_steps.py
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile

import yaml

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SKIPPED = {"Install"}


def run_steps(workflow: pathlib.Path):
    """(name, script) of every ``run:`` step not in SKIPPED, in file order."""
    for job in yaml.safe_load(workflow.read_text())["jobs"].values():
        for step in job["steps"]:
            if "run" in step and step.get("name") not in SKIPPED:
                yield step.get("name", step["run"].splitlines()[0]), step["run"]


def main() -> int:
    results = []
    with tempfile.TemporaryDirectory() as shim_dir:
        shim = pathlib.Path(shim_dir) / "strobetomo"
        shim.write_text('#!/bin/sh\nexec python -m strobetomo "$@"\n')
        shim.chmod(0o755)
        env = dict(
            os.environ,
            PATH=os.pathsep.join([shim_dir, os.environ.get("PATH", "")]),
            PYTHONPATH=str(ROOT / "src"),
        )
        for name, script in run_steps(WORKFLOW):
            print(f"--- {name}", flush=True)
            code = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT, env=env).returncode
            print(f"--- {name}: exit {code}", flush=True)
            results.append((name, code))
    print("\nstep exit codes:")
    for name, code in results:
        print(f"  {code}  {name}")
    return 1 if any(code for _, code in results) else 0


if __name__ == "__main__":
    sys.exit(main())
