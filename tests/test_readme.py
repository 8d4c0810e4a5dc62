"""The README's Python quickstart runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_quickstart_runs():
    section = README.read_text().split("## Quickstart (Python)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quickstart", "exec"), {})
    assert float(out.getvalue()) < 1e-10  # the printed reconstruction error
