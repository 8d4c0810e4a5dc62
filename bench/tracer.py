"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each listed function with a wrapper in every
module of the package that binds it (``reconstruct.expm_apply`` as well as
``matcore.expm_apply``), so calls made inside the program are seen too.
Each call is a span with a parent, timed on the process's CPU clock; a
span's self time is its duration minus the time covered by its child spans.  Totals accumulate for the whole run;
the spans themselves are kept for one chosen stretch (one round) and
written out as JSON lines at the end.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) pairs wrapped in a traced run, grouped by layer.
TARGETS = (
    ("channels", "validate_two_level"),
    ("channels", "validate_three_level"),
    ("channels", "generator_two_level"),
    ("channels", "generator_three_level"),
    ("channels", "generator_from_lindblad"),
    ("analysis", "spectral_report"),
    ("analysis", "span_check"),
    ("analysis", "random_admissible_observable"),
    ("matcore", "eig"),
    ("matcore", "expm_apply"),
    ("matcore", "rank_with_tol"),
    ("matcore", "solve"),
    ("reconstruct", "default_time_grid"),
    ("reconstruct", "simulate_records"),
    ("reconstruct", "alpha_at"),
    ("reconstruct", "plan"),
    ("reconstruct", "execute"),
    ("reconstruct", "records_to_csv"),
    ("reconstruct", "records_from_csv"),
    ("cli", "cmd_scan"),
)


def _simulate_name(args, kwargs) -> str:
    shots = kwargs.get("shots", args[4] if len(args) > 4 else None)
    kind = "exact" if shots == "exact" else "shots"
    return f"reconstruct.simulate_records.{kind}"


# Span names that differ from "<module>.<function>".
_NAMERS = {
    ("reconstruct", "simulate_records"): _simulate_name,
    ("cli", "cmd_scan"): lambda args, kwargs: "cli.scan",
}


def span_names() -> list[str]:
    """Every span name a traced run can report, in layer order."""
    names = []
    for module, fn in TARGETS:
        if (module, fn) == ("reconstruct", "simulate_records"):
            names += [_simulate_name((), {"shots": s}) for s in ("exact", 1)]
        elif (module, fn) in _NAMERS:
            names.append(_NAMERS[module, fn]((), {}))
        else:
            names.append(f"{module}.{fn}")
    return names


class Tracer:
    """Wraps the program's functions and sums calls and self time per span name."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.absent: list[str] = []
        self.spans: list[tuple[int, str, int, int]] = []  # (parent, name, start, end)
        self.keep_spans = False
        self._stack: list[list] = []  # [span index or -1, name, start, child_ns]
        self._restore: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for module_name, fn in TARGETS:
            owner = getattr(package, module_name)
            original = getattr(owner, fn, None)
            if original is None:
                self.absent.append(f"{module_name}.{fn}")
                continue
            namer = _NAMERS.get((module_name, fn))
            wrapper = self._wrap(original, namer or (lambda a, k, n=f"{module_name}.{fn}": n))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, fn, namer):
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs)
            frame = [-1, name, 0, 0]
            if self.keep_spans:
                frame[0] = len(self.spans)
                self.spans.append((self._stack[-1][0] if self._stack else -1, name, 0, 0))
            self._stack.append(frame)
            frame[2] = time.process_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.process_time_ns()
                self._stack.pop()
                elapsed = end - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + elapsed - frame[3]
                if self._stack:
                    self._stack[-1][3] += elapsed
                if frame[0] >= 0:
                    parent = self.spans[frame[0]][0]
                    self.spans[frame[0]] = (parent, name, frame[2], end)

        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
