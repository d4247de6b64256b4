"""Spans around the public functions at cqedkit's layer boundaries.

``Tracer.install`` wraps each function in ``LAYERS`` and puts the wrapper
wherever cqedkit looks the function up: its home module, the package
namespace and every other cqedkit module that imported it by name (studio
calls ``exact_transmon_spectrum`` through ``cqedkit.studio``, not through
``cqedkit.spectrum``). One span is recorded per call, with its parent span
and the id of the op it belongs to. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import re
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator

LAYERS = {
    "lumped": ("build_lumped_circuit",),
    "spectrum": ("perturbative_levels", "exact_transmon_spectrum"),
    "coupling": (
        "zero_point_voltage",
        "coupling_strength",
        "dispersive_shift",
        "external_quality_factor",
        "purcell_t1",
        "coupled_spectrum_oracle",
    ),
    "studio": ("derive", "input_digest", "render_report", "sweep", "tune"),
    "readout": ("s21_curve", "notch_separation", "write_curve_csv"),
}
MODULES = tuple(LAYERS)


def _warning_key(module: str, category: type) -> str:
    snake = re.sub(r"(?<!^)(?=[A-Z])", "_", category.__name__).lower()
    return f"{module}.{snake.removesuffix('_warning')}_warnings"


class Tracer:
    """Records spans (name, op, parent index, start ns, end ns) in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.op = -1
        self.warnings: Counter[str] = Counter()
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((index, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, self.op, parent, start, end)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "cqedkit" or key.startswith("cqedkit.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"cqedkit.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _count_warning(self, message: Any, category: type, *args: Any, **kwargs: Any) -> None:
        module = self._stack[-1][1].split(".")[0] if self._stack else "other"
        self.warnings[_warning_key(module, category)] += 1

    @contextlib.contextmanager
    def counting_warnings(self) -> Iterator[None]:
        """Count every warning against the layer of the innermost open span, print none."""
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = self._count_warning
            yield

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("index,name,op,parent,start_ns,end_ns\n")
            for index, (name, op, parent, start, end) in enumerate(self.spans):
                out.write(f"{index},{name},{op},{parent},{start},{end}\n")


def summarize(spans: list[Any], ops: Callable[[int], bool]) -> dict[str, Counter]:
    """Calls, total and self ns per function over the spans of the selected ops,
    total ns of the spans no other span encloses, and how many direct children
    of each name each parent name had."""
    total: Counter[str] = Counter()
    top: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    children: Counter[tuple[str, str]] = Counter()
    for name, op, parent, start, end in spans:
        if not ops(op):
            continue
        duration = end - start
        total[name] += duration
        self_ns[name] += duration
        calls[name] += 1
        if parent >= 0:
            parent_name = spans[parent][0]
            self_ns[parent_name] -= duration
            children[parent_name, name] += 1
        else:
            top[name] += duration
    return {"total_ns": total, "self_ns": self_ns, "top_ns": top, "calls": calls, "children": children}
