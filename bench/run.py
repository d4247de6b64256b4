"""cqedkit benchmark: one closed-loop workload, timed, checked and reported.

    python3 bench/run.py --workload design_batch --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the code under test is imported from
the checkout's ``src/``. With ``--trace 0`` the run measures the end-to-end
metrics with tracing off. With ``--trace 1`` it runs the same loop untraced
and then traced, and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed``, ``metrics``.
In a traced run ``attempted`` and ``failed`` count the untraced loop; the
traced ops are checked too, and any failure makes ``correct`` false.
Files the run leaves (run record, spans, scratch CSVs) go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(SRC))
try:
    import cqedkit as ck
except ImportError as exc:
    sys.exit(f"error: cannot import cqedkit from {SRC}: {exc}")
if not Path(ck.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported cqedkit from {ck.__file__}, not from {SRC}")

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_ref": "ops/ref",
    "op_p50_ref": "ref",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "spectrum.exact_transmon_spectrum.calls": "calls/op",
    "spectrum.exact_transmon_spectrum.ms": "ms",
    "spectrum.perturbative_levels.ms": "ms",
    "coupling.coupled_spectrum_oracle.calls": "calls/op",
    "coupling.coupled_spectrum_oracle.ms": "ms",
    "coupling.oracle_ran_share": "%",
    "coupling.external_quality_factor.ms": "ms",
    "lumped.build_lumped_circuit.ms": "ms",
    "studio.derive.calls": "calls/op",
    "studio.derive.self_ms": "ms",
    "studio.input_digest.ms": "ms",
    "studio.render_report.ms": "ms",
    "studio.sweep.ms_per_point": "ms",
    "studio.sweep.error_rows": "count",
    "studio.tune.ms": "ms",
    "studio.tune.derives_per_tune": "count",
    "readout.s21_curve.ms": "ms",
    "readout.notch_separation.ms": "ms",
    "readout.write_curve_csv.ms": "ms",
    "readout.write_curve_csv.bytes": "bytes",
    "cli.derive_cold_s": "s",
    "import.cqedkit_s": "s",
    "import.scipy_s": "s",
    "coupling.dispersive_validity_warnings": "count/op",
    "spectrum.convergence_warnings": "count/op",
    "readout.narrow_span_warnings": "count/op",
    **{f"{module}.self_share": "%" for module in (*tracing.MODULES, "other")},
    "trace.ops_per_s_delta": "1/s",
    "trace.overhead_pct": "%",
}
SETUP_STARTS = 9
CLI_STARTS = 5
IMPORT_STARTS = 3
PROBE_EVERY_NS = 20_000_000  # op time per reference unit timed
CHECK_OP = -1  # spans recorded outside any op (output checks)
CENSUS_OP = -2  # spans of the census round


_REFERENCE_ARRAY = np.linspace(0.0, 1.0, 64)
_REFERENCE_MATRIX = np.add.outer(np.arange(24.0), np.arange(24.0)) / 24.0 + np.diag(np.arange(24.0))
_REFERENCE_DIAGONAL = 4.0 * np.arange(-25.0, 26.0) ** 2


def reference_unit() -> float:
    """Fixed work that shares no code with cqedkit but has the workloads' mix:
    interpreted arithmetic, small NumPy calls, a small dense and a tridiagonal
    symmetric eigensolve, and float formatting. Its duration tracks the speed
    the host gives this kind of code at the moment."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    a = _REFERENCE_ARRAY
    for _ in range(80):
        a = np.sqrt(a * a + 1.0)
    dense = np.linalg.eigh(_REFERENCE_MATRIX)[0]
    banded = eigh_tridiagonal(_REFERENCE_DIAGONAL, np.full(50, -40.0))[0]
    text = ",".join(f"{x:.9f}" for x in a)
    return total + len(text) + float(dense[0] + banded[0])


@dataclass
class Loop:
    """Op latencies, and the reference units timed between ops.

    The host's speed drifts by tens of percent over seconds to minutes. An
    op's latency divided by the reference unit timed around it cancels that
    drift, so the ``*_ref`` figures are steady where wall times are not.
    """

    latencies_ns: list[int] = field(default_factory=list)
    raised: int = 0
    check_failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    reference_ns: list[float] = field(default_factory=list)
    op_probe: list[int] = field(default_factory=list)  # index of the last probe before each op

    def probe(self, units: int = 1) -> None:
        """Time ``units`` reference units and keep the median duration of one."""
        durations = []
        for _ in range(units):
            start = time.perf_counter_ns()
            reference_unit()
            durations.append(time.perf_counter_ns() - start)
        self.reference_ns.append(statistics.median(durations))

    def in_reference_units(self) -> list[float]:
        """Each op's latency over the mean of the probes just before and after it,
        each probe smoothed as the median of the five nearest."""
        ref = self.reference_ns
        local = [statistics.median(ref[max(0, k - 2) : k + 3]) for k in range(len(ref))]
        return [
            latency / (0.5 * (local[k] + local[k + 1]))
            for latency, k in zip(self.latencies_ns, self.op_probe)
        ]

    def ops_per_ref(self) -> float:
        return (self.attempted - self.raised) / sum(self.in_reference_units())

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def failed(self) -> int:
        return self.raised + self.check_failed

    def ops_per_s(self) -> float:
        return (self.attempted - self.raised) / (sum(self.latencies_ns) / 1e9)

    def note(self, problems: list[str]) -> None:
        self.problems += problems[: max(0, 5 - len(self.problems))]


def closed_loop(
    workload: wl.Workload,
    seed: int,
    seconds: float,
    tracer: tracing.Tracer | None = None,
    interlude: Callable[[], None] | None = None,
    interludes: int = 0,
) -> Loop:
    """One client: draw an op, time it, check it untimed, repeat until ``seconds`` of op time.

    ``interlude`` runs ``interludes`` times, untimed, spread evenly over the
    loop, so that what it measures samples the host over the whole run.
    """
    check = checks.CHECKS[workload.name]
    items = workload.items(seed, OUT / workload.name)
    loop = Loop()
    clock = time.perf_counter_ns
    budget = seconds * 1e9
    busy = since_probe = done = 0
    gc.collect()
    loop.probe()
    while busy < budget:
        if done < interludes and busy >= (done + 1) * budget / (interludes + 1):
            interlude()
            done += 1
        if since_probe >= PROBE_EVERY_NS:
            # one unit per 20 ms of op time since the last probe: long ops get more
            loop.probe(since_probe // PROBE_EVERY_NS)
            since_probe = 0
        item = next(items)
        if tracer is not None:
            tracer.op = loop.attempted
        start = clock()
        try:
            output = workload.op(item)
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            end = clock()
            loop.raised += 1
            loop.note([f"op raised {type(exc).__name__}: {exc}"])
        else:
            end = clock()
            if tracer is not None:
                tracer.op = CHECK_OP
            problems = check(item, output, loop.counts)
            loop.check_failed += bool(problems)
            loop.note(problems)
        loop.latencies_ns.append(end - start)
        loop.op_probe.append(len(loop.reference_ns) - 1)
        busy += end - start
        since_probe += end - start
    loop.probe()
    for _ in range(done, interludes):
        interlude()
    return loop


def census(seed: int, tracer: tracing.Tracer | None = None) -> tuple[list[str], Counter]:
    """One checked op of every workload.

    It warms every layer before timing and, in a traced run, gives a per-call
    time for functions the measured workload never calls.
    """
    problems: list[str] = []
    counts: Counter = Counter()
    if tracer is not None:
        tracer.op = CENSUS_OP
    for workload in wl.WORKLOADS.values():
        item = next(workload.items(seed, OUT / workload.name))
        problems += checks.CHECKS[workload.name](item, workload.op(item), counts)
    return problems, counts


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


UNGATED_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_p90_ref": "ref",
    "reference_unit_ms": "ms",
}


def ungated_figures(loop: Loop) -> dict[str, float]:
    """Figures printed but not gated. Wall-clock throughput and latency drift
    with the host's speed by more than any bound allowed; the p90 in reference
    units still spread by up to 17 % on ``readout``, where the reference unit
    tracks the host least well."""
    return {
        "ops_per_s": loop.ops_per_s(),
        "op_p50_ms": _percentile(loop.latencies_ns, 50) / 1e6,
        "op_p90_ms": _percentile(loop.latencies_ns, 90) / 1e6,
        "op_p90_ref": _percentile(loop.in_reference_units(), 90),
        "reference_unit_ms": statistics.median(loop.reference_ns) / 1e6,
    }


def end_to_end_metrics(loop: Loop, setup: list[float]) -> dict[str, float]:
    relative = loop.in_reference_units()
    return {
        "setup_s": statistics.median(setup),
        "ops_per_ref": loop.ops_per_ref(),
        "op_p50_ref": _percentile(relative, 50),
        # this process only: the set-up starts run in children
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(
    tracer: tracing.Tracer, traced: Loop, untraced: Loop, census_counts: Counter
) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics, and the share of op time under each outermost span."""
    spans = tracer.spans
    work = tracing.summarize(spans, lambda op: op >= 0)
    spare = tracing.summarize(spans, lambda op: op == CENSUS_OP)
    ops = traced.attempted
    op_ns = sum(traced.latencies_ns)

    def source(name: str) -> dict[str, Counter]:
        return work if work["calls"][name] else spare

    def per_call_ms(name: str, kind: str = "total_ns") -> float:
        s = source(name)
        return s[kind][name] / s["calls"][name] / 1e6

    def per_op(name: str) -> float:
        return work["calls"][name] / ops

    sweep, tune = source("studio.sweep"), source("studio.tune")
    counts = traced.counts if traced.counts["csv_files"] else census_counts
    module_ns = Counter()
    for name, ns in work["self_ns"].items():
        module_ns[name.split(".")[0]] += ns
    shares = {f"{m}.self_share": 100.0 * module_ns[m] / op_ns for m in tracing.MODULES}
    shares["other.self_share"] = 100.0 - sum(shares.values())
    probe_dir = OUT / "probes"
    imports = probes.import_seconds(IMPORT_STARTS)
    outermost = {name: 100.0 * ns / op_ns for name, ns in work["top_ns"].most_common()}
    return {
        "spectrum.exact_transmon_spectrum.calls": per_op("spectrum.exact_transmon_spectrum"),
        "spectrum.exact_transmon_spectrum.ms": per_call_ms("spectrum.exact_transmon_spectrum"),
        "spectrum.perturbative_levels.ms": per_call_ms("spectrum.perturbative_levels"),
        "coupling.coupled_spectrum_oracle.calls": per_op("coupling.coupled_spectrum_oracle"),
        "coupling.coupled_spectrum_oracle.ms": per_call_ms("coupling.coupled_spectrum_oracle"),
        "coupling.oracle_ran_share": 100.0
        * work["calls"]["coupling.coupled_spectrum_oracle"]
        / work["calls"]["studio.derive"],
        "coupling.external_quality_factor.ms": per_call_ms("coupling.external_quality_factor"),
        "lumped.build_lumped_circuit.ms": per_call_ms("lumped.build_lumped_circuit"),
        "studio.derive.calls": per_op("studio.derive"),
        "studio.derive.self_ms": per_call_ms("studio.derive", "self_ns"),
        "studio.input_digest.ms": per_call_ms("studio.input_digest"),
        "studio.render_report.ms": per_call_ms("studio.render_report"),
        "studio.sweep.ms_per_point": sweep["total_ns"]["studio.sweep"]
        / sweep["children"]["studio.sweep", "studio.derive"]
        / 1e6,
        "studio.sweep.error_rows": traced.counts["sweep_error_rows"],
        "studio.tune.ms": per_call_ms("studio.tune"),
        "studio.tune.derives_per_tune": tune["children"]["studio.tune", "studio.derive"]
        / tune["calls"]["studio.tune"],
        "readout.s21_curve.ms": per_call_ms("readout.s21_curve"),
        "readout.notch_separation.ms": per_call_ms("readout.notch_separation"),
        "readout.write_curve_csv.ms": per_call_ms("readout.write_curve_csv"),
        "readout.write_curve_csv.bytes": counts["csv_bytes"] / counts["csv_files"],
        "cli.derive_cold_s": statistics.median(probes.cli_derive_seconds(probe_dir, CLI_STARTS)),
        "import.cqedkit_s": imports["cqedkit"],
        "import.scipy_s": imports["scipy"],
        **{
            name: tracer.warnings[name] / ops
            for name in (
                "coupling.dispersive_validity_warnings",
                "spectrum.convergence_warnings",
                "readout.narrow_span_warnings",
            )
        },
        **shares,
        "trace.ops_per_s_delta": traced.ops_per_s() - untraced.ops_per_s(),
        "trace.overhead_pct": 100.0 * (1.0 - traced.ops_per_ref() / untraced.ops_per_ref()),
    }, outermost


def input_properties(name: str, loop: Loop) -> dict[str, float]:
    """Measured properties of this run's inputs, which a later change can cite."""
    c, ops = loop.counts, loop.attempted
    if name == "design_batch":
        return {"oracle_skip_share": c["oracle_skipped"] / c["derives_checked"]}
    if name == "design_loop":
        return {
            "eigen_emit_share": c["eigen_emit_ops"] / ops,
            "tune_iterations_mean": c["tune_iterations"] / ops,
        }
    return {"points_per_curve_mean": c["points"] / ops}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    for name in (*wl.WORKLOADS, "probes"):
        (OUT / name).mkdir(parents=True, exist_ok=True)
    # one warnings policy for timed runs: nothing is printed, so no warning I/O is timed
    warnings.simplefilter("ignore")

    problems, census_counts = census(args.seed)
    if args.trace:
        # a traced run splits its time between an untraced and a traced loop
        loop = closed_loop(workload, args.seed, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.counting_warnings():
                problems += census(args.seed, tracer)[0]
                tracer.warnings.clear()
                traced = closed_loop(workload, args.seed, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        metrics, outermost = layer_metrics(tracer, traced, loop, census_counts)
        units = PER_LAYER
        problems += traced.problems
    else:
        setup = probes.SetupProbe(args.workload, args.seed, OUT / "probes")
        loop = closed_loop(workload, args.seed, args.seconds, interlude=setup.start, interludes=SETUP_STARTS)
        metrics, units, outermost = end_to_end_metrics(loop, setup.samples), END_TO_END, {}
    record = probes.run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    problems += checks.golden_problems(checks.golden_snapshot(OUT / "probes"), checks.load_golden())
    problems += loop.problems

    properties = input_properties(args.workload, loop)
    ungated = ungated_figures(loop)
    record.update(
        attempted=loop.attempted,
        failed=loop.failed,
        failed_share=loop.failed / loop.attempted,
        input_properties=properties,
        ungated=ungated,
        metrics=metrics,
        problems=problems,
    )
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  record {record_path}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"{'failed_share':44s} {loop.failed / loop.attempted:14.6g} ({loop.failed}/{loop.attempted} ops)")
    for name, value in ungated.items():
        print(f"{name:44s} {value:14.6g} {UNGATED_UNITS[name]} (not gated; {loop.attempted} ops untraced)")
    for name, value in properties.items():
        print(f"{'input.' + name:44s} {value:14.6g}")
    for name, share in outermost.items():
        print(f"{'op time under ' + name:44s} {share:14.6g} %")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
