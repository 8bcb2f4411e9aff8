"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
Times on the simulator workloads are in seconds at a nominal host speed
(:class:`perfbench.measure.HostClock`); the report also gives them as
measured.
``--trace 1`` first runs untraced reps as a baseline, then one rep with
every layer wrapped (:mod:`perfbench.layers`), and prints the per-layer
table; the spans go to ``perfbench/out/``. Either way the outputs are
checked, a human-readable report comes first, and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

``python3 perfbench/run.py --pin fig5 knee`` recomputes the pinned
simulator outputs in ``perfbench/reference.json`` (only for a change meant
to alter simulated behaviour).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: The metric tables, name to unit, in report order.
END_TO_END = {metric["name"]: metric["unit"] for metric in CONFIG["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in CONFIG["per_layer"]}

#: Fewest reps a run makes, so set-up is a median of several.
MIN_REPS = 3


def _repo_on_path() -> None:
    """Make ``repro`` (from ``src/``) and ``perfbench`` importable, or
    exit non-zero when this is not a checkout of the program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def run_reps(workload: Any, seed: int, seconds: float) -> list[Any]:
    """Untraced reps until ``seconds`` of measured window (at least
    :data:`MIN_REPS`)."""
    from perfbench.workloads import ASYNC_WINDOW_S

    if workload.kind == "asyncio":
        count = max(MIN_REPS, round(seconds / ASYNC_WINDOW_S))
        return [workload.rep(seed, window_s=seconds / count) for _ in range(count)]
    reps: list[Any] = []
    measured = 0.0
    while measured < seconds or len(reps) < MIN_REPS:
        rep = workload.rep(seed)
        reps.append(rep)
        measured += rep.wall_s
    return reps


def end_to_end_metrics(workload: Any, reps: list[Any]) -> dict[str, float]:
    from perfbench.measure import error_rate, median, peak_rss_mb, percentile

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if workload.kind == "sim":
        # Sim reps of one seed are identical, so their percentiles are one
        # rep's (and match the pinned reference).
        p50 = median([percentile(rep.latencies_ms, 50.0) for rep in reps])
        p99 = median([percentile(rep.latencies_ms, 99.0) for rep in reps])
    else:
        pooled = [value for rep in reps for value in rep.latencies_ms]
        p50, p99 = percentile(pooled, 50.0), percentile(pooled, 99.0)
    return {
        "sim_speed": median([rep.speed for rep in reps]),
        "setup_s": median([rep.setup_s for rep in reps]),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "cpu_ms_per_sample": median([rep.cpu_ms_per_sample for rep in reps]),
        "success_rate": 1.0 - error_rate(attempted, failed),
    }


def latency_support(workload: Any, reps: list[Any]) -> tuple[int, float | None]:
    """Sample count behind the latency percentiles and the highest
    percentile it supports."""
    from perfbench.measure import highest_supported_percentile

    if workload.kind == "sim":
        n = min(len(rep.latencies_ms) for rep in reps)
    else:
        n = sum(len(rep.latencies_ms) for rep in reps)
    return n, highest_supported_percentile(n)


def traced_run(workload: Any, seed: int, seconds: float) -> tuple[list[Any], Any, Any]:
    """Untraced baseline reps, then one rep under a :class:`LayerTracer`
    (whose wrappers are gone again when this returns)."""
    from perfbench.layers import LayerTracer

    baseline = run_reps(workload, seed, seconds / 2.0)
    with LayerTracer() as tracer:
        if workload.kind == "asyncio":
            rep = workload.rep(seed, tracer, window_s=baseline[0].modelled_s)
        else:
            rep = workload.rep(seed, tracer)
    if tracer.installed:
        raise RuntimeError("layer wrappers still installed after the traced rep")
    return baseline, rep, tracer


def per_layer_metrics(baseline: list[Any], rep: Any, tracer: Any) -> dict[str, float]:
    from perfbench.measure import median, percentile

    values: dict[str, float] = {}
    values.update(tracer.counts)
    values.update(tracer.self_s)
    values.update(rep.layer)
    publishes = values["mqtt.publishes"]
    values["util.encodes_per_publish"] = (
        values["util.payload_encodes"] / publishes if publishes else 0.0
    )
    lags = [lag for base in baseline for lag in base.lags_ms]
    values["runtime.generator_lag_p99_ms"] = percentile(lags, 99.0) if lags else 0.0
    values["runtime.loop_busy"] = median([base.cpu_s / base.wall_s for base in baseline])
    values["trace.wall_s"] = rep.wall_s
    values["trace.uncovered_s"] = rep.wall_s - tracer.covered_s()
    values["trace.overhead"] = rep.nominal_busy_s / median([base.nominal_busy_s for base in baseline])
    return {name: values[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value)}"


def print_end_to_end(metrics: dict[str, float], reps: list[Any], support: tuple[int, Any]) -> dict[str, float]:
    from perfbench.measure import median, quartile_spread

    print(f"{'metric':<20} {'value':>14}  unit")
    for name, unit in END_TO_END.items():
        print(f"{name:<20} {_fmt(metrics[name]):>14}  {unit}")
    n, highest = support
    print(f"latency samples: {n}; highest percentile with >=10 beyond: p{highest}")
    print(
        f"as measured: sim_speed {median([rep.raw_speed for rep in reps]):.6g} s/s, "
        f"setup_s {median([rep.raw_setup_s for rep in reps]):.6g} s"
    )
    spread = {
        "sim_speed": quartile_spread([rep.speed for rep in reps]),
        "setup_s": quartile_spread([rep.setup_s for rep in reps]),
        "cpu_ms_per_sample": quartile_spread([rep.cpu_ms_per_sample for rep in reps]),
    }
    print(
        f"reps: {len(reps)}; rep-to-rep spread (IQR/median): "
        + ", ".join(f"{k} {v:.3f}" for k, v in spread.items())
    )
    return spread


def print_layers(workload: str, values: dict[str, float]) -> None:
    wall = values["trace.wall_s"]
    print(f"per-layer metrics, workload {workload} (self time share of {wall:.3f} s traced window)")
    layer = None
    for name, unit in PER_LAYER.items():
        prefix = name.split(".", 1)[0]
        if prefix != layer:
            layer = prefix
            print(f"[{layer}]")
        value = values[name]
        share = f"  {100.0 * value / wall:5.1f}%" if unit == "s" and wall else ""
        print(f"  {name:<32} {_fmt(value):>14}  {unit}{share}")


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("fig5", "knee", "asyncio"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", nargs="+", metavar="WORKLOAD", choices=("fig5", "knee"))
    args = parser.parse_args(argv)
    if args.pin is None and args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    _repo_on_path()
    from perfbench.measure import environment
    from perfbench.workloads import WORKLOADS, pin_reference

    if args.pin:
        pin_reference(args.pin)
        print(f"pinned {', '.join(args.pin)}")
        return 0

    env = environment()
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record: dict[str, Any] = {"workload": workload.name, "seed": args.seed, "environment": env}

    if args.trace == 0:
        reps = run_reps(workload, args.seed, args.seconds)
        reps_for_checks = reps
        values = end_to_end_metrics(workload, reps)
        support = latency_support(workload, reps)
        record["rep_spread"] = print_end_to_end(values, reps, support)
        record["reps"] = [
            {
                "setup_s": rep.setup_s, "raw_setup_s": rep.raw_setup_s, "wall_s": rep.wall_s,
                "cpu_s": rep.cpu_s, "nominal_busy_s": rep.nominal_busy_s,
                "nominal_cpu_s": rep.nominal_cpu_s, "samples": rep.samples,
            }
            for rep in reps
        ]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        supported = support[1] is not None and support[1] >= 99.0
    else:
        baseline, rep, tracer = traced_run(workload, args.seed, args.seconds)
        reps_for_checks = baseline + [rep]
        values = per_layer_metrics(baseline, rep, tracer)
        print_layers(workload.name, values)
        spans_path = OUT_DIR / f"spans-{tag}.tsv.gz"
        written = tracer.write_spans(spans_path)
        print(f"spans: {written} kept, {tracer.spans_dropped} dropped -> {spans_path.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        supported = True

    problems = [p for rep in reps_for_checks for p in rep.problems]
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if not supported:
        print("CHECK FAILED: too few latency samples to report p99")
    attempted = sum(rep.attempted for rep in reps_for_checks)
    failed = sum(rep.failed for rep in reps_for_checks)
    correct = not problems and supported and all(math.isfinite(m["value"]) for m in metrics.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(result)
    record["run_wall_s"] = time.perf_counter() - started
    write_json(OUT_DIR / f"result-{tag}.json", record)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
