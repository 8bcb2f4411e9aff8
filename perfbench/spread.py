"""Run one workload over several seeds, twice, and report the run-to-run
spread and how well the two sets agree.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload fig5 --seeds 10

Each run is a separate ``perfbench/run.py`` process, one after another.
The two sets run seeds 1..N alternately (seed 1 of set A, seed 1 of set
B, seed 2 of set A, ...), so host drift falls on both alike. For every
end-to-end metric the report gives, per set, the median of the runs and
the distance between the first and third quartile as a share of the
median (``measure.quartile_spread``), next to a third of the metric's
bound from ``BENCHMARK.json``, the steadiness target. It then gives the
difference of the two medians and the worst same-seed pair, each as a
share of set A's median, against the bound itself. The summary is also
written to ``perfbench/out/spread-<workload>.json``.

Exit code 0 only when every run was correct, every spread is below a
third of its bound and every median difference is within its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import median, quartile_spread  # noqa: E402

SETS = ("A", "B")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout + done.stderr, file=sys.stderr)
        raise SystemExit(f"seed {seed}: run failed (exit {done.returncode})")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {name: [] for name in SETS}
    for seed in range(1, args.seeds + 1):
        for name in SETS:
            result = run_once(args.workload, seed, args.seconds)
            runs[name].append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
            print(f"set {name} seed {seed}: correct={result['correct']} failed={result['failed']} {values}",
                  flush=True)

    ok = all(run["correct"] for name in SETS for run in runs[name])
    summary = {"workload": args.workload, "seconds": args.seconds, "seeds": args.seeds, "metrics": {}}
    print(f"{'metric':<18} {'median A':>11} {'spread A':>8} {'median B':>11} {'spread B':>8} "
          f"{'bound/3':>7} {'A-B diff':>8} {'worst pair':>10} {'bound':>6}")
    for metric in config["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [run["metrics"][name]["value"] for run in runs["A"]]
        b = [run["metrics"][name]["value"] for run in runs["B"]]
        med_a, med_b = median(a), median(b)
        spread_a, spread_b = quartile_spread(a), quartile_spread(b)
        diff = abs(med_b - med_a) / med_a if med_a else 0.0
        worst = max(abs(y - x) for x, y in zip(a, b)) / med_a if med_a else 0.0
        steady = max(spread_a, spread_b) < bound / 3.0
        ok = ok and steady and diff <= bound
        summary["metrics"][name] = {
            "bound": bound, "median_a": med_a, "median_b": med_b,
            "spread_a": spread_a, "spread_b": spread_b,
            "median_diff": diff, "worst_pair": worst, "values_a": a, "values_b": b,
        }
        flags = ("" if steady else "  spread above bound/3") + ("" if diff <= bound else "  medians differ beyond bound")
        print(f"{name:<18} {med_a:>11.6g} {spread_a:>8.4f} {med_b:>11.6g} {spread_b:>8.4f} "
              f"{bound / 3.0:>7.4f} {diff:>8.4f} {worst:>10.4f} {bound:>6.3f}{flags}")
    out = HERE / "out" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
