#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/suite.py                       # tuning seeds, every workload
    python3 perfbench/suite.py --heldout             # held-out seeds
    python3 perfbench/suite.py --workloads infer-lags --seeds 1 2 3 --seconds 5

    python3 perfbench/suite.py --heldout --compare tuning-trace0

Runs run.py once per (workload, seed), one run at a time, and prints for each
end-to-end metric the median and the quartile spread (Q3 - Q1) / median of
its values, next to the bound from BENCHMARK.json, the range of the
probe's median slowdown over the runs and of the share of fast blocks, and
how many runs estimated their timings from fast blocks or scaled them. A claim tuned on the tuning seeds is
checked again with --heldout, on seeds it was not tuned on. The summary is
written to .perfbench_out/suite-<label>.json; --compare prints, for every
metric, how much worse this set's median is than that of an earlier summary,
as a share of the earlier median, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
TUNING_SEEDS = tuple(range(1, 11))
HELDOUT_SEEDS = tuple(range(1001, 1011))
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result, provenance) of one run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "returncode": proc.returncode, "metrics": {}}, {}
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("provenance "))


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3) with statistics.quantiles' default method."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declared["workloads"]])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seeds", nargs="+", type=int)
    group.add_argument("--heldout", action="store_true")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default=None)
    parser.add_argument("--compare", metavar="LABEL",
                        help="label of an earlier summary to compare medians with")
    args = parser.parse_args(argv)
    seeds = args.seeds or (HELDOUT_SEEDS if args.heldout else TUNING_SEEDS)
    if len(seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    out = ROOT / ".perfbench_out"
    earlier = (json.loads((out / f"suite-{args.compare}.json").read_text())
               if args.compare else None)

    summary = {"seeds": list(seeds), "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs, timings = [], []
        for seed in seeds:
            result, provenance = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            timings.append(provenance.get("timing"))
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']}", flush=True)
        rows = {}
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            med, q1, q3 = spread(values)
            rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / abs(med) if med else float("inf"),
                          "bound": metric.get("bound")}
        summary["workloads"][workload] = {"runs": runs, "timings": timings,
                                          "metrics": rows}
        before = earlier["workloads"].get(workload, {}).get("metrics", {}) if earlier else {}
        better = {m["name"]: m["better"] for m in metrics}
        print(f"\n{workload}: {'metric':<36}{'median':>14}{'spread':>9}{'bound':>7}"
              + (f"{'earlier':>14}{'worse by':>10}" if earlier else ""))
        for name, row in rows.items():
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            line = (f"{'':<{len(workload) + 2}}{name:<36}{row['median']:>14.6g}"
                    f"{row['spread']:>9.4f}{bound:>7}")
            if name in before:
                then = before[name]["median"]
                worse = (row["median"] - then) / abs(then) if then else 0.0
                if better[name] == "higher":
                    worse = -worse
                line += f"{then:>14.6g}{worse:>10.4f}"
            print(line)
        slowdowns = [t["probe_slowdown_min_median_max"][1] for t in timings if t]
        if slowdowns:
            shares = [t["blocks_by_kind"]["fast"] / t["blocks"] for t in timings if t]
            estimates = [t["estimate"] for t in timings if t]
            counts = ", ".join(f"{e} {estimates.count(e)}" for e in sorted(set(estimates)))
            print(f"{'':<{len(workload) + 2}}probe median slowdown {min(slowdowns):.2f}"
                  f" to {max(slowdowns):.2f}; fast share of blocks {min(shares):.2f}"
                  f" to {max(shares):.2f}; runs by estimate: {counts}")
        print(flush=True)

    label = args.label or ("heldout" if args.heldout else "tuning") + f"-trace{args.trace}"
    out.mkdir(exist_ok=True)
    (out / f"suite-{label}.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
