#!/usr/bin/env python3
"""The pemnet benchmark: seeded workloads, one closed-loop caller, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 30 --trace 0

One process sends the next trial or request only after the previous one has
returned; there is no worker pool, and BLAS runs on one thread. --trace 0
measures the end-to-end metrics with the program unmodified. A machine-speed
probe between blocks of items (see probe.py) sorts the blocks into fast and
slow ones; throughput and latency are those of the fast blocks, or, in a run
that was slow nearly throughout, those of the slow blocks divided by the
workload's contention factor.
--trace 1 alternates untraced blocks with traced blocks over the same inputs,
drives the traced blocks stage by stage inside spans, requires both to
produce the same outputs, and reports the per-layer metrics. The last line of
standard output is the result as JSON; the line before it is the provenance.
Both, and the spans of a traced run, are also written under .perfbench_out/.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

# Set before numpy loads; the machine the figures come from has 2 cores, and
# one caller with one BLAS thread keeps the load to a single core.
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# With fewer fast items, a run takes its timings from the slow blocks.
MIN_FAST_ITEMS = 20
# Each set-up step, and the import, repeats until SETUP_FAST of its repeats
# are fast, or for its share of the budget.
SETUP_FAST = 3
SETUP_BUDGET_S = 4.0
IMPORT_BUDGET_S = 2.0
IMPORT_TIMER = (
    "import time; t0 = time.perf_counter(); import numpy, pemnet; "
    "print(time.perf_counter() - t0)"
)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pemnet").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def by_kind(blocks, kind):
    return [b for b in blocks if b[2] == kind]


def timing_metrics(blocks, contention: float) -> tuple[dict, str]:
    """Throughput and latency at the machine's uncontended speed, and how
    they were estimated.

    "fast": from the fast blocks, raw. "slow": in a run with fewer than
    MIN_FAST_ITEMS fast items, from the slow blocks, with their times divided
    by the workload's contention factor. "raw": from every block, when none
    was fast or slow.
    """
    import numpy as np  # loaded by main, after the BLAS pin

    fast = by_kind(blocks, "fast")
    slow = by_kind(blocks, "slow")
    if sum(len(b[0]) for b in fast) >= MIN_FAST_ITEMS or not slow:
        estimate, base, factor = ("fast" if fast else "raw"), fast or blocks, 1.0
    else:
        estimate, base, factor = "slow", slow, contention
    base_ms = np.concatenate([b[0] for b in base]) * 1e3 / factor
    return {
        "throughput_per_s": base_ms.size / sum(b[1] for b in base) * factor,
        "latency_ms_p50": float(np.percentile(base_ms, 50)),
        "latency_ms_p90": float(np.percentile(base_ms, 90)),
    }, estimate


def p50_by_kind(blocks) -> dict:
    out = {}
    for kind in ("fast", "slow"):
        lat = [x for b in by_kind(blocks, kind) for x in b[0]]
        out[kind] = statistics.median(lat) * 1e3 if lat else None
    return out


def measure_untraced(wl, seconds: float, meter):
    """Closed loop over items, in blocks separated by probe readings.

    Returns the blocks as [item latencies, block seconds, "fast", "slow" or
    None, reading before, reading after], sorted by the run's readings at the
    end.
    """
    blocks = []
    i = 0
    before = meter.measure()
    start = time.perf_counter()
    while True:
        latencies = []
        t_block = time.perf_counter()
        while not latencies or time.perf_counter() - t_block < meter.interval_s:
            t0 = time.perf_counter()
            out = wl.run_plain(i)
            latencies.append(time.perf_counter() - t0)
            wl.observe(i, out)
            i += 1
        block_s = time.perf_counter() - t_block
        after = meter.measure()
        blocks.append([latencies, block_s, None, before, after])
        before = after
        if time.perf_counter() - start >= seconds:
            for b in blocks:
                b[2] = meter.classify(b[3], b[4])
            return blocks


def fast_median(step, meter, budget_s: float):
    """Median seconds of step() over its fast repeats (see probe.py).

    step() returns the seconds it took. It repeats until SETUP_FAST repeats
    were fast or budget_s has passed. When no repeat was fast, the median is
    over the slow repeats, each scaled by meter.scale (set-up is mostly
    interpreter loops, the kind of work the probe's time is mostly made of),
    or else over every repeat. Returns (seconds, every repeat as (seconds,
    kind, scale)).
    """
    tries = []
    start = time.perf_counter()
    while not tries or (sum(t[1] == "fast" for t in tries) < SETUP_FAST
                        and time.perf_counter() - start < budget_s):
        before = meter.measure()
        elapsed = step()
        after = meter.measure()
        tries.append((elapsed, meter.classify(before, after), meter.scale(before, after)))
    fast = [x for x, kind, _ in tries if kind == "fast"]
    slow = [x * scale for x, kind, scale in tries if kind == "slow"]
    return statistics.median(fast or slow or [t[0] for t in tries]), tries


def timed(step):
    def run() -> float:
        t0 = time.perf_counter()
        step()
        return time.perf_counter() - t0
    return run


def import_once() -> float:
    """Seconds to import numpy and pemnet in a fresh interpreter with the BLAS
    pin, on this process's CPU."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PIN)
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(wl, meter):
    """setup_s: the import plus every set-up step, each at its fast median.
    Returns (seconds, the repeats of the import and of each step)."""
    total, imports = fast_median(import_once, meter, IMPORT_BUDGET_S)
    steps = wl.setup_steps()
    repeats = [imports]
    for step in steps:
        seconds, tries = fast_median(timed(step), meter, SETUP_BUDGET_S / len(steps))
        total += seconds
        repeats.append(tries)
    return total, repeats


def measure_traced(wl, seconds: float, tracer):
    """Alternate untraced and traced blocks over the same items.

    Returns (items per second untraced, items per second traced, problems).
    The traced block time excludes the sweeps' dt/tau probe, which is not
    part of a trial.
    """
    block = wl.trace_block
    plain_s = traced_s = 0.0
    plain_n = traced_n = 0
    problems = []
    start = time.perf_counter()
    b = 0
    while b < 2 or time.perf_counter() - start < seconds:
        items = range(b * block, (b + 1) * block)
        outs = {}
        for mode in (("plain", "traced") if b % 2 == 0 else ("traced", "plain")):
            first_span = len(tracer.spans)
            t0 = time.perf_counter()
            if mode == "plain":
                outs[mode] = [wl.run_plain(i) for i in items]
                plain_s += time.perf_counter() - t0
                plain_n += block
            else:
                with tracing.installed(tracer):
                    outs[mode] = [wl.run_traced(i, tracer) for i in items]
                elapsed = time.perf_counter() - t0
                probe = sum(s[5] - s[4] for s in tracer.spans[first_span:]
                            if s[3] == "bench.tau_probe")
                traced_s += elapsed - probe
                traced_n += block
        for i, plain, traced in zip(items, outs["plain"], outs["traced"]):
            wl.observe(i, plain)
            if not wl.same(plain, traced) and len(problems) < 5:
                problems.append(f"item {i}: traced outputs differ from untraced")
        b += 1
    return plain_n / plain_s, traced_n / traced_s, problems


def main(argv=None) -> int:
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    args = parse_args(argv, [w["name"] for w in declared["workloads"]])
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "pemnet" / "__init__.py").is_file():
        return fail(f"no pemnet sources under {SRC}; run from a checkout of the repository")

    # numpy loads here, after the pin, inside the import time of setup_s
    os.environ.update(BLAS_PIN)
    # One CPU for the whole run: the two CPUs of the reference VM are contended
    # independently, so the probe must read the CPU the items run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import numpy as np
    import pemnet
    if Path(pemnet.__file__).resolve().parent != (SRC / "pemnet").resolve():
        return fail(f"imported pemnet from {pemnet.__file__}, not from {SRC}")

    import probe
    import workloads

    wl = workloads.make(args.workload, args.seed)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": pemnet.dynamics.BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "nproc": os.cpu_count(),
        "cpu_pin": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "grid": wl.grid,
        "load": "closed loop, 1 caller, no worker pool",
    }

    tracer = tracing.Tracer()
    if args.trace:
        try:
            with tracing.installed(tracer):
                wl.setup(tracer)
            plain_rate, traced_rate, problems = measure_traced(wl, args.seconds, tracer)
        except tracing.MissingTarget as exc:
            return fail(f"cannot trace: pemnet has no {exc}")
        build, work = wl.traces()
        values = tracing.layer_metrics(tracer.spans, build, work)
        values["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
        provenance["traced_items"] = len(work)
        section = declared["per_layer"]
    else:
        meter = probe.Probe()
        setup_s, setups = measure_setup(wl, meter)
        blocks = measure_untraced(wl, args.seconds, meter)
        problems = []
        provenance["latency_samples"] = {
            kind: sum(len(b[0]) for b in by_kind(blocks, kind)) for kind in ("fast", "slow")
        }
        provenance["timing"] = {
            "fast_within": probe.FAST,
            "slow_within": probe.SLOW,
            "blocks": len(blocks),
            "blocks_by_kind": {kind or "mixed": len(by_kind(blocks, kind))
                               for kind in ("fast", "slow", None)},
            "items": sum(len(b[0]) for b in blocks),
            "probe_slowdown_min_median_max": [min(meter.readings),
                                              statistics.median(meter.readings),
                                              max(meter.readings)],
            "setup_repeats": setups,
        }
        values, estimate = timing_metrics(blocks, wl.contention)
        provenance["timing"]["estimate"] = estimate
        provenance["timing"]["contention"] = wl.contention
        provenance["timing"]["p50_ms_by_kind"] = p50_by_kind(blocks)
        if estimate != "fast":
            print(f"perfbench: too few fast items; the timings are {estimate}",
                  file=sys.stderr)
        values["setup_s"] = setup_s
        section = declared["end_to_end"]

    problems += wl.problems()
    accs = np.array(list(wl.outputs.values()))
    attempted, failed = int(accs.size), int(np.isnan(accs).sum())
    provenance["accuracy_mean_by_pem"] = dict(
        zip(workloads.PEMS, np.nanmean(accs, axis=0).tolist())
    )
    if not args.trace:
        values["accuracy_mean"] = float(np.nanmean(accs))
        values["ok_frac"] = (attempted - failed) / attempted
        values["peak_rss_mb"] = peak_rss_mb()

    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(values):
        return fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    provenance["problems"] = problems
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"provenance": provenance, "result": result}, indent=1))
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report the failure, print no result
        traceback.print_exc()
        sys.exit(1)
