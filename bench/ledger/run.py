#!/usr/bin/env python3
"""Performance ledger runner.

Builds dg_ledger from source inside the top-level CMake tree (into
.bench_build/tree under the repository root, see in_tree.cmake), runs
workloads in their own processes, checks each result against the names and
units in BENCHMARK.json, and prints a report.

One workload (the form a benchmark harness calls); the last line printed is
one JSON object with exactly the keys correct, attempted, failed, metrics:

    python3 bench/ledger/run.py --workload train-wwt --seed 1 --seconds 15 --trace 0

Every workload, each in its own process (--trace 1 adds one traced run per
workload after the untraced ones and prints the per-layer tree):

    python3 bench/ledger/run.py --seed 1 [--trace 1] [--repeat 5] [--out ledger.json]

Ledger files written with --out are the input of compare.py.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "tree"
CONFIGS = ROOT / "examples" / "configs"
RUN_TIMEOUT_S = 170


class LedgerError(Exception):
    pass


def load_benchmark(path=ROOT / "BENCHMARK.json"):
    return json.loads(Path(path).read_text())


def build():
    """Configures the top-level tree with the ledger added (once; the build
    step re-runs CMake when a CMake file changes) and builds dg_ledger.
    Build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [] if (BUILD / "CMakeCache.txt").exists() else [
        ["cmake", "-S", str(ROOT), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
         f"-DCMAKE_PROJECT_INCLUDE={HERE / 'in_tree.cmake'}"]]
    steps.append(["cmake", "--build", str(BUILD), "--target", "dg_ledger",
                  "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise LedgerError("build failed: " + " ".join(cmd))
    return BUILD / "dg_ledger"


def run_workload(binary, workload, seed, seconds, trace, smoke=False,
                 work=BUILD / "work"):
    """Runs one workload in its own process and returns its JSON record."""
    Path(work).mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--configs", str(CONFIGS), "--work", str(work)]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise LedgerError(f"{workload}: dg_ledger exited {p.returncode}")
    return json.loads(lines[-1])


def contract_line(record, bench):
    """The result line: every end-to-end metric (every per-layer metric for
    a traced run) by its BENCHMARK.json name and unit. Raises LedgerError
    when the record lacks one, gives another unit, or a value that is not
    a finite number."""
    trace = bool(record["trace"])
    specs = bench["per_layer" if trace else "end_to_end"]
    source = record["layers" if trace else "metrics"]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        m = source.get(name)
        if m is None:
            raise LedgerError(f"{record['workload']}: no metric {name}")
        if m["unit"] != spec["unit"]:
            raise LedgerError(f"{record['workload']}: {name} in {m['unit']}, "
                              f"BENCHMARK.json says {spec['unit']}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise LedgerError(f"{record['workload']}: {name} = {m['value']}")
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    attempted, failed = int(record["attempted"]), int(record["failed"])
    return {"correct": failed == 0 and attempted >= 1, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


def report(record, bench):
    """Human-readable report of one run."""
    m = record["machine"]
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']}  seed {record['seed']}  {record['seconds']} s  "
          f"{mode}  unit: {record['info'].get('unit', '?')}")
    print(f"   nproc {m['nproc']}  simd {m['simd_tier']}  pool threads "
          f"{m['pool_threads']}  {m['compiler']}  {m['build_type']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"   attempted {attempted:.0f}  failed {failed:.0f}  "
          f"fail_frac {failed / max(attempted, 1):.3g}")
    for f in record["failures"]:
        print(f"   FAILED CHECK: {f}")
    for spec in bench["end_to_end"]:
        x = record["metrics"].get(spec["name"])
        if x:
            print(f"   {spec['name']:<34} {fmt(x['value']):>12} {x['unit']:<8} n={x['n']:.0f}")
    info = record["info"]
    if "fingerprint" in info:
        print(f"   fingerprint {info['fingerprint']} (changes when the arithmetic does)")
    for row in info.get("ladder", []):
        print(f"   rate {row['name']:<4} {row['rate']:>6.0f}/s  sent {row['sent']:.0f}  "
              f"ok {row['ok']:.0f}  p50 {fmt(row['p50_ms'])} ms  p99 {fmt(row['p99_ms'])} ms  "
              f"{'meets' if row['meets_limit'] else 'misses'} L={info['latency_limit_ms']:.0f} ms")
    if "ladder" in info:
        print(f"   highest fixed rate meeting L: {info['max_rate_meeting_limit']:.0f}/s")
    if record["layers"]:
        print("   per-layer:")
        for name, x in sorted(record["layers"].items()):
            print(f"     {name:<34} {fmt(x['value']):>12} {x['unit']:<8} n={x['n']:.0f}")
    if record["self_ms"]:
        total = sum(record["self_ms"].values())
        print("   split of one unit of work (ms):")
        for name, ms in sorted(record["self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"     {name:<34} {fmt(ms):>12}  {100 * ms / total:5.1f}%")
        print(f"     {'sum':<34} {fmt(total):>12}")
        traced = record["layers"].get("obs.traced_latency_ms_p50")
        iteration = record["layers"].get("train.iter_span_ms")
        if iteration:
            print(f"     sum vs iteration span: residual "
                  f"{fmt(iteration['value'] - total)} ms; span vs TrainStats wall "
                  f"{fmt(record['layers']['train.iter_residual_ms']['value'])} ms")
        elif traced:
            print(f"     (traced p50 of a unit: {fmt(traced['value'])} ms)")


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(records, bench):
    """Median and quartiles of each end-to-end metric over untraced runs."""
    out = {}
    for spec in bench["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in records]
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        out[spec["name"]] = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0,
                             "runs": len(values)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run only this workload (result line last)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="untraced runs per workload, same seed (all-workload form)")
    ap.add_argument("--out", help="write every run's record to this ledger file")
    args = ap.parse_args()

    try:
        bench = load_benchmark()
        seconds = args.seconds or bench["run_seconds"]
        binary = build()
        if args.workload:
            record = run_workload(binary, args.workload, args.seed, seconds,
                                  args.trace)
            line = contract_line(record, bench)
            report(record, bench)
            records = [record]
        else:
            records = []
            for w in (w["name"] for w in bench["workloads"]):
                runs = []
                for _ in range(args.repeat):
                    runs.append(run_workload(binary, w, args.seed, seconds, False))
                    contract_line(runs[-1], bench)
                    report(runs[-1], bench)
                if args.trace:
                    traced = run_workload(binary, w, args.seed, seconds, True)
                    contract_line(traced, bench)
                    # Traced latency_ms_p50 against the untraced median.
                    base = statistics.median(
                        r["layers"]["latency_ms_p50"]["value"] for r in runs)
                    traced["layers"]["obs.trace_overhead_frac"] = {
                        "value": traced["layers"]["obs.traced_latency_ms_p50"]["value"]
                        / base - 1, "unit": "frac", "n": len(runs)}
                    report(traced, bench)
                    runs.append(traced)
                untraced = [r for r in runs if not r["trace"]]
                if len(untraced) > 1:
                    print(f"== {w}: {len(untraced)} untraced runs")
                    for name, s in summarize(untraced, bench).items():
                        print(f"   {name:<34} median {fmt(s['median'])} {s['unit']}  "
                              f"q1 {fmt(s['q1'])}  q3 {fmt(s['q3'])}  "
                              f"spread {100 * s['spread']:.2f}%")
                records += runs
        if args.out:
            summary, pool_threads = {}, {}
            for w in (x["name"] for x in bench["workloads"]):
                untraced = [r for r in records if r["workload"] == w and not r["trace"]]
                if untraced:
                    summary[w] = summarize(untraced, bench)
                    pool_threads[w] = untraced[0]["machine"]["pool_threads"]
            machine = {k: v for k, v in records[0]["machine"].items()
                       if k != "pool_threads"}
            ledger = {"machine": machine, "pool_threads": pool_threads,
                      "seed": args.seed, "seconds": seconds, "summary": summary,
                      "runs": records}
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    except (LedgerError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] for r in records)
    if args.workload:
        print(json.dumps(line))
    return 0 if failed == 0 or args.workload else 1


if __name__ == "__main__":
    sys.exit(main())
