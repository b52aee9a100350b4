#!/usr/bin/env python3
"""Build and run the repository's benchmark, bench_suite, and report its metrics.

One workload (what an automated runner calls):

    python3 bench/suite/run.py --workload NAME [--seed N] [--seconds S]
                               [--trace 0|1] [--reps R]

builds bench_suite into build-bench/ if needed, runs the workload in a fresh
process and prints its metrics by name and unit. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer metrics
with --trace 1.

The whole suite (no --workload): the attribution self-test, then every
workload's timed pass and traced pass, each in a fresh process. It prints
every metric, writes build-bench/suite_report.json and exits 1 if any answer
was wrong or the self-test failed.

Metric names, units and bounds are defined once, in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-bench"
BINARY = BUILD / "bench_suite"

# A sample charges the innermost frame under src/<module>/; samples with no
# such frame are "other". Each self-test loop must land here at least this often.
SELFTEST_MIN_SHARE = 0.80
SELFTEST_LOOPS = ("sim", "serde", "graph")

# Host times are reported at a nominal host speed: multiplied by this over
# the median time of bench_suite's speed probe in the same process (see
# ProbeSeconds in suite.cpp). The probe took about this long on the 4-core
# host the benchmark was defined on.
NOMINAL_PROBE_S = 0.045

# Per-layer metrics summed from the traced solve's obs::TraceSink spans.
SPAN_METRICS = {
    "async.compute_vs": "compute",
    "async.gate_blocked_vs": "gate-blocked",
    "async.down_vs": "down",
    "async.recovering_vs": "recovering",
    "async.ckpt_write_vs": "ckpt-write",
    "async.token_circuit_vs": "token-circuit",
    "cluster.slot_wait_vs": "slot-wait",
    "net.flow_vs": "flow",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds bench_suite from the checkout's sources."""
    if not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no simulator sources at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "bench" / "suite"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_binary(args):
    """Runs bench_suite and returns the JSON object on its last stdout line."""
    proc = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py: bench_suite {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def attribute(samples_path):
    """Charges each sample to a module: Counter per tag, from one addr2line batch."""
    sections = subprocess.run(["readelf", "-S", "-W", str(BINARY)], stdout=subprocess.PIPE,
                              text=True, check=True).stdout
    if ".debug_line" not in sections:
        sys.exit(f"run.py: {BINARY} has no debug info; samples cannot be attributed")
    samples = []
    with open(samples_path) as f:
        for line in f:
            tag, *frames = line.split()
            samples.append((tag, [int(a, 16) for a in frames]))
    addresses = sorted({a for _, frames in samples for a in frames})
    out = subprocess.run(["addr2line", "-a", "-i", "-e", str(BINARY)],
                         input="".join(f"{a:#x}\n" for a in addresses),
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    src = os.path.join(str(ROOT), "src") + os.sep
    module_of = {}  # address -> innermost src module of its inline chain
    address = None
    for line in out.splitlines():
        if line.startswith("0x"):
            address = int(line, 16)
        elif address not in module_of:
            path = os.path.normpath(line.rsplit(":", 1)[0])
            if path.startswith(src):
                module_of[address] = path[len(src):].split(os.sep, 1)[0]
    if samples and not module_of:
        sys.exit(f"run.py: no sampled frame resolved to a file under {src}")
    shares = {}
    for tag, frames in samples:
        module = next((module_of[a] for a in frames if a in module_of), "other")
        shares.setdefault(tag, Counter())[module] += 1
    return shares


def selftest():
    samples = BUILD / "samples-selftest.txt"
    samples.unlink(missing_ok=True)
    run_binary(["--selftest", "--samples", str(samples)])
    ok = True
    for tag, counts in sorted(attribute(samples).items()):
        total = sum(counts.values())
        share = counts[tag] / total if total else 0.0
        ok &= tag in SELFTEST_LOOPS and share >= SELFTEST_MIN_SHARE
        log(f"selftest {tag}: {share:.1%} of {total} samples in src/{tag}/ "
            f"(need {SELFTEST_MIN_SHARE:.0%}); top: {counts.most_common(3)}")
    return ok


def median(values):
    return statistics.median(values) if values else 0.0


def speed_scale(raw):
    """Factor that turns this process's host seconds into nominal-speed seconds."""
    return NOMINAL_PROBE_S / median(raw["probe_s"])


def end_to_end(raw):
    # Mean over the instances of each instance's median solve time: averaging
    # over inputs keeps solve_s steady from seed to seed.
    per_instance = [median(times) for times in raw["instance_solve_s"] if times]
    scale = speed_scale(raw)
    return {
        "solve_s": scale * statistics.fmean(per_instance),
        "setup_s": scale * median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, modules, shares):
    counts = raw["counts"]
    scale = speed_scale(raw)
    plain = scale * median(raw["solve_s"])
    sampled = scale * median(raw["sampled_solve_s"])
    total = sum(shares.values())
    m = dict(counts)
    m.update({name: raw["spans"].get(span, 0.0) for name, span in SPAN_METRICS.items()})
    # Keepalive iterations only advance a worker's clock and take no virtual
    # time, so their spans are counted rather than summed.
    m["async.keepalive_iters"] = raw["span_counts"].get("keepalive", 0)
    m.update({f"{mod}.host_pct": 100.0 * shares[mod] / total if total else 0.0
              for mod in modules})
    batches = counts["async.batches"]
    m.update({
        "sim.events_per_s": counts["sim.events"] / plain,
        "async.records_per_batch": counts["async.records"] / batches if batches else 0.0,
        "apps.host_us_per_iter": 1e6 * plain / counts["apps.iterations"],
        "apps.oracle_err": raw["oracle_err"],
        "apps.serial_s": scale * statistics.fmean(raw["serial_s"]),
        "setup.generate_s": scale * median(raw["generate_s"]),
        "graph.partition_pct": 100.0 * median(raw["partition_s"]) / median(raw["setup_s"]),
        "graph.cut_fraction": raw["cut_fraction"],
        "trace.samples": raw["samples"],
        "trace.overhead_frac": sampled / plain - 1.0,
    })
    return m


def run_workload(spec, name, seed, seconds, trace, reps):
    """One fresh bench_suite process; returns (raw, metrics) for the pass."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if reps:
        args += ["--reps", str(reps)]
    if not trace:
        raw = run_binary(args)
        return raw, end_to_end(raw)
    samples = BUILD / f"samples-{name}.txt"
    samples.unlink(missing_ok=True)
    raw = run_binary(args + ["--traced", "--samples", str(samples)])
    modules = [m["name"].removesuffix(".host_pct") for m in spec["per_layer"]
               if m["name"].endswith(".host_pct")]
    shares = attribute(samples).get("solve", Counter())
    unknown = set(shares) - set(modules)
    if unknown:
        sys.exit(f"run.py: samples charged to modules BENCHMARK.json lacks: {unknown}")
    return raw, per_layer(raw, modules, shares)


def report(spec, raw, metrics, trace):
    """Prints each metric by name and unit; returns the result record for stdout."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = metrics[name]
        out[name] = {"value": value, "unit": unit}
        extra = ""
        if name == "solve_s":
            medians = ", ".join(f"{median(t):.4g}" for t in raw["instance_solve_s"])
            reps = sum(len(t) for t in raw["instance_solve_s"])
            extra = (f"  (raw instance medians {medians} s; {reps} timed solves; "
                     f"probe {median(raw['probe_s']):.4g} s)")
        print(f"  {name:28s} {value:14.6g} {unit}{extra}")
    for failure in raw["failures"]:
        print(f"  FAILED {failure}")
    return {"correct": raw["failed"] == 0, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": out}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=0,
                        help="exactly this many timed solves instead of --seconds")
    args = parser.parse_args()
    build()

    if args.workload:
        print(f"{args.workload} seed {args.seed} trace {args.trace}:")
        raw, metrics = run_workload(spec, args.workload, args.seed, args.seconds,
                                    args.trace, args.reps)
        print(json.dumps(report(spec, raw, metrics, args.trace)))
        return 0

    selftest_ok = selftest()
    ok = selftest_ok
    results = {}
    for name in names:
        for trace in (0, 1):
            print(f"{name} seed {args.seed} {'traced' if trace else 'timed'} pass:")
            raw, metrics = run_workload(spec, name, args.seed, args.seconds, trace,
                                        args.reps)
            record = report(spec, raw, metrics, trace)
            ok &= record["correct"]
            results.setdefault(name, {})["traced" if trace else "timed"] = {
                **record, "raw": raw}
    path = BUILD / "suite_report.json"
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "selftest": selftest_ok, "workloads": results}, f,
                  indent=1)
    print(f"report: {path}; {'all answers correct' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
