"""End-to-end benchmark of adele-forge: one workload, one seed, one run.

    python3 perfbench/run.py --workload cohomology --seed 0 --seconds 30 --trace 0

Runs passes over the workload's corpus, each in a fresh interpreter with cold
program caches (see passrun.py), until ``--seconds`` are used, then prints one
line per metric and, last, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced passes
alternate and the metrics are the per-layer ones plus the tracing overhead.
The run's metadata and metrics also go to ``.perfbench/results/``.

The program is imported from ``src`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

# Times are reported at reference speed.  On a shared machine the speed of
# the CPU swings by tens of percent within seconds.  A pass times a fixed
# pure-Python kernel (passrun.calibration_s) before its first operation and
# after each one; an operation's time is scaled by REFERENCE_CALIBRATION_S
# over the mean of the kernel times on either side of it, and set-up time by
# REFERENCE_CALIBRATION_S over the median kernel time of the pass.
REFERENCE_CALIBRATION_S = 0.0135
MIN_PASSES = 3  # untraced passes of a --trace 0 run: every median has three
MIN_TRACED_PAIRS = 2  # a --trace 1 run: per-layer metrics have no bound
PASS_TIMEOUT_S = 150
MAX_RUN_S = 160  # no pass may end later, even below the minimum: exit within 180 s


class BenchError(Exception):
    pass


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_pass(workload, payload, trace_stem=None):
    """One pass in a fresh interpreter; returns its result dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload]
    if trace_stem:
        cmd += ["--trace", str(trace_stem)]
    t0 = _now_ns()
    try:
        proc = subprocess.run(
            cmd, input=payload, capture_output=True, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a %s pass took over %d s" % (workload, PASS_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("a %s pass failed:\n%s" % (workload, proc.stderr.decode()[-3000:]))
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    result["setup_s"] = (result["ready_ns"] - t0) / 1e9
    result["wall_s"] = (_now_ns() - t0) / 1e9
    cal = result["calibration_s"]
    result["scale"] = REFERENCE_CALIBRATION_S / statistics.median(cal)
    for i, op in enumerate(result["ops"]):
        op["scaled_s"] = op["latency_s"] * 2 * REFERENCE_CALIBRATION_S / (cal[i] + cal[i + 1])
    result["pass_s"] = sum(op["latency_s"] for op in result["ops"])
    return result


def run_passes(workload, ops, seconds, trace):
    """Passes until ``seconds`` are used; a pass starts only if the median
    pass so far still fits.  In trace mode plain and traced passes alternate."""
    payload = json.dumps(ops).encode()
    kinds = [False, True] if trace else [False]
    OUT.mkdir(exist_ok=True)
    stem = OUT / ("trace-%s" % workload)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        for kind in kinds:
            (traced if kind else plain).append(run_pass(workload, payload, stem if kind else None))
        elapsed = time.monotonic() - start
        walls = [r["wall_s"] for r in plain + traced]
        step = statistics.median(walls) * len(kinds)
        enough = len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_PASSES
        if (enough and elapsed + step > seconds) or elapsed + step > MAX_RUN_S:
            return plain, traced


def check_outputs(workload, seed, passes):
    """Failed operations over all passes: an operation fails if it raised,
    if an oracle field is not ``match``, if its report bytes differ between
    passes, or if they differ from the golden digest of the default seed."""
    golden = None
    if workload == "selfcheck" or seed == corpus.DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text())[workload]["reports"]
    reference = golden or [op["digest"] for op in passes[0]["ops"]]
    failed, errors = 0, []
    for result in passes:
        if len(result["ops"]) != len(reference):
            raise BenchError("pass ran %d operations, expected %d" % (len(result["ops"]), len(reference)))
        for i, op in enumerate(result["ops"]):
            if not op["ok"] or op["digest"] != reference[i]:
                failed += 1
                errors.append("op %d: %s" % (i, op["error"] or ("oracle" if not op["ok"] else "digest")))
    return failed, errors


def metadata(workload, seed, seconds, trace, backend):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _scaled(passes, key):
    return statistics.median(r[key] * r["scale"] for r in passes)


def _op_medians(passes):
    """Each operation's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*([op["scaled_s"] for op in r["ops"]] for r in passes))]


def end_to_end(plain):
    # Percentiles are taken over the operations, each at its median over the
    # passes; pooling every sample instead would let the number of passes
    # decide which operation p90 falls on.
    ops = _op_medians(plain)
    return {
        "latency samples": "%d operations x %d passes" % (len(ops), len(plain)),
        "raw pass_s": statistics.median(r["pass_s"] for r in plain),
        "raw setup_s": statistics.median(r["setup_s"] for r in plain),
        "speed scale": statistics.median(r["scale"] for r in plain),
        "metrics": {
            "setup_s": (_scaled(plain, "setup_s"), "s"),
            "pass_s": (sum(ops), "s"),
            "op_p50_ms": (1e3 * statistics.median(ops), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(ops, n=10, method="inclusive")[8], "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        },
    }


def per_layer(plain, traced):
    """Per-layer metrics: self times are medians over the traced passes,
    counts (the same on every pass) come from the first one."""
    metrics = {}
    for name, value in traced[0]["layers"].items():
        if name.endswith("self_s"):
            metrics[name] = (statistics.median(r["layers"][name] * r["scale"] for r in traced), "s")
        else:
            metrics[name] = (value, "count")
    caches = [r["expansion_cache"] for r in traced if "expansion_cache" in r]
    if len(caches) == len(traced):
        hits, misses = caches[0]
        metrics["curves.expansion_cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["setup.import_s"] = (_scaled(traced, "setup_s"), "s")
    metrics["setup.rss_mb"] = (statistics.median(r["rss_after_import_mb"] for r in traced), "MB")
    overhead = sum(_op_medians(traced)) / sum(_op_medians(plain)) - 1
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    return {"traced passes": len(traced), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's report digests as the golden ones (default seed only)")
    args = parser.parse_args(argv)

    if not (SRC / "adele_forge" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no program at %s; run from a checkout of the repository\n" % SRC)
        return 2

    ops = corpus.generate(args.workload, args.seed)
    try:
        plain, traced = run_passes(args.workload, ops, args.seconds, args.trace)
        if args.update_golden:
            return update_golden(args.workload, args.seed, ops, plain)
        failed, errors = check_outputs(args.workload, args.seed, plain + traced)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1

    attempted = sum(len(r["ops"]) for r in plain + traced)
    meta = metadata(args.workload, args.seed, args.seconds, args.trace, plain[0]["backend"])
    meta.update(passes=len(plain), ops_per_pass=len(plain[0]["ops"]))
    summary = per_layer(plain, traced) if args.trace else end_to_end(plain)
    metrics = summary.pop("metrics")
    meta.update(summary)
    meta["ops_failed_frac"] = failed / attempted

    for key, value in meta.items():
        print("# %s: %s" % (key, value))
    for err in errors[:20]:
        print("# failed %s" % err)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    target = results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    target.write_text(json.dumps(dict(record, metadata=meta), indent=2, sort_keys=True) + "\n")
    print(json.dumps(record))
    return 0


def update_golden(workload, seed, ops, plain):
    if seed != corpus.DEFAULT_SEED:
        raise BenchError("golden digests are kept for the default seed only")
    digests = [op["digest"] for op in plain[0]["ops"]]
    bad = [i for r in plain for i, op in enumerate(r["ops"]) if not op["ok"] or op["digest"] != digests[i]]
    if bad:
        raise BenchError("operations %s failed or differ between passes" % sorted(set(bad)))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[workload] = {
        "corpus_sha256": corpus.corpus_sha256(ops),
        "reports": digests,
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("golden digests for %s written to %s" % (workload, GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
