"""One pass over a workload in a fresh interpreter.

Reads the corpus (a JSON list of operations) from stdin, runs every operation
once through the program's public entry points and prints one JSON line with
the timings, the report digests and, with ``--trace STEM``, the per-layer
metrics (the spans go to ``STEM.json`` / ``STEM.bin``).  ``run.py`` starts
one of these per pass, so every pass begins with cold program caches.
"""

import argparse
import gc
import hashlib
import json
import resource
import sys
import time


def _now_ns():
    # system-wide clock, so the parent can time set-up from before exec
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Elt:
    """A GF(p) scalar shaped like the program's: slots, operator methods."""

    __slots__ = ("v",)
    P = 10007

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Elt((self.v + other.v) % self.P)

    def __mul__(self, other):
        return _Elt((self.v * other.v) % self.P)


def _calibration_kernel():
    # a fixed truncated series product over _Elt: the same kind of work
    # (method dispatch, small-int arithmetic, allocation) as the program
    a = [_Elt((i * 7919 + 3) % _Elt.P) for i in range(200)]
    b = [_Elt((i * 104729 + 11) % _Elt.P) for i in range(200)]
    out = [_Elt(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: len(a) - i]):
            out[i + j] = out[i + j] + x * y
    return out


def calibration_s():
    """Wall time of one call of the calibration kernel (~14 ms).  The
    garbage collector is off meanwhile: a collection would walk the
    program's live objects and tie the kernel's time to the program."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _digest(report):
    body = {k: v for k, v in report.items() if k != "version"}
    return hashlib.sha256(_dumps(body).encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", default=None, help="stem of the span files")
    args = parser.parse_args()

    from adele_forge import _kernels, cli, curves, pairing, selfcheck, signs
    from adele_forge.errors import AdeleForgeError

    ready_ns = _now_ns()
    rss_import = _rss_mb()
    corpus = json.load(sys.stdin)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    shipped = {
        "nu_weight2_exponent": signs.NU_WEIGHT2_EXPONENT,
        "surface_cycle_sign": signs.SURFACE_CYCLE_SIGN,
        "massey_pairing_exponent": signs.MASSEY_PAIRING_EXPONENT,
    }

    def call(name, layer, fn, *fargs):
        if tracer is None:
            return fn(*fargs)
        return tracer.run_span(name, layer, fn, *fargs)

    def check_op(check):
        try:
            ok, detail = call("selfcheck." + check.__name__, "selfcheck", check)
        except AdeleForgeError as exc:
            ok, detail = False, "%s: %s" % (exc.code, exc)
        except AssertionError as exc:
            ok, detail = False, "assertion: %s" % (exc,)
        status = "pass" if ok else "fail"
        return {"name": check.__name__, "status": status, "detail": detail}, ok

    def audit_op(_):
        report = pairing.sign_audit()
        return report.as_dict(), report.resolved == shipped

    def config_op(op):
        report = cli.run_config(op["config"], ext_bound=op["ext_bound"])
        oracle = [v for v in report["oracle"].values() if v in ("match", "MISMATCH")]
        return report, bool(oracle) and all(v == "match" for v in oracle)

    if args.workload == "selfcheck":
        jobs = [(check_op, c) for c in selfcheck.ALL_CHECKS] + [(audit_op, None)]
    else:
        jobs = [(config_op, op) for op in corpus]

    # the kernel runs before the first operation and after each one
    calibration = [calibration_s()]
    results = []
    for fn, arg in jobs:
        t0 = time.perf_counter()
        try:
            report, ok = fn(arg)
            _dumps(report)  # the CLI serializes every report it emits
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            report, ok, error = None, False, "%s: %s" % (type(exc).__name__, exc)
        results.append((time.perf_counter() - t0, report, ok, error))
        calibration.append(calibration_s())
    peak = _rss_mb()

    ops = [
        {"latency_s": latency, "ok": ok, "error": error, "digest": report and _digest(report)}
        for latency, report, ok, error in results
    ]

    out = {
        "ready_ns": ready_ns,
        "peak_rss_mb": peak,
        "rss_after_import_mb": rss_import,
        "calibration_s": calibration,
        "backend": _kernels.BACKEND,
        "ops": ops,
    }
    # absent, not zero, if the expansion cache is ever removed
    cache_info = getattr(curves._ec_expansions, "cache_info", None)
    if cache_info is not None:
        info = cache_info()
        out["expansion_cache"] = [info.hits, info.misses]
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        tracer.write(args.trace)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
