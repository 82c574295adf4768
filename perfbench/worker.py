"""One workload in a fresh process: a single-client closed loop over the
workload's op list, each op a call of ``ekl.cli.main`` with its output
captured and checked by the op's oracle.

Protocol with ``run.py``: the worker prints ``ready`` on stdout once its
inputs are ready (that moment ends set-up), then, unless ``--setup-only``,
measures and prints one JSON result line.  Library output is captured,
so stdout carries only these two lines.

Run by ``run.py``; by hand::

    python3 perfbench/worker.py --workload random-q --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")


def import_library():
    """Import ``ekl`` from the checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import ekl.cli

    location = os.path.realpath(ekl.cli.__file__)
    if not location.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"ekl was imported from {location}, not from {src}")
    return ekl.cli


def run_op(cli, op) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects an argv this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def reference() -> None:
    """A fixed pure-Python computation of about 2 ms, of the kind the
    library spends its time on: a product of dict-based polynomials with
    big-integer coefficients.  Timed between ops, it measures how fast the
    machine runs Python at that moment; it uses nothing from ``ekl``."""
    p = {(i, j): (i * 7919 + j * 104729 + 1) ** 3 for i in range(8) for j in range(8)}
    product: dict[tuple[int, int], int] = {}
    for (a, b), c in p.items():
        for (d, e), f in p.items():
            key = (a + d, b + e)
            product[key] = product.get(key, 0) + c * f
    sorted(product.items())


def timed_reference(reference_times: list[float]) -> None:
    t0 = time.perf_counter()
    reference()
    reference_times.append(time.perf_counter() - t0)


def run_pass(cli, ops, tracer=None, reference_times=None):
    """Run every op once; returns (seconds in ops, op seconds, outputs).

    With a ``reference_times`` list, ``reference()`` runs and is timed
    before the first op and after every op, outside the ops' times, so op
    ``i`` lies between reference runs ``i`` and ``i + 1``."""
    times, outputs = [], []
    if reference_times is not None:
        timed_reference(reference_times)
    for op in ops:
        t0 = time.perf_counter()
        if tracer is None:
            result = run_op(cli, op)
        else:
            result = tracer.op(op.name, lambda: run_op(cli, op))
        times.append(time.perf_counter() - t0)
        outputs.append(result)
        if reference_times is not None:
            timed_reference(reference_times)
    return sum(times), times, outputs


def check_pass(ops, outputs) -> list[str]:
    failures = []
    for op, (code, stdout) in zip(ops, outputs):
        reason = op.check(code, stdout)
        if reason is not None:
            failures.append(f"{op.name}: {reason}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_library()
    import workloads

    inputs = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        ops = workloads.build_ops(args.workload, args.seed, inputs)
        print("ready", flush=True)
        if not args.setup_only:
            print(json.dumps(measure(cli, ops, args)), flush=True)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return 0


def op_quantiles(per_op: list[list[float]]) -> tuple[float, float]:
    """Median and 75th percentile over the op list of each op's median
    time over the passes."""
    typical = [statistics.median(times) for times in per_op]
    return statistics.median(typical), statistics.quantiles(typical, n=4)[2]


def measure(cli, ops, args) -> dict:
    """Closed loop for ``--seconds``.

    Every pass interleaves ``reference()`` with the ops.  The host's
    speed drifts by up to 2x within seconds and between runs, and it
    slows the reference as much as the ops, so each op time is also
    reported divided by the mean of the two reference times around it:
    the op's time in "ref" units, which stays put while the host drifts."""
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    pass_times, pass_refs, traced_times, traced_refs = [], [], [], []
    op_times = [[] for _ in ops]
    op_refs = [[] for _ in ops]
    reference_times, failures = [], []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    min_passes = 1 if tracer is None else 2
    last = 0.0
    # start another pass while it would end before the deadline or overrun
    # it by less than half a pass, so that a run lasts about --seconds
    while (
        len(pass_times) + len(traced_times) < min_passes
        or time.perf_counter() + last / 2 < deadline
    ):
        # a traced run alternates untraced and traced passes, so that the
        # tracing overhead is measured in the same process
        traced = tracer is not None and len(traced_times) < len(pass_times)
        refs = []
        started = time.perf_counter()
        if traced:
            tracer.install()
            tracer.start_pass()
        try:
            wall, times, outputs = run_pass(cli, ops, tracer if traced else None, refs)
        finally:
            if traced:
                tracer.remove()
        last = time.perf_counter() - started
        normalized = [2 * t / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]
        reference_times.extend(refs)
        if traced:
            traced_times.append(wall)
            traced_refs.append(sum(normalized))
        else:
            pass_times.append(wall)
            pass_refs.append(sum(normalized))
            for i, (t, n) in enumerate(zip(times, normalized)):
                op_times[i].append(t)
                op_refs[i].append(n)
        attempted += len(ops)
        failures.extend(check_pass(ops, outputs))

    op_p50_ref, op_p75_ref = op_quantiles(op_refs)
    op_p50_s, op_p75_s = op_quantiles(op_times)
    result = {
        "attempted": attempted,
        "failures": failures,
        "pass_times": pass_times,
        "ops_per_pass": len(ops),
        "wall_ref": statistics.median(pass_refs),
        "op_p50_ref": op_p50_ref,
        "op_p75_ref": op_p75_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": statistics.median(pass_times),
        "op_p50_s": op_p50_s,
        "op_p75_s": op_p75_s,
        "reference_ms": 1e3 * statistics.median(reference_times),
    }
    if tracer is not None:
        per_pass = [tracer.pass_metrics(i) for i in range(len(tracer.passes))]
        # median_low keeps counters exact: they repeat in every pass
        layers = {
            key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]
        }
        layers["trace.wall_s"] = statistics.median(traced_times)
        # traced minus untraced pass time, both in ref units (so that drift
        # between the passes cancels) and converted back at the run's
        # median reference time
        overhead_ref = statistics.median(traced_refs) - result["wall_ref"]
        layers["trace.overhead_s"] = overhead_ref * result["reference_ms"] / 1e3
        layers["trace.missing_names"] = len(tracer.missing)
        for key in ("wall_s", "op_p50_s", "op_p75_s", "reference_ms"):
            layers["raw." + key] = result[key]
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path)
        result["layers"] = layers
        result["trace_file"] = os.path.relpath(path, ROOT)
        result["missing"] = tracer.missing
    return result


if __name__ == "__main__":
    sys.exit(main())
