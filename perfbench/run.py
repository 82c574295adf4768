"""Benchmark entry point for ekl.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload runs in a fresh worker
process (``worker.py``) that imports ``ekl`` from the checkout's ``src/``,
builds its inputs from the seed, and runs a single-client closed loop over
the workload's op list for ``--seconds``.  Set-up (interpreter start,
``import ekl``, generating and writing the inputs) is timed in extra
set-up-only workers as well, before and after the measuring worker, and
its median is reported.  The timing metrics are in "ref" units: op times
divided by the time of a fixed reference computation run around each op
(see ``worker.measure``), so that the host's drift in speed cancels out;
the seconds are printed as well.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The command exits non-zero when any
op fails or gives an output its oracle rejects, or when the library cannot
be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# extra set-up-only workers, half before and half after the measuring worker
# (which adds one sample), so that set-up is sampled at two moments of the run
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s

class BenchmarkError(RuntimeError):
    pass


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _spawn(args, seconds: float | None, deadline: float):
    """Start a worker and time it until it reports ``ready``.

    Returns (set-up seconds, the worker's result line or None)."""
    cmd = [
        sys.executable,
        WORKER,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--trace",
        str(args.trace),
    ]
    cmd += ["--setup-only"] if seconds is None else ["--seconds", str(seconds)]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - started
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(
            f"worker exited with code {proc.returncode}: {(first + err).strip()[-2000:]}"
        )
    lines = out.strip().splitlines()
    return setup, (lines[-1] if lines else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ekl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        setups = [_spawn(args, None, deadline)[0] for _ in range(SETUP_PROBES // 2)]
        setup, line = _spawn(args, args.seconds, deadline)
        setups.append(setup)
        setups += [_spawn(args, None, deadline)[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        result = json.loads(line)
    except (BenchmarkError, OSError, ValueError, TypeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed = len(result["failures"])
    attempted = result["attempted"]
    passes = result["pass_times"]
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} untraced passes of "
        f"{result['ops_per_pass']} ops; fail_share {failed}/{attempted} = "
        f"{failed / attempted:.4f}"
    )
    print("pass seconds: " + " ".join(f"{t:.4f}" for t in passes))
    print(
        f"raw seconds: wall_s {result['wall_s']:.6g}, op_p50_s {result['op_p50_s']:.6g}, "
        f"op_p75_s {result['op_p75_s']:.6g}; reference {result['reference_ms']:.4g} ms"
    )
    for reason in result["failures"][:20]:
        print(f"FAILED {reason}")
    if args.trace:
        print(f"trace written to {result['trace_file']}; missing names: {result['missing']}")
        values = result["layers"]
    else:
        values = dict(result, setup_s=statistics.median(setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
