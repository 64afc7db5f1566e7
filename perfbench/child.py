"""One pass of one workload in a fresh process.

Started by run.py with the monotonic clock reading taken just before the
spawn, so that setup_s covers interpreter start, the qpbw import and input
generation.  Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() in the parent just before spawn")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    import tracer
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    setup_s = time.monotonic() - args.spawned

    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install()
    cpu0, wall0 = _cpu(), time.perf_counter()
    outputs = wl.run(inputs)
    layers = tracer.layer_metrics(trace) if trace else None
    checks = wl.check(inputs, outputs)
    wall_s, cpu_s = time.perf_counter() - wall0, _cpu() - cpu0
    if trace:
        trace.uninstall()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": len(checks),
        "failed": sum(1 for _, ok in checks if not ok),
        "failures": [label for label, ok in checks if not ok][:5],
    }
    if trace:
        result["layers"] = layers
        result["idle_layers"] = [l for l in wl.layers
                                 if not layers[tracer.LAYER_WORK[l]]]
        result["spans"] = trace.span_tree()[:25]
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
