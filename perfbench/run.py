"""qpbw benchmark runner.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1

Runs the workload in a closed loop, one pass after another, each pass in a
fresh child process (perfbench/child.py), because the module-level memos of
qpbw make a pass depend on what ran before it in the same process.  The
loop runs serially: on a 2-core machine a second worker only slows both.

With --trace 0 it reports the end-to-end metrics as medians over the passes;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus trace.overhead_s, the traced minus
the untraced median wall time.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; earlier lines are for people.
Exit code: 0 when every check passed, 1 when a check failed, 2 on bad usage
or when the qpbw sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("transition", "basis-change", "identities", "modules")

# end-to-end metrics: (name, unit); fail_ratio is printed but is carried in
# the result object by "attempted" and "failed", because it reads 0 on every
# correct run and a relative spread of 0 is undefined.
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("checks", "count"))
# a pass must not be started when it could end past this many seconds
RUN_CEILING_S = 170.0


class PassError(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def run_pass(workload, seed, trace, timeout=RUN_CEILING_S):
    """Run one pass in a fresh process; returns the child's result dict."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=str(ROOT), text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise PassError("%s pass exceeded %.0f s" % (workload, timeout))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError("%s pass exited %s:\n%s"
                        % (workload, proc.returncode, err.strip()[-2000:]))
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """Closed loop of passes for about `seconds`; returns (plain, traced)
    result lists.  A traced run alternates plain and traced passes and
    holds at least two traced ones, so that their counts can be compared."""
    plain, traced = [], []
    start = time.monotonic()
    last = {False: 0.0, True: 0.0}
    while True:
        want_trace = trace and len(traced) < len(plain)
        elapsed = time.monotonic() - start
        done = elapsed >= seconds and plain and (len(traced) >= 2
                                                 or not trace)
        if done or (plain and elapsed + last[want_trace] > RUN_CEILING_S):
            break
        t0 = time.monotonic()
        res = run_pass(workload, seed, want_trace,
                       timeout=RUN_CEILING_S - elapsed)
        last[want_trace] = time.monotonic() - t0
        (traced if want_trace else plain).append(res)
    return plain, traced


def tail(values):
    """(p, value) for the highest percentile with at least ten samples
    beyond it (nearest rank), or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10                      # samples at or below the percentile
    return 100.0 * k / n, sorted(values)[k - 1]


def summarize(workload, plain, traced, trace):
    """Metrics dict {name: (value, unit)} plus the check tallies."""
    passes = plain + traced
    attempted = sum(r["checks"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    problems = ["pass with zero checks"] if any(
        r["checks"] == 0 for r in passes) else []
    metrics = {}
    print("workload %s: %d plain, %d traced passes, %d checks, %d failed"
          % (workload, len(plain), len(traced), attempted, failed))
    for r in passes:
        for label in r["failures"]:
            print("  FAIL %s" % label)
    for name, unit in END_TO_END:
        values = [r[name] for r in plain]
        med = (statistics.median if unit == "s" else statistics.median_low)(
            values)
        t = tail(values)
        print("  %-12s median %.6g %s (n=%d%s) passes: %s" % (
            name, med, unit, len(values),
            "; p%.0f %.6g" % t if t else "; no tail percentile below 11",
            " ".join("%.4g" % v for v in values)))
        if not trace:
            metrics[name] = (med, unit)
    print("  %-12s %.6g ratio (%d of %d checks)" % (
        "fail_ratio", failed / attempted if attempted else 1.0, failed,
        attempted))
    if trace:
        if len(traced) < 2:
            problems.append("fewer than two traced passes to compare")
        first = traced[0]["layers"]
        for r in traced[1:]:
            for name, unit in PER_LAYER:
                if unit == "count" and r["layers"][name] != first[name]:
                    problems.append("count %s differs between traced passes"
                                    % name)
        problems += ["declared layer %s did no work" % layer
                     for layer in traced[0]["idle_layers"]]
        for name, unit in PER_LAYER:
            if unit == "count":
                value = first[name]
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = (value, unit)
            print("  %-36s %.6g %s" % (name, value, unit))
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = (overhead, "s")
        print("  %-36s %.6g s" % ("trace.overhead_s", overhead))
        print("  top spans (name <- parent: calls, self s):")
        for name, parent, calls, self_s in traced[0]["spans"][:12]:
            print("    %s <- %s: %d, %.4f" % (name, parent, calls, self_s))
    for p in problems:
        print("  ERROR %s" % p)
    return metrics, attempted, failed, problems


def git_sha():
    """HEAD of the checkout read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qpbw").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qpbw" / "__init__.py").is_file():
        print("qpbw sources not found under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    # byte-compile once so that no pass pays for compilation in setup_s
    for d in (ROOT / "src" / "qpbw", HERE):
        compileall.compile_dir(str(d), quiet=1)
    print("env " + json.dumps(environment(args)))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_metrics, attempted, failed, problems = {}, 0, 0, []
    for name in names:
        try:
            plain, traced = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except PassError as exc:
            print("ERROR %s" % exc, file=sys.stderr)
            return 1
        metrics, a, f, pr = summarize(name, plain, traced, bool(args.trace))
        prefix = name + "." if len(names) > 1 else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
        attempted, failed, problems = attempted + a, failed + f, problems + pr
    correct = failed == 0 and attempted > 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in all_metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
