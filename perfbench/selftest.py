"""Self-test of the benchmark itself (not of qpbw).

    python3 perfbench/selftest.py [--workload NAME ...]

Checks that
  * BENCHMARK.json names exactly the metrics run.py and tracer.py report;
  * running the q reading where qi is expected gives failed checks;
  * a pass whose checks list is empty makes the run incorrect;
  * two traced passes at one seed give identical counts, for each workload;
  * run.py refuses, without a result line, to run where the qpbw sources
    are missing (a directory holding only BENCHMARK.json and perfbench/).
Exit code 0 when all hold.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402 (needs the qpbw sources on sys.path)

SEED = 7


def check_benchmark_json(fail):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if e2e != list(run.END_TO_END):
        fail("end_to_end in BENCHMARK.json %s != run.END_TO_END" % e2e)
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if layers != list(tracer.PER_LAYER) + [("trace.overhead_s", "s")]:
        fail("per_layer in BENCHMARK.json differs from tracer.PER_LAYER")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(run.WORKLOADS) or names != list(workloads.WORKLOADS):
        fail("workloads in BENCHMARK.json %s differ from run.py" % names)


def check_faults(fail):
    wl = workloads.WORKLOADS["basis-change"]
    inputs = wl.make_inputs(SEED)
    # the wrong substitution where qi is expected: B2 cases must fail
    for case in inputs["oracle"]:
        case["reading"] = "q"
    inputs["conj1_reading"] = "q"
    checks = wl.check(inputs, wl.run(inputs))
    failed = sum(1 for _, ok in checks if not ok)
    if not failed:
        fail("q reading where qi is expected gave no failed check")
    print("q reading where qi is expected: %d of %d checks failed"
          % (failed, len(checks)))
    res = dict({name: 1.0 for name, _ in run.END_TO_END},
               checks=0, failed=0, failures=[])
    _, _, _, problems = run.summarize("modules", [res], [], False)
    if not problems:
        fail("a pass with zero checks was not reported as an error")


def check_trace_repeats(fail, names):
    counts = [n for n, unit in tracer.PER_LAYER if unit == "count"]
    for name in names:
        a = run.run_pass(name, SEED, True)["layers"]
        b = run.run_pass(name, SEED, True)["layers"]
        diff = [n for n in counts if a[n] != b[n]]
        if diff:
            fail("%s: traced counts differ between passes: %s" % (name, diff))
        print("%s: pbw.transition_matrix %d calls / %d distinct, "
              "scalars.gcd %d calls, counts repeat: %s"
              % (name, a["pbw.transition_matrix.calls"],
                 a["pbw.transition_matrix.distinct"],
                 a["scalars.gcd.calls"], not diff))


def check_missing_sources(fail):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(tmp) / run.HERE.name / "run.py"),
             "--workload", "modules", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("run.py without qpbw sources exited %d with output %r"
             % (proc.returncode, proc.stdout[-200:]))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = p.parse_args()
    errors = []

    def fail(msg):
        errors.append(msg)
        print("FAIL " + msg)

    check_benchmark_json(fail)
    check_missing_sources(fail)
    check_faults(fail)
    check_trace_repeats(fail, args.workload or run.WORKLOADS)
    print("selftest: %s" % ("ok" if not errors else "%d failures"
                            % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
