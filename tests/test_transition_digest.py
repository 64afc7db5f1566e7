"""`qpbw transition` output is byte-identical: the seed-independent calls
of the benchmark's transition workload (perfbench/workloads.py), run
through cli.main, must reproduce the sha256 pinned there."""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

from qpbw import cli

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("qpbw_bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_transition_output_matches_pinned_digest():
    workloads = _load_workloads()
    inputs = workloads._transition_inputs(0)
    digest = hashlib.sha256()
    for argv in inputs["calls"][:inputs["fixed"]]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0, argv
        digest.update(buf.getvalue().encode())
    assert digest.hexdigest() == workloads.TRANSITION_DIGEST
