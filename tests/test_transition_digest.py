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


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_a_reused_parser_carries_no_state_between_calls():
    # cli.main builds its parser once per process: after a rejected argv,
    # every seed-independent call prints what it prints on a fresh parser
    workloads = _load_workloads()
    inputs = workloads._transition_inputs(0)
    calls = inputs["calls"][:inputs["fixed"]]
    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(_stdout(argv))
    bad = ["transition", "--type", "A2", "--from", "1,2,1", "--to", "2,1,2",
           "--weight", "1.5,2"]
    assert _stdout(bad) == (2, "")
    parser = cli.build_parser()
    for argv, want in zip(calls, first):
        assert _stdout(argv) == want, argv
    assert cli.build_parser() is parser
