"""The benchmark tracer (perfbench/tracer.py) patches qpbw functions by
name at every module that binds them; a refactor that drops one of the
import sites it requires makes install() raise.  This checks the contract
from the program's side: install succeeds, uninstall restores every
patched name, a traced `qpbw transition` call shows work in the layers
the benchmark's transition workload declares, and a traced conj1 run, called
directly or through `qpbw verify`, shows work in `cli.suite`.  After each
traced run layer_metrics, which reads the program's memos by name, returns
every per-layer metric."""

import importlib.util
import sys
from pathlib import Path

# cli loads every qpbw module the tracer patches
from qpbw import cli, coordring, linalg, pbw

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("qpbw_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    mods = {n: m for n, m in sys.modules.items()
            if m is not None and (n == "qpbw" or n.startswith("qpbw."))}
    out = {n: dict(vars(m)) for n, m in mods.items()}
    for n, m in mods.items():
        for attr, value in vars(m).items():
            if isinstance(value, type) and value.__module__ == n:
                out[n + ":" + attr] = dict(vars(value))
    return out


def test_tracer_installs_and_uninstall_restores_every_name():
    tracer = _load_tracer()
    before = _namespaces()
    solve = linalg.solve_linear
    t = tracer.Tracer()
    sites = t.install()
    try:
        assert set(tracer.REQUIRED_SITES) <= sites
        assert pbw.solve_linear is not solve
        assert coordring.solve_linear is pbw.solve_linear
    finally:
        t.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, ns in before.items():
        changed = [k for k in ns if after[name].get(k) is not ns[k]]
        assert not changed, (name, changed)
    assert pbw.solve_linear is linalg.solve_linear
    assert coordring.solve_linear is linalg.solve_linear


def test_traced_transition_shows_pairing_pbw_and_scalar_work(monkeypatch,
                                                             capsys):
    # an empty block store, so that the call computes its blocks
    monkeypatch.setattr(pbw, "_store", {})
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["transition", "--type", "A2", "--from", "1,2,1",
                         "--to", "2,1,2", "--height", "2"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    snap = t.snapshot()
    for name in ("pairing.calls", "pbw.calls", "scalars.mul.calls",
                 "cli.suite.calls"):
        assert snap.get(name, 0) > 0, name
    _assert_layer_metrics(tracer, t)


def _assert_layer_metrics(tracer, t):
    # layer_metrics reads the program's memos by name (memo_sizes), as
    # every traced benchmark pass does
    metrics = tracer.layer_metrics(t)
    assert {n for n, _ in tracer.PER_LAYER} <= set(metrics)


def _traced(call):
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        result = call()
    finally:
        t.uninstall()
    _assert_layer_metrics(tracer, t)
    return result, t.snapshot()


def test_traced_suites_show_cli_work(capsys):
    # the tracer patches module attributes; a suite reached through a
    # reference taken at import time would read as idle
    cases, snap = _traced(lambda: cli.suite_conj1(types=("A2",), height=1))
    assert cases and snap.get("cli.suite.calls", 0) > 0
    code, snap = _traced(lambda: cli.main(["verify", "conj1", "--type", "A2",
                                           "--height", "1"]))
    capsys.readouterr()
    assert code == 0 and snap.get("cli.suite.calls", 0) > 0
