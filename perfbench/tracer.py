"""Outside-in tracer for the qpbw layers.

The tracer wraps public functions and a few named module-level helpers of
each qpbw module from the outside: the program itself is not edited.  A
wrapped function is replaced at every import site, that is in every loaded
``qpbw`` module whose namespace holds the original object, because modules
such as ``fock`` and ``coordring`` bind functions of lower layers by name.

Each call opens a span whose parent is the innermost open span.  Spans are
aggregated per (name, parent name) into a call count and a self time (the
span's duration minus the time covered by its child spans), so the hot
``Scalar`` operations cost a dict update per call instead of a stored record.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

ROOT = "bench"

# (module, attribute path, span name, options); "Class.method" paths patch
# the class attribute, so every operator call on an instance is traced.
TARGETS = (
    ("qpbw.scalars", "Scalar.__add__", "scalars.add", {}),
    ("qpbw.scalars", "Scalar.__mul__", "scalars.mul", {}),
    ("qpbw.scalars", "Scalar.__truediv__", "scalars.div", {}),
    ("qpbw.scalars", "Scalar.inverse", "scalars.div", {}),
    ("qpbw.scalars", "_pgcd", "scalars.gcd", {}),
    ("qpbw.rootdata", "all_reduced_words", "rootdata", {}),
    ("qpbw.rootdata", "kostant_count", "rootdata", {}),
    ("qpbw.rootdata", "prefix_roots", "rootdata", {}),
    ("qpbw.rootdata", "suffix_roots", "rootdata", {}),
    ("qpbw.uqcore", "UElement.__mul__", "uqcore.mul",
     {"result_count": ("uqcore.mul.terms_out", "terms")}),
    ("qpbw.uqcore", "UElement.coproduct", "uqcore.coproduct", {}),
    ("qpbw.uqcore", "UElement.antipode", "uqcore.antipode", {}),
    ("qpbw.uqcore", "UElement.antipode_inv", "uqcore.antipode", {}),
    ("qpbw.uqcore", "UTensor.__mul__", "uqcore.tensor_mul", {}),
    ("qpbw.pairing", "Pairing.tau", "pairing.tau", {}),
    ("qpbw.pairing", "Pairing.tau_words", "pairing.tau_words", {}),
    ("qpbw.pairing", "canonical_coords", "pairing.canonical_coords", {}),
    ("qpbw.pairing", "words_of_weight", "pairing.words_of_weight", {}),
    ("qpbw.pairing", "eq_mod_serre", "pairing.eq_mod_serre", {}),
    ("qpbw.braid", "apply_word", "braid.apply_word", {}),
    ("qpbw.braid", "t_dot", "braid.t", {}),
    ("qpbw.braid", "t_hat", "braid.t", {}),
    ("qpbw.braid", "t_dot_inv", "braid.t", {}),
    ("qpbw.braid", "t_hat_inv", "braid.t", {}),
    ("qpbw.braid", "root_vector", "braid.root_vector", {}),
    ("qpbw.pbw", "transition_matrix", "pbw.transition_matrix",
     {"key": lambda ct, family, a, b, g: (ct.name, family, tuple(a),
                                          tuple(b), tuple(g))}),
    ("qpbw.pbw", "pbw_monomial", "pbw.pbw_monomial",
     {"key": lambda ct, family, word, n: (ct.name, family, tuple(word),
                                          tuple(n))}),
    ("qpbw.pbw", "pbw_coords", "pbw.pbw_coords", {}),
    ("qpbw.pbw", "solve_linear", "pbw.solve_linear", {}),
    ("qpbw.pbw", "indices_of_weight", "pbw.indices_of_weight", {}),
    ("qpbw.pbw", "emul_constants", "pbw.emul_constants", {}),
    ("qpbw.fock", "koy_transform", "fock.koy_transform", {}),
    ("qpbw.fock", "conj1_operator", "fock.conj1_operator", {}),
    ("qpbw.coordring", "build_irrep", "coordring.build_irrep", {}),
    ("qpbw.coordring", "_verma_f", "coordring.verma_f", {}),
    ("qpbw.coordring", "_mat_inverse", "coordring.mat_inverse",
     {"error": (ValueError, "coordring.mat_inverse.singular")}),
    ("qpbw.coordring", "act_on_tensor", "coordring.act_on_tensor", {}),
    ("qpbw.cli", "cmd_transition", "cli.suite", {}),
    ("qpbw.cli", "suite_hopf", "cli.suite", {}),
    ("qpbw.cli", "suite_braid", "cli.suite", {}),
    ("qpbw.cli", "suite_conj1", "cli.suite", {}),
)

# Import sites that bind a lower layer's function by name; install() fails
# if any of them is left unpatched.
REQUIRED_SITES = (
    ("qpbw.fock", "transition_matrix"),
    ("qpbw.fock", "emul_constants"),
    ("qpbw.coordring", "koy_transform"),
    ("qpbw.coordring", "solve_linear"),
    ("qpbw.coordring", "indices_of_weight"),
    ("qpbw.coordring", "words_of_weight"),
    ("qpbw.cli", "canonical_coords"),
    ("qpbw.cli", "eq_mod_serre"),
    ("qpbw.cli", "words_of_weight"),
)

# Per-layer metrics: (name, unit).  Counts repeat exactly for a given seed;
# times are self times in seconds.
PER_LAYER = (
    ("scalars.mul.calls", "count"),
    ("scalars.add.calls", "count"),
    ("scalars.div.calls", "count"),
    ("scalars.gcd.calls", "count"),
    ("scalars.gcd.self_s", "s"),
    ("scalars.self_s", "s"),
    ("uqcore.mul.calls", "count"),
    ("uqcore.mul.self_s", "s"),
    ("uqcore.mul.terms_out", "count"),
    ("uqcore.coproduct.calls", "count"),
    ("uqcore.antipode.calls", "count"),
    ("uqcore.tensor_mul.self_s", "s"),
    ("pairing.tau.calls", "count"),
    ("pairing.tau.self_s", "s"),
    ("pairing.tau_words.calls", "count"),
    ("pairing.tau_words.memo_entries", "count"),
    ("pairing.canonical_coords.self_s", "s"),
    ("pairing.words_of_weight.calls", "count"),
    ("pairing.words_of_weight.self_s", "s"),
    ("pairing.eq_mod_serre.calls", "count"),
    ("pairing.eq_mod_serre.self_s", "s"),
    ("braid.apply_word.calls", "count"),
    ("braid.apply_word.self_s", "s"),
    ("braid.t.calls", "count"),
    ("braid.t.self_s", "s"),
    ("braid.root_vector.calls", "count"),
    ("braid.root_vector.cache_entries", "count"),
    ("pbw.transition_matrix.calls", "count"),
    ("pbw.transition_matrix.distinct", "count"),
    ("pbw.transition_matrix.self_s", "s"),
    ("pbw.pbw_monomial.calls", "count"),
    ("pbw.pbw_monomial.distinct", "count"),
    ("pbw.pbw_monomial.self_s", "s"),
    ("pbw.pbw_coords.calls", "count"),
    ("pbw.pbw_coords.self_s", "s"),
    ("pbw.solve_linear.calls", "count"),
    ("pbw.solve_linear.self_s", "s"),
    ("pbw.indices_of_weight.calls", "count"),
    ("pbw.indices_of_weight.self_s", "s"),
    ("pbw.emul_constants.calls", "count"),
    ("fock.koy_transform.calls", "count"),
    ("fock.koy_transform.self_s", "s"),
    ("fock.conj1_operator.calls", "count"),
    ("fock.conj1_operator.self_s", "s"),
    ("coordring.build_irrep.calls", "count"),
    ("coordring.build_irrep.self_s", "s"),
    ("coordring.verma_f.self_s", "s"),
    ("coordring.mat_inverse.calls", "count"),
    ("coordring.mat_inverse.singular", "count"),
    ("coordring.form_words.cache_misses", "count"),
    ("coordring.act_on_tensor.calls", "count"),
    ("coordring.act_on_tensor.self_s", "s"),
    ("rootdata.self_s", "s"),
    ("cli.suite.self_s", "s"),
)

# The count that shows a layer did any work; a layer a workload declares
# must read above zero in its traced run.
LAYER_WORK = {
    "scalars": "scalars.mul.calls",
    "rootdata": "rootdata.calls",
    "uqcore": "uqcore.mul.calls",
    "pairing": "pairing.calls",
    "braid": "braid.t.calls",
    "pbw": "pbw.calls",
    "fock": "fock.calls",
    "coordring": "coordring.calls",
    "cli": "cli.suite.calls",
}


def _resolve(modname, path):
    owner = sys.modules[modname]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span aggregation plus counters; install() patches the program."""

    def __init__(self):
        self._stack = [[ROOT, 0.0]]
        self.edges = {}          # (name, parent) -> [calls, self_s]
        self.counters = defaultdict(int)
        self.distinct = defaultdict(set)
        self._undo = []

    def _wrap(self, name, fn, key=None, result_count=None, error=None):
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        counters = self.counters
        seen = self.distinct[name] if key else None
        errors, error_name = error if error else ((), None)
        count_name, attr = result_count if result_count else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except errors:
                counters[error_name] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                edge = edges.get((name, parent[0]))
                if edge is None:
                    edge = edges[(name, parent[0])] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt - frame[1]
            if seen is not None:
                seen.add(key(*args, **kwargs))
            if count_name is not None:
                counters[count_name] += len(getattr(result, attr, ()))
            return result

        return traced

    def install(self):
        """Patch every target at every import site; returns the patched
        (module, attribute) sites."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qpbw" or n.startswith("qpbw."))]
        sites = set()
        for modname, path, name, opts in TARGETS:
            owner, attr = _resolve(modname, path)
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, **opts)
            self._patch(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for site, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, site, wrapped)
                        sites.add((mod.__name__, site))
        missing = [s for s in REQUIRED_SITES if s not in sites]
        if missing:
            self.uninstall()
            raise RuntimeError("import sites left unpatched: %s" % missing)
        return sites

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def snapshot(self):
        """Flat metrics from the spans and counters so far: <span>.calls,
        <span>.self_s, <layer>.calls, <layer>.self_s, <span>.distinct."""
        out = defaultdict(int)
        for (name, _parent), (calls, self_s) in self.edges.items():
            layer = name.split(".")[0]
            out[name + ".calls"] += calls
            out[name + ".self_s"] += self_s
            if layer != name:
                out[layer + ".calls"] += calls
                out[layer + ".self_s"] += self_s
        for name, keys in self.distinct.items():
            out[name + ".distinct"] = len(keys)
        for name, value in self.counters.items():
            out[name] = value
        return dict(out)

    def span_tree(self):
        """[(name, parent, calls, self_s)] sorted by self time."""
        return sorted(((n, p, c, s) for (n, p), (c, s) in self.edges.items()),
                      key=lambda e: -e[3])


def memo_sizes():
    """Sizes of the program's memos and caches, read after a run."""
    from qpbw import braid, coordring, pairing
    return {
        "pairing.tau_words.memo_entries":
            sum(len(p._memo) for p in pairing.Pairing._instances.values()),
        "braid.root_vector.cache_entries": len(braid._root_vectors),
        "coordring.form_words.cache_misses":
            coordring._form_words.cache_info().misses,
    }


def layer_metrics(tracer):
    """Every PER_LAYER metric (absent spans read 0) plus the layer work
    counts named in LAYER_WORK."""
    snap = tracer.snapshot()
    snap.update(memo_sizes())
    names = [n for n, _ in PER_LAYER] + list(LAYER_WORK.values())
    return {n: snap.get(n, 0) for n in names}
