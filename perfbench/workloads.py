"""The benchmark workloads: inputs from a seed, the program calls, and the
known answers each output is checked against.

A workload is three functions.  ``make_inputs(seed)`` builds the
inputs (the seed only chooses among inputs of equal size, so that the cost
of a pass does not depend on it); ``run(inputs)`` makes the program calls
and returns their outputs; ``check(inputs, outputs)`` returns a list of
(label, verdict) pairs, one per known answer.  Program calls go through the
qpbw modules' attributes, never through names bound here, so the tracer's
patches see them.

Sizes are chosen so that one pass takes a few seconds on a 2-core machine
and a run holds several passes; the frontier probes of the roadmap (G2 block at
weight (4,6), the G2 oracle at height 1 and the G2 (-1,0) module build)
take from 20 s to several minutes and are left out, see README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from qpbw import cli, coordring, rootdata
from qpbw.scalars import ONE, ZERO, Scalar

FAMILIES = ("hat_e", "dot_e", "tilde_e", "hat_f", "dot_f", "tilde_f")
RANK2_WORDS = {"A2": ("1,2,1", "2,1,2"), "B2": ("1,2,1,2", "2,1,2,1"),
               "G2": ("1,2,1,2,1,2", "2,1,2,1,2,1")}


class Workload(NamedTuple):
    name: str
    layers: tuple          # layers that must show work in a traced run
    make_inputs: Callable
    run: Callable
    check: Callable


def _reduced_words(name):
    ct = rootdata.CartanType(name)
    return sorted(rootdata.all_reduced_words(ct, ct.longest_word()))


# ---------------------------------------------------------------------------
# transition: `qpbw transition` through cli.main, stdout captured

TRANSITION_HEIGHTS = (("A2", 4), ("B2", 4), ("G2", 2))
G2_BLOCK = "2,4"          # bounded stand-in for the G2 (4,6) frontier block
A3_PAIRS, A3_HEIGHT = 2, 3

# sha256 of the concatenated stdout of the seed-independent calls, captured
# at the commit that defined this benchmark: `qpbw transition` output must
# stay byte-identical.
TRANSITION_DIGEST = ("ed7422694088e7b4e65a9c90e4113fb1"
                     "9583f9fd22e4d9680da99272483f1a67")


def _transition_inputs(seed):
    calls = []
    for name, height in TRANSITION_HEIGHTS:
        src, dst = RANK2_WORDS[name]
        for family in FAMILIES:
            calls.append(["transition", "--type", name, "--from", src,
                          "--to", dst, "--family", family,
                          "--height", str(height)])
    src, dst = RANK2_WORDS["G2"]
    calls.append(["transition", "--type", "G2", "--from", src, "--to", dst,
                  "--weight", G2_BLOCK])
    fixed = len(calls)
    words = [rootdata.format_word(w) for w in _reduced_words("A3")]
    rng = random.Random(seed)
    pairs = []
    for _ in range(A3_PAIRS):
        a, b = rng.sample(words, 2)
        pairs.append((len(calls), len(calls) + 1))
        for src, dst in ((a, b), (b, a)):
            calls.append(["transition", "--type", "A3", "--from", src,
                          "--to", dst, "--height", str(A3_HEIGHT)])
    return {"calls": calls, "fixed": fixed, "pairs": pairs}


def _transition_run(inputs):
    outputs = []
    for argv in inputs["calls"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        outputs.append((code, buf.getvalue()))
    return outputs


def parse_scalar(text):
    """Inverse of str(Scalar): '(num)/(den)' over Z[q], exact round trip."""
    parts = text.split("/")
    if len(parts) > 2:
        raise ValueError("bad scalar %r" % text)
    polys = []
    for part in parts:
        part = part.strip()
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        coeffs = {}
        for term in part.replace(" - ", " + -").split(" + "):
            sign = -1 if term.startswith("-") else 1
            term = term.lstrip("-")
            if "*" in term:
                coef, power = term.split("*")
            elif term.startswith("q"):
                coef, power = "1", term
            else:
                coef, power = term, ""
            exp = 0 if not power else 1 if power == "q" else int(power[2:])
            coeffs[exp] = sign * int(coef)
        polys.append(coeffs)
    value = Scalar(polys[0], polys[1] if len(polys) == 2 else None)
    if str(value) != text:
        raise ValueError("scalar %r does not round-trip" % text)
    return value


def _block_rows(block):
    return {tuple(row["src"]): {tuple(e["tgt"]): parse_scalar(e["coeff"])
                                for e in row["entries"]}
            for row in block["rows"]}


def _is_inverse_pair(fwd, bwd):
    for n, row in fwd.items():
        acc = {}
        for n2, c in row.items():
            for n3, c2 in bwd.get(n2, {}).items():
                acc[n3] = acc.get(n3, ZERO) + c * c2
        for n3 in set(acc) | {n}:
            if acc.get(n3, ZERO) != (ONE if n3 == n else ZERO):
                return False
    return True


def _transition_check(inputs, outputs):
    checks, docs = [], []
    digest = hashlib.sha256()
    for k, (argv, (code, text)) in enumerate(zip(inputs["calls"], outputs)):
        if k < inputs["fixed"]:
            digest.update(text.encode())
        if code != 0:
            checks.append(("exit code of %s" % " ".join(argv), False))
            docs.append({"blocks": []})
            continue
        doc = json.loads(text)
        docs.append(doc)
        for block in doc["blocks"]:
            ct = rootdata.CartanType(block["type"])
            side = rootdata.kostant_count(ct, tuple(block["weight"]))
            targets = {tuple(e["tgt"]) for row in block["rows"]
                       for e in row["entries"]}
            ok = (len(block["rows"]) == side == len(targets)
                  and all(row["entries"] for row in block["rows"]))
            checks.append(("square %s %s %s->%s at %s"
                           % (block["type"], block["family"], block["from"],
                              block["to"], block["weight"]), ok))
    checks.append(("byte-identical seed-independent output",
                   digest.hexdigest() == TRANSITION_DIGEST))
    for i, j in inputs["pairs"]:
        for bf, bb in zip(docs[i]["blocks"], docs[j]["blocks"]):
            ok = bf["weight"] == bb["weight"] and _is_inverse_pair(
                _block_rows(bf), _block_rows(bb))
            checks.append(("A3 %s->%s->%s at %s is the identity"
                           % (bf["from"], bf["to"], bb["to"], bf["weight"]),
                           ok))
    return checks


# ---------------------------------------------------------------------------
# basis-change: the intertwiner oracle and the ladder-operator suite, both
# of which call koy_transform, which recomputes transition blocks per case

ORACLE_CASES = (("A2", 3, "qi"), ("B2", 2, "qi"), ("B2", 1, "q"))
A3_ORACLE_HEIGHT = 0
CONJ1_HEIGHT = 3


def _basis_change_inputs(seed):
    cases = []
    for name, height, reading in ORACLE_CASES:
        words = _reduced_words(name)
        cases.append({"type": name, "from": words[0], "to": words[1],
                      "height": height, "reading": reading,
                      "expect": "pass" if reading == "qi" else "refuted"})
    a, b = random.Random(seed).sample(_reduced_words("A3"), 2)
    cases.append({"type": "A3", "from": a, "to": b,
                  "height": A3_ORACLE_HEIGHT, "reading": "qi",
                  "expect": "pass"})
    return {"oracle": cases, "conj1_reading": "qi"}


def _basis_change_run(inputs):
    reports = [coordring.verify_intertwiner(
        rootdata.CartanType(c["type"]), c["from"], c["to"], c["height"],
        c["reading"]) for c in inputs["oracle"]]
    conj1 = cli.suite_conj1(types=("A2", "B2"), height=CONJ1_HEIGHT,
                            d_reading=inputs["conj1_reading"])
    return {"oracle": reports, "conj1": conj1}


def _basis_change_check(inputs, outputs):
    checks = []
    for case, report in zip(inputs["oracle"], outputs["oracle"]):
        label = "oracle %s %s->%s h<=%d %s" % (
            case["type"], rootdata.format_word(case["from"]),
            rootdata.format_word(case["to"]), case["height"], case["reading"])
        if not report:
            checks.append((label + " has cases", False))
        elif case["expect"] == "refuted":
            checks.append((label + " is refuted",
                           any(not r["pass"] for r in report)))
        else:
            checks.extend(("%s %s n=%s" % (label, r["phi"], r["basis"]),
                           r["pass"]) for r in report)
    checks.extend((r["check"], r["pass"]) for r in outputs["conj1"])
    return checks


# ---------------------------------------------------------------------------
# identities: Hopf axioms and braid relations; no PBW block is computed

HOPF_LENGTHS = (("A2", 4), ("B2", 3))
# Braid relations on the generators of every type, then seed-drawn random
# elements of A2 only: the cost of a random B2 or G2 element varies tenfold
# between draws, so drawing them would make the cost of a pass follow the
# seed.
BRAID_TYPES, BRAID_RANDOM_TYPES, BRAID_RANDOM = ("A2", "B2", "G2"), ("A2",), 10


def _identities_inputs(seed):
    return {"braid_seed": seed}


def _identities_run(inputs):
    cases = []
    for name, length in HOPF_LENGTHS:
        cases += cli.suite_hopf(types=(name,), length=length)
    cases += cli.suite_braid(types=BRAID_TYPES, n_random=0)
    return cases + cli.suite_braid(types=BRAID_RANDOM_TYPES,
                                   n_random=BRAID_RANDOM,
                                   seed=inputs["braid_seed"])


def _identities_check(inputs, outputs):
    return [(r["check"], r["pass"]) for r in outputs]


# ---------------------------------------------------------------------------
# modules: lowest-weight module construction in coordring

# B2 (0,-3) reaches weight height 9 and is the bounded stand-in for G2
# (-1,0), whose height-10 weights make words_of_weight enumerate 10! words.
MODULES = (("A2", (-1, 0)), ("A2", (0, -1)), ("B2", (-1, 0)), ("B2", (0, -1)),
           ("A3", (-1, 0, 0)), ("A3", (0, -1, 0)), ("A3", (0, 0, -1)),
           ("G2", (0, -1)), ("A2", (-1, -1)), ("B2", (-1, -1)),
           ("A2", (-2, -2)), ("B2", (0, -3)))


def weyl_dimension(ct, lam):
    """Dimension of the simple module of lowest weight lam (fundamental-
    weight coordinates) by the Weyl dimension formula."""
    mu = [-c for c in lam]
    dim = Fraction(1)
    for alpha in ct.pos_roots:
        dim *= Fraction(ct.pair_pq([m + 1 for m in mu], alpha),
                        ct.pair_pq([1] * ct.rank, alpha))
    return int(dim)


def _modules_inputs(seed):
    order = list(MODULES)
    random.Random(seed).shuffle(order)
    return {"modules": order}


def _modules_run(inputs):
    return [coordring.build_irrep(rootdata.CartanType(name), lam).dim
            for name, lam in inputs["modules"]]


def _modules_check(inputs, outputs):
    return [("dim %s %s" % (name, list(lam)),
             dim == weyl_dimension(rootdata.CartanType(name), lam))
            for (name, lam), dim in zip(inputs["modules"], outputs)]


WORKLOADS = {w.name: w for w in (
    Workload("transition",
             ("scalars", "rootdata", "uqcore", "pairing", "braid", "pbw",
              "cli"),
             _transition_inputs, _transition_run, _transition_check),
    Workload("basis-change",
             ("scalars", "rootdata", "uqcore", "pairing", "braid", "pbw",
              "fock", "coordring", "cli"),
             _basis_change_inputs, _basis_change_run, _basis_change_check),
    Workload("identities",
             ("scalars", "uqcore", "pairing", "braid", "cli"),
             _identities_inputs, _identities_run, _identities_check),
    Workload("modules",
             ("scalars", "pairing", "coordring"),
             _modules_inputs, _modules_run, _modules_check),
)}
