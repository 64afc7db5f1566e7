"""Command-line front end: transition matrices and verification suites.

Two subcommands:

    qpbw transition --type A2 --from 2,1,2 --to 1,2,1 [--height H | --weight g]
    qpbw verify SUITE [--type T] [--height H] [--d-reading R]

Exit codes: 0 all checks pass / emission succeeded, 1 at least one check
failed (witnesses on stdout), 2 invalid usage (unknown suite, bad word,
unknown type, negative height, a type the suite does not accept, --height
or --d-reading on a suite that does not read it) or a verify run that
decides no case.  JSON output is deterministic: identical configurations
produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Callable, NamedTuple

from . import braid, coordring, fock, pbw
from .linalg import rank
from .pairing import Pairing, canonical_coords, eq_mod_serre, words_of_weight
from .rootdata import (CartanType, all_reduced_words, format_word,
                       kostant_count, parse_word, weights_of_height)
from .scalars import ONE, ZERO, Scalar, c_const, qfact
from .uqcore import UElement, UTensor, _add_term, mono_str

TYPE_NAMES = ("A1", "A2", "A3", "B2", "G2")

COUNT_HEIGHT = 5    # koy checks Kostant counts to max(H, this) (3 on A3)
LADDER_TOP = 8      # the A1 ladder checks n = 0 .. LADDER_TOP

# per-case counts of what a case checked, summed into the verify report
# when every case of the suite carries them
COUNTED = ("decisions", "phi_checked")


# ---------------------------------------------------------------------------
# Hopf-axiom checks on normal forms

def _mono_elt(ct, mono):
    return UElement(ct, {mono: ONE})


class _MonoCache:
    """Memoized per-monomial Hopf data; the normal-form monomials of short
    generator words repeat massively across the corpus.  verdicts holds
    whether each monomial decided so far satisfies all five axiom sides,
    and fallbacks counts the cases checked word by word."""

    def __init__(self, ct):
        self.ct = ct
        self.cp = {}
        self.anti = {}
        self.anti_prod = {}
        self.verdicts = {}
        self.fallbacks = 0

    def coproduct(self, m):
        t = self.cp.get(m)
        if t is None:
            t = self.cp[m] = _mono_elt(self.ct, m).coproduct()
        return t

    def antipode_product(self, a, b, s_left):
        """S(a)*b if s_left else a*S(b), as a UElement."""
        key = (a, b, s_left)
        out = self.anti_prod.get(key)
        if out is None:
            if s_left:
                out = self._anti(a) * _mono_elt(self.ct, b)
            else:
                out = _mono_elt(self.ct, a) * self._anti(b)
            self.anti_prod[key] = out
        return out

    def _anti(self, m):
        s = self.anti.get(m)
        if s is None:
            s = self.anti[m] = _mono_elt(self.ct, m).antipode()
        return s

    def passes(self, m):
        """Whether the monomial m satisfies all five axiom sides."""
        v = self.verdicts.get(m)
        if v is None:
            v = self.verdicts[m] = all(
                lhs == rhs for _, lhs, rhs, _ in
                _hopf_sides(self, _mono_elt(self.ct, m), self.coproduct(m)))
        return v

    def certifies(self, x, delta):
        """Whether delta is sum c_m Delta(m) over the terms c_m m of x, with
        each Delta(m) read from this cache."""
        acc = {}
        for m, c in x.terms.items():
            for p, cp in self.coproduct(m).terms.items():
                _add_term(acc, p, c * cp)
        return acc == delta.terms


def _coproduct_leg(cache, tensor, left):
    """(Delta x id) or (id x Delta) of a 2-tensor, as a 3-tensor dict."""
    out = {}
    for (a, b), c in tensor.terms.items():
        inner = cache.coproduct(a if left else b)
        for (m1, m2), c2 in inner.terms.items():
            _add_term(out, (m1, m2, b) if left else (a, m1, m2), c * c2)
    return out


def _counit_leg(ct, tensor, left):
    """(eps x id) or (id x eps) of a 2-tensor: the counit of a monomial
    f_F k e_E is 1 when F and E are both empty and 0 otherwise."""
    acc = {}
    for (a, b), c in tensor.terms.items():
        F, _, E = a if left else b
        if not F and not E:
            _add_term(acc, b if left else a, c)
    return UElement(ct, acc)


def _antipode_convolution(cache, tensor, s_left):
    """m (S x id) Delta(x)  or  m (id x S) Delta(x)."""
    terms = {}
    for (a, b), c in tensor.terms.items():
        for m, cm in cache.antipode_product(a, b, s_left).terms.items():
            _add_term(terms, m, c * cm)
    return UElement(cache.ct, terms)


def _hopf_sides(cache, x, delta):
    """Both sides of each Hopf axiom on x, as term dicts, in check order,
    with the function that prints a key of them."""
    ct = cache.ct
    yield "counit left", _counit_leg(ct, delta, True).terms, x.terms, mono_str
    yield ("counit right", _counit_leg(ct, delta, False).terms, x.terms,
           mono_str)
    yield ("coassociativity", _coproduct_leg(cache, delta, True),
           _coproduct_leg(cache, delta, False),
           lambda key: " (x) ".join(mono_str(m) for m in key))
    unit = UElement.one(ct).scale(x.counit()).terms
    yield ("antipode left", _antipode_convolution(cache, delta, True).terms,
           unit, mono_str)
    yield ("antipode right",
           _antipode_convolution(cache, delta, False).terms, unit, mono_str)


def _hopf_case(cache, label, x, delta):
    """The Hopf axioms on x; a failure names the first failed axiom and its
    least differing term, with the coefficients of both sides.

    A case whose monomials all pass and whose delta the cache certifies
    passes at once (see suite_hopf); any other is checked side by side."""
    out = {"check": "hopf %s %s" % (cache.ct.name, label), "pass": True}
    if all(cache.passes(m) for m in x.terms) and cache.certifies(x, delta):
        return out
    cache.fallbacks += 1
    for axiom, lhs, rhs, show in _hopf_sides(cache, x, delta):
        if lhs != rhs:
            key = min(k for k in lhs.keys() | rhs.keys()
                      if lhs.get(k, ZERO) != rhs.get(k, ZERO))
            out["pass"] = False
            out["witness"] = {"axiom": axiom, "term": show(key),
                              "lhs": str(lhs.get(key, ZERO)),
                              "rhs": str(rhs.get(key, ZERO))}
            break
    return out


def _generators(ct):
    """The generators e_i, f_i and k_i of ct, labelled e1, ..., k<rank>."""
    return [("%s%d" % (kind, i + 1), make(ct, i))
            for kind, make in (("e", UElement.e), ("f", UElement.f),
                               ("k", UElement.k_i))
            for i in range(ct.rank)]


def suite_hopf(types=("A2", "B2"), length=4):
    """Counit, coassociativity and antipode axioms on all generator words,
    each checked as the pre-order walk over the words reaches it.

    The walk takes x = sum c_m m in normal form and Delta(x) as the product
    of the generator coproducts along the word.  Each distinct monomial m
    of the normal forms is decided once per call: all five sides on
    (m, Delta(m)), memoized in the type's _MonoCache.  A word passes
    without more work when each m of x passes and Delta(x) equals
    sum c_m Delta(m) term by term (the certificate); the sides are linear
    and exact, so both together imply the per-word check.  Any other word
    is checked side by side on (x, Delta(x)), so every verdict and witness
    is that of the per-word check."""
    cases = []
    for name in types:
        ct = CartanType(name)
        cache = _MonoCache(ct)
        alphabet = [(tag, gen, gen.coproduct())
                    for tag, gen in _generators(ct)]

        def walk(label, x, delta, depth):
            cases.append(_hopf_case(cache, label or "1", x, delta))
            if depth == 0:
                return
            for tag, gen, gencp in alphabet:
                walk(label + "." + tag if label else tag, x * gen,
                     delta * gencp, depth - 1)

        walk("", UElement.one(ct), UTensor.one(ct), length)
    return cases


# ---------------------------------------------------------------------------
# braid suite

def _random_element(ct, rng, max_len=2):
    """Random triangular element with short e/f words (braid images of long
    words explode combinatorially in G2)."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        fw = tuple(rng.randrange(ct.rank)
                   for _ in range(rng.randint(0, max_len)))
        ew = tuple(rng.randrange(ct.rank)
                   for _ in range(rng.randint(0, max_len)))
        kap = tuple(rng.randint(-1, 1) for _ in range(ct.rank))
        c = Scalar.q_power(rng.randint(-2, 2)) \
            * Scalar.from_int(rng.randint(-3, 3))
        x = (UElement.f_word(ct, fw) * UElement.k(ct, kap)
             * UElement.e_word(ct, ew)).scale(c)
        acc = UElement(ct, terms) + x
        terms = acc.terms
    return UElement(ct, terms)


def _serre_case(check, lhs, rhs):
    """A case deciding lhs = rhs modulo the Serre ideal.  A failing case
    carries the first canonical coordinate of lhs - rhs as its witness;
    it is computed only on failure, so passing cases cost nothing more."""
    if eq_mod_serre(lhs, rhs):
        return {"check": check, "pass": True}
    coord, diff = next(iter(canonical_coords(lhs - rhs).items()))
    return {"check": check, "pass": False,
            "witness": {"coord": mono_str(coord), "diff": str(diff)}}


def _fock_witness(lhs, rhs):
    """The first exponent tuple where two vectors along one word differ,
    with both coefficients, or None when they are equal."""
    for n in sorted(set(lhs.terms) | set(rhs.terms)):
        a, b = lhs.terms.get(n, ZERO), rhs.terms.get(n, ZERO)
        if a != b:
            return {"exps": list(n), "lhs": str(a), "rhs": str(b)}
    return None


def _fock_case(check, lhs, rhs):
    """A case deciding lhs = rhs for Fock vectors; a failing case carries
    the first differing coordinate, computed only on failure."""
    if lhs == rhs:
        return {"check": check, "pass": True}
    return {"check": check, "pass": False, "witness": _fock_witness(lhs, rhs)}


def _braid_word_pair(ct, i, j):
    m = ct.braid_order(i, j)
    w1 = tuple((i, j)[r % 2] for r in range(m))
    w2 = tuple((j, i)[r % 2] for r in range(m))
    return w1, w2


def suite_braid(types=("A2", "B2", "G2"), n_random=100, seed=11):
    """Braid relations on generators; hat = S^-1 dot S; counit invariance.
    The random elements are drawn from the types of rank 2 or more."""
    cases = []
    for name in types:
        ct = CartanType(name)
        gens = _generators(ct)
        for i in range(ct.rank):
            for j in range(i + 1, ct.rank):
                w1, w2 = _braid_word_pair(ct, i, j)
                for kind in ("dot", "hat"):
                    for tag, g in gens:
                        cases.append(_serre_case(
                            "braid %s %s %s on %s"
                            % (ct.name, kind, format_word(w1), tag),
                            braid.apply_word(ct, kind, w1, g),
                            braid.apply_word(ct, kind, w2, g)))
    rng = random.Random(seed)
    drawn = [CartanType(n) for n in types if CartanType(n).rank >= 2]
    for t in range(n_random):
        ct = rng.choice(drawn)
        u = _random_element(ct, rng, max_len=1 if ct.name == "G2" else 2)
        i = rng.randrange(ct.rank)
        hat = braid.t_hat(ct, i, u)
        via_s = braid.t_dot(ct, i, u.antipode()).antipode_inv()
        out = _serre_case("dThT/epsT %s #%d" % (ct.name, t), hat, via_s)
        eps = (braid.t_dot(ct, i, u).counit(), hat.counit(), u.counit())
        if out["pass"] and not eps[0] == eps[1] == eps[2]:
            out["pass"] = False
            out["witness"] = {"counits": [str(c) for c in eps]}
        cases.append(out)
    return cases


# ---------------------------------------------------------------------------
# pairing suite

def _weights_up_to(ct, h):
    return [ga for height in range(1, h + 1)
            for ga in weights_of_height(ct, height)]


def suite_pairing(types=("A2", "B2"), height=4):
    """Generator pairings, weight orthogonality, per-weight Gram ranks."""
    cases = []
    for name in types:
        ct = CartanType(name)
        pr = Pairing(ct)
        for i in range(ct.rank):
            for j in range(ct.rank):
                got = pr.tau_words((i,), (j,))
                if i == j:
                    want = (Scalar.q_power(ct.qi(i))
                            - Scalar.q_power(-ct.qi(i))).inverse()
                else:
                    want = ZERO
                cases.append({"check": "tau(e%d,f%d) %s"
                              % (i + 1, j + 1, ct.name),
                              "pass": got == want, "got": str(got)})
        weights = _weights_up_to(ct, height)
        for ga in weights:
            ews = words_of_weight(ct, ga)
            rows = []
            for ew in ews:
                row = {}
                for fw in ews:
                    v = pr.tau_words(ew, fw)
                    if not v.is_zero():
                        row[fw] = v
                rows.append(row)
            want = kostant_count(ct, ga)
            got = rank(rows)
            cases.append({"check": "gram rank %s at %s"
                          % (ct.name, list(ga)),
                          "pass": got == want, "got": got, "want": want})
        # mismatched weights pair to zero
        for ga in weights[:6]:
            for gb in weights[:6]:
                if ga == gb:
                    continue
                ok = all(pr.tau_words(ew, fw).is_zero()
                         for ew in words_of_weight(ct, ga)[:3]
                         for fw in words_of_weight(ct, gb)[:3])
                cases.append({"check": "weight orthogonality %s %s/%s"
                              % (ct.name, list(ga), list(gb)), "pass": ok})
    return cases


# ---------------------------------------------------------------------------
# PBW orthogonality suite

def _pbw_orth_case(ct, pr, word, ga):
    """tau(ehat^(n), fhat^n') on the block of weight ga along word; a
    failure names the first pair (n, n') that differs."""
    out = {"check": "pbw-orth %s %s at %s"
           % (ct.name, format_word(word), list(ga)), "pass": True}
    idx = pbw.indices_of_weight(ct, "ehat", word, ga)
    for n in idx:
        em_div = pbw.pbw_monomial(ct, "ehat", word, n)
        for n2 in idx:
            fm = pbw.pbw_monomial(ct, "fhat", word, n2)
            got = pr.tau(em_div, fm)
            want = ZERO
            if n == n2:
                want = ONE
                for r, nr in enumerate(n):
                    d = ct.qi(word[r])
                    want = want * c_const(nr, d) / qfact(nr, d)
            if got != want:
                out["pass"] = False
                out["witness"] = {"n": list(n), "n2": list(n2),
                                  "got": str(got), "want": str(want)}
                return out
    return out


def suite_pbw_orth(types=(("A2", 5), ("B2", 5), ("G2", 4))):
    """tau(ehat^(n), fhat^n') = delta * prod c(n_r)/[n_r]! along every word.

    Equivalently, with plain (non-divided) powers on the e side the pairing
    is delta * prod c(n_r); both forms are asserted.
    """
    cases = []
    for name, height in types:
        ct = CartanType(name)
        pr = Pairing(ct)
        for word in sorted(all_reduced_words(ct, ct.longest_word())):
            cases += [_pbw_orth_case(ct, pr, word, ga)
                      for ga in _weights_up_to(ct, height)]
    return cases


# ---------------------------------------------------------------------------
# transfer suite

def suite_transfer(types=("A2", "B2", "G2"), height=4):
    """S^-1 T_w(etilde^n) = fhat^n along every reduced word of w0."""
    cases = []
    for name in types:
        ct = CartanType(name)
        for word in sorted(all_reduced_words(ct, ct.longest_word())):
            # T_w is an algebra map and S^-1 an anti-algebra map, so
            # S^-1 T_w(etilde_1^{n_1} ... etilde_m^{n_m}) is the reversed
            # product of the per-root images; computing those once per
            # word keeps the braid operators on single root vectors.
            imgs = [braid.apply_word(
                ct, "dot", word,
                braid.root_vector(ct, "etilde", word, r)).antipode_inv()
                for r in range(1, len(word) + 1)]
            for ga in _weights_up_to(ct, height):
                for n in pbw.indices_of_weight(ct, "etilde", word, ga):
                    lhs = UElement.one(ct)
                    for r in reversed(range(len(word))):
                        for _ in range(n[r]):
                            lhs = lhs * imgs[r]
                    cases.append(_serre_case(
                        "transfer %s %s n=%s"
                        % (ct.name, format_word(word), list(n)),
                        lhs, pbw.pbw_monomial(ct, "fhat", word, n)))
    return cases


# ---------------------------------------------------------------------------
# decomposition suite

def suite_decomp(types=("A2", "B2", "G2"), height=4):
    """Prefix x suffix products span each weight block (one word per type)."""
    cases = []
    for name in types:
        ct = CartanType(name)
        word = min(all_reduced_words(ct, ct.longest_word()))
        m = len(word)
        for cut in range(m + 1):
            for ga in _weights_up_to(ct, height):
                rows = []
                for n in pbw.indices_of_weight(ct, "ehat", word, ga):
                    npre = n[:cut] + (0,) * (m - cut)
                    nsuf = (0,) * cut + n[cut:]
                    prod = (pbw.pbw_monomial(ct, "ehat", word, npre)
                            * pbw.pbw_monomial(ct, "ehat", word, nsuf))
                    rows.append(canonical_coords(prod))
                want = kostant_count(ct, ga)
                got = rank(rows)
                cases.append({"check": "decomp %s cut=%d at %s"
                              % (ct.name, cut, list(ga)),
                              "pass": got == want, "got": got, "want": want})
    return cases


# ---------------------------------------------------------------------------
# transition / koy suite

def _guarded(check, decide):
    """decide(), or a failed case named check whose witness is the message
    of a ValueError raised while deciding it, such as a fault found in the
    u-basis table or a TruncationError."""
    try:
        return decide()
    except ValueError as exc:
        return {"check": check, "pass": False, "witness": {"error": str(exc)}}


def suite_koy(types=("A2", "B2"), height=3, d_reading="qi"):
    """Kostant index counts up to max(height, COUNT_HEIGHT), 3 in place of
    COUNT_HEIGHT on A3; transition round trips, failing also when an ehat
    entry they read is not a Laurent polynomial, and module basis-change
    round trips up to height, the latter failing under the qi reading
    when an entry they read is not in Z[q]."""
    cases = []
    for name in types:
        ct = CartanType(name)
        words = sorted(all_reduced_words(ct, ct.longest_word()))
        ch = max(height, COUNT_HEIGHT if ct.rank <= 2 else 3)
        for word in words:
            out = {"check": "kostant counts %s %s"
                   % (ct.name, format_word(word)), "pass": True}
            for ga in _weights_up_to(ct, ch):
                got = len(pbw.indices_of_weight(ct, "ehat", word, ga))
                if got != kostant_count(ct, ga):
                    out["pass"] = False
                    out["witness"] = {"weight": list(ga), "indices": got,
                                      "kostant": kostant_count(ct, ga)}
                    break
            cases.append(out)
        for wa in words:
            for wb in words:
                if wa == wb:
                    continue
                for ga in _weights_up_to(ct, height):
                    cases.append(_transition_round_trip(ct, wa, wb, ga))
        # module-level basis change round trips on basis vectors; under the
        # qi reading every entry a round trip reads must lie in Z[q]
        wa, wb = words[0], words[1]
        for ga in _weights_up_to(ct, height):
            for n in pbw.indices_of_weight(ct, "ehat", wa, ga):
                check = "koy round trip %s n=%s" % (ct.name, list(n))
                cases.append(_guarded(check, lambda: _koy_round_trip(
                    ct, wa, wb, ga, n, check, d_reading)))
    return cases


def _transition_round_trip(ct, wa, wb, ga):
    """The ehat transition from wa to wb and back at weight ga is the
    identity, and every entry it reads is a Laurent polynomial."""
    fwd = pbw.transition_matrix(ct, "ehat", wa, wb, ga)
    bwd = pbw.transition_matrix(ct, "ehat", wb, wa, ga)
    out = {"check": "round trip %s %s<->%s at %s"
           % (ct.name, format_word(wa), format_word(wb), list(ga)),
           "pass": True}
    for n in sorted(fwd):
        acc = {}
        for n2, c in fwd[n].items():
            for n3, c2 in bwd[n2].items():
                acc[n3] = acc.get(n3, ZERO) + c * c2
        bad = _fock_witness(fock.FockVector(ct, wa, acc),
                            fock.FockVector.basis(ct, wa, n))
        if bad:
            out["pass"] = False
            out["witness"] = dict(src=list(n), **bad)
            return out
    read = sorted({n2 for row in fwd.values() for n2 in row})
    bad = _first_bad_entry(
        ct, ga, [(wa, wb, n, fwd[n]) for n in sorted(fwd)]
        + [(wb, wa, n2, bwd[n2]) for n2 in read],
        lambda c: list(c.den.values()) == [1])
    if bad:
        out["pass"] = False
        out["witness"] = bad
    return out


def _koy_round_trip(ct, wa, wb, ga, n, check, d_reading):
    """p(n) along wa taken to wb and back is p(n), and under the qi reading
    every entry the round trip reads is in Z[q]."""
    v = fock.FockVector.basis(ct, wa, n)
    there = fock.koy_transform(ct, wa, wb, v, d_reading, 20)
    rt = fock.koy_transform(ct, wb, wa, there, d_reading, 20)
    case = _fock_case(check, rt, v)
    if case["pass"] and d_reading == "qi":
        bad = _entry_outside_zq(ct, wa, wb, ga, n, there)
        if bad:
            case = {"check": check, "pass": False, "witness": bad}
    return case


def _entry_outside_zq(ct, wa, wb, gamma, n, there):
    """The first basis-change entry read by the round trip of p(n) through
    `there` (its image along wb) that is not in Z[q], as a witness, or
    None: the entries of row n from wa to wb, then those of each row n'
    of `there` back from wb to wa."""
    rows = [(wa, wb, n, there.terms)]
    for n2 in sorted(there.terms):
        back = fock.koy_transform(ct, wb, wa,
                                  fock.FockVector.basis(ct, wb, n2), "qi", 20)
        rows.append((wb, wa, n2, back.terms))
    return _first_bad_entry(ct, gamma, rows, lambda c: c.den == {0: 1})


def _first_bad_entry(ct, gamma, rows, ok):
    """The first entry c with not ok(c) of the rows (src, dst, n, {n': c})
    at weight gamma, in the order given and by n' within a row, as a
    witness, or None."""
    for src, dst, m, terms in rows:
        for m2 in sorted(terms):
            entry = terms[m2]
            if not ok(entry):
                return {"type": ct.name,
                        "words": [format_word(src), format_word(dst)],
                        "weight": list(gamma), "n": list(m),
                        "n'": list(m2), "entry": str(entry)}
    return None


# ---------------------------------------------------------------------------
# conj1 suite

def suite_conj1(types=("A2", "B2"), height=3, d_reading="qi"):
    """Word-independence of the transported e_i operator; A1 ladder."""
    cases = []
    for name in types:
        ct = CartanType(name)
        words = sorted(all_reduced_words(ct, ct.longest_word()))
        base = words[0]
        inner = height + 12
        for other in words[1:]:
            for i in range(ct.rank):
                for ga in _weights_up_to(ct, height):
                    for n in pbw.indices_of_weight(ct, "ehat", base, ga):
                        check = ("conj1 %s i=%d n=%s via %s"
                                 % (ct.name, i + 1, list(n),
                                    format_word(other)))
                        cases.append(_guarded(check, lambda: _conj1_case(
                            ct, base, other, i, n, check, d_reading,
                            inner)))
    a1 = CartanType("A1")
    for n in range(LADDER_TOP + 1):
        cases.append(_guarded("A1 ladder n=%d" % n,
                              lambda: _ladder_case(a1, n, d_reading)))
    return cases


def _conj1_case(ct, base, other, i, n, check, d_reading, inner):
    """conj1_i then the basis change from base to other equals the basis
    change then conj1_i along other, on p(n) along base."""
    v = fock.FockVector.basis(ct, base, n)
    lhs = fock.koy_transform(
        ct, base, other, fock.conj1_operator(ct, base, i, v, d_reading, inner),
        d_reading, inner)
    rhs = fock.conj1_operator(
        ct, other, i, fock.koy_transform(ct, base, other, v, d_reading, inner),
        d_reading, inner)
    return _fock_case(check, lhs, rhs)


def _ladder_case(a1, n, d_reading):
    """conj1 on p(n) of the A1 module is -p(n+1) / (q^{n+2} - q^n)."""
    v = fock.FockVector.basis(a1, (0,), (n,))
    got = fock.conj1_operator(a1, (0,), 0, v, d_reading, n + 2)
    den = Scalar.q_power(n + 2) - Scalar.q_power(n)
    want = fock.FockVector.basis(a1, (0,), (n + 1,)).scale(-den.inverse())
    return {"check": "A1 ladder n=%d" % n, "pass": got == want,
            "got": repr(got)}


# ---------------------------------------------------------------------------
# sl2 suite

_SL2_RELATIONS = (
    ("ab", "ba", 1), ("cd", "dc", 1), ("ac", "ca", 1), ("bd", "db", 1),
    ("bc", "cb", 0),
)


def _apply_letters(letters, act):
    """Compose letter actions, rightmost letter acting first."""
    def run(v):
        for g in reversed(letters):
            v = act(g, v)
        return v
    return run


def _sl2_relation_cases(act, vectors, label):
    cases = []
    for lhs, rhs, qpow in _SL2_RELATIONS:
        ok = all(_apply_letters(lhs, act)(v)
                 == _apply_letters(rhs, act)(v).scale(Scalar.q_power(qpow))
                 for v in vectors)
        cases.append({"check": "sl2 %s=q^%d %s (%s)"
                      % (lhs, qpow, rhs, label), "pass": ok})
    qq = Scalar.q_power(1) - Scalar.q_power(-1)
    ok = all(
        (_apply_letters("ad", act)(v) - _apply_letters("da", act)(v))
        == _apply_letters("bc", act)(v).scale(qq)
        and (_apply_letters("ad", act)(v)
             - _apply_letters("bc", act)(v).scale(Scalar.q_power(1))) == v
        for v in vectors)
    cases.append({"check": "sl2 ad-da=(q-q^-1)bc, ad-qbc=1 (%s)" % label,
                  "pass": ok})
    return cases


def _sl2_matcoef_letters():
    """Identify a, b, c, d among the matrix coefficients of the 2-dim
    A1 module by their values on k, e, f."""
    ct = CartanType("A1")
    V = coordring.build_irrep(ct, (-1,))
    k = UElement.k_i(ct, 0)
    e = UElement.e(ct, 0)
    f = UElement.f(ct, 0)
    letters = {}
    for s in range(2):
        for t in range(2):
            phi = coordring.MatCoef(V, s, t)
            if s == t:
                val = phi.eval(k)
                letters["a" if val == Scalar.q_power(1) else "d"] = phi
            else:
                letters["b" if not phi.eval(e).is_zero() else "c"] = phi
    assert sorted(letters) == ["a", "b", "c", "d"]
    return ct, letters


def suite_sl2(max_n=10):
    """The seven quantized-SL2 relations as operators on the rank-1 module,
    both through the direct slot rules and the matrix-coefficient
    realization."""
    ct = CartanType("A1")
    vectors = [fock.FockVector.basis(ct, (0,), (n,)) for n in
               range(max_n + 1)]

    def direct(g, v):
        return fock.sl2_act(ct, g, 0, v)
    cases = _sl2_relation_cases(direct, vectors, "slot rules")

    ctm, letters = _sl2_matcoef_letters()

    def realized(g, v):
        return coordring.act_on_tensor(letters[g], (0,), v)
    cases += _sl2_relation_cases(realized, vectors, "matrix coefficients")

    ok = all(direct(g, v) == realized(g, v)
             for g in "abcd" for v in vectors)
    cases.append({"check": "sl2 slot rules = matrix coefficients",
                  "pass": ok})
    return cases


# ---------------------------------------------------------------------------
# oracle suite

def suite_oracle(types=(("A2", 3),), d_reading="qi"):
    """Intertwiner check of the basis-change operator against the tensor
    module built from matrix coefficients, one case per type."""
    return [_guarded("oracle %s h<=%d (%s reading)" % (name, height,
                                                       d_reading),
                     lambda: _oracle_case(CartanType(name), height,
                                          d_reading))
            for name, height in types]


def _oracle_case(ct, height, d_reading):
    """The intertwiner report between the first two reduced words of w0 up
    to height, as one case counting its decisions."""
    words = sorted(all_reduced_words(ct, ct.longest_word()))
    report = coordring.verify_intertwiner(ct, words[0], words[1], height,
                                          d_reading)
    bad = [r for r in report if not r["pass"]]
    out = {"check": "oracle %s h<=%d (%d cases, %s reading)"
           % (ct.name, height, len(report), d_reading),
           "pass": not bad,
           "decisions": len(report),
           "phi_checked": len({r["phi"] for r in report}),
           "phi_failed": len({r["phi"] for r in bad})}
    if bad:
        out["witness"] = bad[0]
    return out


# ---------------------------------------------------------------------------
# the suite table

def _names(pairs):
    return tuple(name for name, _ in pairs)


def _height(pairs):
    """The height of a run whose (type, height) pairs all share one."""
    return pairs[0][1]


def _ladder_only(cases, type_name):
    """conj1 adds the A1 ladder to every run, which checks nothing of
    another requested type."""
    return len(cases) == LADDER_TOP + 1 and type_name != "A1"


# the types a suite accepts, with the reason it rejects the others
ANY_TYPE = (TYPE_NAMES, None)
RANK_2_UP = (("A2", "A3", "B2", "G2"),
             "suite {suite} needs a type of rank 2 or more: A1 has one "
             "reduced word and no braid relation")
A1_ONLY = (("A1",), "suite {suite} checks A1 only, not {type}")


class Suite(NamedTuple):
    """How `qpbw verify` runs one suite.  `run` calls the suite function on
    the run's (type, height) pairs, looking the function up by name when
    it runs.  Without --type a run takes the `defaults` pairs; a type they
    do not list gets the first pair's height.  `height` says what --height
    bounds (None: the suite reads no height).  `vacuous(cases, --type)`
    says the run decided no case of the requested types."""
    run: Callable
    defaults: tuple
    height: str | None
    accepts: tuple
    d_reading: bool = False
    vacuous: Callable = lambda cases, type_name: not cases


SUITES = {
    "hopf": Suite(lambda ps: suite_hopf(types=_names(ps)),
                  (("A2", None), ("B2", None)), None, ANY_TYPE),
    "braid": Suite(lambda ps: suite_braid(types=_names(ps)),
                   (("A2", None), ("B2", None), ("G2", None)), None,
                   RANK_2_UP),
    "pairing": Suite(lambda ps: suite_pairing(_names(ps), _height(ps)),
                     (("A2", 4), ("B2", 4)), "weight height", ANY_TYPE),
    "pbw-orth": Suite(lambda ps: suite_pbw_orth(types=ps),
                      (("A2", 5), ("B2", 5), ("G2", 4)), "weight height",
                      ANY_TYPE),
    "transfer": Suite(lambda ps: suite_transfer(_names(ps), _height(ps)),
                      (("A2", 4), ("B2", 4), ("G2", 4)), "weight height",
                      ANY_TYPE),
    "decomp": Suite(lambda ps: suite_decomp(_names(ps), _height(ps)),
                    (("A2", 4), ("B2", 4), ("G2", 4)), "weight height",
                    ANY_TYPE),
    "koy": Suite(lambda ps, **kw: suite_koy(_names(ps), _height(ps), **kw),
                 (("A2", 3), ("B2", 3)), "weight height", RANK_2_UP,
                 d_reading=True),
    "conj1": Suite(lambda ps, **kw: suite_conj1(_names(ps), _height(ps),
                                                **kw),
                   (("A2", 3), ("B2", 3)), "weight height", ANY_TYPE,
                   d_reading=True, vacuous=_ladder_only),
    "sl2": Suite(lambda ps: suite_sl2(max_n=_height(ps)), (("A1", 10),),
                 "largest exponent n", A1_ONLY),
    "oracle": Suite(lambda ps, **kw: suite_oracle(types=ps, **kw),
                    (("A2", 3),), "weight height", RANK_2_UP,
                    d_reading=True),
}


def run_suite(name, type_name=None, height=None, d_reading=None):
    """Run a named suite; returns its case list.  A type, height or
    reading of None selects the suite's default; height 0 means 0."""
    suite = SUITES[name]
    pairs = suite.defaults
    if type_name:
        pairs = ((type_name, dict(pairs).get(type_name, pairs[0][1])),)
    if height is not None and suite.height:
        pairs = tuple((t, height) for t, _ in pairs)
    options = {"d_reading": d_reading} if d_reading else {}
    return suite.run(pairs, **options)


# ---------------------------------------------------------------------------
# transition emission

def _matrix_json(ct, family, from_word, to_word, ga):
    rows = pbw.transition_matrix(ct, family, from_word, to_word, ga)
    out_rows = []
    for n in sorted(rows):
        entries = [{"tgt": [int(v) for v in n2], "coeff": str(rows[n][n2])}
                   for n2 in sorted(rows[n])]
        out_rows.append({"src": [int(v) for v in n], "entries": entries})
    return {"type": ct.name, "family": family,
            "from": [i + 1 for i in from_word],
            "to": [i + 1 for i in to_word],
            "weight": list(ga), "rows": out_rows}


def cmd_transition(args):
    try:
        ct = CartanType(args.type)
    except (KeyError, ValueError):
        print("unknown type: %s" % args.type, file=sys.stderr)
        return 2
    try:
        from_word = parse_word(getattr(args, "from"))
        to_word = parse_word(args.to)
    except ValueError as exc:
        print("bad word: %s" % exc, file=sys.stderr)
        return 2
    for w in (from_word, to_word):
        if (not w or max(w) >= ct.rank
                or not ct.is_reduced(w)):
            print("word %s is not reduced for %s"
                  % (format_word(w), ct.name), file=sys.stderr)
            return 2
    if ct.perm_of_word(from_word) != ct.perm_of_word(to_word):
        print("words represent different Weyl group elements",
              file=sys.stderr)
        return 2
    family = args.family
    try:
        pbw.normalize_family(family)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.weight:
        try:
            weights = [tuple(int(t) for t in args.weight.split(","))]
        except ValueError:
            print("bad weight: %s" % args.weight, file=sys.stderr)
            return 2
        if len(weights[0]) != ct.rank or min(weights[0]) < 0:
            print("weight must have %d nonnegative entries" % ct.rank,
                  file=sys.stderr)
            return 2
    else:
        weights = _weights_up_to(ct, 3 if args.height is None
                                 else args.height)
    blocks = [_matrix_json(ct, family, from_word, to_word, ga)
              for ga in weights]
    if args.format == "json":
        print(json.dumps({"schema": 1, "blocks": blocks}, indent=2))
    else:
        for b in blocks:
            print("weight %s:" % b["weight"])
            for row in b["rows"]:
                terms = ", ".join("%s: %s" % (e["tgt"], e["coeff"])
                                  for e in row["entries"])
                print("  %s -> %s" % (row["src"], terms or "0"))
    return 0


def _verify_usage(args):
    """Why the suite cannot run on these options, or None.  It runs before
    QPBW_HEIGHT fills in a height, which suites that read none ignore."""
    suite = SUITES.get(args.suite)
    if suite is None:
        return "unknown suite: %s (choose from %s)" % (args.suite,
                                                      ", ".join(SUITES))
    if args.type and args.type not in TYPE_NAMES:
        return "unknown type: %s" % args.type
    accepted, why = suite.accepts
    if args.type and args.type not in accepted:
        return why.format(suite=args.suite, type=args.type)
    if args.height is not None and suite.height is None:
        return "suite %s reads no --height" % args.suite
    if args.d_reading and not suite.d_reading:
        return "suite %s reads no --d-reading" % args.suite
    return None


def cmd_verify(args):
    report = run_suite(args.suite, type_name=args.type, height=args.height,
                       d_reading=args.d_reading)
    if SUITES[args.suite].vacuous(report, args.type):
        print("suite %s decides no case%s at height %s: nothing was checked"
              % (args.suite, " on %s" % args.type if args.type else "",
                 "default" if args.height is None else args.height),
              file=sys.stderr)
        return 2
    failures = [r for r in report if not r["pass"]]
    # what the cases checked, where each case counts it (the oracle does)
    counts = {k: sum(r[k] for r in report) for k in COUNTED
              if all(k in r for r in report)}
    if args.format == "json":
        print(json.dumps({"schema": 1, "suite": args.suite,
                          "cases": len(report), **counts,
                          "failures": failures}, indent=2, default=str))
    else:
        for r in failures:
            print("FAIL %s %s" % (r["check"],
                                  {k: v for k, v in r.items()
                                   if k not in ("check", "pass")}))
        print("suite %s: %d cases, %s%d failures"
              % (args.suite, len(report),
                 "".join("%d %s, " % (v, k) for k, v in counts.items()),
                 len(failures)))
    return 1 if failures else 0


def build_parser():
    p = argparse.ArgumentParser(prog="qpbw")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transition", help="emit transition matrices")
    t.add_argument("--type", required=True)
    t.add_argument("--from", required=True, dest="from")
    t.add_argument("--to", required=True)
    t.add_argument("--family", default="hat_e")
    t.add_argument("--height", type=int)
    t.add_argument("--weight")
    t.add_argument("--format", choices=("text", "json"), default="json")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite")
    v.add_argument("--type")
    v.add_argument("--height", type=int)
    v.add_argument("--format", choices=("text", "json"), default="text")
    # absent means the suite's own reading, qi
    v.add_argument("--d-reading", choices=fock.D_READINGS, dest="d_reading")
    return p


def _resolve_height(args):
    """Fill args.height from QPBW_HEIGHT when --height is absent; returns
    an error message for a value that is not a nonnegative integer."""
    env = os.environ.get("QPBW_HEIGHT", "").strip()
    if args.height is None and env:
        try:
            args.height = int(env)
        except ValueError:
            return "QPBW_HEIGHT must be an integer, got %r" % env
    if args.height is not None and args.height < 0:
        return "height must be nonnegative, got %d" % args.height
    return None


def main(argv=None):
    args = build_parser().parse_args(argv)
    error = ((args.command == "verify" and _verify_usage(args))
             or _resolve_height(args))
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.command == "transition":
        return cmd_transition(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
