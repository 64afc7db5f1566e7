"""The quantized enveloping algebra in triangular normal form.

Elements are finite sums  sum  c_(F,kappa,E) . f_F  k_kappa  e_E  where F and
E are free words in the generators f_i / e_i (no Serre relations imposed), and
kappa runs over the root lattice Q.  Multiplication rewrites products into
this normal form using only the k-commutation rules and the e-f commutator

    e_i f_j - f_j e_i = delta_ij (k_i - k_i^{-1}) / (q_i - q_i^{-1}).

Equality of UElement values is equality in this free (pre-Serre) algebra;
equality modulo the Serre ideals is decided elsewhere via the Drinfeld
pairing.

The integral form: in the basis ê_i = (q_i - q_i^{-1}) e_i the commutator
reads ê_i f_i - f_i ê_i = k_i - k_i^{-1}, so products of monomials
f_F k ê_E with coefficients in Z[q, q^-1] need no division.  int_mul
multiplies term dicts of that form, with Laurent exponent maps for
coefficients and no Scalar in its loops; braid computes every operator
image with it, and with plus int_mul makes only the f-free terms of a
product whose left factor is f-free (the root-vector chains).  The Scalar
kernels stay for UElement products and U x U: converting to and from the
ê basis around each of those products costs more than it saves.
qdiff_product(ct, gamma) is the factor D_gamma =
prod_j (q_j - q_j^{-1})^{m_j} with ê_E = D_{wt E} e_E, one shared Scalar
per weight; it is also the denominator of the integral pairing
(pairing.Pairing.numerator), and no other code multiplies those factors.

Hopf structure:
    Delta(e_i) = e_i x 1 + k_i x e_i        eps(e_i) = 0
    Delta(f_i) = f_i x k_i^{-1} + 1 x f_i   eps(f_i) = 0
    Delta(k_g) = k_g x k_g                  eps(k_g) = 1
    S(e_i) = -k_i^{-1} e_i,  S(f_i) = -f_i k_i,  S(k_g) = k_{-g}.

Memo: UTensor products, which repeat the same few monomial products across
the coproducts of a word, read each monomial product m1 * m2 from one
process-wide dict, _products, keyed by (type name, m1, m2) and filled on
first request.  Its term dicts are shared between callers and never
mutated; the dict is never cleared, as it is bounded by the monomials a
process meets.
"""

from __future__ import annotations

from .rootdata import CartanType
from .scalars import (ONE, Scalar, _pmul, _pmul_into, laurent_product,
                      qdiff_inverse, qfact)

Mono = tuple  # (fword, kappa, eword)


def _add_term(acc: dict, mono, coeff: Scalar):
    cur = acc.get(mono)
    s = coeff if cur is None else cur + coeff
    if s.is_zero():
        acc.pop(mono, None)
    else:
        acc[mono] = s


def _trusted(cls, ct, terms: dict):
    """An element of cls over terms as they are, without the copy and the
    zero filter of the public constructors.  For the kernels here and in
    braid, whose dict is new and holds no zero coefficient: built with
    _add_term, or mapped from the terms of another element by a one-to-one
    key map and a nonzero factor."""
    x = object.__new__(cls)
    x.ct = ct
    x.terms = terms
    return x


def _fword_weight(ct: CartanType, word):
    v = [0] * ct.rank
    for i in word:
        v[i] += 1
    return tuple(v)


class UElement:
    """Element of U_q(g) in triangular normal form f * k * e."""

    __slots__ = ("ct", "terms")

    def __init__(self, ct: CartanType, terms: dict):
        self.ct = ct
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(ct):
        return UElement(ct, {})

    @staticmethod
    def one(ct):
        return UElement(ct, {((), ct.zero(), ()): ONE})

    @staticmethod
    def e(ct, i):
        return UElement(ct, {((), ct.zero(), (i,)): ONE})

    @staticmethod
    def f(ct, i):
        return UElement(ct, {((i,), ct.zero(), ()): ONE})

    @staticmethod
    def k(ct, gamma):
        return UElement(ct, {((), tuple(gamma), ()): ONE})

    @staticmethod
    def k_i(ct, i, power=1):
        g = tuple(power if j == i else 0 for j in range(ct.rank))
        return UElement(ct, {((), g, ()): ONE})

    @staticmethod
    def e_word(ct, word):
        return UElement(ct, {((), ct.zero(), tuple(word)): ONE})

    @staticmethod
    def f_word(ct, word):
        return UElement(ct, {(tuple(word), ct.zero(), ()): ONE})

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        acc = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(acc, m, c)
        return _trusted(UElement, self.ct, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _trusted(UElement, self.ct,
                        {m: -c for m, c in self.terms.items()})

    def scale(self, s: Scalar):
        if s.is_zero():
            return UElement.zero(self.ct)
        return _trusted(UElement, self.ct,
                        {m: c * s for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(Scalar.from_int(other))
        acc = {}
        for m2, c2 in other.terms.items():
            prod = self._mul_mono(m2)
            for m, c in prod.items():
                _add_term(acc, m, c * c2)
        return _trusted(UElement, self.ct, acc)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def _mul_mono(self, mono):
        """self * (f_F k_kappa e_E) as a term dict."""
        return _rmul_mono(self.ct, self.terms, mono)

    def __eq__(self, other):
        return isinstance(other, UElement) and self.ct is other.ct \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.ct.name, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- structure maps -------------------------------------------------
    def weight(self):
        """Q-weight if homogeneous, else raises ValueError."""
        wts = {mono_weight(self.ct, m) for m in self.terms}
        if len(wts) > 1:
            raise ValueError("element is not weight homogeneous")
        return wts.pop() if wts else self.ct.zero()

    def counit(self) -> Scalar:
        total = Scalar.from_int(0)
        for (F, kappa, E), c in self.terms.items():
            if not F and not E:
                total = total + c
        return total

    def coproduct(self) -> "UTensor":
        ct = self.ct
        acc = {}
        for (F, kappa, E), c in self.terms.items():
            t = UTensor.one(ct)
            for j in F:
                t = t * _DELTA_CACHE(ct, "f", j)
            t = t * UTensor(ct, {(((), kappa, ()), ((), kappa, ())): ONE})
            for j in E:
                t = t * _DELTA_CACHE(ct, "e", j)
            for p, cp in t.terms.items():
                _add_term(acc, p, cp * c)
        return _trusted(UTensor, ct, acc)

    def antipode(self):
        return self._anti_map(_S_GEN)

    def antipode_inv(self):
        return self._anti_map(_SINV_GEN)

    def _anti_map(self, gen_images):
        ct = self.ct
        acc = {}
        for (F, kappa, E), c in self.terms.items():
            x = UElement.k(ct, tuple(-g for g in kappa))
            for j in E:
                x = gen_images(ct, "e", j) * x
            for j in reversed(F):
                x = x * gen_images(ct, "f", j)
            for m, cm in x.terms.items():
                _add_term(acc, m, cm * c)
        return _trusted(UElement, ct, acc)

    def psi(self):
        """The Q(q)-linear anti-involution e_i <-> f_i fixing every k.  It
        sends f_F k e_E to f_{rev E} k e_{rev F}, which is again in normal
        form, and it respects the k- and e-f commutation rules, so it acts
        monomial by monomial on the free algebra."""
        return _trusted(UElement, self.ct,
                        {(E[::-1], kappa, F[::-1]): c
                         for (F, kappa, E), c in self.terms.items()})

    def a_involution(self):
        """Ring involution q -> q^{-1}, k -> k^{-1}, e_i -> -k_i^{-1} e_i,
        f_i -> -f_i k_i (a homomorphism, semilinear over q -> q^{-1})."""
        ct = self.ct
        acc = {}
        for (F, kappa, E), c in self.terms.items():
            x = UElement.one(ct)
            for j in F:
                x = x * (-(UElement.f(ct, j) * UElement.k_i(ct, j)))
            x = x * UElement.k(ct, tuple(-g for g in kappa))
            for j in E:
                x = x * (-(UElement.k_i(ct, j, -1) * UElement.e(ct, j)))
            cbar = c.bar()
            for m, cm in x.terms.items():
                _add_term(acc, m, cm * cbar)
        return _trusted(UElement, ct, acc)

    # -- display --------------------------------------------------------
    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_mono_sort_key):
            c = self.terms[m]
            cs = str(c)
            ms = mono_str(m)
            if ms == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(ms)
            else:
                if "+" in cs or (cs.count("-") - cs.count("^-")) > 0:
                    cs = "(%s)" % cs
                parts.append("%s*%s" % (cs, ms))
        return " + ".join(parts)


def mono_weight(ct: CartanType, mono):
    F, kappa, E = mono
    v = [0] * ct.rank
    for i in E:
        v[i] += 1
    for i in F:
        v[i] -= 1
    return tuple(v)


def mono_str(mono) -> str:
    F, kappa, E = mono
    parts = ["f%d" % (i + 1) for i in F]
    if any(kappa):
        parts.append("k[%s]" % ",".join(str(g) for g in kappa))
    parts.extend("e%d" % (i + 1) for i in E)
    return "*".join(parts) if parts else "1"


def _mono_sort_key(mono):
    F, kappa, E = mono
    return (len(F) + len(E), F, E, kappa)


# -- right multiplication by generators, on raw term dicts ----------------

def _rmul_mono(ct: CartanType, terms: dict, mono) -> dict:
    """terms * (f_F k_kappa e_E)."""
    F, kappa, E = mono
    cur = dict(terms)
    for j in F:
        cur = _rmul_f(ct, cur, j)
    if any(kappa):
        cur = _rmul_k(ct, cur, kappa)
    for j in E:
        cur = _rmul_e(cur, j)
    return cur


def _rmul_e(terms: dict, j: int) -> dict:
    return {(F, kappa, E + (j,)): c for (F, kappa, E), c in terms.items()}


def _rmul_k(ct: CartanType, terms: dict, gamma) -> dict:
    # k_gamma passes each e_l of E at the cost q^{-(gamma, alpha_l)}
    cost = [sum(g * b for g, b in zip(gamma, row)) for row in ct.form]
    acc = {}
    for (F, kappa, E), c in terms.items():
        shift = 0
        for l in E:
            shift -= cost[l]
        kap2 = tuple(a + b for a, b in zip(kappa, gamma))
        _add_term(acc, (F, kap2, E), c * Scalar.q_power(shift))
    return acc


def _rmul_f(ct: CartanType, terms: dict, j: int) -> dict:
    alpha_j = ct.alpha(j)
    row = ct.form[j]
    inv = qdiff_inverse(ct.qi(j))
    acc = {}
    for (F, kappa, E), c in terms.items():
        # f_j passes kappa and all of E, then joins the f-word.
        shift = -sum(k * b for k, b in zip(kappa, row))
        _add_term(acc, (F + (j,), kappa, E), c * Scalar.q_power(shift))
        if j not in E:
            continue
        # commutator terms, one per e_j letter in E, each a q-shift of
        # c / (q_j - q_j^{-1}) by s = (alpha_j, weight of the letters
        # before it)
        cd = c * inv
        kp = tuple(a + b for a, b in zip(kappa, alpha_j))
        km = tuple(a - b for a, b in zip(kappa, alpha_j))
        s = 0
        for p, i in enumerate(E):
            if i == j:
                E2 = E[:p] + E[p + 1:]
                _add_term(acc, (F, kp, E2), cd * Scalar.q_power(-s))
                _add_term(acc, (F, km, E2), -(cd * Scalar.q_power(s)))
            s += row[i]
    return acc


# -- the integral form (see the module docstring) -------------------------
#
# Integral term dicts map (F, kappa, E), with E read as the ê-word ê_E, to
# Laurent exponent maps; the k- and f-rules are those of _rmul_k and
# _rmul_f without the division.  A coefficient map may hold zero entries,
# but none is zero as a whole: a sum that cancels is dropped, as _add_term
# drops it, so the terms come out in the order of the Scalar kernels.  The
# maps of an input dict are shared, never mutated.

def _add_int_term(acc: dict, mono, p1, p2):
    """acc[mono] += p1 * p2 for Laurent exponent maps p1, p2 != 0."""
    cur = acc.get(mono)
    if cur is None:
        acc[mono] = _pmul(p1, p2)
        return
    _pmul_into(cur, p1, p2)
    if not any(cur.values()):
        del acc[mono]


def _rmul_int_k(ct: CartanType, terms: dict, gamma) -> dict:
    cost = [sum(g * b for g, b in zip(gamma, row)) for row in ct.form]
    out = {}
    for (F, kappa, E), c in terms.items():
        shift = 0
        for l in E:
            shift -= cost[l]
        kap2 = tuple(a + b for a, b in zip(kappa, gamma))
        out[(F, kap2, E)] = {e + shift: v for e, v in c.items()} \
            if shift else c
    return out


def _rmul_int_f(ct: CartanType, terms: dict, j: int, plus=False) -> dict:
    """terms * f_j; with plus, the f-word extensions are left out and only
    the commutator terms are made."""
    alpha_j = ct.alpha(j)
    row = ct.form[j]
    acc = {}
    for (F, kappa, E), c in terms.items():
        if not plus:
            _add_int_term(acc, (F + (j,), kappa, E), c,
                          {-sum(k * b for k, b in zip(kappa, row)): 1})
        if j not in E:
            continue
        # one commutator pair per ê_j letter, shifted by s = (alpha_j,
        # weight of the letters before it)
        kp = tuple(a + b for a, b in zip(kappa, alpha_j))
        km = tuple(a - b for a, b in zip(kappa, alpha_j))
        s = 0
        for p, i in enumerate(E):
            if i == j:
                E2 = E[:p] + E[p + 1:]
                _add_int_term(acc, (F, kp, E2), c, {-s: 1})
                _add_int_term(acc, (F, km, E2), c, {s: -1})
            s += row[i]
    return acc


def int_mul(ct: CartanType, left: dict, right: dict, plus=False) -> dict:
    """The product of two integral term dicts (ê basis), with the zero
    entries of each coefficient map removed.  With plus, left is f-free and
    only the f-free terms of the product are made: right multiplication
    never shortens the f-word, so each f_j of right enters through its
    commutator terms alone."""
    acc = {}
    for (F, kappa, E), c2 in right.items():
        cur = left
        for j in F:
            cur = _rmul_int_f(ct, cur, j, plus)
        if any(kappa):
            cur = _rmul_int_k(ct, cur, kappa)
        for (F1, k1, E1), c in cur.items():
            _add_int_term(acc, (F1, k1, E1 + E), c, c2)
    return {m: p if all(p.values()) else {e: v for e, v in p.items() if v}
            for m, p in acc.items()}


# (type name, weight) -> D_gamma; see qdiff_product.
_qdiff_products = {}


def qdiff_product(ct: CartanType, gamma) -> Scalar:
    """D_gamma for gamma = sum_j m_j alpha_j (see the module docstring),
    memoized per (type, weight): words with the same letters get the same
    object."""
    key = (ct.name, tuple(gamma))
    d = _qdiff_products.get(key)
    if d is None:
        p = {0: 1}
        for j, m in enumerate(gamma):
            dj = ct.qi(j)
            for _ in range(m):
                p = _pmul(p, {dj: 1, -dj: -1})
        d = _qdiff_products[key] = laurent_product(p, ())
    return d


# -- generator images for the (inverse) antipode -------------------------

def _S_GEN(ct, kind, j):
    if kind == "e":
        return -(UElement.k_i(ct, j, -1) * UElement.e(ct, j))
    return -(UElement.f(ct, j) * UElement.k_i(ct, j))


def _SINV_GEN(ct, kind, j):
    if kind == "e":
        return -(UElement.e(ct, j) * UElement.k_i(ct, j, -1))
    return -(UElement.k_i(ct, j) * UElement.f(ct, j))


# (type name, m1, m2) -> term dict of m1 * m2; see the module docstring.
_products = {}


def _mono_product(ct, m1, m2):
    """The normal form of the monomial product m1 * m2, as a term dict that
    the caller must not mutate."""
    key = (ct.name, m1, m2)
    t = _products.get(key)
    if t is None:
        t = _products[key] = _rmul_mono(ct, {m1: ONE}, m2)
    return t


_delta_cache = {}


def _DELTA_CACHE(ct, kind, j):
    key = (ct.name, kind, j)
    t = _delta_cache.get(key)
    if t is None:
        zero = ct.zero()
        ki = tuple(1 if r == j else 0 for r in range(ct.rank))
        kinv = tuple(-g for g in ki)
        if kind == "e":
            t = UTensor(ct, {
                (((), zero, (j,)), ((), zero, ())): ONE,
                (((), ki, ()), ((), zero, (j,))): ONE,
            })
        else:
            t = UTensor(ct, {
                (((j,), zero, ()), ((), kinv, ())): ONE,
                (((), zero, ()), ((j,), zero, ())): ONE,
            })
        _delta_cache[key] = t
    return t


class UTensor:
    """Element of U x U, with componentwise multiplication."""

    __slots__ = ("ct", "terms")

    def __init__(self, ct, terms: dict):
        self.ct = ct
        self.terms = {p: c for p, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero(ct):
        return UTensor(ct, {})

    @staticmethod
    def one(ct):
        unit = ((), ct.zero(), ())
        return UTensor(ct, {(unit, unit): ONE})

    @staticmethod
    def of(x: UElement, y: UElement):
        ct = x.ct
        terms = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                _add_term(terms, (m1, m2), c1 * c2)
        return _trusted(UTensor, ct, terms)

    def __add__(self, other):
        acc = dict(self.terms)
        for p, c in other.terms.items():
            _add_term(acc, p, c)
        return _trusted(UTensor, self.ct, acc)

    def __sub__(self, other):
        return self + other.scale(Scalar.from_int(-1))

    def scale(self, s: Scalar):
        return UTensor(self.ct, {p: c * s for p, c in self.terms.items()})

    def __mul__(self, other):
        ct = self.ct
        acc = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                right = _mono_product(ct, b1, b2)
                cc = c1 * c2
                for ma, ca in _mono_product(ct, a1, a2).items():
                    cca = cc * ca
                    for mb, cb in right.items():
                        _add_term(acc, (ma, mb), cca * cb)
        return _trusted(UTensor, ct, acc)

    def __eq__(self, other):
        return isinstance(other, UTensor) and self.ct is other.ct \
            and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms, key=lambda p: (_mono_sort_key(p[0]),
                                                        _mono_sort_key(p[1]))):
            c = self.terms[(a, b)]
            parts.append("(%s)*%s(x)%s" % (c, mono_str(a), mono_str(b)))
        return " + ".join(parts)


def divided_e_power(ct, i, n) -> UElement:
    """e_i^{(n)} = e_i^n / [n]_{q_i}!"""
    return UElement.e_word(ct, (i,) * n).scale(qfact(n, ct.qi(i)).inverse())


def divided_f_power(ct, i, n) -> UElement:
    return UElement.f_word(ct, (i,) * n).scale(qfact(n, ct.qi(i)).inverse())
