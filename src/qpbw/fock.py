"""Specialized Soibelman modules on tensor Fock bases.

The rank-1 module has basis {p(n) : n >= 0} with generator action

    a p(n) = (1 - q_i^{2n}) p(n-1),   b p(n) = q_i^n p(n),
    c p(n) = -q_i^{n+1} p(n),         d p(n) = p(n+1),

and the module attached to a reduced word i = (i_1, ..., i_m) has basis
p_i(n) = p_{i_1}(n_1) x ... x p_{i_m}(n_m).  A vector is graded by
gamma(n) = sum_r n_r beta_r with beta_r the r-th suffix root (rootdata's
exponent_weight with roots="suffix"), and the sigma-operators act on the
weight-gamma component by q^{-(lambda, gamma)}.

The basis-change map between the modules of two reduced words reuses the
transition matrix of the hat PBW family together with ratios of the
normalizing constants d(n); the transported right-e_i operator likewise
reuses the e_i structure constants of the hat basis.  The substitution
performed inside d(n) (plain q versus q_i) is selectable; see D_READINGS.
"""

from __future__ import annotations

from .pbw import emul_constants, stored_block, transition_matrix
from .rootdata import CartanType, exponent_weight
from .scalars import ONE, ZERO, Scalar, d_const, qfact

DEFAULT_HEIGHT = 5

# how the constant d(n) reads the deformation parameter at index i:
#   "qi" -> substitute q -> q^{d_i};  "q" -> plain q for every index
D_READINGS = ("qi", "q")


class TruncationError(ValueError):
    """A module computation produced a term beyond the height bound."""


def d_i_const(ct: CartanType, i: int, n: int, d_reading: str) -> Scalar:
    """The normalizing constant tying the slot basis to divided powers:
    q^{n(n+1)/2} (q^{-1}-q)^n [n]!, matching the pairing constant
    (-1)^n q^n [n]! of the dual model against the orthogonality constant
    c(n)/[n]! of the divided-power bases."""
    if d_reading not in D_READINGS:
        raise ValueError("unknown d-reading %r" % d_reading)
    d = ct.qi(i) if d_reading == "qi" else 1
    return d_const(n, d) * qfact(n, d)


# (type name, word, n, reading) -> (d_word_const, its inverse); Scalars are
# immutable, so the entries are shared.
_D_WORD = {}


def _d_word(ct: CartanType, word, n, d_reading: str):
    key = (ct.name, tuple(word), tuple(n), d_reading)
    pair = _D_WORD.get(key)
    if pair is None:
        val = ONE
        for i, nr in zip(word, n):
            if nr:
                val = val * d_i_const(ct, i, nr, d_reading)
        pair = _D_WORD[key] = (val, val.inverse())
    return pair


def d_word_const(ct: CartanType, word, n, d_reading: str) -> Scalar:
    """prod_r d_{i_r}(n_r) along the word, computed once per (type, word,
    n, reading)."""
    return _d_word(ct, word, n, d_reading)[0]


def d_word_inverse(ct: CartanType, word, n, d_reading: str) -> Scalar:
    """1 / d_word_const, kept next to it, so the basis-change entries are
    products rather than divisions."""
    return _d_word(ct, word, n, d_reading)[1]


class FockVector:
    """Finite combination of basis vectors p_i(n) along one reduced word."""

    __slots__ = ("ct", "word", "terms")

    def __init__(self, ct: CartanType, word, terms: dict):
        self.ct = ct
        self.word = tuple(word)
        self.terms = {tuple(n): c for n, c in terms.items()
                      if not c.is_zero()}

    @staticmethod
    def zero(ct, word):
        return FockVector(ct, word, {})

    @staticmethod
    def vacuum(ct, word):
        return FockVector(ct, word, {(0,) * len(word): ONE})

    @staticmethod
    def basis(ct, word, exps):
        return FockVector(ct, word, {tuple(exps): ONE})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.word != other.word:
            raise ValueError("vectors live in modules of different words")
        terms = dict(self.terms)
        for n, c in other.terms.items():
            terms[n] = terms.get(n, ZERO) + c
        return FockVector(self.ct, self.word, terms)

    def __sub__(self, other):
        return self + other.scale(Scalar.from_int(-1))

    def scale(self, s: Scalar):
        return FockVector(self.ct, self.word,
                          {n: c * s for n, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, FockVector) and self.word == other.word
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.word, frozenset(self.terms.items())))

    def to_json(self):
        return {"word": [i + 1 for i in self.word],
                "terms": [{"exps": list(n), "coeff": str(self.terms[n])}
                          for n in sorted(self.terms)]}

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*p%s" % (self.terms[n], list(n))
                          for n in sorted(self.terms))


def _check_height(ct, v: FockVector, height):
    bound = DEFAULT_HEIGHT if height is None else height
    for n in v.terms:
        h = ct.height(exponent_weight(ct, v.word, n, "suffix"))
        if h > bound:
            raise TruncationError(
                "term of weight height %d exceeds the bound %d" % (h, bound))
    return bound


def sl2_act(ct: CartanType, g: str, i: int, v: FockVector) -> FockVector:
    """Action of the generator g in {a, b, c, d} of the rank-1 module at
    index i on a single-factor vector."""
    if len(v.word) != 1:
        raise ValueError("sl2_act expects a single-factor vector")
    terms = {}
    for (n,), c in v.terms.items():
        coeff, n2 = _leg_act(ct, g, i, n)
        if coeff is not None:
            key = (n2,)
            terms[key] = terms.get(key, ZERO) + c * coeff
    return FockVector(ct, v.word, terms)


def _leg_act(ct, g, i, n):
    """(coefficient, new exponent) of g in {a,b,c,d} on p_i(n); the
    coefficient is None when the result is zero."""
    d = ct.qi(i)
    if g == "a":
        if n == 0:
            return None, None
        return ONE - Scalar.q_power(2 * n * d), n - 1
    if g == "b":
        return Scalar.q_power(n * d), n
    if g == "c":
        return -Scalar.q_power((n + 1) * d), n
    if g == "d":
        return ONE, n + 1
    raise ValueError("unknown generator %r" % g)


def leg_act(ct, g, r, v: FockVector) -> FockVector:
    """Action of g in {a,b,c,d} on the r-th tensor slot (0-based) of v,
    through the rank-1 rules at index word[r]."""
    i = v.word[r]
    terms = {}
    for n, c in v.terms.items():
        coeff, nr2 = _leg_act(ct, g, i, n[r])
        if coeff is not None:
            key = n[:r] + (nr2,) + n[r + 1:]
            terms[key] = terms.get(key, ZERO) + c * coeff
    return FockVector(ct, v.word, terms)


def _koy_block(ct, from_word, to_word, gamma, d_reading):
    """Rows {n: {n': a_{nn'} d_j(n) / d_i(n')}} of the basis change at
    weight gamma, kept in the PBW block store per reading."""
    def build():
        out = {}
        for n, row in transition_matrix(ct, "ehat", from_word, to_word,
                                        gamma).items():
            dn = d_word_const(ct, from_word, n, d_reading)
            out[n] = {n2: a * dn * d_word_inverse(ct, to_word, n2,
                                                  d_reading)
                      for n2, a in row.items()}
        return out
    return stored_block(("koy", ct.name, from_word, to_word, gamma,
                         d_reading), build)


def koy_transform(ct: CartanType, from_word, to_word, v: FockVector,
                  d_reading: str = "qi", height=None) -> FockVector:
    """Express v (living on from_word) in the basis along to_word:

        p_j(n) = sum_{n'} a_{n'} (d_j(n) / d_i(n')) p_i(n'),

    where the a_{n'} come from the hat-family transition matrix."""
    from_word, to_word = tuple(from_word), tuple(to_word)
    if v.word != from_word:
        raise ValueError("vector does not live on the source word")
    _check_height(ct, v, height)
    if from_word == to_word:
        return v
    terms = {}
    for n, c in v.terms.items():
        gamma = exponent_weight(ct, from_word, n, "prefix")
        rows = _koy_block(ct, from_word, to_word, gamma, d_reading)
        for n2, a in rows[n].items():
            coeff = c * a
            if n2 in terms:
                terms[n2] = terms[n2] + coeff
            else:
                terms[n2] = coeff
    return FockVector(ct, to_word, terms)


def sigma_scalar(ct: CartanType, lam, v: FockVector) -> FockVector:
    """Action of the grading operator attached to lambda in P: the
    weight-gamma component is multiplied by q^{-(lambda, gamma)}."""
    terms = {}
    for n, c in v.terms.items():
        gamma = exponent_weight(ct, v.word, n, "suffix")
        pairing = ct.pair_pq(lam, gamma)
        if pairing.denominator != 1:
            raise ValueError("non-integral pairing %s" % pairing)
        terms[n] = c * Scalar.q_power(-int(pairing))
    return FockVector(ct, v.word, terms)


def conj1_operator(ct: CartanType, word, i: int, v: FockVector,
                   d_reading: str = "qi", height=None) -> FockVector:
    """The transported right-e_i operator on the module along the word:

        p_i(n) -> sum_{n'} c_{nn'} (d(n) / d(n')) p_i(n'),

    with c_{nn'} the structure constants of right e_i-multiplication in the
    hat basis.  Raises TruncationError if the image leaves the bound."""
    word = tuple(word)
    if v.word != word:
        raise ValueError("vector does not live on the word")
    bound = _check_height(ct, v, height)
    terms = {}
    for n, c in v.terms.items():
        gamma = exponent_weight(ct, word, n, "prefix")
        consts = emul_constants(ct, word, i, gamma)
        dn = d_word_const(ct, word, n, d_reading)
        for (n0, n2), cc in consts.items():
            if n0 != n:
                continue
            coeff = c * cc * dn * d_word_inverse(ct, word, n2, d_reading)
            if n2 in terms:
                terms[n2] = terms[n2] + coeff
            else:
                terms[n2] = coeff
    out = FockVector(ct, word, terms)
    _check_height(ct, out, bound)
    return out
