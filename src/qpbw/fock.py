"""Specialized Soibelman modules on tensor Fock bases.

The rank-1 module has basis {p(n) : n >= 0} with generator action

    a p(n) = (1 - q_i^{2n}) p(n-1),   b p(n) = q_i^n p(n),
    c p(n) = -q_i^{n+1} p(n),         d p(n) = p(n+1),

and the module attached to a reduced word i = (i_1, ..., i_m) has basis
p_i(n) = p_{i_1}(n_1) x ... x p_{i_m}(n_m).  A vector is graded by
gamma(n) = sum_r n_r beta_r with beta_r the r-th suffix root (rootdata's
exponent_weight with roots="suffix"), and the sigma-operators act on the
weight-gamma component by q^{-(lambda, gamma)}.

The basis-change map between the modules of two reduced words is the
transition matrix of the hat PBW family conjugated by the normalizing
constants d(n), and the transported right-e_i operator is right
multiplication by e_i in the same basis.  The substitution performed inside
d(n) (plain q versus q_i) is selectable; see D_READINGS.

Both are read off one straightening table per (type, word) in the module
basis u_n = d(n) ehat^(n) of the qi reading (see _UTable): its slot factors
are plain powers, so every product is an integer exponent map found without
division, and each entry becomes a Scalar once.  The readings differ only
in d(n), so the q reading is the qi one conjugated by the diagonal map
p(n) -> rho(n) p(n), rho(n) = d^q(n) / d^qi(n) (1 on simply-laced types):
the input is scaled by rho along the source word, the qi rows are applied
and the output is divided by rho along the target word (see _apply_rows).
The q reading is the refuted control; its entries are not Laurent
polynomials.
"""

from __future__ import annotations

from .braid import root_vector
# emul_constants, transition_matrix: uncalled, kept for perfbench's tracer
from .pbw import (emul_constants, indices_of_weight, pbw_coords,
                  stored_block, transition_matrix)
from .rootdata import CartanType, exponent_weight, prefix_roots
from .scalars import (ONE, ZERO, Scalar, _laurent, _pmul_into, d_const,
                      laurent_product, qfact)
from .uqcore import UElement

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
    """1 / d_word_const, kept next to it, so the d-ratios of the u-table's
    constants and root-vector expansions, and the rescale rho of the q
    reading, are products rather than divisions."""
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


# -- the u-basis table -----------------------------------------------------
#
# Along a word w, with d(n) = d_word_const(ct, w, n, "qi"), the module basis
# u_n = d(n) ehat^(n) has plain-power slot factors: with d_r = d_{i_r} and
# U_r = d(e_r) E_r = (1 - q^{2 d_r}) E_r,
#
#     u_n = prod_{r descending} q^{d_r n_r (n_r - 1)/2} U_r^{n_r},
#
# so u_n = q^{d_s (n_s - 1)} u_{n - e_s} U_s for any occupied slot s that
# is lowest, and u_m = q^{d_t (m_t - 1)} u_{m - e_t} U_t likewise.  The koy
# block from a word v to w is the matrix of u^v_n in the u-basis along w,
# and u_n e_i = u_n U_{r_i} / (1 - q_i^2) gives conj1.  Every product below
# is a combination of u-monomials whose coefficients are integer exponent
# maps (Laurent polynomials), found without any division.


def _add_product(acc, n, p1, p2):
    """acc[n] += p1 * p2 for exponent maps; zero coefficients may remain."""
    dest = acc.get(n)
    if dest is None:
        dest = acc[n] = {}
    _pmul_into(dest, p1, p2)


def _shifted(acc, shift):
    """q^shift * acc, with zero coefficients and zero entries dropped."""
    out = {}
    for n, p in acc.items():
        p = {e + shift: v for e, v in p.items() if v}
        if p:
            out[n] = p
    return out


def _laurent_map(s: Scalar):
    """The exponent map of s if s is a Laurent polynomial, else None."""
    if len(s.den) != 1:
        return None
    (k, c), = s.den.items()
    if c != 1:
        return None
    return {e - k: v for e, v in s.num.items()}


def _bump(n, r, by):
    return n[:r] + (n[r] + by,) + n[r + 1:]


class _UTable:
    """Products in the u-basis along one word, memoized: mul, mulmono,
    the constants C^u, the expansions of another word's root vectors and
    the koy rows built from them.  Slots are 0-based."""

    def __init__(self, ct: CartanType, word):
        self.ct, self.word = ct, word
        self.d = tuple(ct.qi(i) for i in word)
        self.roots = prefix_roots(ct, word)
        self.zero = (0,) * len(word)
        self._mul, self._mono, self._consts = {}, {}, {}
        self._expansions, self._rows, self._times_memo = {}, {}, {}
        self._ladder = {}

    def mul(self, n, r):
        """u_n U_r as {n': exponent map}.  With s the lowest occupied slot
        of n: u_{n+e_r} if r < s, q^{-d_s n_s} u_{n+e_s} if r = s, and for
        r > s the peel

            q^{d_s (n_s - 1)} [q^{-(beta_s, beta_r)} (u_{n-e_s} U_r) U_s
                               + sum_m C^u_m u_{n-e_s} u_m]."""
        key = (n, r)
        out = self._mul.get(key)
        if out is not None:
            return out
        s = next((t for t, a in enumerate(n) if a), len(n))
        if r <= s:
            out = {_bump(n, r, 1): {-self.d[r] * n[r]: 1}}
        else:
            low = _bump(n, s, -1)
            swap = -self.ct.pair_qq(self.roots[s], self.roots[r])
            acc = {}
            for n1, c1 in self.mul(low, r).items():
                for n2, c2 in self.mul(n1, s).items():
                    _add_product(acc, n2, c1,
                                 {e + swap: v for e, v in c2.items()})
            for m, c in self.constants(s, r).items():
                for n2, c2 in self.mulmono(low, m).items():
                    _add_product(acc, n2, c, c2)
            out = _shifted(acc, self.d[s] * (n[s] - 1))
        self._mul[key] = out
        return out

    def mulmono(self, n, m):
        """u_n u_m as {n': exponent map}: a chain of mul calls, peeling the
        lowest occupied slot t of m, u_m = q^{d_t (m_t - 1)} u_{m-e_t} U_t."""
        if m == self.zero:
            return {n: {0: 1}}
        key = (n, m)
        out = self._mono.get(key)
        if out is None:
            t = next(k for k, a in enumerate(m) if a)
            acc = {}
            for n1, c1 in self.mulmono(n, _bump(m, t, -1)).items():
                for n2, c2 in self.mul(n1, t).items():
                    _add_product(acc, n2, c1, c2)
            out = self._mono[key] = _shifted(acc, self.d[t] * (m[t] - 1))
        return out

    def _u_coords(self, x, dx):
        """{m: c_m dx / d(m)} for x = sum_m c_m ehat^(m) along this word,
        by pbw_coords; an entry that is not a Laurent polynomial is None."""
        ct, word = self.ct, self.word
        return {m: _laurent_map(c * dx * d_word_inverse(ct, word, m, "qi"))
                for m, c in pbw_coords(ct, x, word).items()}

    def constants(self, s, r):
        """C^u_m = C_m d(e_s) d(e_r) / d(m) for s < r, where
        E_s E_r - q^{-(beta_s, beta_r)} E_r E_s = sum_m C_m ehat^(m) at
        weight beta_s + beta_r.  Raises ValueError naming s, r and the
        monomial when some C^u_m is not a Laurent polynomial or m is not
        supported strictly between s and r."""
        key = (s, r)
        out = self._consts.get(key)
        if out is None:
            ct, word = self.ct, self.word
            es = root_vector(ct, "ehat", word, s + 1)
            er = root_vector(ct, "ehat", word, r + 1)
            swap = Scalar.q_power(-ct.pair_qq(self.roots[s], self.roots[r]))
            d_sr = (d_word_const(ct, word, _bump(self.zero, s, 1), "qi")
                    * d_word_const(ct, word, _bump(self.zero, r, 1), "qi"))
            out = self._u_coords(es * er - (er * es).scale(swap), d_sr)
            for m, p in out.items():
                if p is None or any(m[:s + 1]) or any(m[r:]):
                    raise ValueError(
                        "%s along %s: the commutation constant of slots "
                        "s=%d, r=%d at the monomial %s is %s" % (
                            ct.name, list(word), s + 1, r + 1, list(m),
                            "not a Laurent polynomial" if p is None
                            else "outside the slots strictly between them"))
            self._consts[key] = out
        return out

    def expansion(self, from_word, t):
        """U^v_t (v = from_word) in the u-basis along this word: the koy row
        of the unit exponent at t, d^v(e_t) ehat-coordinates(E^v_t) / d(m),
        at the root weight.  Raises ValueError if an entry is not Laurent."""
        key = (from_word, t)
        out = self._expansions.get(key)
        if out is None:
            ct = self.ct
            unit = tuple(int(k == t) for k in range(len(from_word)))
            out = self._u_coords(root_vector(ct, "ehat", from_word, t + 1),
                                 d_word_const(ct, from_word, unit, "qi"))
            for m, p in out.items():
                if p is None:
                    raise ValueError(
                        "%s: root vector %d along %s has a coordinate at %s "
                        "along %s that is not a Laurent polynomial" % (
                            ct.name, t + 1, list(from_word), list(m),
                            list(self.word)))
            self._expansions[key] = out
        return out

    def row(self, from_word, n):
        """u^v_n (v = from_word) in the u-basis along this word, peeling the
        lowest occupied source slot t: u^v_n = q^{d_t (n_t - 1)}
        u^v_{n-e_t} U^v_t."""
        if not any(n):
            return {self.zero: {0: 1}}
        key = (from_word, n)
        out = self._rows.get(key)
        if out is None:
            t = next(k for k, a in enumerate(n) if a)
            acc = {}
            for k, c in self.row(from_word, _bump(n, t, -1)).items():
                for n2, c2 in self._times(from_word, k, t).items():
                    _add_product(acc, n2, c, c2)
            out = self._rows[key] = _shifted(
                acc, self.ct.qi(from_word[t]) * (n[t] - 1))
        return out

    def _times(self, from_word, k, t):
        """u_k U^v_t = sum_m x_m u_k u_m over the expansion x of U^v_t."""
        key = (from_word, k, t)
        out = self._times_memo.get(key)
        if out is None:
            acc = {}
            for m, x in self.expansion(from_word, t).items():
                for n2, c in self.mulmono(k, m).items():
                    _add_product(acc, n2, x, c)
            out = self._times_memo[key] = _shifted(acc, 0)
        return out

    def ladder_row(self, n, i):
        """{n': Scalar} with u_n e_i = sum_{n'} c_{n'} u_{n'}: mul(n, r_i)
        times 1/(1 - q_i^2), r_i the slot whose prefix root is alpha_i.
        The first call for i checks that E_{r_i} is e_i and raises
        ValueError if it is not."""
        slot = self._ladder.get(i)
        if slot is None:
            ct, word = self.ct, self.word
            alpha = ct.alpha(i)
            if alpha not in self.roots:
                raise ValueError("%s: no prefix root of %s is alpha_%d"
                                 % (ct.name, list(word), i + 1))
            r = self.roots.index(alpha)
            if root_vector(ct, "ehat", word, r + 1) != UElement.e(ct, i):
                raise ValueError("%s: root vector %d along %s is not e_%d"
                                 % (ct.name, r + 1, list(word), i + 1))
            slot = self._ladder[i] = (
                r, (ONE - Scalar.q_power(2 * self.d[r])).inverse(), {})
        r, inv, rows = slot
        out = rows.get(n)
        if out is None:
            out = rows[n] = {n2: laurent_product(p, (inv,))
                             for n2, p in sorted(self.mul(n, r).items())}
        return out


def _u_table(ct: CartanType, word) -> _UTable:
    """The u-basis table along the word, kept in the PBW block store."""
    return stored_block(("u-table", ct.name, word),
                        lambda: _UTable(ct, word))


def _koy_block(ct, from_word, to_word, gamma):
    """Rows {n: {n': Scalar}} of the qi basis change at weight gamma, kept
    in the PBW block store: the rows of the u-basis table along to_word,
    each entry made a Scalar once."""
    def build():
        table = _u_table(ct, to_word)
        return {n: {n2: _laurent(p) for n2, p
                    in sorted(table.row(from_word, n).items())}
                for n in indices_of_weight(ct, "ehat", from_word, gamma)}
    return stored_block(("koy", ct.name, from_word, to_word, gamma), build)


def _rescale(ct, word, terms, d_reading, back=False):
    """{n: c rho(n)} for terms {n: c} along the word, {n: c / rho(n)} if
    back, where rho(n) = d(n) / d^qi(n) with d(n) under the reading: the
    identity under the qi reading."""
    if d_reading == "qi":
        return terms
    out = {}
    for n, c in terms.items():
        d, inv = _d_word(ct, word, n, d_reading)
        d_qi, inv_qi = _d_word(ct, word, n, "qi")
        out[n] = c * (inv * d_qi if back else d * inv_qi)
    return out


def _apply_rows(ct, src, dst, v: FockVector, rows, d_reading):
    """sum_n c_n rows(n) for v = sum_n c_n p(n) along src, with rows(n) the
    qi row {n': Scalar} along dst, conjugated into the reading: v scaled
    by rho along src before, the image divided by rho along dst after."""
    terms = {}
    for n, c in _rescale(ct, src, v.terms, d_reading).items():
        for n2, a in rows(n).items():
            coeff = c * a
            if n2 in terms:
                terms[n2] = terms[n2] + coeff
            else:
                terms[n2] = coeff
    return FockVector(ct, dst, _rescale(ct, dst, terms, d_reading, True))


def koy_transform(ct: CartanType, from_word, to_word, v: FockVector,
                  d_reading: str = "qi", height=None) -> FockVector:
    """Express v (living on from_word) in the basis along to_word:

        p_j(n) = sum_{n'} a_{nn'} (d_j(n) / d_i(n')) p_i(n'),

    where the a_{nn'} come from the hat-family transition matrix.  The qi
    entries are the rows of the u-basis table along to_word; the q reading
    conjugates them by rho = d^q / d^qi (see _apply_rows)."""
    from_word, to_word = tuple(from_word), tuple(to_word)
    if v.word != from_word:
        raise ValueError("vector does not live on the source word")
    _check_height(ct, v, height)
    if from_word == to_word:
        return v

    def rows(n):
        gamma = exponent_weight(ct, from_word, n, "prefix")
        return _koy_block(ct, from_word, to_word, gamma)[n]
    return _apply_rows(ct, from_word, to_word, v, rows, d_reading)


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
    hat basis.  The qi entries are the ladder rows of the u-basis table;
    the q reading conjugates them by rho = d^q / d^qi (see _apply_rows).
    Raises TruncationError if the image leaves the bound."""
    word = tuple(word)
    if v.word != word:
        raise ValueError("vector does not live on the word")
    bound = _check_height(ct, v, height)
    table = _u_table(ct, word)
    out = _apply_rows(ct, word, word, v, lambda n: table.ladder_row(n, i),
                      d_reading)
    _check_height(ct, out, bound)
    return out
