"""The Drinfeld pairing tau : U^{>=0} x U^{<=0} -> F and equality oracles.

tau is the unique bilinear pairing with

    (tau x tau)(Delta(x), y2 x y1) = tau(x, y1 y2)
    (tau x tau)(x1 x x2, Delta(y)) = tau(x1 x2, y)
    tau(e_i, k_lam) = tau(k_lam, f_i) = 0
    tau(k_lam, k_mu) = q^{(lam,mu)}
    tau(e_i, f_j)   = delta_ij / (q_i - q_i^{-1}).

On pure words it satisfies, peeling the last e-letter,

    tau(e_{E'} e_j, f_F) =
        sum over positions p with F_p = j of
        q^{-(alpha_j, wt F[p+1:])} / (q_j - q_j^{-1})
        * tau(e_{E'}, f_{F without p}),

which is the second axiom with the single-f component of Delta(f_F) made
explicit.  The radical of tau is exactly the Serre ideal, so tau doubles as
the equality oracle modulo the quantum Serre relations.

The same recursion without the 1/(q_j - q_j^{-1}) factors gives the
integral numerators (Lusztig's integral form of the pairing):

    tau(e_E, f_F) = N(E, F) / D_beta,   N(E, F) in Z[q, q^{-1}],
    D_beta = prod_j (q_j - q_j^{-1})^{m_j}   for beta = sum_j m_j alpha_j,

with N(E, F) = N(F, E).  Pairing.numerator keeps N as integer exponent
maps, one per unordered word pair; D_beta is uqcore.qdiff_product.  Every
value of tau comes from them: tau_words is one reduction of N(E, F) by
1/D_beta, kept per ordered pair, and pbw computes hat coordinates from N
directly.
"""

from __future__ import annotations

from .rootdata import CartanType
from .scalars import ONE, ZERO, Scalar, laurent_product
from .uqcore import UElement, _fword_weight, qdiff_product


_ONE_MAP = {0: 1}


class Pairing:
    """Memoized Drinfeld pairing for one Cartan type."""

    _instances = {}

    def __new__(cls, ct: CartanType):
        obj = cls._instances.get(ct.name)
        if obj is None:
            obj = super().__new__(cls)
            obj.ct = ct
            obj._memo = {}
            obj._numerators = {}
            cls._instances[ct.name] = obj
        return obj

    def tau_words(self, eword, fword) -> Scalar:
        """tau(e_{eword}, f_{fword}) = N(eword, fword) / D_beta on pure
        words, memoized per ordered pair."""
        ct = self.ct
        beta = _fword_weight(ct, eword)
        if beta != _fword_weight(ct, fword):
            return ZERO
        if not eword:
            return ONE
        key = (eword, fword)
        val = self._memo.get(key)
        if val is None:
            num = self.numerator(eword, fword)
            val = laurent_product(num, (qdiff_product(ct, beta).inverse(),)) \
                if num else ZERO
            self._memo[key] = val
        return val

    def numerator(self, eword, fword) -> dict:
        """N(E, F) = tau(e_E, f_F) D_beta for words (tuples) of one weight
        beta, as an exponent map over Z[q, q^-1]; {} when the weights
        differ.  It is computed by the recursion of the module docstring
        without its 1/(q_j - q_j^-1) factors, and since N(E, F) = N(F, E)
        each unordered pair is computed and kept once.  The returned maps
        are shared and must not be mutated."""
        if not eword:
            return {} if fword else _ONE_MAP
        key = (eword, fword) if eword <= fword else (fword, eword)
        val = self._numerators.get(key)
        if val is not None:
            return val
        j = eword[-1]
        head = eword[:-1]
        row = self.ct.form[j]
        shift = -sum(row[letter] for letter in fword)
        total = {}
        for p, letter in enumerate(fword):
            shift += row[letter]
            if letter != j:
                continue
            for e, v in self.numerator(head,
                                       fword[:p] + fword[p + 1:]).items():
                e += shift
                total[e] = total.get(e, 0) + v
        val = self._numerators[key] = {e: v for e, v in total.items() if v}
        return val

    def tau(self, x: UElement, y: UElement) -> Scalar:
        """Bilinear extension; x must lie in U^{>=0}, y in U^{<=0}."""
        ct = self.ct
        total = ZERO
        for (Fx, kap, E), cx in x.terms.items():
            if Fx:
                raise ValueError("left pairing argument has an f-part")
            for (F, mu, Ey), cy in y.terms.items():
                if Ey:
                    raise ValueError("right pairing argument has an e-part")
                base = self.tau_words(E, F)
                if base.is_zero():
                    continue
                shift = ct.pair_qq(mu, _fword_weight(ct, F)) \
                    + ct.pair_qq(kap, mu)
                total = total + base * cx * cy * Scalar.q_power(shift)
        return total


def words_of_weight(ct: CartanType, gamma):
    """All words in the alphabet I with content gamma, sorted: the distinct
    orderings of the multiset, generated in lexicographic order at
    O(height) per word."""
    left = list(gamma)
    if any(m < 0 for m in left):
        raise ValueError("weight must be a nonnegative root-lattice sum")
    out = []

    def rec(prefix, remaining):
        if not remaining:
            out.append(prefix)
            return
        for i, m in enumerate(left):
            if m:
                left[i] -= 1
                rec(prefix + (i,), remaining - 1)
                left[i] += 1

    rec((), sum(left))
    return out


def canonical_coords(x: UElement) -> dict:
    """Coordinates of x against dual word functionals, separating the
    triangular factors.  Two elements of U are equal modulo the two-sided
    Serre ideal iff their canonical coordinates agree (the pairing radical
    on each factor is the corresponding one-sided Serre ideal)."""
    ct = x.ct
    pr = Pairing(ct)
    out = {}
    for (F, kap, E), c in x.terms.items():
        fw = _fword_weight(ct, F)
        ew = _fword_weight(ct, E)
        for A in words_of_weight(ct, fw):
            cf = pr.tau_words(A, F)
            if cf.is_zero():
                continue
            for B in words_of_weight(ct, ew):
                ce = pr.tau_words(E, B)
                if ce.is_zero():
                    continue
                key = (A, kap, B)
                cur = out.get(key, ZERO) + c * cf * ce
                if cur.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = cur
    return out


def eq_mod_serre(x: UElement, y: UElement) -> bool:
    """Equality in U_q(g) proper (i.e. modulo the quantum Serre relations)."""
    return canonical_coords(x - y) == {}
