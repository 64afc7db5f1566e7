"""PBW-type monomial bases and transition matrices between them.

For a reduced word i = (i_1, ..., i_m) the six monomial families are built
from the root vectors of the braid module with the following pinned
conventions (divided vs. plain powers, descending vs. ascending order):

    edot^(n) = edot_m^(n_m) ... edot_1^(n_1)      divided, descending
    fdot^n   = fdot_m^n_m   ... fdot_1^n_1        plain,   descending
    ehat^(n) = ehat_m^(n_m) ... ehat_1^(n_1)      divided, descending
    fhat^n   = fhat_m^n_m   ... fhat_1^n_1        plain,   descending
    etilde^n = etilde_1^n_1 ... etilde_m^n_m      plain,   ascending
    ftilde^(n) = ftilde_1^(n_1) ... ftilde_m^(n_m) divided, ascending

The index n has weight sum n_r beta_r, where beta_r is the r-th prefix root
for the dot/hat families and the r-th suffix root for the tilde families.

The ehat/fhat pair is tau-orthogonal:

    tau(ehat^(n), fhat^(n')) = delta_{nn'} prod_r c_{q_{i_r}}(n_r) / [n_r]!

(the pairing of equal plain powers is prod_r c_{q_{i_r}}(n_r)), so hat
coordinates are a single division and all transitions are routed through
them; other families are expressed in hat coordinates and inverted per
weight block by the exact Gauss-Jordan elimination of qpbw.linalg.

tau is bilinear, so pbw_coords pairs x with its weight block through x's
dual vector, over Z[q, q^-1].  With tau(e_E, f_F) = N(E, F) / D_gamma
(pairing.Pairing.numerator, uqcore.qdiff_product), x's coefficients
over one denominator, c_E = a_E / den_x, and each dual hat monomial over
its own, fhat^n = sum_F b_F / den_y f_F, the coordinate at n is

    tau(x, fhat^n) / hat_norm(n)
        = (sum_F w[F] b_F) / (den_x den_y D_gamma hat_norm(n)),
    w[F] = sum_E a_E N(E, F),

where w and the sum are integer exponent maps.  The store keeps, per
weight block, each dual hat monomial as its numerators b_F indexed by the
position of F in words_of_weight(gamma), with the Scalar factor
1/(den_y D_gamma hat_norm(n)); w[F] is filled on first use, so x meets each
word of the block once, and each coordinate costs one Scalar reduction
(scalars.laurent_product).  The f side swaps the roles of E and F.  This
needs the dual hat monomials to be pure f-words (resp. e-words) without a
k-part, which the store checks once per block.

Weight blocks are kept in one process-wide store: the integral dual hat
monomials that pbw_coords pairs against, the rows of each transition block
and each block of e_i structure constants are computed on first request
and shared by every later one for the life of the process.  The fock layer
keeps its blocks here too: the module basis-change blocks, and per (type,
word) the u-basis straightening table from which both readings read the
basis change and the ladder operator (the q reading rescales the qi
entries by d-ratios as it applies them, and stores nothing of its own).
Stored blocks are returned as they
are, so callers must not mutate them; clear_store() drops them all, the
tables included.
"""

from __future__ import annotations

from functools import lru_cache

from .braid import E_FAMILIES, FAMILIES, FAMILY_ALIASES, root_vector_power
from .linalg import solve_linear
from .pairing import Pairing, words_of_weight
from .rootdata import (CartanType, exponent_weight, prefix_roots,
                       suffix_roots)
from .scalars import Scalar, _pmul_into, common_denominator, laurent_product
from .uqcore import UElement, _fword_weight, qdiff_product


def normalize_family(family: str) -> str:
    family = FAMILY_ALIASES.get(family, family)
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    return family


def family_roots(ct: CartanType, family: str, word):
    """Weight of the r-th index slot, for r = 1..m."""
    if normalize_family(family) in ("etilde", "ftilde"):
        return suffix_roots(ct, word)
    return prefix_roots(ct, word)


def pbw_monomial(ct: CartanType, family: str, word, n) -> UElement:
    """The PBW monomial of the family with exponent vector n."""
    family = normalize_family(family)
    word = tuple(word)
    if len(n) != len(word):
        raise ValueError("exponent vector length does not match the word")
    divided = family in ("edot", "ehat", "ftilde")
    ascending = family in ("etilde", "ftilde")
    order = range(1, len(word) + 1) if ascending \
        else range(len(word), 0, -1)
    x = UElement.one(ct)
    for r in order:
        if n[r - 1]:
            x = x * root_vector_power(ct, family, word, r, n[r - 1], divided)
    return x


def indices_of_weight(ct: CartanType, family: str, word, gamma):
    """All exponent vectors n >= 0 with sum n_r beta_r = gamma, sorted, as
    a new list on each call."""
    roots = family_roots(ct, normalize_family(family), word)
    return list(_exponent_vectors(ct, roots, tuple(gamma)))


@lru_cache(maxsize=None)
def _exponent_vectors(ct: CartanType, roots, gamma):
    """The sorted exponent vectors of weight gamma over the roots, as a
    tuple; enumerated once per (type, roots, weight)."""
    m = len(roots)
    out = []

    def rec(r, rem, acc):
        if r == m:
            if all(c == 0 for c in rem):
                out.append(tuple(acc))
            return
        beta = roots[r]
        # remaining slots cannot reduce coordinates below zero
        k = 0
        while all(rem[t] - k * beta[t] >= 0 for t in range(ct.rank)):
            rec(r + 1, tuple(rem[t] - k * beta[t] for t in range(ct.rank)),
                acc + [k])
            k += 1

    rec(0, gamma, [])
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _hat_norm(ct_name: str, word, n) -> Scalar:
    """tau(ehat^(n), fhat^n) = prod_r c_{q_r}(n_r) / [n_r]_{q_r}!, with
    q_r = q^{d_{i_r}}; since c_q(m) = [m]_q! q^{-m(m-1)/2} (q - q^-1)^-m,
    this is the q-power prod_r q_r^{-n_r(n_r-1)/2} over D_gamma for
    gamma = sum_r n_r alpha_{i_r}."""
    ct = CartanType(ct_name)
    gamma = [0] * ct.rank
    shift = 0
    for i, nr in zip(word, n):
        gamma[i] += nr
        shift -= ct.qi(i) * (nr * (nr - 1) // 2)
    return Scalar.q_power(shift) / qdiff_product(ct, gamma)


# -- the process-wide block store ------------------------------------------

_store = {}


def stored_block(key, build):
    """The block under key, built by build() on the first request."""
    block = _store.get(key)
    if block is None:
        block = _store[key] = build()
    return block


def clear_store():
    """Drop every stored block; later requests recompute them."""
    _store.clear()


def _dual_block(ct: CartanType, word, gamma, eside):
    """Integral dual data of the weight-gamma hat block that hat coordinates
    on the e side (eside) or f side pair against: fhat^n, respectively
    ehat^(n).

    Returns (words, duals) with words = words_of_weight(ct, gamma) and one
    (n, entries, factor) in duals per index n.  The monomial's coefficient
    at the word u is b_u / den_y with an integer exponent map b_u; entries
    lists (position of u in words, b_u), and factor is the Scalar
    1 / (den_y D_gamma hat_norm(n)).  The hat coordinate of x at n is then
    factor sum_u N(x, u) b_u, with N(x, u) the integral pairing numerator
    extended linearly in x.

    The words are paired alone, which is tau only for pure f-words (resp.
    e-words) without a k-part; a block with any other term raises
    ValueError when it is built."""
    family = "fhat" if eside else "ehat"
    word, gamma = tuple(word), tuple(gamma)

    def build():
        words = words_of_weight(ct, gamma)
        pos = {u: p for p, u in enumerate(words)}
        duals = []
        for n in indices_of_weight(ct, family, word, gamma):
            y = pbw_monomial(ct, family, word, n)
            us, cs = [], []
            for (F, kappa, E), c in y.terms.items():
                if any(kappa) or (E if eside else F):
                    raise ValueError(
                        "%s monomial %s along %s is not a combination of "
                        "pure %s-words" % (family, n, word,
                                           "f" if eside else "e"))
                us.append(pos[F if eside else E])
                cs.append(c)
            nums, inv_y = common_denominator(cs)
            duals.append((n, list(zip(us, nums)), inv_y / (
                qdiff_product(ct, gamma) * _hat_norm(ct.name, word, n))))
        return words, duals

    return stored_block(("duals", ct.name, family, word, gamma), build)


def pbw_coords(ct: CartanType, x: UElement, word, eside=True) -> dict:
    """Coordinates of x in the hat-family PBW basis along the word.

    x must be a combination of pure e-words (eside) or f-words (not eside),
    weight homogeneous.  Returns {exponent vector: Scalar}.

    The coordinate at n is tau(x, fhat^n) (resp. tau(ehat^(n), x)) over the
    hat norm, computed over Z[q, q^-1]: x's coefficients are put over one
    denominator, c_v = a_v / den_x, and x's integral dual vector
    w[u] = sum_v a_v N(v, u) is filled on first use at the words u of the
    block's monomials.  Then sum_u w[u] b_u is an exponent map, and the
    coordinate is that map times factor(n) / den_x (see _dual_block),
    made a Scalar by one reduction."""
    word = tuple(word)
    if x.is_zero():
        return {}
    gammas = set()
    xwords, coeffs = [], []
    for (F, kappa, E), c in x.terms.items():
        if any(kappa) or (F if eside else E):
            raise ValueError("element is not in the expected pure part")
        gammas.add(_fword_weight(ct, E if eside else F))
        xwords.append(E if eside else F)
        coeffs.append(c)
    if len(gammas) > 1:
        raise ValueError("element is not weight homogeneous")
    words, duals = _dual_block(ct, word, gammas.pop(), eside)
    nums, inv_x = common_denominator(coeffs)
    xdual = list(zip(xwords, nums))
    numerator = Pairing(ct).numerator
    w = {}
    out = {}
    for n, entries, factor in duals:
        val = {}
        for p, b in entries:
            wp = w.get(p)
            if wp is None:
                wp = {}
                u = words[p]
                for v, a in xdual:
                    _pmul_into(wp, a, numerator(v, u) if eside
                               else numerator(u, v))
                wp = w[p] = {e: c for e, c in wp.items() if c}
            if wp:
                _pmul_into(val, wp, b)
        val = {e: c for e, c in val.items() if c}
        if val:
            out[n] = laurent_product(val, (factor, inv_x))
    return out


def _family_columns(ct, family, word, gamma, eside):
    """Indices of the family's weight-gamma block along the word and the hat
    coordinates of its monomials, in the same order."""
    idx = indices_of_weight(ct, family, word, gamma)
    return idx, [pbw_coords(ct, pbw_monomial(ct, family, word, n), word,
                            eside=eside) for n in idx]


def _solve_in_family(idx, columns, targets):
    """Each target's coefficients in the family block, zeros dropped."""
    return [{n: c for n, c in zip(idx, sol) if not c.is_zero()}
            for sol in solve_linear(columns, targets)]


def expand_in_family(ct, x: UElement, family: str, word, eside=None) -> dict:
    """Coefficients of x in the given PBW family basis along the word."""
    family = normalize_family(family)
    if eside is None:
        eside = family in E_FAMILIES
    word = tuple(word)
    coords = pbw_coords(ct, x, word, eside=eside)
    if family == ("ehat" if eside else "fhat") or not coords:
        return coords
    gamma = exponent_weight(ct, word, next(iter(coords)), "prefix")
    return _solve_in_family(*_family_columns(ct, family, word, gamma, eside),
                            [coords])[0]


def transition_matrix(ct: CartanType, family: str, from_word, to_word,
                      gamma) -> dict:
    """Rows {src index n: {tgt index n': Scalar}} expressing each PBW
    monomial of the family along from_word in the same family along
    to_word, at weight gamma.

    Each block is computed once and stored for the life of the process;
    every later call with the same arguments returns the same dict, which
    is shared and must not be mutated."""
    family = normalize_family(family)
    from_word, to_word, gamma = tuple(from_word), tuple(to_word), tuple(gamma)
    return stored_block(
        ("transition", ct.name, family, from_word, to_word, gamma),
        lambda: _transition_rows(ct, family, from_word, to_word, gamma))


def _transition_rows(ct, family, from_word, to_word, gamma):
    eside = family in E_FAMILIES
    rows = {n: pbw_coords(ct, pbw_monomial(ct, family, from_word, n),
                          to_word, eside=eside)
            for n in indices_of_weight(ct, family, from_word, gamma)}
    if family == ("ehat" if eside else "fhat") or not rows:
        return rows
    # every source row is a right-hand side of one elimination
    solved = _solve_in_family(
        *_family_columns(ct, family, to_word, gamma, eside),
        list(rows.values()))
    return dict(zip(rows, solved))


def emul_constants(ct: CartanType, word, i: int, gamma) -> dict:
    """Structure constants of right multiplication by e_i in the ehat basis:
    ehat^(n) e_i = sum_{n'} c_{n n'} ehat^(n'); returns {(n, n'): Scalar}
    over source indices n of weight gamma (targets have weight
    gamma + alpha_i).  Stored like transition_matrix: shared, not to be
    mutated."""
    word, gamma = tuple(word), tuple(gamma)
    return stored_block(("emul", ct.name, word, i, gamma),
                        lambda: _emul_block(ct, word, i, gamma))


def _emul_block(ct, word, i, gamma):
    out = {}
    for n in indices_of_weight(ct, "ehat", word, gamma):
        prod = pbw_monomial(ct, "ehat", word, n) * UElement.e(ct, i)
        for n2, c in pbw_coords(ct, prod, word, eside=True).items():
            out[(n, n2)] = c
    return out
