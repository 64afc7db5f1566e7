"""Lusztig braid-group operators and the six root-vector families.

Two normalizations of the braid operators act as algebra automorphisms:

    Tdot_i(e_i) = -f_i k_i          That_i(e_i) = -f_i k_i^{-1}
    Tdot_i(f_i) = -k_i^{-1} e_i     That_i(f_i) = -k_i e_i
    Tdot_i(e_j) = sum_{r=0}^{-a_ij} (-1)^r q_i^{-r} e_i^{(-a_ij-r)} e_j e_i^{(r)}
    That_i(e_j) = sum_{r=0}^{-a_ij} (-1)^r q_i^{r}  e_i^{(-a_ij-r)} e_j e_i^{(r)}
    Tdot_i(f_j) = sum_{r=0}^{-a_ij} (-1)^{-a_ij-r} q_i^{-a_ij-r}
                                    f_i^{(-a_ij-r)} f_j f_i^{(r)}
    That_i(f_j) = sum_{r=0}^{-a_ij} (-1)^{-a_ij-r} q_i^{-(-a_ij-r)}
                                    f_i^{(-a_ij-r)} f_j f_i^{(r)}
    both send k_gamma -> k_{s_i gamma}.

Inverses come from the ring involution a (q -> q^{-1}, k -> k^{-1},
e_i -> -k_i^{-1} e_i, f_i -> -f_i k_i), which satisfies a Tdot_i a =
Tdot_i^{-1}, and from That_w = S^{-1} Tdot_w S, whence That_i^{-1} =
S^{-1} Tdot_i^{-1} S.  The generator images of each inverse are tabulated
once per type and validated by a round trip modulo the Serre ideal.

Root-vector families for a reduced word i = (i_1, ..., i_m):

    edot_r = Tdot_{i_1} ... Tdot_{i_{r-1}} (e_{i_r})     (fdot likewise)
    ehat_r = That_{i_1} ... That_{i_{r-1}} (e_{i_r})     (fhat likewise)
    etilde_r = Tdot_{i_m}^{-1} ... Tdot_{i_{r+1}}^{-1} (e_{i_r})
    ftilde_r = Tdot_{i_m}^{-1} ... Tdot_{i_{r+1}}^{-1} (f_{i_r})

Each lies in U^+ (resp. U^-) modulo the Serre ideal; after every braid step
the representative is projected back onto pure e-words, which is exact
modulo Serre because the triangular normal form splits the Serre ideal
into its one-sided components.

Only the e-side chains are run, and only the part of each step that
survives that projection is computed.  Right multiplication in the normal
form never shortens the f-word of a term, so a term that has picked up an
f-letter inside a product of generator images still has one when the
product is done and is dropped by the projection; it is dropped as soon as
it appears (plus=True on the operators, uqcore.int_mul with plus).  Terms
with a k-part but no f-letter are kept until the step ends, because a
later commutator can move their k-part back to zero.

The f-side families come from the e-side ones through the Q(q)-linear
anti-involution psi (e_i <-> f_i, k fixed; UElement.psi).  On the
generator images psi(That_i(x)) = Tdot_i(psi(x)) and psi(That_i^{-1}(x)) =
Tdot_i^{-1}(psi(x)) hold term for term, and psi swaps the two projections,
so

    fdot_r = psi(ehat_r),    fhat_r = psi(edot_r),
    ftilde_r = psi(That_{i_m}^{-1} ... That_{i_{r+1}}^{-1} (e_{i_r}))

with the same representatives the f-side chains would produce.  On pure
words psi reverses the word and swaps e and f.

The hat chains are not run either.  The bar involution (q -> q^{-1},
k -> k^{-1}, e_i and f_i fixed) is a ring automorphism that fixes the
normal-form commutator, and every That_i generator image above is the bar
image of the Tdot_i image, so That_i = bar Tdot_i bar; the same holds for
the inverses, and bar commutes with the projection onto pure e-words.
Hence

    ehat_r = bar(edot_r),    ftilde_r = psi(bar(etilde_r)),

term for term on the projected representatives (Lusztig, Introduction to
Quantum Groups, ch. 37, states the relation for T'').  On pure e-words bar
acts on the coefficients alone (Scalar.bar).

Operator images are computed over Z[q, q^-1], for both values of plus.
The operators preserve the Z[q, q^-1]-form of U, and in the basis
ê_j = (q_j - q_j^{-1}) e_j the commutator ê_j f_j - f_j ê_j = k_j - k_j^{-1}
is integral (uqcore.int_mul).  Each generator image is stored once as
integer numerators in the ê basis times one Scalar factor; a monomial
image is the integer product of those numerators, its factor the product
of theirs, and with plus the product keeps only its f-free terms.  T(x)
for x = sum_m c_m m puts the c_m factor(m) over one denominator L, sums
the integer numerators, and makes each output coefficient with one Scalar
reduction by 1/L times the ê -> e factor D_{wt E} of its e-word
(uqcore.qdiff_product), folded into 1/L once per weight; with plus the
result is then projected onto U^+.  The terms come out in the order of the
Scalar products, so a failing check names the same witness.  A chain step
hands the next one Scalar coefficients, not integer numerators: carried in
integral form from step to step, the numerators of a chain grow.
"""

from __future__ import annotations

from .rootdata import CartanType
from .scalars import ONE, Scalar, common_denominator, laurent_product
from .uqcore import (UElement, _add_int_term, _fword_weight,
                     _trusted, divided_e_power, divided_f_power, int_mul,
                     qdiff_product)

E_FAMILIES = ("edot", "ehat", "etilde")
F_FAMILIES = ("fdot", "fhat", "ftilde")
FAMILIES = E_FAMILIES + F_FAMILIES
# external names (side suffix) for the six families
FAMILY_ALIASES = {
    "dot_e": "edot", "hat_e": "ehat", "tilde_e": "etilde",
    "dot_f": "fdot", "hat_f": "fhat", "tilde_f": "ftilde",
}


def _rank2_sum(ct, i, j, kind, side):
    """The j != i generator image as a UElement."""
    n = -ct.a[i][j]
    di = ct.qi(i)
    total = UElement.zero(ct)
    for r in range(n + 1):
        if side == "e":
            term = divided_e_power(ct, i, n - r) * UElement.e(ct, j) \
                * divided_e_power(ct, i, r)
            sign = (-1) ** r
            qexp = (-r if kind == "dot" else r) * di
        else:
            term = divided_f_power(ct, i, n - r) * UElement.f(ct, j) \
                * divided_f_power(ct, i, r)
            sign = (-1) ** (n - r)
            qexp = ((n - r) if kind == "dot" else -(n - r)) * di
        total = total + term.scale(Scalar.q_power(qexp)
                                   * Scalar.from_int(sign))
    return total


_tables = {}


def _gen_table(ct: CartanType, kind: str):
    """Generator images {('e'|'f', j): UElement} for one operator kind,
    kind in {dot, hat, dot_inv, hat_inv} x index i."""
    key = (ct.name, kind)
    tab = _tables.get(key)
    if tab is not None:
        return tab
    tab = {}
    for i in range(ct.rank):
        for j in range(ct.rank):
            for side in ("e", "f"):
                tab[(i, side, j)] = _gen_image(ct, kind, i, side, j)
    _tables[key] = tab
    return tab


def _gen_image(ct, kind, i, side, j):
    if kind == "dot":
        if j == i:
            if side == "e":
                return -(UElement.f(ct, i) * UElement.k_i(ct, i))
            return -(UElement.k_i(ct, i, -1) * UElement.e(ct, i))
        return _rank2_sum(ct, i, j, "dot", side)
    if kind == "hat":
        if j == i:
            if side == "e":
                return -(UElement.f(ct, i) * UElement.k_i(ct, i, -1))
            return -(UElement.k_i(ct, i) * UElement.e(ct, i))
        return _rank2_sum(ct, i, j, "hat", side)
    if kind == "dot_inv":
        gen = UElement.e(ct, j) if side == "e" else UElement.f(ct, j)
        return t_dot(ct, i, gen.a_involution()).a_involution()
    if kind == "hat_inv":
        gen = UElement.e(ct, j) if side == "e" else UElement.f(ct, j)
        return t_dot_inv(ct, i, gen.antipode()).antipode_inv()
    raise ValueError(kind)


# Images of monomials f_F k_kappa e_E under one operator, for the life of
# the process: {(type, kind, i, monomial, plus): (nums, factor)}, the image
# as an integral term dict in the ê basis (uqcore.int_mul) times a Scalar;
# with plus, only its f-free terms (see the module docstring).
_int_images = {}
# {(type, kind): {(i, side, j): (nums, factor)}}, the generator images of
# _gen_table in the same form
_int_tables = {}


def _int_table(ct, kind):
    """The generator images of one operator kind over one denominator each:
    (nums, factor) with nums integral in the ê basis, so that the image is
    sum_m nums[m] * factor * f_F k ê_E."""
    key = (ct.name, kind)
    tab = _int_tables.get(key)
    if tab is None:
        tab = {}
        for g, y in _gen_table(ct, kind).items():
            monos = list(y.terms)
            nums, factor = common_denominator(
                [y.terms[m] / qdiff_product(ct, _fword_weight(ct, m[2]))
                 for m in monos])
            tab[g] = (dict(zip(monos, nums)), factor)
        _int_tables[key] = tab
    return tab


def _int_image(ct, kind, i, mono, plus):
    """The operator's image of one monomial as (nums, factor): the image of
    the monomial without its last letter (f-word, then k-part, then e-word)
    times the image of that letter, the factors multiplied; with plus, its
    f-free terms."""
    key = (ct.name, kind, i, mono, plus)
    y = _int_images.get(key)
    if y is not None:
        return y
    F, kappa, E = mono
    zero = ct.zero()
    if E:
        x = _int_image(ct, kind, i, (F, kappa, E[:-1]), plus)
        g = _int_table(ct, kind)[(i, "e", E[-1])]
    elif kappa != zero:
        x = _int_image(ct, kind, i, (F, zero, ()), plus)
        g = ({((), ct.reflect_q(i, kappa), ()): {0: 1}}, ONE)
    elif F:
        x = _int_image(ct, kind, i, (F[:-1], zero, ()), plus)
        g = _int_table(ct, kind)[(i, "f", F[-1])]
    else:
        y = _int_images[key] = ({mono: {0: 1}}, ONE)
        return y
    y = _int_images[key] = (int_mul(ct, x[0], g[0], plus), x[1] * g[1])
    return y


def _apply(ct, kind, i, x: UElement, plus=False) -> UElement:
    if not x.terms:
        return UElement.zero(ct)
    # sum_m c_m factor(m) nums(m) over one denominator, in integers; each
    # output coefficient is then one reduction of its numerator times
    # D_{wt E} / L, the ê -> e factor folded into 1/L first
    if len(x.terms) == 1:
        (mono, c), = x.terms.items()
        total, scale = _int_image(ct, kind, i, mono, plus)
        scale = scale * c
    else:
        images, scales = [], []
        for mono, c in x.terms.items():
            nums, factor = _int_image(ct, kind, i, mono, plus)
            images.append(nums)
            scales.append(factor * c)
        cs, scale = common_denominator(scales)
        total = {}
        for a, nums in zip(cs, images):
            for m, p in nums.items():
                _add_int_term(total, m, a, p)
        total = {m: {e: v for e, v in p.items() if v}
                 for m, p in total.items()}
    folds = {}  # D_gamma / L, one per e-word weight gamma
    out = {}
    for m, p in total.items():
        gamma = _fword_weight(ct, m[2])
        fold = folds.get(gamma)
        if fold is None:
            fold = folds[gamma] = scale * qdiff_product(ct, gamma)
        out[m] = laurent_product(p, (fold,))
    y = _trusted(UElement, ct, out)
    return project_plus(y) if plus else y


# With plus=True each operator returns project_plus of its image, computed
# without the terms that the projection drops.

def t_dot(ct, i, x, plus=False):
    return _apply(ct, "dot", i, x, plus)


def t_hat(ct, i, x, plus=False):
    return _apply(ct, "hat", i, x, plus)


def t_dot_inv(ct, i, x, plus=False):
    return _apply(ct, "dot_inv", i, x, plus)


def t_hat_inv(ct, i, x, plus=False):
    return _apply(ct, "hat_inv", i, x, plus)


def apply_word(ct, kind, word, x: UElement, inverse=False) -> UElement:
    """T_w(x) (or T_w^{-1}(x)) for w given by the word; the operator of the
    rightmost letter acts first."""
    fwd = {"dot": t_dot, "hat": t_hat}[kind]
    inv = {"dot": t_dot_inv, "hat": t_hat_inv}[kind]
    if not inverse:
        for i in reversed(word):
            x = fwd(ct, i, x)
    else:
        for i in word:
            x = inv(ct, i, x)
    return x


def project_plus(x: UElement) -> UElement:
    """Component of x in U^+ of the triangular normal form; agrees with x
    modulo the Serre ideal whenever x is known to lie in U^+."""
    zero = x.ct.zero()
    return _trusted(UElement, x.ct, {m: c for m, c in x.terms.items()
                                     if not m[0] and m[1] == zero})


_root_vectors = {}

# fdot and fhat are the psi images of these stored e-side root vectors
_PSI_PARTNERS = {"fdot": "ehat", "fhat": "edot"}
# ehat is the bar image of this stored e-side root vector, and ftilde the
# psi image of the bar image of its partner
_BAR_PARTNERS = {"ehat": "edot", "ftilde": "etilde"}


def root_vector(ct: CartanType, family: str, word, r: int) -> UElement:
    """The r-th root vector (1-based r) of the family along the word,
    represented by pure e-words (e-families) or f-words (f-families).
    Raises ValueError unless 1 <= r <= len(word)."""
    family = FAMILY_ALIASES.get(family, family)
    word = tuple(word)
    if not 1 <= r <= len(word):
        raise ValueError("root vector index %r outside 1..%d"
                         % (r, len(word)))
    key = (ct.name, family, word, r)
    v = _root_vectors.get(key)
    if v is not None:
        return v
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    if family in _PSI_PARTNERS:
        v = root_vector(ct, _PSI_PARTNERS[family], word, r).psi()
    elif family in _BAR_PARTNERS:
        v = root_vector(ct, _BAR_PARTNERS[family], word, r)
        v = _trusted(UElement, ct, {m: c.bar() for m, c in v.terms.items()})
        if family == "ftilde":
            v = v.psi()
    else:
        v = _e_chain(ct, family, word, r)
    _root_vectors[key] = v
    return v


def _e_chain(ct, chain, word, r):
    """The e-side braid chain of the r-th root vector, projected onto pure
    e-words after every step; chain is edot or etilde."""
    x = UElement.e(ct, word[r - 1])
    if chain == "edot":
        for s in range(r - 2, -1, -1):
            x = t_dot(ct, word[s], x, plus=True)
    else:
        for s in range(r, len(word)):
            x = t_dot_inv(ct, word[s], x, plus=True)
    return x
