"""Finite-dimensional lowest-weight modules, their matrix coefficients,
and the independent oracle for the module basis-change identities.

V(lambda) for antidominant lambda is built as the quotient of the
lowest-weight Verma module (basis: e-words applied to the lowest vector
v with f_i v = 0) by the radical of the contravariant form

    <x v, y v> = chi_lambda-evaluation of b(x) y at the lowest vector,

where b is the anti-involution e_i <-> f_i.  The form is symmetric,
because b fixes U^0, so each candidate word needs only its column of form
values.  A basis of e-words is chosen weight by weight from the lowest
weight up, greedily in word order.  Since V_gamma = sum_i e_i
V_{gamma - alpha_i}, the only words tested at gamma are the words
(i,) + w whose tail w was chosen at gamma - alpha_i, not every ordering of
gamma's letters.  When (i,) + w is itself selected, the e_i column of w is
a unit vector.  The generator matrices are checked against all defining
relations (including both Serre families) on construction, on sparse
columns, so the check costs by nonzero entries; the k-relations are
integer weight tests.  A module of dimension 64 builds in 0.2-0.9 s on a
shared 2-vCPU x86-64 machine.

A matrix coefficient Phi_{s,t} acts on a tensor Fock vector along a
reduced word i via the iterated coproduct

    Delta_{m-1}(Phi_{s,t}) = sum Phi_{s,j_1} x Phi_{j_1,j_2} x ... x
                             Phi_{j_{m-1},t},

with the r-th tensor leg restricted to the subalgebra generated by
e_{i_r}, f_{i_r}, k_{i_r}^{+-1}.  The restricted leg is rewritten as a
polynomial in the four rank-1 matrix coefficients a, b, c, d (those of
the 2-dimensional module, embedded through copies of it for longer
strings).  Each letter maps a slot vector p_i(k) to a multiple of one
p_i(k'), so a leg is a matrix on the slot exponent, k -> {k': Scalar},
read once off the rank-1 Fock rules and memoized per module.  A whole row
Phi_{s,0}, ..., Phi_{s,dim-1} is applied at once, slot by slot: after
slot r one term dict per intermediate index j_r is kept, so a row costs at
most m dim^2 leg applications instead of dim^{m-1} paths per coefficient.
The oracle takes the basis change of each basis vector once and applies
the rows of every module to it.
"""

from __future__ import annotations

from functools import lru_cache

from .fock import FockVector, _leg_act, koy_transform
from .pairing import words_of_weight
from .linalg import kernel, solve_linear
from .pbw import indices_of_weight
from .rootdata import CartanType, weights_of_height, weyl_dimension
from .scalars import ONE, ZERO, Scalar, qdiff_inverse, qfact, qint


# -- small exact matrices (lists of rows of Scalar) -------------------------

def _zeros(nrow, ncol):
    return [[ZERO] * ncol for _ in range(nrow)]


def _dot(a, b):
    total = ZERO
    for x, y in zip(a, b):
        if not (x.is_zero() or y.is_zero()):
            total = total + x * y
    return total


def _columns(m):
    """The dense square matrix m as sparse columns [{row: nonzero Scalar}]."""
    n = len(m)
    return [{r: m[r][c] for r in range(n) if not m[r][c].is_zero()}
            for c in range(n)]


def _apply(cols, vec: dict) -> dict:
    """The sparse matrix cols applied to the sparse vector vec, at a cost
    of one product per pair of nonzero entries; zeros are dropped."""
    out = {}
    for k, c in vec.items():
        for r, x in cols[k].items():
            out[r] = out[r] + c * x if r in out else c * x
    return {r: x for r, x in out.items() if not x.is_zero()}


def _mat_inverse(a):
    """Inverse of the square matrix a: its columns solved against the unit
    vectors, so column t of the result is the solution for e_t."""
    n = len(a)
    sol = solve_linear(_columns(a), [{t: ONE} for t in range(n)])
    return [[sol[t][r] for t in range(n)] for r in range(n)]


# -- lowest-weight Verma vectors (dict e-word -> Scalar) --------------------

def _verma_f(ct: CartanType, lam, i, vec: dict) -> dict:
    """Action of f_i on a combination of e-words applied to the lowest
    vector of weight lam (f_i annihilates the lowest vector)."""
    out = {}
    for word, c in vec.items():
        for w2, c2 in _verma_f_word(ct, tuple(lam), i, word).items():
            out[w2] = out.get(w2, ZERO) + c * c2
    return {w: c for w, c in out.items() if not c.is_zero()}


@lru_cache(maxsize=None)
def _verma_f_word(ct: CartanType, lam, i, word) -> dict:
    if not word:
        return {}
    j, rest = word[0], word[1:]
    out = {}
    for w2, c in _verma_f_word(ct, lam, i, rest).items():
        out[(j,) + w2] = c
    if j == i:
        # f_i e_i = e_i f_i - (k_i - k_i^{-1}) / (q_i - q_i^{-1})
        coeff = _commutator_coeff(_pair_weight_alpha(ct, lam, rest, i),
                                  ct.qi(i))
        if not coeff.is_zero():
            out[rest] = out.get(rest, ZERO) + coeff
    return {w: c for w, c in out.items() if not c.is_zero()}


@lru_cache(maxsize=None)
def _commutator_coeff(e, d) -> Scalar:
    """(q^-e - q^e) / (q^d - q^-d): the f_i e_i commutator term
    -(k_i - k_i^{-1}) / (q_i - q_i^{-1}) where k_i acts by q^e and
    q_i = q^d."""
    return (Scalar.q_power(-e) - Scalar.q_power(e)) * qdiff_inverse(d)


def _pair_weight_alpha(ct: CartanType, lam, eword, i) -> int:
    """(lam + wt(eword), alpha_i) as an integer exponent of q."""
    row = ct.form[i]
    val = ct.pair_pq(lam, ct.alpha(i)) + sum(row[j] for j in eword)
    if val.denominator != 1:
        raise ValueError("non-integral pairing")
    return int(val)


# (ct.name, lam) -> {(xword, yword): <x v, y v>} for the LWModule build in
# progress; dropped when the build ends, because keeping the sub-forms of
# every module for the life of the process costs about 10% peak RSS.
_SUB_FORMS = {}


@lru_cache(maxsize=None)
def _form_words(ct: CartanType, lam, xword, yword) -> Scalar:
    """Contravariant form <x v, y v> of two e-words at lowest weight lam."""
    memo = _SUB_FORMS.get((ct.name, lam))
    return _sub_form(ct, lam, xword, yword, {} if memo is None else memo)


def _sub_form(ct: CartanType, lam, xword, yword, memo) -> Scalar:
    """<x v, y v> by recursion on the first letter of x:

        <x v, y v> = sum_{y'} [f_{x_1} e_y v : y'] <x[1:] v, y' v>.
    """
    if not xword:
        return ZERO if yword else ONE
    key = (xword, yword)
    val = memo.get(key)
    if val is None:
        val = ZERO
        rest = xword[1:]
        for w2, c in _verma_f_word(ct, lam, xword[0], yword).items():
            sub = _sub_form(ct, lam, rest, w2, memo)
            if not sub.is_zero():
                val = val + c * sub
        memo[key] = val
    return val


class LWModule:
    """The simple module of antidominant lowest weight lam, with exact
    generator matrices (column = input basis index)."""

    MAX_DIM = 64

    def __init__(self, ct: CartanType, lam):
        lam = tuple(lam)
        if len(lam) != ct.rank or not all(isinstance(c, int) for c in lam):
            raise ValueError("lowest weight of %s must have %d integer "
                             "entries, got %r" % (ct.name, ct.rank, lam))
        if any(c > 0 for c in lam):
            raise ValueError("lowest weight must be antidominant")
        self.ct = ct
        self.lam = lam
        _SUB_FORMS[ct.name, lam] = {}
        try:
            self._build_basis()
            self._build_matrices()
        finally:
            del _SUB_FORMS[ct.name, lam]
        self._check_relations()
        self._string_cache = {}
        self._leg_cache = {}
        self._leg_mats = {}

    # -- construction ------------------------------------------------------

    def _build_basis(self):
        """Select a basis of e-words weight by weight, from the lowest
        weight up.  The dimension reached must be the Weyl dimension: a
        wrong contravariant form raises ValueError as soon as the count
        passes it, instead of enumerating ever longer words."""
        ct, lam = self.ct, self.lam
        expected = weyl_dimension(ct, lam)
        if expected > self.MAX_DIM:
            raise ValueError(
                "%s module of lowest weight %s has Weyl dimension %d, above "
                "LWModule.MAX_DIM = %d" % (ct.name, lam, expected,
                                           self.MAX_DIM))
        self.weights = []             # list of gamma (Q-coordinates)
        self.words = {}               # gamma -> selected e-words
        self._ginv = {}               # gamma -> inverse Gram of selected
        frontier = [ct.zero()]
        seen = set(frontier)
        dim = 0
        while frontier:
            nxt = []
            for gamma in sorted(frontier):
                sel, ginv = self._select_words(gamma)
                if not sel:
                    continue
                self.weights.append(gamma)
                self.words[gamma] = sel
                self._ginv[gamma] = ginv
                dim += len(sel)
                if dim > expected:
                    raise ValueError(
                        "%s module of lowest weight %s passes its Weyl "
                        "dimension %d" % (ct.name, lam, expected))
                for i in range(ct.rank):
                    g2 = tuple(gamma[t] + ct.alpha(i)[t]
                               for t in range(ct.rank))
                    if g2 not in seen:
                        seen.add(g2)
                        nxt.append(g2)
            frontier = nxt
        self.weights.sort(key=lambda g: (ct.height(g), g))
        self.basis = [(g, w) for g in self.weights for w in self.words[g]]
        self.index = {bw: n for n, bw in enumerate(self.basis)}
        self.dim = len(self.basis)
        if self.dim != expected:
            raise ValueError("%s module of lowest weight %s has dimension "
                             "%d, not its Weyl dimension %d"
                             % (ct.name, lam, self.dim, expected))

    def _select_words(self, gamma):
        """Maximal subset of e-words of weight gamma with invertible Gram,
        chosen greedily in word order.  A word w joins the selection iff
        its Schur complement s = <w,w> - row G^{-1} col is nonzero, since
        det(G + w) = det(G) s; G^{-1} then grows by the block formula.
        Returns the selected words and G^{-1}.

        Only tail-closed candidates are tested: a nonempty word (i,) + w',
        which is e_i w' v, is skipped unless w' was selected at
        gamma - alpha_i.  Proof that nothing changes: the greedy picks the
        lexicographically first basis, so an unselected w' is congruent
        modulo the radical to a combination of smaller words u'; the
        radical is a submodule, so (i,) + w' is congruent to the same
        combination of the smaller words (i,) + u' and is not selected
        either.  Every skipped word depends on earlier ones, so the
        selection and G^{-1} equal those of the greedy over all words.

        Only the column col = (<a, w>)_a and u = G^{-1} col are computed.
        The form is symmetric, <x v, y v> = <y v, x v>: <x v, y v> =
        chi(b(x) y), where chi(z) is the coefficient of v in z v, that is
        the U^0 part of z in e-k-f order evaluated at lam.  The
        anti-involution b maps e_E k f_F to e_F' k f_E' (E', F' reversed)
        and fixes U^0, so chi(b(z)) = chi(z) and chi(b(x) y) =
        chi(b(b(x) y)) = chi(b(y) x).  Hence the row (<w, b>)_b equals
        col, G and G^{-1} are symmetric, and row G^{-1} = (G^{-1} col)^T
        = u^T."""
        ct, lam = self.ct, self.lam
        tails = [set(self.words.get(
                     tuple(g - a for g, a in zip(gamma, ct.alpha(i))), ()))
                 for i in range(ct.rank)]
        sel, ginv = [], []
        for w in words_of_weight(ct, gamma):
            if w and w[1:] not in tails[w[0]]:
                continue
            col = [_form_words(ct, lam, a, w) for a in sel]
            diag = _form_words(ct, lam, w, w)
            u = [_dot(r, col) for r in ginv]                  # G^{-1} col
            s = diag - _dot(col, u)
            if s.is_zero():
                continue
            sinv = s.inverse()
            us = [x * sinv for x in u]
            ginv = [[g + a * b for g, b in zip(grow, u)] + [-a]
                    for grow, a in zip(ginv, us)]
            ginv.append([-b * sinv for b in u] + [sinv])
            sel.append(w)
        return sel, ginv

    def _coords(self, gamma, vec: dict):
        """Coordinates (over the selected words at gamma) of a Verma vector
        given as {e-word: Scalar}; the radical part is dropped."""
        sel = self.words.get(gamma)
        if not sel:
            return {}
        target = []
        for bw in sel:
            val = ZERO
            for w, c in vec.items():
                val = val + c * _form_words(self.ct, self.lam, bw, w)
            target.append(val)
        # the coordinates x solve G x = target
        sol = [_dot(row, target) for row in self._ginv[gamma]]
        return {self.index[(gamma, sel[j])]: c
                for j, c in enumerate(sol) if not c.is_zero()}

    def _build_matrices(self):
        ct = self.ct
        self.e_mats = [_zeros(self.dim, self.dim) for _ in range(ct.rank)]
        self.f_mats = [_zeros(self.dim, self.dim) for _ in range(ct.rank)]
        for col, (gamma, w) in enumerate(self.basis):
            for i in range(ct.rank):
                up = tuple(gamma[t] + ct.alpha(i)[t] for t in range(ct.rank))
                unit = self.index.get((up, (i,) + w))
                if unit is not None:
                    # (i,) + w is selected: its form values are a column of
                    # the Gram matrix, which G^{-1} maps to a unit vector
                    self.e_mats[i][unit][col] = ONE
                else:
                    for row, c in self._coords(up, {(i,) + w: ONE}).items():
                        self.e_mats[i][row][col] = c
                down = tuple(gamma[t] - ct.alpha(i)[t]
                             for t in range(ct.rank))
                fv = _verma_f(ct, self.lam, i, {w: ONE})
                for row, c in self._coords(down, fv).items():
                    self.f_mats[i][row][col] = c

    def k_exponent(self, i, n) -> int:
        """k_i acts on basis vector n by q^{exponent}."""
        return self._weight_pair(self.basis[n][0], i)

    def _weight_pair(self, gamma, i) -> int:
        val = self.ct.pair_pq(self.lam, self.ct.alpha(i)) \
            + self.ct.pair_qq(gamma, self.ct.alpha(i))
        if val.denominator != 1:
            raise ValueError("non-integral pairing")
        return int(val)

    def _check_relations(self):
        """Check the generator matrices against every defining relation of
        U_q: k-e, k-f, e-f and both Serre families.  The dense matrices are
        read once into sparse columns [{row: nonzero Scalar}], so every
        product costs by nonzero entries, not by dim^3.  k_i is the
        diagonal matrix of q^{k_exponent}, so k_i X_j k_i^{-1} =
        q^{+-(alpha_i, alpha_j)} X_j holds iff each nonzero entry (r, c) of
        X_j has k_exponent(i, r) - k_exponent(i, c) = +-(alpha_i, alpha_j):
        the k-relations are integer weight tests.  A failure raises
        AssertionError naming the relation, i and j (1-based), the first
        failing (row, col) and both sides."""
        ct, dim = self.ct, self.dim
        e = [_columns(m) for m in self.e_mats]
        f = [_columns(m) for m in self.f_mats]
        kexp = [[self.k_exponent(i, n) for n in range(dim)]
                for i in range(ct.rank)]
        # X_i^(n) = X_i^n / [n]_i! as sparse columns, for the n <= 1 - a_ij
        # of the Serre relations; index 0, the identity, is not stored
        e_div, f_div = [], []
        for gens, divs in ((e, e_div), (f, f_div)):
            for i, m in enumerate(gens):
                top = max((1 - ct.a[i][j] for j in range(ct.rank) if j != i),
                          default=1)
                power, powers = m, [None, m]
                for n in range(2, top + 1):
                    inv = qfact(n, ct.qi(i)).inverse()
                    power = [_apply(m, v) for v in power]
                    powers.append([{r: x * inv for r, x in v.items()}
                                   for v in power])
                divs.append(powers)
        for i in range(ct.rank):
            for j in range(ct.rank):
                p = ct.form[i][j]
                for name, cols, want in (("k-e", e[j], p), ("k-f", f[j], -p)):
                    for c, col in enumerate(cols):
                        for r, x in col.items():
                            got = kexp[i][r] - kexp[i][c]
                            if got != want:
                                self._relation_fails(
                                    name, i, j, r, c,
                                    x * Scalar.q_power(got),
                                    x * Scalar.q_power(want))
                # e_i f_j = f_j e_i + delta_ij (k_i - k_i^-1)/(q_i - q_i^-1)
                for c in range(dim):
                    lhs = _apply(e[i], f[j][c])
                    rhs = _apply(f[j], e[i][c])
                    if i == j:
                        rhs[c] = rhs.get(c, ZERO) - _commutator_coeff(
                            kexp[i][c], ct.qi(i))
                    self._compare("e-f", i, j, c, lhs, rhs)
                if i == j:
                    continue
                # Serre: sum_r (-1)^r X_i^(r) X_j X_i^(n-r) = 0, as the sum
                # over even r against the sum over odd r
                n = 1 - ct.a[i][j]
                for name, gens, divs in (("e-Serre", e, e_div),
                                         ("f-Serre", f, f_div)):
                    for c in range(dim):
                        sides = ({}, {})
                        for r in range(n + 1):
                            v = (_apply(gens[j], divs[i][n - r][c]) if n - r
                                 else gens[j][c])
                            if r:
                                v = _apply(divs[i][r], v)
                            acc = sides[r % 2]
                            for row, x in v.items():
                                acc[row] = acc[row] + x if row in acc else x
                        self._compare(name, i, j, c, *sides)

    def _compare(self, name, i, j, col, lhs, rhs):
        """Raise for the first row where the columns lhs and rhs (dicts
        row -> Scalar) of relation name differ."""
        for row in sorted(set(lhs) | set(rhs)):
            if lhs.get(row, ZERO) != rhs.get(row, ZERO):
                self._relation_fails(name, i, j, row, col,
                                     lhs.get(row, ZERO), rhs.get(row, ZERO))

    def _relation_fails(self, name, i, j, row, col, lhs, rhs):
        raise AssertionError(
            "%s module of lowest weight %s: %s relation fails for i=%d, "
            "j=%d at (row %d, col %d): %s != %s"
            % (self.ct.name, self.lam, name, i + 1, j + 1, row, col,
               lhs, rhs))

    # -- action of algebra elements, matrix coefficients --------------------

    def act_mono(self, mono, col):
        """Column vector (dict row -> Scalar) of the normal-form monomial
        (F, kappa, E) applied to basis vector col."""
        F, kappa, E = mono
        vec = {col: ONE}
        for j in reversed(E):
            vec = self._apply_mat(self.e_mats[j], vec)
        if any(kappa):
            out = {}
            for n, c in vec.items():
                exp = sum(kappa[i] * self.k_exponent(i, n)
                          for i in range(self.ct.rank))
                out[n] = c * Scalar.q_power(exp)
            vec = out
        for j in reversed(F):
            vec = self._apply_mat(self.f_mats[j], vec)
        return vec

    def _apply_mat(self, m, vec):
        out = {}
        for col, c in vec.items():
            for row in range(self.dim):
                if not m[row][col].is_zero():
                    out[row] = out.get(row, ZERO) + c * m[row][col]
        return {r: c for r, c in out.items() if not c.is_zero()}


class MatCoef:
    """The matrix coefficient Phi_{s,t}: u -> (s-component of u . basis_t)."""

    __slots__ = ("module", "row", "col")

    def __init__(self, module: LWModule, row: int, col: int):
        self.module = module
        self.row = row
        self.col = col

    def eval(self, x) -> Scalar:
        """Value on a uqcore element."""
        total = ZERO
        for mono, c in x.terms.items():
            v = self.module.act_mono(mono, self.col)
            if self.row in v:
                total = total + c * v[self.row]
        return total

    def __repr__(self):
        return "Phi[lam=%s; %d,%d]" % (list(self.module.lam),
                                       self.row, self.col)


def build_irrep(ct: CartanType, lam) -> LWModule:
    return LWModule(ct, lam)


# -- rank-1 strings and the a,b,c,d rewriting -------------------------------

@lru_cache(maxsize=None)
def _phi_poly(n: int, j: int, l: int, d: int):
    """The matrix coefficient Phi_{j,l} of the (n+1)-dimensional rank-1
    module (basis u_j = e^{(j)} u_0 from the lowest vector), written as a
    tuple of (Scalar, letter word) with letters in "abcd", through the
    embedding of the module into the n-th tensor power of the
    2-dimensional one.  d is the exponent scaling q -> q^d."""
    if n == 0:
        return ((ONE, ""),)
    if n == 1:
        letter = {(0, 0): "d", (1, 0): "b", (0, 1): "c", (1, 1): "a"}[(j, l)]
        return ((ONE, letter),)
    # basis of the tensor power: eps in {0,1}^n, v_0 highest, v_1 lowest;
    # lowest vector of the embedded module is v_1 x ... x v_1
    emb = [{(1,) * n: ONE}]
    for step in range(n):
        prev, nxt = emb[-1], {}
        for eps, c in prev.items():
            for r in range(n):
                if eps[r] == 1:
                    exp = sum(1 - 2 * eps[s] for s in range(r))
                    key = eps[:r] + (0,) + eps[r + 1:]
                    add = c * Scalar.q_power(exp)
                    nxt[key] = nxt.get(key, ZERO) + add
        fact = qint(step + 1).inverse()
        emb.append({k: v * fact for k, v in nxt.items() if not v.is_zero()})
    row = next(iter(sorted(emb[j])))
    norm = emb[j][row].inverse()
    letters = {(0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"}
    out = []
    for delta, c in sorted(emb[l].items()):
        word = "".join(letters[(row[r], delta[r])] for r in range(n))
        out.append(((norm * c).subst_q_power(d), word))
    return tuple(out)


def _strings(V: LWModule, i):
    """Decomposition of V under the rank-1 subalgebra at index i: returns
    (T, Tinv, slots) where slots[col] = (string length n, position j) and
    T's columns run over the adapted vectors u_j = e_i^{(j)} u_0."""
    if i in V._string_cache:
        return V._string_cache[i]
    ct = V.ct
    cols, slots = [], []
    for gamma in V.weights:
        idx = [V.index[(gamma, w)] for w in V.words[gamma]]
        # kernel of f_i on this weight block
        kern = kernel([{r: V.f_mats[i][r][c] for r in range(V.dim)
                        if not V.f_mats[i][r][c].is_zero()} for c in idx])
        pair = -V._weight_pair(gamma, i)
        if pair % ct.qi(i):
            raise AssertionError("non-integral coroot pairing")
        n_str = pair // ct.qi(i)
        for kv in kern:
            u0 = {idx[t]: kv[t] for t in range(len(idx))
                  if not kv[t].is_zero()}
            vec = u0
            for j in range(n_str + 1):
                cols.append(vec)
                slots.append((n_str, j))
                vec = V._apply_mat(V.e_mats[i], vec)
                if j < n_str:
                    fact = qint(j + 1, ct.qi(i)).inverse()
                    vec = {r: c * fact for r, c in vec.items()}
            if vec:
                raise AssertionError("string does not terminate")
    if len(cols) != V.dim:
        raise AssertionError("string decomposition is not a basis")
    T = _zeros(V.dim, V.dim)
    for c, vec in enumerate(cols):
        for r, val in vec.items():
            T[r][c] = val
    Tinv = _mat_inverse(T)
    V._string_cache[i] = (T, Tinv, slots)
    return V._string_cache[i]


def _leg_poly(V: LWModule, i, u, w):
    """Phi_{u,w} restricted to the rank-1 subalgebra at i, as a list of
    (Scalar, letter word)."""
    key = (i, u, w)
    if key in V._leg_cache:
        return V._leg_cache[key]
    T, Tinv, slots = _strings(V, i)
    acc = {}
    col = 0
    while col < V.dim:
        n_str = slots[col][0]
        for j in range(n_str + 1):
            tval = T[u][col + j]
            if tval.is_zero():
                continue
            for l in range(n_str + 1):
                ival = Tinv[col + l][w]
                if ival.is_zero():
                    continue
                for c, word in _phi_poly(n_str, j, l, V.ct.qi(i)):
                    c2 = c * tval * ival
                    acc[word] = acc.get(word, ZERO) + c2
        col += n_str + 1
    poly = [(c, word) for word, c in sorted(acc.items())
            if not c.is_zero()]
    V._leg_cache[key] = poly
    return poly


def _leg_matrix(V: LWModule, i, u, w, k):
    """Phi_{u,w} restricted to the rank-1 subalgebra at i, on the slot
    vector p_i(k), as {k': nonzero Scalar}: each letter maps p_i(k) to a
    multiple of one p_i(k'), so every (c, word) of _leg_poly contributes c
    times the product of its letters' coefficients, applied right to left;
    a word that reaches zero contributes nothing."""
    key = (i, u, w, k)
    out = V._leg_mats.get(key)
    if out is None:
        acc = {}
        for c, word in _leg_poly(V, i, u, w):
            n = k
            for g in reversed(word):
                coeff, n = _leg_act(V.ct, g, i, n)
                if coeff is None:
                    break
                c = c * coeff
            else:
                acc[n] = acc[n] + c if n in acc else c
        out = V._leg_mats[key] = {n: c for n, c in acc.items()
                                  if not c.is_zero()}
    return out


def act_row_on_tensor(V: LWModule, row, word, v: FockVector):
    """[Phi_{row,t} . v for t in range(V.dim)] on the tensor module along
    the word.  The iterated coproduct is summed slot by slot: the vectors
    reached after slot r, one per intermediate index j, are

        nxt[j] = sum_u leg_{u,j}(cur[u]),    starting from cur = {row: v},

    which regroups the sum over paths j_1 ... j_{m-1} exactly, since each
    leg is linear and legs on different slots commute.  A leg acts on slot
    r alone, through its memoized matrix on the slot exponent
    (_leg_matrix), so the vectors are kept as plain term dicts and only
    the returned row is made of FockVectors."""
    word = tuple(word)
    if v.word != word:
        raise ValueError("vector does not live on the word")
    if not word:
        raise ValueError("empty word")
    cur = {row: v.terms}
    for r, i in enumerate(word):
        nxt = {}
        for u, terms in cur.items():
            for j in range(V.dim):
                if not _leg_poly(V, i, u, j):
                    continue
                acc = nxt.setdefault(j, {})
                for n, c in terms.items():
                    for k, a in _leg_matrix(V, i, u, j, n[r]).items():
                        n2 = n[:r] + (k,) + n[r + 1:]
                        x = c * a
                        acc[n2] = acc[n2] + x if n2 in acc else x
        cur = {}
        for j, acc in nxt.items():
            acc = {n: c for n, c in acc.items() if not c.is_zero()}
            if acc:
                cur[j] = acc
    return [FockVector(v.ct, word, cur.get(t, {})) for t in range(V.dim)]


def act_on_tensor(phi: MatCoef, word, v: FockVector) -> FockVector:
    """Action of the matrix coefficient on the tensor module along the
    word, through the iterated coproduct with rank-1-restricted legs."""
    return act_row_on_tensor(phi.module, phi.row, word, v)[phi.col]


# -- the intertwiner oracle --------------------------------------------------

def fundamental_modules(ct: CartanType):
    out = []
    for i in range(ct.rank):
        lam = tuple(-1 if t == i else 0 for t in range(ct.rank))
        out.append(build_irrep(ct, lam))
    return out


def verify_intertwiner(ct: CartanType, from_word, to_word, heightbound,
                       d_reading: str = "qi"):
    """Check, for every matrix coefficient phi of the fundamental modules
    and every basis vector v up to the height bound, that

        act(phi, to_word, koy(v)) == koy(act(phi, from_word, v)).

    Returns a list of per-case report dicts (key "pass")."""
    from_word, to_word = tuple(from_word), tuple(to_word)
    inner = heightbound + 12

    def koy(w):
        return koy_transform(ct, from_word, to_word, w, d_reading, inner)

    exps = []
    for h in range(heightbound + 1):
        for gamma in weights_of_height(ct, h):
            exps.extend(indices_of_weight(ct, "ehat", from_word, gamma))
    vectors = [FockVector.basis(ct, from_word, n) for n in exps]
    images = [koy(v) for v in vectors]
    report = []
    for V in fundamental_modules(ct):
        for s in range(V.dim):
            # lhs[k][t] = Phi_{s,t} koy(v_k); rhs[k][t] = koy(Phi_{s,t} v_k)
            lhs = [act_row_on_tensor(V, s, to_word, kv) for kv in images]
            rhs = [[koy(w) for w in act_row_on_tensor(V, s, from_word, v)]
                   for v in vectors]
            for t in range(V.dim):
                phi = repr(MatCoef(V, s, t))
                for n, left, right in zip(exps, lhs, rhs):
                    ok = left[t] == right[t]
                    case = {"phi": phi, "basis": list(n), "pass": ok}
                    if not ok:
                        case["lhs"] = left[t].to_json()
                        case["rhs"] = right[t].to_json()
                    report.append(case)
    return report
