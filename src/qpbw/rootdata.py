"""Cartan data, the invariant bilinear form, and reduced-word combinatorics.

Conventions are pinned here once and read by every other module:

* types A1, A2, A3, B2, G2;
* Cartan matrix a[i][j] = (alpha_i^vee, alpha_j);
* symmetrizers d[i] = (alpha_i, alpha_i)/2, short roots have (alpha,alpha)=2;
* B2: alpha_1 long (d=2), alpha_2 short;  G2: alpha_1 long (d=3), alpha_2 short.

Root-lattice (Q) vectors are integer tuples in simple-root coordinates;
weight-lattice (P) vectors are integer tuples in fundamental-weight
coordinates.  Indices are 0-based internally; serialization is 1-based.
"""

from __future__ import annotations

from functools import lru_cache

_CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -1), (-3, 2)),
}

_SYMMETRIZER = {
    "A1": (1,),
    "A2": (1, 1),
    "A3": (1, 1, 1),
    "B2": (2, 1),
    "G2": (3, 1),
}

_NUM_POS_ROOTS = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "G2": 6}


class CartanType:
    """Fixed table of Cartan data for one of the supported types."""

    def __init__(self, name: str):
        if getattr(self, "pos_roots", None) is not None:
            return          # the shared instance of __new__, already built
        if name not in _CARTAN:
            raise ValueError("unsupported Cartan type %r" % name)
        self.name = name
        self.a = _CARTAN[name]
        self.d = _SYMMETRIZER[name]
        self.rank = len(self.d)
        # form[i][j] = (alpha_i, alpha_j) = d_i a_ij, a symmetric integer
        # table: every q-shift of the engine is a sum of its entries
        self.form = tuple(tuple(self.d[i] * self.a[i][j]
                                for j in range(self.rank))
                          for i in range(self.rank))
        for i in range(self.rank):
            for j in range(self.rank):
                assert self.form[i][j] == self.form[j][i]
        self.pos_roots = self._generate_pos_roots()
        assert len(self.pos_roots) == _NUM_POS_ROOTS[name]

    _cache = {}

    def __new__(cls, name):
        if name in cls._cache:
            return cls._cache[name]
        obj = super().__new__(cls)
        cls._cache[name] = obj
        return obj

    # -- lattice vectors -----------------------------------------------
    def alpha(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def zero(self):
        return (0,) * self.rank

    def _generate_pos_roots(self):
        roots = {self.alpha(i) for i in range(self.rank)}
        frontier = set(roots)
        while frontier:
            new = set()
            for v in frontier:
                for i in range(self.rank):
                    w = self.reflect_q(i, v)
                    if all(x >= 0 for x in w) and w not in roots:
                        new.add(w)
            roots |= new
            frontier = new
        return tuple(sorted(roots, key=lambda r: (sum(r), r)))

    # -- bilinear form ----------------------------------------------------
    def pair_qq(self, v, w):
        """(v, w) for v, w in root coordinates; always an integer."""
        total = 0
        for vi, row in zip(v, self.form):
            if vi:
                for b, wj in zip(row, w):
                    total += vi * b * wj
        return total

    def pair_pq(self, lam, gam):
        """(lam, gam) with lam in weight coords, gam in root coords."""
        return sum(lam[j] * self.d[j] * gam[j] for j in range(self.rank))

    def coroot_pair_q(self, v, i):
        """(v, alpha_i^vee) for v in root coordinates."""
        return sum(v[j] * self.a[i][j] for j in range(self.rank))

    def height(self, v):
        return sum(v)

    # -- reflections ------------------------------------------------------
    def reflect_q(self, i, v):
        c = self.coroot_pair_q(v, i)
        return tuple(v[j] - c * (1 if j == i else 0) for j in range(self.rank))

    def reflect_p(self, i, lam):
        c = lam[i]
        return tuple(lam[j] - c * self.a[j][i] for j in range(self.rank))

    def word_act_q(self, word, v):
        """Apply s_{i_1} ... s_{i_m} to v (rightmost letter acts first)."""
        for i in reversed(word):
            v = self.reflect_q(i, v)
        return v

    # -- Weyl words ---------------------------------------------------------
    def length_of(self, word):
        """Length of the Weyl element represented by the (arbitrary) word."""
        return sum(1 for beta in self.pos_roots
                   if any(c < 0 for c in self.word_act_q(word, beta)))

    def is_reduced(self, word):
        return len(word) == self.length_of(word)

    def perm_of_word(self, word):
        """Canonical fingerprint: images of all positive roots."""
        return tuple(self.word_act_q(word, beta) for beta in self.pos_roots)

    def braid_order(self, i, j):
        return {0: 2, 1: 3, 2: 4, 3: 6}[self.a[i][j] * self.a[j][i]]

    @lru_cache(maxsize=None)
    def longest_word(self):
        """A fixed reduced word for w0 (deterministic greedy descent)."""
        lam = (1,) * self.rank
        word = []
        while any(c > 0 for c in lam):
            i = next(k for k in range(self.rank) if lam[k] > 0)
            lam = self.reflect_p(i, lam)
            word.append(i)
        word.reverse()
        return tuple(word)

    def qi(self, i):
        """Exponent d_i so that q_i = q^{d_i}."""
        return self.d[i]


def all_reduced_words(ct: CartanType, word) -> frozenset:
    """Closure of a reduced word under braid moves (all of I_w, Matsumoto)."""
    word = tuple(word)
    if not ct.is_reduced(word):
        raise ValueError("input word is not reduced: %r" % (word,))
    target = ct.perm_of_word(word)
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for p in range(len(w) - 1):
            i, j = w[p], w[p + 1]
            if i == j:
                continue
            m = ct.braid_order(i, j)
            if p + m > len(w):
                continue
            seg = w[p:p + m]
            alt = tuple(i if k % 2 == 0 else j for k in range(m))
            if seg == alt:
                rep = tuple(j if k % 2 == 0 else i for k in range(m))
                w2 = w[:p] + rep + w[p + m:]
                if w2 not in seen:
                    seen.add(w2)
                    stack.append(w2)
    for w in seen:
        assert ct.perm_of_word(w) == target
    return frozenset(seen)


def suffix_roots(ct: CartanType, word):
    """beta_r = s_{i_m} ... s_{i_{r+1}} (alpha_{i_r}) for r = 1..m."""
    return _suffix_roots(ct, tuple(word))


@lru_cache(maxsize=None)
def _suffix_roots(ct: CartanType, word):
    m = len(word)
    out = []
    for r in range(m):
        v = ct.alpha(word[r])
        for k in range(r + 1, m):
            v = ct.reflect_q(word[k], v)
        out.append(v)
    return tuple(out)


def prefix_roots(ct: CartanType, word):
    """beta_r = s_{i_1} ... s_{i_{r-1}} (alpha_{i_r}) for r = 1..m."""
    return _prefix_roots(ct, tuple(word))


@lru_cache(maxsize=None)
def _prefix_roots(ct: CartanType, word):
    out = []
    for r in range(len(word)):
        v = ct.alpha(word[r])
        for k in range(r - 1, -1, -1):
            v = ct.reflect_q(word[k], v)
        out.append(v)
    return tuple(out)


def exponent_weight(ct: CartanType, word, n, roots):
    """sum_r n_r beta_r for an exponent vector n along the word, with
    beta_r the r-th prefix root (roots="prefix") or suffix root
    (roots="suffix")."""
    if roots == "prefix":
        betas = prefix_roots(ct, word)
    elif roots == "suffix":
        betas = suffix_roots(ct, word)
    else:
        raise ValueError("roots must be 'prefix' or 'suffix', got %r"
                         % (roots,))
    return tuple(sum(n[r] * betas[r][t] for r in range(len(n)))
                 for t in range(ct.rank))


def weights_of_height(ct: CartanType, h):
    """Every gamma in Q_+ of height h (nonnegative simple-root coordinates
    summing to h), sorted; empty for a negative h."""
    def rec(rank, rem):
        if rank == 1:
            return [(rem,)]
        return [(c,) + rest for c in range(rem + 1)
                for rest in rec(rank - 1, rem - c)]

    return rec(ct.rank, h) if h >= 0 else []


def kostant_count(ct: CartanType, gamma) -> int:
    """Number of ways to write gamma as a nonneg sum of positive roots."""
    return _kostant(ct, 0, tuple(gamma))


@lru_cache(maxsize=None)
def _kostant(ct: CartanType, idx, rem) -> int:
    """Ways to write rem as a nonneg sum of the positive roots from index
    idx on; one memo shared by every kostant_count call."""
    if all(c == 0 for c in rem):
        return 1
    roots = ct.pos_roots
    if idx == len(roots):
        return 0
    beta = roots[idx]
    total = 0
    k = 0
    while all(rem[t] - k * beta[t] >= 0 for t in range(len(rem))):
        total += _kostant(ct, idx + 1,
                          tuple(rem[t] - k * beta[t] for t in range(len(rem))))
        k += 1
    return total


def weyl_dimension(ct: CartanType, lam) -> int:
    """Dimension of the simple module of lowest weight lam (antidominant,
    fundamental-weight coordinates) by the Weyl dimension formula: it is
    the dual of the module of highest weight mu = -lam, of dimension
    prod over positive roots alpha of (mu + rho, alpha) / (rho, alpha)."""
    shifted = [1 - c for c in lam]
    rho = [1] * ct.rank
    num = den = 1
    for alpha in ct.pos_roots:
        num *= ct.pair_pq(shifted, alpha)
        den *= ct.pair_pq(rho, alpha)
    return num // den


def parse_word(text: str):
    """Parse '1,2,1' (1-based serialization) into a 0-based tuple; raises
    ValueError naming the first letter that is not a positive integer."""
    letters = []
    for n, part in enumerate(text.split(","), 1):
        try:
            i = int(part)
        except ValueError:
            i = 0
        if i < 1:
            raise ValueError("letter %d of word %r is %r, not a positive "
                             "integer" % (n, text, part))
        letters.append(i - 1)
    return tuple(letters)


def format_word(word) -> str:
    return ",".join(str(i + 1) for i in word)
