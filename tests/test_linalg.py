"""The one exact elimination routine: rank, kernel, solve_linear and the
matrix inverse built on it, against the four routines it replaced and
against sympy."""

import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from qpbw import pbw
from qpbw.coordring import _mat_inverse, _strings, fundamental_modules
from qpbw.linalg import kernel, rank, solve_linear
from qpbw.pairing import canonical_coords, words_of_weight
from qpbw.rootdata import (CartanType, all_reduced_words, kostant_count,
                           weights_of_height)
from qpbw.scalars import ONE, ZERO, Scalar

from dense_matrices import identity, mat_mul
from tau_reference import tau_words_ref


# -- test-local copies of the replaced routines ----------------------------

def _old_rank(rows):
    rows = [dict(r) for r in rows if r]
    out = 0
    while rows:
        piv = rows.pop()
        if not piv:
            continue
        out += 1
        key = next(iter(piv))
        inv = piv[key].inverse()
        piv = {k: v * inv for k, v in piv.items()}
        reduced = []
        for r in rows:
            if key in r:
                c = r[key]
                r = {k: r.get(k, ZERO) - c * piv.get(k, ZERO)
                     for k in set(r) | set(piv)}
                r = {k: v for k, v in r.items() if not v.is_zero()}
            if r:
                reduced.append(r)
        rows = reduced
    return out


def _old_solve_linear(columns, targets):
    rows = sorted({r for col in columns for r in col}
                  | {r for t in targets for r in t}, key=repr)
    mat = [[col.get(r, ZERO) for col in columns]
           + [t.get(r, ZERO) for t in targets] for r in rows]
    ncols = len(columns)
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(mat))
                    if not mat[r][col].is_zero()), None)
        if piv is None:
            raise ValueError("underdetermined system (rank-deficient basis)")
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = mat[row][col].inverse()
        mat[row] = [v * inv for v in mat[row]]
        for r in range(len(mat)):
            if r != row and not mat[r][col].is_zero():
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[row])]
        row += 1
    for r in range(row, len(mat)):
        if any(not v.is_zero() for v in mat[r][ncols:]):
            raise ValueError("inconsistent system (element not in span)")
    return [[mat[r][ncols + t] for r in range(ncols)]
            for t in range(len(targets))]


def _old_mat_inverse(a):
    n = len(a)
    aug = [list(row) + list(idrow) for row, idrow in zip(a, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero()),
                   None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _old_kernel(block):
    nrow = len(block)
    ncol = len(block[0]) if nrow else 0
    mat = [list(r) for r in block]
    pivots, row = {}, 0
    for col in range(ncol):
        piv = next((r for r in range(row, nrow)
                    if not mat[r][col].is_zero()), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = mat[row][col].inverse()
        mat[row] = [v * inv for v in mat[row]]
        for r in range(nrow):
            if r != row and not mat[r][col].is_zero():
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[row])]
        pivots[col] = row
        row += 1
    out = []
    for col in range(ncol):
        if col in pivots:
            continue
        vec = [ZERO] * ncol
        vec[col] = ONE
        for pcol, prow in pivots.items():
            vec[pcol] = -mat[prow][col]
        out.append(vec)
    return out


# -- conversions between column dicts and lists of rows ----------------------

def _columns(a):
    return [{r: row[j] for r, row in enumerate(a) if not row[j].is_zero()}
            for j in range(len(a[0]))]


def _dense(columns):
    labels = sorted({r for v in columns for r in v}, key=repr)
    return [[v.get(r, ZERO) for v in columns] for r in labels]


def _agree(columns):
    """rank and kernel of the columns match the old routines (Scalar
    equality is structural, so equal results also print the same)."""
    assert rank(columns) == _old_rank(columns)
    block = _dense(columns) or [[ZERO] * len(columns)]
    assert kernel(columns) == _old_kernel(block)


# -- the matrices the suites produce -----------------------------------------

def test_string_blocks_and_T_of_fundamental_modules():
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        for V in fundamental_modules(ct):
            for i in range(ct.rank):
                for gamma in V.weights:
                    idx = [V.index[(gamma, w)] for w in V.words[gamma]]
                    _agree([{r: V.f_mats[i][r][c] for r in range(V.dim)
                             if not V.f_mats[i][r][c].is_zero()}
                            for c in idx])
                T = _strings(V, i)[0]
                _agree(_columns(T))
                assert _mat_inverse(T) == _old_mat_inverse(T)


def _gram_rows(ct, ga):
    # Gram rows of tau on the words of weight ga, by the reference recursion
    ews = words_of_weight(ct, ga)
    return [{fw: v for fw in ews
             if not (v := tau_words_ref(ct, ew, fw)).is_zero()}
            for ew in ews]


def test_gram_rows_up_to_height_3():
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        for h in range(1, 4):
            for ga in weights_of_height(ct, h):
                rows = _gram_rows(ct, ga)
                _agree(rows)
                assert rank(rows) == kostant_count(ct, ga)


def test_decomp_rows_up_to_height_3():
    for name in ("A2", "B2", "G2"):
        ct = CartanType(name)
        word = min(all_reduced_words(ct, ct.longest_word()))
        for cut in range(len(word) + 1):
            for h in range(1, 4):
                for ga in weights_of_height(ct, h):
                    rows = []
                    for n in pbw.indices_of_weight(ct, "ehat", word, ga):
                        pre = n[:cut] + (0,) * (len(word) - cut)
                        suf = (0,) * cut + n[cut:]
                        rows.append(canonical_coords(
                            pbw.pbw_monomial(ct, "ehat", word, pre)
                            * pbw.pbw_monomial(ct, "ehat", word, suf)))
                    _agree(rows)


def test_non_hat_transition_blocks():
    for name, family, eside in (("A2", "edot", True), ("B2", "etilde", True),
                                ("G2", "fdot", False)):
        ct = CartanType(name)
        words = sorted(all_reduced_words(ct, ct.longest_word()))
        ga = max(weights_of_height(ct, 3), key=lambda g: kostant_count(ct, g))
        _idx, columns = pbw._family_columns(ct, family, words[1], ga, eside)
        targets = [pbw.pbw_coords(ct, pbw.pbw_monomial(ct, family, words[0],
                                                       n),
                                  words[1], eside=eside)
                   for n in pbw.indices_of_weight(ct, family, words[0], ga)]
        assert len(columns) > 1
        assert solve_linear(columns, targets) == \
            _old_solve_linear(columns, targets)
        _agree(columns)


def _raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("no ValueError")


def test_solve_linear_rejects_what_the_old_routine_rejected():
    q = Scalar.q_power(1)
    # a rank-deficient basis, then a target outside the span
    for columns, targets in (([{0: ONE}, {0: q}], [{0: ONE}]),
                             ([{0: ONE}], [{1: ONE}])):
        assert _raised(solve_linear, columns, targets) == \
            _raised(_old_solve_linear, columns, targets)


# -- random small matrices against sympy --------------------------------------

Q = sympy.Symbol("q")
FIELD = sympy.QQ.frac_field(Q)
_ENTRIES = (ZERO, ZERO, ZERO, ONE, Scalar.from_int(-2), Scalar.q_power(1),
            Scalar.q_power(-2), Scalar({0: 1, 2: 1}, {1: 1}),
            Scalar({0: 1}, {0: 1, 1: 1}), Scalar({1: 3}, {0: -1, 2: 1}))


@st.composite
def _matrices(draw):
    """Small matrices with entries from a few q-fractions, and often a
    column that is a combination of the others, so rank deficiency is
    common."""
    nrow, ncol = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = [[draw(st.sampled_from(_ENTRIES)) for _ in range(ncol)]
         for _ in range(nrow)]
    if ncol > 1 and draw(st.booleans()):
        c1, c2 = draw(st.sampled_from(_ENTRIES)), draw(st.sampled_from(
            _ENTRIES))
        j = draw(st.integers(0, ncol - 1))
        for row in a:
            row[j] = c1 * row[(j + 1) % ncol] + c2 * row[(j + 2) % ncol]
    return a


def _sympy_rank(a):
    m = sympy.Matrix([[sympy.sympify(str(x).replace("^", "**"),
                                     locals={"q": Q}) for x in row]
                      for row in a])
    return DomainMatrix.from_Matrix(m).convert_to(FIELD).rank()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_matrices())
def test_random_matrices_against_sympy(a):
    columns = _columns(a)
    ncol = len(a[0])
    r = rank(columns)
    assert r == _sympy_rank(a)
    kern = kernel(columns)
    assert r + len(kern) == ncol
    for vec in kern:
        assert mat_mul(a, [[x] for x in vec]) == [[ZERO]] * len(a)
    if r == ncol == len(a):
        assert mat_mul(_mat_inverse(a), a) == identity(ncol)
