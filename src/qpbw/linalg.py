"""Exact linear algebra over the Scalar field.

A vector is a dict {row label: Scalar} with arbitrary hashable labels;
absent labels are zero.  One Gauss-Jordan reduction serves rank, kernel
and solve_linear.  Reduced row echelon form is unique, so every result is
an exact Scalar that does not depend on the order in which rows are met.
"""

from __future__ import annotations

from .scalars import ONE, ZERO


def _reduce(columns, targets=()):
    """Gauss-Jordan reduction of [columns | targets] with pivots taken only
    in the columns, left to right.  Returns (rows, pivots): the reduced
    rows, each a list over columns then targets, and {pivot column: row}
    in column order."""
    labels = sorted({r for v in columns for r in v}
                    | {r for v in targets for r in v}, key=repr)
    vectors = list(columns) + list(targets)
    mat = [[v.get(r, ZERO) for v in vectors] for r in labels]
    pivots, row = {}, 0
    for col in range(len(columns)):
        piv = next((r for r in range(row, len(mat))
                    if not mat[r][col].is_zero()), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = mat[row][col].inverse()
        prow = mat[row] = [v if v.is_zero() else v * inv for v in mat[row]]
        for r, cur in enumerate(mat):
            f = cur[col]
            if r != row and not f.is_zero():
                mat[r] = [v if w.is_zero() else v - f * w
                          for v, w in zip(cur, prow)]
        pivots[col] = row
        row += 1
    return mat, pivots


def rank(vectors) -> int:
    """Dimension of the span of the vectors."""
    return len(_reduce(vectors)[1])


def kernel(columns):
    """Basis of {x : sum_j x_j columns[j] = 0}, one coefficient list per
    non-pivot column c, with x_c = 1 and zero at the other free columns."""
    mat, pivots = _reduce(columns)
    out = []
    for col in range(len(columns)):
        if col in pivots:
            continue
        vec = [ZERO] * len(columns)
        vec[col] = ONE
        for pcol, prow in pivots.items():
            vec[pcol] = -mat[prow][col]
        out.append(vec)
    return out


def solve_linear(columns, targets):
    """Solve sum_j a_j columns[j] = t exactly for every t in targets with
    one elimination.  Returns one coefficient list per target, or raises
    ValueError if the system is underdetermined or some target is not in
    the span."""
    mat, pivots = _reduce(columns, targets)
    ncols = len(columns)
    if len(pivots) < ncols:
        raise ValueError("underdetermined system (rank-deficient basis)")
    for cur in mat[ncols:]:
        if any(not v.is_zero() for v in cur[ncols:]):
            raise ValueError("inconsistent system (element not in span)")
    return [[mat[r][ncols + t] for r in range(ncols)]
            for t in range(len(targets))]
