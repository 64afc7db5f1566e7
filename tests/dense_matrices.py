"""Dense exact matrices (lists of rows of Scalar) for the reference checks
of the tests: products, identities and the diagonal k_i action of a
lowest-weight module.  The program itself works on sparse columns."""

from qpbw.coordring import _zeros
from qpbw.scalars import ONE, Scalar


def identity(n):
    m = _zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def mat_mul(a, b):
    nrow, mid, ncol = len(a), len(b), len(b[0]) if b else 0
    out = _zeros(nrow, ncol)
    for i in range(nrow):
        ai = a[i]
        for k in range(mid):
            c = ai[k]
            if c.is_zero():
                continue
            bk = b[k]
            row = out[i]
            for j in range(ncol):
                if not bk[j].is_zero():
                    row[j] = row[j] + c * bk[j]
    return out


def k_matrix(V, i, power=1):
    """The diagonal matrix of k_i^power on the module V."""
    m = _zeros(V.dim, V.dim)
    for n in range(V.dim):
        m[n][n] = Scalar.q_power(power * V.k_exponent(i, n))
    return m
