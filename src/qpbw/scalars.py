"""Exact arithmetic in the rational function field Q(q).

Everything downstream of this module computes with one type, Scalar; no
floating point anywhere.  A Scalar is a reduced fraction of two integer
polynomials in q (negative exponents are cleared into the fraction), so
equality is structural.  The q-numbers [n], [n]!, the q-binomials and the
constants c(n) and d(n) are built as Laurent polynomials, that is as
exponent -> integer maps with exponents of either sign, and made a Scalar
once at the end.

Every denominator the engine makes is c q^k prod Phi_n^m, a product of
cyclotomic polynomials (they come from q-integers and from q^d - q^-d), and
each Scalar keeps that factorization of its denominator next to the
expanded num/den.  Arithmetic reduces by one of two rules, chosen by the
kind of denominator:

- Factored denominators, monomials c q^k included (no Phi_n), reduce
  through _reduced, without a polynomial gcd.  A product by +-q^j is an
  exponent shift; otherwise a product divides each numerator by the Phi_n
  of the other denominator while they divide it, and a sum works over the
  least common multiple (the larger multiplicity of each Phi_n), then
  cancels only the Phi_n that can divide the new numerator, the common
  q-power and the common integer content.  Whether Phi_n divides p is
  decided in closed form when p has one or two terms, and otherwise by
  folding the exponents of p mod n (p mod q^n - 1) and reducing the fold
  mod Phi_n.
- A denominator with any other factor is marked as such, and a sum or
  product involving it is built unreduced and handed to the constructor
  Scalar(num, den), whose _normalize is the only caller of the Euclidean
  gcd _pgcd.

The canonical form is unique, so results are identical either way.

Most operands of the engine are units, so those cost least: a product
with the shared ONE returns the other operand unchanged, and q_power(k)
hands out one shared Scalar per exponent (q_power(0) is ONE).  Scalars are
never mutated, so sharing them and their dicts is safe.
"""

from __future__ import annotations

import math
from functools import lru_cache


def _strip(coeffs):
    return {e: c for e, c in coeffs.items() if c != 0}


def poly_str(coeffs):
    """Render an exponent map as an integer polynomial, descending exponents."""
    if not coeffs:
        return "0"
    parts = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        if e == 0:
            term = str(abs(c))
        else:
            qp = "q" if e == 1 else "q^%d" % e
            term = qp if abs(c) == 1 else "%d*%s" % (abs(c), qp)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# polynomial helpers on nonnegative-exponent maps (Z[q]); _pmul also
# multiplies Laurent maps, whose exponents may be negative

def _pdeg(p):
    return max(p) if p else -1


def _plc(p):
    return p[max(p)] if p else 0


def _pmul(p1, p2):
    if len(p2) == 1:
        (e2, v2), = p2.items()
        return {e1 + e2: v1 * v2 for e1, v1 in p1.items()}
    c = {}
    for e1, v1 in p1.items():
        for e2, v2 in p2.items():
            e = e1 + e2
            c[e] = c.get(e, 0) + v1 * v2
    for e in [e for e, v in c.items() if not v]:
        del c[e]
    return c


def _pmul_into(acc, p1, p2):
    """acc += p1 * p2 in place; zero coefficients may remain in acc."""
    for e1, v1 in p1.items():
        for e2, v2 in p2.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + v1 * v2


def _pcontent(p):
    g = 0
    for v in p.values():
        g = math.gcd(g, v)
    return g


def _pprim(p):
    g = _pcontent(p)
    if g in (0, 1):
        return dict(p)
    return {e: v // g for e, v in p.items()}


def _pscale(p, n):
    if n == 0:
        return {}
    return {e: v * n for e, v in p.items()}


def _psub(p1, p2):
    c = dict(p1)
    for e, v in p2.items():
        c[e] = c.get(e, 0) - v
    return _strip(c)


def _pseudo_rem(a, b):
    """Remainder of a by b up to integer content (b nonzero): each step
    scales r by the least factor clearing the leading coefficient, keeping
    the integers small (the content is irrelevant to the primitive gcd)."""
    db, lb = _pdeg(b), _plc(b)
    r = dict(a)
    scaled = 0
    while r and _pdeg(r) >= db:
        if scaled >= 4:
            c = _pcontent(r)
            if c > 1:
                r = {e: v // c for e, v in r.items()}
            scaled = 0
        dr, lr = _pdeg(r), _plc(r)
        g = math.gcd(lr, lb)
        # (lb/g) * r - (lr/g) * q^(dr-db) * b
        s, t = lb // g, lr // g
        if s != 1:
            r = _pscale(r, s)
            scaled += 1
        r = _psub(r, {e + dr - db: v * t for e, v in b.items()})
    return r


def _pgcd(a, b):
    """Primitive gcd in Z[q], positive leading coefficient."""
    a, b = _pprim(a), _pprim(b)
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _pprim(r)
    if a and _plc(a) < 0:
        a = _pscale(a, -1)
    return a if a else {0: 1}


def _pdiv_exact(a, b):
    """Exact division in Q[q]; result must have integer coefficients."""
    if not a:
        return {}
    db, lb = _pdeg(b), _plc(b)
    q = {}
    r = dict(a)
    while r:
        dr, lr = _pdeg(r), _plc(r)
        if dr < db or lr % lb != 0:
            raise ArithmeticError("inexact polynomial division")
        t = lr // lb
        q[dr - db] = t
        r = _psub(r, {e + dr - db: v * t for e, v in b.items()})
    return q


# ---------------------------------------------------------------------------
# cyclotomic polynomials
#
# A denominator is kept factored as c q^k prod Phi_n^m (c > 0): the
# q-integers [n]_{q^d} and q^d - q^-d that make every denominator of the
# engine are such products.  Phi_n divides p exactly when p vanishes at a
# primitive n-th root of unity; since Phi_n divides q^n - 1, that is decided
# on p mod q^n - 1 (its exponents folded mod n) reduced mod Phi_n.

_PHI = {}          # n -> (degree, [(e, c)] of Phi_n below its leading 1)
_PRODUCTS = {}     # sorted ((n, m), ...) -> expanded prod Phi_n^m
_FACTORS = {}      # sorted den items -> (c, k, mult) or False
# orders tried when factoring a polynomial; a larger one sends it to the
# gcd fallback, which is slower but as exact
_MAX_ORDER = 120


def _totient(n):
    t, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            t -= t // p
        p += 1
    return t - t // m if m > 1 else t


_TOTIENT = [0] + [_totient(n) for n in range(1, _MAX_ORDER + 1)]


def _phi(n):
    """(degree, lower terms) of the monic cyclotomic polynomial Phi_n."""
    entry = _PHI.get(n)
    if entry is None:
        p = {n: 1, 0: -1}
        for d in range(1, n):
            if n % d == 0:
                p = _pdiv_exact(p, _phi_poly(d))
        deg = max(p)
        entry = _PHI[n] = (deg, tuple(sorted((e, v) for e, v in p.items()
                                             if e < deg)))
    return entry


def _phi_poly(n):
    deg, tail = _phi(n)
    p = dict(tail)
    p[deg] = 1
    return p


def _phi_divides(p, n):
    """Whether Phi_n divides the nonzero polynomial p (nonnegative
    exponents).  A monomial never is a multiple; a binomial
    a q^i + b q^j = a q^i (1 + (b/a) q^d), d = |j - i|, is one exactly when
    b = -a and n | d (q^d - 1), or b = a, n | 2d and n does not divide d
    (q^d + 1): otherwise its roots are not roots of unity of order n."""
    if len(p) < 3:
        if len(p) == 1:
            return False
        (i, a), (j, b) = p.items()
        d = abs(j - i)
        if a == -b:
            return not d % n
        return a == b and bool(d % n) and not 2 * d % n
    if n == 1:
        return not sum(p.values())
    if n == 2:
        return not sum(-v if e & 1 else v for e, v in p.items())
    r = [0] * n
    for e, v in p.items():
        r[e % n] += v
    deg, tail = _phi(n)
    for i in range(n - 1, deg - 1, -1):
        t = r[i]
        if t:
            s = i - deg
            for e, c in tail:
                r[s + e] -= t * c
    return not any(r[:deg])


def _phi_div(p, n):
    """p / Phi_n for a multiple p of Phi_n (synthetic division)."""
    lo = min(p)
    a = [0] * (max(p) - lo + 1)
    for e, v in p.items():
        a[e - lo] = v
    deg, tail = _phi(n)
    out = {}
    for i in range(len(a) - 1, deg - 1, -1):
        t = a[i]
        if t:
            s = i - deg
            out[s + lo] = t
            for e, c in tail:
                a[s + e] -= t * c
    return out


def _phi_divide_out(p, n, m):
    """Divide Phi_n out of p at most m times; returns (quotient, times)."""
    j = 0
    while j < m and _phi_divides(p, n):
        p = _phi_div(p, n)
        j += 1
    return p, j


def _phi_product(mult):
    """Expanded prod Phi_n^m for a sorted ((n, m), ...); memoized."""
    p = _PRODUCTS.get(mult)
    if p is None:
        p = {0: 1}
        for n, m in mult:
            for _ in range(m):
                p = _pmul(p, _phi_poly(n))
        _PRODUCTS[mult] = p
    return p


def _den_of(c, k, mult):
    if not mult:
        return {k: c}
    p = _phi_product(mult)
    if c == 1 and k == 0:
        return p
    return {e + k: v * c for e, v in p.items()}


def _cyclotomic_factors(p):
    """(c, k, mult) with p = c q^k prod Phi_n^m, c > 0 and mult a sorted
    ((n, m), ...), or False when p has any other factor.  p has a positive
    leading coefficient and at least two terms."""
    k, hi = min(p), max(p)
    coeffs = [p.get(e, 0) for e in range(k, hi + 1)]
    # every Phi_n is palindromic except Phi_1, which is antipalindromic
    rev = coeffs[::-1]
    if coeffs != rev and coeffs != [-v for v in rev]:
        return False
    c = _pcontent(p)
    rest = {e - k: v // c for e, v in p.items()}
    deg = hi - k
    mult = []
    for n in range(1, _MAX_ORDER + 1):
        if _TOTIENT[n] > deg:
            continue
        rest, m = _phi_divide_out(rest, n, deg)
        if m:
            mult.append((n, m))
            deg -= m * _TOTIENT[n]
            if not deg:
                return c, k, tuple(mult)
    return False


def _den_factors(den):
    """Factorization (c, k, mult) of a denominator, or False; memoized."""
    if len(den) == 1:
        (k, c), = den.items()
        return c, k, ()
    key = tuple(sorted(den.items()))
    f = _FACTORS.get(key)
    if f is None:
        f = _FACTORS[key] = _cyclotomic_factors(den)
    return f


# ---------------------------------------------------------------------------

class Scalar:
    """Element of Q(q): reduced fraction of integer polynomials in q.

    Canonical form: num/den in Z[q] with nonnegative exponents, polynomial
    gcd 1, den with positive leading coefficient, and integer contents
    coprime.  Equality and hashing are structural.  The factorization of
    den is kept alongside (see _factored); it is not part of the value.
    """

    __slots__ = ("num", "den", "_hash", "_fac")

    def __init__(self, num, den=None):
        if den is None:
            den = {0: 1}
        self.num, self.den, self._fac = _normalize(num, den)
        self._hash = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_int(n):
        return _make({0: n} if n else {}, {0: 1}, _UNIT)

    @staticmethod
    def q_power(k):
        """q^k, shared: each exponent is built once (q^0 is ONE)."""
        s = _Q_POWERS.get(k)
        if s is None:
            s = _Q_POWERS[k] = (_make({k: 1}, {0: 1}, _UNIT) if k >= 0 else
                                _make({0: 1}, {-k: 1}, (1, -k, ())))
        return s

    # -- predicates ----------------------------------------------------
    def is_zero(self):
        return not self.num

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        n1, n2 = self.num, other.num
        if not n1:
            return other
        if not n2:
            return self
        f1, f2 = _factored(self), _factored(other)
        if f1 is not False and f2 is not False:
            return _add_over_lcm(n1, f1, n2, f2)
        d1, d2 = self.den, other.den
        num = _pmul(n1, d2)
        _pmul_into(num, n2, d1)
        return Scalar(num, _pmul(d1, d2))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _make({e: -v for e, v in self.num.items()}, self.den,
                     self._fac)

    def __mul__(self, other):
        if other is ONE:
            return self
        if not isinstance(other, Scalar):
            return NotImplemented
        if self is ONE:
            return other
        return _product(self, other)

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero Scalar")
        if not self.num:
            return _ZERO
        return _product(self, _reciprocal(other))

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero Scalar")
        return _reciprocal(self)

    def bar(self):
        """Apply q -> q^-1."""
        if not self.num:
            return self
        top = max(max(self.num), max(self.den))
        num = {top - e: v for e, v in self.num.items()}
        den = {top - e: v for e, v in self.den.items()}
        if _plc(den) < 0:
            num = {e: -v for e, v in num.items()}
            den = {e: -v for e, v in den.items()}
        # reversing the exponents keeps the fraction reduced, and takes a
        # product of Phi_n to plus or minus a q-power times itself
        f = self._fac
        if f:
            f = (f[0], min(den), f[2])
        return _make(num, den, f)

    def subst_q_power(self, d):
        """Substitute q -> q^d (d a positive integer)."""
        if d < 1:
            raise ValueError("subst_q_power needs d >= 1, got %r" % (d,))
        if d == 1:
            return self
        # q -> q^d keeps num and den coprime, their contents and the signs
        # of their leading coefficients
        return _make({e * d: v for e, v in self.num.items()},
                     {e * d: v for e, v in self.den.items()}, None)

    # -- structure -------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((tuple(sorted(self.num.items())),
                               tuple(sorted(self.den.items()))))
        return self._hash

    def __str__(self):
        if self.den == {0: 1}:
            return poly_str(self.num)
        ns = poly_str(self.num)
        if len(self.num) > 1:
            ns = "(%s)" % ns
        ds = poly_str(self.den)
        # a bare integer or q^k stays bare; c*q^k needs parentheses, since
        # 1/2*q reads as q/2
        if len(self.den) > 1 or "*" in ds:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "Scalar(%s)" % str(self)


_UNIT = (1, 0, ())
_new = object.__new__


def _make(num, den, fac):
    """A Scalar from canonical num/den and the factorization of den (None:
    not known yet)."""
    s = _new(Scalar)
    s.num, s.den, s._hash, s._fac = num, den, None, fac
    return s


def _factored(s):
    """(c, k, mult) with s.den = c q^k prod Phi_n^m, or False when den has
    another factor; computed on first use and kept on s."""
    f = s._fac
    if f is None:
        f = s._fac = _den_factors(s.den)
    return f


def _reduced(num, den, f, cands):
    """Canonical num / den for den = c q^k prod Phi_n^m (f = (c, k, mult);
    den None to build it), when a common factor of num and den can only be
    a q-power, an integer or one of the Phi_n^m listed in cands."""
    c, k, mult = f
    changed = den is None
    if cands:
        left = None
        for n, m in cands:
            num, j = _phi_divide_out(num, n, m)
            if j:
                if left is None:
                    left = dict(mult)
                if left[n] == j:
                    del left[n]
                else:
                    left[n] -= j
        if left is not None:
            mult = tuple(sorted(left.items()))
            changed = True
    if k:
        t = min(min(num), k)
        if t:
            num = {e - t: v for e, v in num.items()}
            k -= t
            changed = True
    if c != 1:
        g = math.gcd(_pcontent(num), c)
        if g > 1:
            num = {e: v // g for e, v in num.items()}
            c //= g
            changed = True
    if changed:
        f = (c, k, mult)
        den = _den_of(c, k, mult)
    return _make(num, den, f)


def _add_over_lcm(n1, f1, n2, f2):
    """n1/d1 + n2/d2 over lcm(d1, d2), both denominators factored
    (monomials c q^k too)."""
    c1, k1, m1 = f1
    c2, k2, m2 = f2
    lcm = dict(m1)
    up1, cands = [], []
    for n, m in m2:
        have = lcm.get(n, 0)
        if m > have:
            up1.append((n, m - have))
            lcm[n] = m
        elif m == have:
            # with unequal multiplicities Phi_n divides exactly one term
            cands.append((n, m))
    have2 = dict(m2)
    up2 = [(n, lcm[n] - have2.get(n, 0)) for n, _ in m1
           if lcm[n] > have2.get(n, 0)]
    c = c1 * c2 // math.gcd(c1, c2)
    k = max(k1, k2)
    num = dict(_cofactor(n1, up1, c // c1, k - k1))
    for e, v in _cofactor(n2, up2, c // c2, k - k2).items():
        num[e] = num.get(e, 0) + v
    num = _strip(num)
    if not num:
        return _ZERO
    return _reduced(num, None, (c, k, tuple(sorted(lcm.items()))), cands)


def _cofactor(p, up, c, k):
    """p times c q^k prod Phi_n^m over up."""
    if up:
        p = _pmul(p, _phi_product(tuple(up)))
    if c != 1 or k:
        p = {e + k: v * c for e, v in p.items()}
    return p


def _product(a, b):
    n1, n2 = a.num, b.num
    if not n1 or not n2:
        return _ZERO
    d1, d2 = a.den, b.den
    if len(d2) == 1 and len(n2) == 1:
        (e, v), = n2.items()
        (k, c), = d2.items()
        if c == 1 and (v == 1 or v == -1):
            return _times_unit(a, v, e - k)
    if len(d1) == 1 and len(n1) == 1:
        (e, v), = n1.items()
        (k, c), = d1.items()
        if c == 1 and (v == 1 or v == -1):
            return _times_unit(b, v, e - k)
    f1, f2 = _factored(a), _factored(b)
    if f1 is False or f2 is False:
        return Scalar(_pmul(n1, n2), _pmul(d1, d2))
    c1, k1, m1 = f1
    c2, k2, m2 = f2
    # a Phi_n of one denominator can only cancel against the other
    # numerator, and not at all when it divides both denominators
    have1, have2 = dict(m1), dict(m2)
    mult = {}
    for n, m in m1:
        if n in have2:
            mult[n] = m + have2[n]
        else:
            n2, j = _phi_divide_out(n2, n, m)
            if j < m:
                mult[n] = m - j
    for n, m in m2:
        if n not in have1:
            n1, j = _phi_divide_out(n1, n, m)
            if j < m:
                mult[n] = m - j
    return _reduced(_pmul(n1, n2), None,
                    (c1 * c2, k1 + k2, tuple(sorted(mult.items()))), ())


def _times_unit(s, sign, j):
    """s * sign * q^j: shift exponents; only q-powers can cancel."""
    if j == 0 and sign == 1:
        return s
    num, den, f = s.num, s.den, s._fac
    a, b = (j, 0) if j >= 0 else (0, -j)
    t = min(min(num) + a, (f[1] if f else min(den)) + b)
    a -= t
    b -= t
    if a or sign != 1:
        num = {e + a: sign * v for e, v in num.items()}
    if b:
        den = {e + b: v for e, v in den.items()}
        if f:
            f = (f[0], f[1] + b, f[2])
    return _make(num, den, f)


def _reciprocal(s):
    """den/num: still reduced; only the sign may need to move."""
    num, den = s.den, s.num
    if _plc(den) < 0:
        num = {e: -v for e, v in num.items()}
        den = {e: -v for e, v in den.items()}
    return _make(num, den, None)


def _normalize(num, den):
    """(num, den, factorization of den or None) in canonical form."""
    num, den = _strip(num), _strip(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {0: 1}, _UNIT
    # clear common power of q
    s = min(min(num), min(den))
    if s:
        num = {e - s: v for e, v in num.items()}
        den = {e - s: v for e, v in den.items()}
    if _plc(den) < 0:
        num = {e: -v for e, v in num.items()}
        den = {e: -v for e, v in den.items()}
    f = _den_factors(den)
    if f is not False:
        r = _reduced(num, den, f, f[2])
        return r.num, r.den, r._fac
    g = _pgcd(num, den)
    if g != {0: 1}:
        num = _pdiv_exact(num, g)
        den = _pdiv_exact(den, g)
    c = math.gcd(_pcontent(num), _pcontent(den))
    if c > 1:
        num = {e: v // c for e, v in num.items()}
        den = {e: v // c for e, v in den.items()}
    return num, den, None


_ZERO = Scalar.from_int(0)
ZERO = _ZERO
ONE = Scalar.from_int(1)
# k -> q^k, filled by Scalar.q_power; never cleared, as a process meets few
# exponents
_Q_POWERS = {0: ONE}


def common_denominator(values):
    """Put Scalars over one denominator L: returns (nums, inv) with integer
    exponent maps nums (nonnegative exponents) and the Scalar inv = 1/L,
    so that values[i] = nums[i] * inv.

    L is the least common denominator c q^k prod Phi_n^m, merged from the
    factorization each Scalar keeps of its denominator (the lcm of the c,
    the largest k and the largest multiplicity of each Phi_n).  If some
    denominator has another factor, L is the product of the distinct
    denominators instead, which is common but not least."""
    facs = [_factored(s) for s in values]
    if False in facs:
        dens = []
        for s in values:
            if s.den not in dens:
                dens.append(s.den)
        den = {0: 1}
        for d in dens:
            den = _pmul(den, d)
        nums = [_pmul(s.num, _pdiv_exact(den, s.den)) for s in values]
        return nums, Scalar({0: 1}, den)
    c, k, mult = 1, 0, {}
    for fc, fk, fm in facs:
        c = c * fc // math.gcd(c, fc)
        k = max(k, fk)
        for n, m in fm:
            if m > mult.get(n, 0):
                mult[n] = m
    if c == 1 and not k and not mult:
        return [s.num for s in values], ONE
    nums = []
    for s, (fc, fk, fm) in zip(values, facs):
        have = dict(fm)
        up = tuple((n, m - have.get(n, 0)) for n, m in sorted(mult.items())
                   if m > have.get(n, 0))
        nums.append(_cofactor(s.num, up, c // fc, k - fk))
    f = (c, k, tuple(sorted(mult.items())))
    return nums, _make({0: 1}, _den_of(*f), f)


def laurent_product(p, factors):
    """The Scalar p * prod(factors) for a nonzero Laurent exponent map p
    (no zero coefficients), by one reduction: the numerators are
    multiplied out over the product of the factored denominators, and only
    the Phi_n of that product, a q-power and an integer can cancel.  A
    factor whose denominator has another factor falls back to products."""
    facs = [_factored(s) for s in factors]
    if False in facs:
        out = _laurent(p)
        for s in factors:
            out = out * s
        return out
    c, k, mult = 1, 0, {}
    for s, (fc, fk, fm) in zip(factors, facs):
        if not s.num:
            return _ZERO
        if s.num != {0: 1}:
            p = _pmul(p, s.num)
        c *= fc
        k += fk
        for n, m in fm:
            mult[n] = mult.get(n, 0) + m
    lo = min(p)
    if lo < 0:
        p = {e - lo: v for e, v in p.items()}
        k -= lo
    f = (c, k, tuple(sorted(mult.items())))
    return _reduced(p, None, f, f[2])


# ---------------------------------------------------------------------------
# q-combinatorics: each constant's Laurent numerator is an exponent map
# multiplied out with _pmul; one Scalar is made at the end

def _laurent(p):
    """The Scalar of a Laurent polynomial p (an exponent map without zero
    coefficients): a negative lowest exponent is cleared into a q^k
    denominator."""
    s = min(p) if p else 0
    if s >= 0:
        return _make(p, {0: 1}, _UNIT)
    return _make({e - s: v for e, v in p.items()}, {-s: 1}, (1, -s, ()))


def _qint(n, d):
    """Exponent map of [n] with q replaced by q^d."""
    sign, m = (1, n) if n > 0 else (-1, -n)
    return {d * (m - 1 - 2 * k): sign for k in range(m)}


def _qfact(n, d):
    p = {0: 1}
    for k in range(2, n + 1):
        p = _pmul(p, _qint(k, d))
    return p


def qint(n: int, d: int = 1) -> Scalar:
    """Balanced q-integer (q^n - q^-n)/(q - q^-1) with q replaced by q^d."""
    return _laurent(_qint(n, d))


def qfact(n: int, d: int = 1) -> Scalar:
    """[n]! = [2][3]...[n] (1 for n < 2) with q replaced by q^d."""
    return _laurent(_qfact(n, d))


@lru_cache(maxsize=None)
def qdiff_inverse(d: int) -> Scalar:
    """1 / (q^d - q^-d), the factor of every e-f commutator term; built
    once per d and shared."""
    return (Scalar.q_power(d) - Scalar.q_power(-d)).inverse()


def qbinom(n: int, m: int) -> Scalar:
    """Balanced q-binomial coefficient; m >= 0, n may be negative."""
    if m < 0:
        raise ValueError("qbinom needs m >= 0")
    num = {0: 1}
    for k in range(m):
        num = _pmul(num, _qint(n - k, 1))
    return Scalar(num, _qfact(m, 1))


def c_const(n: int, d: int = 1) -> Scalar:
    """[n]! q^{-n(n-1)/2} (q-q^{-1})^{-n} with q replaced by q^d."""
    if n < 0:
        raise ValueError("c_const needs n >= 0")
    shift = -d * (n * (n - 1) // 2)
    den = {0: 1}
    for _ in range(n):
        den = _pmul(den, {d: 1, -d: -1})
    return Scalar({e + shift: v for e, v in _qfact(n, d).items()}, den)


def d_const(n: int, d: int = 1) -> Scalar:
    """q^{n(n+1)/2} (q^{-1}-q)^n with q replaced by q^d."""
    if n < 0:
        raise ValueError("d_const needs n >= 0")
    p = {d * (n * (n + 1) // 2): 1}
    for _ in range(n):
        p = _pmul(p, {-d: 1, d: -1})
    return _laurent(p)
