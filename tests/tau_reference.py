"""The Drinfeld pairing on pure words by its defining Scalar recursion,
kept in the tests as the reference for qpbw's integral pairing
N(E, F) / D_beta:

    tau(e_{E'} e_j, f_F) =
        sum over positions p with F_p = j of
        q^{-(alpha_j, wt F[p+1:])} / (q_j - q_j^{-1})
        * tau(e_{E'}, f_{F without p}).

It uses no qpbw code beyond CartanType and Scalar."""

from qpbw.scalars import Scalar

ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)

# (type name, eword, fword) -> Scalar, for the life of the test process
_memo = {}


def _content(word, rank):
    return tuple(word.count(i) for i in range(rank))


def tau_words_ref(ct, eword, fword):
    """tau(e_{eword}, f_{fword}) for words (tuples) in the letters of ct."""
    if _content(eword, ct.rank) != _content(fword, ct.rank):
        return ZERO
    if not eword:
        return ONE
    key = (ct.name, eword, fword)
    val = _memo.get(key)
    if val is None:
        j = eword[-1]
        row = ct.form[j]
        d = ct.qi(j)
        inv = (Scalar.q_power(d) - Scalar.q_power(-d)).inverse()
        val = ZERO
        for p, letter in enumerate(fword):
            if letter != j:
                continue
            shift = -sum(row[b] for b in fword[p + 1:])
            sub = tau_words_ref(ct, eword[:-1], fword[:p] + fword[p + 1:])
            val = val + sub * Scalar.q_power(shift) * inv
        _memo[key] = val
    return val
