"""Exact replay of float plans, in rational arithmetic (standard library only).

Every finite float is a rational number, so the system's entries, the
controls of a plan and its endpoints convert to ``Fraction`` without loss.
Replayed in ``Fraction``, a plan has no round-off: the landing error is the
plan's true miss, and the step matrices and states are the true ones.  The
same conversion decides exactly whether two inputs share a left null
direction, the premise of the two-step construction.
"""

from fractions import Fraction


def _matrix(m):
    return tuple(map(Fraction, (m.a11, m.a12, m.a21, m.a22)))


def exact_landing(sys, xi, eta, steps):
    """(miss^2, reach^2) of the plan ``steps`` replayed exactly from xi:
    miss = |x_end - eta| and reach = max(|eta|, max_k |M_k|_F |x_k|), where
    M_k = A + sum u_i B_i is the matrix of step k and x_k the state it is
    applied to.  Squares, so that no square root is taken."""
    drift = _matrix(sys.drift) if sys.drift is not None else (Fraction(0),) * 4
    inputs = [_matrix(b) for b in sys.inputs]
    x, y = Fraction(xi.x), Fraction(xi.y)
    reach2 = Fraction(eta.x) ** 2 + Fraction(eta.y) ** 2
    for u in steps:
        m = list(drift)
        for ui, b in zip(map(Fraction, u), inputs):
            m = [mij + ui * bij for mij, bij in zip(m, b)]
        reach2 = max(reach2, sum(e * e for e in m) * (x * x + y * y))
        x, y = m[0] * x + m[1] * y, m[2] * x + m[3] * y
    miss2 = (x - Fraction(eta.x)) ** 2 + (y - Fraction(eta.y)) ** 2
    return miss2, reach2


def lands_within(sys, xi, eta, steps, c: float) -> bool:
    """Whether the exact replay of ``steps`` from xi misses eta by at most
    c * max(reach, 2^-1042), the acceptance bound of ``verify_plan`` with
    constant c."""
    miss2, reach2 = exact_landing(sys, xi, eta, steps)
    return miss2 <= Fraction(c) ** 2 * max(reach2, Fraction(2) ** -2084)


def share_left_null_direction(b1, b2) -> bool:
    """Whether some nonzero w has w^T B1 = w^T B2 = 0: the 2x4 matrix [B1 B2]
    has rank at most one, so each of its 2x2 minors vanishes."""
    top = _matrix(b1)[:2] + _matrix(b2)[:2]
    bottom = _matrix(b1)[2:] + _matrix(b2)[2:]
    return all(top[i] * bottom[j] == top[j] * bottom[i]
               for i in range(4) for j in range(i + 1, 4))
