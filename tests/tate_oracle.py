"""The start of Tate's algorithm before it read the model's integral form,
kept as the oracle that start is checked against: a scaling of its own per
prime, u = 1/(p^k d'), with k the least making every p^(k w) a_w
p-integral and d' the part of the lcm of the denominators prime to p.
The integer algorithm (tate._tate_integral) then runs on that start."""

import math
from fractions import Fraction

from qdescent.arith import valuation
from qdescent.tate import WEIGHTS, _tate_integral


def least_k(m, p: int) -> int:
    """The least k with every p^(k w) a_w p-integral."""
    return max([0] + [-(valuation(a, p) // w)
                      for a, w in zip(m.ainvs(), WEIGHTS) if a])


def reduction(m, p: int):
    """(kodaira symbol, c_p, minimal model's five coefficients, transform)
    of Tate's algorithm at p, started from m scaled by u = 1/(p^k d')."""
    k = least_k(m, p)
    d = math.lcm(*(a.denominator for a in m.ainvs()))
    scale = p ** k * (d // p ** valuation(d, p))
    a = []
    for c, w in zip(m.ainvs(), WEIGHTS):
        q, rem = divmod(c.numerator * scale ** w, c.denominator)
        assert rem == 0
        a.append(q)
    a, (r, s, t, u), local = _tate_integral(
        tuple(a), valuation(m.disc, p) + 12 * k, p)
    v = Fraction(1, scale)
    return (local[0].symbol(), local[3], tuple(a),
            (v * v * r, v * s, v ** 3 * t, v * u))
