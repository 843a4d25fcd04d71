"""Distinct-degree factoring over F_p with no evaluation: the gcd route at
every degree, d = 1 included, as poly._distinct_degree ran before it read
the roots of a small p*deg by evaluating at every residue.  It is the
oracle the evaluation route is checked against, and factor_mod_p and
distinct_degree_shape are rebuilt on it."""

from qdescent import poly
from qdescent.poly import (mp_divmod_monic, mp_gcd, mp_pow_mod, mp_sub,
                           mp_trim)


def distinct_degree(a, p):
    """[(product of the irreducibles of degree d, d)] for a squarefree
    monic a over F_p: h = X^(p^d) rem f, one power by p per degree, and
    gcd(h - X, f), f what is left of a."""
    out, h, f, d = [], [0, 1], a, 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = mp_pow_mod(h, p, f, p)
        g = mp_gcd(mp_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = mp_divmod_monic(f, g, p)[0]
            if len(f) > 1:
                h = mp_divmod_monic(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def factor_mod_p(a, p):
    """poly.factor_mod_p with the distinct-degree stage above."""
    a = mp_trim([c % p for c in a])
    if len(a) <= 1:
        return []
    return sorted(((irr, mult) for g, mult in poly._sqfree_decomp(a, p)
                   for h, d in distinct_degree(g, p)
                   for irr in poly._equal_degree_split(h, d, p)),
                  key=lambda t: (len(t[0]), t[0]))


def distinct_degree_shape(a, p):
    """poly.distinct_degree_shape with the distinct-degree stage above."""
    return tuple(sorted(d for g, d in distinct_degree(a, p)
                        for _ in range((len(g) - 1) // d)))
