"""Factoring over F_p by Yun's squarefree decomposition first, as
poly.factor_mod_p did before it read the roots mod p and their
multiplicities from one evaluation: every input takes gcd(a, a') and Yun's
loop (von zur Gathen and Gerhard, Modern Computer Algebra, 14.6), then
distinct-degree factoring of each squarefree part (poly._distinct_degree
with its own evaluation of the roots), then poly._equal_degree_split.  The
squarefree stage is kept here as it was, so that it is the oracle the
evaluation route is checked against whatever poly._sqfree_decomp becomes."""

from qdescent import poly
from qdescent.poly import (mp_deriv, mp_divmod_monic, mp_gcd, mp_scal,
                           mp_trim)


def sqfree_decomp(a, p):
    """[(monic squarefree part, multiplicity)] of a over F_p, by Yun's loop
    on g = gcd(a, a'); what the loop leaves of g is h(X^p), so g = h^p with
    h = g[::p], decomposed in turn."""
    a = mp_scal(a, pow(a[-1], -1, p), p)
    g = mp_gcd(a, mp_deriv(a, p), p)
    if len(g) == 1:
        return [(a, 1)]
    out = []
    w = mp_divmod_monic(a, g, p)[0]
    i = 1
    while len(w) > 1:
        y = mp_gcd(w, g, p)
        z = mp_divmod_monic(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        g = mp_divmod_monic(g, y, p)[0]
        w = y
        i += 1
    if len(g) > 1:
        out += [(h, m * p) for h, m in sqfree_decomp(g[::p], p)]
    return out


def factor_mod_p(a, p):
    """poly.factor_mod_p by the route above: squarefree parts, then
    distinct degrees, then equal-degree splitting, sorted by degree, then
    coefficients."""
    a = mp_trim([c % p for c in a])
    if len(a) <= 1:
        return []
    return sorted(((irr, mult) for g, mult in sqfree_decomp(a, p)
                   for h, d in poly._distinct_degree(g, p)
                   for irr in poly._equal_degree_split(h, d, p)),
                  key=lambda t: (len(t[0]), t[0]))
