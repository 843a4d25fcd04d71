"""Q[x] on lists of Fractions: the arithmetic that RatPoly ran before it
kept integer numerators over one denominator, kept as the oracle its
integer form is checked against.  A polynomial is a list of Fractions,
constant term first, with no trailing zero; the zero polynomial is []."""

from fractions import Fraction


def trim(cs) -> list:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def add(a, b) -> list:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n)])


def sub(a, b) -> list:
    return add(a, [-c for c in b])


def mul(a, b) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def divmod_(a, b) -> tuple:
    """(q, r) with a = q*b + r and deg r < deg b, by long division over Q."""
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    d, lc = len(b) - 1, b[-1]
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < d:
            break
        k = len(r) - 1 - d
        c = r[-1] / lc
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
    return trim(q), trim(r)


def deriv(a) -> list:
    return trim([i * c for i, c in enumerate(a)][1:])


def evaluate(a, x) -> Fraction:
    x, out = Fraction(x), Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def compose_linear(a, s, t) -> list:
    """a(s*X + t), by Horner's rule on coefficient lists."""
    s, t = Fraction(s), Fraction(t)
    out: list = []
    for c in reversed(a):
        out = [t * x + s * y for x, y in zip(out + [0], [0] + out)]
        out[0] += c
    return trim(out)


def monic(a) -> list:
    return [c / a[-1] for c in a]


def render(a) -> str:
    """The text of a polynomial, highest term first, each term after its
    sign ("X^2 - 3/2*X - 1"), as RatPoly prints it."""
    terms = []
    for i, c in reversed(list(enumerate(a))):
        if c == 0:
            continue
        body = str(abs(c))
        if i:
            xs = "X" if i == 1 else f"X^{i}"
            body = xs if abs(c) == 1 else f"{body}*{xs}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    head = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return " ".join([head] + [f"{sign} {body}" for sign, body in terms[1:]])
