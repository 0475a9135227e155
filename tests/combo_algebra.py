"""Sums and scalings of Jordan combinations and Laurent tables, for tests only.

The builders never add or scale published combinations: they sum integer
numerators before expanding.  Tests use these plain ``Fraction`` versions as
references and for block identities.  Every function returns a fresh value
with no zero coefficient and no empty combination.
"""

from fractions import Fraction


def jc_add(a, b):
    out = dict(a)
    for s, c in b.items():
        v = out.get(s, Fraction(0)) + c
        if v:
            out[s] = v
        else:
            out.pop(s, None)
    return out


def jc_scale(a, c):
    if not c:
        return {}
    return {s: v * c for s, v in a.items()}


def kl_add(a, b):
    out = {e: dict(combo) for e, combo in a.items()}
    for e, combo in b.items():
        merged = jc_add(out.get(e, {}), combo)
        if merged:
            out[e] = merged
        else:
            out.pop(e, None)
    return out
