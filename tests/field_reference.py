"""Table-driven scalar arithmetic, the reference for the closed forms.

The package multiplies scalars of F_q and of the Galois ring by the
two-line formulas of ``fields._vec_ops``.  This module keeps the generic
form the tests compare them against: the schoolbook product of two
coordinate tuples, its terms of degree >= d folded back by a table of
x^d .. x^(2d-2) reduced by the modulus.
"""


def reduction_table(modulus, mod: int) -> list[list[int]]:
    """x^d .. x^(2d-2) reduced by the monic modulus, mod `mod`, one row each."""
    d = len(modulus) - 1
    cur = [(-c) % mod for c in modulus[:d]]  # x^d
    rows = []
    for _ in range(d - 1):
        rows.append(cur)
        top = cur[-1]
        cur = [(low + top * r) % mod for low, r in zip([0] + cur[:-1], rows[0])]
    return rows


def vec_ops(modulus, mod: int):
    """add, sub, neg, mul on length-d int tuples mod `mod`, reducing by the table."""
    red = reduction_table(modulus, mod)
    d = len(red) + 1

    def add(a, b):
        return tuple([(x + y) % mod for x, y in zip(a, b)])

    def sub(a, b):
        return tuple([(x - y) % mod for x, y in zip(a, b)])

    def neg(a):
        return tuple([-x % mod for x in a])

    def mul(a, b):
        t = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    t[i + j] += ai * bj
        for k, row in enumerate(red, d):
            if t[k]:
                for j, r in enumerate(row):
                    t[j] += t[k] * r
        return tuple([x % mod for x in t[:d]])

    return add, sub, neg, mul
