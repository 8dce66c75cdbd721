"""The congruence-descent box enumerator that `lattice._box_points` replaced.

Every level walks its whole residue class from the top down and opens a
generator frame for each child whose range is non-empty.  Tests compare the
output-sensitive enumerator against it list for list, order included.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from padicsep.lattice import taylor_matrix


def box_points_oracle(p: int, b: Sequence[int], x: int, radius: int) -> Iterator[tuple[int, ...]]:
    """Nonzero a with sup-norm <= radius and v_p((1/i!)P^(i)(x)) >= b_i, one per +-a pair.

    The representative has its highest-index nonzero coordinate positive.
    Descends from a_n to a_0: at level i the congruence
    a_i = -sum_(j>i) C(j,i) x^(j-i) a_j  mod p^b_i fixes a_i's residue, so
    each level steps by p^b_i.  Every level runs from the top down, so the
    first point yielded has the largest a_n of any point in the box.  Each
    level computes its child's top value, the largest a <= radius in the
    child's residue class, and makes no generator frame for a child whose
    range is empty.  Level 1 emits level 0's residue-class range inline for
    each a_1.
    """
    n = len(b) - 1
    coef = taylor_matrix(x, n)
    mods = [p**bi for bi in b]
    vec = [0] * (n + 1)

    def rec(i: int, top: int, all_zero_above: bool) -> Iterator[tuple[int, ...]]:
        m = mods[i]
        levels = range(top, -1 if all_zero_above else -radius - 1, -m)
        row = coef[i - 1]  # level i-1's offset is base + row[i] a_i
        base = sum(row[j] * vec[j] for j in range(i + 1, n + 1) if vec[j])
        if i > 1:
            m_child, r_i = mods[i - 1], row[i]
            for a in levels:
                child_top = radius - (radius + base + r_i * a) % m_child
                zero = all_zero_above and a == 0
                if child_top > (-1 if zero else -radius - 1):
                    vec[i] = a
                    yield from rec(i - 1, child_top, zero)
            vec[i] = 0
            return
        rest = tuple(vec[2:])
        for a in levels:
            top0 = radius - (radius + base + x * a) % mods[0]
            for a0 in range(top0, 0 if all_zero_above and a == 0 else -radius - 1, -mods[0]):
                yield (a0, a) + rest

    return rec(n, radius - radius % mods[n], True)
