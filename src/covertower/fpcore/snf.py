"""Integer Smith normal form and abelianization.

Everything runs over Python's arbitrary-precision integers; entry growth
during elimination cannot overflow.
"""

from dataclasses import dataclass

from .words import Presentation


def smith_invariants(rows) -> list:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    res = []
    t = 0
    while True:
        # locate a pivot of least absolute value in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < best):
                    best, pivot = abs(v), (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:  # remainder smaller than pivot: swap up
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if not dirty:
                break
        # force divisibility: pivot must divide every remaining entry
        d = a[t][t]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % d:
                    a[t] = [x + y for x, y in zip(a[t], a[i])]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        res.append(abs(d))
        t += 1
    return res


@dataclass(frozen=True)
class AbelianInvariants:
    """H_1 presented as Z^betti + sum Z/d_i with d1 | d2 | ... (each > 1)."""

    betti: int
    torsion: tuple

    def h1_order(self):
        """|H_1| when finite, else None."""
        if self.betti:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n


def abelianization(pres: Presentation) -> AbelianInvariants:
    inv = smith_invariants(pres.exponent_matrix()) if pres.relators else []
    betti = pres.ngens - len(inv)
    torsion = tuple(d for d in inv if d > 1)
    return AbelianInvariants(betti, torsion)

