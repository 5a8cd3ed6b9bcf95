"""Permutations, orbits with Schreier trees, and exact group order.

Orders come from a deterministic Schreier-Sims stabilizer chain with explicit
transversals; permutation composition is delegated to numpy fancy indexing so
degrees up to 10^4+1 stay cheap.
"""

import numpy as np

from ..errors import ParameterError


class Permutation:
    """Bijection of 0..deg-1, stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(map(int, images))
        n = len(imgs)
        # n distinct images inside 0..n-1 are a bijection
        if imgs and (min(imgs) < 0 or max(imgs) >= n) or len(set(imgs)) != n:
            raise ParameterError("images are not a bijection of 0..deg-1")
        self.images = imgs

    @classmethod
    def identity(cls, degree: int):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles):
        imgs = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                imgs[a] = b
        return cls(imgs)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(x) = self(other(x))."""
        return Permutation(tuple(self.images[x] for x in other.images))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def _check_degrees(gens):
    degs = {g.degree for g in gens}
    if len(degs) > 1:
        raise ParameterError("generators act on different degrees")
    return degs.pop() if degs else None


def schreier_tree(gens, base: int):
    """BFS orbit of `base` and its Schreier tree, as int64 arrays.

    Returns (orbit, parent, gen, sign): orbit[0] is `base`, and for i >= 1
    orbit point orbit[i] is reached from parent[i-1] by gens[gen[i-1]]
    (sign +1) or by its inverse (sign -1).  The search is level by level:
    the images of the whole frontier, in frontier order and within a point
    in the order g0, g0^-1, g1, g1^-1, ..., are taken at once, and a point
    new to the orbit enters at its first occurrence.  That is the order of
    a point-by-point BFS that tries the generators in index order,
    positive direction before negative, so the tree (and everything built
    from it) is deterministic.
    """
    degree = _check_degrees(gens)
    if degree is None or not 0 <= base < degree:
        raise ParameterError("base point outside the permutation degree")
    width = 2 * len(gens)
    moves = np.empty((degree, width), dtype=np.int64)
    for i, g in enumerate(gens):
        img = np.array(g.images, dtype=np.int64)
        moves[:, 2 * i] = img
        moves[img, 2 * i + 1] = np.arange(degree)
    seen = np.zeros(degree, dtype=bool)
    seen[base] = True
    # a point is a candidate at one level only, as every candidate is found
    # there, so `first` (least position of each candidate) needs no reset
    first = np.full(degree, degree * width)
    frontier = np.array([base], dtype=np.int64)
    orbit, parent, move = [frontier], [frontier[:0]], [frontier[:0]]
    while True:
        images = moves[frontier].ravel()
        fresh = np.flatnonzero(~seen[images])
        if not fresh.size:
            break
        np.minimum.at(first, images[fresh], fresh)
        found = fresh[first[images[fresh]] == fresh]
        parent.append(frontier[found // width])
        move.append(found % width)
        frontier = images[found]
        seen[frontier] = True
        orbit.append(frontier)
    move = np.concatenate(move)
    return np.concatenate(orbit), np.concatenate(parent), move // 2, 1 - 2 * (move % 2)


def orbit_and_transversal(gens, base: int):
    """BFS orbit of `base` (a list) plus a Schreier tree (a dict).

    The tree maps each non-base orbit point to (parent, generator index,
    sign); sign +1 means gens[i] carries parent to the point, -1 means the
    inverse does.  The order is that of `schreier_tree`.
    """
    orbit, parent, gen, sign = schreier_tree(gens, base)
    orbit = orbit.tolist()
    return orbit, dict(zip(orbit[1:], zip(parent.tolist(), gen.tolist(), sign.tolist())))


def transversal_word(tree, point: int):
    """Letters (gen index, sign) carrying the orbit base to `point`."""
    path = []
    while point in tree:
        parent, i, sign = tree[point]
        path.append((i, sign))
        point = parent
    return list(reversed(path))


class _Level:
    __slots__ = ("base", "gens", "orbit")

    def __init__(self, base):
        self.base = base
        self.gens = []  # generators first reduced to exactly this depth
        self.orbit = {}

    def close(self, ident, gens):
        """Recompute orbit and transversal under the given generator set."""
        orbit = {self.base: ident}
        frontier = [self.base]
        while frontier:
            nxt = []
            for pt in frontier:
                u = orbit[pt]
                for g in gens:
                    img = int(g[pt])
                    if img not in orbit:
                        orbit[img] = g[u]
                        nxt.append(img)
            frontier = nxt
        self.orbit = orbit


def schreier_sims_order(gens) -> int:
    """Exact order of the permutation group generated by `gens`.

    Deterministic Schreier-Sims: a level is re-verified whenever any deeper
    level changes, so on exit every Schreier generator of every level strips
    to the identity and the order is the product of the orbit sizes.
    """
    order, complete = _chain_order(gens, early_bound=None)
    assert complete
    return order


def group_order_equals(gens, target: int, proper_bound: int = None) -> bool:
    """Decide |<gens>| == target cheaply when an overgroup bound is known.

    `proper_bound` must be an upper bound for the order of every *proper*
    subgroup of the ambient group of order `target` that contains <gens>
    (default target // 2, valid whenever the ambient group has no subgroup
    of index < 2).  The partial product of orbit sizes in a stabilizer
    chain never overcounts, so once it exceeds the bound the group is the
    full ambient group and the chain need not be completed.
    """
    if proper_bound is None:
        proper_bound = target // 2
    order, complete = _chain_order(gens, early_bound=proper_bound)
    return order == target if complete else True


def _chain_order(gens, early_bound):
    degree = _check_degrees(gens)
    if degree is None:
        return 1, True
    ident = np.arange(degree, dtype=np.int64)
    arrays = [np.array(g.images, dtype=np.int64) for g in gens]
    arrays = [a for a in arrays if not np.array_equal(a, ident)]
    if not arrays:
        return 1, True

    levels = []

    def cumulative_gens(d):
        """The stabilizer of bases 0..d-1 is generated by everything first
        reduced to depth d or deeper."""
        return [g for lvl in levels[d:] for g in lvl.gens]

    def lower_bound():
        n = 1
        for lvl in levels:
            n *= len(lvl.orbit)
        return n

    def strip(g, start):
        """Reduce g through levels[start:]; return (residue, stuck level)."""
        for d in range(start, len(levels)):
            lvl = levels[d]
            img = int(g[lvl.base])
            if img == lvl.base:
                continue
            u = lvl.orbit.get(img)
            if u is None:
                return g, d
            uinv = np.empty_like(u)
            uinv[u] = ident
            g = uinv[g]
        return g, len(levels)

    def add_at(g, d):
        if d == len(levels):
            moved = int(np.nonzero(g != ident)[0][0])
            levels.append(_Level(moved))
        levels[d].gens.append(g)
        for j in range(d + 1):
            levels[j].close(ident, cumulative_gens(j))

    for g in arrays:
        residue, d = strip(g, 0)
        if not np.array_equal(residue, ident):
            add_at(residue, d)
            if early_bound is not None and lower_bound() > early_bound:
                return lower_bound(), False

    i = len(levels) - 1
    while i >= 0:
        lvl = levels[i]
        lvl.close(ident, cumulative_gens(i))
        gens_i = cumulative_gens(i)
        clean = True
        for pt, u in list(lvl.orbit.items()):
            for g in gens_i:
                ug = g[u]
                img = int(g[pt])
                v = lvl.orbit[img]
                vinv = np.empty_like(v)
                vinv[v] = ident
                s = vinv[ug]  # Schreier generator; fixes all bases up to i
                if np.array_equal(s, ident):
                    continue
                residue, d = strip(s, i + 1)
                if not np.array_equal(residue, ident):
                    add_at(residue, max(d, i + 1))
                    if early_bound is not None and lower_bound() > early_bound:
                        return lower_bound(), False
                    i = max(d, i + 1)
                    clean = False
                    break
            if not clean:
                break
        if clean:
            i -= 1

    return lower_bound(), True
