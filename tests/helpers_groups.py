"""Brute-force finite p-group utilities for oracle tests.

Work directly with element tuples and the pc-group multiplication table;
no layer structure or linear algebra is used, so these are independent of
the library's powerful-group test.
"""

from itertools import product


def all_elements(G):
    """All exponent tuples, lexicographic."""
    return [tuple(t) for t in product(range(G.p), repeat=G.ngens)]


def word_of(expo):
    return tuple((i + 1, e) for i, e in enumerate(expo) if e)


def expo_of(G, word):
    out = [0] * G.ngens
    for g, e in word:
        out[g - 1] = e
    return tuple(out)


def mult_expo(G, t1, t2):
    return expo_of(G, G.mult(word_of(t1), word_of(t2)))


def closure(G, gens):
    """Subgroup generated by the given exponent tuples."""
    ident = (0,) * G.ngens
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mult_expo(G, x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def element_inverse(G, x):
    return expo_of(G, G.inverse(word_of(x)))


def element_power(G, x, e):
    return expo_of(G, G.power_word(word_of(x), e))


def commutator(G, x, y):
    xi, yi = element_inverse(G, x), element_inverse(G, y)
    return mult_expo(G, mult_expo(G, xi, yi), mult_expo(G, x, y))


def brute_is_powerful(G):
    """Definitional check: S/S^p abelian (odd p) or S/S^4 abelian (p = 2),
    with S^p (or S^4) the subgroup generated by all p-th (4th) powers.

    The power subgroup N is verbal, hence normal, so [S,S] <= N holds as
    soon as the commutators of a generating set lie in N; pc generators
    suffice for the containment test."""
    e = G.p if G.p != 2 else 4
    elems = all_elements(G)
    powers = {element_power(G, x, e) for x in elems}
    agreeable = closure(G, powers)
    gens = []
    for i in range(G.ngens):
        t = [0] * G.ngens
        t[i] = 1
        gens.append(tuple(t))
    for x in gens:
        for y in gens:
            if commutator(G, x, y) not in agreeable:
                return False
    return True


def all_subgroups(G):
    """Every subgroup (as a frozenset of tuples), by closure saturation."""
    elems = all_elements(G)
    ident = (0,) * G.ngens
    subgroups = {frozenset([ident])}
    frontier = [frozenset([ident])]
    while frontier:
        new = []
        for H in frontier:
            for g in elems:
                if g in H:
                    continue
                H2 = frozenset(closure(G, set(H) | {g}))
                if H2 not in subgroups:
                    subgroups.add(H2)
                    new.append(H2)
        frontier = new
    return subgroups


def min_generators(G, H):
    """d(H) = log_p |H / H^p [H,H]| for a subgroup given as a set."""
    H = set(H)
    frat_gens = {element_power(G, x, G.p) for x in H}
    for x in H:
        for y in H:
            frat_gens.add(commutator(G, x, y))
    frat = closure(G, frat_gens)
    index = len(H) // len(frat)
    d = 0
    while G.p**d < index:
        d += 1
    assert G.p**d == index
    return d
