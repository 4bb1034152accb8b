"""Signed decomposition of a simplicial cone into unimodular half-open cones.

The recursion replaces one generator at a time by a short lattice vector w
found through LLL reduction of det(V) * V^-1 Z^d, which shrinks the index
|det| of every child cone. Exchanging generator i for w = V @ alpha yields
the classical identity

    [C] = sum over {i : alpha_i != 0} of sign(alpha_i) [C_i]

valid away from finitely many hyperplanes, provided some alpha_i is
positive (otherwise -w is used). It is turned into an identity of actual
indicator functions by half-opening every cone with respect to one generic
reference direction xi: a facet stays closed exactly when its inner normal
has positive inner product with xi. Taking xi = V·(±1), +1 on the closed
and -1 on the open generators of C, reproduces the input openness on C's
own facets, so the final signed sum equals [C] pointwise, with every output
cone unimodular and sharing the apex of C. Where xi lies on a facet
hyperplane, a lexicographic perturbation of xi decides the facet, so this
one xi serves every input. The decomposition is thus a function of the
cone alone.

Every node reads ``(adj, d) = (det V * V^-1, det V)`` from
``exactmath.inverse``; a leaf sorts its primitive generators first, so its
later ``enum_fundpar`` finds the same matrix there.
"""

from __future__ import annotations

from .cones import ConeCombination, SymbolicCone, _canonical_cone, canonicalize
from .exactmath import IntMat, IntVec, inverse, lll_reduce, mat_vec, prim, vec_dot


def index(c: SymbolicCone) -> int:
    """Number of lattice points in the fundamental parallelepiped, |det V|."""
    if c.dim != c.ambient_dim:
        raise ValueError("index requires a full-dimensional cone")
    return abs(inverse(c.generators)[1])


def _openness_from_direction(generators: IntMat, xi: IntVec) -> tuple[int, ...]:
    """Closure rule: facet j is closed iff its inner normal sees xi positively.

    The inner normal of facet j is row j of V^-1 (up to positive scale).
    ``generators`` is square and non-singular, and row j of adj = d * V^-1
    has the signs of d times that normal, so bit j is read off
    d * (row_j . xi).

    Where row_j . xi = 0, xi lies on the hyperplane of facet j, and the bit
    is that of the lexicographic perturbation xi + eps e_1 + eps^2 e_2 + ...
    (Koeppe and Verdoolaege 2008): the sign of d times the first non-zero
    entry of row j. The perturbation is the same for every cone, so it acts
    as one generic direction for the whole decomposition.
    """
    adj, d = inverse(generators)
    values = (vec_dot(row, xi) or next(a for a in row if a) for row in zip(*adj))
    return tuple(0 if value * d > 0 else 1 for value in values)


def _shortest_exchange_vector(generators: IntMat) -> tuple[IntVec, IntVec, int]:
    """Return (w, alpha_scaled, d) with w = V @ alpha_scaled / d integral.

    alpha_scaled is the sup-norm shortest column of the LLL-reduced basis of
    the lattice L = d * V^-1 Z^n (ties broken lexicographically);
    |alpha_scaled_i| is the index of the child that replaces generator i, so
    max |alpha_scaled_i| must drop below |d| for the recursion to make
    progress. If no reduced column does, alpha_scaled is the sup-shortest
    centred residue mod |d| (entries in (-|d|/2, |d|/2]) of the reduced
    columns that are non-zero mod d. The residue lies in L, as L contains
    d * V^-1 (V Z^n) = dZ^n; such a column exists, as dZ^n has index |d|
    in L and |d| > 1 here. Every child index is then at most |d|/2.
    """
    adj, d = inverse(generators)
    reduced = lll_reduce(adj)
    target = abs(d)

    def key(v: IntVec) -> tuple[int, IntVec]:
        return max(abs(x) for x in v), v

    best = min(reduced, key=key)
    if key(best)[0] >= target:
        # LLL's worst-case factor can miss strict descent on tiny indices
        half = target // 2
        best = min(
            (tuple(half - (half - x) % target for x in v)
             for v in reduced if any(x % target for x in v)),
            key=key,
        )
    w = mat_vec(generators, best)
    if any(x % d for x in w):
        raise AssertionError("exchange vector is not integral")
    return tuple(x // d for x in w), best, d


def _decompose_with_direction(
    c: SymbolicCone, root_det: int, xi: IntVec, index_threshold: int
) -> ConeCombination:
    """Depth-first exchange recursion; every stack entry carries det(gens).

    Replacing generator i by w = V @ alpha_scaled / d multiplies the
    determinant by alpha_scaled_i / d, so det(child_i) == alpha_scaled_i.
    Each child is pushed with that value; ``root_det`` is det(c.generators).
    """
    out = ConeCombination()
    stack: list[tuple[IntMat, int, int]] = [(c.generators, root_det, 1)]
    while stack:
        gens, d, sign = stack.pop()
        if abs(d) <= index_threshold:
            # d != 0 (every child has index |alpha_i| > 0), so the columns
            # are independent and the leaf needs no validation; bits
            # travel with their columns, so sorting first changes none
            gens = tuple(sorted(prim(g) for g in gens))
            bits = _openness_from_direction(gens, xi)
            _, leaf = _canonical_cone(gens, c.num, c.den, bits)
            out.add(leaf, sign)
            continue
        w, alpha_scaled, d = _shortest_exchange_vector(gens)
        sign_d = 1 if d > 0 else -1
        if not any(a * sign_d > 0 for a in alpha_scaled):
            # the exchange identity needs w on the positive side; use -w
            w = tuple(-x for x in w)
            alpha_scaled = tuple(-a for a in alpha_scaled)
        parent_index = abs(d)
        for i, a in enumerate(alpha_scaled):
            if a == 0:
                continue
            if abs(a) >= parent_index:
                raise AssertionError("child index did not decrease")
            child = tuple(w if j == i else gens[j] for j in range(len(gens)))
            child_sign = 1 if a * sign_d > 0 else -1
            stack.append((child, a, sign * child_sign))
    return out


def barvinok_decompose(
    c: SymbolicCone,
    index_threshold: int = 1,
    _unused: object = None,  # bench/tracing.py still passes a third argument
) -> ConeCombination:
    """Write [C] as an exact signed sum of low-index half-open cones.

    Every output cone keeps the apex of C and has |det| at most
    ``index_threshold`` (1 by default, i.e. fully unimodular). The reference
    direction is xi = V·(±1), +1 on closed and -1 on open generators: row j
    of V^-1 sends it to the j-th weight, so its sign pattern on the facets
    of C is C's own openness and the input cone needs no separate openness
    correction. A facet hyperplane met during the recursion that contains xi
    is settled by a lexicographic perturbation of xi (see
    ``_openness_from_direction``).
    """
    if c.dim != c.ambient_dim:
        raise ValueError("decomposition requires a full-dimensional cone")
    if index_threshold < 1:
        raise ValueError("index_threshold must be at least 1")
    c = canonicalize(c)
    root_det = inverse(c.generators)[1]
    if abs(root_det) <= index_threshold:
        return ConeCombination({c: 1})
    weights = tuple(1 if bit == 0 else -1 for bit in c.openness)
    return _decompose_with_direction(c, root_det, mat_vec(c.generators, weights), index_threshold)


def decompose_combination(
    combination: ConeCombination, index_threshold: int = 1
) -> ConeCombination:
    """Decompose every cone of a combination and collect the results."""
    out = ConeCombination()
    for c, mult in combination.items():
        for leaf, sign in barvinok_decompose(c, index_threshold).items():
            out.add(leaf, mult * sign)
    return out
