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
hyperplane, a lexicographic perturbation of xi decides the facet; being the
same for every cone, it acts as one generic direction, so this one xi serves
every input. The decomposition is thus a function of the cone alone.

The recursion reads V alone: ``decompose_combination`` builds one ``_tree``
per distinct V per call, ``_leaves`` sets each cone's apex and bits on it,
and ``ConeCombination._collect`` sums the canonical leaves. Only the root is
inverted by ``scaled_inverse``: a child's pair follows from its parent's by
an integer pivot, and a leaf hands its pair to its cones.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator

from .cones import ConeCombination, SymbolicCone, _canonical_cone, _inverse_pair
from .exactmath import IntMat, IntVec, exact_int, lll_reduce, mat_vec, scaled_inverse, vec_dot


def index(c: SymbolicCone) -> int:
    """Number of lattice points in the fundamental parallelepiped, |det V|."""
    if c.dim != c.ambient_dim:
        raise ValueError("index requires a full-dimensional cone")
    return abs(_inverse_pair(c)[1])


def _shortest_exchange_vector(generators: IntMat, adj: IntMat, d: int) -> tuple[IntVec, IntVec]:
    """Return (w, alpha_scaled), w = V @ alpha_scaled / d integral, from V's pair (adj, d).

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
    return tuple(x // d for x in w), best


def _tree(generators: IntMat, index_threshold: int) -> list[tuple[int, IntMat, IntMat, tuple]]:
    """Depth-first exchange recursion over V alone, as a list of leaves.

    A leaf is ``(sign, gens, rows, (adj, d))``: its primitive generators in
    lex order, their inverse pair and the rows of adj. A node carries
    adj = d * V^-1, d = det V. Swapping generator i for w = V @ a / d
    (a = alpha_scaled) gives d' = a_i; row i of adj stays and row j becomes
    (a_i * row_j - a_j * row_i) / d. Leaf column V_j / c_j takes row j to
    c_j * row_j / prod(c) and d to d / prod(c); sorting permutes the rows.
    """
    leaves = []
    stack: list[tuple[IntMat, IntMat, int, int]] = [(generators, *scaled_inverse(generators), 1)]
    while stack:
        gens, adj, d, sign = stack.pop()
        if abs(d) <= index_threshold:
            # d != 0 (every child has index |alpha_i| > 0), so the columns
            # are independent and the leaf needs no validation
            scale = [math.gcd(*g) for g in gens]
            p = math.prod(scale)
            gens, rows = zip(*sorted((tuple(x // c for x in g), tuple(c * x // p for x in row))
                                     for g, c, row in zip(gens, scale, zip(*adj))))
            leaves.append((sign, gens, rows, (tuple(zip(*rows)), d // p)))
            continue
        w, alpha_scaled = _shortest_exchange_vector(gens, adj, d)
        sign_d = 1 if d > 0 else -1
        if not any(a * sign_d > 0 for a in alpha_scaled):
            # the exchange identity needs w on the positive side; use -w
            w = tuple(-x for x in w)
            alpha_scaled = tuple(-a for a in alpha_scaled)
        for i, a in enumerate(alpha_scaled):
            if a == 0:
                continue
            if abs(a) >= abs(d):
                raise AssertionError("child index did not decrease")
            child = tuple(w if j == i else gens[j] for j in range(len(gens)))
            child_adj = tuple(tuple(x if j == i else (a * x - a_j * col[i]) // d
                                    for j, (x, a_j) in enumerate(zip(col, alpha_scaled)))
                              for col in adj)
            child_sign = 1 if a * sign_d > 0 else -1
            stack.append((child, child_adj, a, sign * child_sign))
    return leaves


def _leaves(c: SymbolicCone, mult: int, tree: list,
            xi: IntVec) -> Iterator[tuple[int, SymbolicCone]]:
    """The ``(multiplicity, leaf)`` pairs of mult * [C]: C's apex on each leaf.

    Facet j of a leaf is closed iff its inner normal, row j of gens^-1, sees
    xi positively; row j of adj has the signs of d times that normal, so bit
    j is read off d * (row_j . xi). Where row_j . xi = 0, xi lies on the
    hyperplane of facet j, and the bit is that of the lexicographic
    perturbation xi + eps e_1 + eps^2 e_2 + ... (Koeppe and Verdoolaege
    2008): the sign of d times the first non-zero entry of row j.
    """
    for sign, gens, rows, pair in tree:
        values = (vec_dot(row, xi) or next(a for a in row if a) for row in rows)
        bits = tuple(0 if value * pair[1] > 0 else 1 for value in values)
        yield mult * sign, _canonical_cone(gens, c.num, c.den, bits, pair)


def barvinok_decompose(
    c: SymbolicCone,
    index_threshold: int = 1,
    _unused: object = None,  # bench/tracing.py still passes a third argument
) -> ConeCombination:
    """Write [C] as an exact signed sum of low-index half-open cones.

    ``decompose_combination`` of the combination [C]; a cone of index at
    most ``index_threshold`` comes back as itself.
    """
    return decompose_combination(ConeCombination({c: 1}), index_threshold)


def decompose_combination(
    combination: ConeCombination, index_threshold: int = 1
) -> ConeCombination:
    """Decompose every cone of a combination and collect all leaves once.

    Every leaf keeps the apex of its cone C and has |det| at most
    ``index_threshold`` (1 by default: unimodular). It is half-opened along
    xi = V·(±1), +1 on closed and -1 on open generators of C: row j of V^-1
    sends xi to the j-th weight, so xi reproduces C's openness on C's own
    facets, and a cone at or below the threshold is its own leaf. Cones that
    share V share one ``_tree``. Raises ``ValueError`` before any work on a
    threshold below 1 or a cone that is not full-dimensional.
    """
    index_threshold = exact_int(index_threshold)
    if index_threshold < 1:
        raise ValueError("index_threshold must be at least 1")
    if any(c.dim != c.ambient_dim for c in combination):
        raise ValueError("decomposition requires a full-dimensional cone")
    trees = {v: _tree(v, index_threshold) for v in {c.generators for c in combination}}
    return ConeCombination._collect(chain.from_iterable(
        _leaves(c, mult, trees[c.generators],
                mat_vec(c.generators, [1 if bit == 0 else -1 for bit in c.openness]))
        for c, mult in combination.items()))
