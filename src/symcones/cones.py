"""Symbolic half-open simplicial cones and signed combinations of them.

A symbolic cone is a triple (V, q, o): integer generator columns V, a
rational apex q and an openness bit per generator. Bit 1 on generator i
means the coefficient of that generator is strictly positive, i.e. the
facet where it vanishes is excluded. The point set is

    { q + V @ lam : lam_i >= 0 where o_i = 0, lam_i > 0 where o_i = 1 }.

Cones are immutable and hashable so that signed combinations can live in a
dictionary keyed by the canonical form (primitive, lexicographically sorted
generators), which is unique per point set and openness pattern.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .exactmath import (
    IntMat,
    IntVec,
    RatVec,
    Scalar,
    as_fractions,
    has_full_column_rank,
    is_forward,
    mat_vec,
    prim,
    scaled_inverse,
    snf,
    solve_rational,
    vec_sub,
)


@dataclass(frozen=True)
class SymbolicCone:
    """Half-open simplicial cone (generators, apex, openness)."""

    generators: IntMat
    apex: RatVec
    openness: tuple[int, ...]
    # set only by _canonical_cone, never by callers
    _canonical: bool = field(default=False, init=False, compare=False, repr=False)
    # hashing the Fraction apex is costly and cones are dict keys, so the
    # hash is computed once, on first use
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        k = len(self.generators)
        if k == 0:
            raise ValueError("cone needs at least one generator")
        n = len(self.generators[0])
        if any(len(g) != n for g in self.generators):
            raise ValueError("generator columns must have equal length")
        if any(type(x) is not int for g in self.generators for x in g):
            raise TypeError("generator entries must be exact integers")
        if len(self.apex) != n:
            raise ValueError(f"apex has length {len(self.apex)}, expected {n}")
        if any(not isinstance(a, (int, Fraction)) for a in self.apex):
            raise TypeError("apex entries must be exact rationals")
        if any(type(a) is not Fraction for a in self.apex):
            object.__setattr__(self, "apex", as_fractions(self.apex))
        if k > n:
            raise ValueError(f"{k} generators cannot be independent in dimension {n}")
        if len(self.openness) != k:
            raise ValueError("openness needs one bit per generator")
        if any(bit not in (0, 1) for bit in self.openness):
            raise ValueError("openness bits must be 0 or 1")

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.generators, self.apex, self.openness))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def dim(self) -> int:
        """Number of generators k."""
        return len(self.generators)

    @property
    def ambient_dim(self) -> int:
        """Dimension n of the surrounding space."""
        return len(self.apex)

    def sort_key(self):
        return (self.generators, self.apex, self.openness)

    def __str__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"cone[{gens}; apex={tuple(map(str, self.apex))}; open={self.openness}]"


def cone(
    generators: Iterable[Sequence[int]],
    apex: Sequence[Scalar] | None = None,
    openness: Sequence[int] | None = None,
) -> SymbolicCone:
    """Convenience constructor coercing plain ints/Fractions; raises on
    linearly dependent generators."""
    gens = tuple(tuple(int(x) for x in g) for g in generators)
    if apex is None:
        apex = (0,) * len(gens[0])
    if openness is None:
        openness = (0,) * len(gens)
    out = SymbolicCone(gens, as_fractions(apex), tuple(int(b) for b in openness))
    _assert_independent(out.generators)
    return out


def _assert_independent(generators: IntMat) -> None:
    if not has_full_column_rank(generators):
        raise ValueError("generators not linearly independent")


def _canonical_cone(
    generators: IntMat, apex: RatVec, openness: tuple[int, ...], forward: bool = False
) -> tuple[int, SymbolicCone]:
    """Build a canonical cone from columns already known to be good.

    The caller guarantees primitive, linearly independent integer columns
    and a Fraction apex; nothing is checked here. With ``forward`` every
    backward generator is reversed and its openness bit toggled first, as
    in ``flip``. Returns ``(sign, cone)`` with sign = (-1)^(number of
    reversed generators), always 1 without ``forward``.
    """
    sign = 1
    pairs = []
    for g, bit in zip(generators, openness):
        if forward and not is_forward(g):
            sign = -sign
            g, bit = tuple(-x for x in g), 1 - bit
        pairs.append((g, bit))
    pairs.sort()
    out = object.__new__(SymbolicCone)
    out.__dict__.update(
        generators=tuple(g for g, _ in pairs),
        apex=apex,
        openness=tuple(bit for _, bit in pairs),
        _canonical=True,
        _hash=None,
    )
    return sign, out


def canonicalize(c: SymbolicCone) -> SymbolicCone:
    """Unique representative: primitive generator columns in lex order.

    Openness bits travel with their generators. Two symbolic cones describe
    the same point set with the same openness pattern exactly when their
    canonical forms agree field by field. Raises on zero or linearly
    dependent columns.

    This is the validating entry point for cones built from outside the
    package. Cones the package builds itself (elimination outputs, Barvinok
    leaves) are canonical by construction and skip the validation.
    """
    if c._canonical:
        return c
    prims = tuple(prim(g) for g in c.generators)
    _assert_independent(prims)
    return _canonical_cone(prims, c.apex, c.openness)[1]


def flip(c: SymbolicCone) -> tuple[int, SymbolicCone]:
    """Reverse all backward generators, toggling their openness bits.

    Returns ``(sign, flipped)`` with sign = (-1)^(number of reversed
    generators). The flipped cone is forward and satisfies
    sign * [flipped] = [c] modulo polyhedra that contain lines; generator
    order is preserved (no canonical sort here).
    """
    backward = tuple(not is_forward(g) for g in c.generators)
    sign = -1 if sum(backward) % 2 else 1
    gens = tuple(
        tuple(-x for x in g) if back else g for g, back in zip(c.generators, backward)
    )
    bits = tuple(1 - b if back else b for b, back in zip(c.openness, backward))
    return sign, SymbolicCone(gens, c.apex, bits)


# --- membership ------------------------------------------------------------

@lru_cache(maxsize=8192)
def _membership_data(generators: IntMat, apex: RatVec):
    """Precomputed integer data for fast full-dimensional membership tests.

    Returns (adj, s, q_nums, denom) with adj = det * V^-1 and s = denom * det,
    so that lam_j = (adj @ (denom*x - q_nums))_j / s for integer points x.
    """
    adj, d = scaled_inverse(generators)
    denom = math.lcm(*(a.denominator for a in apex))
    q_nums = tuple(int(a * denom) for a in apex)
    return adj, denom * d, q_nums, denom


def contains(c: SymbolicCone, x: Sequence[Scalar]) -> bool:
    """Exact membership of a rational point in the half-open cone."""
    if len(x) != c.ambient_dim:
        raise ValueError("point has wrong dimension")
    k, n = c.dim, c.ambient_dim
    if k == n and all(isinstance(v, int) for v in x):
        adj, s, q_nums, denom = _membership_data(c.generators, c.apex)
        sgn = 1 if s > 0 else -1
        for j in range(k):
            t = sgn * sum(adj[i][j] * (denom * x[i] - q_nums[i]) for i in range(n))
            if t < 0 or (t == 0 and c.openness[j]):
                return False
        return True
    lam = solve_rational(c.generators, vec_sub(as_fractions(x), c.apex))
    if lam is None:
        return False
    for value, bit in zip(lam, c.openness):
        if value < 0 or (value == 0 and bit):
            return False
    return True


# --- signed combinations ----------------------------------------------------

class ConeCombination(Mapping[SymbolicCone, int]):
    """Finite map from canonical symbolic cones to integer multiplicities.

    Represents the indicator-function sum over its entries. Keys are always
    canonical and share one ambient dimension; entries with multiplicity 0
    are dropped on the fly. Cones themselves are immutable and all cone
    operations are pure; this merge-by-canonical-key accumulator is the one
    mutable step, so it is the single point needing exclusivity if callers
    ever parallelize over cones.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[SymbolicCone, int] | None = None):
        self._entries: dict[SymbolicCone, int] = {}
        if entries:
            for c, mult in entries.items():
                self.add(c, mult)

    def add(self, c: SymbolicCone, multiplicity: int = 1) -> None:
        if multiplicity == 0:
            return
        c = canonicalize(c)
        if self._entries:
            n = next(iter(self._entries)).ambient_dim
            if c.ambient_dim != n:
                raise ValueError("mixed ambient dimensions in combination")
        new = self._entries.get(c, 0) + multiplicity
        if new == 0:
            del self._entries[c]
        else:
            self._entries[c] = new

    def __getitem__(self, c: SymbolicCone) -> int:
        return self._entries[canonicalize(c)]

    def __iter__(self) -> Iterator[SymbolicCone]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, ConeCombination):
            return self._entries == other._entries
        return NotImplemented

    def __repr__(self):
        parts = [f"{m:+d}*{c}" for c, m in self._entries.items()]
        return "ConeCombination(" + " ".join(parts) + ")" if parts else "ConeCombination()"

    @property
    def ambient_dim(self) -> int | None:
        return next(iter(self._entries)).ambient_dim if self._entries else None

    def map_cones(self, f: Callable[[SymbolicCone], "ConeCombination"]) -> "ConeCombination":
        """Apply f to every cone, distribute multiplicities, collect terms."""
        out = ConeCombination()
        for c, mult in self._entries.items():
            for c2, m2 in f(c).items():
                out.add(c2, mult * m2)
        return out

    def sorted_items(self) -> list[tuple[SymbolicCone, int]]:
        return sorted(self._entries.items(), key=lambda item: item[0].sort_key())


def eval_combination(combination: ConeCombination, x: Sequence[Scalar]) -> int:
    """Value of the signed indicator sum at a point."""
    return sum(m for c, m in combination.items() if contains(c, x))


# --- fundamental parallelepipeds --------------------------------------------

def _momod(value: int, modulus: int, strict: int) -> int:
    """Componentwise modulus sending 0 to ``modulus`` on open coordinates."""
    r = value % modulus
    if r == 0 and strict:
        return modulus
    return r


def _affine_hull_lattice_point(c: SymbolicCone, dec) -> IntVec | None:
    """A lattice point in aff(C), or None if the hull misses the lattice.

    With V = U S W the hull is q + U {y : y_i = 0 for i > k}, so a lattice
    point exists iff the last n-k coordinates of U^-1 q are integers.
    """
    n, k = c.ambient_dim, c.dim
    coords = mat_vec(dec.U_inv, c.apex)
    for i in range(k, n):
        if coords[i].denominator != 1:
            return None
    y = [0] * k + [int(coords[i]) for i in range(k, n)]
    return tuple(int(v) for v in mat_vec(dec.U, y))


def enum_fundpar(c: SymbolicCone) -> list[IntVec]:
    """All lattice points of the half-open fundamental parallelepiped.

    The parallelepiped is q + { V @ lam } with lam_i in [0,1) on closed and
    (0,1] on open coordinates. Points are produced directly from the Smith
    normal form V = U S W: with s'_i = s_k/s_i and qt = -W^-1 S' U^-1 (q-p)
    split into integer and fractional parts, every point is

        ( V ((W^-1 S' x + qt_int) mod' s_k) + V qt_frac + s_k q ) / s_k

    for x ranging over the box prod [0, s_i), where mod' sends residue 0 to
    s_k on coordinates that are open and still meet the lattice. The final
    division is exact; integrality is asserted. Returns [] when the affine
    hull of the cone contains no lattice point (only possible for k < n).
    """
    k, n = c.dim, c.ambient_dim
    v = c.generators
    dec = snf(v)
    diag = dec.diagonal()
    if any(s <= 0 for s in diag):
        raise ValueError("generators not linearly independent")
    s_k = diag[-1]

    if k < n:
        p = _affine_hull_lattice_point(c, dec)
        if p is None:
            return []
    else:
        p = (0,) * n

    q_hat = mat_vec(dec.U_inv, vec_sub(c.apex, p))
    s_prime = [s_k // s for s in diag]
    # t_mat = W^-1 * diag(s'), acting on the first k coordinates
    t_mat = tuple(
        tuple(dec.W_inv[j][i] * s_prime[j] for i in range(k)) for j in range(k)
    )
    q_trans = tuple(-val for val in mat_vec(t_mat, q_hat[:k]))
    q_int = tuple(math.floor(val) for val in q_trans)
    q_frac = tuple(a - b for a, b in zip(q_trans, q_int))
    strictness = tuple(
        c.openness[j] if q_frac[j] == 0 else 0 for j in range(k)
    )
    shift = tuple(
        s_k * c.apex[i] + sum(v[j][i] * q_frac[j] for j in range(k)) for i in range(n)
    )
    if any(val.denominator != 1 for val in shift):
        raise AssertionError("parallelepiped shift is not integral")
    shift = tuple(int(val) for val in shift)

    points: list[IntVec] = []
    for x in itertools.product(*(range(s) for s in diag)):
        residues = [
            _momod(sum(t_mat[i][j] * x[i] for i in range(k)) + q_int[j], s_k, strictness[j])
            for j in range(k)
        ]
        point = []
        for i in range(n):
            num = sum(v[j][i] * residues[j] for j in range(k)) + shift[i]
            if num % s_k:
                raise AssertionError("parallelepiped point is not integral")
            point.append(num // s_k)
        points.append(tuple(point))
    return points


def lattice_points_in_box(
    c: SymbolicCone, lo: Sequence[int], hi: Sequence[int]
) -> set[IntVec]:
    """Lattice points of the cone inside the box lo <= x <= hi (oracle scan)."""
    if len(lo) != c.ambient_dim or len(hi) != c.ambient_dim:
        raise ValueError("box has wrong dimension")
    if any(a > b for a, b in zip(lo, hi)):
        return set()
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return {x for x in itertools.product(*ranges) if contains(c, x)}
