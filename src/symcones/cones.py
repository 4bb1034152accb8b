"""Symbolic half-open simplicial cones and signed combinations of them.

A symbolic cone is a triple (V, q, o): integer generator columns V, a
rational apex q and an openness bit per generator. Bit 1 on generator i
means the coefficient of that generator is strictly positive, i.e. the
facet where it vanishes is excluded. The point set is

    { q + V @ lam : lam_i >= 0 where o_i = 0, lam_i > 0 where o_i = 1 }.

The apex is stored as integer numerators over one positive common
denominator in lowest terms, so a cone holds nothing but ints. Cones are
immutable and hashable so that signed combinations can live in a
dictionary keyed by the canonical form (primitive, lexicographically sorted
generators), which is unique per point set and openness pattern. Membership
is one integer test per facet row (``_facets``), for cones of every k <= n.
A cone is checked once, when ``SymbolicCone`` (alias ``cone``) builds it;
the package's own cones come from the unchecked ``_canonical_cone``.

``enum_fundpar`` lists the lattice points of a cone's half-open
fundamental parallelepiped, the numerator of its generating function. A
full-dimensional cone of index |det V| = 1 gets its one point in closed
form from its inverse pair; any other cone's points are read off the U^-1,
W^-1 and diagonal of a Smith normal form of V, in blocks of at most
``FUNDPAR_BLOCK`` points, one coordinate at a time. Parallelepipeds of more
than ``MAX_FUNDPAR_POINTS`` points are refused before enumeration.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, ItemsView, Iterator, Mapping, Sequence, ValuesView

from .exactmath import (
    IntMat,
    IntVec,
    RatVec,
    Scalar,
    _smith,
    exact_int,
    has_full_column_rank,
    identity,
    mat_vec,
    prim,
    scaled_inverse,
)


@dataclass(frozen=True, init=False)
class SymbolicCone:
    """Half-open simplicial cone (generators, apex, openness).

    The one validating constructor: it takes exact integer generators and
    bits (``exact_int``), refuses dependent generators, and stores the apex
    (ints and ``Fraction``s, the origin by default) as ``num / den`` with
    ``den > 0`` and gcd(den, *num) = 1, so equal cones have equal int
    fields. ``apex`` is a rational view, rebuilt on every access.
    """

    generators: IntMat
    num: IntVec
    den: int
    openness: tuple[int, ...]
    # set only by _canonical_cone, never by callers
    _canonical = False
    _inverse = None  # see _inverse_pair

    def __init__(self, generators: Iterable[Sequence[int]], apex: Sequence[Scalar] | None = None,
                 openness: Sequence[int] | None = None):
        generators = tuple(tuple(map(exact_int, g)) for g in generators)
        k = len(generators)
        if k == 0:
            raise ValueError("cone needs at least one generator")
        n = len(generators[0])
        if any(len(g) != n for g in generators):
            raise ValueError("generator columns must have equal length")
        apex = (0,) * n if apex is None else tuple(apex)
        if len(apex) != n:
            raise ValueError(f"apex has length {len(apex)}, expected {n}")
        _require_exact(apex, "apex")
        openness = (0,) * k if openness is None else tuple(map(exact_int, openness))
        if len(openness) != k:
            raise ValueError("openness needs one bit per generator")
        if any(bit not in (0, 1) for bit in openness):
            raise ValueError("openness bits must be the ints 0 or 1")
        # k > n columns, a zero column and dependent columns all fail here
        if not has_full_column_rank(generators):
            raise ValueError("generators not linearly independent")
        # every entry is in lowest terms, so scaling to the lcm of the
        # denominators leaves no common factor
        den = math.lcm(*(a.denominator for a in apex))
        num = tuple(a.numerator * (den // a.denominator) for a in apex)
        self.__dict__.update(generators=generators, num=num, den=den, openness=openness)

    @property
    def apex(self) -> RatVec:
        return tuple(Fraction(a, self.den) for a in self.num)

    @property
    def dim(self) -> int:
        """Number of generators k."""
        return len(self.generators)

    @property
    def ambient_dim(self) -> int:
        """Dimension n of the surrounding space."""
        return len(self.num)

    def sort_key(self, den: int):
        """Order by generators, apex value, openness; ``den`` is a common
        multiple of the ``den`` of every cone compared."""
        scale = den // self.den
        num = self.num if scale == 1 else tuple([a * scale for a in self.num])
        return (self.generators, num, self.openness)

    @cached_property
    def _facets(self) -> tuple[tuple[IntVec, int, int], ...]:
        """(row, offset, bit) triples: x in cone iff row.x - offset >= 0 on each, > 0 if bit.

        With M = V completed by the first unit columns that keep it independent
        and x = q + M mu, row j of adj = d * M^-1 gives mu_j * den * |d|. Rows
        j < k carry the bits; rows j >= k come in opposite pairs: mu_j = 0 on the hull.
        """
        k, n = self.dim, self.ambient_dim
        basis = self.generators
        for e in identity(n) if k < n else ():
            if has_full_column_rank((*basis, e)):
                basis += (e,)
        adj, d = _inverse_pair(self) if k == n else scaled_inverse(basis)
        sgn = 1 if d > 0 else -1
        facets = [(tuple(sgn * self.den * a for a in row),
                   sgn * sum(map(operator.mul, row, self.num)), bit)
                  for row, bit in zip(zip(*adj), self.openness + (0,) * (n - k))]
        return (*facets, *((tuple(-a for a in row), -offset, 0) for row, offset, _ in facets[k:]))

    def __str__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"cone[{gens}; apex={tuple(map(str, self.apex))}; open={self.openness}]"


cone = SymbolicCone


def _require_exact(values: Sequence[Scalar], what: str) -> None:
    if any(not isinstance(a, (int, Fraction)) for a in values):
        raise TypeError(f"{what} entries must be exact rationals")


def _canonical_cone(generators: IntMat, num: IntVec, den: int, openness: tuple[int, ...],
                    inverse: tuple[IntMat, int] | None = None) -> SymbolicCone:
    """Build a canonical cone from columns already known to be good.

    The caller (the lift, a round, a leaf, ``canonicalize``) guarantees primitive,
    independent integer columns in lex order, their ``_inverse_pair`` if given,
    and an apex ``num / den`` in lowest terms with ``den > 0``; nothing is checked.
    """
    out = object.__new__(SymbolicCone)
    out.__dict__.update(generators=generators, num=num, den=den, openness=openness,
                        _canonical=True, _inverse=inverse)
    return out


def _inverse_pair(c: SymbolicCone) -> tuple[IntMat, int]:
    """The cone's ``(adj, d)``: adj = d * V^-1 with |d| = |det V|, so adj is
    integral and only d's sign is free; by ``scaled_inverse`` on first use."""
    if c._inverse is None:
        c.__dict__["_inverse"] = scaled_inverse(c.generators)
    return c._inverse


def _share_inverse_pairs(cones: Iterable[SymbolicCone]) -> None:
    """One Bareiss per V: full-dimensional cones without a pair take their V's first."""
    pairs: dict[IntMat, tuple[IntMat, int]] = {}
    for c in cones:
        if c.dim == c.ambient_dim:
            c.__dict__["_inverse"] = c._inverse or pairs.get(c.generators)
            pairs.setdefault(c.generators, _inverse_pair(c))


def canonicalize(c: SymbolicCone) -> SymbolicCone:
    """Unique representative: primitive generator columns in lex order.

    Openness bits travel with their generators. Two symbolic cones describe
    the same point set with the same openness pattern exactly when their
    canonical forms agree field by field. Cones the package builds (the lift,
    elimination outputs, Barvinok leaves) are canonical by construction.
    """
    if c._canonical:
        return c
    pairs = sorted(zip(map(prim, c.generators), c.openness))
    return _canonical_cone(tuple(g for g, _ in pairs), c.num, c.den, tuple(b for _, b in pairs))


# --- membership ------------------------------------------------------------

def contains(c: SymbolicCone, x: Sequence[Scalar]) -> bool:
    """Exact membership of a point of ints and ``Fraction``s, by the cone's ``_facets``."""
    _require_exact(x, "point")
    return _contains(c, x)


def _contains(c: SymbolicCone, x: Sequence[Scalar]) -> bool:
    if len(x) != c.ambient_dim:
        raise ValueError("point has wrong dimension")
    for row, offset, bit in c._facets:
        t = sum(map(operator.mul, row, x)) - offset
        if t < 0 or (t == 0 and bit):
            return False
    return True


# --- signed combinations ----------------------------------------------------

class ConeCombination(Mapping[SymbolicCone, int]):
    """Finite map from canonical symbolic cones to integer multiplicities.

    Represents the indicator-function sum over its entries. Keys are always
    canonical and share one ambient dimension; entries with multiplicity 0
    are dropped on the fly. Cones are immutable and cone operations pure;
    summing by canonical key is the one mutable step, and the one point
    needing exclusivity if callers ever parallelize over cones. ``_collect``
    and ``_from_groups`` take package-built cones (canonical, of one dimension)
    unchecked; ``__init__``, ``add`` and ``__getitem__`` canonicalize others,
    and ``add`` takes its multiplicity through ``exact_int``.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[SymbolicCone, int] | None = None):
        self._entries: dict[SymbolicCone, int] = {}
        if entries:
            for c, mult in entries.items():
                self.add(c, mult)

    @classmethod
    def _from_groups(cls, groups: Mapping[IntMat, Mapping[tuple, int]]) -> ConeCombination:
        """Build each cone of summed groups {V: {(num, den, bits): mult}} once, no mult 0."""
        out = object.__new__(cls)
        out._entries = {_canonical_cone(v, num, den, bits): mult
                        for v, group in groups.items() for (num, den, bits), mult in group.items()}
        return out

    @classmethod
    def _collect(cls, signed: Iterable[tuple[int, SymbolicCone]]) -> ConeCombination:
        """Sum ``(multiplicity, cone)`` pairs of canonical cones of one dimension, unchecked."""
        out = object.__new__(cls)
        out._entries = entries = {}
        for mult, c in signed:
            new = entries.get(c, 0) + mult
            if new:
                entries[c] = new
            else:
                del entries[c]
        return out

    def add(self, c: SymbolicCone, multiplicity: int = 1) -> None:
        multiplicity = exact_int(multiplicity)
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

    # Mapping's defaults would canonicalize every key again in __getitem__
    def items(self) -> ItemsView[SymbolicCone, int]:
        return self._entries.items()

    def values(self) -> ValuesView[int]:
        return self._entries.values()

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

    def sorted_items(self) -> list[tuple[SymbolicCone, int]]:
        """Entries in ``sort_key`` order, which sorts by V first: one sort of
        the distinct V's, then one of each V's cones by apex value, openness."""
        den = math.lcm(*(c.den for c in self._entries))
        groups: dict[IntMat, list[tuple[SymbolicCone, int]]] = {}
        for item in self._entries.items():
            groups.setdefault(item[0].generators, []).append(item)
        out = []
        for v in sorted(groups):
            out += sorted(groups[v], key=lambda item: item[0].sort_key(den)[1:])
        return out


def eval_combination(combination: ConeCombination, x: Sequence[Scalar]) -> int:
    """Value of the signed indicator sum at a point of exact rationals."""
    _require_exact(x, "point")
    return sum(m for c, m in combination.items() if _contains(c, x))


# --- fundamental parallelepipeds --------------------------------------------

# Largest parallelepiped enum_fundpar lists: 1.3-2 us per point on a 4 x 4 V, about
# 1.5 s at the cap (Python 3.11, shared 2-core VM); larger cones are refused first.
MAX_FUNDPAR_POINTS = 10**6

# Most points enum_fundpar lists in one bulk pass, which bounds its working lists
FUNDPAR_BLOCK = 2**12


def _refuse_over_cap(count: int) -> None:
    if count > MAX_FUNDPAR_POINTS:
        raise ValueError(f"fundamental parallelepiped has {count} lattice points, over the "
                         f"enumeration cap of {MAX_FUNDPAR_POINTS}; use --method barvinok "
                         f"with --index-threshold at most {MAX_FUNDPAR_POINTS}")


def _product_sums(coeffs: Sequence[int], ranges: Sequence[range], start: int = 0) -> list[int]:
    """start + coeffs . j for every j in the product of ``ranges``, in product order."""
    sums = [start]
    for c, r in zip(coeffs, ranges):
        steps = [c * t for t in r]
        sums = [s + step for s in sums for step in steps]
    return sums


def _fundpar_blocks(diag: IntVec) -> Iterator[list[range]]:
    """The box prod [0, s_i) as blocks of at most ``FUNDPAR_BLOCK`` points, in
    product order: leading j_i are looped over, trailing ones taken in full,
    and the j_m between them is cut into pieces."""
    m, size = len(diag), 1
    while m and size * diag[m - 1] <= FUNDPAR_BLOCK:
        m -= 1
        size *= diag[m]
    tail = [range(t) for t in diag[m:]]
    if not m:
        yield tail
        return
    piece, s = FUNDPAR_BLOCK // size, diag[m - 1]
    for head in itertools.product(*map(range, diag[:m - 1])):
        for lo in range(0, s, piece):
            yield [*(range(j, j + 1) for j in head), range(lo, min(lo + piece, s)), *tail]


def enum_fundpar(c: SymbolicCone) -> list[IntVec]:
    """All lattice points of the half-open fundamental parallelepiped.

    The parallelepiped is q + { V @ lam } with lam_i in [0,1) on closed and
    (0,1] on open coordinates; mod' below sends 0 to 1 on open coordinates.
    A full-dimensional cone of index |d| = 1 holds one point, lam = -V^-1 q
    mod' 1 with V^-1 = d * adj from its inverse pair. Otherwise, over a
    Smith normal form V = U S W with diagonal s_1 | ... | s_k, a point
    x = q + V @ lam is integral iff U^-1 x is, i.e. iff the last n-k
    entries of U^-1 q are integers and

        lam = W^-1 mu mod' 1,   mu_i = (j_i - (U^-1 q)_i) / s_i,

    for an integer vector j, which only matters modulo s_i. So j ranges over
    the box prod [0, s_i), one point each, listed in product order and in
    ``_fundpar_blocks``: each block takes lam one generator at a time and
    the points one coordinate at a time. Only ``_smith``'s diagonal, U^-1
    and W^-1 are read. All is kept in integers over s_k * den; the final
    division is exact and asserted.

    Returns [] when the affine hull of the cone misses the lattice (only
    possible for k < n). Raises ``ValueError`` before enumerating when the
    parallelepiped holds more than ``MAX_FUNDPAR_POINTS`` points.
    """
    k, n = c.dim, c.ambient_dim
    v = c.generators
    num, den = c.num, c.den
    adj, d = _inverse_pair(c) if k == n else (None, 0)
    if d in (1, -1):
        r = [-d * t % den or bit * den for t, bit in zip(mat_vec(adj, num), c.openness)]
        point = [a + b for a, b in zip(num, mat_vec(v, r))]
        if any(a % den for a in point):
            raise AssertionError("parallelepiped point is not integral")
        return [tuple(a // den for a in point)]
    diag, u_inv, w_inv = _smith(v)
    coords = mat_vec(u_inv, num)  # den * U^-1 q
    if any(coords[i] % den for i in range(k, n)):
        return []
    _refuse_over_cap(math.prod(diag))
    s_k = diag[-1]
    modulus = s_k * den
    # modulus * lam = W^-1 m with m_i = (den * j_i - coords_i) * s_k / s_i,
    # i.e. base + sum of j_i * steps_i
    scale = [s_k // s for s in diag]
    base = mat_vec(w_inv, [-t * s for t, s in zip(coords, scale)])
    # s_i = 1 pins j_i = 0, and the Smith 1s lead: only the rest is enumerated
    ones = diag.count(1)
    steps = [[den * s * col[t] for col, s in zip(w_inv[ones:], scale[ones:])] for t in range(k)]
    points: list[IntVec] = []
    for ranges in _fundpar_blocks(diag[ones:]):
        # modulus * (lam mod' 1), one list per generator
        residues = [[t % modulus or top for t in _product_sums(step, ranges, start)]
                    for step, start, top in zip(steps, base, [b * modulus for b in c.openness])]
        coordinates = []
        for i in range(n):
            total = [s_k * num[i]] * len(residues[0])
            for col, res in zip(v, residues):
                if a := col[i]:
                    total = [x + a * r for x, r in zip(total, res)]
            quotients = [x // modulus for x in total]
            # each remainder lies in [0, modulus), so all vanish iff their sum does
            if sum(total) != modulus * sum(quotients):
                raise AssertionError("parallelepiped point is not integral")
            coordinates.append(quotients)
        points += zip(*coordinates)
    return points
