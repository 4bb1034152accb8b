"""Symbolic half-open simplicial cones and signed combinations of them.

A symbolic cone is a triple (V, q, o): integer generator columns V, a
rational apex q and an openness bit per generator. Bit 1 on generator i
means the coefficient of that generator is strictly positive, i.e. the
facet where it vanishes is excluded. The point set is

    { q + V @ lam : lam_i >= 0 where o_i = 0, lam_i > 0 where o_i = 1 }.

The apex is stored as integer numerators over one positive common
denominator in lowest terms, so a cone holds nothing but ints. Cones are
immutable and hashable; the canonical form (primitive, lexicographically
sorted generators) is unique per point set and openness pattern, and a
``ConeCombination`` holds canonical cones grouped by generator matrix, then
by apex. Membership is one integer test per facet row (``_facets``), for
every k <= n.
A cone is checked once, when ``SymbolicCone`` (alias ``cone``) builds it;
the package's own cones come from the unchecked ``_canonical_cone``. Of V,
facets and parallelepipeds need only its inverse pair (adj, d), and a cone
carries none: a combination owns one per V (``_pair``), which fp, ``count``,
``check`` and ``eval_combination`` read once per V for the per-entry cores
``_facet_forms`` and ``_fundpar``, the cores of ``_facets`` and
``enum_fundpar``.

``enum_fundpar`` lists the lattice points of a cone's half-open
fundamental parallelepiped, the numerator of its generating function. A
full-dimensional cone of index |det V| = 1 gets its one point in closed
form from V's pair; any other cone's points are read off the U^-1,
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
from typing import Iterable, ItemsView, Iterator, Mapping, Sequence

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

    @cached_property
    def _facets(self) -> tuple[tuple[IntVec, int, int], ...]:
        """``_facet_forms`` of the cone, from ``_basis_pair`` of its generators."""
        return _facet_forms(_basis_pair(self.generators), self.num, self.den, self.openness)

    def __str__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"cone[{gens}; apex={tuple(map(str, self.apex))}; open={self.openness}]"


cone = SymbolicCone


def _require_exact(values: Sequence[Scalar], what: str) -> None:
    if any(not isinstance(a, (int, Fraction)) for a in values):
        raise TypeError(f"{what} entries must be exact rationals")


def _canonical_cone(generators: IntMat, num: IntVec, den: int, openness: tuple) -> SymbolicCone:
    """A canonical cone, unchecked: the caller (the lift, the orthant, a combination's
    groups, ``canonicalize``) guarantees primitive, independent integer columns in
    lex order and an apex ``num / den`` in lowest terms with ``den > 0``."""
    out = object.__new__(SymbolicCone)
    out.__dict__.update(generators=generators, num=num, den=den, openness=openness,
                        _canonical=True)
    return out


def _basis_pair(v: IntMat) -> tuple[IntMat, int]:
    """``scaled_inverse`` of M, V completed by the first unit columns that keep it independent."""
    n = len(v[0])
    for e in identity(n) if len(v) < n else ():
        if has_full_column_rank((*v, e)):
            v += (e,)
    return scaled_inverse(v)


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
    if len(x) != c.ambient_dim:
        raise ValueError("point has wrong dimension")
    return _satisfies(c._facets, x)


def _facet_forms(pair: tuple, num: IntVec, den: int, bits: tuple) -> tuple[tuple, ...]:
    """(row, offset, bit) triples of the cone (V, num / den, bits): x in cone iff
    row.x - offset >= 0 on each, > 0 if bit. With V's ``_basis_pair`` (adj, d),
    adj = d * M^-1, and x = q + M mu, row j of adj gives mu_j * den * |d|. Rows
    j < k carry the bits; rows j >= k come in opposite pairs: mu_j = 0 on the hull."""
    adj, d = pair
    k, n = len(bits), len(num)
    sgn = 1 if d > 0 else -1
    facets = [(tuple(sgn * den * a for a in row), sgn * sum(map(operator.mul, row, num)), bit)
              for row, bit in zip(zip(*adj), bits + (0,) * (n - k))]
    return (*facets, *((tuple(-a for a in row), -offset, 0) for row, offset, _ in facets[k:]))


def _satisfies(facets: Iterable[tuple], x: Sequence[Scalar]) -> bool:
    """x meets each (row, offset, bit) of ``_facet_forms``: row.x - offset >= 0, > 0 if bit."""
    for row, offset, bit in facets:
        t = sum(map(operator.mul, row, x)) - offset
        if t < 0 or (t == 0 and bit):
            return False
    return True


# --- signed combinations ----------------------------------------------------

class ConeCombination(Mapping[SymbolicCone, int]):
    """Finite map from canonical symbolic cones to integer multiplicities.

    Represents the indicator-function sum over its entries, held grouped by
    generator matrix and apex as ``{V: {(num, den): {bits: mult}}}``, the
    form the elimination rounds and the Barvinok leaves are summed in: no V
    without an apex, no apex without bits, no multiplicity 0, and every V has
    one ambient dimension. ``_from_groups`` wraps such groups unchecked;
    ``__init__``, ``add`` and ``__getitem__`` canonicalize other cones, ``add``
    takes its multiplicity through ``exact_int`` and drops an emptied map at
    each level. Cone objects, the mapping view, are built once, on first use
    (``_built``), with no linear algebra; the facet forms that ``check`` and
    ``eval_combination`` test are built once too (``_facet_entries``).
    """

    __slots__ = ("_groups", "_pairs", "_entries", "_forms")

    def __init__(self, entries: Mapping[SymbolicCone, int] | None = None):
        self._groups, self._pairs, self._entries, self._forms = {}, {}, None, None
        for c, mult in (entries or {}).items():
            self.add(c, mult)

    @classmethod
    def _from_groups(cls, groups: dict, pairs: dict | None = None) -> ConeCombination:
        """Wrap summed groups as above, unchecked, with inverse pairs already known by V."""
        out = object.__new__(cls)
        out._groups, out._pairs, out._entries, out._forms = groups, pairs or {}, None, None
        return out

    def _pair(self, v: IntMat) -> tuple[IntMat, int]:
        """V's ``_basis_pair``: handed over (Barvinok's leaves), else one Bareiss on first use."""
        return self._pairs.get(v) or self._pairs.setdefault(v, _basis_pair(v))

    def add(self, c: SymbolicCone, multiplicity: int = 1) -> None:
        multiplicity = exact_int(multiplicity)
        if multiplicity == 0:
            return
        c = canonicalize(c)
        if self._groups and c.ambient_dim != self.ambient_dim:
            raise ValueError("mixed ambient dimensions in combination")
        apexes = self._groups.setdefault(c.generators, {})
        patterns = apexes.setdefault(apex := (c.num, c.den), {})
        if new := patterns.get(c.openness, 0) + multiplicity:
            patterns[c.openness] = new
        else:
            del patterns[c.openness]
            if not patterns:
                del apexes[apex]
                if not apexes:
                    del self._groups[c.generators]
        self._entries = self._forms = None

    def __getitem__(self, c: SymbolicCone) -> int:
        c = canonicalize(c)
        return self._groups[c.generators][c.num, c.den][c.openness]

    def _sorted_groups(self) -> list[tuple[IntMat, Iterable[tuple[tuple, Iterable[tuple]]]]]:
        """The groups in output order: V's sorted, each V's apexes by value, each apex's bits."""
        den = math.lcm(*(d for apexes in self._groups.values() for _, d in apexes))

        def key(entry):
            (num, d), _ = entry
            return num if d == den else tuple([a * (den // d) for a in num])

        # most maps hold one entry, which sorted() would only copy
        def ordered(entries, key=None):
            return sorted(entries.items(), key=key) if len(entries) > 1 else entries.items()
        return [(v, [(apex, ordered(patterns)) for apex, patterns in ordered(apexes, key)])
                for v, apexes in sorted(self._groups.items())]

    def _built(self) -> dict[SymbolicCone, int]:
        """Every entry as ``{cone: mult}``, in group order, built once."""
        if self._entries is None:
            self._entries = {_canonical_cone(v, num, den, bits): mult
                             for v, apexes in self._groups.items()
                             for (num, den), patterns in apexes.items()
                             for bits, mult in patterns.items()}
        return self._entries

    def _facet_entries(self) -> list[tuple[tuple, int]]:
        """(``_facet_forms``, mult) of every entry, from one ``_pair`` per V, built once."""
        if self._forms is None:
            self._forms = [(_facet_forms(pair, *apex, bits), mult)
                           for v, apexes in self._groups.items() for pair in [self._pair(v)]
                           for apex, patterns in apexes.items() for bits, mult in patterns.items()]
        return self._forms

    # Mapping's default would look every key up again in __getitem__
    def items(self) -> ItemsView[SymbolicCone, int]:
        return self._built().items()

    def __iter__(self) -> Iterator[SymbolicCone]:
        return iter(self._built())

    def __len__(self) -> int:
        return sum(len(patterns) for apexes in self._groups.values() for patterns in apexes.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, ConeCombination):
            return self._groups == other._groups
        return NotImplemented

    def __repr__(self):
        parts = [f"{m:+d}*{c}" for c, m in self.items()]
        return "ConeCombination(" + " ".join(parts) + ")" if parts else "ConeCombination()"

    @property
    def ambient_dim(self) -> int | None:
        return len(next(iter(self._groups))[0]) if self._groups else None

    def sorted_items(self) -> list[tuple[SymbolicCone, int]]:
        """Entries in output order, along ``_sorted_groups``, as new cone objects."""
        return [(_canonical_cone(v, *apex, bits), mult) for v, apexes in self._sorted_groups()
                for apex, patterns in apexes for bits, mult in patterns]


def eval_combination(combination: ConeCombination, x: Sequence[Scalar]) -> int:
    """Value of the signed indicator sum at a point of exact rationals."""
    _require_exact(x, "point")
    if combination and len(x) != combination.ambient_dim:
        raise ValueError("point has wrong dimension")
    return sum(m for facets, m in combination._facet_entries() if _satisfies(facets, x))


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
    mod' 1 with V^-1 = d * adj from V's pair. Otherwise, over a
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
    v = c.generators
    return _fundpar(v, scaled_inverse(v) if c.dim == c.ambient_dim else (None, 0),
                    c.num, c.den, c.openness)


def _fundpar(v: IntMat, pair: tuple, num: IntVec, den: int, bits: tuple) -> list[IntVec]:
    """``enum_fundpar`` of (V, num / den, bits), given V's pair if V is square, else (None, 0)."""
    k, n = len(v), len(num)
    adj, d = pair
    if d in (1, -1):
        r = [-d * t % den or bit * den for t, bit in zip(mat_vec(adj, num), bits)]
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
                    for step, start, top in zip(steps, base, [b * modulus for b in bits])]
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
