"""Exact integer and rational linear algebra on plain tuples.

Vectors are tuples; matrices are tuples of *columns* (column-major). The
linear algebra is fraction-free over Python's arbitrary-precision ``int``:
determinants, rank tests, adjugates and the U and W of ``snf`` share one
Bareiss elimination, and ``lll_reduce`` keeps integral Gram-Schmidt data.
Nothing in this package ever touches floating point. Values are immutable
and every function is pure, so everything here is safe to share between
threads without coordination.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]
IntMat = tuple[IntVec, ...]  # columns

Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# scalars and vectors

def exact_int(x) -> int:
    """``x`` as an ``int``; ``TypeError`` unless it is exactly an integer (floats never are)."""
    if type(x) is int:  # the common case, before the slower ABC test
        return x
    if isinstance(x, numbers.Rational) and x.denominator == 1:
        return int(x)
    raise TypeError(f"expected an exact integer, got {x!r}")


def vec_sub(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return sum(a * b for a, b in zip(u, v, strict=True))


def prim(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries.

    The result is the shortest integer vector that is a positive multiple
    of ``v``. Raises ``ValueError`` on the zero vector, which lies on no ray.
    """
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if g == 1:
        return tuple(v)
    return tuple(a // g for a in v)


def is_forward(v: Sequence[Scalar]) -> bool:
    """True if the first non-zero entry of ``v`` is positive (or v = 0)."""
    for a in v:
        if a != 0:
            return a > 0
    return True


# ---------------------------------------------------------------------------
# matrices (tuples of columns)

def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))


def mat_vec(m: IntMat, x: Sequence[Scalar]) -> tuple:
    """Matrix-vector product; ``x`` holds one coefficient per column."""
    if len(x) != len(m):
        raise ValueError(f"dimension mismatch: {len(m)} columns, {len(x)} coefficients")
    n = len(m[0])
    return tuple(sum(m[j][i] * x[j] for j in range(len(m))) for i in range(n))


def _check_columns(m: IntMat) -> tuple[int, int]:
    if not m:
        raise ValueError("matrix has no columns")
    n = len(m[0])
    if n == 0 or any(len(col) != n for col in m):
        raise ValueError("columns must be non-empty and of equal length")
    return n, len(m)


def _bareiss(m: IntMat, rhs: Sequence[Sequence[int]] = ()) -> tuple[int, IntMat | None]:
    """Fraction-free Gauss-Jordan elimination of an n x k matrix (k <= n).

    Returns ``(d, y)``. ``d`` is the signed k x k pivot minor, 0 iff the
    columns are dependent (always 0 when k > n); for square ``m`` it is
    det(m). A right-hand side needs square ``m``: then ``y`` holds one
    integer column per ``rhs`` column with ``m @ y_c == d * rhs_c``, and is
    ``None`` when d == 0.

    Bareiss elimination, pivoting on the first non-zero entry at or below
    the diagonal: every division is exact, so all entries stay integers
    bounded by minors of ``[m | rhs]``. Rows above the pivot are eliminated
    only when there is a right-hand side, so ``det`` and the rank test pay
    for forward elimination alone.
    """
    n, k = _check_columns(m)
    if k > n:
        return 0, None
    cols = (*m, *rhs)
    width = len(cols)
    # row-major working copy of [m | rhs]
    a = [[col[i] for col in cols] for i in range(n)]
    sign = 1
    prev = 1
    for t in range(k):
        if a[t][t] == 0:
            pivot_row = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
            if pivot_row is None:
                return 0, None
            a[t], a[pivot_row] = a[pivot_row], a[t]
            sign = -sign
        top = a[t]
        piv = top[t]
        for i in range(0 if rhs else t + 1, n):
            if i == t:
                continue
            row = a[i]
            f = row[t]
            for j in range(t + 1, width):
                row[j] = (row[j] * piv - f * top[j]) // prev
        prev = piv
    return sign * prev, tuple(tuple(sign * a[i][j] for i in range(k)) for j in range(k, width))


def _check_square(m: IntMat) -> int:
    n, k = _check_columns(m)
    if n != k:
        raise ValueError(f"square matrix required, got {n}x{k}")
    return n


def det(m: IntMat) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    _check_square(m)
    return _bareiss(m)[0]


def has_full_column_rank(m: IntMat) -> bool:
    """True iff the columns of ``m`` are linearly independent."""
    return _bareiss(m)[0] != 0


def scaled_inverse(m: IntMat) -> tuple[IntMat, int]:
    """Return ``(adj, d)`` with ``adj = d * m^-1`` integral and ``d = det(m)``.

    Raises ``ValueError`` if ``m`` is singular or not square.
    """
    d, adj = _bareiss(m, identity(_check_square(m)))
    if d == 0:
        raise ValueError("generators not linearly independent")
    return adj, d


# ---------------------------------------------------------------------------
# Smith normal form

class SmithDecomposition(NamedTuple):
    """Factorization V = U @ S @ W with unimodular U, W and diagonal S.

    The diagonal of S is non-negative and forms a divisibility chain
    s1 | s2 | ... ; zeros appear only after the rank. U_inv and W_inv are
    exact inverses; the Smith loop builds them and Bareiss inverts them.
    """

    U: IntMat
    S: IntMat
    W: IntMat
    U_inv: IntMat
    W_inv: IntMat

    def diagonal(self) -> IntVec:
        k = min(len(self.S), len(self.S[0]))
        return tuple(self.S[j][j] for j in range(k))


def _smith(m: IntMat) -> tuple[IntVec, IntMat, IntMat]:
    """Smith diagonal of an n x k matrix V, with unimodular U^-1 and W^-1.

    U_inv @ V @ W_inv is diagonal. One working array holds [V | I_n] above
    [I_k | 0]; row operations touch the first n rows and column operations
    the first k columns, so the top-right block becomes U^-1 and the
    bottom-left W^-1. Pivots are the smallest |entry| of the active block,
    first in row-major order, to limit coefficient growth.
    """
    n, k = _check_columns(m)
    a = [[*(col[i] for col in m), *(int(i == j) for j in range(n))] for i in range(n)]
    a += ([int(i == j) for j in range(k)] + [0] * n for i in range(k))
    t = 0
    while t < min(n, k):
        block = [(abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, k) if a[i][j]]
        if not block:
            break
        _, i, j = min(block)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        piv = a[t][t]
        while True:
            for i in range(t + 1, n):
                if c := a[i][t] // piv:
                    a[i] = [x - c * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, k):
                if c := a[t][j] // piv:
                    for row in a:
                        row[j] -= c * row[t]
            if any(a[i][t] for i in range(t + 1, n)) or any(a[t][t + 1:k]):
                break  # a remainder smaller than the pivot: pivot again on it
            # enforce the divisibility chain: fold in a row the pivot misses
            offender = next((row for row in a[t + 1:n] if any(x % piv for x in row[t + 1:k])), None)
            if offender is None:
                t += 1
                break
            a[t] = [x + y for x, y in zip(a[t], offender)]
    return (
        tuple(a[i][i] for i in range(min(n, k))),
        tuple(tuple(a[i][k + j] for i in range(n)) for j in range(n)),
        tuple(tuple(a[n + i][j] for i in range(k)) for j in range(k)),
    )


def snf(m: IntMat) -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    All five returned matrices are exact; V = U @ S @ W holds bit for bit.
    U and W are d * adj of the U^-1 and W^-1 of ``_smith``, each with d = +-1.
    """
    diag, u_inv, w_inv = _smith(m)
    n, k = len(u_inv), len(w_inv)
    s = tuple(tuple(diag[j] if i == j else 0 for i in range(n)) for j in range(k))
    u, w = (tuple(tuple(d * x for x in col) for col in adj)
            for adj, d in map(scaled_inverse, (u_inv, w_inv)))
    return SmithDecomposition(u, s, w, u_inv, w_inv)


# ---------------------------------------------------------------------------
# lattice basis reduction

def lll_reduce(basis: IntMat) -> IntMat:
    """LLL-reduce an integer lattice basis (delta = 3/4), exactly.

    Integral LLL (Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.6.7, after de Weger): instead of the rational
    Gram-Schmidt data it keeps the Gram determinants ``d[0] = 1``,
    ``d[j + 1] = d[j] * |b*_j|^2`` and ``lam[i][j] = d[j + 1] * mu_ij`` as
    integers, computes them once from the Gram matrix and updates them in
    O(k) per size-reduction and swap, where every division is exact.

    The order of operations is fixed to that of the classical rational LLL
    with delta = 3/4: ``b_i`` is fully size-reduced against ``b_{i-1}, ...,
    b_0`` (by ``round(mu) = floor(mu + 1/2)``, also when ``|mu| = 1/2``)
    before the Lovasz test, and a swap steps back to ``max(i - 1, 1)``. The
    returned basis is therefore the one that algorithm returns, column for
    column. It spans the same lattice as ``basis``.

    Raises ``ValueError`` for dependent columns.
    """
    _, k = _check_columns(basis)
    b = [list(col) for col in basis]
    d = [1] * (k + 1)
    lam = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            u = vec_dot(b[i], b[j])
            for l in range(j):
                u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise ValueError("generators not linearly independent")
            else:
                d[i + 1] = u

    i = 1
    while i < k:
        lam_i = lam[i]
        for j in range(i - 1, -1, -1):
            dj = d[j + 1]
            c = (2 * lam_i[j] + dj) // (2 * dj)
            if c:
                b[i] = [x - c * y for x, y in zip(b[i], b[j])]
                lam_i[j] -= c * dj
                lam_j = lam[j]
                for l in range(j):
                    lam_i[l] -= c * lam_j[l]
        t = lam_i[i - 1]
        if 4 * d[i + 1] * d[i - 1] >= 3 * d[i] * d[i] - 4 * t * t:
            i += 1
            continue
        # swap b_{i-1} and b_i; lam[i][i-1] and every d but d[i] are unchanged
        b[i], b[i - 1] = b[i - 1], b[i]
        lam[i][:i - 1], lam[i - 1][:i - 1] = lam[i - 1][:i - 1], lam[i][:i - 1]
        new_d = (d[i - 1] * d[i + 1] + t * t) // d[i]
        for r in range(i + 1, k):
            lam_r = lam[r]
            old = lam_r[i]
            lam_r[i] = (d[i + 1] * lam_r[i - 1] - t * old) // d[i]
            lam_r[i - 1] = (new_d * old + t * lam_r[i]) // d[i + 1]
        d[i] = new_d
        i = max(i - 1, 1)
    return tuple(tuple(col) for col in b)
