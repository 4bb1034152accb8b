import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from symcones.exactmath import (
    _smith,
    det,
    has_full_column_rank,
    identity,
    lll_reduce,
    prim,
    scaled_inverse,
    snf,
)
from _support import (
    cofactor_det,
    cols_from_rows,
    cramer_solve,
    gauss_rank,
    mat_mul,
    random_full_dim_cone,
    reference_lll,
    reference_smith_diagonal,
)


# --- prim --------------------------------------------------------------------

def test_prim_examples():
    assert prim((2, 4, -6)) == (1, 2, -3)
    assert prim((1, 0, 13)) == (1, 0, 13)
    assert prim((0, -5, 10)) == (0, -1, 2)


def test_prim_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector has no primitive form"):
        prim((0, 0, 0))


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=6).filter(lambda v: any(v)))
def test_prim_properties(v):
    p = prim(tuple(v))
    assert prim(p) == p
    g = 0
    import math

    for x in p:
        g = math.gcd(g, x)
    assert g == 1


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=5).filter(lambda v: any(v)),
    st.integers(1, 20),
)
def test_prim_scaling_invariance(v, c):
    assert prim(tuple(c * x for x in v)) == prim(tuple(v))


# --- Smith normal form ---------------------------------------------------------

def check_snf_invariants(cols):
    dec = snf(cols)
    n, k = len(cols[0]), len(cols)
    assert mat_mul(mat_mul(dec.U, dec.S), dec.W) == cols
    assert mat_mul(dec.U, dec.U_inv) == identity(n)
    assert mat_mul(dec.W, dec.W_inv) == identity(k)
    diag = dec.diagonal()
    assert all(s >= 0 for s in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return dec


def test_snf_smith_form_of_2x2_fixture():
    cols = cols_from_rows([[2, 6], [-2, 2]])
    dec = check_snf_invariants(cols)
    assert dec.diagonal() == (2, 8)
    assert abs(det(dec.U)) == 1
    assert abs(det(dec.W)) == 1


def test_snf_identity():
    dec = check_snf_invariants(identity(3))
    assert dec.diagonal() == (1, 1, 1)


def test_snf_diagonal_4_6():
    dec = check_snf_invariants(cols_from_rows([[4, 0], [0, 6]]))
    # divisibility forces s1 = gcd = 2 and s1*s2 = |det| = 24
    assert dec.diagonal() == (2, 12)


def test_snf_random_shapes():
    rng = random.Random(20240)
    for _ in range(120):
        n = rng.randint(1, 5)
        k = rng.randint(1, 5)
        cols = tuple(
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(k)
        )
        check_snf_invariants(cols)


def test_snf_rank_deficient():
    cols = cols_from_rows([[1, 2], [2, 4]])  # rank 1
    dec = check_snf_invariants(cols)
    assert dec.diagonal() == (1, 0)


def test_smith_core_matches_determinantal_divisors():
    # the loop snf and enum_fundpar share, against an oracle with no code in
    # common: U^-1 V W^-1 is the determinantal-divisor diagonal and both
    # transforms are unimodular
    rng = random.Random(2026)
    shapes = [
        ((0, 0, 0), (0, 0, 0)),  # zero matrix
        ((0,), (0,), (0,)),  # zero and wider than tall
        cols_from_rows([[1, 2, 3, 4], [2, 4, 6, 8]]),  # k > n, rank 1
        cols_from_rows([[2, 4], [4, 8], [6, 12]]),  # rank deficient
        cols_from_rows([[4, 0], [0, 6]]),  # divisibility forces a fold
    ]
    for trial in range(200):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        cols = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(k)]
        if trial % 4 == 0 and k > 1:
            # a dependent last column keeps the rank below min(n, k)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            cols[-1] = tuple(a * x + b * y for x, y in zip(cols[0], cols[-2]))
        shapes.append(tuple(cols))
    for cols in shapes:
        n, k = len(cols[0]), len(cols)
        diag, u_inv, w_inv = _smith(cols)
        assert diag == reference_smith_diagonal(cols)
        s = tuple(tuple(diag[j] if i == j else 0 for i in range(n)) for j in range(k))
        assert mat_mul(mat_mul(u_inv, cols), w_inv) == s
        assert abs(cofactor_det(u_inv)) == 1
        assert abs(cofactor_det(w_inv)) == 1


# --- determinants ---------------------------------------------------------------

def test_det_examples():
    assert det(cols_from_rows([[2, 6], [-2, 2]])) == 16
    assert det(identity(4)) == 1
    assert det(cols_from_rows([[1, 1], [0, 3]])) == 3


def test_det_requires_square():
    with pytest.raises(ValueError, match="square"):
        det(((1, 0, 0), (0, 1, 0)))


def test_det_against_cofactor_and_snf():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        cols = cols_from_rows(rows)
        d = det(cols)
        assert d == cofactor_det(rows)
        dec = snf(cols)
        prod = 1
        for s in dec.diagonal():
            prod *= s
        assert abs(d) == prod
        if d != 0:
            assert d == det(dec.U) * det(dec.W) * prod


# --- rank test, solving, adjugate ----------------------------------------------------

def gram_det(cols) -> int:
    """det(V^T V) by cofactor expansion: non-zero iff the columns are
    independent, and shares no code with the Bareiss core."""
    return cofactor_det([[sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols])


@st.composite
def column_sets(draw):
    """n <= 6 rows, entries in [-3, 3]; about 30% made rank-deficient by
    replacing one column with an integer combination of the others."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    entry = st.integers(-3, 3)
    cols = [tuple(draw(entry) for _ in range(n)) for _ in range(k)]
    if draw(st.integers(0, 9)) < 3:
        target = draw(st.integers(0, k - 1))
        coeffs = [draw(entry) for _ in range(k)]
        cols[target] = tuple(
            sum(coeffs[j] * cols[j][i] for j in range(k) if j != target)
            for i in range(n)
        )
    return tuple(cols)


@settings(max_examples=300, deadline=None)
@given(column_sets())
def test_rank_test_agrees_with_rational_solve(cols):
    full = gram_det(cols) != 0
    assert has_full_column_rank(cols) == full
    assert (gauss_rank(cols) == len(cols)) == full


def test_rank_test_examples():
    assert has_full_column_rank(((1, 0, 0), (0, 1, 0)))
    assert not has_full_column_rank(((1, 2), (2, 4)))
    assert not has_full_column_rank(((0, 0),))
    assert not has_full_column_rank(((1, 0), (0, 1), (1, 1)))
    # the first pivot position is zero and needs a row swap
    assert has_full_column_rank(((0, 2, 1), (3, 1, 0)))


def _outcome(func, *args):
    """``func(*args)``, or ``ValueError`` if it raised one."""
    try:
        return func(*args)
    except ValueError:
        return ValueError


def test_scaled_inverse_against_cofactor_det():
    rng = random.Random(31)
    signs = set()
    for trial in range(120):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            rows[0][0] = 0  # the first pivot needs a row swap
        d = cofactor_det(rows)
        if d == 0:
            continue
        signs.add(d > 0)
        m = cols_from_rows(rows)
        adj, dd = scaled_inverse(m)
        assert dd == d
        assert all(type(x) is int for col in adj for x in col)
        assert mat_mul(m, adj) == tuple(
            tuple(d if i == j else 0 for i in range(n)) for j in range(n)
        )
    assert signs == {True, False}


def test_scaled_inverse_rejects_singular_and_non_square():
    with pytest.raises(ValueError, match="not linearly independent"):
        scaled_inverse(cols_from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="not linearly independent"):
        scaled_inverse(cols_from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]]))
    with pytest.raises(ValueError, match="square"):
        scaled_inverse(((1, 0, 0), (0, 1, 0)))


# --- LLL -------------------------------------------------------------------------

def is_lll_reduced(cols, delta=Fraction(3, 4)):
    k = len(cols)
    star: list[list[Fraction]] = []
    mu = [[Fraction(0)] * k for _ in range(k)]
    norms: list[Fraction] = []
    for i in range(k):
        v = [Fraction(x) for x in cols[i]]
        for j in range(i):
            mu[i][j] = sum(Fraction(x) * y for x, y in zip(cols[i], star[j])) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
        norms.append(sum(x * x for x in v))
    for i in range(k):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
    for i in range(1, k):
        if norms[i] < (delta - mu[i][i - 1] ** 2) * norms[i - 1]:
            return False
    return True


def same_lattice(a, b):
    """Each basis expresses the other integrally; transition matrices unimodular."""
    for cols_from, cols_to in ((a, b), (b, a)):
        transition = []
        for col in cols_to:
            coeffs = cramer_solve(cols_from, col)
            if coeffs is None or any(c.denominator != 1 for c in coeffs):
                return False
            transition.append(tuple(int(c) for c in coeffs))
        dec = snf(tuple(transition))
        if dec.diagonal() != (1,) * len(cols_from):
            return False
    return True


def test_lll_identity_already_reduced():
    out = lll_reduce(identity(2))
    assert sorted(tuple(abs(x) for x in col) for col in out) == [(0, 1), (1, 0)]
    assert same_lattice(out, identity(2))


def test_lll_shears_off_large_entry():
    basis = cols_from_rows([[1, 100], [0, 1]])
    out = lll_reduce(basis)
    assert is_lll_reduced(out)
    assert same_lattice(out, basis)
    assert any(tuple(abs(x) for x in col) in ((0, 1), (1, 0)) for col in out)


def test_lll_finds_short_vector():
    basis = cols_from_rows([[201, 1], [200, 1]])
    out = lll_reduce(basis)
    assert is_lll_reduced(out)
    assert same_lattice(out, basis)
    norms = [sum(x * x for x in col) for col in out]
    # exhaustive search: any v = a*(201,200) + b*(1,1) with norm^2 <= 4 forces
    # |a| <= 4 and |b| <= 2 + 201|a|, so this window contains the minimum
    best = min(
        sum(x * x for x in (a * basis[0][i] + b * basis[1][i] for i in range(2)))
        for a in range(-4, 5)
        for b in range(-810, 811)
        if (a, b) != (0, 0)
    )
    assert best <= 2
    assert min(norms) == best


def test_lll_random_span_preservation():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        while True:
            cols = tuple(
                tuple(rng.randint(-30, 30) for _ in range(n)) for _ in range(n)
            )
            if det(cols) != 0:
                break
        out = lll_reduce(cols)
        assert is_lll_reduced(out)
        assert same_lattice(out, cols)


def test_lll_rejects_dependent_columns():
    with pytest.raises(ValueError, match="not linearly independent"):
        lll_reduce(((1, 2), (2, 4)))


@st.composite
def lll_bases(draw):
    """Square and tall (k < n) integer bases, n <= 6, entries in [-30, 30];
    dependent ones included."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    col = st.tuples(*[st.integers(-30, 30)] * n)
    return tuple(draw(st.lists(col, min_size=k, max_size=k)))


@settings(max_examples=200, deadline=None)
@given(lll_bases())
@example(((2, 0), (1, 5)))  # mu = 1/2 exactly: rounds up and is reduced
@example(((2, 0), (-1, 5)))  # mu = -1/2 exactly: rounds to 0
@example(((1, 0), (0, 1), (1, 1)))  # more columns than rows
@example(((1, 2, 3), (2, 4, 6)))  # tall and dependent
@example(((1, 1, 1), (0, -2, -2), (-1, 0, -2)))  # a Lovasz test holds with equality
def test_lll_matches_rational_reference(basis):
    assert _outcome(lll_reduce, basis) == _outcome(reference_lll, basis)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32))
def test_lll_matches_rational_reference_on_adjugates(dim, seed):
    # Barvinok reduces det(V) * V^-1 of each cone it decomposes
    c = random_full_dim_cone(random.Random(seed), dim, 10, max_det=10**6)
    adj, _ = scaled_inverse(c.generators)
    assert lll_reduce(adj) == reference_lll(adj)
