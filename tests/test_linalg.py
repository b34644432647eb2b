from fractions import Fraction

import pytest

import helpers
from diagfock import _linalg
from diagfock.scalars import Q, T, V, W


def random_invertible(r, n):
    while True:
        m = [[helpers.rand_frac(r, 2, 3) for _ in range(n)] for _ in range(n)]
        if _linalg._rank([list(row) for row in m]) == n:
            return tuple(tuple(row) for row in m)


def congruence(b, d):
    n = len(b)
    bt = _linalg.transpose(b)
    dm = tuple(tuple(d[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))
    return _linalg.mat_mul(_linalg.mat_mul(bt, dm), b)


def test_ldlt_inertia_by_congruence():
    # B^T D B has the inertia of D for invertible B (Sylvester), which pins
    # the verdict without any numerics
    r = helpers.rng(21)
    patterns = {
        (1, 1, 1): ("positive_definite", 0),
        (1, 1, 0): ("positive_semidefinite", 1),
        (1, 0, 0): ("positive_semidefinite", 2),
        (-1, -1, -1): ("negative_definite", 0),
        (-1, 0, 0): ("negative_semidefinite", 2),
        (1, -1, 0): ("indefinite", 1),
        (1, 1, -1): ("indefinite", 0),
        (0, 0, 0): ("zero", 3),
    }
    for signs, expect in patterns.items():
        for _ in range(4):
            b = random_invertible(r, 3)
            d = [Fraction(s) * (1 + abs(helpers.rand_frac(r, 2, 3))) for s in signs]
            verdict, kernel = _linalg.ldlt_classify(congruence(b, d))
            assert (verdict, kernel) == expect, (signs, d, b)


def test_zero_diagonal_nonzero_offdiag_is_indefinite():
    m = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert _linalg.ldlt_classify(m)[0] == "indefinite"
    # the kernel is that of the zero-diagonal block left when the pivots run out
    f = Fraction
    assert _linalg.ldlt_classify(((f(0), f(1), f(0)), (f(1), f(0), f(0)), (f(0), f(0), f(0)))) == ("indefinite", 1)
    m = ((f(1), f(1), f(1)), (f(1), f(1), f(2)), (f(1), f(2), f(1)))  # one pivot, then [[0, 1], [1, 0]]
    assert _linalg.ldlt_classify(m) == ("indefinite", 0)


def random_symmetric(r, n):
    """A symmetric rational matrix that is singular, has a zero diagonal,
    is negative (semi)definite or is generic, each about equally often."""
    kind = r.randrange(4)
    if kind == 0:  # B^T D B with zeros in D: singular of planted rank
        b = [[helpers.rand_frac(r, 2, 3) for _ in range(n)] for _ in range(n)]
        d = [r.choice((-1, 0, 0, 1)) * (1 + abs(helpers.rand_frac(r))) for _ in range(n)]
        return congruence(tuple(map(tuple, b)), d)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = helpers.rand_frac(r, 2, 3) if r.random() < 0.7 else Fraction(0)
    if kind == 1:
        for i in range(n):
            m[i][i] = Fraction(0)
    if kind == 2:  # -(B^T B): negative semidefinite
        return congruence(tuple(map(tuple, m)), [Fraction(-1)] * n)
    return tuple(map(tuple, m))


def test_fraction_free_ldlt_matches_fraction_elimination():
    r = helpers.rng(23)
    seen = set()
    for _ in range(400):
        m = random_symmetric(r, r.randint(1, 7))
        got = _linalg.ldlt_classify(m)
        assert got == helpers.ldlt_classify_fraction(m), m
        seen.add(got[0])
    assert seen == {
        "positive_definite", "positive_semidefinite", "indefinite", "negative_semidefinite", "negative_definite", "zero"
    }


def test_components_classified_apart_match_fraction_elimination():
    # block diagonal under a random permutation: ldlt_classify eliminates each
    # connected component alone; singular, zero-diagonal, negative and
    # indefinite blocks all occur, and planted-sign blocks give every verdict
    r = helpers.rng(24)
    seen = set()
    for _ in range(150):
        signs = r.choice(((1,), (1, 0), (-1,), (-1, 0), (0,), (1, -1)))
        blocks = []
        for _ in range(r.randint(2, 4)):
            n = r.randint(1, 4)
            if r.random() < 0.5:
                blocks.append(random_symmetric(r, n))
            else:
                d = [r.choice(signs) * (1 + abs(helpers.rand_frac(r))) for _ in range(n)]
                blocks.append(congruence(random_invertible(r, n), d))
        n = sum(map(len, blocks))
        m = [[Fraction(0)] * n for _ in range(n)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b):
                m[at + i][at : at + len(b)] = row
            at += len(b)
        perm = r.sample(range(n), n)
        m = tuple(tuple(m[i][j] for j in perm) for i in perm)
        got = _linalg.ldlt_classify(m)
        assert got == helpers.ldlt_classify_fraction(m), m
        assert got == _linalg.block_diagonal_classify(helpers.ldlt_classify_fraction(b) for b in blocks)
        seen.add(got[0])
    assert seen == {
        "positive_definite", "positive_semidefinite", "indefinite", "negative_semidefinite", "negative_definite", "zero"
    }


def test_solve_linear_roundtrip():
    # each column of B is one right-hand side, solved in the same elimination
    r = helpers.rng(22)
    for width in (1, 3, 0):
        for _ in range(4):
            a = random_invertible(r, 3)
            x = tuple(tuple(helpers.rand_frac(r) for _ in range(width)) for _ in range(3))
            assert _linalg.solve_linear(a, _linalg.mat_mul(a, x)) == x
    f = Fraction
    singular = ((f(1), f(2)), (f(2), f(4)))
    for b in (((f(1),), (f(2),)), ((f(1),), (f(3),)), ((f(1), f(1)), (f(2), f(3)))):  # consistent, inconsistent, both
        with pytest.raises(ValueError, match="singular system"):
            _linalg.solve_linear(singular, b)
    with pytest.raises(ValueError, match="singular system"):
        _linalg.solve_linear(((f(0), f(1), f(0)), (f(0), f(0), f(1)), (f(0), f(1), f(1))), ((f(1),), (f(1),), (f(1),)))
    # int input solves exactly, to Fractions
    for a, b, x in ((((2,),), ((1,),), ((f(1, 2),),)), (((2, 0), (1, 3)), ((4, 1), (5, 0)), ((f(2), f(1, 2)), (f(1), f(-1, 6))))):
        got = _linalg.solve_linear(a, b)
        assert got == x and all(type(v) is Fraction for row in got for v in row)


def random_reduce_input(r):
    """A rational matrix, empty, wide, tall or square, with planted dependent
    rows and zero columns."""
    rows, cols = r.choice(((0, 0), (0, 3), (3, 0), (r.randint(1, 3), r.randint(4, 7)), (r.randint(4, 7), r.randint(1, 3)),
                           (r.randint(1, 6), r.randint(1, 6))))
    m = [[helpers.rand_frac(r) if r.random() < 0.7 else Fraction(0) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        if i >= 2 and r.random() < 0.4:  # a combination of two earlier rows
            c = helpers.rand_frac(r)
            m[i] = [c * x + y for x, y in zip(m[r.randrange(i)], m[r.randrange(i)])]
    for j in range(cols):
        if r.random() < 0.2:
            for row in m:
                row[j] = Fraction(0)
    return m


def test_fraction_free_reduce_matches_fraction_gauss_jordan():
    # d times the reduced rows on ints: the same pivots, and the rows over d are
    # the Fraction elimination's
    r = helpers.rng(27)
    for _ in range(400):
        m = random_reduce_input(r)
        rows, pivots, d = _linalg._reduce(m)
        want_rows, want_pivots = helpers.reduce_fraction(m)
        assert pivots == want_pivots, m
        assert all(type(x) is int for row in rows for x in row)
        assert [[Fraction(x, d) for x in row] for row in rows] == want_rows, m


def test_products_match_a_literal_loop():
    r = helpers.rng(25)
    entries = [Q, T, V - W, Q * T + 1]

    def pick():
        return r.choice(entries) if r.random() < 0.4 else helpers.rand_frac(r)

    for _ in range(40):
        m, k, n = r.randint(1, 4), r.randint(1, 4), r.randint(1, 4)
        a = tuple(tuple(pick() for _ in range(k)) for _ in range(m))
        b = tuple(tuple(pick() for _ in range(n)) for _ in range(k))
        x = [pick() for _ in range(k)]
        want_ab = []
        for i in range(m):
            row = []
            for j in range(n):
                s = a[i][0] * b[0][j]
                for l in range(1, k):
                    s = s + a[i][l] * b[l][j]
                row.append(s)
            want_ab.append(tuple(row))
        want_ax = []
        for i in range(m):
            s = a[i][0] * x[0]
            for l in range(1, k):
                s = s + a[i][l] * x[l]
            want_ax.append(s)
        got_ab, got_ax = _linalg.mat_mul(a, b), _linalg.mat_vec(a, x)
        assert got_ab == tuple(want_ab) and got_ax == tuple(want_ax)
        assert [type(v) for row in got_ab for v in row] == [type(v) for row in want_ab for v in row]
        assert list(map(type, got_ax)) == list(map(type, want_ax))


def test_ldlt_pivots_with_planted_dependencies():
    vs = [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0), Fraction(0)),  # dependent on v0
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(0)),  # dependent on v0, v2
        (Fraction(0), Fraction(0), Fraction(3)),
    ]
    gram = tuple(tuple(_linalg.dot(a, b) for b in vs) for a in vs)
    assert _linalg._ldlt(gram) == ("positive_semidefinite", 2, [0, 2, 4])


def test_ldlt_pivots_are_the_greedy_choice_on_gram_matrices():
    # the oracle keeps vector i when the principal minor of the kept ones and i
    # is nonsingular; the pivots of the LDL^T in index order agree on every
    # Gram (positive semidefinite) matrix, and an indefinite one is outside
    # the contract, as its verdict says
    r = helpers.rng(26)
    for _ in range(60):
        dim, count = r.randint(1, 3), r.randint(1, 6)
        vs = []
        for _ in range(count):
            pick = r.random()
            if vs and pick < 0.3:  # a combination of earlier vectors
                u, w = r.choice(vs), r.choice(vs)
                vs.append(tuple(helpers.rand_frac(r) * x + y for x, y in zip(u, w)))
            else:
                vs.append(tuple(Fraction(0) if pick > 0.9 else helpers.rand_frac(r) for _ in range(dim)))
        gram = tuple(tuple(_linalg.dot(a, b) for b in vs) for a in vs)
        greedy = []
        for i in range(count):
            trial = greedy + [i]
            if helpers.rank_brute([[gram[a][b] for b in trial] for a in trial]) == len(trial):
                greedy.append(i)
        assert _linalg._ldlt(gram)[2] == greedy
    assert _linalg._ldlt(((0, 1), (1, 0))) == ("indefinite", 0, [])


def test_dimension_mismatch_raises():
    assert _linalg.dot([1, 2], [3, 4]) == 11
    with pytest.raises(ValueError):
        _linalg.dot([1, 2], [3])
    with pytest.raises(ValueError):
        _linalg.mat_vec(((1, 0), (0, 1)), [1])
    assert _linalg.mat_mul(((1, 2),), ((1,), (2,))) == ((5,),)
    for a, b in [(((1, 2, 3),), ((1,), (2,))), (((1,),), ((1,), (2,)))]:  # inner size 3 vs 2, then 1 vs 2
        with pytest.raises(ValueError):
            _linalg.mat_mul(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        (((1, 2),), ((3,),)),
        (((1, 0), (0, 1)), ((1,), (2,), (3,))),
        (((1, 0), (0, 1)), ((1,),)),
        (((1, 0), (0, 1)), ((1,), (2, 3))),
    ],
)
def test_solve_linear_refuses_a_shape_mismatch(a, b):
    # a non-square A, a B longer than A, a B shorter than A, rows of B of unequal length
    with pytest.raises(ValueError, match="n x n matrix and n rows of right-hand sides"):
        _linalg.solve_linear(a, b)


@pytest.mark.parametrize("a, b", [(((1, 2, 3),), ((), ())), (((1, 2),), ())])
def test_mat_mul_refuses_a_mismatch_when_b_has_no_columns(a, b):
    with pytest.raises(ValueError, match="rows of b"):
        _linalg.mat_mul(a, b)
