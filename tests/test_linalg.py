from fractions import Fraction

import pytest

import helpers
from diagfock import _linalg
from diagfock.scalars import Q, T, V, W


def random_invertible(r, n):
    while True:
        m = [[helpers.rand_frac(r, 2, 3) for _ in range(n)] for _ in range(n)]
        if helpers.rank_brute(m) == n:
            return tuple(tuple(row) for row in m)


def congruence(b, d):
    n = len(b)
    bt = _linalg.transpose(b)
    dm = tuple(tuple(d[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))
    return helpers.mat_mul(helpers.mat_mul(bt, dm), b)


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
            verdict, kernel = _linalg._ldlt(congruence(b, d))[:2]
            assert (verdict, kernel) == expect, (signs, d, b)


def test_zero_diagonal_nonzero_offdiag_is_indefinite():
    m = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert _linalg._ldlt(m)[0] == "indefinite"
    # the kernel is that of the zero-diagonal block left when the pivots run out
    f = Fraction
    assert _linalg._ldlt(((f(0), f(1), f(0)), (f(1), f(0), f(0)), (f(0), f(0), f(0))))[:2] == ("indefinite", 1)
    m = ((f(1), f(1), f(1)), (f(1), f(1), f(2)), (f(1), f(2), f(1)))  # one pivot, then [[0, 1], [1, 0]]
    assert _linalg._ldlt(m)[:2] == ("indefinite", 0)
    # e_0 -> e_0 + e_1 puts 2 on the diagonal; the elimination goes on to
    # pivots of both signs and leaves the kernel e_1 - e_2
    assert _linalg._ldlt(((0, 1, 1), (1, 0, 0), (1, 0, 0)))[:2] == ("indefinite", 1)


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
        got = _linalg._ldlt(m)[:2]
        assert got == helpers.ldlt_classify_fraction(m), m
        seen.add(got[0])
    assert seen == {
        "positive_definite", "positive_semidefinite", "indefinite", "negative_semidefinite", "negative_definite", "zero"
    }


def test_components_classified_apart_match_fraction_elimination():
    # block diagonal under a random permutation: the oracle helpers.ldlt_classify
    # eliminates each connected component alone; singular, zero-diagonal,
    # negative and indefinite blocks all occur, and planted-sign blocks give
    # every verdict
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
        got = helpers.ldlt_classify(m)
        assert got == helpers.ldlt_classify_fraction(m), m
        assert got == helpers.block_diagonal_classify(helpers.ldlt_classify_fraction(b) for b in blocks)
        seen.add(got[0])
    assert seen == {
        "positive_definite", "positive_semidefinite", "indefinite", "negative_semidefinite", "negative_definite", "zero"
    }


def test_whole_matrix_oracle_needs_a_symmetric_matrix():
    f = Fraction
    with pytest.raises(ValueError, match="needs a symmetric matrix"):
        helpers.ldlt_classify(((f(1), f(2)), (f(0), f(1))))
    # a one-sided entry: unchecked, the split would join 0 and 2 and eliminate [[1, 1], [0, 1]]
    with pytest.raises(ValueError, match="needs a symmetric matrix"):
        helpers.ldlt_classify(((f(1), f(0), f(1)), (f(0), f(1), f(0)), (f(0), f(0), f(1))))


def test_solve_linear_roundtrip():
    # a positive definite system: every column of B is one right-hand side,
    # solved in the elimination that gives the verdict, on every row
    r = helpers.rng(22)
    for n in (1, 3, 5):
        for width in (1, 3, 0):
            for _ in range(4):
                d = [1 + abs(helpers.rand_frac(r)) for _ in range(n)]
                a = congruence(random_invertible(r, n), d)
                x = tuple(tuple(helpers.rand_frac(r) for _ in range(width)) for _ in range(n))
                b = helpers.mat_mul(a, x)
                assert _linalg._ldlt(a, b) == ("positive_definite", 0, list(range(n)), x)
                assert helpers.solve_fraction(a, b) == x
    # int input solves exactly, to Fractions
    f = Fraction
    for a, b, x in ((((2,),), ((1,),), ((f(1, 2),),)), (((2, 1), (1, 3)), ((4, 1), (5, 0)), ((f(7, 5), f(3, 5)), (f(6, 5), f(-1, 5))))):
        got = _linalg._ldlt(a, b)[3]
        assert got == x and all(type(v) is Fraction for row in got for v in row)
    # the right-hand sides are never searched for a pivot: a zero matrix has none
    assert _linalg._ldlt(((0, 0), (0, 0)), ((1, 2), (3, 4))) == ("zero", 2, [], ())
    assert _linalg._ldlt(((1, 0), (0, 0)), ((1, 2), (3, 4))) == ("positive_semidefinite", 1, [0], ((1, 2),))


def random_gram_system(r):
    """A positive semidefinite Gram matrix of rational vectors, some of them
    combinations of earlier ones or zero, and right-hand sides on every row,
    its non-pivot rows included."""
    dim, count, width = r.randint(1, 4), r.randint(0, 7), r.randint(0, 3)
    vs = []
    for _ in range(count):
        pick = r.random()
        if vs and pick < 0.35:  # a combination of earlier vectors
            u, w = r.choice(vs), r.choice(vs)
            vs.append(tuple(helpers.rand_frac(r) * x + y for x, y in zip(u, w)))
        else:
            vs.append(tuple(Fraction(0) if pick > 0.9 else helpers.rand_frac(r) for _ in range(dim)))
    gram = tuple(tuple(_linalg.dot(a, b) for b in vs) for a in vs)
    b = tuple(tuple(helpers.rand_frac(r) for _ in range(width)) for _ in range(count))
    return gram, b


def test_fraction_free_reduce_matches_fraction_gauss_jordan():
    # on a positive semidefinite Gram matrix the pivots are a maximal
    # independent family p, and x solves gram[p][p] x = b[p] as the Fraction
    # Gauss-Jordan does
    r = helpers.rng(27)
    seen = set()
    for _ in range(300):
        gram, b = random_gram_system(r)
        verdict, kernel, pivots, x = _linalg._ldlt(gram, b)
        assert (verdict, kernel) == helpers.ldlt_classify_fraction(gram) and kernel == len(gram) - len(pivots)
        assert len(pivots) == helpers.rank_brute(gram)
        want = helpers.solve_fraction([[gram[i][j] for j in pivots] for i in pivots], [b[i] for i in pivots])
        assert x == want and all(type(v) is Fraction for row in x for v in row), (gram, b)
        seen.add(verdict)
    assert seen == {"positive_definite", "positive_semidefinite", "zero"}


def test_products_match_a_literal_loop():
    r = helpers.rng(25)
    entries = [Q, T, V - W, Q * T + 1]

    def pick():
        return r.choice(entries) if r.random() < 0.4 else helpers.rand_frac(r)

    for _ in range(40):
        m, k = r.randint(1, 4), r.randint(1, 4)
        a = tuple(tuple(pick() for _ in range(k)) for _ in range(m))
        x = [pick() for _ in range(k)]
        want_ax = []
        for i in range(m):
            s = a[i][0] * x[0]
            for l in range(1, k):
                s = s + a[i][l] * x[l]
            want_ax.append(s)
        got_ax = _linalg.mat_vec(a, x)
        assert got_ax == tuple(want_ax)
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
    assert _linalg._ldlt(gram)[:3] == ("positive_semidefinite", 2, [0, 2, 4])


def test_ldlt_pivots_are_the_greedy_choice_on_gram_matrices():
    # the oracle keeps vector i when the principal minor of the kept ones and i
    # is nonsingular; the pivots of the LDL^T in index order agree on every
    # Gram (positive semidefinite) matrix, and an indefinite one is outside
    # the contract, as its verdict says
    r = helpers.rng(26)
    for _ in range(60):
        gram, _ = random_gram_system(r)
        greedy = []
        for i in range(len(gram)):
            trial = greedy + [i]
            if helpers.rank_brute([[gram[a][b] for b in trial] for a in trial]) == len(trial):
                greedy.append(i)
        assert _linalg._ldlt(gram)[2] == greedy
    assert _linalg._ldlt(((0, 1), (1, 0)))[:2] == ("indefinite", 0)


def test_dimension_mismatch_raises():
    assert _linalg.dot([1, 2], [3, 4]) == 11
    with pytest.raises(ValueError):
        _linalg.dot([1, 2], [3])
    with pytest.raises(ValueError):
        _linalg.mat_vec(((1, 0), (0, 1)), [1])


@pytest.mark.parametrize(
    "a, b",
    [
        (((1, 0), (0, 1)), ((1,), (2,), (3,))),
        (((1, 0), (0, 1)), ((1,),)),
        (((1,),), ()),
        ((), ((1,),)),
    ],
)
def test_solve_linear_refuses_a_shape_mismatch(a, b):
    # right-hand sides of one row per row of the matrix, or none: a B longer
    # than A, a B shorter than A, no row for a 1 x 1 A, a row for the empty A
    with pytest.raises(ValueError, match="zip"):
        _linalg._ldlt(a, b)
