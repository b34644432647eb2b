from fractions import Fraction

import pytest

import helpers
from diagfock.scalars import DeformationParams, Poly, Q, T, V, W, ResourceLimitError
from diagfock.fock import (
    ANNIHILATE,
    CREATE,
    FockVector,
    GaugePair,
    VectorPair,
    field_apply,
)
from diagfock.partitions import set_partitions
from diagfock.wick import (
    MAX_WICK_N,
    QuadrabasicOp,
    cumulants_to_moments,
    full_fock_oracle,
    full_wick,
    gaussian_fock_oracle,
    gaussian_wick,
    moments_to_cumulants,
    word_fock_oracle,
    word_vacuum_formula,
)

SYM = DeformationParams.symbolic()


def params_rat(q, t, v, w):
    return DeformationParams.from_rationals(Fraction(q), Fraction(t), Fraction(v), Fraction(w))


PARAM_POINTS = [
    params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 4)),
    params_rat(Fraction(-1, 3), Fraction(1, 2), Fraction(1, 4), Fraction(1)),
    params_rat(0, 1, 0, 1),
    params_rat(1, 1, 1, 1),
]


def rand_pair(r, d=2):
    return VectorPair.of(helpers.rand_vec(r, d), helpers.rand_vec(r, d))


def test_gaussian_low_moments_symbolic():
    x = VectorPair.of([1], [1])
    assert gaussian_wick([x, x], SYM) == Poly.const(1)
    assert gaussian_wick([x, x, x], SYM) == Poly.zero()
    assert gaussian_wick([x, x, x, x], SYM) == 1 + Q * V + Q * W + T * V + T * W


def test_gaussian_sixth_moment_symbolic_vs_operator_route():
    x = VectorPair.of([1], [1])
    f = FockVector.vacuum()
    for _ in range(6):
        f = field_apply(x, f, SYM)
    assert gaussian_wick([x] * 6, SYM) == f.vacuum_coefficient()


def test_gaussian_formula_matches_operator_model():
    r = helpers.rng(31)
    for params in PARAM_POINTS:
        for n in (2, 4, 6):
            for _ in range(3):
                xs = [rand_pair(r) for _ in range(n)]
                assert gaussian_wick(xs, params) == gaussian_fock_oracle(xs, params)


def test_gaussian_odd_moments_vanish():
    r = helpers.rng(32)
    for n in (1, 3, 5):
        xs = [rand_pair(r) for _ in range(n)]
        assert gaussian_wick(xs, SYM) == Poly.zero()
        assert gaussian_fock_oracle(xs, SYM) == Poly.zero()


def test_gaussian_specializations_single_variable():
    x = VectorPair.of([1], [1])

    def seq(params):
        return [gaussian_wick([x] * (2 * k), params) for k in range(1, 5)]

    assert seq(params_rat(1, 1, 0, 1)) == [1, 3, 15, 105]
    assert seq(params_rat(0, 1, 0, 1)) == [1, 2, 5, 14]
    assert seq(params_rat(1, 1, 1, 1)) == [1, 5, 61, 1385]


def test_word_formula_annihilate_then_create():
    r = helpers.rng(33)
    x, y = rand_pair(r), rand_pair(r)
    out = word_vacuum_formula([(ANNIHILATE, x), (CREATE, y)], SYM)
    expect = Fraction(sum(a * b for a, b in zip(x.xi, y.xi))) * Fraction(
        sum(a * b for a, b in zip(x.eta, y.eta))
    )
    assert out.vacuum_coefficient() == Poly.const(expect)


def test_word_formula_unpairable_annihilator_gives_zero():
    r = helpers.rng(34)
    x, y = rand_pair(r), rand_pair(r)
    assert word_vacuum_formula([(CREATE, y), (ANNIHILATE, x)], SYM) == FockVector.zero()
    assert word_vacuum_formula([(CREATE, y), (CREATE, y), (ANNIHILATE, x)], SYM) == FockVector.zero()


def test_word_formula_residual_three_tokens_by_hand():
    # A(x) C(y) C(z): top matchings pair 1-2 (weight t) or 1-3 (weight q),
    # bar matchings independently with w and v, residual is the unmatched
    # creator's letter in each row
    r = helpers.rng(35)
    x, y, z = rand_pair(r), rand_pair(r), rand_pair(r)

    def dot(a, b):
        return sum(p * q for p, q in zip(a, b))

    def embed(top_vec, bar_vec):
        out = FockVector()
        for i, a in enumerate(top_vec):
            for j, b in enumerate(bar_vec):
                if a * b != 0:
                    out.add_term(((i,), (j,)), a * b)
        return out

    expect = (
        embed(z.xi, z.eta).scale(T * W * dot(x.xi, y.xi) * dot(x.eta, y.eta))
        + embed(z.xi, y.eta).scale(T * V * dot(x.xi, y.xi) * dot(x.eta, z.eta))
        + embed(y.xi, z.eta).scale(Q * W * dot(x.xi, z.xi) * dot(x.eta, y.eta))
        + embed(y.xi, y.eta).scale(Q * V * dot(x.xi, z.xi) * dot(x.eta, z.eta))
    )
    got = word_vacuum_formula([(ANNIHILATE, x), (CREATE, y), (CREATE, z)], SYM)
    assert got == expect


def test_word_formula_matches_operator_model_all_patterns():
    r = helpers.rng(36)
    params = PARAM_POINTS[0]
    for n in range(1, 6):
        for mask in range(2**n):
            kinds = [CREATE if (mask >> i) & 1 else ANNIHILATE for i in range(n)]
            tokens = [(k, rand_pair(r)) for k in kinds]
            assert word_vacuum_formula(tokens, params) == word_fock_oracle(tokens, params)


def test_word_formula_matches_operator_model_symbolic_length_six():
    r = helpers.rng(37)
    for kinds in [
        (ANNIHILATE, ANNIHILATE, ANNIHILATE, CREATE, CREATE, CREATE),
        (ANNIHILATE, CREATE, ANNIHILATE, CREATE, ANNIHILATE, CREATE),
        (ANNIHILATE, ANNIHILATE, CREATE, CREATE, ANNIHILATE, CREATE),
    ]:
        tokens = [(k, rand_pair(r)) for k in kinds]
        assert word_vacuum_formula(tokens, SYM) == word_fock_oracle(tokens, SYM)


def test_full_wick_reduces_to_gaussian():
    r = helpers.rng(38)
    xs = [rand_pair(r) for _ in range(4)]
    ops = [QuadrabasicOp(x, None, Fraction(0), Fraction(1)) for x in xs]
    for params in PARAM_POINTS[:2]:
        assert full_wick(ops, params) == gaussian_wick(xs, params)


def test_full_wick_single_operator_moments_by_hand():
    r = helpers.rng(39)
    x = rand_pair(r)
    tmat = helpers.rand_sym_mat(r, 2)
    tbar = helpers.rand_sym_mat(r, 2)
    lam, lambar = Fraction(1, 2), Fraction(3)
    op = QuadrabasicOp(x, GaugePair.of(tmat, tbar), lam, lambar)

    def dot(a, b):
        return sum(p * q for p, q in zip(a, b))

    sx = dot(x.xi, x.xi) * dot(x.eta, x.eta)
    ls = lam * lambar
    assert full_wick([op], SYM) == Poly.const(ls)
    assert full_wick([op, op], SYM) == Poly.const(sx + ls * ls)
    chain = dot(x.xi, helpers.apply_mat(tmat, x.xi)) * dot(x.eta, helpers.apply_mat(tbar, x.eta))
    m3 = Poly.const(chain + 3 * sx * ls + ls**3)
    assert full_wick([op, op, op], SYM) == m3
    assert full_fock_oracle([op, op, op], SYM) == m3


def test_quadrabasic_op_rejects_gauge_of_another_dimension():
    x = VectorPair.of([1, 2], [1])
    with pytest.raises(ValueError, match="gauge T must be 2 x 2"):
        QuadrabasicOp(x, GaugePair.of([[1]], [[1]]))
    with pytest.raises(ValueError, match="gauge Tbar must be 1 x 1"):
        QuadrabasicOp(x, GaugePair.of([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    assert QuadrabasicOp(x, GaugePair.of([[1, 0], [0, 1]], [[2]])).gauge.bar == ((2,),)


def test_full_wick_matches_operator_model():
    r = helpers.rng(40)
    for params in PARAM_POINTS:
        for n in (2, 3, 4):
            for _ in range(2):
                ops = []
                for _ in range(n):
                    gauge = None
                    if r.random() < 0.7:
                        gauge = GaugePair.of(helpers.rand_sym_mat(r, 2), helpers.rand_sym_mat(r, 2))
                    ops.append(
                        QuadrabasicOp(rand_pair(r), gauge, helpers.rand_frac(r), helpers.rand_frac(r))
                    )
                assert full_wick(ops, params) == full_fock_oracle(ops, params)


def test_full_wick_mixed_operators_symbolic():
    r = helpers.rng(41)
    ops = [
        QuadrabasicOp(rand_pair(r), GaugePair.of(helpers.rand_sym_mat(r, 2), helpers.rand_sym_mat(r, 2)),
                      Fraction(1), Fraction(1)),
        QuadrabasicOp(rand_pair(r), None, Fraction(0), Fraction(1)),
        QuadrabasicOp(rand_pair(r), GaugePair.of(helpers.rand_sym_mat(r, 2), helpers.rand_sym_mat(r, 2)),
                      Fraction(-1, 2), Fraction(2)),
    ]
    assert full_wick(ops, SYM) == full_fock_oracle(ops, SYM)


def test_moment_cumulant_roundtrip_exact():
    r = helpers.rng(42)
    for params in PARAM_POINTS:
        for _ in range(5):
            cums = [helpers.rand_frac(r) for _ in range(8)]
            ms = cumulants_to_moments(cums, params)
            assert moments_to_cumulants(ms, params) == cums
            assert cumulants_to_moments(moments_to_cumulants(ms, params), params) == ms


def test_moment_cumulant_roundtrip_symbolic():
    cums = [Poly.const(k + 1) for k in range(5)]
    ms = cumulants_to_moments(cums, SYM)
    assert moments_to_cumulants(ms, SYM) == cums


def test_cumulants_to_moments_free_case_is_noncrossing_sum():
    r = helpers.rng(43)
    free = params_rat(0, 1, 0, 1)
    for _ in range(5):
        cums = [helpers.rand_frac(r) for _ in range(7)]
        got = cumulants_to_moments(cums, free)
        expect = helpers.free_cumulants_to_moments(cums, 7)
        assert got == expect


def test_cumulants_to_moments_classical_case_role_pair_sum():
    # at q=t=v=w=1 every compatible pair of rows counts with weight 1
    r = helpers.rng(44)
    classical = params_rat(1, 1, 1, 1)
    cums = [helpers.rand_frac(r) for _ in range(5)]
    got = cumulants_to_moments(cums, classical)
    for n in range(1, 6):
        ps = list(set_partitions(n))
        total = Fraction(0)
        for a in ps:
            for b in ps:
                if a.roles() != b.roles():
                    continue
                prod = Fraction(1)
                for blk in a.blocks:
                    prod *= cums[len(blk) - 1]
                total += prod
        assert got[n - 1] == total


def test_wick_guard():
    x = VectorPair.of([1], [1])
    with pytest.raises(ResourceLimitError):
        gaussian_wick([x] * (MAX_WICK_N + 2), SYM)
