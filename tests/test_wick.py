import re
from fractions import Fraction

import pytest

import helpers
from diagfock._guards import MAX_DIAGONAL_N, ResourceLimitError
from diagfock.scalars import DeformationParams, Poly, Q, T, V, W
from diagfock.fock import (
    ANNIHILATE,
    CREATE,
    FockVector,
    GaugePair,
    VectorPair,
)
from diagfock.orthopoly import jacobi_hermite, jacobi_poisson, moments_from_jacobi
from diagfock.partitions import SetPartition
from diagfock.wick import (
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
POINT = (Fraction(1, 7), Fraction(4, 7), Fraction(2, 7), Fraction(5, 7))
AT = DeformationParams.from_rationals(*POINT)


def params_rat(q, t, v, w):
    return DeformationParams.from_rationals(Fraction(q), Fraction(t), Fraction(v), Fraction(w))


PARAM_POINTS = [
    params_rat(Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 4)),
    params_rat(Fraction(-1, 3), Fraction(1, 2), Fraction(1, 4), Fraction(1)),
    params_rat(0, 1, 0, 1),
    params_rat(1, 1, 1, 1),
]


def rand_pair(r, d=2, d_bar=None):
    return VectorPair.of(helpers.rand_vec(r, d), helpers.rand_vec(r, d if d_bar is None else d_bar))


def test_gaussian_low_moments_symbolic():
    x = VectorPair.of([1], [1])
    assert gaussian_wick([x, x], SYM) == Poly.const(1)
    assert gaussian_wick([x, x, x], SYM) == Poly.zero()
    assert gaussian_wick([x, x, x, x], SYM) == 1 + Q * V + Q * W + T * V + T * W


def test_gaussian_sixth_moment_symbolic_vs_operator_route():
    x = VectorPair.of([1], [1])
    f = FockVector.vacuum()
    for _ in range(6):
        f = helpers.quadrabasic_sum(x, None, 0, f, SYM)
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


def assert_word_formula_matches(kinds, tokens, params):
    """The formula against the per-row oracle of helpers (values and types)
    and against the operator model (values)."""
    got = word_vacuum_formula(tokens, params)
    rows = helpers.word_expansion_brute(kinds, [x.xi for _, x in tokens], [x.eta for _, x in tokens], params)
    assert got.terms == rows, kinds
    assert all(type(got.terms[key]) is type(val) for key, val in rows.items()), kinds
    assert got == word_fock_oracle(tokens, params), kinds


def test_word_formula_matches_operator_model_all_patterns():
    r = helpers.rng(36)
    params = PARAM_POINTS[0]
    for n in range(6):
        for mask in range(2**n):
            kinds = "".join("c" if (mask >> i) & 1 else "a" for i in range(n))
            tokens = [(CREATE if k == "c" else ANNIHILATE, rand_pair(r)) for k in kinds]
            assert_word_formula_matches(kinds, tokens, params)


WORD_POINTS = [
    params_rat(0, 0, Fraction(1, 3), Fraction(3, 4)),
    params_rat(Fraction(1, 2), Fraction(2, 3), 0, 0),
    params_rat(Fraction(-1, 2), Fraction(1, 2), Fraction(-2, 3), Fraction(2, 3)),
    SYM,
]


@pytest.mark.parametrize("params", WORD_POINTS, ids=["qt-zero", "vw-zero", "negative", "symbolic"])
def test_word_formula_matches_the_row_oracle(params):
    # no token, creators only (the residual alone), an annihilator last (the
    # zero vector), a creator first, alternating words and the benchmark
    # pattern, d = 1, 2 and 3 on the top row
    r = helpers.rng(47)
    for kinds in ("", "ccc", "acca", "caacc", "acacac", "cacaca", "aacccacc"):
        for d_top in (1, 2, 3):
            tokens = [(CREATE if k == "c" else ANNIHILATE, rand_pair(r, d_top, 2)) for k in kinds]
            assert_word_formula_matches(kinds, tokens, params)


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


def test_operator_oracles_match_the_whole_vector():
    # the room-pruned oracles against applying each operator to the whole vector
    r = helpers.rng(43)
    for params in (PARAM_POINTS[0], PARAM_POINTS[1], SYM):
        for n in range(7 if params is not SYM else 6):
            xs = [rand_pair(r) for _ in range(n)]
            ops = [
                QuadrabasicOp(rand_pair(r), GaugePair.of(helpers.rand_mat(r, 2), helpers.rand_mat(r, 2))
                              if r.random() < 0.7 else None, helpers.rand_frac(r), helpers.rand_frac(r))
                for _ in range(n)
            ]
            field, general = FockVector.vacuum(), FockVector.vacuum()
            for x, op in zip(reversed(xs), reversed(ops)):
                field = helpers.quadrabasic_sum(x, None, 0, field, params)
                general = helpers.quadrabasic_sum(op.vector, op.gauge, op.scalar, general, params)
            # the whole vector keeps the ring of its inputs, the oracles the point's
            kind = Poly if params is SYM else Fraction
            for got, want in ((gaussian_fock_oracle(xs, params), field), (full_fock_oracle(ops, params), general)):
                want = want.vacuum_coefficient()
                assert got == want and type(got) is kind, (n, params)


MIXED = [VectorPair.of([1, 2], [1]), VectorPair.of([1], [1])]
MIXED_ENTRIES = {
    "vectors": MIXED,
    "tokens": [(ANNIHILATE, MIXED[0]), (CREATE, MIXED[1])],
    "operators": [QuadrabasicOp(x, None) for x in MIXED],
}


EVERY_FORMULA_AND_ORACLE = pytest.mark.parametrize(
    "fn, key",
    [
        (gaussian_wick, "vectors"), (gaussian_fock_oracle, "vectors"), (word_vacuum_formula, "tokens"),
        (word_fock_oracle, "tokens"), (full_wick, "operators"), (full_fock_oracle, "operators"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)


@EVERY_FORMULA_AND_ORACLE
def test_entries_of_another_dimension_are_refused(fn, key):
    # the oracles used to contract the mismatched letters silently (the
    # Gaussian one returned 1 here) and the formulas to fail inside zip
    message = f"{key}[1]: xi has dimension 1, but {key}[0] has 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(MIXED_ENTRIES[key], PARAM_POINTS[0])


@pytest.mark.parametrize("fn", [word_vacuum_formula, word_fock_oracle], ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", ["abc", "gauge", None, []], ids=repr)
def test_a_word_token_of_another_kind_is_refused_by_index(fn, kind):
    x = VectorPair.of([1], [1])
    message = f"tokens[1]: kind must be 'create' or 'annihilate', got {kind!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn([(ANNIHILATE, x), (kind, x), (CREATE, x)], PARAM_POINTS[0])


@EVERY_FORMULA_AND_ORACLE
def test_more_entries_than_the_guard_are_refused(fn, key):
    # an oracle refuses what its formula refuses; at the guard size each answers
    entries = {"vectors": MIXED[1], "tokens": (CREATE, MIXED[1]), "operators": QuadrabasicOp(MIXED[1], None)}[key]
    message = f"the number of {key} is {MAX_DIAGONAL_N + 1}, but is guarded at <= {MAX_DIAGONAL_N}"
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
        fn([entries] * (MAX_DIAGONAL_N + 1), PARAM_POINTS[0])
    fn([entries] * MAX_DIAGONAL_N, PARAM_POINTS[0])


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
    # six general operators on d = 2 both rows, each with a gauge and both scalars
    ops = [QuadrabasicOp(VectorPair.of([str(i + 1), "-1/2"], ["1/3", str(2 - i)]),
                         GaugePair.of([["1/2", str(i % 3)], ["-1", "1/3"]], [[str(i - 4), "1"], ["2/3", "-1/5"]]),
                         Fraction(2 * i - 7), Fraction(1, i + 2)) for i in range(6)]
    oracle = full_fock_oracle(ops, SYM)
    assert type(oracle) is Poly and oracle == full_wick(ops, SYM)


def test_the_gaussian_sum_and_oracle_at_the_guard_size_at_the_symbolic_point():
    # n = 10, d = 2 on top and 1 below
    vectors = [VectorPair.of([str(i + 1), "-1/2"], [f"{2 * i - 9}/3"]) for i in range(10)]
    symbolic, oracle = gaussian_wick(vectors, SYM), gaussian_fock_oracle(vectors, SYM)
    assert type(oracle) is Poly and oracle == symbolic
    assert symbolic.evaluate(*POINT) == gaussian_wick(vectors, AT)


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
    # at the diagonal cap, against the point: the inverse gives Polys back,
    # and the odd Gaussian moments are the zero Poly
    cums = [Fraction((-1) ** n * (n + 2), n + 3) for n in range(MAX_DIAGONAL_N)]
    ms = cumulants_to_moments(cums, SYM)
    assert [m.evaluate(*POINT) for m in ms] == cumulants_to_moments(cums, AT)
    back = moments_to_cumulants(ms, SYM)
    assert all(type(r) is Poly for r in back) and back == cums
    assert moments_to_cumulants(cumulants_to_moments(cums, AT), AT) == cums
    gaussian = [0, 1] + [0] * (MAX_DIAGONAL_N - 2)
    ms = cumulants_to_moments(gaussian, SYM)
    assert all(type(m) is Poly for m in ms) and all(m == Poly.zero() for m in ms[0::2])
    assert [m.evaluate(*POINT) for m in ms] == cumulants_to_moments(gaussian, AT)


# r_2 = 1 alone, and r_k = 1 for every k >= 2; v = -w zeroes [2]_{v,w}, q = 0 a summand of [k]_{q,t}
@pytest.mark.parametrize(
    "params",
    [params_rat(Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(2, 3)),
     params_rat(0, Fraction(3, 5), Fraction(2, 7), Fraction(-2, 7)), DeformationParams(2, 1, -1, 1)],
    ids=["v=-w", "q=0", "int"],
)
def test_the_gaussian_and_centred_poisson_transforms_are_the_jacobi_moments(params):
    for jacobi, cums in ((jacobi_hermite, [0, 1] + [0] * 8), (jacobi_poisson, [0] + [1] * 9)):
        got, expect = cumulants_to_moments(cums, params), moments_from_jacobi(jacobi(params, 6), 10)
        assert [(type(m), m) for m in got] == [(type(m), m) for m in expect], jacobi.__name__


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
        ps = [SetPartition(n, blocks) for blocks in helpers.all_partitions_brute(n)]
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
        gaussian_wick([x] * (MAX_DIAGONAL_N + 2), SYM)


def test_transform_guards():
    # one state DP makes these sizes cheap; the cap stays where it was
    r = [Fraction(1)] * (MAX_DIAGONAL_N + 1)
    assert len(cumulants_to_moments(r[:-1], params_rat(1, 2, 1, 3))) == MAX_DIAGONAL_N
    with pytest.raises(ResourceLimitError):
        cumulants_to_moments(r, params_rat(1, 1, 1, 1))
    with pytest.raises(ResourceLimitError):
        moments_to_cumulants(r, params_rat(1, 1, 1, 1))


def test_transforms_match_the_row_table_route():
    # the DP against the sum over the brute rows of helpers, with zero cumulants
    r = helpers.rng(45)
    for params in PARAM_POINTS + [SYM]:
        n = 6 if params is SYM else 8
        cums = [Fraction(0) if r.random() < 0.3 else helpers.rand_frac(r) for _ in range(n)]
        expect = [
            sum(helpers.brute_class_sums(k, params, lambda block: cums[len(block) - 1], lambda block: 1).values(), 0)
            for k in range(1, n + 1)
        ]
        assert cumulants_to_moments(cums, params) == expect
        assert moments_to_cumulants(expect, params) == cums


def rand_op(r, d_top, d_bar):
    """Gauges absent a third of the time, scalars 0 on either row a third of the time."""
    gauge = None
    if r.random() < 2 / 3:
        gauge = GaugePair.of(helpers.rand_mat(r, d_top), helpers.rand_mat(r, d_bar))
    lam, lambar = (helpers.rand_frac(r) if r.random() < 2 / 3 else Fraction(0) for _ in range(2))
    return QuadrabasicOp(VectorPair.of(helpers.rand_vec(r, d_top), helpers.rand_vec(r, d_bar)), gauge, lam, lambar)


ROLE_POINTS = [
    PARAM_POINTS[0],
    params_rat(0, Fraction(2, 3), Fraction(1, 3), Fraction(3, 4)),
    params_rat(Fraction(1, 2), 0, Fraction(1, 3), Fraction(3, 4)),
    params_rat(Fraction(1, 2), Fraction(2, 3), 0, Fraction(3, 4)),
    params_rat(Fraction(-1, 2), Fraction(1, 2), Fraction(-2, 3), Fraction(2, 3)),
    SYM,
]


@pytest.mark.parametrize("params", ROLE_POINTS, ids=["rational", "q-zero", "t-zero", "v-zero", "negative", "symbolic"])
def test_role_word_wick_sums_match_the_enumeration(params):
    # pruned alphabets (no gauge: no Middle; a zero scalar: no Singleton),
    # d = 1 and 2 on either row, n = 0 and 1, odd Gaussian moments
    r = helpers.rng(46)
    for n in range(6 if params is SYM else 7):
        for d_top, d_bar in ((1, 1), (2, 1), (1, 2), (2, 2)):
            ops = [rand_op(r, d_top, d_bar) for _ in range(n)]
            expect = helpers.brute_full_wick(ops, params)
            got = full_wick(ops, params)
            assert got == expect, (n, d_top, d_bar)
            xs = [op.vector for op in ops]
            no_block_factors = [QuadrabasicOp(x, None) for x in xs]
            got = gaussian_wick(xs, params)
            assert got == helpers.brute_full_wick(no_block_factors, params), (n, d_top, d_bar)
            # a Fraction at a rational point and a Poly at the symbolic point,
            # the odd moments' 0 and the empty product's 1 included
            assert type(got) is type(params.q) and (n % 2 == 0 or got == 0), (n, d_top, d_bar)
            if params is not SYM and n <= 5:
                assert full_wick(ops, params) == full_fock_oracle(ops, params), (n, d_top, d_bar)


def zeros_on_the_narrow_row(r, n, d_wide, narrow_on_top):
    """n operators of dimension d_wide on one row and 1 on the other (the
    top row when narrow_on_top): on the one-dimensional row, operator 0 has
    a zero vector, operator 1 a zero gauge and operator 2 a zero scalar,
    where the wide row's gauge and scalar are nonzero."""
    nonzero = lambda: Fraction(r.randint(1, 3) * r.choice((-1, 1)), r.randint(1, 4))
    ops = []
    for i in range(n):
        wide = (helpers.rand_vec(r, d_wide), helpers.rand_mat(r, d_wide), nonzero())
        narrow = ((0,) if i == 0 else helpers.rand_vec(r, 1), ((0,),) if i == 1 else helpers.rand_mat(r, 1),
                  0 if i == 2 else helpers.rand_frac(r))
        (xi, top_gauge, lam), (eta, bar_gauge, lambar) = (narrow, wide) if narrow_on_top else (wide, narrow)
        ops.append(QuadrabasicOp(VectorPair.of(xi, eta), GaugePair.of(top_gauge, bar_gauge), Fraction(lam), Fraction(lambar)))
    return ops


@pytest.mark.parametrize("params", ROLE_POINTS, ids=["rational", "q-zero", "t-zero", "v-zero", "negative", "symbolic"])
@pytest.mark.parametrize("narrow_on_top", [False, True], ids=["bar-one-dimensional", "top-one-dimensional"])
def test_folded_wick_sums_with_zeros_on_the_one_dimensional_row(params, narrow_on_top):
    # a zero eta, Tbar or lambar (xi, T or lam on top) beside nonzero data on
    # the other row: the folded row's scalar zeroes the point's role
    r = helpers.rng(47)
    for n in range(6 if params is SYM else 7):
        ops = zeros_on_the_narrow_row(r, n, 2, narrow_on_top)
        got = full_wick(ops, params)
        assert got == helpers.brute_full_wick(ops, params) and type(got) is type(params.q), n
        xs = [op.vector for op in ops]
        got = gaussian_wick(xs, params)
        assert got == helpers.brute_full_wick([QuadrabasicOp(x, None) for x in xs], params), n
        if params is not SYM and n <= 5:
            assert full_wick(ops, params) == full_fock_oracle(ops, params), n
            assert gaussian_wick(xs, params) == gaussian_fock_oracle(xs, params), n


@pytest.mark.parametrize("d_top, d_bar, passes", [(2, 1, 0), (1, 2, 0), (1, 1, 0), (2, 2, 2)])
def test_a_one_dimensional_row_folds_into_one_pass(monkeypatch, d_top, d_bar, passes):
    # one subword_sums pass over the points when either row is one-dimensional,
    # one role_sums pass per row only when both rows have d >= 2
    from diagfock import wick

    calls = {"subword_sums": 0, "role_sums": 0}

    def spy(name):
        kernel = getattr(wick, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(wick, name, counted)

    spy("subword_sums")
    spy("role_sums")
    r = helpers.rng(48)
    ops = [rand_op(r, d_top, d_bar) for _ in range(4)]
    for formula, data in ((full_wick, ops), (gaussian_wick, [op.vector for op in ops])):
        calls.update(subword_sums=0, role_sums=0)
        formula(data, PARAM_POINTS[0])
        assert calls == {"subword_sums": int(passes == 0), "role_sums": passes}, formula.__name__


def test_both_rows_of_a_wick_sum_replay_one_shape(monkeypatch):
    # the top and bar rows of one call have the same roles, so the bar row
    # replays the role-word shape the top row compiled
    from diagfock import partitions

    compiled, compile_ = [], partitions._compile
    monkeypatch.setattr(partitions, "_compile", lambda *args: compiled.append(args[:3]) or compile_(*args))
    r = helpers.rng(51)
    ops = [rand_op(r, 2, 2) for _ in range(5)]
    for formula, data, oracle in ((full_wick, ops, ops), (gaussian_wick, [op.vector for op in ops], None)):
        partitions.subword_sums.cache_clear()
        compiled.clear()
        got = formula(data, PARAM_POINTS[0])
        assert len(compiled) == 1, formula.__name__
        oracle = oracle or [QuadrabasicOp(op.vector, None) for op in ops]
        assert got == helpers.brute_full_wick(oracle, PARAM_POINTS[0]), formula.__name__


def test_full_wick_of_no_operators_is_one():
    # the empty product is the one of the point: a Poly at the symbolic point
    for params in (SYM, PARAM_POINTS[0]):
        for got in (full_wick([], params), gaussian_wick([], params)):
            assert got == 1 and type(got) is type(params.q)
    assert full_wick([], SYM) == gaussian_wick([], SYM) == Poly.const(1)
