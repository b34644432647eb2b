"""The forward diagonal sums where the open-arc DP runs on ints, its data
cleared by one integer per point and each word's sum read once: value and
type against the brute class sums and the Fock oracles.  The Fock routes
run on cleared ints too; they keep the types they had on the data as
given, so they are held, in value and type, to routes that run on it.

One contract holds at every point: each result is a Fraction at a rational
point and a Poly at the symbolic point, whatever mix of ints and Fractions
the data hold, zero results, the empty word and the empty product included.
The rational points have denominators coprime to the data's (fifths and
sevenths), negative coordinates, or q = v = 0 (row weights that vanish).
The symbolic point runs its passes on the same cleared data, the all-int
point (int coordinates, int data) clears nothing, and the mixed points draw
their data from ints and Fractions alike.  The data have negative entries, a
zero vector entry and a zero gauge.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from diagfock import fock, wick
from diagfock._guards import MAX_DIAGONAL_N
from diagfock.fock import (
    ANNIHILATE,
    CREATE,
    GAUGE,
    SCALAR,
    FockVector,
    GaugePair,
    VectorPair,
    apply_word,
    deformed_inner,
    vacuum_expectation,
)
from diagfock.levy import (
    LevySpec,
    cumulant_functional,
    cumulants_to_moments,
    fock_levy_oracle,
    levy_cumulant,
    levy_moment,
    levy_moment_s_poly,
    moment_functional,
    moments_to_cumulants,
    stochastic_measure,
)
from diagfock.orthopoly import (
    jacobi_hermite,
    jacobi_poisson,
    moments_from_jacobi,
    norm_squares_from_jacobi,
    polys_from_jacobi,
)
from diagfock.partitions import SetPartition, role_sums
from diagfock.scalars import DeformationParams, Poly
from diagfock.wick import (
    QuadrabasicOp,
    full_fock_oracle,
    full_wick,
    gaussian_fock_oracle,
    gaussian_wick,
    word_fock_oracle,
    word_vacuum_formula,
)

ENTRIES = [Fraction(n, d) for d in (5, 7) for n in range(-4, 5)]
INT_ENTRIES = list(range(-4, 5))
MIXED_ENTRIES = ENTRIES + INT_ENTRIES

# id: (point, the data drawn there, the type of a sum there)
POINTS = {
    "coprime": (
        DeformationParams.from_rationals(Fraction(1, 11), Fraction(3, 13), Fraction(2, 9), Fraction(5, 17)), ENTRIES, Fraction
    ),
    "negative": (
        DeformationParams.from_rationals(Fraction(-3, 11), Fraction(1, 2), Fraction(-2, 3), Fraction(4, 13)), ENTRIES, Fraction
    ),
    "q-zero": (DeformationParams.from_rationals(0, Fraction(3, 13), 0, Fraction(1, 11)), ENTRIES, Fraction),
    "symbolic": (DeformationParams.symbolic(), ENTRIES, Poly),
    "all-int": (DeformationParams(2, 1, -1, 3), INT_ENTRIES, Fraction),
    "mixed": (DeformationParams(2, 1, -1, 3), MIXED_ENTRIES, Fraction),
    "symbolic-mixed": (DeformationParams.symbolic(), MIXED_ENTRIES, Poly),
}
point = pytest.mark.parametrize("params, values, kind", list(POINTS.values()), ids=list(POINTS))


def entries(r, count, values=ENTRIES):
    return tuple(r.choice(values) for _ in range(count))


def matrix(r, d, values=ENTRIES):
    return tuple(entries(r, d, values) for _ in range(d))


def zero_matrix(d, zero=Fraction(0)):
    return tuple((zero,) * d for _ in range(d))


def is_fraction(x):
    return type(x) is Fraction


def ops_with_zeros(r, n, values=ENTRIES):
    """n general operators (top d = 2, bar d = 1) with data drawn from
    values: the first with a zero xi entry, the second with zero gauges, the
    third with no gauge."""
    zero, ops = values[0] * 0, []
    for i in range(n):
        xi = (zero,) + entries(r, 1, values) if i == 0 else entries(r, 2, values)
        if i == 1:
            gauge = GaugePair(zero_matrix(2, zero), zero_matrix(1, zero))
        else:
            gauge = GaugePair(matrix(r, 2, values), matrix(r, 1, values))
        ops.append(QuadrabasicOp(VectorPair(xi, entries(r, 1, values)), None if i == 2 else gauge, *entries(r, 2, values)))
    return ops


@point
def test_full_and_gaussian_wick_match_brute_sums_and_oracles(params, values, kind):
    r = helpers.rng(191)
    # no operator is the empty product 1, and an odd Gaussian moment is 0
    for n in range(6):
        ops = ops_with_zeros(r, n, values)
        got = full_wick(ops, params)
        assert got == helpers.brute_full_wick(ops, params) == full_fock_oracle(ops, params), n
        assert type(got) is kind, n
        xs = [op.vector for op in ops]
        got = gaussian_wick(xs, params)
        no_blocks = [QuadrabasicOp(x, None) for x in xs]
        assert got == helpers.brute_full_wick(no_blocks, params) == gaussian_fock_oracle(xs, params)
        assert type(got) is kind, n


@point
def test_jacobi_moments_and_the_wick_oracles_are_of_the_point_kind(params, values, kind):
    # beta = 0 is the point's zero, so no Fraction m_1 leads the symbolic
    # moments; P_0, every leading 1, the x P_n shift's constant term and
    # ||P_0||^2 = 1 come from the ring of the Jacobi data; the oracles' empty
    # product and odd moments are the point's too
    for family in (jacobi_hermite, jacobi_poisson):
        assert [type(m) for m in moments_from_jacobi(family(params, 3), 4)] == [kind] * 4
        data = family(params, 5)
        assert [[type(c) for c in p] for p in polys_from_jacobi(data, 4)] == [[kind] * (n + 1) for n in range(5)]
        assert [type(c) for c in polys_from_jacobi(data, 0)[0]] == [kind]
        assert [type(x) for x in norm_squares_from_jacobi(data, 4)] == [kind] * 5
    r = helpers.rng(193)
    for n in range(4):
        ops = ops_with_zeros(r, n, values)
        assert type(full_fock_oracle(ops, params)) is kind, n
        assert type(gaussian_fock_oracle([op.vector for op in ops], params)) is kind, n


@point
@pytest.mark.parametrize("pattern", ["c", "ac", "acac", "aacc", "cacca", "aacccacc"])
def test_word_formula_matches_the_row_oracle_and_the_operator_model(params, values, kind, pattern):
    r = helpers.rng(192)
    kinds = [ANNIHILATE if ch == "a" else CREATE for ch in pattern]
    tokens = [(kind, VectorPair(entries(r, 2, values), entries(r, 2, values))) for kind in kinds]
    tokens[0] = (tokens[0][0], VectorPair((values[0] * 0, values[-2]), entries(r, 2, values)))
    got = word_vacuum_formula(tokens, params)
    tops, bars = [x.xi for _, x in tokens], [x.eta for _, x in tokens]
    assert got.terms == helpers.word_expansion_brute(pattern, tops, bars, params)
    assert all(type(c) is kind for c in got.terms.values())
    assert got == word_fock_oracle(tokens, params)


def spec_with_zeros(r):
    """Two coordinates on a plane with a gram: the first xi has a zero entry,
    the second T is zero."""
    gram = ((Fraction(2), Fraction(1, 5)), (Fraction(1, 5), Fraction(3)))
    sym = matrix(r, 2)
    sym = ((sym[0][0], sym[0][1]), (sym[0][1], sym[1][1]))
    return LevySpec.of([(Fraction(0), Fraction(-2, 7)), entries(r, 2)], [sym, zero_matrix(2)], entries(r, 2), gram)


@point
def test_levy_moments_match_brute_sums_and_the_oracle(params, values, kind):
    spec, s = spec_with_zeros(helpers.rng(193)), Fraction(3, 13)
    got, poly = levy_moment(spec, (), params, s), levy_moment_s_poly(spec, (), params)
    assert type(got) is kind and got == 1 and poly == {0: 1} and type(poly[0]) is kind  # the empty word
    oracle = fock_levy_oracle(spec, [], [s], params)
    assert type(oracle) is kind and oracle == 1
    for n in range(1, 7):
        for word in itertools.product(range(2), repeat=n) if n <= 3 else [(0, 1, 1, 0, 1, 0)[:n], (1,) * n]:
            got = levy_moment(spec, word, params, s)
            assert type(got) is kind and got == fock_levy_oracle(spec, [(u, 0) for u in word], [s], params), word
            if n <= 4:
                value = lambda block: levy_cumulant(spec, tuple(word[i - 1] for i in block), s)
                assert got == sum(helpers.brute_class_sums(n, params, value, lambda block: 1).values(), 0), word
            poly = levy_moment_s_poly(spec, word, params)
            assert all(type(c) is kind for c in poly.values())
            assert sum(c * s**k for k, c in poly.items()) == got and poly.get(1, 0) == levy_cumulant(spec, word)
    # a spec whose cumulants all vanish, on two intervals, and the stochastic
    # measure, its zero for more blocks than intervals included
    silent = LevySpec.of([(0, 0)], [zero_matrix(2)], [0])
    for tokens in ([(0, 0)], [(0, 1), (0, 0), (0, 1)], [(0, 0), (0, 1), (0, 1), (0, 0)]):
        oracle = fock_levy_oracle(silent, tokens, [s, 2 * s], params)
        assert type(oracle) is kind and oracle == 0, tokens
    singles, whole = SetPartition(2, [(1,), (2,)]), SetPartition(2, [(1, 2)])
    assert stochastic_measure(spec, (0, 1), singles, s, 1, params) == 0
    for case, pi, n_intervals in itertools.product((spec, silent), (singles, whole), (1, 3)):
        assert type(stochastic_measure(case, (0, 0), pi, s, n_intervals, params)) is kind, (pi, n_intervals)


@point
def test_functionals_and_transforms_match_brute_sums(params, values, kind):
    r = helpers.rng(194)
    cums = [values[0] * 0, -3 if values is INT_ENTRIES else Fraction(-3, 5)] + list(entries(r, 4, values))
    moments = cumulants_to_moments(cums, params)
    value = lambda block: cums[len(block) - 1]
    for n, m in enumerate(moments, 1):
        assert type(m) is kind and m == sum(helpers.brute_class_sums(n, params, value, lambda block: 1).values(), 0)
    back = moments_to_cumulants(moments, params)
    assert back == cums and all(type(x) is kind for x in back)
    psi = {w: r.choice(values) for n in range(1, 4) for w in itertools.product(range(2), repeat=n)}
    phi = moment_functional(psi, 2, params, 3)
    assert phi[()] == 1  # the empty word
    for word, m in phi.items():
        value = lambda block: psi[tuple(word[i - 1] for i in block)]
        assert type(m) is kind, word
        assert m == sum(helpers.brute_class_sums(len(word), params, value, lambda block: 1).values(), 0)
    back = cumulant_functional(phi, 2, params, 3)
    assert back == psi and all(type(x) is kind for x in back.values())


@point
def test_both_inverses_type_mixed_moments_by_the_point(params, values, kind):
    # moments that mix ints and Fractions: every filled-in cumulant is of
    # the point's kind, and the forward sums give the moments back
    moments = [1, Fraction(-2, 5), 0, 3, Fraction(4, 7), -1]
    cums = moments_to_cumulants(moments, params)
    assert all(type(x) is kind for x in cums) and cumulants_to_moments(cums, params) == moments
    phi = {w: Fraction(sum(w) - 1, 1 + len(w) % 2) for n in range(1, 4) for w in itertools.product(range(2), repeat=n)}
    phi = {w: int(x) if x.denominator == 1 else x for w, x in phi.items()}
    assert {type(x) for x in phi.values()} == {int, Fraction}
    psi = cumulant_functional(phi, 2, params, 3)
    assert all(type(x) is kind for x in psi.values())
    assert {w: m for w, m in moment_functional(psi, 2, params, 3).items() if w} == phi


def test_all_int_inputs_give_fraction_results():
    # every value is a Fraction: the zero cumulants and the words with no
    # nonzero term, the empty word, and both inverses' filled-in values
    params = DeformationParams(2, 1, -1, 3)
    cums = [0, 1, 0, 0]
    assert [(type(m), m) for m in cumulants_to_moments(cums, params)] == [(Fraction, m) for m in (0, 1, 0, 7)]
    cums = [1, -2, 0, 3, 1]
    moments = cumulants_to_moments(cums, params)
    value = lambda block: cums[len(block) - 1]
    assert all(is_fraction(m) for m in moments)
    assert moments == [sum(helpers.brute_class_sums(n, params, value, lambda block: 1).values(), 0) for n in range(1, 6)]
    back = moments_to_cumulants(moments, params)
    assert back == cums and all(is_fraction(x) for x in back)
    psi = {w: sum(w) - 1 for n in range(1, 4) for w in itertools.product(range(2), repeat=n)}
    phi = moment_functional(psi, 2, params, 3)
    assert phi[()] == 1 and any(m == 0 for m in phi.values())
    assert all(is_fraction(m) for m in phi.values())
    back = cumulant_functional(phi, 2, params, 3)
    assert back == psi and all(is_fraction(x) for x in back.values())
    assert all(is_fraction(m) for m in moment_functional(psi, 2, params, 0).values())
    tokens = [(ANNIHILATE if ch == "a" else CREATE, VectorPair((i, -1), (2, i))) for i, ch in enumerate("aacccc")]
    got = word_vacuum_formula(tokens, params)
    assert all(is_fraction(c) for c in got.terms.values()) and got == word_fock_oracle(tokens, params)
    # the pass itself runs on the ints as given: nothing to clear, scale 1
    sums, scale = role_sums(["OCMS"] * 4, params.q, params.t, lambda i: i + 1, lambda i: i - 2, lambda c, i: c * i, lambda c, i: c + i)
    assert type(scale) is int and scale == 1
    assert sums and all(type(t) is int for t in sums.values())


def test_the_guard_size_at_a_rational_point():
    params = POINTS["coprime"][0]
    n = MAX_DIAGONAL_N
    # the Gaussian cumulants give the Hermite moments of the continued fraction
    got = cumulants_to_moments([0, 1] + [0] * (n - 2), params)
    assert all(is_fraction(m) for m in got) and got == moments_from_jacobi(jacobi_hermite(params, n // 2 + 1), n)
    r = helpers.rng(195)
    xs = [VectorPair.of(entries(r, 1), entries(r, 1)) for _ in range(n)]
    got = gaussian_wick(xs, params)
    assert is_fraction(got) and got == gaussian_fock_oracle(xs, params)


# -- the operator model on cleared ints against its routes on the data as given ----------

# the Fock routes keep the types they had on Fractions, so each is held to a
# route that runs on the data as given, in value and in type; v = w = 0
# joins the points (no bar weight above level 1)
FOCK_POINTS = dict(
    POINTS, **{"vw-zero": (DeformationParams.from_rationals(Fraction(-2, 9), Fraction(5, 7), 0, 0), ENTRIES, Fraction)}
)
fock_point = pytest.mark.parametrize(
    "params, values", [(p, values) for p, values, _ in FOCK_POINTS.values()], ids=list(FOCK_POINTS)
)
KINDS = {"a": ANNIHILATE, "c": CREATE, "g": GAUGE, "s": SCALAR}
# the empty word, words that return to the vacuum and words that end above it
PATTERNS = ["", "s", "c", "a", "ac", "agc", "sacg", "aacc", "acgsac", "cagcc", "aagccs", "acacgc"]


def same(got, expect):
    """Equal values of equal types: a Fock vector term by term, a tuple entry by entry."""
    if isinstance(expect, FockVector):
        return got.terms.keys() == expect.terms.keys() and all(same(c, expect.terms[k]) for k, c in got.terms.items())
    if isinstance(expect, tuple):
        return len(got) == len(expect) and all(map(same, got, expect))
    return type(got) is type(expect) and got == expect


def word_tokens(r, pattern, values):
    """Tokens of the kinds of a pattern over top d = 2, bar d = 1, with data
    drawn from values."""
    payload = {
        "a": lambda: VectorPair(entries(r, 2, values), entries(r, 1, values)),
        "c": lambda: VectorPair(entries(r, 2, values), entries(r, 1, values)),
        "g": lambda: GaugePair(matrix(r, 2, values), matrix(r, 1, values)),
        "s": lambda: r.choice(values),
    }
    return [(KINDS[ch], payload[ch]()) for ch in pattern]


@fock_point
def test_the_symmetrizer_routes_match_the_recursion_on_the_data(params, values):
    # every entry of P_0 .. P_3 over two letters and of P_2 over three, on
    # both rows; the empty word's entry is Fraction(1) at every point
    for a, b in ((params.q, params.t), (params.v, params.w)):
        memo = {}
        for n, d in ((0, 2), (1, 2), (2, 2), (3, 2), (2, 3)):
            words = list(itertools.product(range(d), repeat=n))
            expect = tuple(tuple(helpers.sym_inner_recursive(u, x, a, b, memo) for u in words) for x in words)
            assert same(helpers.symmetrizer_matrix(n, a, b, d), expect), (n, d)
        assert same(helpers.symmetrizer_matrix(0, a, b, 2), ((Fraction(1),),))


@fock_point
def test_deformed_inner_matches_the_pairwise_sum_on_the_data(params, values):
    r = helpers.rng(201)

    def vector():
        keys = [(tuple(r.randrange(2) for _ in range(n)), tuple(r.randrange(2) for _ in range(n))) for n in (0, 1, 2, 2, 3, 3, 3)]
        return FockVector({key: r.choice(values) for key in keys})

    for _ in range(4):
        f, h = vector(), vector()
        assert same(deformed_inner(f, h, params), helpers.deformed_inner_pairs(f, h, params))
    vacuum, other_level = FockVector.vacuum(), FockVector({((0,), (1,)): values[-1]})
    assert same(deformed_inner(vacuum, vacuum, params), Fraction(1))
    assert same(deformed_inner(vacuum, other_level, params), Fraction(0))
    assert same(deformed_inner(FockVector(), vacuum, params), Fraction(0))


@fock_point
@pytest.mark.parametrize("pattern", PATTERNS)
def test_operator_words_match_the_pair_route_on_the_data(params, values, pattern):
    tokens = word_tokens(helpers.rng(202), pattern, values)
    whole = helpers.apply_word_pairs(tokens, params)
    assert same(apply_word(tokens, params), whole)
    assert same(vacuum_expectation(tokens, params), whole.vacuum_coefficient())
    word = [token for token in tokens if token[0] in (ANNIHILATE, CREATE)]
    assert same(wick.word_fock_oracle(word, params), helpers.apply_word_pairs(word, params))


@fock_point
def test_the_moment_oracles_match_the_driver_on_the_data(params, values, monkeypatch):
    # the same parts on two drivers: the cleared one, and every term kept on
    # the data as given; no operator is the empty product
    r = helpers.rng(203)
    moments = []
    for n in range(6):
        ops = ops_with_zeros(r, n, values)
        moments.append((ops, wick.full_fock_oracle(ops, params), wick.gaussian_fock_oracle([op.vector for op in ops], params)))
    spec, s = spec_with_zeros(r), Fraction(3, 13)
    words = [(), (0,), (0, 1), (1, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1, 1)]
    levy_moments = [fock_levy_oracle(spec, [(u, i % 2) for i, u in enumerate(w)], [s, 2 * s], params) for w in words]
    monkeypatch.setattr(wick, "_vacuum_moment", helpers.vacuum_moment_pairs)
    monkeypatch.setattr(fock, "_vacuum_moment", helpers.vacuum_moment_pairs)
    for ops, full, gaussian in moments:
        assert same(full, wick.full_fock_oracle(ops, params)), len(ops)
        assert same(gaussian, wick.gaussian_fock_oracle([op.vector for op in ops], params)), len(ops)
    for w, got in zip(words, levy_moments):
        assert same(got, fock_levy_oracle(spec, [(u, i % 2) for i, u in enumerate(w)], [s, 2 * s], params)), w


rationals = st.builds(Fraction, st.integers(min_value=-13, max_value=13), st.integers(min_value=1, max_value=13))
points = st.builds(DeformationParams.from_rationals, rationals, rationals, rationals, rationals)


@given(points, st.lists(rationals, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_transform_on_random_rational_data_matches_the_brute_sum(params, cums):
    got = cumulants_to_moments(cums, params)
    value = lambda block: cums[len(block) - 1]
    expect = [sum(helpers.brute_class_sums(n, params, value, lambda block: 1).values(), Fraction(0)) for n in range(1, len(cums) + 1)]
    assert got == expect and all(is_fraction(m) for m in got)
    assert moments_to_cumulants(got, params) == cums
