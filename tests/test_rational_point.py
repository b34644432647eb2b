"""The forward diagonal sums at rational points, where the open-arc DP runs on
ints and divides each word's sum once: value and type against the brute
class sums and the Fock oracles.

The points have denominators coprime to the data's (fifths and sevenths),
negative coordinates, or q = v = 0 (row weights that vanish); the data have
negative entries, a zero vector entry and a zero gauge.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from diagfock._guards import MAX_DIAGONAL_N
from diagfock.fock import ANNIHILATE, CREATE, GaugePair, VectorPair
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
)
from diagfock.orthopoly import jacobi_hermite, moments_from_jacobi
from diagfock.partitions import role_sums
from diagfock.scalars import DeformationParams
from diagfock.wick import (
    QuadrabasicOp,
    full_fock_oracle,
    full_wick,
    gaussian_fock_oracle,
    gaussian_wick,
    word_fock_oracle,
    word_vacuum_formula,
)

POINTS = {
    "coprime": DeformationParams.from_rationals(Fraction(1, 11), Fraction(3, 13), Fraction(2, 9), Fraction(5, 17)),
    "negative": DeformationParams.from_rationals(Fraction(-3, 11), Fraction(1, 2), Fraction(-2, 3), Fraction(4, 13)),
    "q-zero": DeformationParams.from_rationals(0, Fraction(3, 13), 0, Fraction(1, 11)),
}
point = pytest.mark.parametrize("params", list(POINTS.values()), ids=list(POINTS))

ENTRIES = [Fraction(n, d) for d in (5, 7) for n in range(-4, 5)]


def entries(r, count):
    return tuple(r.choice(ENTRIES) for _ in range(count))


def matrix(r, d):
    return tuple(entries(r, d) for _ in range(d))


def zero_matrix(d):
    return tuple((Fraction(0),) * d for _ in range(d))


def is_fraction(x):
    return type(x) is Fraction


def ops_with_zeros(r, n):
    """n general operators (top d = 2, bar d = 1): the first with a zero xi
    entry, the second with zero gauges, the third with no gauge."""
    ops = []
    for i in range(n):
        xi = (Fraction(0),) + entries(r, 1) if i == 0 else entries(r, 2)
        gauge = GaugePair.of(zero_matrix(2), zero_matrix(1)) if i == 1 else GaugePair.of(matrix(r, 2), matrix(r, 1))
        ops.append(QuadrabasicOp(VectorPair.of(xi, entries(r, 1)), None if i == 2 else gauge, *entries(r, 2)))
    return ops


@point
def test_full_and_gaussian_wick_match_brute_sums_and_oracles(params):
    r = helpers.rng(191)
    for n in range(6):
        ops = ops_with_zeros(r, n)
        got = full_wick(ops, params)
        assert is_fraction(got) and got == helpers.brute_full_wick(ops, params) == full_fock_oracle(ops, params), n
        xs = [op.vector for op in ops]
        got = gaussian_wick(xs, params)
        no_blocks = [QuadrabasicOp(x, None) for x in xs]
        assert is_fraction(got) and got == helpers.brute_full_wick(no_blocks, params) == gaussian_fock_oracle(xs, params)


@point
@pytest.mark.parametrize("pattern", ["c", "ac", "acac", "aacc", "cacca", "aacccacc"])
def test_word_formula_matches_the_row_oracle_and_the_operator_model(params, pattern):
    r = helpers.rng(192)
    tokens = [(ANNIHILATE if ch == "a" else CREATE, VectorPair.of(entries(r, 2), entries(r, 2))) for ch in pattern]
    tokens[0] = (tokens[0][0], VectorPair.of((Fraction(0), Fraction(3, 7)), entries(r, 2)))
    got = word_vacuum_formula(tokens, params)
    tops, bars = [x.xi for _, x in tokens], [x.eta for _, x in tokens]
    assert got.terms == helpers.word_expansion_brute(pattern, tops, bars, params)
    assert all(is_fraction(c) for c in got.terms.values())
    assert got == word_fock_oracle(tokens, params)


def spec_with_zeros(r):
    """Two coordinates on a plane with a gram: the first xi has a zero entry,
    the second T is zero."""
    gram = ((Fraction(2), Fraction(1, 5)), (Fraction(1, 5), Fraction(3)))
    sym = matrix(r, 2)
    sym = ((sym[0][0], sym[0][1]), (sym[0][1], sym[1][1]))
    return LevySpec.of([(Fraction(0), Fraction(-2, 7)), entries(r, 2)], [sym, zero_matrix(2)], entries(r, 2), gram)


@point
def test_levy_moments_match_brute_sums_and_the_oracle(params):
    spec, s = spec_with_zeros(helpers.rng(193)), Fraction(3, 13)
    for n in range(1, 7):
        for word in itertools.product(range(2), repeat=n) if n <= 3 else [(0, 1, 1, 0, 1, 0)[:n], (1,) * n]:
            got = levy_moment(spec, word, params, s)
            assert is_fraction(got) and got == fock_levy_oracle(spec, [(u, 0) for u in word], [s], params), word
            if n <= 4:
                value = lambda block: levy_cumulant(spec, tuple(word[i - 1] for i in block), s)
                assert got == sum(helpers.brute_class_sums(n, params, value, lambda block: 1).values(), 0), word
            poly = levy_moment_s_poly(spec, word, params)
            assert all(is_fraction(c) for c in poly.values())
            assert sum(c * s**k for k, c in poly.items()) == got and poly.get(1, 0) == levy_cumulant(spec, word)


@point
def test_functionals_and_transforms_match_brute_sums(params):
    r = helpers.rng(194)
    cums = [Fraction(0), Fraction(-3, 5)] + list(entries(r, 4))
    moments = cumulants_to_moments(cums, params)
    value = lambda block: cums[len(block) - 1]
    for n, m in enumerate(moments, 1):
        assert is_fraction(m) and m == sum(helpers.brute_class_sums(n, params, value, lambda block: 1).values(), 0)
    assert moments_to_cumulants(moments, params) == cums
    psi = {w: r.choice(ENTRIES) for n in range(1, 4) for w in itertools.product(range(2), repeat=n)}
    phi = moment_functional(psi, 2, params, 3)
    for word, m in phi.items():
        value = lambda block: psi[tuple(word[i - 1] for i in block)]
        assert is_fraction(m) and m == sum(helpers.brute_class_sums(len(word), params, value, lambda block: 1).values(), 0)
    assert cumulant_functional(phi, 2, params, 3) == psi


def test_all_int_inputs_keep_int_results():
    params = DeformationParams(2, 1, -1, 3)
    cums = [1, -2, 0, 3, 1]
    moments = cumulants_to_moments(cums, params)
    value = lambda block: cums[len(block) - 1]
    assert all(type(m) is int for m in moments)
    assert moments == [sum(helpers.brute_class_sums(n, params, value, lambda block: 1).values(), 0) for n in range(1, 6)]
    psi = {w: sum(w) - 1 for n in range(1, 4) for w in itertools.product(range(2), repeat=n)}
    # a word with no nonzero term, like the empty word, sums to Fraction(0) or 1 as before
    phi = {word: m for word, m in moment_functional(psi, 2, params, 3).items() if word and m != 0}
    assert phi and all(type(m) is int for m in phi.values())
    tokens = [(ANNIHILATE if ch == "a" else CREATE, VectorPair((i, -1), (2, i))) for i, ch in enumerate("aacccc")]
    got = word_vacuum_formula(tokens, params)
    assert all(type(c) is int for c in got.terms.values()) and got == word_fock_oracle(tokens, params)
    sums = role_sums(["OCMS"] * 4, params.q, params.t, lambda i: i + 1, lambda i: i - 2, lambda c, i: c * i, lambda c, i: c + i)
    assert sums and all(type(t) is int for t in sums.values())


def test_the_guard_size_at_a_rational_point():
    params = POINTS["coprime"]
    n = MAX_DIAGONAL_N
    # the Gaussian cumulants give the Hermite moments of the continued fraction
    got = cumulants_to_moments([0, 1] + [0] * (n - 2), params)
    assert all(is_fraction(m) for m in got) and got == moments_from_jacobi(jacobi_hermite(params, n // 2 + 1), n)
    r = helpers.rng(195)
    xs = [VectorPair.of(entries(r, 1), entries(r, 1)) for _ in range(n)]
    got = gaussian_wick(xs, params)
    assert is_fraction(got) and got == gaussian_fock_oracle(xs, params)


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
