import itertools
import re
from fractions import Fraction

import pytest

import helpers
from diagfock._guards import MAX_DIAGONAL_N, ResourceLimitError
from diagfock.scalars import DeformationParams, Poly, _denominator
from diagfock import _linalg, fock, levy
from diagfock.partitions import SetPartition, diagonal_partitions
from diagfock.levy import (
    GeneratorPair,
    LevySpec,
    brownian_pair,
    convolve_pairs,
    cumulant_functional,
    fock_levy_oracle,
    functional_from_spec,
    gns_reconstruct,
    hankel_psd_check,
    levy_cumulant,
    levy_moment,
    levy_moment_s_poly,
    moment_functional,
    moments_to_pair,
    pair_to_moments,
    poisson_pair,
    product_functional,
    stochastic_limit,
    stochastic_measure,
)

FREE = DeformationParams.from_rationals(0, 1, 0, 1)
GEN = DeformationParams.from_rationals(
    Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 4)
)


def rand_spec(r, k=2, d=2, with_gram=False) -> LevySpec:
    xi = [helpers.rand_vec(r, d) for _ in range(k)]
    T = [helpers.rand_sym_mat(r, d) for _ in range(k)]
    lam = [helpers.rand_frac(r) for _ in range(k)]
    gram = None
    if with_gram:
        gram = tuple(
            tuple(Fraction(2 if i == j else 0) for j in range(d)) for i in range(d)
        )
    return LevySpec.of(xi, T, lam, gram)


@pytest.mark.parametrize(
    "gram, message",
    [
        ([[1, 2], [0, 1]], "gram must be symmetric"),
        ([[1, 0]], "gram must be 2 x 2"),
        ([[1, 0], [0]], "gram must be 2 x 2"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "gram must be 2 x 2"),
    ],
)
def test_spec_refuses_bad_gram(gram, message):
    with pytest.raises(ValueError, match=message):
        LevySpec.of([[1, 0]], [[[1, 0], [0, 1]]], [1], gram)
    assert LevySpec.of([[1, 0]], [[[1, 0], [0, 1]]], [1], [[2, 1], [1, 2]]).gram == ((2, 1), (1, 2))


def test_cumulant_values_by_hand():
    spec = LevySpec.of(
        xi=[[1, 0], [1, 1]],
        T=[[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        lam=[Fraction(1, 2), 3],
    )
    assert levy_cumulant(spec, (0,), 2) == 1
    assert levy_cumulant(spec, (1,), 1) == 3
    assert levy_cumulant(spec, (0, 1)) == 1  # <(1,0), (1,1)>
    assert levy_cumulant(spec, (0, 1, 0), 1) == 0  # <(1,0), swap (1,0)> = <(1,0),(0,1)>
    assert levy_cumulant(spec, (1, 1, 1), 1) == 2  # <(1,1), swap (1,1)>
    assert levy_cumulant(spec, (0, 0, 0, 0), 5) == 5  # identity chain


def test_moment_matches_operator_model_single_interval():
    r = helpers.rng(61)
    for params in (FREE, GEN):
        for with_gram in (False, True):
            spec = rand_spec(r, k=2, d=2, with_gram=with_gram)
            for s in (Fraction(1), Fraction(1, 3)):
                for n in range(1, 5):
                    for word in itertools.product(range(2), repeat=n):
                        lhs = levy_moment(spec, word, params, s)
                        rhs = fock_levy_oracle(spec, [(u, 0) for u in word], [s], params)
                        assert lhs == rhs, (word, s, with_gram)


def test_moment_additivity_over_split_intervals():
    # splitting [0, s) into intervals and summing all token assignments
    # reproduces the one-interval moment: equal halves with no gram, and
    # pieces s/3 and 2s/3 with a gram that is not the identity, where each
    # annihilator must pair by its own interval's length and by the gram
    r = helpers.rng(62)
    spec = rand_spec(r, k=1, d=2)
    s = Fraction(2, 3)
    base = rand_spec(r, k=2, d=2)
    gram = ((Fraction(2), Fraction(1, 5)), (Fraction(1, 5), Fraction(3)))
    with_gram = LevySpec.of(base.xi, base.T, base.lam, gram)
    cases = [
        (spec, [(0,) * n for n in (1, 2, 3)], [s / 2, s / 2]),
        (with_gram, [(0,), (0, 1), (1, 0, 1), (0, 1, 1, 0)], [s / 3, 2 * s / 3]),
    ]
    for params in (FREE, GEN):
        for case, words, pieces in cases:
            for word in words:
                whole = levy_moment(case, word, params, s)
                total = Fraction(0)
                for assign in itertools.product(range(2), repeat=len(word)):
                    total += fock_levy_oracle(case, list(zip(word, assign)), pieces, params)
                assert total == whole, word


def test_the_operator_model_on_two_intervals_at_the_symbolic_point():
    # a length-6 word on the second of two intervals, two coordinates on a plane with a gram
    spec = LevySpec.of([("1", "-1/2"), ("2/3", "3")], [[["1/2", "1"], ["-1", "1/3"]], [["0", "2"], ["1", "-1/5"]]],
                       ["1/2", "-3"], [["2", "1/5"], ["1/5", "3"]])
    word, lengths = (0, 1, 0, 1, 1, 0), [Fraction(1, 3), Fraction(1, 2)]
    sym = DeformationParams.symbolic()
    oracle = fock_levy_oracle(spec, [(u, 1) for u in word], lengths, sym)
    assert type(oracle) is Poly and oracle == levy_moment(spec, word, sym, lengths[1])


def test_moment_over_three_intervals_with_mixed_coordinates():
    # three coordinates on three pieces of [0, s) of unequal lengths, with a
    # gram that is not the identity: a word on one piece is the moment at
    # that piece's length, and the sum over every assignment of its tokens
    # to the pieces is the moment at s
    r = helpers.rng(64)
    base = rand_spec(r, k=3, d=2)
    spec = LevySpec.of(base.xi, base.T, base.lam, ((Fraction(2), Fraction(1, 5)), (Fraction(1, 5), Fraction(3))))
    s = Fraction(3, 4)
    pieces = [s / 6, s / 3, s / 2]
    for params in (FREE, GEN):
        for word in [(0, 1), (2, 0, 1), (0, 1, 2, 1), (1, 2, 0, 0, 2)]:
            for i, piece in enumerate(pieces):
                assert fock_levy_oracle(spec, [(u, i) for u in word], pieces, params) == levy_moment(spec, word, params, piece)
            total = sum(
                fock_levy_oracle(spec, list(zip(word, assign)), pieces, params)
                for assign in itertools.product(range(3), repeat=len(word))
            )
            assert total == levy_moment(spec, word, params, s), word


def test_s_polynomial_consistency():
    r = helpers.rng(63)
    spec = rand_spec(r, k=2, d=2)
    for word in [(0,), (0, 1), (1, 0, 0), (0, 1, 1, 0)]:
        poly = levy_moment_s_poly(spec, word, GEN)
        assert poly.get(1, Fraction(0)) == levy_cumulant(spec, word, 1)
        for s in (Fraction(1), Fraction(3, 2)):
            val = sum(c * s**deg for deg, c in poly.items())
            assert val == levy_moment(spec, word, GEN, s)


def test_diagonal_measure_cumulant_identities():
    r = helpers.rng(64)
    spec = rand_spec(r, k=1, d=3)
    for n in (2, 3):
        diag = helpers.diagonal_measure_spec(spec, 0, n)
        assert levy_cumulant(diag, (0,)) == levy_cumulant(spec, (0,) * n)
        for m in (2, 3):
            assert levy_cumulant(diag, (0,) * m) == levy_cumulant(spec, (0,) * (n * m))
    assert helpers.diagonal_measure_spec(spec, 0, 1).xi == (spec.xi[0],)


def test_stochastic_measure_pair_block_error_is_exact():
    r = helpers.rng(65)
    spec = rand_spec(r, k=1, d=2)
    lam = spec.lam[0]
    s = Fraction(3, 2)
    pair = SetPartition(2, [(1, 2)])
    single = SetPartition(2, [(1,), (2,)])
    for params in (FREE, GEN):
        lim_pair = stochastic_limit(spec, (0, 0), pair, s, params)
        lim_single = stochastic_limit(spec, (0, 0), single, s, params)
        assert lim_pair == levy_cumulant(spec, (0, 0), s)
        assert lim_single == levy_cumulant(spec, (0,), s) ** 2
        for n_int in (2, 4, 8):
            st_pair = stochastic_measure(spec, (0, 0), pair, s, n_int, params)
            st_single = stochastic_measure(spec, (0, 0), single, s, n_int, params)
            assert st_pair - lim_pair == lam**2 * s**2 / n_int
            assert st_single - lim_single == -(lam**2) * s**2 / n_int


def test_stochastic_measures_sum_to_moment():
    r = helpers.rng(66)
    spec = rand_spec(r, k=2, d=2)
    s = Fraction(1, 2)
    for params in (FREE, GEN):
        for word in [(0, 1), (0, 1, 0)]:
            n = len(word)
            for n_int in (2, 3):
                if n_int < n:
                    continue
                total = sum(
                    stochastic_measure(spec, word, pi, s, n_int, params)
                    for pi in (SetPartition(n, blocks) for blocks in helpers.all_partitions_brute(n))
                )
                assert total == levy_moment(spec, word, params, s)


def test_stochastic_limit_matches_filtered_enumeration():
    r = helpers.rng(69)
    spec = rand_spec(r, k=2, d=2)
    s = Fraction(3, 2)
    checked = 0
    for params in (GEN, DeformationParams.from_rationals(Fraction(-1, 2), 1, Fraction(1, 3), Fraction(1, 2)),
                   DeformationParams.symbolic()):
        for n in range(1, 6):
            word = tuple(r.randrange(2) for _ in range(n))
            diagonal = list(diagonal_partitions(n))
            for pi in (SetPartition(n, blocks) for blocks in helpers.all_partitions_brute(n)):
                expect = Fraction(0)
                for dp in diagonal:
                    if dp.top != pi:
                        continue
                    term = params.monomial(*dp.weight_exponents())
                    for block in pi.blocks:
                        term = term * levy_cumulant(spec, tuple(word[i - 1] for i in block), s)
                    expect = expect + term
                assert stochastic_limit(spec, word, pi, s, params) == expect
                checked += 1
    assert checked == 225


def test_stochastic_limit_is_guarded_at_the_diagonal_cap():
    spec = rand_spec(helpers.rng(70), k=1, d=2)
    for n in (MAX_DIAGONAL_N, MAX_DIAGONAL_N + 1):
        pi = SetPartition(n, [(1, n)] + [(i,) for i in range(2, n)])
        if n <= MAX_DIAGONAL_N:
            expect = levy_cumulant(spec, (0, 0)) * spec.lam[0] ** (n - 2)
            assert stochastic_limit(spec, (0,) * n, pi, Fraction(1), GEN) == expect
        else:
            with pytest.raises(ResourceLimitError):
                stochastic_limit(spec, (0,) * n, pi, Fraction(1), GEN)


def test_stochastic_refinement_error_shrinks():
    r = helpers.rng(67)
    spec = rand_spec(r, k=1, d=2)
    pi = SetPartition(3, [(1, 3), (2,)])
    word = (0, 0, 0)
    s = Fraction(1)
    lim = stochastic_limit(spec, word, pi, s, GEN)
    errs = []
    for n_int in (2, 4, 8):
        st = stochastic_measure(spec, word, pi, s, n_int, GEN)
        errs.append(abs(st - lim))
    assert errs[2] <= errs[1] <= errs[0]
    if errs[0] > 0:
        # O(1/N): doubling the intervals at least halves the error here
        assert errs[1] * 2 <= errs[0] + errs[0] / 4


def test_stochastic_measure_matches_the_sum_over_assignments():
    r = helpers.rng(71)
    spec = rand_spec(r, k=2, d=2)
    s = Fraction(3, 4)
    checked = 0
    for params in (FREE, GEN):
        def moment(tokens, lengths, params=params):
            return fock_levy_oracle(spec, tokens, lengths, params)

        for n in range(4):
            word = tuple(r.randrange(2) for _ in range(n))
            for pi in (SetPartition(n, blocks) for blocks in helpers.all_partitions_brute(n)):
                for n_int in range(1, 5):
                    got = stochastic_measure(spec, word, pi, s, n_int, params)
                    expect = helpers.stochastic_measure_brute(moment, word, pi.blocks, s, n_int)
                    assert got == expect and type(got) is Fraction, (word, pi, n_int)
                    checked += len(pi.blocks) > n_int
    assert checked > 0  # more blocks than intervals: no assignment, measure 0


def test_levy_oracle_builds_one_row_operator_per_distinct_spec(monkeypatch):
    # the tokens of a repeated letter share their fock tokens, and each fock
    # token's operator is built once per call on each row's table (fock._rows
    # calls fock._row_op once per token object and row), however many steps
    # hold it
    built = []
    row_op = fock._row_op
    monkeypatch.setattr(fock, "_row_op", lambda spec, *args: built.append(spec) or row_op(spec, *args))
    spec = rand_spec(helpers.rng(74), k=2, d=2)
    lengths = [Fraction(1, 3), Fraction(1, 2)]
    tokens = [(0, 1), (1, 1), (0, 1), (0, 1), (1, 1), (0, 1)]
    for params in (GEN, DeformationParams.symbolic()):
        built.clear()
        assert fock_levy_oracle(spec, tokens, lengths, params) == levy_moment(spec, (0, 1, 0, 0, 1, 0), params, lengths[1])
        terms = 3 + (spec.lam[0] != 0) + 3 + (spec.lam[1] != 0)  # creation, annihilation, gauge, scalar
        assert len(built) == 2 * terms  # a top and a bar operator per fock token of the two distinct tokens


def test_stochastic_measure_needs_an_interval():
    spec = rand_spec(helpers.rng(72), k=1, d=2)
    for n_int in (0, -1):
        with pytest.raises(ValueError, match="n_intervals"):
            stochastic_measure(spec, (0,), SetPartition(1, [(1,)]), Fraction(1), n_int, GEN)


@pytest.mark.parametrize("u", [-1, 2], ids=["negative", "past-k"])
def test_operator_model_refuses_an_unknown_coordinate(u):
    # a negative u used to index the last coordinate, and u >= k to fail with IndexError
    spec = rand_spec(helpers.rng(73), k=2, d=2)
    with pytest.raises(ValueError, match=f"^word uses an unknown coordinate {u}, but k = 2$"):
        fock_levy_oracle(spec, [(0, 0), (u, 0)], [Fraction(1)], GEN)
    for i in (-1, 2):
        with pytest.raises(ValueError, match=f"^interval index out of range: {i}, but the interval count is 2$"):
            fock_levy_oracle(spec, [(0, 0), (1, i)], [Fraction(1), Fraction(2)], GEN)
    for n_int in (1, 2):
        with pytest.raises(ValueError, match="word uses an unknown coordinate"):
            stochastic_measure(spec, (u, u), SetPartition(2, [(1,), (2,)]), Fraction(1), n_int, GEN)
    for n in (1, 2):
        with pytest.raises(ValueError, match="word uses an unknown coordinate"):
            helpers.diagonal_measure_spec(spec, u, n)


def test_cumulant_functional_inverts_moments():
    r = helpers.rng(68)
    spec = rand_spec(r, k=2, d=2)
    for params in (FREE, GEN):
        phi = functional_from_spec(spec, params, 4)
        psi = cumulant_functional(phi, 2, params, 4)
        for n in range(1, 5):
            for word in itertools.product(range(2), repeat=n):
                assert psi[word] == levy_cumulant(spec, word)
        back = moment_functional(psi, 2, params, 4)
        for word in psi:
            assert back[word] == phi[word]


def test_moment_functional_roundtrip_on_random_data():
    r = helpers.rng(69)
    psi = {}
    for n in range(1, 5):
        for word in itertools.product(range(2), repeat=n):
            psi[word] = helpers.rand_frac(r)
    phi = moment_functional(psi, 2, GEN, 4)
    assert cumulant_functional(phi, 2, GEN, 4) == psi


def test_moment_functional_roundtrip_at_the_symbolic_point():
    r = helpers.rng(75)
    psi = {w: helpers.rand_frac(r) for n in range(1, 5) for w in itertools.product(range(2), repeat=n)}
    phi = moment_functional(psi, 2, DeformationParams.symbolic(), 4)
    assert cumulant_functional(phi, 2, DeformationParams.symbolic(), 4) == psi
    at_gen = moment_functional(psi, 2, GEN, 4)
    for word in psi:
        value = Poly.const(phi[word]) if isinstance(phi[word], Fraction) else phi[word]
        assert value.evaluate(GEN.q, GEN.t, GEN.v, GEN.w) == at_gen[word], word


@pytest.mark.parametrize("params", [GEN, DeformationParams.symbolic()], ids=["rational", "symbolic"])
def test_the_inverse_runs_one_cleared_pass_per_call(monkeypatch, params):
    r = helpers.rng(76)
    moments = [helpers.rand_frac(r) for _ in range(6)]
    psi = {w: helpers.rand_frac(r) for n in range(1, 4) for w in itertools.product(range(2), repeat=n)}
    phi = moment_functional(psi, 2, params, 3)
    passes, arc_sums = [], levy.arc_sums

    def recorded(*args, **kwargs):
        sums, scale = arc_sums(*args, **kwargs)
        passes.append(list(sums.values()))
        return sums, scale

    monkeypatch.setattr(levy, "arc_sums", recorded)
    cumulants = levy.moments_to_cumulants(moments, params)
    assert len(passes) == 1
    assert levy.cumulant_functional(phi, 2, params, 3) == psi
    assert len(passes) == 2
    monkeypatch.undo()
    assert levy.cumulants_to_moments(cumulants, params) == moments
    # every sum a pass returns is cleared: an int, a Poly of denominator 1 at the symbolic point
    cleared = (lambda x: type(x) is int) if params is GEN else (lambda x: type(x) is Poly and x.denominator == 1)
    assert all(cleared(x) for sums in passes for x in sums)


# the points of the one-pass inverse: int, Fraction and mixed, q = t, q = 0,
# v = -w, 3-digit denominators, and the symbolic point
INVERSE_POINTS = {
    "int": DeformationParams(2, 3, 1, 2),
    "fraction": GEN,
    "mixed": DeformationParams(1, Fraction(2, 3), 2, Fraction(1, 5)),
    "q=t": DeformationParams.from_rationals(Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)),
    "q=0": DeformationParams.from_rationals(0, Fraction(2, 3), Fraction(1, 3), Fraction(3, 4)),
    "v=-w": DeformationParams.from_rationals(Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(3, 4)),
    "3-digit": DeformationParams.from_rationals(
        Fraction(101, 103), Fraction(211, 307), Fraction(13, 127), Fraction(500, 997)
    ),
    "symbolic": DeformationParams.symbolic(),
}


def inverse_cases(name, k):
    """(params, maxlen, [phi, ...]) at a point of INVERSE_POINTS for k letters:
    the moments of random cumulants, random Fraction moments with 3-digit
    denominators, and random int moments."""
    params = INVERSE_POINTS[name]
    maxlen = {1: 8, 2: 5, 3: 4}[k] - (name == "symbolic")
    r = helpers.rng(80 + 10 * k + list(INVERSE_POINTS).index(name))
    words = [w for n in range(1, maxlen + 1) for w in itertools.product(range(k), repeat=n)]
    psi = {w: helpers.rand_frac(r) for w in words}
    return params, maxlen, [
        moment_functional(psi, k, params, maxlen),
        {w: helpers.rand_frac(r, 9, 999) for w in words},
        {w: r.randint(-3, 3) for w in words},
    ]


def typed(functional):
    return [(w, x, type(x)) for w, x in functional.items()]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", list(INVERSE_POINTS))
def test_the_one_pass_inverse_matches_the_per_length_oracle(name, k):
    params, maxlen, phis = inverse_cases(name, k)
    for phi in phis:
        assert typed(cumulant_functional(phi, k, params, maxlen)) == typed(
            helpers.cumulant_functional_by_length(phi, k, params, maxlen)
        )
    if k == 1:
        moments = [phis[1][(0,) * n] for n in range(1, maxlen + 1)]
        got = levy.moments_to_cumulants(moments, params)
        expect = helpers.cumulant_functional_by_length(dict(zip([(0,) * n for n in range(1, maxlen + 1)], moments)),
                                                        1, params, maxlen)
        assert [(x, type(x)) for x in got] == [(x, type(x)) for x in expect.values()]


@pytest.mark.parametrize("k, maxlen", [(2, 7), (3, 5)])
@pytest.mark.parametrize("name", ["ones", "v=-w"])
def test_the_one_pass_inverse_matches_the_per_length_oracle_past_the_small_windows(name, k, maxlen):
    params = DeformationParams.from_rationals(1, 1, 1, 1) if name == "ones" else INVERSE_POINTS[name]
    words = [w for n in range(1, maxlen + 1) for w in itertools.product(range(k), repeat=n)]
    psi = {w: Fraction((-1) ** len(w) * (sum(w) + 2), len(w) + 2) for w in words}
    phi = moment_functional(psi, k, params, maxlen)
    back = cumulant_functional(phi, k, params, maxlen)
    assert back == psi
    assert typed(back) == typed(helpers.cumulant_functional_by_length(phi, k, params, maxlen))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", list(INVERSE_POINTS))
def test_the_inverse_is_cleared_by_its_one_scale(name, k):
    # the lemma of cumulant_functional: psi(u) D_phi^n (E F)^C(n,2) is an int
    # (a Poly of denominator 1 at the symbolic point), so psi(u) D^n is one,
    # D = D_phi (E F)^(maxlen // 2), for every word u of length n
    params, maxlen, phis = inverse_cases(name, k)
    lift = _denominator(params[:2]) * _denominator(params[2:])
    for phi in phis:
        d_phi = _denominator(phi.values())
        for u, x in cumulant_functional(phi, k, params, maxlen).items():
            n = len(u)
            for cleared in (x * d_phi**n * lift ** (n * (n - 1) // 2), x * (d_phi * lift ** (maxlen // 2)) ** n):
                assert cleared.denominator == 1 and type(cleared) is (Poly if name == "symbolic" else Fraction), u


@pytest.mark.parametrize(
    "call, word",
    [
        (lambda: cumulant_functional({(0,): 1}, 2, GEN, 1), (1,)),
        (lambda: cumulant_functional({(0,): 1, (1,): 2, (0, 0): 1, (0, 1): 1, (1, 1): 3}, 2, GEN, 2), (1, 0)),
        (lambda: moment_functional({(0,): 1}, 1, GEN, 2), (0, 0)),
        (lambda: moment_functional({(1,): 1, (0,): 2}, 2, GEN, 2), (0, 0)),
        (lambda: product_functional({(0,): 1}, 1, {}, 1, GEN, 1), (0,)),
    ],
    ids=["cumulant-letter", "cumulant-pair", "moment-pair", "moment-letters", "product"],
)
def test_a_functional_missing_a_word_is_refused_by_name(call, word):
    # a bare KeyError used to come out of the pass
    with pytest.raises(ValueError, match=f"^{re.escape(f'functional not defined on word {word}')}$"):
        call()


def test_functional_from_spec_is_the_moment_of_each_word():
    r = helpers.rng(76)
    spec = rand_spec(r, k=2, d=2, with_gram=True)
    s = Fraction(2, 3)
    phi = functional_from_spec(spec, GEN, 5, s)
    assert list(phi) == [()] + [w for n in range(1, 6) for w in itertools.product(range(2), repeat=n)]
    for word, value in phi.items():
        assert value == levy_moment(spec, word, GEN, s), word
    with pytest.raises(ResourceLimitError):
        functional_from_spec(spec, GEN, MAX_DIAGONAL_N + 1)
    # refused as the other functionals refuse it, not the functional {(): 1} of no word
    with pytest.raises(ValueError, match="the word length maxlen of a functional is -1, but must be >= 0"):
        functional_from_spec(spec, GEN, -1)


def test_product_functional_marginals_and_mixed_cumulants():
    r = helpers.rng(70)
    s1 = rand_spec(r, k=1, d=2)
    s2 = rand_spec(r, k=1, d=2)
    for params in (FREE, GEN):
        phi1 = functional_from_spec(s1, params, 4)
        phi2 = functional_from_spec(s2, params, 4)
        prod = product_functional(phi1, 1, phi2, 1, params, 4)
        for n in range(1, 5):
            assert prod[(0,) * n] == phi1[(0,) * n]
            assert prod[(1,) * n] == phi2[(0,) * n]
        psi = cumulant_functional(prod, 2, params, 4)
        for n in range(2, 5):
            for word in itertools.product(range(2), repeat=n):
                if len(set(word)) == 2:
                    assert psi[word] == 0


def test_product_identity_for_convolution():
    # moments of the convolution equal mixed moments of the coordinate sum
    # under the product functional
    a = GeneratorPair.of(Fraction(1, 2), [Fraction(1), Fraction(1, 3), Fraction(2), Fraction(1)])
    b = GeneratorPair.of(Fraction(-1), [Fraction(2), Fraction(0), Fraction(1, 2), Fraction(3)])
    nmax = 5

    def functional_of(pair, params):
        ms = [Fraction(1)] + pair_to_moments(pair, params, nmax)
        return {(0,) * n: ms[n] for n in range(nmax + 1)}

    for params in (FREE, GEN):
        conv = pair_to_moments(convolve_pairs(a, b), params, nmax)
        prod = product_functional(
            functional_of(a, params), 1, functional_of(b, params), 1, params, nmax
        )
        for n in range(1, nmax + 1):
            mixed = sum(
                prod[word] for word in itertools.product((0, 1), repeat=n)
            )
            assert mixed == conv[n - 1], n


def test_generator_pairs_and_convolution():
    br = brownian_pair(Fraction(2))
    po = poisson_pair(Fraction(1, 2))
    assert br.cumulants(4) == [0, 2, 0, 0]
    assert po.cumulants(4) == [Fraction(1, 2)] * 4
    both = convolve_pairs(br, po)
    assert both.cumulants(4) == [Fraction(1, 2), Fraction(5, 2), Fraction(1, 2), Fraction(1, 2)]
    # exactly nmax cumulants, hence nmax moments
    assert [po.cumulants(n) for n in range(3)] == [[], [Fraction(1, 2)], [Fraction(1, 2)] * 2]
    assert pair_to_moments(po, GEN, 0) == []
    for refused in (lambda: po.cumulants(-1), lambda: pair_to_moments(po, GEN, -1)):
        with pytest.raises(ValueError, match="the cumulant count nmax is -1, but must be >= 0"):
            refused()


def test_free_brownian_and_poisson_moments():
    ms = pair_to_moments(brownian_pair(1), FREE, 6)
    assert ms == [0, 1, 0, 2, 0, 5]
    ms = pair_to_moments(poisson_pair(1), FREE, 6)
    assert ms == [1, 2, 5, 14, 42, 132]


def test_moments_to_pair_roundtrip():
    r = helpers.rng(71)
    pair = GeneratorPair.of(helpers.rand_frac(r), [helpers.rand_frac(r) for _ in range(5)])
    ms = pair_to_moments(pair, GEN, 6)
    back = moments_to_pair(ms, GEN)
    assert back.lam == pair.lam
    assert back.tau_moments == pair.tau_moments[:5]


def test_hankel_verdicts():
    atoms = [(Fraction(1, 2), Fraction(1)), (Fraction(1, 2), Fraction(-2))]
    ms = helpers.moments_of_atoms(atoms, 6)
    verdict, _ = hankel_psd_check(ms)
    assert verdict in ("positive_definite", "positive_semidefinite")
    verdict, _ = hankel_psd_check([Fraction(1), Fraction(0), Fraction(-1)])
    assert verdict == "indefinite"
    assert hankel_psd_check([0, 1, 0, 1, 0]) == ("indefinite", 1)


def test_hankel_verdict_and_kernel_are_exact():
    # the s x s Hankel matrix of k atoms with positive weights at distinct points
    # has rank min(k, s); it reads m_0..m_(2(s-1)), s = (len - 1) // 2 + 1
    r = helpers.rng(75)
    assert hankel_psd_check([]) == ("zero", 0)
    for _ in range(200):
        length, k = r.randint(1, 15), r.randint(1, 6)
        size = (length - 1) // 2 + 1
        points = r.sample(sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)}), k)
        atoms = [(Fraction(r.randint(1, 5), r.randint(1, 4)), x) for x in points]
        expect = ("positive_definite", 0) if k >= size else ("positive_semidefinite", size - k)
        assert hankel_psd_check(helpers.moments_of_atoms(atoms, length - 1)) == expect, (atoms, length)
    # signed, zero-heavy and zero-diagonal (m_0 = m_2 = ... = 0) sequences of
    # either parity, against the elimination over Fraction
    seen = set()
    for case in range(300):
        length = r.randint(1, 15)
        m = [helpers.rand_frac(r) if r.random() < (0.8, 0.4, 0.8)[case % 3] else Fraction(0) for _ in range(length)]
        if case % 3 == 2:
            m[::2] = [Fraction(0)] * len(m[::2])
        size = (length - 1) // 2 + 1
        got = hankel_psd_check(m)
        assert got == helpers.ldlt_classify_fraction([m[i : i + size] for i in range(size)]), m
        seen.add(got[0])
    assert seen == {
        "positive_definite", "positive_semidefinite", "indefinite", "negative_semidefinite", "negative_definite", "zero"
    }


def test_conditional_positivity_of_true_cumulants():
    r = helpers.rng(72)
    spec = rand_spec(r, k=2, d=2)
    gns_roundtrip_case(spec, 2, 3)


def gns_roundtrip_case(spec: LevySpec, k: int, maxlen: int):
    psi = {}
    for n in range(1, 2 * maxlen + 3):
        for word in itertools.product(range(k), repeat=n):
            psi[word] = levy_cumulant(spec, word)
    rec, info = gns_reconstruct(psi, k, maxlen)
    for n in range(1, maxlen + 2):
        for word in itertools.product(range(k), repeat=n):
            assert levy_cumulant(rec, word) == psi[word], word
    # each compression is Gram-symmetric: gram T is [psi(reverse(b) i b')]
    for mat in rec.T:
        assert _linalg.is_symmetric(helpers.mat_mul(rec.gram or (), mat))
    return rec, info


GNS_XI = [["1", "-1/2", "2/3", "0"], ["1/3", "2", "-1", "1/4"], ["0", "1", "1/2", "-3"]]
GNS_T = [[["1/2", "1", "0", "-1"], ["1", "-1/3", "2", "0"], ["0", "2", "1", "1/5"], ["-1", "0", "1/5", "3"]],
         [["0", "2/3", "1", "1"], ["2/3", "1", "0", "-2"], ["1", "0", "-1/2", "1"], ["1", "-2", "1", "0"]],
         [["2", "0", "-1", "1/3"], ["0", "1", "1/4", "0"], ["-1", "1/4", "0", "1"], ["1/3", "0", "1", "-1"]]]


def test_gns_reconstruction_roundtrip():
    r = helpers.rng(73)
    spec = rand_spec(r, k=2, d=2)
    rec, info = gns_roundtrip_case(spec, 2, 2)
    assert info["dim"] <= 6
    # windows past it: k = 2 from a four-dimensional spec at maxlen 3, k = 3 from a three-dimensional one at maxlen 2
    for k, d, maxlen in ((2, 4, 3), (3, 3, 2)):
        xis, gauges = [xi[:d] for xi in GNS_XI[:k]], [[row[:d] for row in t[:d]] for t in GNS_T[:k]]
        spec = LevySpec.of(xis, gauges, ["1/2", "-1", "2"][:k])
        assert gns_roundtrip_case(spec, k, maxlen)[1]["dim"] == d, (k, maxlen)


def test_gns_reconstruction_detects_degeneracy():
    # second coordinate is a scalar multiple of the first: one basis vector
    # per independent direction only
    xi0 = (Fraction(1), Fraction(2))
    t0 = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)))
    spec = LevySpec.of([xi0, tuple(2 * x for x in xi0)], [t0, t0], [1, 2])
    rec, info = gns_roundtrip_case(spec, 2, 2)
    assert info["dim"] <= 4
    # a window past it: the Gram matrix is singular, so the solve runs on its pivots
    xi0 = [Fraction(x) for x in GNS_XI[0][:3]]
    t0 = [row[:3] for row in GNS_T[0][:3]]
    rec, info = gns_roundtrip_case(LevySpec.of([xi0, [2 * x for x in xi0]], [t0, t0], ["1/2", "1"]), 2, 3)
    assert info["dim"] == 3


def test_gns_rejects_asymmetric_functional():
    psi = {(0,): Fraction(0), (0, 0): Fraction(1)}
    psi[(0, 0, 0)] = Fraction(1)
    # make psi(w) != psi(reverse(w)) on a length-2 window with two letters
    bad = {
        (0,): Fraction(1),
        (1,): Fraction(1),
        (0, 1): Fraction(2),
        (1, 0): Fraction(3),
    }
    with pytest.raises(ValueError):
        gns_reconstruct(bad, 2, 0)


def window(k: int, maxlen: int, values) -> dict:
    """psi on every word of length 1..2 * maxlen over k letters: its value
    in values, else 0."""
    return {w: Fraction(values.get(w, 0)) for n in range(1, 2 * maxlen + 1) for w in itertools.product(range(k), repeat=n)}


@pytest.mark.parametrize(
    "k, values",
    [
        (1, {(0, 0): -1}),  # a negative pivot
        (2, {(0, 1): 1, (1, 0): 1}),  # a zero diagonal with a nonzero row
    ],
    ids=["negative-pivot", "zero-diagonal"],
)
def test_gns_refuses_a_functional_that_is_not_conditionally_positive(k, values):
    with pytest.raises(ValueError, match="functional is not conditionally positive on this window"):
        gns_reconstruct(window(k, 1, values), k, 1)


def test_gns_skips_a_dead_first_word():
    # psi vanishes on every word with a 0, so the class of (0,) is zero: a
    # zero pivot of a positive semidefinite kernel is skipped, not refused
    psi = window(2, 2, {(1, 1): 1, (1, 1, 1): 1, (1, 1, 1, 1): 1})
    rec, info = gns_reconstruct(psi, 2, 2)
    assert info == {"dim": 1, "basis": [(1,)]}
    for word in (w for w in psi if len(w) <= 3):
        assert levy_cumulant(rec, word) == psi[word], word


def test_gns_eliminates_its_gram_matrix_once(monkeypatch):
    # one LDL^T of the whole Gram matrix gives the verdict and the basis; the
    # only other elimination is the one solve, an LDL^T of the basis rows
    eliminated = []
    ldlt = levy._linalg._ldlt

    def counted(rows, *rhs):
        eliminated.append(("_ldlt", len(rows)))
        return ldlt(rows, *rhs)

    monkeypatch.setattr(levy._linalg, "_ldlt", counted)
    xi0 = (Fraction(1), Fraction(2))
    t0 = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)))
    spec = LevySpec.of([xi0, tuple(2 * x for x in xi0)], [t0, t0], [1, 2])
    rec, info = gns_roundtrip_case(spec, 2, 2)
    assert eliminated == [("_ldlt", 6), ("_ldlt", info["dim"])] and info["dim"] < 6


def test_gns_window_is_bounded_by_psi():
    # a one-key psi at maxlen 30 is refused before any of the 2^61 window
    # words is listed
    with pytest.raises(ValueError, match=r"not defined on word \(1,\)"):
        gns_reconstruct({(0,): Fraction(1)}, 2, 30)
    # keys outside the window (a letter >= k, a word longer than 2 * maxlen)
    # do not stand in for the missing coordinate (1,), which is named before
    # the indefinite kernel on the words of length 2 is classified
    psi = {(0,): 1, (0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): -1, (2,): 1, (0, 0, 0): 1}
    with pytest.raises(ValueError, match=r"not defined on word \(1,\)"):
        gns_reconstruct({w: Fraction(c) for w, c in psi.items()}, 2, 1)
    # reversal symmetry is checked on words up to length 2 * maxlen + 2 over
    # the k letters only: asymmetric keys beyond either are ignored
    r = helpers.rng(76)
    spec = rand_spec(r, k=2, d=2)
    psi = {w: levy_cumulant(spec, w) for n in range(1, 5) for w in itertools.product(range(2), repeat=n)}
    psi.update({(0, 2): Fraction(1), (2, 0): Fraction(2), (0,) * 4 + (1,): Fraction(1), (1,) + (0,) * 4: Fraction(2)})
    rec, _ = gns_reconstruct(psi, 2, 1)
    for w in itertools.product(range(2), repeat=2):
        assert levy_cumulant(rec, w) == psi[w]
    psi[(0,) * 3 + (1,)] += 1
    with pytest.raises(ValueError, match="reversal-symmetric"):
        gns_reconstruct(psi, 2, 1)


def test_gns_refuses_asymmetry_before_a_missing_word():
    # each pair {w, reversed(w)} is checked once, whichever of its words psi
    # lists first, and before the window is: psi here misses (1,) as well
    psi = {(0,): 1, (0, 1): 1, (1, 0): 2, (0, 0, 1): 3}
    for order in (psi, dict(reversed(list(psi.items())))):
        with pytest.raises(ValueError, match="^functional is not reversal-symmetric$"):
            gns_reconstruct({w: Fraction(c) for w, c in order.items()}, 2, 1)
    # palindromes, symmetric pairs and a word whose reversal psi lacks pass on to the window
    psi = {(0,): 1, (0, 0): 2, (0, 1): 1, (1, 0): 1, (0, 1, 0): 5, (0, 0, 1): 3}
    with pytest.raises(ValueError, match=r"^functional not defined on word \(1,\)$"):
        gns_reconstruct({w: Fraction(c) for w, c in psi.items()}, 2, 1)


def test_psi_window_checks_list_words_only_as_far_as_psi(monkeypatch):
    # a two-word psi at maxlen 16: the positivity check used to list all
    # 131 070 words of length 1..16 before its first lookup
    drawn = []

    def counted(*args):
        for word in iter_words(*args):
            drawn.append(word)
            yield word

    iter_words = levy._iter_words
    monkeypatch.setattr(levy, "_iter_words", counted)
    psi = {(0,): Fraction(1), (0, 0): Fraction(1)}
    with pytest.raises(ValueError, match=r"not defined on word \(1,\)"):
        gns_reconstruct(psi, 2, 16)
    assert len(drawn) <= len(psi) + 1


def test_word_guard():
    # the moment words, the functionals and the operator model share the DP's cap
    r = helpers.rng(74)
    spec = rand_spec(r, k=1, d=1)
    n = MAX_DIAGONAL_N + 1
    word = (0,) * n
    one_block = SetPartition(n, [range(1, n + 1)])
    for refused in (
        lambda: levy_moment(spec, word, GEN),
        lambda: levy_moment_s_poly(spec, word, GEN),
        lambda: functional_from_spec(spec, GEN, n),
        lambda: fock_levy_oracle(spec, [(0, 0)] * n, [Fraction(1)], GEN),
        lambda: stochastic_measure(spec, word, one_block, Fraction(1), 1, GEN),
    ):
        with pytest.raises(ResourceLimitError):
            refused()


@pytest.mark.parametrize("n", [MAX_DIAGONAL_N - 1, MAX_DIAGONAL_N])
def test_words_at_the_cap_match_the_operator_model(n):
    r = helpers.rng(80 + n)
    spec = rand_spec(r, k=2, d=2, with_gram=True)
    word = tuple(r.randrange(2) for _ in range(n))
    s = Fraction(2, 3)
    moment = levy_moment(spec, word, GEN, s)
    assert moment == fock_levy_oracle(spec, [(u, 0) for u in word], [s], GEN)
    assert sum(c * s ** k for k, c in levy_moment_s_poly(spec, word, GEN).items()) == moment


def test_functional_guards():
    phi = {(0,) * n: Fraction(1) for n in range(MAX_DIAGONAL_N + 2)}
    assert len(cumulant_functional(phi, 1, GEN, MAX_DIAGONAL_N)) == MAX_DIAGONAL_N
    with pytest.raises(ResourceLimitError):
        cumulant_functional(phi, 1, GEN, MAX_DIAGONAL_N + 1)
    with pytest.raises(ResourceLimitError):
        moment_functional(phi, 1, GEN, MAX_DIAGONAL_N + 1)


def test_moment_with_gram_and_zero_cumulants_matches_operator_model():
    # a non-identity gram, and coordinates whose cumulants vanish: lam = 0,
    # a zero T (every block with it in the middle is 0) and xi = 0
    r = helpers.rng(76)
    gram = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)))
    zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    spec = LevySpec.of(
        [helpers.rand_vec(r, 2), helpers.rand_vec(r, 2), (0, 0)],
        [helpers.rand_sym_mat(r, 2), zero, helpers.rand_sym_mat(r, 2)],
        [helpers.rand_frac(r), 0, helpers.rand_frac(r)],
        gram,
    )
    s = Fraction(2, 3)
    for params in (FREE, GEN, DeformationParams.from_rationals(Fraction(-1, 2), 1, Fraction(1, 3), Fraction(1, 2))):
        for n in range(1, 6):
            for word in itertools.product(range(3), repeat=n) if n <= 4 else [(0, 1, 2, 1, 0), (1, 0, 0, 1, 0)]:
                got = levy_moment(spec, word, params, s)
                assert got == fock_levy_oracle(spec, [(u, 0) for u in word], [s], params), word
                if n <= 3:
                    value = lambda block: levy_cumulant(spec, tuple(word[i - 1] for i in block), s)
                    assert got == sum(helpers.brute_class_sums(n, params, value, lambda block: 1).values(), 0)


def test_moment_with_asymmetric_T_matches_the_row_table_route():
    # the DP multiplies row vectors from the left; the cumulant applies T
    # from the right: they agree for any T, symmetric or not (the route is
    # the literal sum over the brute rows of helpers)
    r = helpers.rng(78)
    gram = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)))
    spec = LevySpec.of(
        [helpers.rand_vec(r, 2) for _ in range(2)], [helpers.rand_mat(r, 2) for _ in range(2)], [1, 2], gram
    )
    assert any(m[0][1] != m[1][0] for m in spec.T)
    for n in range(1, 6):
        for word in itertools.product(range(2), repeat=n):
            value = lambda block: levy_cumulant(spec, tuple(word[i - 1] for i in block), Fraction(1, 2))
            expect = sum(helpers.brute_class_sums(n, GEN, value, lambda block: 1).values(), 0)
            assert levy_moment(spec, word, GEN, Fraction(1, 2)) == expect, word


def test_s_polynomial_by_block_count_at_the_symbolic_point():
    # the block count of the DP state against the literal diagonal enumeration
    r = helpers.rng(77)
    spec = rand_spec(r, k=2, d=2, with_gram=True)
    sym = DeformationParams.symbolic()
    for word in [(0,), (1, 0), (0, 1, 1), (1, 0, 0, 1), (0, 1, 0, 1, 1)]:
        n = len(word)
        expect = {}
        for dp in diagonal_partitions(n):
            term = sym.monomial(*dp.weight_exponents())
            for block in dp.top.blocks:
                term = term * levy_cumulant(spec, tuple(word[i - 1] for i in block), 1)
            k = len(dp.top.blocks)
            expect[k] = expect.get(k, 0) + term
        assert levy_moment_s_poly(spec, word, sym) == {k: v for k, v in expect.items() if v != 0}


def test_combined_spec_mixed_cumulants():
    r = helpers.rng(75)
    a = rand_spec(r, k=1, d=2)
    xi_b, t_b, lam_b = helpers.rand_vec(r, 2), helpers.rand_sym_mat(r, 2), helpers.rand_frac(r)
    both = LevySpec.of(a.xi + (xi_b,), a.T + (t_b,), a.lam + (lam_b,))
    assert both.k == 2
    # chain rule: R(0,1,0) = <xi_a, T_b xi_a>
    expect = sum(
        a.xi[0][i] * sum(t_b[i][j] * a.xi[0][j] for j in range(2)) for i in range(2)
    )
    assert levy_cumulant(both, (0, 1, 0)) == expect
