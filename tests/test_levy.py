import itertools
from fractions import Fraction

import pytest

import helpers
from diagfock.scalars import DeformationParams, ResourceLimitError
from diagfock.partitions import SetPartition, diagonal_partitions, set_partitions
from diagfock.levy import (
    MAX_LEVY_WORD,
    GeneratorPair,
    LevySpec,
    brownian_pair,
    combined_spec,
    conditional_positivity_check,
    convolve_pairs,
    cumulant_functional,
    diagonal_measure_spec,
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
    # reproduces the one-interval moment
    r = helpers.rng(62)
    spec = rand_spec(r, k=1, d=2)
    s = Fraction(2, 3)
    for params in (FREE, GEN):
        for n in (1, 2, 3):
            word = (0,) * n
            whole = levy_moment(spec, word, params, s)
            pieces = [s / 2, s / 2]
            total = Fraction(0)
            for assign in itertools.product(range(2), repeat=n):
                total += fock_levy_oracle(spec, list(zip(word, assign)), pieces, params)
            assert total == whole


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
        diag = diagonal_measure_spec(spec, 0, n)
        assert levy_cumulant(diag, (0,)) == levy_cumulant(spec, (0,) * n)
        for m in (2, 3):
            assert levy_cumulant(diag, (0,) * m) == levy_cumulant(spec, (0,) * (n * m))
    assert diagonal_measure_spec(spec, 0, 1).xi == (spec.xi[0],)


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
    from diagfock.partitions import set_partitions

    for params in (FREE, GEN):
        for word in [(0, 1), (0, 1, 0)]:
            n = len(word)
            for n_int in (2, 3):
                if n_int < n:
                    continue
                total = sum(
                    stochastic_measure(spec, word, pi, s, n_int, params)
                    for pi in set_partitions(n)
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
            for pi in set_partitions(n):
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
    assert br.scale_time(3).cumulants(4) == [0, 6, 0, 0]


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


def test_conditional_positivity_of_true_cumulants():
    r = helpers.rng(72)
    spec = rand_spec(r, k=2, d=2)
    psi = {}
    for n in range(1, 7):
        for word in itertools.product(range(2), repeat=n):
            psi[word] = levy_cumulant(spec, word)
    verdict, _ = conditional_positivity_check(psi, 2, 3)
    assert verdict in ("positive_definite", "positive_semidefinite", "zero")


def gns_roundtrip_case(spec: LevySpec, k: int, maxlen: int):
    psi = {}
    for n in range(1, 2 * maxlen + 3):
        for word in itertools.product(range(k), repeat=n):
            psi[word] = levy_cumulant(spec, word)
    rec, info = gns_reconstruct(psi, k, maxlen)
    for n in range(1, maxlen + 2):
        for word in itertools.product(range(k), repeat=n):
            assert levy_cumulant(rec, word) == psi[word], word
    return rec, info


def test_gns_reconstruction_roundtrip():
    r = helpers.rng(73)
    spec = rand_spec(r, k=2, d=2)
    rec, info = gns_roundtrip_case(spec, 2, 2)
    assert info["dim"] <= 6


def test_gns_reconstruction_detects_degeneracy():
    # second coordinate is a scalar multiple of the first: one basis vector
    # per independent direction only
    xi0 = (Fraction(1), Fraction(2))
    t0 = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)))
    spec = LevySpec.of([xi0, tuple(2 * x for x in xi0)], [t0, t0], [1, 2])
    rec, info = gns_roundtrip_case(spec, 2, 2)
    assert info["dim"] <= 4


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


def test_word_guard():
    r = helpers.rng(74)
    spec = rand_spec(r, k=1, d=1)
    with pytest.raises(ResourceLimitError):
        levy_moment(spec, (0,) * (MAX_LEVY_WORD + 1), GEN)


def test_combined_spec_mixed_cumulants():
    r = helpers.rng(75)
    a = rand_spec(r, k=1, d=2)
    b = LevySpec.of([helpers.rand_vec(r, 2)], [helpers.rand_sym_mat(r, 2)], [helpers.rand_frac(r)])
    both = combined_spec(a, b)
    assert both.k == 2
    # chain rule: R(0,1,0) = <xi_a, T_b xi_a>
    expect = sum(
        a.xi[0][i] * sum(b.T[0][i][j] * a.xi[0][j] for j in range(2)) for i in range(2)
    )
    assert levy_cumulant(both, (0, 1, 0)) == expect
