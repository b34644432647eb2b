"""Every guarded public entry, at one past its cap and one below its least size
(an entry with no cap only below its least size)."""

import importlib
import itertools
import pkgutil
import re
from fractions import Fraction

import pytest

import diagfock
import helpers
from diagfock import _guards as guards, cli, fock, levy, orthopoly, partitions, wick
from diagfock._guards import (
    MAX_CF_DEPTH,
    MAX_DIAGONAL_N,
    MAX_FAMILY_NMAX,
    MAX_NORM_BITS,
    MAX_OPERATOR_WORD,
    MAX_SYMBOLIC_MOMENTS_NMAX,
    MAX_SYMBOLIC_POLYS_NMAX,
    MAX_SYMMETRIZER_WORDS,
    ResourceLimitError,
)
from diagfock.fock import CREATE, GaugePair, VectorPair
from diagfock.levy import GeneratorPair, LevySpec
from diagfock.partitions import SetPartition
from diagfock.scalars import DeformationParams
from diagfock.wick import QuadrabasicOp

P = DeformationParams.from_rationals(Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 4))
SPEC = LevySpec.of([[1]], [[[Fraction(1, 2)]]], [Fraction(1, 3)])
X = VectorPair.of([1], [1])
HALF, ONE = Fraction(1, 2), Fraction(1)
UNIT = DeformationParams.from_rationals(HALF, 1, Fraction(1, 3), 1)  # t = w = 1, as the commutation relation needs
# a row of one past the symmetrizer's cap in letters, so its size passes the data's check
WIDE = (ONE,) * (MAX_SYMMETRIZER_WORDS + 1)
WIDE_TOP, WIDE_BAR = VectorPair(WIDE, (ONE,)), VectorPair((ONE,), WIDE)
WIDE_GAUGE = GaugePair((WIDE,) * len(WIDE), (WIDE,) * len(WIDE))
DISTINCT_12 = fock.FockVector({(tuple(range(12)), tuple(range(12))): ONE})  # a level-12 term of 12 distinct letters

# the kernels behind the entries, in every namespace that calls them (levy reads
# fock._vacuum_moment from fock when its oracle runs; the CLI reads the
# orthopoly kernels from orthopoly when its command runs), and the token check
# of fock's public entries
WORK = [
    (partitions, "arc_sums"), (partitions, "role_sums"), (partitions, "_diagonal_classes"),
    (levy, "subword_sums"),
    (wick, "subword_sums"), (wick, "role_sums"), (wick, "_vacuum_moment"), (wick, "apply_word"),
    (fock, "_check_tokens"), (fock, "_vacuum_moment"), (fock, "_sym_column"),
    (fock, "_commutation_entries"), (fock, "_adjoint_entries"),
    (orthopoly, "moments_from_jacobi"), (orthopoly, "polys_from_jacobi"), (orthopoly, "cauchy_transform"),
    (cli, "_diagonal_classes"),
]


def _cli(*argv):
    args = cli.build_parser().parse_args(list(argv))
    return args.func(args)


# (id, call at size n, cap, least size or None when no size is too small)
ENTRIES = [
    ("diagonal_partitions", lambda n: list(partitions.diagonal_partitions(n)), MAX_DIAGONAL_N, 0),
    ("count_diagonal_partitions", partitions.count_diagonal_partitions, MAX_DIAGONAL_N, 0),
    ("count_diagonal_pair_partitions", partitions.count_diagonal_pair_partitions, MAX_FAMILY_NMAX, 0),
    ("unit_bar_sum", lambda n: partitions.unit_bar_sum(("S",) * n, P.v, P.w), MAX_DIAGONAL_N, None),
    ("levy_moment", lambda n: levy.levy_moment(SPEC, (0,) * n, P), MAX_DIAGONAL_N, None),
    ("levy_moment_s_poly", lambda n: levy.levy_moment_s_poly(SPEC, (0,) * n, P), MAX_DIAGONAL_N, None),
    ("functional_from_spec", lambda n: levy.functional_from_spec(SPEC, P, n), MAX_DIAGONAL_N, 0),
    ("fock_levy_oracle", lambda n: levy.fock_levy_oracle(SPEC, [(0, 0)] * n, [ONE], P), MAX_DIAGONAL_N, None),
    (
        "stochastic_measure",
        lambda n: levy.stochastic_measure(SPEC, (0,) * n, SetPartition(n, [range(1, n + 1)]), ONE, 1, P),
        MAX_DIAGONAL_N,
        None,
    ),
    (
        "stochastic_limit",
        lambda n: levy.stochastic_limit(SPEC, (0,) * n, SetPartition(n, [range(1, n + 1)]), ONE, P),
        MAX_DIAGONAL_N,
        None,
    ),
    ("cumulant_functional", lambda n: levy.cumulant_functional({}, 1, P, n), MAX_DIAGONAL_N, 0),
    ("moment_functional", lambda n: levy.moment_functional({}, 1, P, n), MAX_DIAGONAL_N, 0),
    ("product_functional", lambda n: levy.product_functional({}, 1, {}, 1, P, n), MAX_DIAGONAL_N, 0),
    ("cumulants_to_moments", lambda n: levy.cumulants_to_moments([ONE] * n, P), MAX_DIAGONAL_N, None),
    ("moments_to_cumulants", lambda n: levy.moments_to_cumulants([ONE] * n, P), MAX_DIAGONAL_N, None),
    ("pair_to_moments", lambda n: levy.pair_to_moments(GeneratorPair.of(0, [ONE] * 12), P, n), MAX_DIAGONAL_N, 0),
    ("moments_to_pair", lambda n: levy.moments_to_pair([ONE] * n, P), MAX_DIAGONAL_N, None),
    ("gaussian_wick", lambda n: wick.gaussian_wick([X] * n, P), MAX_DIAGONAL_N, None),
    ("gaussian_fock_oracle", lambda n: wick.gaussian_fock_oracle([X] * n, P), MAX_DIAGONAL_N, None),
    ("word_vacuum_formula", lambda n: wick.word_vacuum_formula([(CREATE, X)] * n, P), MAX_DIAGONAL_N, None),
    ("word_fock_oracle", lambda n: wick.word_fock_oracle([(CREATE, X)] * n, P), MAX_DIAGONAL_N, None),
    ("full_wick", lambda n: wick.full_wick([QuadrabasicOp(X, None)] * n, P), MAX_DIAGONAL_N, None),
    ("full_fock_oracle", lambda n: wick.full_fock_oracle([QuadrabasicOp(X, None)] * n, P), MAX_DIAGONAL_N, None),
    ("vacuum_expectation", lambda n: fock.vacuum_expectation([(CREATE, X)] * n, P), MAX_OPERATOR_WORD, None),
    ("apply_word", lambda n: fock.apply_word([(CREATE, X)] * n, P), MAX_OPERATOR_WORD, None),
    # level 1 over d letters has d words; the whole matrix is the tests' oracle, behind the library's guard
    ("symmetrizer_matrix", lambda d: helpers.symmetrizer_matrix(1, HALF, ONE, d), MAX_SYMMETRIZER_WORDS, 0),
    ("positivity_check", lambda d: fock.positivity_check(1, HALF, ONE, d), MAX_SYMMETRIZER_WORDS, 0),
    (
        "check_commutation_tensor top",
        lambda d: fock.check_commutation_tensor(WIDE_TOP, WIDE_TOP, UNIT, d, 1, maxlevel=1),
        MAX_SYMMETRIZER_WORDS,
        0,
    ),
    (
        "check_commutation_tensor bar",
        lambda d: fock.check_commutation_tensor(WIDE_BAR, WIDE_BAR, UNIT, 1, d, maxlevel=1),
        MAX_SYMMETRIZER_WORDS,
        0,
    ),
    # one term at level 1 whose letter on one row is d - 1
    (
        "deformed_inner top",
        lambda d: fock.deformed_inner(*[fock.FockVector({((d - 1,), (0,)): ONE})] * 2, P),
        MAX_SYMMETRIZER_WORDS,
        None,
    ),
    (
        "deformed_inner bar",
        lambda d: fock.deformed_inner(*[fock.FockVector({((0,), (d - 1,)): ONE})] * 2, P),
        MAX_SYMMETRIZER_WORDS,
        None,
    ),
    ("gauge_adjoint_check top", lambda d: fock.gauge_adjoint_check(WIDE_GAUGE, P, d, 1, 1), MAX_SYMMETRIZER_WORDS, 0),
    ("gauge_adjoint_check bar", lambda d: fock.gauge_adjoint_check(WIDE_GAUGE, P, 1, d, 1), MAX_SYMMETRIZER_WORDS, 0),
    ("cli euler", lambda n: _cli("euler", "--nmax", str(n)), MAX_FAMILY_NMAX // 2, 1),
    ("cli partitions --pairs", lambda n: _cli("partitions", "--pairs", "--n", str(n)), MAX_FAMILY_NMAX, 0),
    ("cli partitions", lambda n: _cli("partitions", "--n", str(n)), MAX_DIAGONAL_N, 0),
    ("cli moments", lambda n: _cli("moments", "--family", "hermite", "--nmax", str(n)), MAX_FAMILY_NMAX, 1),
    ("cli polys", lambda n: _cli("polys", "--family", "hermite", "--nmax", str(n)), MAX_FAMILY_NMAX, 1),
    (
        "cli moments --symbolic",
        lambda n: _cli("moments", "--family", "poisson", "--symbolic", "--nmax", str(n)),
        MAX_SYMBOLIC_MOMENTS_NMAX,
        1,
    ),
    (
        "cli polys --symbolic",
        lambda n: _cli("polys", "--family", "poisson", "--symbolic", "--nmax", str(n)),
        MAX_SYMBOLIC_POLYS_NMAX,
        1,
    ),
    ("cli cauchy", lambda n: _cli("cauchy", "--family", "hermite", "--depth", str(n)), MAX_CF_DEPTH, 1),
]


@pytest.fixture
def no_work(monkeypatch):
    for module, name in WORK:
        def ran(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran before the guard")

        monkeypatch.setattr(module, name, ran)


# sizes that step by more than 1: an odd --n of a pair listing is refused first, as bad input
STEPS = {"cli partitions --pairs": 2}


@pytest.mark.parametrize(
    "call, cap, least, step",
    [(call, cap, least, STEPS.get(i, 1)) for i, call, cap, least in ENTRIES],
    ids=[e[0] for e in ENTRIES],
)
def test_every_entry_refuses_one_past_its_cap_before_any_work(no_work, call, cap, least, step):
    message = f"is {cap + step}, but is guarded at <= {cap}"
    with pytest.raises(ResourceLimitError, match=f"{re.escape(message)}$"):
        call(cap + step)
    if least is not None:
        message = f"is {least - step}, but must be >= {least}"
        with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
            call(least - step)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fock.positivity_check(9100, HALF, Fraction(2, 3), 3), "n = 9100, d = 3 is at least 2^9100"),
        (lambda: helpers.symmetrizer_matrix(10**6, HALF, Fraction(2, 3), 3), "n = 1000000, d = 3 is at least 2^1000000"),
        (lambda: fock.positivity_check(10**7, HALF, Fraction(2, 3), 2), "n = 10000000, d = 2 is at least 2^10000000"),
        (lambda: fock.deformed_inner(*[DISTINCT_12] * 2, P), "n = 12, d = 12 is at least 2^36"),
    ],
    ids=["positivity-n-9100", "symmetrizer-n-10**6", "positivity-n-10**7", "deformed-inner-level-12"],
)
def test_the_symmetrizer_refuses_a_huge_level_without_forming_its_words(no_work, call, message):
    # d^n used to be formed first: past 4300 digits its refusal failed to print
    # it, with a plain ValueError, and n = 10**7 took seconds to refuse; a
    # level-12 term of deformed_inner, a column of 12! entries, ran for minutes
    with pytest.raises(ResourceLimitError, match=f"{re.escape(message)}, but is guarded at <= {MAX_SYMMETRIZER_WORDS}$"):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: fock.positivity_check(1, HALF, ONE, 10**5000), ResourceLimitError,
         "the words d^n at n = 1, d = (an int of 16610 bits) is at least 2^16609, but is guarded at <= "
         f"{MAX_SYMMETRIZER_WORDS}"),
        (lambda: fock.positivity_check(3, HALF, ONE, -10**5000), ValueError,
         "the letter count d of the symmetrizer is (a negative int of 16610 bits), but must be >= 0"),
    ],
    ids=["letter-count-10**5000", "letter-count--10**5000"],
)
def test_a_huge_letter_count_is_named_by_its_bit_length(no_work, call, error, message):
    # str() refuses an int past 4300 digits, so these guards once failed to
    # print their own message, with a plain ValueError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "q, t, level, bits",
    [
        # nhat = 25582: the search stops at its first lower bound past the cap
        (Fraction(9999, 10000), Fraction(99999, 100000), ">= 25311", 17),
        # q / (1 - q) bounds nhat below, so no power is formed
        (1 - Fraction(2, 10**50), 1 - Fraction(1, 10**50), f">= {5 * 10**49 - 1}", 167),
        # at q = t, nhat = floor(t / (1 - t))
        (1 - Fraction(1, 10**50), 1 - Fraction(1, 10**50), f"= {10**50 - 1}", 167),
    ],
    ids=["mixed-nhat-25582", "mixed-nhat-past-10**49", "equal-nhat-10**50"],
)
def test_the_creation_norm_refuses_a_high_peak_level(q, t, level, bits):
    nhat = int(level.split()[-1])
    message = f"nhat * bits(E) of the creation norm at nhat {level} and {bits}-bit E is {nhat * bits}"
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}, but is guarded at <= {MAX_NORM_BITS}$"):
        fock.creation_norm_squared(q, t)


def test_the_creation_norm_admits_its_level_up_to_the_cap(monkeypatch):
    # at (999/1000, 9999/10000) nhat = 2557, the peak is level 2558, and E = 10^4 has 14 bits
    q, t = Fraction(999, 1000), Fraction(9999, 10000)
    monkeypatch.setattr(guards, "MAX_NORM_BITS", 2557 * 14)
    assert fock.creation_norm_squared(q, t)[1] == "mixed"
    monkeypatch.setattr(guards, "MAX_NORM_BITS", 2557 * 14 - 1)
    with pytest.raises(ResourceLimitError, match="at nhat >= 2557 and 14-bit E is 35798, but is guarded at <= 35797$"):
        fock.creation_norm_squared(q, t)


def test_the_creation_norm_prices_its_level_by_the_bits_of_e():
    # q = 1/2, t = 1 - 10^-k: nhat is about 3.3 k and E has about 3.3 k bits,
    # so the powers grow with k^2; at k = 300 (nhat = 995, far below 25 000)
    # the search took 3.3 s, and now stops at its first priced lower bound
    assert fock.creation_norm_squared(HALF, 1 - Fraction(1, 10**100))[1] == "mixed"
    message = "nhat * bits(E) of the creation norm at nhat >= 511 and 997-bit E is 509467"
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}, but is guarded at <= {MAX_NORM_BITS}$"):
        fock.creation_norm_squared(HALF, 1 - Fraction(1, 10**300))
    # nhat = 24 998 at 17-bit E runs: the cap admits nhat = 25 000 there
    q, t = 1 - Fraction(6, 69763), 1 - Fraction(1, 69763)
    assert fock.creation_norm_squared(q, t)[1] == "mixed"


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: fock.check_commutation_tensor(X, X, UNIT, 2, 1),
            "the letter count d of the top row is 2, but its data have size 1",
        ),
        (
            lambda: fock.check_commutation_tensor(X, X, UNIT, 1, 2),
            "the letter count d of the bar row is 2, but its data have size 1",
        ),
        (
            lambda: fock.check_commutation_tensor(VectorPair.of([1, 2], [1]), X, UNIT, 1, 1),
            "the top row's data have sizes 2 and 1, not one size",
        ),
        (
            lambda: fock.check_commutation_tensor(X, VectorPair.of([1], [1, 2]), UNIT, 1, 1),
            "the bar row's data have sizes 1 and 2, not one size",
        ),
        (
            lambda: fock.gauge_adjoint_check(GaugePair.of([[1]], [[1, 2], [3, 4]]), P, 2, 2),
            "the letter count d of the top row is 2, but its data have size 1",
        ),
        (
            lambda: fock.gauge_adjoint_check(GaugePair.of([[1, 2], [3, 4]], [[1]]), P, 2, 2),
            "the letter count d of the bar row is 2, but its data have size 1",
        ),
    ],
    ids=[
        "commutation-top-d", "commutation-bar-d", "commutation-top-sizes", "commutation-bar-sizes",
        "gauge-top-d", "gauge-bar-d",
    ],
)
def test_the_sweeps_refuse_a_row_that_their_data_do_not_fit(no_work, call, message):
    # a letter past the data used to fail with an IndexError, and vectors of
    # two sizes inside zip()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# (id, call at size n, what the message names, least size)
UNCAPPED = [
    ("quadrature_rule", lambda n: orthopoly.quadrature_rule(orthopoly.jacobi_sech(3), n), "the Gauss rule size", 0),
    (
        "moments_from_jacobi",
        lambda n: orthopoly.moments_from_jacobi(orthopoly.jacobi_sech(4), n),
        "the moment order nmax",
        0,
    ),
    (
        "polys_from_jacobi",
        lambda n: orthopoly.polys_from_jacobi(orthopoly.jacobi_sech(4), n),
        "the polynomial degree nmax",
        0,
    ),
    (
        "norm_squares_from_jacobi",
        lambda n: orthopoly.norm_squares_from_jacobi(orthopoly.jacobi_sech(4), n),
        "the polynomial degree nmax",
        0,
    ),
    (
        "cauchy_transform",
        lambda n: orthopoly.cauchy_transform(orthopoly.jacobi_sech(4), 1j, n),
        "the continued-fraction depth",
        1,
    ),
    ("jacobi_sech", orthopoly.jacobi_sech, "the recurrence depth", 1),
    ("jacobi_hermite", lambda n: orthopoly.jacobi_hermite(P, n), "the recurrence depth", 1),
    ("jacobi_poisson", lambda n: orthopoly.jacobi_poisson(P, n), "the recurrence depth", 1),
    ("jacobi_qmp", lambda n: orthopoly.jacobi_qmp(HALF, HALF, n), "the recurrence depth", 1),
    # k = -1 used to give LevySpec(k=-1, ...) and maxlen = -5 a spec of
    # dimension 0; cumulant_functional at k = -1 gave {} and
    # moment_functional {(): 1}
    ("gns_reconstruct k", lambda n: levy.gns_reconstruct({}, n, 0), "the letter count k of a functional", 0),
    (
        "gns_reconstruct maxlen",
        lambda n: levy.gns_reconstruct({(0,): ONE}, 1, n),
        "the word length maxlen of the reconstruction",
        0,
    ),
    ("cumulant_functional k", lambda n: levy.cumulant_functional({}, n, P, 1), "the letter count k of a functional", 0),
    ("moment_functional k", lambda n: levy.moment_functional({}, n, P, 2), "the letter count k of a functional", 0),
    # a maxlevel or letter count of -1 used to sweep nothing and pass
    (
        "check_commutation_tensor maxlevel",
        lambda n: fock.check_commutation_tensor(X, X, UNIT, 1, 1, n),
        "the maxlevel of the sweep",
        0,
    ),
    (
        "gauge_adjoint_check maxlevel",
        lambda n: fock.gauge_adjoint_check(GaugePair.of([[1]], [[1]]), P, 1, 1, n),
        "the maxlevel of the sweep",
        0,
    ),
]


@pytest.mark.parametrize("call, what, least", [e[1:] for e in UNCAPPED], ids=[e[0] for e in UNCAPPED])
def test_uncapped_entries_refuse_one_below_their_least_size(call, what, least):
    # a rule of size -1 used to come back as nodes (0, 0) and weights (0, 1),
    # and nmax = 0 to fail inside max() on an empty sequence; polys_from_jacobi
    # at -1 gave P_0 and P_1, cauchy_transform 0j, jacobi_poisson the data of
    # depth 1, and a depth-0 sech, hermite or qmp recurrence failed with
    # "need exactly one more beta than gamma"
    message = f"{what} is {least - 1}, but must be >= {least}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(least - 1)
    call(least)


def _cached_functions():
    """(name, function) of every memoised function of every diagfock module,
    at module level and on its classes."""
    for info in pkgutil.iter_modules(diagfock.__path__):
        module = importlib.import_module(f"diagfock.{info.name}")
        spaces = [(module.__name__, vars(module))]
        spaces += [(f"{module.__name__}.{k}", vars(c)) for k, c in vars(module).items() if isinstance(c, type)]
        for prefix, names in spaces:
            for name, obj in names.items():
                if callable(getattr(obj, "cache_info", None)):
                    yield f"{prefix}.{name}", obj


def test_every_cache_is_bounded():
    cached = dict(_cached_functions())
    assert "diagfock.partitions.diagonal_partition_profiles" in cached and "diagfock.levy._diag_partitions_list" in cached
    unbounded = [name for name, fn in cached.items() if fn.cache_info().maxsize is None]
    assert unbounded == []
    # the partition caches hold every n that their guard admits, 0..MAX_DIAGONAL_N
    for fn in (partitions.diagonal_partition_profiles, levy._diag_partitions_list):
        assert fn.cache_info().maxsize == MAX_DIAGONAL_N + 1
    # the compiled shapes of the subword kernel: bounded in count and in moves
    assert "diagfock.partitions.subword_sums" in cached
    shapes = partitions.subword_sums
    shapes.cache_clear()
    for n in range(shapes.cache_info().maxsize + 5):  # more shapes than it keeps, each its own letters
        shapes([range(n, n + 2)] * 4, P, lambda u: 1)
        info = shapes.cache_info()
        assert info.currsize <= info.maxsize and info.moves <= info.budget
    assert info.currsize == info.maxsize


def test_a_shape_over_the_move_budget_gives_the_same_sums_and_is_not_kept(monkeypatch):
    psi = {w: Fraction(len(w), 1 + sum(w)) for n in range(1, 6) for w in itertools.product(range(2), repeat=n)}
    partitions.subword_sums.cache_clear()
    expect = levy.moment_functional(psi, 2, P, 5)  # (k, maxlen) = (2, 5): 860 moves
    assert levy.cumulant_functional(expect, 2, P, 5) == psi
    partitions.subword_sums.cache_clear()
    levy.cumulants_to_moments([HALF] * 4, P)  # a shape of 40 moves, kept
    before, keys = partitions.subword_sums.cache_info(), list(partitions._SHAPES)
    monkeypatch.setattr(partitions, "_MAX_SHAPE_MOVES", 100)
    for _ in range(2):
        got = levy.moment_functional(psi, 2, P, 5)
        assert [(w, type(x), x) for w, x in got.items()] == [(w, type(x), x) for w, x in expect.items()]
        assert levy.cumulant_functional(got, 2, P, 5) == psi
        assert partitions.subword_sums.cache_info()[:3] == before[:3] and list(partitions._SHAPES) == keys
    # the oldest shapes go first once the kept moves pass the budget
    monkeypatch.setattr(partitions, "_MAX_SHAPE_MOVES", 2 * 860)
    for n in range(3):
        partitions.subword_sums([range(n, n + 2)] * 5, P, lambda u: 1)
    assert partitions.subword_sums.cache_info()[:3] == (2, before.maxsize, 2 * 860)

