import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from diagfock._guards import MAX_DIAGONAL_N, MAX_FAMILY_NMAX, ResourceLimitError
from diagfock.partitions import (
    ROLE_OPENER,
    ROLE_SINGLETON,
    DiagonalPartition,
    SetPartition,
    arc_sums,
    count_diagonal_pair_partitions,
    count_diagonal_partitions,
    diagonal_partition_profiles,
    diagonal_partitions,
    render_partition,
    role_sums,
    unit_bar_sum,
    _diagonal_classes,
    _read,
    _walk,
)
from diagfock.levy import cumulant_functional, moment_functional
from diagfock.orthopoly import jacobi_hermite, jacobi_poisson, jacobi_sech, moments_from_jacobi
from diagfock.scalars import DeformationParams, Poly

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
NO_SINGLETON = [1, 0, 1, 1, 4, 11, 41, 162, 715]
INVOLUTIONS = [1, 1, 2, 4, 10, 26, 76, 232, 764]
MATCHINGS = [1, 0, 1, 0, 3, 0, 15, 0, 105]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def canon(p: SetPartition):
    return tuple(tuple(b) for b in p.blocks)


def brute_filtered(keep):
    return lambda n: [p for p in helpers.all_partitions_brute(n) if keep(p)]


# (letters of every point, keep only the rows without a restricted crossing, brute rows of [n], counts)
WALK_FAMILIES = {
    "OCMS": ("OCMS", False, helpers.all_partitions_brute, BELL),
    "OCM": ("OCM", False, brute_filtered(lambda p: all(len(b) >= 2 for b in p)), NO_SINGLETON),
    "OC": ("OC", False, helpers.pair_partitions_brute, MATCHINGS),
    "OCS": ("OCS", False, brute_filtered(lambda p: all(len(b) <= 2 for b in p)), INVOLUTIONS),
    "OCMS-rc0": ("OCMS", True, helpers.noncrossing_partitions_brute, CATALAN),
}


@pytest.mark.parametrize("letters, noncrossing, brute, counts", WALK_FAMILIES.values(), ids=list(WALK_FAMILIES))
def test_walk_families_match_brute(letters, noncrossing, brute, counts):
    # set partitions, no singletons, matchings, pairs and singletons, and the
    # noncrossing rows: each row once, in canonical form, and no other
    for n in range(9):
        got = [blocks for _, rc, _, blocks in _walk(n, (letters,) * n) if not (noncrossing and rc)]
        assert len(got) == len(set(got)) == counts[n], n
        assert set(got) == set(brute(n)), n


def listing_rows(n, min_block_size=1, pairs=False):
    """The rows of the ``diagfock partitions`` listing of [n], class by class."""
    return [canon(p) for rows in _diagonal_classes(n, min_block_size, pairs) for p, _, _ in rows]


def test_set_partition_counts_and_enumeration():
    for n in range(9):
        got = listing_rows(n)
        assert len(got) == len(set(got)) == BELL[n]
        assert set(got) == set(helpers.all_partitions_brute(n))


def test_min_block_size_two_counts():
    for n in range(9):
        got = listing_rows(n, 2)
        assert len(got) == len(set(got)) == NO_SINGLETON[n]
        assert all(len(b) >= 2 for p in got for b in p)


def test_pair_partition_counts_match_brute():
    # the matchings, classed by opener set
    for n in range(9):
        got = listing_rows(n, pairs=True)
        assert len(got) == len(set(got)) == MATCHINGS[n]
        assert set(got) == set(helpers.pair_partitions_brute(n))


@pytest.mark.parametrize("m", [3, 4])
def test_min_block_size_matches_brute_filter(m):
    # the walk's rows without singletons, filtered by block size
    for n in range(9):
        got = listing_rows(n, m)
        brute = [p for p in helpers.all_partitions_brute(n) if all(len(b) >= m for b in p)]
        assert len(got) == len(set(got)) == len(brute)
        assert set(got) == set(brute)


def test_crossing_nesting_hand_examples():
    p = SetPartition(4, [(1, 3), (2, 4)])
    assert p.crossings() == 1 and p.nestings() == 0
    p = SetPartition(4, [(1, 4), (2, 3)])
    assert p.crossings() == 0 and p.nestings() == 1
    p = SetPartition(4, [(1, 2), (3, 4)])
    assert p.crossings() == 0 and p.nestings() == 0


def test_singleton_statistics_hand_examples():
    p = SetPartition(5, [(1, 4), (2,), (3, 5)])
    assert p.crossings() == 1
    assert p.nestings() == 0
    assert p.covered_singletons() == 1  # 2 sits under the arc (1,4)
    assert p.singletons_after_pairs() == 0
    p = SetPartition(3, [(1, 2), (3,)])
    assert p.covered_singletons() == 0
    assert p.singletons_after_pairs() == 1
    p = SetPartition(4, [(1,), (2, 3), (4,)])
    # singleton 1 precedes the pair, singleton 4 follows it
    assert p.covered_singletons() == 0
    assert p.singletons_after_pairs() == 1


def test_matching_statistics_match_brute():
    for n in (2, 4, 6):
        for p in (SetPartition(n, m) for m in helpers.pair_partitions_brute(n)):
            pairs = [tuple(b) for b in p.blocks]
            assert p.crossings() == helpers.crossings_pairs(pairs)
            assert p.nestings() == helpers.nestings_pairs(pairs)
            # each arc pair crosses, nests, or is disjoint-in-order
            k = len(pairs)
            assert p.crossings() + p.nestings() <= k * (k - 1) // 2


def test_restricted_statistics_hand_examples():
    p = SetPartition(5, [(1, 3, 5), (2, 4)])
    assert p.restricted_crossings() == 2
    assert p.restricted_nestings() == 0
    p = SetPartition(3, [(1, 2, 3)])
    # consecutive same-block arcs are never counted
    assert p.restricted_crossings() == 0
    assert p.restricted_nestings() == 0
    p = SetPartition(4, [(1, 4), (2, 3)])
    assert p.restricted_nestings() == 1


def test_restricted_equals_plain_on_matchings():
    for n in (2, 4, 6):
        for p in (SetPartition(n, m) for m in helpers.pair_partitions_brute(n)):
            assert p.restricted_crossings() == p.crossings()
            assert p.restricted_nestings() == p.nestings()


def test_roles_match_brute():
    p = SetPartition(6, [(1, 4, 6), (2, 3), (5,)])
    assert p.roles() == ("O", "O", "C", "M", "S", "C")
    for n in range(1, 6):
        for blocks in helpers.all_partitions_brute(n):
            assert SetPartition(n, blocks).roles() == helpers.roles_brute(blocks, n)


def test_diagonal_requires_equal_roles():
    top = SetPartition(4, [(1, 2), (3, 4)])
    bar = SetPartition(4, [(1, 2), (3, 4)])
    DiagonalPartition(top, bar)  # fine
    with pytest.raises(ValueError):
        DiagonalPartition(top, SetPartition(4, [(1, 4), (2, 3)]))


def test_role_vectors_equal_iff_literal_conditions():
    # same openers of larger blocks, same arc left endpoints, same singletons
    for n in range(1, 6):
        ps = [SetPartition(n, blocks) for blocks in helpers.all_partitions_brute(n)]
        for a in ps:
            for b in ps:
                assert (a.roles() == b.roles()) == helpers.satisfies_diagonal_conditions(a, b)


def brute_diagonal_count(n: int) -> int:
    ps = [SetPartition(n, blocks) for blocks in helpers.all_partitions_brute(n)]
    return sum(1 for a in ps for b in ps if a.roles() == b.roles())


def test_diagonal_partition_counts():
    # frozen from the brute double loop over role vectors
    frozen = {1: 1, 2: 2, 3: 5, 4: 17, 5: 78, 6: 461}
    for n, expect in frozen.items():
        assert brute_diagonal_count(n) == expect
        assert len(list(diagonal_partitions(n))) == expect


def test_diagonal_pair_counts_are_euler_numbers():
    euler = {0: 1, 2: 1, 4: 5, 6: 61, 8: 1385, 10: 50521, 12: 2702765, 14: 199360981}
    for n, expect in euler.items():
        count = count_diagonal_pair_partitions(n)
        assert count == expect and type(count) is int
    assert all(count_diagonal_pair_partitions(n) == 0 for n in (1, 3, 5, 13))
    for n in (2, 4, 6, 8):
        # the classes of the pair listing, each paired with itself
        classes = _diagonal_classes(n, pairs=True)
        assert sum(len(rows) ** 2 for rows in classes) == euler[n]
        assert all(len(b) == 2 for rows in classes for p, _, _ in rows for b in p.blocks)


def test_diagonal_pair_partitions_match_filtered_diagonals():
    for n in (2, 4, 6):
        via_pairs = {
            (canon(top), canon(bar)) for rows in _diagonal_classes(n, pairs=True) for top, _, _ in rows for bar, _, _ in rows
        }
        via_filter = {
            (canon(dp.top), canon(dp.bar))
            for dp in diagonal_partitions(n)
            if all(len(b) == 2 for b in dp.top.blocks)
        }
        assert via_pairs == via_filter


def test_weight_exponents_examples():
    top = SetPartition(5, [(1, 3, 5), (2, 4)])
    dp = DiagonalPartition(top, top)
    assert dp.weight_exponents() == (2, 0, 2, 0)
    nested = SetPartition(4, [(1, 4), (2, 3)])
    dp = DiagonalPartition(nested, nested)
    assert dp.weight_exponents() == (0, 1, 0, 1)


def test_conjugate_blocks_pairing():
    top = SetPartition(4, [(1, 2), (3, 4)])
    bar = SetPartition(4, [(1, 2), (3, 4)])
    dp = DiagonalPartition(top, bar)
    pairs = dp.conjugate_blocks()
    assert [(a[0], b[0]) for a, b in pairs] == [(1, 1), (3, 3)]


def test_conjugate_block_sizes_can_differ():
    # blocks of size >= 3 only share openers, closers and middles pointwise
    # by role, not by content, so paired blocks may have different members
    top = SetPartition(5, [(1, 3, 5), (2, 4)])
    ok = False
    for dp in diagonal_partitions(5):
        if canon(dp.top) == canon(top) and canon(dp.bar) != canon(top):
            ok = True
    assert ok


def test_render_partition():
    # blocks by least element, elements ascending, whatever order they came in
    for blocks, text in [([(2, 4), (1, 3)], "1 3 | 2 4"), ([(3,), (2,), (1,)], "1 | 2 | 3"), ([(3, 1, 2)], "1 2 3")]:
        assert render_partition(SetPartition(max(map(max, blocks)), blocks)) == text


def test_kernel_partition():
    p = helpers.kernel_partition(["a", "b", "a", "c", "b"])
    assert canon(p) == ((1, 3), (2, 5), (4,))


def test_profiles_cache_consistency():
    for n in (1, 2, 3, 4):
        profiles = diagonal_partition_profiles(n)
        listed = list(diagonal_partitions(n))
        assert len(profiles) == len(listed)
        for (sizes, exps), dp in zip(profiles, listed):
            assert sizes == tuple(len(b) for b in dp.top.blocks)
            assert exps == dp.weight_exponents()


KERNEL_POINTS = [
    DeformationParams.from_rationals(Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 4)),
    DeformationParams.from_rationals(Fraction(-1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(1)),
    DeformationParams.symbolic(),
    # a weight that vanishes: no crossing on the top row, no nesting on the bar row
    DeformationParams.from_rationals(Fraction(0), Fraction(2, 3), Fraction(1, 3), Fraction(0)),
    # no nesting on the top row, no crossing on the bar row
    DeformationParams.from_rationals(Fraction(1, 2), Fraction(0), Fraction(0), Fraction(3, 4)),
]
KERNEL_IDS = ["rational-a", "rational-b", "symbolic", "q-w-zero", "t-v-zero"]


def enumerated_class_sums(n, params, top, bar):
    """The literal diagonal sum, grouped by role class: every (top, bar) pair
    of the enumeration weighted by its monomial times top * bar values over
    conjugate blocks."""
    out = {}
    for dp in diagonal_partitions(n):
        term = params.monomial(*dp.weight_exponents())
        for top_block, bar_block in dp.conjugate_blocks():
            term = term * top(top_block) * bar(bar_block)
        roles = dp.top.roles()
        out[roles] = out.get(roles, Fraction(0)) + term
    return out


def rand_block_values(r, n):
    """A rational for every block of [n]; about a third of them are 0."""
    blocks = (b for size in range(1, n + 1) for b in itertools.combinations(range(1, n + 1), size))
    return {b: Fraction(0) if r.random() < 0.25 else helpers.rand_frac(r) for b in blocks}


def block_role_sums(n, a, b, value, roles="OCMS"):
    """{R: T(R)} by the role-word pass over [n], each open block its own
    chain, keyed by the role vector."""
    sums = helpers.kernel_values(role_sums(
        [roles] * n,
        a,
        b,
        lambda i: value((i + 1,)),
        lambda i: (i + 1,),
        lambda block, i: value(block + (i + 1,)),
        lambda block, i: block + (i + 1,),
    ))
    return {tuple(role for role, _ in word): total for word, total in sums.items()}


@pytest.mark.parametrize("params", KERNEL_POINTS, ids=KERNEL_IDS)
def test_kernel_matches_diagonal_enumeration(params):
    r = helpers.rng(31)
    for n in range(7):
        top, bar = rand_block_values(r, n), rand_block_values(r, n)
        for bar_value in (bar.__getitem__, lambda block: 1):
            expect = helpers.brute_class_sums(n, params, top.__getitem__, bar_value)
            enumerated = enumerated_class_sums(n, params, top.__getitem__, bar_value)
            assert all(enumerated.get(roles, 0) == total for roles, total in expect.items())
            top_sums = block_role_sums(n, params.q, params.t, top.__getitem__)
            bar_sums = block_role_sums(n, params.v, params.w, bar_value)
            for roles in set(expect) | set(top_sums):
                got = top_sums.get(roles, 0) * bar_sums.get(roles, 0)
                assert got == expect.get(roles, 0), (n, roles)
            # a zero class is left out
            assert all(total != 0 for total in top_sums.values())


@pytest.mark.parametrize("roles", ["OC", "OCS", "OCM"])
def test_role_sums_over_pruned_alphabets_keep_their_classes(roles):
    # the pass over a smaller alphabet gives the same T(R) as the full one
    # on the role vectors it spells, and no other
    r = helpers.rng(32)
    params = KERNEL_POINTS[0]
    for n in range(7):
        value = rand_block_values(r, n).__getitem__
        full = block_role_sums(n, params.q, params.t, value)
        pruned = block_role_sums(n, params.q, params.t, value, roles)
        assert pruned == {R: t for R, t in full.items() if set(R) <= set(roles)}, n


def test_role_sums_of_no_points_and_one_point():
    # [0] has one row, the empty one, in the ring of the weights
    sym = DeformationParams.symbolic()
    assert block_role_sums(0, sym.q, sym.t, lambda block: 5) == {(): 1}
    assert type(block_role_sums(0, sym.q, sym.t, lambda block: 5)[()]) is type(sym.q)
    assert block_role_sums(0, Fraction(1, 2), Fraction(1, 3), lambda block: 5) == {(): Fraction(1)}
    assert block_role_sums(1, sym.q, sym.t, lambda block: 5) == {("S",): 5}
    assert block_role_sums(1, sym.q, sym.t, lambda block: 0) == {}


@pytest.mark.parametrize("params", KERNEL_POINTS, ids=KERNEL_IDS)
def test_unit_bar_sum_is_the_bar_class_sum(params):
    for n in range(8):
        bar = block_role_sums(n, params.v, params.w, lambda block: 1)
        for roles, expect in bar.items():
            assert unit_bar_sum(roles, params.v, params.w) == expect, roles
    with pytest.raises(ResourceLimitError):
        unit_bar_sum(("S",) * (MAX_DIAGONAL_N + 1), params.v, params.w)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_partition_count_is_the_length_of_the_listing(m):
    for n in range(9):
        assert count_diagonal_partitions(n, m) == sum(1 for _ in diagonal_partitions(n, m)), n
    assert count_diagonal_partitions(0, m) == 1


def block_arc_sums(n, params, value, graded=False):
    """The open-arc DP over the one word 1 2 ... n, each open block its own
    chain: every diagonal sum of [1], ..., [n] with top value ``value`` and
    bar value 1 (the empty word's left out)."""
    return list(
        helpers.kernel_values(arc_sums(
            [(p,) for p in range(1, n + 1)],
            params,
            lambda p: value((p,)),
            lambda p: (p,),
            lambda block, p: value(block + (p,)),
            lambda block, p: block + (p,),
            graded=graded,
        )).values()
    )[1:]


def brute_row_sums(n, params, value):
    """The same sum without the walk: brute set partitions of [n] with
    pairwise arc counts, T(R) over top rows times B(R) over bar rows, and
    T(R) also split by block count."""
    top, bar, graded = {}, {}, {}
    for blocks in helpers.all_partitions_brute(n):
        row = SetPartition(n, blocks)
        roles = helpers.roles_brute(blocks, n)
        rc, rn = row.restricted_crossings(), row.restricted_nestings()
        term = params.q**rc * params.t**rn
        for block in blocks:
            term = term * value(block)
        top[roles] = top.get(roles, 0) + term
        bar[roles] = bar.get(roles, 0) + params.v**rc * params.w**rn
    for roles, t in top.items():
        count = roles.count(ROLE_OPENER) + roles.count(ROLE_SINGLETON)
        graded[count] = graded.get(count, 0) + t * bar[roles]
    return sum(graded.values(), Fraction(0)), graded


def rand_points(r, count):
    return [DeformationParams.from_rationals(*(helpers.rand_frac(r) for _ in range(4))) for _ in range(count)]


@pytest.mark.parametrize("symbolic", [False, True], ids=["rational", "symbolic"])
def test_arc_sums_match_enumeration_and_row_table(symbolic):
    # the DP against the brute table of rows, and against the literal sum
    # over diagonal pairs of the oracle in helpers
    r = helpers.rng(37)
    points, nmax = ([DeformationParams.symbolic()], 6) if symbolic else (rand_points(r, 5), 8)
    for params in points:
        value = rand_block_values(r, nmax).__getitem__
        sums = block_arc_sums(nmax, params, value)
        by_blocks = block_arc_sums(nmax, params, value, graded=True)
        assert len(sums) == len(by_blocks) == nmax
        for n in range(1, nmax + 1):
            expect, expect_graded = brute_row_sums(n, params, value)
            assert sums[n - 1] == expect, n
            assert {k: v for k, v in by_blocks[n - 1].items() if v != 0} == {
                k: v for k, v in expect_graded.items() if v != 0
            }
            if n <= 6:
                literal = helpers.brute_class_sums(n, params, value, lambda block: 1)
                assert expect == sum(literal.values(), Fraction(0))


def pair_arc_sums(n, params, grown=0):
    """The DP with no singletons: chain 1 is an open pair, which closes to 1
    (r_2 = 1); chain 2 a block grown past a pair, which closes to ``grown``
    (r_k for k >= 3): m_1, ..., m_n, each a Fraction at a rational point and
    a Poly at the symbolic point, after checking that the pass ran on
    cleared sums (ints, or Polys of denominator 1)."""
    sums, scale = arc_sums([(0,)] * n, params, lambda a: 0, lambda a: 1, lambda chain, a: 1 if chain == 1 else grown,
                           lambda chain, a: 2)
    assert all(type(x) is int or type(x) is Poly and x.denominator == 1 for x in sums.values())
    return list(_read(sums, scale).values())[1:]


# a Fraction point with denominators on both rows; q = 0, a zero summand of
# each [k]_{q,t}; v = -w, a zero bar factor [2]_{v,w}; an int point and the
# equal Fraction point in both orders (a step weight once kept the type of
# whichever came first); and the symbolic point, to fewer moments
MOMENT_POINTS = [
    (DeformationParams.from_rationals(Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3), Fraction(3, 4)), 20),
    (DeformationParams.from_rationals(0, Fraction(3, 5), Fraction(1, 3), Fraction(2, 5)), 20),
    (DeformationParams.from_rationals(Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(2, 3)), 20),
    (DeformationParams(2, 1, -1, 1), 20),
    (DeformationParams.from_rationals(2, 1, -1, 1), 20),
    (DeformationParams(2, 1, -1, 1), 20),
    (DeformationParams.symbolic(), 10),
]


def typed(xs):
    return [(type(x), x) for x in xs]


def test_arc_sums_of_pairs_are_the_hermite_moments_to_twenty():
    for params, n in MOMENT_POINTS:
        assert typed(pair_arc_sums(n, params)) == typed(moments_from_jacobi(jacobi_hermite(params, n // 2 + 1), n))


def test_arc_sums_of_blocks_are_the_centred_poisson_moments_to_twenty():
    # every block of two or more points valued 1 (r_1 = 0, r_k = 1 for k >= 2)
    for params, n in MOMENT_POINTS:
        assert typed(pair_arc_sums(n, params, 1)) == typed(moments_from_jacobi(jacobi_poisson(params, n // 2 + 1), n))


def test_arc_sums_drop_a_weight_that_the_bar_factor_zeroes():
    # at v = -w, [2]_{v,w} = 0: no arc of two open ones ends, so a word whose
    # third point must end one has no state and is left out, and so are its
    # extensions; a zero weight kept would keep the dead state alive
    letters = [("open",), ("open",), ("close",), ("close",)]
    callbacks = (lambda a: 0, lambda a: 1 if a == "open" else None, lambda chain, a: int(a == "close"),
                 lambda chain, a: None)
    for params, words in [(DeformationParams.from_rationals(Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(2, 3)), 3),
                          (DeformationParams.from_rationals(Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)), 5)]:
        sums, _ = arc_sums(letters, params, *callbacks)
        assert [len(word) for word in sums] == list(range(words))


def test_arc_sums_of_pairs_at_one_are_the_sech_moments_to_twenty():
    got = pair_arc_sums(20, DeformationParams.from_rationals(1, 1, 1, 1))
    assert got == moments_from_jacobi(jacobi_sech(11), 20)
    assert got[1:8:2] == [1, 5, 61, 1385] and not any(got[0::2])


def test_arc_sums_at_the_free_point_run_over_noncrossing_partitions():
    r = helpers.rng(38)
    free = DeformationParams.from_rationals(0, 1, 0, 1)
    value = rand_block_values(r, 8).__getitem__
    sums = block_arc_sums(8, free, value)
    for n in range(1, 9):
        expect = Fraction(0)
        for row in helpers.noncrossing_partitions_brute(n):
            term = Fraction(1)
            for block in row:
                term *= value(block)
            expect += term
        assert sums[n - 1] == expect, n


def test_arc_sums_of_no_points_and_bad_sizes():
    params = DeformationParams.from_rationals(Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), Fraction(3, 4))
    assert pair_arc_sums(0, params) == []
    # a list of alphabets has no negative length: the functionals' guard refuses one
    for functional in (moment_functional, cumulant_functional):
        with pytest.raises(ValueError):
            functional({}, 1, params, -1)


@functools.lru_cache(maxsize=None)
def brute_weights(n, params):
    """(blocks, q^rc t^rn times the bar sum of its role class) of every brute
    set partition of [n], with pairwise arc counts."""
    rows, bar = [], {}
    for blocks in helpers.all_partitions_brute(n):
        row, roles = SetPartition(n, blocks), helpers.roles_brute(blocks, n)
        rc, rn = row.restricted_crossings(), row.restricted_nestings()
        rows.append((blocks, params.q**rc * params.t**rn, roles))
        bar[roles] = bar.get(roles, 0) + params.v**rc * params.w**rn
    return [(blocks, weight * bar[roles]) for blocks, weight, roles in rows]


def brute_word_sum(word, params, value):
    """The diagonal sum over the positions of ``word`` with bar value 1 and
    top value ``value`` of each block's subword, by brute set partitions."""
    total = Fraction(0)
    for blocks, term in brute_weights(len(word), params):
        for block in blocks:
            term = term * value(tuple(word[i - 1] for i in block))
        total = total + term
    return total


def word_arc_sums(letters, params, value):
    """The DP over the words of ``letters``, a chain being the open subword."""
    return helpers.kernel_values(arc_sums(
        letters,
        params,
        lambda a: value((a,)),
        lambda a: (a,),
        lambda sub, a: value(sub + (a,)),
        lambda sub, a: sub + (a,),
    ))


@pytest.mark.parametrize("k", [2, 3])
def test_trie_pass_equals_single_word_passes_and_enumeration(k):
    r = helpers.rng(39 + k)
    words = [w for n in range(7) for w in itertools.product(range(k), repeat=n)]
    points = rand_points(r, 2 if k == 2 else 1)
    for params in points:
        psi = {w: Fraction(0) if r.random() < 0.25 else helpers.rand_frac(r) for w in words if w}
        trie = word_arc_sums([range(k)] * 6, params, psi.__getitem__)
        assert list(trie) == words
        for word in words:
            single = word_arc_sums([(u,) for u in word], params, psi.__getitem__)
            assert list(single) == [word[:m] for m in range(len(word) + 1)]
            assert trie[word] == single[word] == brute_word_sum(word, params, psi.__getitem__), word


def test_arc_sums_run_on_ints_at_a_rational_point():
    # the data cleared by one int scale D per point and passed as the scale:
    # every sum is an int, and the scale returned, a multiple of D, reads
    # the sums the pass on the Fractions themselves gives
    r = helpers.rng(42)
    params = rand_points(r, 1)[0]
    words = [w for n in range(6) for w in itertools.product(range(2), repeat=n)]
    psi = {w: helpers.rand_frac(r) for w in words if w}
    scale = math.lcm(*(x.denominator for x in psi.values()))
    cleared = {w: int(x * scale ** len(w)) for w, x in psi.items()}
    sums, out = arc_sums(
        [range(2)] * 5,
        params,
        lambda a: cleared[(a,)],
        lambda a: (a,),
        lambda sub, a: cleared[sub + (a,)],
        lambda sub, a: sub + (a,),
        scale=scale,
    )
    assert list(sums) == words and all(type(t) is int for t in sums.values())
    assert type(out) is int and out % scale == 0
    assert helpers.kernel_values((sums, out)) == word_arc_sums([range(2)] * 5, params, psi.__getitem__)


def test_arc_sums_ask_again_for_a_value_not_known_yet():
    # the inverse's use of the level hook: the block over a whole word is
    # not known (None, counted as 0) until the hook has seen its level, and
    # is then known to every later close of its chain; the hook adds it to
    # the word's empty state, and the pass gives the plain pass's sums
    r = helpers.rng(43)
    params = rand_points(r, 1)[0]
    words = [w for n in range(6) for w in itertools.product(range(2), repeat=n)]
    psi = {w: helpers.rand_frac(r) for w in words if w}
    plain = word_arc_sums([range(2)] * 5, params, psi.__getitem__)
    known, levels = {}, []

    def after_level(nodes, scale, zero):
        levels.append(list(nodes))
        for u, states in nodes.items():
            assert all(type(i) is int for key in states for i in key)  # a state is keyed by its open ids alone
            block = psi[u] * scale ** len(u)
            assert (states.get((), zero) + block) / scale ** len(u) == plain[u]
            known[u] = psi[u]
            states[()] = states.get((), zero) + block

    result = arc_sums([range(2)] * 5, params, lambda a: known.get((a,)), lambda a: (a,),
                      lambda sub, a: known.get(sub + (a,)), lambda sub, a: sub + (a,), after_level=after_level)
    assert levels == [[w for w in words if len(w) == n] for n in range(1, 6)]
    assert helpers.kernel_values(result) == plain


def test_walk_rows_equal_checked_partitions():
    for n in range(9):
        for _, _, _, blocks in itertools.chain(*(_walk(n, (letters,) * n) for letters in ("OCMS", "OC", "OCS"))):
            row = SetPartition._canonical(n, blocks)
            checked = SetPartition(n, [list(reversed(b)) for b in reversed(row.blocks)])
            assert row == checked and hash(row) == hash(checked) and row.blocks == checked.blocks


def test_walk_counts_and_roles_match_brute():
    # the walk's per-step crossing and nesting increments against the
    # pairwise arc comparison of SetPartition and of helpers, and its roles
    for n in range(9):
        rows = list(_walk(n, ("OCMS",) * n))
        assert len(rows) == len(helpers.all_partitions_brute(n))
        for roles, rc, rn, blocks in rows:
            p = SetPartition(n, blocks)
            assert (rc, rn) == (p.restricted_crossings(), p.restricted_nestings()), blocks
            if n <= 7:
                assert (rc, rn) == helpers.restricted_counts_brute(blocks), blocks
            assert roles == helpers.roles_brute(blocks, n)


def test_word_rows_match_injections():
    # annihilators open an arc, creators close one or stand alone
    for n in range(8):
        for kinds in itertools.product("ac", repeat=n):
            letters = ["O" if k == "a" else "CS" for k in kinds]
            rows = list(_walk(n, letters))
            brute = helpers.word_rows_brute(kinds)
            assert sorted(blocks for _, _, _, blocks in rows) == sorted(brute), kinds
            for roles, rc, rn, blocks in rows:
                pairs = [b for b in blocks if len(b) == 2]
                assert (rc, rn) == (helpers.crossings_pairs(pairs), helpers.nestings_pairs(pairs))
                assert roles == helpers.roles_brute(blocks, n)


def test_resource_guards():
    with pytest.raises(ResourceLimitError):
        list(diagonal_partitions(99))
    with pytest.raises(ResourceLimitError):
        count_diagonal_partitions(MAX_DIAGONAL_N + 1)
    # the Euler count is a sech moment, priced by a continued fraction, not an enumeration
    assert count_diagonal_pair_partitions(16) == 19391512145
    assert count_diagonal_pair_partitions(64) == moments_from_jacobi(jacobi_sech(33), 64)[-1]
    with pytest.raises(ResourceLimitError):
        count_diagonal_pair_partitions(MAX_FAMILY_NMAX + 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(diagonal_partitions(-1)),
        lambda: list(diagonal_partitions(-1, 2)),
        lambda: list(diagonal_partitions(-1, 3)),
        lambda: diagonal_partition_profiles(-1),
        lambda: count_diagonal_partitions(-1),
        lambda: count_diagonal_partitions(-1, 2),
        lambda: count_diagonal_partitions(-1, 3),
        lambda: count_diagonal_pair_partitions(-1),
        lambda: count_diagonal_pair_partitions(-2),
    ],
)
def test_negative_sizes_are_bad_input(call):
    with pytest.raises(ValueError):
        call()


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_arc_and_role_invariants(values):
    p = helpers.kernel_partition(values)
    n = p.n
    arcs = p.arcs()
    assert len(arcs) == n - len(p.blocks)
    roles = p.roles()
    assert roles.count("O") == len([b for b in p.blocks if len(b) >= 2])
    assert roles.count("S") == len(p.singletons())
    for left, right, _ in arcs:
        assert left < right
