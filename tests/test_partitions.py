import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from diagfock.partitions import (
    MAX_DIAGONAL_N,
    DiagonalPartition,
    SetPartition,
    class_sums,
    count_diagonal_pair_partitions,
    diagonal_pair_partitions,
    diagonal_partition_profiles,
    diagonal_partitions,
    diagonal_sum,
    kernel_partition,
    noncrossing_partitions,
    pair_partitions,
    pairs_and_singletons_partitions,
    parse_partition,
    ps12_diagonal_partitions,
    render_partition,
    row_table,
    satisfies_diagonal_conditions,
    set_partitions,
)
from diagfock.scalars import DeformationParams, ResourceLimitError

BELL = [1, 1, 2, 5, 15, 52, 203, 877]
NO_SINGLETON = [1, 0, 1, 1, 4, 11, 41, 162]
INVOLUTIONS = [1, 1, 2, 4, 10, 26, 76, 232]
CATALAN = [1, 1, 2, 5, 14, 42, 132]


def canon(p: SetPartition):
    return tuple(tuple(b) for b in p.blocks)


def test_set_partition_counts_and_enumeration():
    for n in range(7):
        got = [canon(p) for p in set_partitions(n)]
        assert len(got) == BELL[n]
        assert len(set(got)) == BELL[n]
        if n <= 5:
            assert set(got) == set(helpers.all_partitions_brute(n))


def test_min_block_size_two_counts():
    for n in range(7):
        got = list(set_partitions(n, min_block_size=2))
        assert len(got) == NO_SINGLETON[n]
        assert all(min(p.block_sizes()) >= 2 for p in got if p.blocks)


def test_pair_partition_counts_match_brute():
    for n in range(0, 9):
        got = [canon(p) for p in pair_partitions(n)]
        brute = helpers.pair_partitions_brute(n)
        assert len(got) == len(brute)
        assert set(got) == {tuple(m) for m in brute}


def test_pairs_and_singletons_counts():
    for n in range(7):
        got = list(pairs_and_singletons_partitions(n))
        assert len(got) == INVOLUTIONS[n]
        assert all(max(p.block_sizes(), default=1) <= 2 for p in got)


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
        for p in pair_partitions(n):
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
        for p in pair_partitions(n):
            assert p.restricted_crossings() == p.crossings()
            assert p.restricted_nestings() == p.nestings()


def test_roles_match_brute():
    p = SetPartition(6, [(1, 4, 6), (2, 3), (5,)])
    assert p.roles() == ("O", "O", "C", "M", "S", "C")
    for n in range(1, 6):
        for sp in set_partitions(n):
            assert sp.roles() == helpers.roles_brute(sp.blocks, n)


def test_diagonal_requires_equal_roles():
    top = SetPartition(4, [(1, 2), (3, 4)])
    bar = SetPartition(4, [(1, 2), (3, 4)])
    DiagonalPartition(top, bar)  # fine
    with pytest.raises(ValueError):
        DiagonalPartition(top, SetPartition(4, [(1, 4), (2, 3)]))


def test_role_vectors_equal_iff_literal_conditions():
    # same openers of larger blocks, same arc left endpoints, same singletons
    for n in range(1, 6):
        ps = list(set_partitions(n))
        for a in ps:
            for b in ps:
                assert (a.roles() == b.roles()) == satisfies_diagonal_conditions(a, b)


def brute_diagonal_count(n: int) -> int:
    ps = list(set_partitions(n))
    return sum(1 for a in ps for b in ps if a.roles() == b.roles())


def test_diagonal_partition_counts():
    # frozen from the brute double loop over role vectors
    frozen = {1: 1, 2: 2, 3: 5, 4: 17, 5: 78, 6: 461}
    for n, expect in frozen.items():
        assert brute_diagonal_count(n) == expect
        assert len(list(diagonal_partitions(n))) == expect


def test_diagonal_pair_counts_are_euler_numbers():
    euler = {2: 1, 4: 5, 6: 61, 8: 1385, 10: 50521}
    for n, expect in euler.items():
        assert count_diagonal_pair_partitions(n) == expect
    for n in (2, 4, 6, 8):
        listed = list(diagonal_pair_partitions(n))
        assert len(listed) == euler[n]
        assert all(dp.top.is_pair_partition() for dp in listed)


def test_diagonal_pair_partitions_match_filtered_diagonals():
    for n in (2, 4, 6):
        via_pairs = {(canon(dp.top), canon(dp.bar)) for dp in diagonal_pair_partitions(n)}
        via_filter = {
            (canon(dp.top), canon(dp.bar))
            for dp in diagonal_partitions(n)
            if dp.top.is_pair_partition()
        }
        assert via_pairs == via_filter


def test_ps12_counts_and_rule():
    def brute(n):
        ps = list(pairs_and_singletons_partitions(n))
        cnt = 0
        for a in ps:
            for b in ps:
                ka = tuple(sorted(x[0] for x in a.pair_blocks()))
                kb = tuple(sorted(x[0] for x in b.pair_blocks()))
                cnt += ka == kb
        return cnt

    for n in range(1, 7):
        got = list(ps12_diagonal_partitions(n))
        assert len(got) == brute(n)
    # singleton positions may genuinely differ across the two rows
    tops_vs_bars = [
        (canon(d.top), canon(d.bar)) for d in ps12_diagonal_partitions(3)
    ]
    assert any(a != b for a, b in tops_vs_bars)


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


def test_parse_render_roundtrip():
    for text in ["1 3 | 2 4", "1 | 2 | 3", "1 2 3"]:
        p = parse_partition(text)
        assert render_partition(p) == text
    p = SetPartition(4, [(2, 4), (1, 3)])
    assert parse_partition(render_partition(p)) == p


def test_kernel_partition():
    p = kernel_partition(["a", "b", "a", "c", "b"])
    assert canon(p) == ((1, 3), (2, 5), (4,))


def test_noncrossing_catalan_and_brute():
    for n in range(1, 7):
        got = [canon(p) for p in noncrossing_partitions(n)]
        assert len(got) == CATALAN[n]
        if n <= 5:
            assert set(got) == set(helpers.noncrossing_partitions_brute(n))


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
]


def brute_class_sums(n, params, top, bar):
    """The literal diagonal sum, grouped by role class: every (top, bar) pair
    weighted by its monomial times top * bar values over conjugate blocks."""
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


@pytest.mark.parametrize("params", KERNEL_POINTS, ids=["rational-a", "rational-b", "symbolic"])
def test_kernel_matches_diagonal_enumeration(params):
    r = helpers.rng(31)
    for n in range(7):
        top, bar = rand_block_values(r, n), rand_block_values(r, n)
        for bar_value, bar_oracle in ((bar.__getitem__, bar.__getitem__), (None, lambda block: 1)):
            expect = brute_class_sums(n, params, top.__getitem__, bar_oracle)
            got = class_sums(n, params, top.__getitem__, bar_value)
            for roles in set(expect) | set(got):
                assert got.get(roles, 0) == expect.get(roles, 0), (n, roles)
            assert diagonal_sum(n, params, top.__getitem__, bar_value) == sum(expect.values(), Fraction(0))


def test_row_table_holds_each_set_partition_once():
    for n in range(7):
        table = row_table(n)
        assert len(table) == BELL[n]
        listed = {p.blocks: p for p in set_partitions(n)}
        assert {blocks for _, _, _, blocks in table} == set(listed)
        for roles, rc, rn, blocks in table:
            p = listed[blocks]
            assert (roles, rc, rn) == (p.roles(), p.restricted_crossings(), p.restricted_nestings())
    assert row_table.cache_info().maxsize == MAX_DIAGONAL_N + 1
    with pytest.raises(ResourceLimitError):
        row_table(MAX_DIAGONAL_N + 1)


def test_resource_guards():
    with pytest.raises(ResourceLimitError):
        list(set_partitions(99))
    with pytest.raises(ResourceLimitError):
        list(diagonal_partitions(99))


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_arc_and_role_invariants(values):
    p = kernel_partition(values)
    n = p.n
    arcs = p.arcs()
    assert len(arcs) == n - len(p.blocks)
    roles = p.roles()
    assert roles.count("O") == len([b for b in p.blocks if len(b) >= 2])
    assert roles.count("S") == len(p.singletons())
    for left, right, _ in arcs:
        assert left < right
