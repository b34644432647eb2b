"""Set partitions, diagonally paired partitions, and their arc statistics.

Ground sets are 1-based: a partition of [n] = {1, ..., n}.  The diagonal
structures pair a partition of the top row [n] with a partition of the bar
row (a second copy of [n]) subject to a compatibility rule that is best
stated through *roles*: each point of a partition is an Opener (least element
of a block of size >= 2), a Closer (greatest element of such a block), a
Middle (interior element), or a Singleton.  A diagonal partition is a pair
(top, bar) whose role vectors coincide pointwise.  This single condition is
equivalent to the usual list of conditions (blocks of size >= 2 start at the
same points, arcs start at the same points, singletons sit at the same
points); the equivalence is exercised by tests through brute enumeration.

Statistics follow the arc picture.  An *arc* of a block {b1 < b2 < ... < bk}
is a consecutive pair (b_i, b_{i+1}).  For partitions into pairs and
singletons the classical crossing/nesting counts apply; for general
partitions the *restricted* counts compare arcs across distinct blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

from .scalars import ResourceLimitError

Block = Tuple[int, ...]

MAX_SET_PARTITION_N = 14
MAX_DIAGONAL_N = 10

ROLE_OPENER = "O"
ROLE_CLOSER = "C"
ROLE_MIDDLE = "M"
ROLE_SINGLETON = "S"


class SetPartition:
    """A partition of [n] into disjoint nonempty blocks (1-based, canonical).

    Blocks are stored sorted internally and ordered by least element, so two
    equal partitions always compare and hash equal.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Sequence[Sequence[int]]):
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen = [x for b in canon for x in b]
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks {blocks!r} do not partition [1..{n}]")
        self.n = n
        self.blocks = canon

    def __eq__(self, other):
        return isinstance(other, SetPartition) and self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return f"SetPartition({self.n}, {self.blocks})"

    def __str__(self):
        return render_partition(self)

    # -- shape ---------------------------------------------------------------

    def block_sizes(self) -> Tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def singletons(self) -> Tuple[int, ...]:
        return tuple(b[0] for b in self.blocks if len(b) == 1)

    def pair_blocks(self) -> Tuple[Block, ...]:
        return tuple(b for b in self.blocks if len(b) == 2)

    def openers(self) -> Tuple[int, ...]:
        """Least elements of blocks of size >= 2, sorted."""
        return tuple(sorted(b[0] for b in self.blocks if len(b) >= 2))

    def is_pair_partition(self) -> bool:
        return all(len(b) == 2 for b in self.blocks)

    def is_pairs_and_singletons(self) -> bool:
        return all(len(b) <= 2 for b in self.blocks)

    def roles(self) -> Tuple[str, ...]:
        """Role of each point 1..n: O / C / M / S."""
        out = [""] * self.n
        for b in self.blocks:
            if len(b) == 1:
                out[b[0] - 1] = ROLE_SINGLETON
            else:
                out[b[0] - 1] = ROLE_OPENER
                out[b[-1] - 1] = ROLE_CLOSER
                for x in b[1:-1]:
                    out[x - 1] = ROLE_MIDDLE
        return tuple(out)

    def arcs(self) -> List[Tuple[int, int, int]]:
        """All arcs as (left, right, block_index), consecutive within a block."""
        out = []
        for bi, b in enumerate(self.blocks):
            for i in range(len(b) - 1):
                out.append((b[i], b[i + 1], bi))
        return out

    # -- statistics on pairs-and-singletons partitions -------------------------

    def _require_ps(self, what: str) -> None:
        if not self.is_pairs_and_singletons():
            raise ValueError(f"{what} is defined for partitions into pairs and singletons")

    def crossings(self) -> int:
        """Number of unordered crossing pairs of pair blocks."""
        self._require_ps("crossings")
        pairs = self.pair_blocks()
        count = 0
        for (a, b), (c, d) in itertools.combinations(pairs, 2):
            if a < c < b < d or c < a < d < b:
                count += 1
        return count

    def nestings(self) -> int:
        """Number of unordered pairs of pair blocks where one sits inside the other."""
        self._require_ps("nestings")
        pairs = self.pair_blocks()
        count = 0
        for (a, b), (c, d) in itertools.combinations(pairs, 2):
            if (a < c and d < b) or (c < a and b < d):
                count += 1
        return count

    def covered_singletons(self) -> int:
        """Number of (singleton s, pair (a, b)) incidences with a < s < b."""
        self._require_ps("covered_singletons")
        count = 0
        for s in self.singletons():
            for a, b in self.pair_blocks():
                if a < s < b:
                    count += 1
        return count

    def singletons_after_pairs(self) -> int:
        """Number of (singleton s, pair W) incidences with s greater than all of W."""
        self._require_ps("singletons_after_pairs")
        count = 0
        for s in self.singletons():
            for a, b in self.pair_blocks():
                if s > b:
                    count += 1
        return count

    # -- restricted statistics on arbitrary partitions --------------------------

    def restricted_crossings(self) -> int:
        """Crossing arc pairs taken from distinct blocks, each pair counted once."""
        arcs = self.arcs()
        count = 0
        for (a, b, i), (c, d, j) in itertools.combinations(arcs, 2):
            if i == j:
                continue
            if a < c < b < d or c < a < d < b:
                count += 1
        return count

    def restricted_nestings(self) -> int:
        """Nested arc pairs from distinct blocks (either orientation), counted once."""
        arcs = self.arcs()
        count = 0
        for (a, b, i), (c, d, j) in itertools.combinations(arcs, 2):
            if i == j:
                continue
            if (a < c and d < b) or (c < a and b < d):
                count += 1
        return count


def kernel_partition(values: Sequence) -> SetPartition:
    """The kernel of a tuple: positions grouped by equal values.

    kernel((5, 2, 5)) partitions [3] into {1,3} | {2}.
    """
    groups: Dict[object, List[int]] = {}
    for pos, val in enumerate(values, start=1):
        groups.setdefault(val, []).append(pos)
    return SetPartition(len(values), list(groups.values()))


# -- text form ----------------------------------------------------------------


def render_partition(p: SetPartition) -> str:
    """Render as '1 3 | 2 4' (blocks by least element, elements ascending)."""
    return " | ".join(" ".join(str(x) for x in b) for b in p.blocks)


def parse_partition(text: str, n: int | None = None) -> SetPartition:
    """Parse '1 3 | 2 4' back into a SetPartition of [n] (n inferred if omitted)."""
    blocks = []
    for chunk in text.split("|"):
        elems = [int(tok) for tok in chunk.split()]
        if elems:
            blocks.append(elems)
    size = max((x for b in blocks for x in b), default=0)
    if n is not None:
        size = n
    return SetPartition(size, blocks)


# -- enumeration ---------------------------------------------------------------


def set_partitions(n: int, min_block_size: int = 1) -> Iterator[SetPartition]:
    """All partitions of [n] with every block of size >= min_block_size.

    Enumeration follows restricted-growth strings, so the order is
    deterministic.  Guarded at n <= 14.
    """
    if n < 0 or n > MAX_SET_PARTITION_N:
        raise ResourceLimitError(f"set partition enumeration guarded at n <= {MAX_SET_PARTITION_N}")
    if n == 0:
        yield SetPartition(0, [])
        return
    if min_block_size > 1:
        yield from _partitions_min_size(n, min_block_size)
        return
    # restricted-growth strings: s[0] = 0, s[i] <= max(s[:i]) + 1
    s = [0] * n
    while True:
        blocks: Dict[int, List[int]] = {}
        for pos, label in enumerate(s, start=1):
            blocks.setdefault(label, []).append(pos)
        yield SetPartition(n, list(blocks.values()))
        i = n - 1
        while i > 0:
            if s[i] <= max(s[:i]):
                s[i] += 1
                for j in range(i + 1, n):
                    s[j] = 0
                break
            i -= 1
        else:
            return


def _partitions_min_size(n: int, min_size: int) -> Iterator[SetPartition]:
    """Partitions with all blocks >= min_size, built block-by-block from the
    least remaining element (avoids the full Bell-number sweep)."""

    def rec(remaining: Tuple[int, ...]) -> Iterator[List[Block]]:
        if not remaining:
            yield []
            return
        head, rest = remaining[0], remaining[1:]
        for k in range(min_size - 1, len(rest) + 1):
            for comb in itertools.combinations(rest, k):
                block = (head,) + comb
                left = tuple(x for x in rest if x not in comb)
                for tail in rec(left):
                    yield [block] + tail

    for blocks in rec(tuple(range(1, n + 1))):
        yield SetPartition(n, blocks)


def pair_partitions(n: int) -> Iterator[SetPartition]:
    """Perfect matchings of [n] (empty for odd n), least-element-first order."""
    if n < 0 or n > MAX_SET_PARTITION_N:
        raise ResourceLimitError(f"pair partition enumeration guarded at n <= {MAX_SET_PARTITION_N}")
    if n % 2:
        return
    if n == 0:
        yield SetPartition(0, [])
        return

    def rec(remaining: Tuple[int, ...]) -> Iterator[List[Block]]:
        if not remaining:
            yield []
            return
        head = remaining[0]
        for idx in range(1, len(remaining)):
            partner = remaining[idx]
            left = remaining[1:idx] + remaining[idx + 1:]
            for tail in rec(left):
                yield [(head, partner)] + tail

    for blocks in rec(tuple(range(1, n + 1))):
        yield SetPartition(n, blocks)


def pairs_and_singletons_partitions(n: int) -> Iterator[SetPartition]:
    """Partitions of [n] with all blocks of size <= 2 (involution shapes)."""
    if n < 0 or n > MAX_SET_PARTITION_N:
        raise ResourceLimitError(f"enumeration guarded at n <= {MAX_SET_PARTITION_N}")

    def rec(remaining: Tuple[int, ...]) -> Iterator[List[Block]]:
        if not remaining:
            yield []
            return
        head, rest = remaining[0], remaining[1:]
        for tail in rec(rest):
            yield [(head,)] + tail
        for idx in range(len(rest)):
            partner = rest[idx]
            left = rest[:idx] + rest[idx + 1:]
            for tail in rec(left):
                yield [(head, partner)] + tail

    for blocks in rec(tuple(range(1, n + 1))):
        yield SetPartition(n, blocks)


# -- diagonal pairing ------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalPartition:
    """A compatible pair (top, bar): equal role vectors (see module docstring).

    Conjugate blocks are matched by shared least element; every block of the
    top row has exactly one conjugate in the bar row.
    """

    top: SetPartition
    bar: SetPartition

    def __post_init__(self):
        if self.top.n != self.bar.n:
            raise ValueError("top and bar must partition the same [n]")
        if self.top.roles() != self.bar.roles():
            raise ValueError("top and bar role vectors differ; not a diagonal partition")

    @property
    def n(self) -> int:
        return self.top.n

    def conjugate_blocks(self) -> List[Tuple[Block, Block]]:
        """Pairs (top block, bar block) sharing their least element."""
        bar_by_min = {b[0]: b for b in self.bar.blocks}
        return [(b, bar_by_min[b[0]]) for b in self.top.blocks]

    def weight_exponents(self) -> Tuple[int, int, int, int]:
        """(rc_top, rnest_top, rc_bar, rnest_bar) for the q t v w weight."""
        return (
            self.top.restricted_crossings(),
            self.top.restricted_nestings(),
            self.bar.restricted_crossings(),
            self.bar.restricted_nestings(),
        )

    def __str__(self):
        return f"{render_partition(self.top)} || {render_partition(self.bar)}"


def satisfies_diagonal_conditions(top: SetPartition, bar: SetPartition) -> bool:
    """Literal transcription of the pairing conditions, used to cross-check
    the role-vector characterization:

      * blocks of size >= 2 start at the same points in both rows,
      * arcs start at the same points in both rows,
      * singletons sit at the same points in both rows.
    """
    if top.n != bar.n:
        return False
    if top.openers() != bar.openers():
        return False
    top_arc_starts = tuple(sorted(a for a, _, _ in top.arcs()))
    bar_arc_starts = tuple(sorted(a for a, _, _ in bar.arcs()))
    if top_arc_starts != bar_arc_starts:
        return False
    return tuple(sorted(top.singletons())) == tuple(sorted(bar.singletons()))


def diagonal_partitions(n: int, min_block_size: int = 1) -> Iterator[DiagonalPartition]:
    """All diagonal partitions of [n] + [n-bar]: pairs with equal role vectors."""
    if n < 0 or n > MAX_DIAGONAL_N:
        raise ResourceLimitError(f"diagonal enumeration guarded at n <= {MAX_DIAGONAL_N}")
    classes: Dict[Tuple[str, ...], List[SetPartition]] = {}
    for p in set_partitions(n, min_block_size):
        classes.setdefault(p.roles(), []).append(p)
    for _, members in sorted(classes.items()):
        for top in members:
            for bar in members:
                yield DiagonalPartition(top, bar)


def diagonal_pair_partitions(n: int) -> Iterator[DiagonalPartition]:
    """Diagonal partitions whose rows are perfect matchings.

    Compatibility for matchings reduces to equal opener sets.
    """
    if n < 0 or n > MAX_DIAGONAL_N:
        raise ResourceLimitError(f"diagonal enumeration guarded at n <= {MAX_DIAGONAL_N}")
    classes: Dict[Tuple[int, ...], List[SetPartition]] = {}
    for p in pair_partitions(n):
        classes.setdefault(p.openers(), []).append(p)
    for _, members in sorted(classes.items()):
        for top in members:
            for bar in members:
                yield DiagonalPartition(top, bar)


def count_diagonal_pair_partitions(n: int) -> int:
    """Number of diagonal pair partitions of [n] + [n-bar].

    Computed as the sum of squared opener-class sizes over matchings of [n];
    avoids materializing the pairs, so n = 10 stays fast.
    """
    if n % 2:
        return 0
    sizes: Dict[Tuple[int, ...], int] = {}
    for p in pair_partitions(n):
        key = p.openers()
        sizes[key] = sizes.get(key, 0) + 1
    return sum(c * c for c in sizes.values())


def ps12_diagonal_partitions(n: int) -> Iterator[DiagonalPartition]:
    """Diagonal pairs-and-singletons partitions under the weaker pairing rule:
    only pair-opener sets must coincide (singleton positions may differ).

    These index intermediate word expansions; note they are generally *not*
    DiagonalPartition instances in the strict role sense, so plain tuples of
    (top, bar) are yielded wrapped in a lightweight holder.
    """
    if n < 0 or n > MAX_DIAGONAL_N:
        raise ResourceLimitError(f"diagonal enumeration guarded at n <= {MAX_DIAGONAL_N}")
    classes: Dict[Tuple[int, ...], List[SetPartition]] = {}
    for p in pairs_and_singletons_partitions(n):
        key = tuple(sorted(b[0] for b in p.pair_blocks()))
        classes.setdefault(key, []).append(p)
    for _, members in sorted(classes.items()):
        for top in members:
            for bar in members:
                yield PSDiagonal(top, bar)


@dataclass(frozen=True)
class PSDiagonal:
    """A pairs-and-singletons top/bar pair with matching pair-opener sets."""

    top: SetPartition
    bar: SetPartition

    def __post_init__(self):
        top_openers = tuple(sorted(b[0] for b in self.top.pair_blocks()))
        bar_openers = tuple(sorted(b[0] for b in self.bar.pair_blocks()))
        if self.top.n != self.bar.n or top_openers != bar_openers:
            raise ValueError("pair-opener sets differ; not a valid pairing")

    @property
    def n(self) -> int:
        return self.top.n

    def __str__(self):
        return f"{render_partition(self.top)} || {render_partition(self.bar)}"


@lru_cache(maxsize=None)
def diagonal_partition_profiles(n: int) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, int, int, int]], ...]:
    """Cached (top block sizes, weight exponents) over all diagonal partitions.

    Block sizes are listed in order of block least elements.  This is the only
    data the one-variable moment/cumulant transforms need, so the partitions
    themselves are not kept.
    """
    out = []
    for dp in diagonal_partitions(n):
        sizes = tuple(len(b) for b in dp.top.blocks)
        out.append((sizes, dp.weight_exponents()))
    return tuple(out)


def noncrossing_partitions(n: int) -> Iterator[SetPartition]:
    """Noncrossing partitions of [n], by filtering the restricted crossing count."""
    for p in set_partitions(n):
        if p.restricted_crossings() == 0:
            yield p
