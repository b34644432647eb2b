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

The rows are enumerated by one open-arc walk (:func:`_walk`, the path
picture of Flajolet's continued fractions).  It places the points 1..n from
left to right and keeps the open arcs, one per unfinished block, in the order
they were opened.  Point p is a Singleton, Opens an arc, or ends the j-th of
the k open arcs and then Closes its block or, as a Middle, reopens it at p
(the new arc is the latest opened).  The k - j arcs opened after arc j start
inside it and end beyond p, so they cross it; the j - 1 opened before it
enclose it.  Ending arc j therefore adds

    k - j restricted crossings and j - 1 restricted nestings,

each pair of arcs being counted when the first of them ends; summed over j
the step weight q^(k-j) t^(j-1) is [k]_{q,t}.  Each point may be limited to
some of the roles: O, C, M and S give all set partitions, O and C the
matchings, and O, C and S the pairs and singletons (the word expansion in
:mod:`diagfock.wick` sums these per role vector, by :func:`role_sums`).
The walk lists rows for display only; the tests hold it against brute
enumerations, and :meth:`SetPartition.restricted_crossings` and
:meth:`SetPartition.restricted_nestings` count its statistics pair by pair.

Every diagonal sum in this package,

    sum over diagonal (top, bar) of q^rc t^rn v^rc' w^rn'
        * prod of top_value over top blocks * prod of bar_value over bar blocks

with (rc, rn) and (rc', rn') the restricted counts of the two rows,
factorises over role classes: weight and block product split into a top and
a bar part, and (top, bar) is diagonal exactly when both rows have the same
role vector R.  So it equals the sum over R of T(R) * B(R), where T(R) sums
q^rc t^rn * prod top_value over the single rows with role vector R and B(R)
likewise with v, w and bar_value.

One open-arc state DP over the trie of a set of words (one letter per
point), :func:`subword_sums`, computes them all: words that share a prefix
share its steps, at the cost of the states, not Bell(n).  A chain (what
values a block once it closes) is the subword of letters its block has
read, so the states and moves depend on the shape alone (the letters and
the roles each may take): it is compiled once and kept, and each call
builds the step weights of its point (a, b, c, d), ending the j-th of k open
arcs weighing a^(k-1-j) b^j [k]_{c,d}, asks for the subwords' values and
replays the moves.  When bar_value is 1, B(R) is the product of [k]_{v,w}
over the steps of R that end one of k open arcs (:func:`unit_bar_sum`), so
the pass at (q, t, v, w) gives the whole sum: so run the functionals (the
one-variable transforms are their one-letter case, and the inverse is one
such pass, read level by level), the Levy word moments, and the Wick sums
with a one-dimensional row, which folds into the other (B(R) is
:func:`unit_bar_sum` of R times each point's scalar in its role).  When
both rows carry block values (the Wick sums with d >= 2 on both rows, the
word expansion), :func:`role_sums` gives T(R) or B(R) for every R by one
pass per row over the role words at (q, t, 1, 0) or (v, w, 1, 0), since
[k]_{1,0} = 1, point p in role r a letter of role r only; the two rows
share one shape.  :func:`count_diagonal_partitions` is the pass at weight 1.

Every pass runs on ints at a rational point, and on Polys of denominator 1
at the symbolic point, by one rule.  A walk of m points multiplies one
factor per point (a step weight at each Closer and Middle, a block value at
each Closer and Singleton, and Openers match Closers).  So a caller clears
its data by one integer scale D per point, a block of j points times D^j
(``scalars._denominator``, ``scalars._cleared``, which read a Poly's
denominator as a Fraction's); :func:`_step_weights` builds the step weights
at the cleared point (E a, E b, F c, F d), E and F the lcms of the
denominators of each pair, and lifts them to one step S_w = (E F)^(K-1), K
the most arcs open at once; the pass puts one more S_w on each block value,
and the sum of every word of m points comes cleared, (S_w D)^m times its
value, divided once at the end (:func:`_read`, by ``scalars._over``).  Every
value read is a Fraction at a rational point and a Poly at the symbolic
point, whatever mix of ints, Fractions and Polys the data hold.

The pairs themselves are listed for display only.  :func:`_diagonal_classes`
groups the rows of one walk by role vector, with the walk's rc and rn of each
row, and a listing pairs the rows of each class: :func:`diagonal_partitions`
and ``diagfock partitions``, whose weights are the two rows' walk counts.
:meth:`DiagonalPartition.weight_exponents` recounts them pair by pair, as
the tests' oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import _guards
from .scalars import _cleared_point, _over, _qt_ladder, qt_number

Block = Tuple[int, ...]
Roles = Tuple[str, ...]

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
        _guards.check_size("the size n of a set partition", n, math.inf)
        for b in blocks:
            if not b or any(isinstance(x, bool) or not isinstance(x, int) for x in b):
                raise ValueError(f"block {b!r} of {blocks!r} must be a nonempty set of int points")
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen = [x for b in canon for x in b]
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks {blocks!r} do not partition [1..{n}]")
        self.n = n
        self.blocks = canon

    @classmethod
    def _canonical(cls, n: int, blocks: Tuple[Block, ...]) -> "SetPartition":
        """A row already in canonical form (each block ascending, blocks by
        least element), as the walk yields them: no re-sort, no re-check."""
        self = object.__new__(cls)
        self.n = n
        self.blocks = blocks
        return self

    def __eq__(self, other):
        return isinstance(other, SetPartition) and self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return f"SetPartition({self.n}, {self.blocks})"

    def __str__(self):
        return render_partition(self)

    # -- shape ---------------------------------------------------------------

    def singletons(self) -> Tuple[int, ...]:
        return tuple(b[0] for b in self.blocks if len(b) == 1)

    def pair_blocks(self) -> Tuple[Block, ...]:
        return tuple(b for b in self.blocks if len(b) == 2)

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
        """Number of unordered crossing pairs of pair blocks (the restricted
        count: each pair block is one arc, singletons have none)."""
        self._require_ps("crossings")
        return self.restricted_crossings()

    def nestings(self) -> int:
        """Number of unordered pairs of pair blocks where one sits inside the other."""
        self._require_ps("nestings")
        return self.restricted_nestings()

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

    def _arc_pairs(self) -> Iterator[Tuple[int, int, int, int]]:
        """Arcs (a, b) and (c, d) of distinct blocks, each pair once."""
        for (a, b, i), (c, d, j) in itertools.combinations(self.arcs(), 2):
            if i != j:
                yield a, b, c, d

    def restricted_crossings(self) -> int:
        """Crossing arc pairs taken from distinct blocks, each pair counted once."""
        return sum(1 for a, b, c, d in self._arc_pairs() if a < c < b < d or c < a < d < b)

    def restricted_nestings(self) -> int:
        """Nested arc pairs from distinct blocks (either orientation), counted once."""
        return sum(1 for a, b, c, d in self._arc_pairs() if (a < c and d < b) or (c < a and b < d))


# -- text form ----------------------------------------------------------------


def render_partition(p: SetPartition) -> str:
    """Render as '1 3 | 2 4' (blocks by least element, elements ascending)."""
    return " | ".join(" ".join(str(x) for x in b) for b in p.blocks)


# -- enumeration ---------------------------------------------------------------


def _walk(n: int, letters: Sequence[str]) -> Iterator[Tuple[Roles, int, int, Tuple[Block, ...]]]:
    """(roles, restricted crossings, restricted nestings, blocks) of every set
    partition of [n] whose point p has a role in ``letters[p - 1]``, by the
    open-arc walk of the module docstring.  Blocks come sorted and ordered by
    least element.  Its one caller, :func:`_diagonal_classes`, reads the
    rows, role vectors and restricted counts of every listing from here;
    the listings guard n."""
    # state: next point, open blocks in arc-opening order, closed blocks, roles so far, rc, rn
    stack = [(1, (), (), (), 0, 0)]
    while stack:
        p, open_, closed, roles, rc, rn = stack.pop()
        if p > n:
            if not open_:
                yield roles, rc, rn, tuple(sorted(closed))
            continue
        # a child may leave open no more arcs than there are points after p
        k, room = len(open_), n - p
        children = []
        for role in letters[p - 1]:
            if role == ROLE_SINGLETON and k <= room:
                children.append((p + 1, open_, closed + ((p,),), roles + (role,), rc, rn))
            elif role == ROLE_OPENER and k < room:
                children.append((p + 1, open_ + ((p,),), closed, roles + (role,), rc, rn))
            elif role == ROLE_CLOSER or (role == ROLE_MIDDLE and k <= room):
                for j in range(k):
                    # arcs opened after arc j cross its new end, those before nest it
                    block, rest = open_[j] + (p,), open_[:j] + open_[j + 1:]
                    if role == ROLE_CLOSER:
                        child = (p + 1, rest, closed + (block,))
                    else:
                        child = (p + 1, rest + (block,), closed)
                    children.append(child + (roles + (role,), rc + k - 1 - j, rn + j))
        stack.extend(reversed(children))


# -- diagonal pairing ------------------------------------------------------------


class _DiagonalPartitionFields(NamedTuple):
    top: SetPartition
    bar: SetPartition


class DiagonalPartition(_DiagonalPartitionFields):
    """A compatible pair (top, bar): equal role vectors (see module docstring).

    Conjugate blocks are matched by shared least element; every block of the
    top row has exactly one conjugate in the bar row.
    """

    __slots__ = ()

    def __new__(cls, top: SetPartition, bar: SetPartition):
        if top.n != bar.n:
            raise ValueError("top and bar must partition the same [n]")
        if top.roles() != bar.roles():
            raise ValueError("top and bar role vectors differ; not a diagonal partition")
        return super().__new__(cls, top, bar)

    @classmethod
    def _make(cls, iterable) -> "DiagonalPartition":
        return cls(*iterable)  # so that _replace checks too

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


def _diagonal_classes(n: int, min_block_size: int = 1, pairs: bool = False) -> List[List[Tuple[SetPartition, int, int]]]:
    """The role classes of the diagonal listings: the rows (row, rc, rn) of
    one walk over [n], every block of at least min_block_size points (or,
    with ``pairs``, the matchings), grouped by role vector (by opener set for
    the matchings, which orders the classes differently), the classes in key
    order and the rows of each in walk order.  (top, bar) is diagonal exactly
    when both rows are in one class, and rc, rn are the walk's restricted
    counts of the row.  Callers guard n first: by MAX_DIAGONAL_N, or by the
    item count of the listing."""
    letters = "OC" if pairs else "OCM" if min_block_size >= 2 else "OCMS"
    classes: Dict[tuple, List[Tuple[SetPartition, int, int]]] = {}
    for roles, rc, rn, blocks in _walk(n, (letters,) * n):
        if min_block_size <= 2 or all(len(b) >= min_block_size for b in blocks):
            key = tuple(p for p, r in enumerate(roles, 1) if r == ROLE_OPENER) if pairs else roles
            classes.setdefault(key, []).append((SetPartition._canonical(n, blocks), rc, rn))
    return [rows for _, rows in sorted(classes.items())]


def diagonal_partitions(n: int, min_block_size: int = 1) -> Iterator[DiagonalPartition]:
    """All diagonal partitions of [n] + [n-bar]: pairs with equal role vectors."""
    _guards.check_size("the size n of a diagonal partition", n, _guards.MAX_DIAGONAL_N)
    _guards.check_size("the least block size m", min_block_size, math.inf, least=-math.inf)
    for rows in _diagonal_classes(n, min_block_size):
        yield from (DiagonalPartition(top, bar) for top, _, _ in rows for bar, _, _ in rows)


def count_diagonal_pair_partitions(n: int) -> int:
    """Number of diagonal pair partitions of [n] + [n-bar]: the Euler number,
    read as the n-th moment of the hyperbolic-secant law.

    An opener class of matchings is a Dyck path, and its matchings number
    the product of k over the closers (k open arcs before each); the two rows
    make that k^2, and the sum over Dyck paths of prod k^2 is the n-th moment
    of the Jacobi data gamma_k = k^2, at the cost of a continued fraction of
    depth n // 2 + 1, not of an enumeration.  Guarded like the sech moments:
    n <= MAX_FAMILY_NMAX.
    """
    _guards.check_size("the size n of a diagonal pair partition", n, _guards.MAX_FAMILY_NMAX)
    if n == 0:
        return 1
    # imported here, so that loading partitions does not load orthopoly
    from .orthopoly import jacobi_sech, moments_from_jacobi

    return int(moments_from_jacobi(jacobi_sech(n // 2 + 1), n)[-1])


def _check_listing(n: int) -> None:
    """Refuse n where the listing would pass MAX_PARTITION_ITEMS items, counted first."""
    _guards.check_size(f"the item count of n = {n}", count_diagonal_partitions(n), _guards.MAX_PARTITION_ITEMS)


# typed, so that 3.0 or True misses the entry of 3 or 1 and is refused
@lru_cache(maxsize=_guards.MAX_DIAGONAL_N + 1, typed=True)
def diagonal_partition_profiles(n: int) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, int, int, int]], ...]:
    """(top block sizes, weight exponents) of every diagonal partition, for
    an n whose listing :func:`_check_listing` admits.  No sum in the package
    reads it; perfbench/tracer.py reads and clears its cache by name."""
    _check_listing(n)
    return tuple((tuple(len(b) for b in dp.top.blocks), dp.weight_exponents()) for dp in diagonal_partitions(n))


# -- the diagonal-sum kernel -------------------------------------------------------


def unit_bar_sum(roles: Roles, v, w):
    """B(R) with bar value 1: the sum of v^rc w^rn over the rows with role
    vector R.  The bar row chooses freely which of the k open arcs each
    Closer or Middle step ends, so B(R) is the product of [k]_{v,w} over
    those steps.  Guarded like the diagonal enumeration."""
    _guards.check_size("the length of a role vector", len(roles), _guards.MAX_DIAGONAL_N)
    bar, k = Fraction(1), 0
    for role in roles:
        if role == ROLE_OPENER:
            k += 1
        elif role != ROLE_SINGLETON:
            bar = bar * qt_number(k, v, w)
            if role == ROLE_CLOSER:
                k -= 1
    return bar


def _read(sums: Dict[tuple, object], scale: int) -> Dict[tuple, object]:
    """The values of a :func:`subword_sums` pass: the sum of a word of m
    points over scale^m, and a dict by block count entrywise."""
    out: Dict[tuple, object] = {}
    for word, total in sums.items():
        d = scale ** len(word)
        out[word] = {k: _over(x, d) for k, x in total.items()} if isinstance(total, dict) else _over(total, d)
    return out


def _step_weights(point: Sequence, n: int):
    """(rows, one, step) of a pass over n points: rows[k - 1][j] is S_w
    times the weight of ending arc j of k open ones (None where it is 0,
    the ring's one as ``one``), and ``step`` = S_w lifts each block value
    (module docstring)."""
    # row k is (E F)^(k-1) times its weights at the cleared point, lifted by
    # (E F)^(K-k); row k + 1 is a times row k followed by b^k
    (a, b, e), (c, d, f) = _cleared_point(*point[:2]), _cleared_point(*point[2:])
    top_k, lift = max(n // 2, 1), e * f
    rows, top, b_pow = [], (), a**0 * b**0
    for k, bar in enumerate(_qt_ladder(c, d, top_k), 1):
        top = tuple(a * x for x in top) + (b_pow,)
        b_pow = b_pow * b
        factor = bar * lift ** (top_k - k)
        # a weight is also 0 where [k]_{c,d} is: a kept 0 would keep dead states alive
        rows.append(tuple(None if x == 0 else x for x in (y * factor for y in top)))
    one = rows[0][0] ** 0  # every walk starts at 1 in the ring of the weights
    return [tuple(one if x == one else x for x in row) for row in rows], one, lift ** (top_k - 1)


# the compiled shapes of subword_sums by (letters, roles, graded), least
# recently used first: at most _MAX_SHAPES of them and _MAX_SHAPE_MOVES moves
_SHAPES: Dict[tuple, tuple] = {}
_MAX_SHAPES, _MAX_SHAPE_MOVES = 32, 1 << 17
_UNSEEN = object()  # a subword value or a move factor not yet asked for
_ShapeInfo = NamedTuple("_ShapeInfo", [("currsize", int), ("maxsize", int), ("moves", int), ("budget", int)])


def _compile(letters, roles, graded: bool, width: int, subwords: List[tuple]) -> Iterator:
    """The moves of :func:`subword_sums` over the trie of ``letters``, node
    by node, None after each level.  A node is (always, parent, word, size,
    empty, moves): the index of its parent in the level before, its state
    count, the index of its empty state (None if none; with ``graded`` the
    (block count, index) of each), and ``always`` if it is kept whenever its
    parent is (at the last point, if its letter may end an arc; any other
    node is kept if it holds a state).  A state is the tuple of the ids of
    its open subwords, with ``graded`` (block count, that tuple).  Each move
    (s, t, f) takes state s of the parent to state t of the node times
    factor f = u width + i: the value of subword u - 1 (``subwords``,
    appended as met; none at u = 0) times weight i (none at i = 0;
    i = k (k - 1) / 2 + j + 1 ends arc j of k)."""
    ids, exts, splits = {}, {}, {}

    def sid(sub) -> int:
        i = ids.setdefault(sub, len(subwords))
        if i == len(subwords):
            subwords.append(sub)
        return i

    level = [((), [(0, ()) if graded else ()])]
    for p, alphabet in enumerate(letters, 1):
        room, nodes = len(letters) - p, []
        allowed = ["OCMS"] * len(alphabet) if roles is None else roles[p - 1]
        kinds = [(a, exts.setdefault(a, {}), sid((a,)), *(x in r for x in "SOCM"))
                 for a, r in zip(alphabet, allowed, strict=True)]
        for parent, (word, states) in enumerate(level):
            for a, ext, u, single, open_, close, middle in kinds:
                index: Dict[tuple, int] = {}
                number, blocks, moves = index.setdefault, 0, []  # number(state, len(index)) numbers each new state
                for s, state in enumerate(states):
                    if graded:
                        blocks, state = state
                    k = len(state)
                    if single and k <= room:
                        moves += s, number((blocks + 1, state) if graded else state, len(index)), (u + 1) * width
                    if open_ and k < room:
                        key = state + (u,)
                        moves += s, number((blocks + 1, key) if graded else key, len(index)), 0
                    if not (k and (close or middle)):
                        continue
                    split = splits.get(state)
                    if split is None:  # (weight index, chain, the other chains) of ending each arc
                        split = splits[state] = [(k * (k - 1) // 2 + j + 1, c, state[:j] + state[j + 1:]) for j, c in enumerate(state)]
                    for i, c, rest in split:
                        grown = ext.get(c)
                        if grown is None:
                            grown = ext[c] = sid(subwords[c] + (a,))
                        if close:
                            moves += s, number((blocks, rest) if graded else rest, len(index)), (grown + 1) * width + i
                        if middle and k <= room:
                            key = rest + (grown,)
                            moves += s, number((blocks, key) if graded else key, len(index)), i
                always = not room and (close or middle)
                if index or always:
                    empty = tuple((key[0], t) for key, t in index.items() if not key[1]) if graded else index.get(())
                    nodes.append((word + (a,), list(index)))
                    yield always, parent, nodes[-1][0], len(index), empty, moves
        yield None
        level = nodes


def subword_sums(
    letters: Sequence[Sequence],
    point: Sequence,
    value: Callable[[tuple], object],
    roles: Optional[Sequence[Sequence[str]]] = None,
    graded: bool = False,
    scale: int = 1,
    after_level: Optional[Callable[[Dict[tuple, object], int, object], None]] = None,
) -> Tuple[Dict[tuple, object], int]:
    """The diagonal sums of every word a_1 ... a_m with a_p in
    ``letters[p - 1]``, m = 0..n (with ``graded``, {block count: sum}), by
    the open-arc state DP of the module docstring at ``point``, walks that
    reach the same open state merged.  A state is the tuple of open chains
    in arc-opening order, and the block over subword u is worth
    ``value(u)`` (None: not known yet, counted as 0 and asked again where
    the pass next meets it; 0: no such block).  The letter
    ``letters[p - 1][i]`` takes the roles in ``roles[p - 1][i]`` (by default
    all four).  Zero values and weights are dropped, and so are states with
    more open arcs than points left and, before the last point, words with
    no state.

    Returns ({w: S(w)}, scale) for every word kept, shortest first (a word
    left out sums to 0, the empty word to the weights' ring's one and a
    word with no state to its 0): S(w) / scale^m is the sum of w, m its
    length.  The values may come cleared by an int ``scale`` D, a block of
    j points times D^j, and the scale returned is S_w D (module docstring).

    A shape (letters, roles, graded) is compiled once (:func:`_compile`)
    and kept, at most _MAX_SHAPES of them and _MAX_SHAPE_MOVES moves in all
    (``subword_sums.cache_info()``); one over that budget is compiled on
    every call and not kept.  A call builds the point's weights, asks
    ``value`` once per subword and replays the moves.

    After the step of point p, ``after_level(sums, scale, zero)`` is called,
    if given (not with ``graded``): ``sums`` maps each word of length p kept
    that can have an empty state to its sum there, None for none, ``scale``
    is the scale returned and ``zero`` the weights' ring's 0.  It may
    rewrite them; the sums of length p are read off them, and the pass goes
    on from them."""
    rows, one, step = _step_weights(point, len(letters))
    weights = [one] + [x for row in rows for x in row]  # weight 0: none
    width, zero = len(weights), one * 0
    key = (tuple(map(tuple, letters)), None if roles is None else tuple(map(tuple, roles)), graded)
    shape = _SHAPES.pop(key, None)
    if shape is None:
        subwords: List[tuple] = []
        nodes, record, count = _compile(*key, width, subwords), [], 0
    else:
        nodes, subwords, count = _SHAPES[key] = shape
        record = None
    values: list = [_UNSEEN] * len(subwords)  # step times the value of each subword, None for 0
    factors: list = [_UNSEEN] * ((len(values) + 1) * width)  # each move factor, None for 0
    sums: Dict[tuple, object] = {(): {0: one} if graded else one}
    last, level = [((), [one], None)], []

    def factor(f: int):
        u, i = divmod(f, width)
        w, x = weights[i], one
        if u and w is not None:
            x = values[u - 1]
            if x is _UNSEEN:
                x = value(subwords[u - 1])
                if x is None:  # not known yet: not kept, so asked again where next met
                    return None
                x = values[u - 1] = None if x == 0 else x * step
        x = factors[f] = None if w is None or x is None else w if x is one else x if w is one else w * x
        return x

    for node in nodes:
        if record is not None:
            record.append(node)
            count += 0 if node is None else len(node[5]) // 3
            if count > _MAX_SHAPE_MOVES:
                record = None
        if node is None:  # the level is done
            if after_level is not None:
                known = {word: vals[e] for word, vals, e in level if vals is not None and e is not None}
                after_level(known, scale * step, zero)
                for word, vals, e in level:
                    if word in known:
                        vals[e] = known[word]
            for word, vals, e in level:
                if vals is not None and graded:
                    sums[word] = {b: vals[t] for b, t in e if vals[t] is not None}
                elif vals is not None:
                    x = None if e is None else vals[e]
                    sums[word] = zero if x is None else x
            last, level = level, []
            continue
        always, parent, word, size, empty, moves = node
        prev = last[parent][1]
        if prev is None:  # a word left out leaves out its extensions
            level.append((word, None, empty))
            continue
        if len(subwords) > len(values):  # they grow as a shape is compiled
            values += [_UNSEEN] * (len(subwords) - len(values))
            factors += [_UNSEEN] * ((len(values) + 1) * width - len(factors))
        vals = [None] * size
        it = iter(moves)
        for s, t, f in zip(it, it, it):
            v = prev[s]
            if v is None:
                continue
            x = factors[f]
            if x is _UNSEEN:
                x = factor(f)
            if x is not None:
                acc, v = vals[t], v if x is one else v * x
                vals[t] = v if acc is None else acc + v
        level.append((word, vals if always or vals.count(None) < size else None, empty))
    if record is not None:
        _SHAPES[key] = (record, subwords, count)
        while len(_SHAPES) > _MAX_SHAPES or sum(shape[2] for shape in _SHAPES.values()) > _MAX_SHAPE_MOVES:
            del _SHAPES[next(iter(_SHAPES))]
    return sums, scale * step


subword_sums.cache_info = lambda: _ShapeInfo(len(_SHAPES), _MAX_SHAPES, sum(s[2] for s in _SHAPES.values()), _MAX_SHAPE_MOVES)
subword_sums.cache_clear = _SHAPES.clear


def _chain_values(single, open_, close, extend):
    """The ``value`` of :func:`subword_sums` by the callbacks of
    :func:`diagfock.levy._vector_chain`: {u} is worth ``single(u[0])``, and a
    longer block closes at u[-1] the row that ``open_(u[0])`` opened and
    ``extend`` carried, each open subword's row built once, from its prefix's."""
    rows: Dict[tuple, object] = {}

    def row(u):
        vec = rows.get(u)
        if vec is None:
            vec = rows[u] = open_(u[0]) if len(u) == 1 else extend(row(u[:-1]), u[-1])
        return vec

    return lambda u: single(u[0]) if len(u) == 1 else close(row(u[:-1]), u[-1])


def role_sums(roles_at: Sequence[str], a, b, single, open_, close, extend, scale: int = 1) -> Tuple[Dict[tuple, object], int]:
    """({R: T(R)}, scale) for every R with R_p in roles_at[p - 1] and T(R)
    nonzero, T(R) / scale^n the sum of a^rc b^rn * prod of block values over
    the rows of [n] with role vector R, by one :func:`subword_sums` pass
    over the trie of the role words at the point (a, b, 1, 0), since
    [k]_{1,0} = 1, whose ``scale`` it takes and returns.  The letter of
    point p in role r is (r, p - 1), which takes role r only, and the
    callbacks value point i in its role (:func:`_chain_values`):
    ``single(i)``, ``open_(i)``, ``close(chain, i)``, ``extend(chain, i)``.
    At n = 0 the one row of [0] is the empty R."""
    n, value = len(roles_at), _chain_values(lambda x: single(x[1]), lambda x: open_(x[1]),
                                            lambda chain, x: close(chain, x[1]), lambda chain, x: extend(chain, x[1]))
    sums, scale = subword_sums([[(r, i) for r in rs] for i, rs in enumerate(roles_at)], (a, b, 1, 0), value, roles_at, scale=scale)
    return {word: total for word, total in sums.items() if len(word) == n and total != 0}, scale


def count_diagonal_partitions(n: int, min_block_size: int = 1) -> int:
    """Number of diagonal partitions of [n] + [n-bar] with every block of at
    least m = min_block_size points (an int; m <= 1 bounds nothing): the sum
    over R of T(R)^2, T(R) the number of such rows with role vector R.  At
    m <= 2 T(R) = B(R) is the product of k over the steps of R that end one
    of k open arcs, so one pass over 0^n at (1, 1, 1, 1) counts; at m >= 3
    one pass over the role words, each letter its own role, gives each T(R)
    (a block's subword O M ... M C is its size).  Guarded like the listing."""
    _guards.check_size("the size n of a diagonal partition", n, _guards.MAX_DIAGONAL_N)
    m = _guards.check_size("the least block size m", min_block_size, math.inf, least=-math.inf)
    if m <= 2:
        return subword_sums([(0,)] * n, (1, 1, 1, 1), lambda u: int(len(u) >= m))[0].get((0,) * n, 0)
    sums, _ = subword_sums(["OCM"] * n, (1, 1, 1, 0), lambda u: int(len(u) >= m), ["OCM"] * n)
    return sum(t * t for word, t in sums.items() if len(word) == n)
