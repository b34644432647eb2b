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

One kernel computes them all: :func:`arc_sums`, the open-arc state DP over
the trie of a set of words, one letter per point.  Walks that reach the same
tuple of open chains are merged, words that share a prefix share its steps,
and one pass gives the sum of every word at the cost of its states, not
Bell(n).  It takes a point (a, b, c, d) and builds its step weights from
it: ending the j-th of k open arcs weighs a^(k-1-j) b^j [k]_{c,d}.  When
bar_value is 1, B(R) is the product of [k]_{v,w} over the steps of R that
end one of k open arcs (:func:`unit_bar_sum`), so the step weight is the
top row's times that factor, at the point (q, t, v, w); so run the
functionals (the one-variable transforms are their one-letter case, and
the inverse is one such pass, read level by level) and the Levy word
moments, and so do the Wick sums when one row is one-dimensional:
its block values are then products of per-point scalars, so B(R) is
:func:`unit_bar_sum` of R times each point's scalar in its role, and the
row folds into the other, one pass over the word of the points.  When both
rows carry block values (the Wick sums with d >= 2 on both rows, the word
expansion), :func:`role_sums` gives T(R) or B(R) for every R by one pass
per row over the trie of the role words, at (q, t, 1, 0) or (v, w, 1, 0)
since [k]_{1,0} = 1; :func:`count_diagonal_partitions` is that pass at
weight 1.

Every pass runs on ints at a rational point, and on Polys of denominator 1
at the symbolic point, by one rule.  A walk of m points multiplies one
factor per point (a step weight at each Closer and Middle, a block value at
each Closer and Singleton, and Openers match Closers).  So a caller clears
its data by one integer scale D per point, a block of j points times D^j
(``scalars._denominator``, ``scalars._cleared``, which read a Poly's
denominator as a Fraction's); :func:`arc_sums` builds its step weights at
the cleared point (E a, E b, F c, F d), E and F the lcms of the
denominators of each pair, lifts them to one step S_w = (E F)^(K-1), K the
most arcs open at once, and puts one more S_w on each singleton and closer
value; and the sum of every word of m points comes cleared,
(S_w D)^m times its value, divided once at the end (:func:`_read`, by
``scalars._over``).  Every value read is a Fraction at a rational point
and a Poly at the symbolic point, whatever mix of ints, Fractions and
Polys the data hold.

The pairs themselves are listed for display only.  :func:`_diagonal_classes`
groups the rows of one walk by role vector, with the walk's rc and rn of each
row, and a listing pairs the rows of each class: :func:`diagonal_partitions`
and ``diagfock partitions``, whose weights are the two rows' walk counts.
:meth:`DiagonalPartition.weight_exponents` recounts them pair by pair, as
the tests' oracle.
"""

from __future__ import annotations

import itertools
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


@lru_cache(maxsize=_guards.MAX_DIAGONAL_N + 1)  # one entry per n the guard admits
def diagonal_partition_profiles(n: int) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, int, int, int]], ...]:
    """(top block sizes, weight exponents) of every diagonal partition.

    No sum in the package reads it; perfbench/tracer.py reads and clears its
    cache by name.
    """
    return tuple((tuple(len(b) for b in dp.top.blocks), dp.weight_exponents()) for dp in diagonal_partitions(n))


# -- the diagonal-sum kernel -------------------------------------------------------


_UNSEEN = object()


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
    """The values of :func:`arc_sums`: the sum of a word of m points over
    scale^m, and a dict by block count entrywise."""
    out: Dict[tuple, object] = {}
    for word, total in sums.items():
        d = scale ** len(word)
        out[word] = {k: _over(x, d) for k, x in total.items()} if isinstance(total, dict) else _over(total, d)
    return out


def arc_sums(
    letters: Sequence[Sequence],
    point: Sequence,
    single: Callable[[object], object],
    open_: Callable[[object], object],
    close: Callable[[object, object], object],
    extend: Callable[[object, object], object],
    graded: bool = False,
    ends: Optional[Callable[[object], bool]] = None,
    scale: int = 1,
    after_level: Optional[Callable[[Dict[tuple, dict], int, object], None]] = None,
) -> Tuple[Dict[tuple, object], int]:
    """The diagonal sums of every word a_1 ... a_m with a_p in
    ``letters[p - 1]``, m = 0..n, by one open-arc state DP over the trie of
    the words.

    The points 1..n are placed as in :func:`_walk`, but walks that reach the
    same open state are merged, and a state belongs to a word's prefix, so
    words sharing a prefix share every step up to it.  A state is the tuple
    of open *chains*, in arc-opening order; a chain is whatever the caller
    needs to value a block once it closes.  Point p with letter a is a
    Singleton (times ``single(a)``), Opens a chain ``open_(a)``, or ends the
    j-th (from 0) of the k open arcs with weight a^(k-1-j) b^j [k]_{c,d} at
    the ``point`` (a, b, c, d): the row's weight, crossings counted by a and
    nestings by b, times the bar row's factor of :func:`unit_bar_sum` (1 at
    (c, d) = (1, 0)).  A Closer then multiplies by ``close(chain, a)``; a
    Middle re-appends ``extend(chain, a)``.  A letter may take fewer roles:
    ``open_`` and ``extend`` return None and ``single`` and ``close`` 0 for
    a role it cannot take, and ``ends(a)`` is false if it can end no arc.
    A ``single`` or ``close`` value of None is not known yet: it counts as
    0 and is not kept, so the pass asks for it again where it next meets it.
    Zero values and weights are dropped, and so are states with more open
    arcs than points left and, before the last point, words with no state.

    Returns ({w: S(w)}, scale) for every word kept, shortest first (a word
    left out has sum 0): S(w) / scale^m is the sum of w, m its length, read
    off the empty state after the step of w, with ``graded`` {block count:
    sum}.  The empty word comes first, its sum the weights' ring's one (with
    ``graded``, {0: one}), and a word with no state sums to that ring's 0.
    The caller's values may come cleared of denominators by an int
    ``scale`` D, a block of j points times D^j (``scalars._denominator`` of
    the data).  The pass clears its weights in turn, at the point cleared
    by ``scalars._cleared_point``, to S_w = (E F)^(K-1) times their values
    (module docstring), K = max(n // 2, 1) the most arcs open at once, and
    multiplies each singleton and closer value by S_w, so that, one factor
    coming per point, every sum of m points is (S_w D)^m times its value,
    and the scale returned is S_w D.  Each chain is valued once per letter.
    Callers cap n; the state count, not Bell(n), sets the cost.

    After the step of point p, ``after_level(nodes, scale, zero)`` is called,
    if given, before point p + 1: ``nodes`` maps each word of length p kept
    to its states, ``scale`` is the scale returned and ``zero`` the weights'
    ring's 0.  It may rewrite the states; the sums of length p are read off
    them, and the pass goes on from them.  A state is keyed by the tuple of
    its open chains' ids, and with ``graded`` by (block count, that tuple).
    """
    n = len(letters)
    # rows[k - 1][j] weighs ending arc j of k: (E F)^(k-1) times its value at
    # the cleared point, lifted by (E F)^(K-k) to S_w times it; row k + 1 is
    # a times row k followed by b^k
    (a, b, e), (c, d, f) = _cleared_point(*point[:2]), _cleared_point(*point[2:])
    top_k, lift = max(n // 2, 1), e * f
    rows, top, b_pow = [], (), a**0 * b**0
    for k, bar in enumerate(_qt_ladder(c, d, top_k), 1):
        top = tuple(a * x for x in top) + (b_pow,)
        b_pow = b_pow * b
        factor = bar * lift ** (top_k - k)
        # a weight is also 0 where [k]_{c,d} is: a kept 0 would keep dead states alive
        rows.append(tuple(None if x == 0 else x for x in (y * factor for y in top)))
    step = lift ** (top_k - 1)
    one = rows[0][0] ** 0  # every walk starts at 1 in the ring of the weights
    zero = one * 0  # the sum of a word with no state
    # the (j, weight) of each row's weights that are not 0, a weight of 1 being `one`
    live = [[(j, one if x == one else x) for j, x in enumerate(row) if x is not None] for row in rows]
    chains: List[object] = []  # the chain of each id; states hold ids
    ids: Dict[object, int] = {}
    extended: Dict[Tuple[int, object], Optional[int]] = {}
    closed: Dict[Tuple[int, object], object] = {}  # step times close(chain, a) by (chain, a), None for 0
    level: Dict[tuple, dict] = {(): {(0, ()) if graded else (): one}}
    sums: Dict[tuple, object] = {(): {0: one} if graded else one}

    def intern(chain) -> int:
        i = ids.setdefault(chain, len(chains))
        if i == len(chains):
            chains.append(chain)
        return i

    for p in range(1, n + 1):
        room = n - p  # a state may keep open at most as many arcs as points remain
        steps = []
        for a in letters[p - 1]:
            s_val, chain, can_end = single(a), open_(a) if room else None, ends is None or ends(a)
            s_val = None if s_val is None or s_val == 0 else s_val * step
            steps.append((a, s_val, None if chain is None else intern(chain), can_end))
        nodes: Dict[tuple, dict] = {}
        for word, states in level.items():
            for a, s_val, o_id, can_end in steps:
                if s_val is None and o_id is None and not can_end:
                    continue
                nxt: dict = {}
                get = nxt.get
                for key, val in states.items():
                    if graded:
                        blocks, open_ids = key
                    else:
                        open_ids = key
                    k = len(open_ids)
                    if s_val is not None and k <= room:
                        key, term = (blocks + 1, open_ids) if graded else open_ids, val * s_val
                        acc = get(key)
                        nxt[key] = term if acc is None else acc + term
                    if o_id is not None and k < room:
                        key = (blocks + 1, open_ids + (o_id,)) if graded else open_ids + (o_id,)
                        acc = get(key)
                        nxt[key] = val if acc is None else acc + val
                    if not (can_end and k):
                        continue
                    for j, weight in live[k - 1]:
                        cid = open_ids[j]
                        rest = open_ids[:j] + open_ids[j + 1:]
                        x = closed.get((cid, a), _UNSEEN)
                        if x is _UNSEEN:
                            x = close(chains[cid], a)
                            if x is not None:
                                x = closed[cid, a] = None if x == 0 else x * step
                        if x is not None:
                            key, term = (blocks, rest) if graded else rest, val * (x if weight is one else weight * x)
                            acc = get(key)
                            nxt[key] = term if acc is None else acc + term
                        if k <= room:
                            e = extended.get((cid, a), _UNSEEN)
                            if e is _UNSEEN:
                                chain = extend(chains[cid], a)
                                e = extended[cid, a] = None if chain is None else intern(chain)
                            if e is not None:
                                key = (blocks, rest + (e,)) if graded else rest + (e,)
                                term = val if weight is one else val * weight
                                acc = get(key)
                                nxt[key] = term if acc is None else acc + term
                if nxt or room == 0:
                    nodes[word + (a,)] = nxt
        if after_level is not None:
            after_level(nodes, scale * step, zero)
        for word, states in nodes.items():
            if graded:
                sums[word] = {blocks: val for (blocks, open_ids), val in states.items() if not open_ids}
            else:
                sums[word] = states.get((), zero)
        level = nodes
    return sums, scale * step


def role_sums(roles_at: Sequence[str], a, b, single, open_, close, extend, scale: int = 1) -> Tuple[Dict[tuple, object], int]:
    """({R: T(R)}, scale) for every R with R_p in roles_at[p - 1] and T(R)
    nonzero, T(R) / scale^n the sum of a^rc b^rn * prod of block values over
    the rows of [n] with role vector R, by one :func:`arc_sums` pass over the
    trie of the role words at the point (a, b, 1, 0), since [k]_{1,0} = 1,
    whose ``scale`` it takes and returns.  The letter of point p in role r
    is (r, p - 1), and the callbacks value point i in that role:
    ``single(i)``, ``open_(i)``, ``close(chain, i)``, ``extend(chain, i)``.
    At n = 0 the one row of [0] is the empty R."""
    n = len(roles_at)
    # the first point opens or stands alone, the last closes or stands alone
    first, last = (ROLE_OPENER, ROLE_SINGLETON), (ROLE_CLOSER, ROLE_SINGLETON)
    sums, scale = arc_sums(
        [[(r, i) for r in roles if (i or r in first) and (i < n - 1 or r in last)] for i, roles in enumerate(roles_at)],
        (a, b, 1, 0),
        lambda x: single(x[1]) if x[0] == ROLE_SINGLETON else 0,
        lambda x: open_(x[1]) if x[0] == ROLE_OPENER else None,
        lambda chain, x: close(chain, x[1]) if x[0] == ROLE_CLOSER else 0,
        lambda chain, x: extend(chain, x[1]) if x[0] == ROLE_MIDDLE else None,
        ends=lambda x: x[0] in (ROLE_CLOSER, ROLE_MIDDLE),
        scale=scale,
    )
    return {word: total for word, total in sums.items() if len(word) == n and total != 0}, scale


def count_diagonal_partitions(n: int, min_block_size: int = 1) -> int:
    """Number of diagonal partitions of [n] + [n-bar] with every block of at
    least m = min_block_size points: the sum over R of T(R)^2, T(R) counting
    such rows by :func:`role_sums` at weight 1, with the block size capped
    at m as the chain.  Guarded like the enumeration it counts."""
    _guards.check_size("the size n of a diagonal partition", n, _guards.MAX_DIAGONAL_N)
    m = min_block_size
    rows, _ = role_sums(["OCMS" if m <= 1 else "OCM"] * n, 1, 1, lambda i: 1, lambda i: 1,
                        lambda size, i: int(size + 1 >= m), lambda size, i: min(size + 1, m))
    return sum(t * t for t in rows.values())
