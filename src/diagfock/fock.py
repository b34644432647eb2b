"""Operators on the doubled deformed Fock space.

Level n of the space is spanned by pairs of words of equal length n: a word
over a basis of the top one-particle space H (dimension d) together with a
word over the bar space H-bar (dimension d-bar).  The vacuum is the empty
pair.  Vectors are sparse dicts mapping (top_word, bar_word) to exact scalars
(Fraction, or Poly when the deformation parameters are symbolic).

Operator actions (x = xi (x) eta a pair of one-particle vectors):

  creation      prefixes xi to the top word and eta to the bar word;
  annihilation  contracts position i of the top word against xi with weight
                q^(i-1) t^(n-i), and independently position j of the bar word
                against eta with weight v^(j-1) w^(n-j), deleting both;
  gauge         replaces letter i of the top word by T(letter) moved to the
                front, with the same q/t weights, tensored with the analogous
                v/w sum over the bar word;
  scalar        multiplies by lambda * lambda-bar.

Each action is a tensor product of a (q, t) row operator on the top word and
a (v, w) one on the bar word; a row operator maps one basis word to its
(word, coefficient) terms.  Creation prefixes a letter; annihilation and
gauge share the front move R_n and differ only in the letter each position
turns into.  Field and general operators are sums of such top (x) bar parts;
the single actions and ``_vacuum_moment`` apply them to the (top, bar) pair
terms of a vector in one pass.  Three routes run row by row instead, since
each of their operators, and the deformed pairing, is one product top (x) bar:
:func:`apply_word` keeps one dict per row and tensors the two once at the
end, and the commutation and gauge-adjoint sweeps compute each row's images
(or pairings) once per word and combine them per basis pair.

A vacuum moment is a path from level 0 back to level 0, and no operator
lowers the level by more than one, so a term at level l with r operators
still to apply can return only if l <= r.  :func:`vacuum_expectation` and
the vacuum-moment oracles of :mod:`diagfock.wick` and :mod:`diagfock.levy`
keep only such terms (one private driver, ``_vacuum_moment``); the single
actions, :func:`apply_word` and ``wick.word_fock_oracle`` return whole vectors.

Annihilation kills the vacuum.  With t = w = 1 these reduce to the familiar
twisted ladder operators; the t^N-type commutation relation is exercised in
tests level by level (the relation sends level n to level n, so no truncation
error is involved).

Both one-particle spaces carry the standard inner product: an annihilator
pairs letter l with the l-th coordinate of its vector.  A caller whose
one-particle space has a symmetric Gram matrix G (the Levy oracle's step
functions) annihilates by G xi in place of xi, which gives the same action.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import _guards, _linalg
from .scalars import DeformationParams, _qt_ladder, _qt_row

Word = Tuple[int, ...]
WordPair = Tuple[Word, Word]
ColumnMemo = Dict[Word, Dict[Word, object]]
_ZERO = Fraction(0)


@dataclass(frozen=True)
class VectorPair:
    """A simple tensor xi (x) eta of one-particle vectors (rational coords)."""

    xi: Tuple[Fraction, ...]
    eta: Tuple[Fraction, ...]

    @classmethod
    def of(cls, xi: Sequence, eta: Sequence) -> "VectorPair":
        """The pair from the coordinates of xi and eta; a zero-length vector
        (a one-particle space of dimension 0) is refused, naming its field."""
        pair = cls(tuple(Fraction(a) for a in xi), tuple(Fraction(b) for b in eta))
        for name, vec in (("xi", pair.xi), ("eta", pair.eta)):
            if not vec:
                raise ValueError(f"{name} is a zero-length vector")
        return pair


@dataclass(frozen=True)
class GaugePair:
    """A pair of one-particle operators (T on H, T-bar on H-bar)."""

    top: Tuple[Tuple[Fraction, ...], ...]
    bar: Tuple[Tuple[Fraction, ...], ...]

    @classmethod
    def of(cls, top: Sequence[Sequence], bar: Sequence[Sequence]) -> "GaugePair":
        """The pair from the rows of T and T-bar; a 0 x 0 matrix is refused,
        naming it (``T`` or ``Tbar``, as in the CLI's input)."""
        t = tuple(tuple(Fraction(x) for x in row) for row in top)
        b = tuple(tuple(Fraction(x) for x in row) for row in bar)
        for name, m in (("T", t), ("Tbar", b)):
            if not m:
                raise ValueError(f"gauge {name} is a 0 x 0 matrix")
            if any(len(row) != len(m) for row in m):
                raise ValueError("gauge matrices must be square")
        return cls(t, b)


class FockVector:
    """Sparse vector on the doubled Fock space: dict (top word, bar word) -> scalar."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[WordPair, object]] = None):
        self.terms: Dict[WordPair, object] = {}
        if terms:
            for key, val in terms.items():
                if val == 0:
                    continue
                top, bar = key
                if len(top) != len(bar):
                    raise ValueError("top and bar words must have equal length")
                self.terms[(tuple(top), tuple(bar))] = val

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls({((), ()): Fraction(1)})

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    def add_term(self, key: WordPair, val) -> None:
        s = self.terms.get(key, 0) + val
        if s == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def __add__(self, other: "FockVector") -> "FockVector":
        out = FockVector()
        out.terms = _collect(itertools.chain(self.terms.items(), other.terms.items()))
        return out

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, c) -> "FockVector":
        if c == 0:
            return FockVector()
        out = FockVector()
        out.terms = {key: c * val for key, val in self.terms.items()}
        return out

    def vacuum_coefficient(self):
        return self.terms.get(((), ()), Fraction(0))

    def levels(self) -> Tuple[int, ...]:
        return tuple(sorted({len(k[0]) for k in self.terms}))

    def __eq__(self, other):
        return isinstance(other, FockVector) and self.terms == other.terms

    def __repr__(self):
        return f"FockVector({self.terms!r})"


# -- row operators ---------------------------------------------------------------

RowOp = Callable[[Word], List[Tuple[Word, object]]]  # basis word -> its (word, coeff) terms
RowPart = Tuple[RowOp, RowOp]  # top (x) bar: the top factor at (q, t), the bar one at (v, w)


def _row_create(vec: Sequence) -> RowOp:
    """Creation: sum_a vec_a e_a prefixed to the word."""
    letters = [(a, x) for a, x in enumerate(vec) if x != 0]
    return lambda word: [((a,) + word, x) for a, x in letters]


def _row_front(heads: Sequence[Sequence[Tuple[Word, object]]], wa, wb) -> RowOp:
    """The R_n front move: sum_i wa^(i-1) wb^(n-i) h e_(word without i) over
    the terms (h, c) of heads[word_i], each with coefficient c.

    Annihilation takes heads[l] = ((), <vec, e_l>), gauge heads[l] = ((a,), T[a][l]).
    """
    weights: Dict[int, Tuple] = {}

    def op(word: Word) -> List[Tuple[Word, object]]:
        n = len(word)
        ws = weights.get(n)
        if ws is None:
            ws = weights[n] = _qt_row(n, wa, wb)
        return [
            (head + word[:i] + word[i + 1 :], ws[i] * c)
            for i, letter in enumerate(word)
            for head, c in heads[letter]
        ]

    return op


def _row_annihilate(vec: Sequence, wa, wb) -> RowOp:
    """Annihilation: pair each letter l with vec, <vec, e_l>."""
    return _row_front([[((), c)] if c != 0 else [] for c in vec], wa, wb)


def _row_gauge(mat: Sequence[Sequence], wa, wb) -> RowOp:
    """Gauge: replace each letter l by the column T e_l moved to the front."""
    return _row_front([[((a,), row[l]) for a, row in enumerate(mat) if row[l] != 0] for l in range(len(mat))], wa, wb)


def _collect(terms: Iterable[Tuple[object, object]]) -> Dict:
    """Sum (key, value) terms into one dict, pruning zeros once at the end."""
    acc: Dict = {}
    for key, val in terms:
        prev = acc.get(key)
        acc[key] = val if prev is None else prev + val
    return {key: val for key, val in acc.items() if val != 0}


def _row_apply(op: RowOp, f: Dict[Word, object]) -> Dict[Word, object]:
    """A row operator applied to a single-row vector {word: coeff}."""
    return _collect((word, c * cw) for w, c in f.items() for word, cw in op(w))


def _apply_parts(parts: Sequence[RowPart], f: FockVector, room: float = math.inf) -> FockVector:
    """(sum over parts of top (x) bar) applied to f in one pass over its terms.

    A part's image of one term lies on one level; images above level ``room``
    are skipped before their bar factor is expanded."""

    def terms():
        for (top, bar), c in f.terms.items():
            for top_op, bar_op in parts:
                top_terms = top_op(top)
                if not top_terms or len(top_terms[0][0]) > room:
                    continue
                bar_terms = bar_op(bar)
                for wt, ct in top_terms:
                    cc = c * ct
                    for wb, cb in bar_terms:
                        yield (wt, wb), cc * cb

    out = FockVector()
    out.terms = _collect(terms())
    return out


def _creation_part(x: VectorPair) -> RowPart:
    return _row_create(x.xi), _row_create(x.eta)


def _annihilation_part(x: VectorPair, params: DeformationParams) -> RowPart:
    return _row_annihilate(x.xi, params.q, params.t), _row_annihilate(x.eta, params.v, params.w)


def _gauge_part(g: GaugePair, params: DeformationParams) -> RowPart:
    return _row_gauge(g.top, params.q, params.t), _row_gauge(g.bar, params.v, params.w)


def _scalar_part(lam) -> RowPart:
    return (lambda word: [(word, lam)]), (lambda word: [(word, Fraction(1))])


def _quadrabasic_parts(x: VectorPair, g: Optional[GaugePair], lam, params: DeformationParams) -> List[RowPart]:
    """The parts of creation + annihilation + gauge + lam (no gauge part for
    g = None, no scalar part for lam = 0); the field operator is g = None, lam = 0."""
    parts = [_creation_part(x), _annihilation_part(x, params)]
    if g is not None:
        parts.append(_gauge_part(g, params))
    if lam != 0:
        parts.append(_scalar_part(lam))
    return parts


def _vacuum_moment(steps: Sequence[Sequence[RowPart]]):
    """<vacuum, (product of steps) vacuum>, each step the parts of one
    operator, the rightmost step acting first.

    No part lowers the level by more than one, so a term at level l with r
    steps still to apply can reach the vacuum only if l <= r: each step
    keeps only the terms within that room (the room bound of the open-arc
    DP, on the operator side).  Every term kept gets its inputs from kept
    terms only, so it has the value, and the vacuum coefficient the sum, of
    the unpruned application.
    """
    f = FockVector.vacuum()
    for left, parts in zip(range(len(steps) - 1, -1, -1), reversed(steps)):
        f = _apply_parts(parts, f, room=left)
    return f.vacuum_coefficient()


def creation_apply(x: VectorPair, f: FockVector) -> FockVector:
    return _apply_parts([_creation_part(x)], f)


def annihilation_apply(x: VectorPair, f: FockVector, params: DeformationParams) -> FockVector:
    return _apply_parts([_annihilation_part(x, params)], f)


def gauge_apply(g: GaugePair, f: FockVector, params: DeformationParams) -> FockVector:
    return _apply_parts([_gauge_part(g, params)], f)


# -- operator words ------------------------------------------------------------

CREATE = "create"
ANNIHILATE = "annihilate"
GAUGE = "gauge"
SCALAR = "scalar"


def _token_parts(token, params: DeformationParams) -> List[RowPart]:
    """The parts of one (kind, payload) token."""
    kind, payload = token
    if kind == CREATE:
        return [_creation_part(payload)]
    if kind == ANNIHILATE:
        return [_annihilation_part(payload, params)]
    if kind == GAUGE:
        return [_gauge_part(payload, params)]
    if kind == SCALAR:
        return [_scalar_part(payload)]
    raise ValueError(f"unknown token kind {kind!r}")


def apply_word(tokens: Sequence, params: DeformationParams) -> FockVector:
    """Apply a product of tokens to the vacuum (rightmost token acts first).

    The whole vector is kept at every step: this is the unpruned route that
    :func:`vacuum_expectation` is tested against.  It runs row by row."""
    top, bar = {(): Fraction(1)}, {(): Fraction(1)}
    for token in reversed(tokens):
        ((top_op, bar_op),) = _token_parts(token, params)
        top, bar = _row_apply(top_op, top), _row_apply(bar_op, bar)
    out = FockVector()
    out.terms = {(wt, wb): ct * cb for wt, ct in top.items() for wb, cb in bar.items()}
    return out


def vacuum_expectation(tokens: Sequence, params: DeformationParams):
    """<vacuum, tokens vacuum>, keeping after each token only the terms that
    can still return to the vacuum."""
    _guards.check_size("the length of an operator word", len(tokens), _guards.MAX_OPERATOR_WORD)
    return _vacuum_moment([_token_parts(token, params) for token in tokens])


# -- deformed inner product ------------------------------------------------------


def _sym_column(x: Word, a, b, memo: ColumnMemo) -> Dict[Word, object]:
    """The column P^(n)_{a,b} e_x as a sparse dict {word: coeff}.

    Uses the factorisation P_n = (1 (x) P_(n-1)) R_n:

        P_n e_x = sum_k a^(k-1) b^(n-k) e_(x_k) (x) P_(n-1) e_(x without k),

    so the work grows with the distinct rearrangements of x, not with n!.
    ``memo`` maps each word already expanded to its column; callers create
    it per public call, so nothing is cached across calls.
    """
    col = memo.get(x)
    if col is not None:
        return col
    n = len(x)
    if n == 0:
        col = {(): Fraction(1)}
    else:
        acc: Dict[Word, object] = {}
        for k, weight in enumerate(_qt_row(n, a, b), 1):
            head = (x[k - 1],)
            for word, c in _sym_column(x[: k - 1] + x[k:], a, b, memo).items():
                key = head + word
                prev = acc.get(key)
                acc[key] = weight * c if prev is None else prev + weight * c
        col = {word: c for word, c in acc.items() if c != 0}
    memo[x] = col
    return col


def _sym_inner(u: Word, x: Word, a, b, memo: ColumnMemo):
    """<e_u, P^(n)_{a,b} e_x>."""
    if len(u) != len(x):
        return _ZERO
    return _sym_column(tuple(x), a, b, memo).get(tuple(u), _ZERO)


def sym_inner_words(u: Word, x: Word, a, b):
    """<e_u, P^(n)_{a,b} e_x> where P = sum_sigma a^inv(sigma) b^(binom-inv) U(sigma)."""
    return _sym_inner(u, x, a, b, {})


def deformed_inner(f: FockVector, h: FockVector, params: DeformationParams):
    """The four-parameter inner product: levels pair off, and within a level the
    top rows pair through P_{q,t} while the bar rows pair through P_{v,w}."""
    top_memo: ColumnMemo = {}
    bar_memo: ColumnMemo = {}
    total = Fraction(0)
    by_level_f: Dict[int, List[Tuple[WordPair, object]]] = {}
    for key, c in f.terms.items():
        by_level_f.setdefault(len(key[0]), []).append((key, c))
    by_level_h: Dict[int, List[Tuple[WordPair, object]]] = {}
    for key, c in h.terms.items():
        by_level_h.setdefault(len(key[0]), []).append((key, c))
    for n, fterms in by_level_f.items():
        hterms = by_level_h.get(n)
        if not hterms:
            continue
        for (ftop, fbar), fc in fterms:
            for (htop, hbar), hc in hterms:
                top_part = _sym_inner(ftop, htop, params.q, params.t, top_memo)
                if top_part == 0:
                    continue
                bar_part = _sym_inner(fbar, hbar, params.v, params.w, bar_memo)
                if bar_part == 0:
                    continue
                total = total + fc * hc * top_part * bar_part
    return total


def _check_words(n: int, d: int) -> None:
    """The guard of the level-n symmetrizer over d letters: n, d >= 0 and
    at most MAX_SYMMETRIZER_WORDS words d^n."""
    _guards.check_size("the level n of the symmetrizer", n, math.inf)
    _guards.check_size("the letter count d of the symmetrizer", d, math.inf)
    _guards.check_size(f"the words d^n at n = {n}, d = {d}", d ** n, _guards.MAX_SYMMETRIZER_WORDS)


def symmetrizer_matrix(n: int, a, b, d: int):
    """Matrix of P^(n)_{a,b} on words of length n over a d-letter basis (lex order)."""
    _check_words(n, d)
    words = list(itertools.product(range(d), repeat=n))
    memo: ColumnMemo = {}
    zero = Fraction(0)
    # P is symmetric (inv(sigma) = inv(sigma^-1)), so each column serves as a row
    rows = []
    for x in words:
        col = _sym_column(x, a, b, memo)
        rows.append(tuple(col.get(u, zero) for u in words))
    return tuple(rows)


def _letter_contents(n: int, parts: int, largest: int) -> Iterable[Tuple[int, ...]]:
    """Partitions of n into at most ``parts`` parts of size <= largest, largest first."""
    if n == 0:
        yield ()
        return
    if parts <= 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _letter_contents(n - first, parts - 1, first):
            yield (first,) + rest


def positivity_check(n: int, a: Fraction, b: Fraction, d: int) -> Tuple[str, int]:
    """Exact definiteness verdict for the level-n symmetrizer on a d-dim space.

    P_n only permutes positions, so it maps the span of the rearrangements of
    a word (its letter-content block) to itself, and the matrix of
    :func:`symmetrizer_matrix` is block diagonal up to the order of the words.
    Relabelling the letters maps a block onto the block of the relabelled
    content with the same matrix, so one block per sorted content (a
    partition of n into at most d parts) is classified, counted as many times
    as its content has distinct rearrangements over the d letters.

    a and b are cleared by D, the lcm of their denominators, so the columns are
    ints: P_n(Da, Db) = D^C(n,2) P_n(a, b) has the same verdict and kernel.
    """
    _check_words(n, d)
    a, b = Fraction(a), Fraction(b)
    scale = math.lcm(a.denominator, b.denominator)
    a, b = int(a * scale), int(b * scale)
    memo: ColumnMemo = {(): {(): 1}}  # shared by all blocks: a subword's column serves every block holding it
    blocks = []
    for content in _letter_contents(n, d, n):
        head = tuple(letter for letter, size in enumerate(content) for _ in range(size))
        # its rearrangements in lex order, from at most d^n words
        words = [x for x in itertools.product(range(len(content)), repeat=n) if tuple(sorted(x)) == head]
        block = tuple(tuple(_sym_column(x, a, b, memo).get(u, 0) for u in words) for x in words)
        padded = content + (0,) * (d - len(content))
        count = math.factorial(len(padded))
        for size in set(padded):
            count //= math.factorial(padded.count(size))
        blocks.append((_linalg.ldlt_classify(block), count))
    return _linalg.block_diagonal_classify(blocks)


# -- commutation checks ----------------------------------------------------------


def check_commutation_tensor(
    x1: VectorPair, x2: VectorPair, params: DeformationParams, d: int, dbar: int, maxlevel: int = 3
) -> bool:
    """Verify the doubled commutation relation at t = w = 1 on all basis pairs:

        A(x1) A*(x2) - qv A*(x2) A(x1)
          = q <eta1,eta2> (a* a on top) + v <xi1,xi2> (a* a on bar)
            + <xi1,xi2><eta1,eta2> Id.
    """
    if params.t != 1 or params.w != 1:
        raise ValueError("the doubled commutation relation needs t = w = 1")
    q, v = params.q, params.v
    inner_top = _linalg.dot(x1.xi, x2.xi)
    inner_bar = _linalg.dot(x1.eta, x2.eta)
    one = Fraction(1)
    create_top, annihilate_top = _row_create(x2.xi), _row_annihilate(x1.xi, q, params.t)
    create_bar, annihilate_bar = _row_create(x2.eta), _row_annihilate(x1.eta, v, params.w)

    def row_images(create: RowOp, annihilate: RowOp, size: int, n: int, lhs_scale, rhs_scale):
        """(word, a c e_word, lhs_scale c a e_word, rhs_scale c a e_word) as
        term lists, for each level-n word over size letters."""
        for w in itertools.product(range(size), repeat=n):
            moved = _row_apply(create, _row_apply(annihilate, {w: one})).items()
            ac = _row_apply(annihilate, _row_apply(create, {w: one})).items()
            yield w, ac, [(u, lhs_scale * c) for u, c in moved], [(u, rhs_scale * c) for u, c in moved]

    for n in range(0, maxlevel + 1):
        bars = list(row_images(create_bar, annihilate_bar, dbar, n, one, v * inner_top))
        for top, ac_top, moved_top, rhs_top in row_images(create_top, annihilate_top, d, n, -(q * v), q * inner_bar):
            for bar, ac_bar, moved_bar, rhs_bar in bars:
                lhs = itertools.chain(
                    (((wt, wb), ct * cb) for wt, ct in ac_top for wb, cb in ac_bar),
                    (((wt, wb), ct * cb) for wt, ct in moved_top for wb, cb in moved_bar),
                )
                rhs = itertools.chain(
                    (((w, bar), c) for w, c in rhs_top),
                    (((top, w), c) for w, c in rhs_bar),
                    [((top, bar), inner_top * inner_bar)],
                )
                if _collect(lhs) != _collect(rhs):
                    return False
    return True


def _adjoint_pairs(mat, a, b, size: int, n: int, memo: ColumnMemo):
    """(<T e_x, e_y>_P, <e_x, T' e_y>_P) for every pair (x, y) of level-n
    words of one row, T = mat, T' its transpose and P = P^(n)_{a,b}.  P is
    symmetric, so the first pairs T e_x with the column P e_y and the second
    T' e_y with P e_x."""
    words = list(itertools.product(range(size), repeat=n))
    cols = [_sym_column(z, a, b, memo) for z in words]
    gauge, gauge_adj = _row_gauge(mat, a, b), _row_gauge(_linalg.transpose(mat), a, b)
    images, images_adj = [gauge(z) for z in words], [gauge_adj(z) for z in words]

    def pair(terms, col):
        return sum((c * col[w] for w, c in terms if w in col), _ZERO)

    indices = range(len(words))
    return [(pair(images[x], cols[y]), pair(images_adj[y], cols[x])) for x in indices for y in indices]


def gauge_adjoint_check(
    g: GaugePair, params: DeformationParams, d: int, dbar: int, maxlevel: int = 3
) -> bool:
    """<p f, h> = <f, p' h> in the deformed inner product, p' built from the
    transposed matrices.  Swept exactly over all basis word pairs, each side
    the product of one top-row and one bar-row pairing."""
    top_memo, bar_memo = {}, {}  # column memos, each shared by every pairing of its row in the sweep
    for n in range(1, maxlevel + 1):
        bar = _adjoint_pairs(g.bar, params.v, params.w, dbar, n, bar_memo)
        for lt, rt in _adjoint_pairs(g.top, params.q, params.t, d, n, top_memo):
            if any(lt * lb != rt * rb for lb, rb in bar):
                return False
    return True


# -- creation operator norm -------------------------------------------------------


def empirical_creation_norm(q: float, t: float, nmax: int = 200) -> float:
    """sup over levels of the one-row creation norm ratio sqrt([n]_{q,t})."""
    _guards.check_size("the level count nmax", nmax, math.inf, least=1)
    return max(map(math.sqrt, _qt_ladder(q, t, nmax)))


def creation_norm_formula(q: float, t: float) -> Tuple[float, str]:
    """Closed-form one-row creation norm (per unit vector) with branch label.

    Defined for -t <= q <= t <= 1, t > 0, excluding q = t = 1 (unbounded).
    The mixed 0 < q < t < 1 branch takes the level maximizing [n]_{q,t}: the
    last n with [n+1] >= [n] is floor(log((1-q)/(1-t)) / log(t/q)), clamped
    at 0 so the sup is never taken over an empty range.
    """
    q = float(q)
    t = float(t)
    if not (0 < t <= 1 and -t <= q <= t):
        raise ValueError("norm formula needs -t <= q <= t and 0 < t <= 1")
    if q <= 0:
        return 1.0, "nonpositive_twist"
    if q == t == 1:
        raise ValueError("creation operator is unbounded at q = t = 1")
    if t == 1:
        return 1.0 / math.sqrt(1.0 - q), "geometric"
    if q == t:
        nstar = math.floor(t / (1.0 - t))
        return math.sqrt((nstar + 1) * t ** nstar), "equal_parameters"
    nhat = math.floor((math.log(1.0 - q) - math.log(1.0 - t)) / (math.log(t) - math.log(q)))
    nhat = max(nhat, 0)
    return math.sqrt((t ** (nhat + 1) - q ** (nhat + 1)) / (t - q)), "mixed"


def creation_norm_check(q, t, nmax: int = 200, tol: float = 1e-12) -> Tuple[bool, float, float, str]:
    """Compare the branch formula against the empirical level sup."""
    value, branch = creation_norm_formula(float(q), float(t))
    emp = empirical_creation_norm(float(q), float(t), nmax)
    return (abs(value - emp) <= tol * max(1.0, abs(value)), emp, value, branch)
