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
turns into.  Each call keeps one table per row (``_Row``): its point, the
weights of each level and the front move of each word, each made once for
every operator, symmetrizer column and check of the call.  An operator is
a sum of (kind, payload) tokens, as :func:`apply_word` takes them, each of
whose top and bar operators is built once per call on its row's table.  The
single actions and ``_vacuum_moment`` apply a step's tokens in one pass to a
vector kept as {bar word: {top word: coeff}}, so each token's images of a
bar word serve every top word under it; :func:`apply_word` runs row by row
and tensors the rows once, and the gauge-adjoint and commutation checks
test a sum of top (x) bar products for zero by one Gram matrix per level,
with no pair.

A vacuum moment is a path from level 0 back to level 0, and no operator
lowers the level by more than one, so a term at level l with r operators
still to apply can return only if l <= r.  :func:`vacuum_expectation` and
the vacuum-moment oracles of :mod:`diagfock.wick` and :mod:`diagfock.levy`
keep only such terms (one private driver, ``_vacuum_moment``); the single
actions, :func:`apply_word` and ``wick.word_fock_oracle`` return whole vectors.

Every route that multiplies more than once runs on ints at a rational point
(on Polys of denominator 1 at the symbolic point), by the rule of the
open-arc DP of :mod:`diagfock.partitions`.  Each row's data (vectors, gauge
matrices, scalars) is cleared by one int scale D, the lcm of their
denominators, and its point (a, b) by the lcm E of theirs, and every scale
is known before the route runs, so the result is divided once
(``scalars._over``).  At (E a, E b) the front move R_n is E^(n-1) times
its value and the level-n symmetrizer P_n is E^C(n,2) times its own, so:

  * :func:`deformed_inner` divides each level's sum by E_top^C(n,2)
    E_bar^C(n,2) and by the scales of f's and h's coefficients there;
  * the gauge-adjoint check compares two pairings of the same scale per
    row, and the commutation check tests the relation on level n times
    D_top^2 D_bar^2 (E_top E_bar)^n, so both compare ints as they are;
  * a product of operators (the vacuum moments, :func:`apply_word`) keeps
    the scale of a term independent of its path by the level rule of its
    row tables (``_rows``): after s steps a level-l term is stored times
    D^s E^(c s - C(l,2)), c at least the highest level reached, so each
    step multiplies by an int, E^(c-l) for creation from level l, E^c for
    annihilation and a scalar, and E^(c-l+1) for a gauge at level l.  The
    vacuum coefficient is divided once by (D_top D_bar (E_top E_bar)^c)^steps,
    and every term of :func:`apply_word` by the scale of its level.

The single actions multiply each term once and keep the ring of their
inputs.  Every other route returns what it returned on Fractions: a
Fraction at a rational point, a Poly where a Poly weight or datum entered
(``vacuum_expectation`` of the empty word is ``Fraction(1)`` at the
symbolic point too).

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
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import _guards, _linalg
from .scalars import (
    DeformationParams,
    Poly,
    _cleared,
    _cleared_array,
    _cleared_point,
    _denominator,
    _entries,
    _over,
    _qt_row,
)

Word = Tuple[int, ...]
WordPair = Tuple[Word, Word]
_ZERO, _ONE = Fraction(0), Fraction(1)


class VectorPair(NamedTuple):
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


class GaugePair(NamedTuple):
    """A pair of one-particle operators (T on H, T-bar on H-bar)."""

    top: Tuple[Tuple[Fraction, ...], ...]
    bar: Tuple[Tuple[Fraction, ...], ...]

    @classmethod
    def of(cls, top: Sequence[Sequence], bar: Sequence[Sequence]) -> "GaugePair":
        """The pair from the rows of T and T-bar; a 0 x 0 or non-square matrix
        is refused, naming it (``T`` or ``Tbar``, as in the CLI's input)."""
        t = tuple(tuple(Fraction(x) for x in row) for row in top)
        b = tuple(tuple(Fraction(x) for x in row) for row in bar)
        for name, m in (("T", t), ("Tbar", b)):
            if not m:
                raise ValueError(f"gauge {name} is a 0 x 0 matrix")
            widths = [len(row) for row in m]
            if set(widths) != {len(m)}:
                shape = f"{len(m)} x {widths[0]}" if len(set(widths)) == 1 else f"ragged, rows of lengths {', '.join(map(str, widths))}"
                raise ValueError(f"gauge {name} is {shape}, not a square matrix")
        return cls(t, b)


class FockVector:
    """Sparse vector on the doubled Fock space: dict (top word, bar word) -> scalar."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[WordPair, object]] = None):
        self.terms: Dict[WordPair, object] = {}
        if terms:
            for (top, bar), val in terms.items():
                self.add_term((tuple(top), tuple(bar)), val)

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls({((), ()): Fraction(1)})

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    def add_term(self, key: WordPair, val) -> None:
        top, bar = key
        if len(top) != len(bar):
            raise ValueError("top and bar words must have equal length")
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


# -- row tables and row operators --------------------------------------------------

CREATE = "create"
ANNIHILATE = "annihilate"
GAUGE = "gauge"
SCALAR = "scalar"

RowOp = Callable[[Word], List[Tuple[Word, object]]]  # basis word -> its (word, coeff) terms
RowSpec = Tuple[str, object]  # one row's (kind, data): a vector, a gauge matrix or a scalar
Token = Tuple[str, object]  # (kind, payload): a VectorPair, a GaugePair or a scalar


class _Row(dict):
    """One row's table for one call at its point (a, b), each entry made
    once: row[word] the front move on word (:func:`_front_runs`), level(n)
    the weights _qt_row(n, a, b) and ``columns`` the symmetrizer columns."""

    __slots__ = ("a", "b", "weights", "columns")

    def __init__(self, a, b):
        super().__init__()
        self.a, self.b, self.weights, self.columns = a, b, {}, {}

    def level(self, n: int) -> Tuple:
        return self.weights[n] if n in self.weights else self.weights.setdefault(n, _qt_row(n, self.a, self.b))

    def __missing__(self, word: Word):
        runs = self[word] = _front_runs(word, self.level(len(word)))
        return runs


def _front_runs(word: Word, weights: Sequence) -> List[Tuple[int, Word, object]]:
    """The front move on word, position i weighed by weights[i], as one
    (letter, word without it, weight) per run of equal letters: deleting
    any position of a run leaves the same word, so the run's weights add
    up.  A run whose weights sum to zero is dropped."""
    runs, n, i = [], len(word), 0
    while i < n:
        letter, weight, j = word[i], weights[i], i + 1
        while j < n and word[j] == letter:
            weight, j = weight + weights[j], j + 1
        if weight != 0:
            runs.append((letter, word[:i] + word[i + 1 :], weight))
        i = j
    return runs


def _row_create(vec: Sequence, lift: Sequence) -> RowOp:
    """Creation: sum_a vec_a e_a prefixed to a word of length n, times lift[n]."""
    letters, at = [(a, x) for a, x in enumerate(vec) if x != 0], {}

    def op(word: Word) -> List[Tuple[Word, object]]:
        n = len(word)
        images = at[n] if n in at else at.setdefault(n, [(a, x * lift[n]) for a, x in letters])
        return [((a,) + word, x) for a, x in images]

    return op


def _row_annihilate(vec: Sequence, row: _Row) -> RowOp:
    """Annihilation: the front move on row, each letter l paired with vec, <vec, e_l>."""
    heads = [(x,) if x != 0 else () for x in vec]
    return lambda word: [(rest, weight * x) for letter, rest, weight in row[word] for x in heads[letter]]


def _row_gauge(mat: Sequence[Sequence], row: _Row, lift: Sequence) -> RowOp:
    """Gauge: the front move on row, each letter l replaced by the column
    T e_l moved to the front, times lift[n] on a word of length n."""
    heads, at = [[((a,), r[l]) for a, r in enumerate(mat) if r[l] != 0] for l in range(len(mat))], {}

    def op(word: Word) -> List[Tuple[Word, object]]:
        n = len(word)
        lifted = at[n] if n in at else at.setdefault(n, [[(a, x * lift[n]) for a, x in head] for head in heads])
        return [(head + rest, weight * x) for letter, rest, weight in row[word] for head, x in lifted[letter]]

    return op


def _row_op(spec: RowSpec, row: _Row, power: Sequence, c: int) -> RowOp:
    """The operator of one spec on a row table, lifted by the level rule:
    times power[c - n] for creation from level n, power[c + 1 - n] for a
    gauge there, power[c] for annihilation and a scalar (in their data)."""
    kind, data = spec
    if kind == CREATE:
        return _row_create(data, power[c::-1])
    if kind == GAUGE:
        return _row_gauge(data, row, power[c + 1 :: -1])
    if kind == ANNIHILATE:
        return _row_annihilate([x * power[c] for x in data], row)
    lam = data * power[c]
    return lambda word: [(word, lam)]


def _row_specs(token: Token) -> Tuple[RowSpec, RowSpec]:
    """A token's (kind, data) on the top and on the bar row: the payload's two
    fields for a vector or gauge, and lambda and 1 for a scalar lambda."""
    kind, payload = token
    top, bar = (payload, _ONE) if kind == SCALAR else payload
    return (kind, top), (kind, bar)


def _rows(tokens: Sequence[Token], params, c: int, clear: bool = True) -> List[Tuple[Dict[int, RowOp], int, int]]:
    """(ops, D, E) for the top row of tokens at (q, t) and the bar row at
    (v, w): ops maps the id of each token (hashing its Fractions is slow, so
    the tokens must outlive ops) to its operator on the row's one table,
    built once.  Cleared, the data are times D, the lcm of their
    denominators, and the point times E, so that after s operators a
    level-l term is D^s E^(c s - C(l,2)) times its value, c at least the
    highest level reached; else (the single actions) D = E = 1."""
    rows, both = [], {id(token): _row_specs(token) for token in tokens}
    for side, (a, b) in enumerate((params[:2], params[2:])):
        specs = {key: pair[side] for key, pair in both.items()}
        given = {id(d): d for _, d in specs.values()}  # a vector that creates and annihilates is cleared once
        data = _denominator(x for d in given.values() for x in _entries(d)) if clear else 1
        a, b, e = _cleared_point(a, b) if clear else (a, b, 1)
        cleared = {key: _cleared_array(d, data) for key, d in given.items()} if clear else given
        row, power = _Row(a, b), [e**k for k in range(c + 2)]
        ops = {key: _row_op((kind, cleared[id(d)]), row, power, c) for key, (kind, d) in specs.items()}
        rows.append((ops, data, e))
    return rows


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


_SHIFT = {CREATE: 1, ANNIHILATE: -1, GAUGE: 0, SCALAR: 0}  # the level change of each kind of token
Terms = Dict[Word, Dict[Word, object]]  # a vector as {bar word: {top word: coeff}}


def _apply_step(tokens: Sequence[Token], top: Dict[int, RowOp], bar: Dict[int, RowOp], terms: Terms, room: float = math.inf) -> Terms:
    """(sum over tokens of top (x) bar) applied to terms in one pass, the
    tokens' operators read from the row ops of :func:`_rows`.  A token moves
    every term by its kind's level change, so one whose images would lie
    above level ``room`` is skipped before any is built.  A token builds
    each bar word's images once, for every top word under it, and each top
    word's once, for every bar word over it."""
    ops = [(top[id(token)], bar[id(token)], _SHIFT[token[0]], {}) for token in tokens]
    acc: Terms = {}
    for wb, tops in terms.items():
        for top_op, bar_op, shift, images in ops:
            if len(wb) + shift > room:
                continue
            bar_terms = bar_op(wb)
            if not bar_terms:
                continue
            top_terms = []
            for wt, c in tops.items():
                image = images.get(wt)
                if image is None:
                    image = images[wt] = top_op(wt)
                top_terms.append((c, image))
            for bar_image, cb in bar_terms:
                out = acc.get(bar_image)
                if out is None:
                    out = acc[bar_image] = {}
                get = out.get
                for c, top_image in top_terms:
                    cc = c * cb
                    for wt, ct in top_image:
                        val, prev = cc * ct, get(wt)
                        out[wt] = val if prev is None else prev + val
    for wb, out in acc.items():
        if 0 in out.values():
            acc[wb] = {wt: c for wt, c in out.items() if c != 0}
    return {wb: out for wb, out in acc.items() if out}


def _apply_tokens(tokens: Sequence[Token], f: FockVector, params: Optional[DeformationParams] = None) -> FockVector:
    """(sum over tokens of top (x) bar) applied to f in one pass over its terms.

    One operator multiplies each term once, so nothing is cleared: the
    terms keep the ring of f, the data and the point, which only
    annihilation and gauge tokens read, refusing a letter that is not an
    int in [0, the dimension of their data)."""
    _check_tokens(tokens)
    for side, name in enumerate(("top", "bar")):
        letters = dict.fromkeys(letter for key in f.terms for letter in key[side])
        for kind, data in (_row_specs(token)[side] for token in tokens if token[0] in (ANNIHILATE, GAUGE)):
            bad = [letter for letter in letters if not (isinstance(letter, int) and 0 <= letter < len(data))]
            if bad:
                raise ValueError(f"a {name} word has letter {bad[0]!r}, but the {kind} operator has dimension {len(data)}")
    (top, _, _), (bar, _, _) = _rows(tokens, params or (None,) * 4, max(f.levels(), default=0), clear=False)
    terms: Terms = {}
    for (wt, wb), c in f.terms.items():
        terms.setdefault(wb, {})[wt] = c
    out = FockVector()
    out.terms = {(wt, wb): c for wb, tops in _apply_step(tokens, top, bar, terms).items() for wt, c in tops.items()}
    return out


def _quadrabasic_tokens(x: VectorPair, g: Optional[GaugePair], lam) -> List[Token]:
    """The tokens of creation + annihilation + gauge + lam (no gauge token for
    g = None, no scalar token for lam = 0); the field operator is g = None, lam = 0."""
    tokens = [(CREATE, x), (ANNIHILATE, x)]
    if g is not None:
        tokens.append((GAUGE, g))
    if lam != 0:
        tokens.append((SCALAR, lam))
    return tokens


def _vacuum_moment(steps: Sequence[Sequence[Token]], params: DeformationParams):
    """<vacuum, (product of steps) vacuum>, each step the tokens of one
    operator, the rightmost step acting first.

    No token lowers the level by more than one, so a term at level l with r
    steps still to apply can reach the vacuum only if l <= r: each step
    keeps only the terms within that room (the room bound of the open-arc
    DP, on the operator side).  Every term kept gets its inputs from kept
    terms only, so it has the value, and the vacuum coefficient the sum, of
    the unpruned application.

    The level of a kept term is at most the number of steps behind it and
    the number still ahead, so no level passes c = steps // 2, and each
    row runs on ints by the level rule of :func:`_rows`: the vacuum
    coefficient comes as (D_top D_bar (E_top E_bar)^c)^steps times its
    value and is divided once.
    """
    c = len(steps) // 2
    (top, top_data, top_e), (bar, bar_data, bar_e) = _rows([token for step in steps for token in step], params, c)
    terms: Terms = {(): {(): 1}}
    for left, step in zip(range(len(steps) - 1, -1, -1), reversed(steps)):
        terms = _apply_step(step, top, bar, terms, room=left)
    return _over(terms.get((), {}).get((), 0), (top_data * bar_data * (top_e * bar_e) ** c) ** len(steps))


def creation_apply(x: VectorPair, f: FockVector) -> FockVector:
    return _apply_tokens([(CREATE, x)], f)


def annihilation_apply(x: VectorPair, f: FockVector, params: DeformationParams) -> FockVector:
    return _apply_tokens([(ANNIHILATE, x)], f, params)


def gauge_apply(g: GaugePair, f: FockVector, params: DeformationParams) -> FockVector:
    return _apply_tokens([(GAUGE, g)], f, params)


# -- operator words ------------------------------------------------------------

_PAYLOADS = {CREATE: (VectorPair,), ANNIHILATE: (VectorPair,), GAUGE: (GaugePair,), SCALAR: (int, Fraction, Poly)}


def _check_tokens(tokens: Sequence) -> None:
    """Refuse by index (ValueError) a token of unknown kind, or of a payload not of its kind's
    type, and a vector or gauge whose top (or bar) dimension differs from the first one's."""
    for i, (kind, payload) in enumerate(tokens):
        types = _PAYLOADS.get(kind) if isinstance(kind, str) else None
        if types is None:
            raise ValueError(f"tokens[{i}]: unknown token kind {kind!r}")
        if not isinstance(payload, types):
            names = "/".join(t.__name__ for t in types)
            raise ValueError(f"tokens[{i}]: a token of kind {kind!r} takes a payload of type {names}, not {type(payload).__name__}")
    sized = [(i, [len(data) for data in payload]) for i, (kind, payload) in enumerate(tokens) if kind != SCALAR]
    for (i, dims), side in itertools.product(sized, (0, 1)):
        (j, first), name = sized[0], ("top", "bar")[side]
        if dims[side] != first[side]:
            raise ValueError(f"tokens[{i}]: its {name} row has dimension {dims[side]}, but tokens[{j}] has {first[side]}")


def apply_word(tokens: Sequence, params: DeformationParams) -> FockVector:
    """Apply a product of tokens to the vacuum (rightmost token acts first).

    The whole vector is kept at every step: this is the unpruned route that
    :func:`vacuum_expectation` is tested against.  It runs row by row, each
    row on ints by the level rule of :func:`_rows`, c being the number of
    creators.  Every term of the result has the level of the word, so the
    tensor of the two rows is divided by one scale.  Its word is capped like
    that of :func:`vacuum_expectation`."""
    _guards.check_size("the length of an operator word", len(tokens), _guards.MAX_OPERATOR_WORD)
    _check_tokens(tokens)
    kinds = [kind for kind, _ in tokens]
    c, steps = kinds.count(CREATE), len(tokens)
    rows = []
    for ops, data, e in _rows(tokens, params, c):
        f = {(): 1}
        for token in reversed(tokens):
            f = _row_apply(ops[id(token)], f)
        rows.append((f, data, e))
    (top, top_data, top_e), (bar, bar_data, bar_e) = rows
    level = max(c - kinds.count(ANNIHILATE), 0)  # of every word, if any survives
    scale = (top_data * bar_data) ** steps * (top_e * bar_e) ** (c * steps - math.comb(level, 2))
    out = FockVector()
    out.terms = {(wt, wb): _over(ct * cb, scale) for wt, ct in top.items() for wb, cb in bar.items()}
    return out


def vacuum_expectation(tokens: Sequence, params: DeformationParams):
    """<vacuum, tokens vacuum>, keeping after each token only the terms that
    can still return to the vacuum."""
    _guards.check_size("the length of an operator word", len(tokens), _guards.MAX_OPERATOR_WORD)
    _check_tokens(tokens)
    return _vacuum_moment([[token] for token in tokens], params)


# -- deformed inner product ------------------------------------------------------


def _sym_column(x: Word, row: _Row) -> Dict[Word, object]:
    """The column P^(n)_{a,b} e_x as a sparse dict {word: coeff}, (a, b)
    the point of the row table, cleared (ints, or Polys of denominator 1),
    so its entries are too.

    Uses the factorisation P_n = (1 (x) P_(n-1)) R_n:

        P_n e_x = sum_k a^(k-1) b^(n-k) e_(x_k) (x) P_(n-1) e_(x without k),

    so the work grows with the distinct rearrangements of x, not with n!,
    and each run of equal letters in x is one term (the row's front move,
    read if the table has it and else not kept, as each column is expanded
    once).  ``row.columns`` maps each word expanded to its column; callers
    make the row per public call, so nothing is cached across calls.
    """
    col = row.columns.get(x)
    if col is not None:
        return col
    if not x:
        col = {(): 1}
    else:
        acc: Dict[Word, object] = {}
        for letter, rest, weight in row.get(x) or _front_runs(x, row.level(len(x))):
            head = (letter,)
            for word, c in _sym_column(rest, row).items():
                key = head + word
                prev = acc.get(key)
                acc[key] = weight * c if prev is None else prev + weight * c
        col = {word: c for word, c in acc.items() if c != 0}
    row.columns[x] = col
    return col


def _levels(f: FockVector) -> Dict[int, List[Tuple[WordPair, object]]]:
    """The terms of f by level."""
    out: Dict[int, List[Tuple[WordPair, object]]] = {}
    for key, c in f.terms.items():
        out.setdefault(len(key[0]), []).append((key, c))
    return out


def deformed_inner(f: FockVector, h: FockVector, params: DeformationParams):
    """The four-parameter inner product: levels pair off, and within a level the
    top rows pair through P_{q,t} while the bar rows pair through P_{v,w}.

    Level n runs on ints: the coefficients of f and of h are cleared by the
    lcm of their denominators on that level, and each row's columns are
    taken at its point cleared by E, E^C(n,2) times their values, so the
    level's sum is divided once.  The sum over term pairs is taken in two
    stages: first, for each top word of h, the bar pairings of its terms
    against each bar word; then, for each term of f, the top pairings
    against those (P is symmetric, so the column of f's top word gives
    them).

    A column of n distinct letters has n! entries, so each row of each
    level that pairs off is guarded first like the symmetrizer over its d
    letters, d = 1 + the largest letter on that row at that level."""
    levels_h = _levels(h)
    levels = [(n, fterms, levels_h[n]) for n, fterms in _levels(f).items() if n in levels_h]
    for n, fterms, hterms in levels:
        for side in (0, 1):
            _check_words(n, 1 + max(map(max, (key[side] for key, _ in fterms + hterms))) if n else 0)
    q, t, top_e = _cleared_point(params.q, params.t)
    v, w, bar_e = _cleared_point(params.v, params.w)
    top, bar = _Row(q, t), _Row(v, w)
    total = _ZERO
    for n, fterms, hterms in levels:
        f_scale, h_scale = _denominator(c for _, c in fterms), _denominator(c for _, c in hterms)
        bars: Dict[Word, Dict[Word, object]] = {}  # h's top word -> {bar word: sum of hc <e_bar, P e_hb>}
        for (ht, hb), hc in hterms:
            hc = _cleared(hc, h_scale)
            row = bars.setdefault(ht, {})
            for fb, p in _sym_column(hb, bar).items():
                prev = row.get(fb)
                row[fb] = hc * p if prev is None else prev + hc * p
        level = 0
        for (ft, fb), fc in fterms:
            pairs = [p * bars[ht][fb] for ht, p in _sym_column(ft, top).items() if fb in bars.get(ht, ())]
            if pairs:
                level = level + _cleared(fc, f_scale) * sum(pairs[1:], pairs[0])
        total = total + _over(level, f_scale * h_scale * (top_e * bar_e) ** math.comb(n, 2))
    return total


def _check_words(n: int, d: int) -> None:
    """The guard of the level-n symmetrizer over d letters: n, d >= 0 and
    at most MAX_SYMMETRIZER_WORDS words d^n, refused without forming d^n
    once its lower bound 2^bits passes the cap, so a huge n costs nothing."""
    _guards.check_size("the level n of the symmetrizer", n, math.inf)
    _guards.check_size("the letter count d of the symmetrizer", d, math.inf)
    what, cap = f"the words d^n at n = {_guards.shown(n)}, d = {_guards.shown(d)}", _guards.MAX_SYMMETRIZER_WORDS
    bits = n * (d.bit_length() - 1)  # d^n >= 2^bits
    if bits > cap.bit_length():
        raise _guards.ResourceLimitError(f"{what} is at least 2^{_guards.shown(bits)}, but is guarded at <= {cap}")
    _guards.check_size(what, d ** n, cap)


def positivity_check(n: int, a: Fraction, b: Fraction, d: int) -> Tuple[str, int]:
    """Exact definiteness verdict (verdict, kernel) of the level-n symmetrizer
    on the d^n words over d letters, from its closed-form inertia.

    With N = C(n,2), P_n(a, b) = b^N P_n(a/b, 1) for |a| < |b|, and P_n(r, 1)
    is positive definite for |r| < 1 (Bozejko-Speicher, Comm. Math. Phys.
    137, 1991; by Zagier, Comm. Math. Phys. 147, 1992, its determinant
    vanishes only at |r| = 1).  For |a| > |b|, P_n(a, b) = a^N P_n(b/a, 1) J,
    J the reversal of positions, which commutes with P_n: over d >= 2
    letters, where J has both eigenvalues, P_n is indefinite.  At a = b,
    P_n is b^N n! times the projection onto the symmetric tensors, of rank
    C(d+n-1, n), and at a = -b onto the antisymmetric ones, of rank C(d, n).
    Each sign is that of a^N or b^N, read off the parity of N.
    """
    _check_words(n, d)
    a, b = Fraction(a), Fraction(b)
    words = d ** n
    if words == 0:
        return ("zero", 0)
    if n <= 1:
        return ("positive_definite", 0)
    if a == b == 0:
        return ("zero", words)
    if abs(a) > abs(b) and d > 1:
        return ("indefinite", 0)
    if abs(a) != abs(b):
        rank = words
    else:
        rank = math.comb(d + n - 1, n) if a == b else math.comb(d, n)
    neg = math.comb(n, 2) % 2 == 1 and (a if abs(a) > abs(b) else b) < 0
    return _linalg._verdict(rank > 0 and not neg, rank > 0 and neg, words - rank)


# -- commutation checks ----------------------------------------------------------


def _check_sweep(maxlevel: int, rows: Sequence[Tuple[str, int, Sequence[int]]]) -> None:
    """The guard of a sweep through maxlevel over the basis words of each
    row, given as (name, letter count d, the sizes of its data): maxlevel
    and d at least 0, the row's data of one size and d at most that size,
    since its letters index them, and at most MAX_SYMMETRIZER_WORDS words
    d^maxlevel (:func:`_check_words`)."""
    _guards.check_size("the maxlevel of the sweep", maxlevel, math.inf)
    for name, d, sizes in rows:
        what = f"the letter count d of the {name} row"
        _guards.check_size(what, d, math.inf)
        if len(set(sizes)) > 1:
            raise ValueError(f"the {name} row's data have sizes {' and '.join(map(str, sizes))}, not one size")
        if d > sizes[0]:
            raise ValueError(f"{what} is {_guards.shown(d)}, but its data have size {sizes[0]}")
        _check_words(maxlevel, d)


def _commutation_entries(create: RowOp, annihilate: RowOp, size: int, n: int):
    """[a c, c a, Id] at (u, x) on one row, for each level-n word x over
    size letters and each word u of its images or u = x; a c e_x and
    c a e_x are expanded once per word, and an entry that sums to zero is
    kept as it is (its vector is zero, so it passes the test and adds
    nothing to a Gram matrix)."""
    for x in itertools.product(range(size), repeat=n):
        entries = {x: [0, 0, 1]}
        get = entries.get
        for k, first, second in ((0, create, annihilate), (1, annihilate, create)):
            for w, c in first(x):
                for u, cu in second(w):
                    entry = get(u)
                    if entry is None:
                        entry = entries[u] = [0, 0, 0]
                    entry[k] += c * cu
        yield from entries.values()


def check_commutation_tensor(
    x1: VectorPair, x2: VectorPair, params: DeformationParams, d: int, dbar: int, maxlevel: int = 3
) -> bool:
    """Verify the doubled commutation relation at t = w = 1 on every level
    n <= maxlevel, over the words of d top and dbar bar letters:

        A(x1) A*(x2) - qv A*(x2) A(x1)
          = q <eta1,eta2> (a* a on top) + v <xi1,xi2> (a* a on bar)
            + <xi1,xi2><eta1,eta2> Id.

    On level n, lhs - rhs is the sum over k of A_k (x) B_k, with (A_k) =
    (ac, ca, Id) on top and (B_k) = (ac, -qv ca - q <eta1,eta2> Id,
    -v <xi1,xi2> ca - <xi1,xi2><eta1,eta2> Id) on the bar, ac = a c and
    ca = c a.  It vanishes exactly when every top entry vector
    a = (A_k[u,x])_k is orthogonal to every bar one b = (B_k[u',x'])_k.
    With G the 3 x 3 Gram matrix of the bar entry vectors, a^T G a is the
    sum of the squares (a.b)^2, so the test is G a = 0 for every top entry:
    each level costs its d^n + dbar^n words, not their d^n dbar^n pairs.

    It runs on ints: each row's vectors are cleared by D and its point by
    E, so on level n a c e_w carries D^2 E^n of its row and c a e_w
    D^2 E^(n-1).  The relation is checked times
    D_top^2 D_bar^2 (E_top E_bar)^n: the twisted term takes q v cleared,
    each one-row term the other row's E^n, and the identity term
    (E_top E_bar)^n.

    A letter count below 0 or above its row's vector size, vectors of one
    row of two sizes and a maxlevel below 0 are refused (ValueError), and
    d^maxlevel or dbar^maxlevel words past MAX_SYMMETRIZER_WORDS
    (ResourceLimitError).
    """
    _check_sweep(maxlevel, (("top", d, (len(x1.xi), len(x2.xi))), ("bar", dbar, (len(x1.eta), len(x2.eta)))))
    if params.t != 1 or params.w != 1:
        raise ValueError("the doubled commutation relation needs t = w = 1")
    q, t, top_e = _cleared_point(params.q, params.t)
    v, w, bar_e = _cleared_point(params.v, params.w)
    xi1, xi2 = _cleared_array((x1.xi, x2.xi))
    eta1, eta2 = _cleared_array((x1.eta, x2.eta))
    inner_top = _linalg.dot(xi1, xi2)
    inner_bar = _linalg.dot(eta1, eta2)
    unlifted = (1,) * (maxlevel + 1)
    create_top, annihilate_top = _row_create(xi2, unlifted), _row_annihilate(xi1, _Row(q, t))
    create_bar, annihilate_bar = _row_create(eta2, unlifted), _row_annihilate(eta1, _Row(v, w))
    for n in range(0, maxlevel + 1):
        moved_id = q * inner_bar * bar_e**n
        ca_id, id_id = v * inner_top * top_e**n, inner_top * inner_bar * (top_e * bar_e) ** n
        g00 = g01 = g02 = g11 = g12 = g22 = 0  # the Gram matrix of the bar entry vectors
        for ac, ca, ident in _commutation_entries(create_bar, annihilate_bar, dbar, n):
            b1, b2 = -(q * v) * ca - moved_id * ident, -ca_id * ca - id_id * ident
            g00, g01, g02 = g00 + ac * ac, g01 + ac * b1, g02 + ac * b2
            g11, g12, g22 = g11 + b1 * b1, g12 + b1 * b2, g22 + b2 * b2
        for a0, a1, a2 in _commutation_entries(create_top, annihilate_top, d, n):
            if (
                g00 * a0 + g01 * a1 + g02 * a2 != 0
                or g01 * a0 + g11 * a1 + g12 * a2 != 0
                or g02 * a0 + g12 * a1 + g22 * a2 != 0
            ):
                return False
    return True


def _adjoint_entries(mat, row: _Row, size: int, n: int):
    """The entries (<T e_x, e_y>_P, <e_x, T' e_y>_P) of one row at each pair
    (x, y) of level-n words over size letters where either is nonzero,
    T = mat, T' its transpose and P = P^(n)_{a,b} at the row's point (the
    images and columns share its table).  P is symmetric, so the first is
    entry y of P T e_x and the second entry x of P T' e_y: one combination
    of columns per word and matrix.  An image word whose front letter is
    size or more lies off the basis and pairs with nothing.  With the row
    cleared (mat by D, a and b by E) both carry the scale D E^(n-1) E^C(n,2).
    Both sweeps key their sums by the word z swept, then the column word u:
    L by x, then y, and R by y, then x."""
    left, right = {}, {}
    unlifted = (1,) * (n + 1)
    for sums, m in ((left, mat), (right, _linalg.transpose(mat))):
        gauge = _row_gauge(m, row, unlifted)
        for z in itertools.product(range(size), repeat=n):
            acc = sums[z] = {}
            for w, c in gauge(z):
                if w[0] < size:
                    for u, p in _sym_column(w, row).items():
                        acc[u] = acc.get(u, 0) + c * p
    for x, by_y in left.items():
        for y, lv in by_y.items():
            yield lv, right[y].pop(x, 0)
    yield from ((0, rv) for by_x in right.values() for rv in by_x.values())


def gauge_adjoint_check(
    g: GaugePair, params: DeformationParams, d: int, dbar: int, maxlevel: int = 3
) -> bool:
    """<p f, h> = <f, p' h> in the deformed inner product, p' built from the
    transposed matrices, on every pair of basis words through maxlevel.  On
    level n it reads L_top (x) L_bar - R_top (x) R_bar = 0, with L[x,y] =
    <T e_x, e_y>_P and R[x,y] = <e_x, T' e_y>_P on each row, so, as in
    :func:`check_commutation_tensor`, it holds exactly when G a = 0 for
    every top entry a = (L, R), G the Gram matrix of the bar's (L, -R).
    Each row runs on ints, its matrix cleared by D and its point by E: a
    row's two entries carry the same scale, so they compare as they are.
    Sizes are guarded as in :func:`check_commutation_tensor`, each row's
    letter count at most the size of its matrix."""
    _check_sweep(maxlevel, (("top", d, (len(g.top),)), ("bar", dbar, (len(g.bar),))))
    (q, t, _), (v, w, _) = _cleared_point(params.q, params.t), _cleared_point(params.v, params.w)
    top, bar = _cleared_array(g.top), _cleared_array(g.bar)
    top_row, bar_row = _Row(q, t), _Row(v, w)  # each shared by every level of its row
    for n in range(1, maxlevel + 1):
        g00 = g01 = g11 = 0  # the Gram matrix of the bar's (L, -R) entries
        for lb, rb in _adjoint_entries(bar, bar_row, dbar, n):
            g00, g01, g11 = g00 + lb * lb, g01 - lb * rb, g11 + rb * rb
        for lt, rt in _adjoint_entries(top, top_row, d, n):
            if g00 * lt + g01 * rt != 0 or g01 * lt + g11 * rt != 0:
                return False
    return True


# -- creation operator norm -------------------------------------------------------


def creation_norm_squared(q, t) -> Tuple[Fraction, str]:
    """The squared one-row creation norm sup_n [n]_{q,t}, an exact Fraction,
    with its branch label (Bozejko-Speicher 1991, Blitvic 2012), for
    -t <= q <= t <= 1, t > 0, except q = t = 1 (unbounded): 1 for q <= 0,
    the limit 1/(1 - q) at t = 1, and else [nhat + 1], nhat the last n with
    [n+1] >= [n].  That is floor(t / (1 - t)) at q = t.  For q < t it is the
    last n with q^n (1-q) >= t^n (1-t), tested on the cleared ints
    (E q, E t, E) by doubling and bisection from floor(q / (1 - q)), up to
    which it holds.  Its powers, and the value's, have about nhat * bits(E)
    bits, so nhat, or a lower bound of it, is refused once nhat * bits(E)
    passes MAX_NORM_BITS (nhat = 25 000 at 17-bit E)."""
    q, t = Fraction(q), Fraction(t)
    if not (0 < t <= 1 and -t <= q <= t):
        raise ValueError("norm formula needs -t <= q <= t and 0 < t <= 1")
    if q <= 0:
        return _ONE, "nonpositive_twist"
    if q == t == 1:
        raise ValueError("creation operator is unbounded at q = t = 1")
    if t == 1:
        return 1 / (1 - q), "geometric"
    a, b, e = _cleared_point(q, t)
    bits, cap = e.bit_length(), _guards.MAX_NORM_BITS
    lo = a // (e - a)  # the ladder rises after level lo, the last time at q = t
    hi = lo + 1 if a == b else 0  # once hi > lo, it does not rise after level hi
    while hi != lo + 1 and lo * bits <= cap:
        mid = (lo + hi) // 2 if hi > lo else 2 * lo + 1
        if a**mid * (e - a) >= b**mid * (e - b):
            lo = mid
        else:
            hi = mid
    level = f"nhat {'=' if hi == lo + 1 else '>='} {_guards.shown(lo)}"
    _guards.check_size(f"nhat * bits(E) of the creation norm at {level} and {bits}-bit E", lo * bits, cap)
    if a == b:
        return (lo + 1) * t**lo, "equal_parameters"
    return Fraction(b ** (lo + 1) - a ** (lo + 1), e**lo * (b - a)), "mixed"
