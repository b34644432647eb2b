"""Moment formulas: Wick sums over diagonally paired partitions.

Three layers, all exact:

  * ``gaussian_wick``: vacuum moments of field operators (creation plus
    annihilation) as a sum over diagonal pair partitions, weighted by
    q^cr t^nest on the top row and v^cr w^nest on the bar row, with inner
    products of the paired vectors.
  * ``word_vacuum_formula``: the vector obtained by applying an arbitrary
    creation/annihilation word to the vacuum, as a sum over compatible
    pairs-plus-singletons partitions with crossing/covering corrections and a
    residual tensor of the surviving creator vectors.
  * ``full_wick``: vacuum moments of general operators (field + gauge +
    scalar) as a sum over all diagonal partitions, with restricted crossing
    and nesting weights and matrix-chain block factors.

The same partition weights drive the scalar moment/cumulant transforms
``cumulants_to_moments`` and ``moments_to_cumulants``: they are the word
functionals of :mod:`diagfock.levy` on one letter (r_n is the cumulant of
the word 0^n), defined there and re-exported here.  The Gaussian and general
sums are sums over role vectors R of T(R) * B(R) (see
:mod:`diagfock.partitions`): both rows carry block values, so each row is
one pass of the same open-arc DP over the role words the data allow, unless
one row is one-dimensional and folds into the other, one pass in all.  The
word expansion factorises into a top-row expansion tensored with a bar-row
expansion, each row one such pass too.  Each row clears its data by one
integer scale D per point, and its pass returns the scale S_w D by which the
sum of m points is divided, m times (see :mod:`diagfock.partitions`), so
the two rows combine as ints and the result is divided once: a Fraction at
a rational point and a Poly at the symbolic point, whatever mix of ints and
Fractions the data hold.  Every formula
has an operator counterpart in :mod:`diagfock.fock`; tests hold the two
routes against each other.  The two moment oracles keep only the terms that can still return to
the vacuum; the word oracle returns the whole vector.  Every function here
refuses entries whose xi or eta dimension differs from entry 0's, and more
entries than the open-arc DP's cap ``_guards.MAX_DIAGONAL_N``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from . import _guards
from .levy import _vector_chain, cumulants_to_moments, moments_to_cumulants  # the transforms are re-exported
from .partitions import _chain_values, role_sums, subword_sums
from .scalars import DeformationParams, _cleared, _denominator, _over
from .fock import (
    ANNIHILATE,
    CREATE,
    FockVector,
    GaugePair,
    VectorPair,
    _quadrabasic_tokens,
    _vacuum_moment,
    apply_word,
)


class _QuadrabasicOpFields(NamedTuple):
    vector: VectorPair
    gauge: Optional[GaugePair]
    lam: Fraction  # defaults in QuadrabasicOp.__new__
    lambar: Fraction


class QuadrabasicOp(_QuadrabasicOpFields):
    """One general operator: field part x, gauge pair g, scalars lam, lambar."""

    __slots__ = ()

    def __new__(cls, vector: VectorPair, gauge: Optional[GaugePair], lam: Fraction = Fraction(0),
                lambar: Fraction = Fraction(0)):
        g, x = gauge, vector
        for name, mat, d in () if g is None else (("T", g.top, len(x.xi)), ("Tbar", g.bar, len(x.eta))):
            if len(mat) != d or any(len(row) != d for row in mat):
                raise ValueError(f"gauge {name} must be {d} x {d} to act on a {d}-dimensional vector")
        return super().__new__(cls, vector, gauge, lam, lambar)

    @classmethod
    def _make(cls, iterable) -> "QuadrabasicOp":
        return cls(*iterable)  # so that _replace checks too

    @property
    def scalar(self) -> Fraction:
        return self.lam * self.lambar


def _check_entries(pairs: Sequence[VectorPair], key: str) -> None:
    """The entry check of every formula and oracle here: name the first
    entry whose xi (or eta) dimension differs from entry 0's, and refuse
    more than MAX_DIAGONAL_N entries."""
    for i, x in enumerate(pairs):
        for side in ("xi", "eta"):
            dim, first = len(getattr(x, side)), len(getattr(pairs[0], side))
            if dim != first:
                raise ValueError(f"{key}[{i}]: {side} has dimension {dim}, but {key}[0] has {first}")
    _guards.check_size(f"the number of {key}", len(pairs), _guards.MAX_DIAGONAL_N)


def gaussian_wick(xs: Sequence[VectorPair], params: DeformationParams):
    """Vacuum moment of field operators G(x_1) ... G(x_n).

    Sum over diagonal pair partitions: the top row pairs (l, r) contribute
    <xi_l, xi_r>, the bar row pairs <eta_l, eta_r>, and the partition weight
    is q^cr t^nest (top) times v^cr w^nest (bar).  Odd n has no pair
    partition, so gives 0.  This is :func:`full_wick` with no gauge and zero
    scalars, where only pair blocks have a nonzero value.
    """
    _check_entries(xs, "vectors")
    # pairs only: no gauge and zero scalars, so no point is a Middle or a Singleton
    nothing = ([None] * len(xs), [0] * len(xs))
    return _wick_sum(["OC"] * len(xs), params, ([x.xi for x in xs], *nothing), ([x.eta for x in xs], *nothing))


def gaussian_fock_oracle(xs: Sequence[VectorPair], params: DeformationParams):
    """The same moment by applying the operators to the vacuum (independent
    route), plus the point's zero: a Poly at the symbolic point, as the
    formula gives."""
    _check_entries(xs, "vectors")
    return _vacuum_moment([_quadrabasic_tokens(x, None, 0) for x in xs], params) + params.q * 0


# -- creation/annihilation word expansion ------------------------------------------


def _check_word(tokens: Sequence[Tuple[str, VectorPair]]) -> None:
    """The entry check, and a word has creators and annihilators only."""
    _check_entries([x for _, x in tokens], "tokens")
    for i, (kind, _) in enumerate(tokens):
        if kind not in (CREATE, ANNIHILATE):
            raise ValueError(f"tokens[{i}]: kind must be {CREATE!r} or {ANNIHILATE!r}, got {kind!r}")


def word_vacuum_formula(tokens: Sequence[Tuple[str, VectorPair]], params: DeformationParams) -> FockVector:
    """The vector (token_1 ... token_n) vacuum as a combinatorial sum.

    Tokens are ('create', x) or ('annihilate', x), position 1 leftmost (acting
    last).  The sum runs over pairs of pairs-plus-singletons partitions whose
    rows share the annihilator positions as pair openers; each row weight is
    q^(cr + covered singletons) t^(nest + pairs-left-of-singleton) for the top
    (v, w for the bar), each pair (i, j) contributes the inner product of the
    annihilator vector at i with the creator vector at j, and the surviving
    creator vectors form the residual tensor, in position order.

    Every row pairs each annihilator with a later creator, so all rows share
    one opener set and the sum is the top-row expansion tensored with the
    bar-row expansion, each one :func:`role_sums` pass over the role words
    with annihilators Opening and creators Closing or standing alone.
    """
    _check_word(tokens)
    roles_at = ["O" if kind == ANNIHILATE else "CS" for kind, _ in tokens]
    (top, top_den), (bar, bar_den) = (
        _word_row([x.xi for _, x in tokens], roles_at, params.q, params.t),
        _word_row([x.eta for _, x in tokens], roles_at, params.v, params.w),
    )
    out = FockVector()
    for top_word, top_coeff in top.items():
        for bar_word, bar_coeff in bar.items():
            out.add_term((top_word, bar_word), _over(top_coeff * bar_coeff, top_den * bar_den))
    return out


def _word_row(vectors: Sequence[Sequence], roles_at: Sequence[str], a, b) -> Tuple[Dict[tuple, object], int]:
    """One row of the word expansion as ({residual word: coefficient}, den),
    each coefficient over the int den being its value.

    T(R) of :func:`role_sums` sums a^cr b^nest times the inner products of
    the pairs over the rows with role vector R, a singleton being worth 1.
    R fixes the arcs open over each singleton and the pairs closed before
    it, so T(R) takes a^(open arcs) b^(closed pairs) per singleton, times
    the tensor of the singletons' vectors expanded in basis words.  Every
    factor comes cleared of its denominators: T(R) by the pass, each vector
    entry by the data's D, and a^covered b^after, with a = a'/d_a and
    b = b'/d_b, as a'^covered d_a^(most - covered) b'^after d_b^(most -
    after), where every R has the same singletons, so covered and after are
    at most most = openers * singletons."""
    chain, data = _vector_chain(vectors, (), [1] * len(vectors))
    sums, scale = role_sums(roles_at, a, b, *chain, scale=data)
    openers = roles_at.count("O")
    singletons = max(len(roles_at) - 2 * openers, 0)  # as many in every R; no R if creators are too few
    most = openers * singletons
    vectors = [chain[1](i) for i in range(len(vectors))]  # the chain's starts: the vectors cleared by data
    a_den, b_den = _denominator([a]), _denominator([b])
    a_num, b_num = _cleared(a, a_den), _cleared(b, b_den)
    out: Dict[Tuple[int, ...], object] = {}
    for roles, total in sums.items():
        opened = closed = covered = after = 0
        expansions = []
        for role, i in roles:
            if role == "O":
                opened += 1
            elif role == "C":
                closed += 1
            else:
                covered, after = covered + opened - closed, after + closed
                expansions.append([(c, x) for c, x in enumerate(vectors[i]) if x != 0])
        coeff = a_num ** covered * a_den ** (most - covered) * b_num ** after * b_den ** (most - after) * total
        for choice in itertools.product(*expansions):
            val = coeff
            for _, x in choice:
                val = val * x
            word = tuple(c for c, _ in choice)
            out[word] = out.get(word, 0) + val
    return out, scale ** len(roles_at) * data ** singletons * (a_den * b_den) ** most


def word_fock_oracle(tokens: Sequence[Tuple[str, VectorPair]], params: DeformationParams) -> FockVector:
    """The same vector by direct operator application, kept whole."""
    _check_word(tokens)
    return apply_word(tokens, params)


# -- general Wick formula ------------------------------------------------------------


def _chain_role_sums(roles_at: Sequence[str], a, b, *chain) -> Tuple[Dict[tuple, object], int]:
    """(T(R), scale) of :func:`diagfock.partitions.role_sums` on the row
    weighed by (a, b), for blocks valued by the vector chain of ``chain``
    (starts, gauges, singles; :func:`diagfock.levy._vector_chain`)."""
    callbacks, scale = _vector_chain(*chain)
    return role_sums(roles_at, a, b, *callbacks, scale=scale)


def _wick_sum(roles_at: Sequence[str], params: DeformationParams, top, bar):
    """The sum over role vectors R of T(R) * B(R): the vector chain of
    ``top`` (starts, gauges, singles) on the top row at (q, t), of ``bar``
    on the bar row at (v, w).  The rows come cleared of denominators by
    int scales, so the sum runs on them and is divided once at the end.  The
    point's zero is added to the sum (as its start it would turn every step
    into Fraction arithmetic), so the result is a Fraction at a rational
    point and a Poly at the symbolic point also where no R has a term.

    A row of one-dimensional vectors folds into the other: its B(R) is
    :func:`diagfock.partitions.unit_bar_sum` of R times each point's scalar
    in its role (eta at an Opener or Closer, Tbar at a Middle, lambda-bar
    at a Singleton), so the other row's data take those scalars and its
    weights the folded [k], and one pass over the points gives the sum."""
    n, (q, t, v, w) = len(roles_at), params
    for (starts, gauges, singles), (ones, one_gauges, one_singles), point in ((top, bar, params), (bar, top, (v, w, q, t))):
        if all(len(x) == 1 for x in ones):
            callbacks, scale = _vector_chain(
                [tuple(x * s[0] for x in vec) for vec, s in zip(starts, ones)],
                [g and tuple(tuple(x * h[0][0] for x in row) for row in g) for g, h in zip(gauges, one_gauges)],
                [x * y for x, y in zip(singles, one_singles)],
            )
            letters, roles = [(i,) for i in range(n)], [(r,) for r in roles_at]
            sums, scale = subword_sums(letters, point, _chain_values(*callbacks), roles, scale=scale)
            return _over(sums.get(tuple(range(n)), 0) + q * 0, scale ** n)
    (top_sums, top_scale), (bar_sums, bar_scale) = (
        _chain_role_sums(roles_at, q, t, *top),
        _chain_role_sums(roles_at, v, w, *bar),
    )
    total = sum((x * bar_sums[roles] for roles, x in top_sums.items() if roles in bar_sums), 0) + q * 0
    return _over(total, (top_scale * bar_scale) ** n)


def full_wick(ops: Sequence[QuadrabasicOp], params: DeformationParams):
    """Vacuum moment of general operators as a diagonal-partition sum.

    Weight: q^rc t^rnest over the top row arcs, v^rc w^rnest over the bar row,
    with restricted (cross-block) crossing/nesting counts.  A top block's
    value is the vector chain over (xi, T, lam), a bar block's over
    (eta, T-bar, lam-bar).  A point is a Middle only at a gauge and a
    Singleton only where both scalars are nonzero; other blocks have value 0.
    """
    _check_entries([op.vector for op in ops], "operators")
    gauges = [op.gauge for op in ops]
    top = ([op.vector.xi for op in ops], [g and g.top for g in gauges], [op.lam for op in ops])
    bar = ([op.vector.eta for op in ops], [g and g.bar for g in gauges], [op.lambar for op in ops])
    roles_at = ["OC" + "M" * (op.gauge is not None) + "S" * (op.lam * op.lambar != 0) for op in ops]
    return _wick_sum(roles_at, params, top, bar)


def full_fock_oracle(ops: Sequence[QuadrabasicOp], params: DeformationParams):
    """The same moment by operator application (independent route), plus the
    point's zero: a Poly at the symbolic point, as the formula gives."""
    _check_entries([op.vector for op in ops], "operators")
    return _vacuum_moment([_quadrabasic_tokens(op.vector, op.gauge, op.scalar) for op in ops], params) + params.q * 0
